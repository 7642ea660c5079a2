//! Disk-based indexing and the fraction-retrieved metric (Section 4.2,
//! Figure 24).
//!
//! The wedge machinery makes rotation-invariant CPU cost negligible, so
//! *"we should therefore also attempt to minimize disk accesses"*. The
//! model: only `D` reduced coefficients per item live in the index (in
//! memory); the full series lives "on disk" and retrieving it is the
//! expensive event being counted. A VP-tree over the reduced vectors is
//! searched with an admissible lower bound; whenever the bound cannot
//! prune an item, the item is retrieved and its exact rotation-invariant
//! distance computed with H-Merge — exactly `NNSearch` of Table 7.
//!
//! Two index flavours match the two Figure 24 series: Fourier magnitudes
//! for Euclidean queries, PAA wedge envelopes for DTW queries.

use crate::engine::{Invariance, Neighbor, RotationQuery};
use crate::error::SearchError;
use crate::hmerge::h_merge;
use crate::reduced::{Paa, PaaWedgeSet};
use crate::vptree::{BoundKind, VpTree};
use rotind_distance::measure::Measure;
use rotind_envelope::Wedge;
use rotind_fft::lower_bound::magnitude_distance;
use rotind_fft::magnitude_features;
use rotind_ts::{StepCounter, TsError};

/// Disk-access accounting for one query.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DiskStats {
    /// Items whose full series was fetched from "disk".
    pub retrieved: usize,
    /// Database size.
    pub total: usize,
}

impl DiskStats {
    /// Fraction of the database retrieved — the y-axis of Figure 24.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.retrieved as f64 / self.total as f64
        }
    }
}

/// Which reduced representation an [`IndexedDatabase`] stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReducedRepr {
    /// First `D` Fourier magnitude coefficients — admissible for
    /// rotation-invariant **Euclidean** queries.
    FourierMagnitude,
    /// `D`-segment PAA vectors — admissible for rotation-invariant
    /// **DTW** (and Euclidean) queries via wedge-envelope projection.
    Paa,
}

/// A database with a VP-tree index over `D` reduced coefficients per
/// item; full series are only touched through the counted retrieval path.
///
/// ```
/// use rotind_index::disk::{IndexedDatabase, ReducedRepr};
/// use rotind_distance::Measure;
/// use rotind_ts::rotate::rotated;
/// let db: Vec<Vec<f64>> = (0..24)
///     .map(|k| (0..64).map(|i| ((i * (k + 1)) as f64 * 0.07).sin()).collect())
///     .collect();
/// let query = rotated(&db[9], 30);
/// let index = IndexedDatabase::build(db, 8, ReducedRepr::FourierMagnitude).unwrap();
/// let (hit, stats) = index.nearest(&query, Measure::Euclidean).unwrap();
/// assert_eq!(hit.index, 9);
/// assert!(stats.fraction() <= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct IndexedDatabase {
    items: Vec<Vec<f64>>,
    n: usize,
    d: usize,
    repr: ReducedRepr,
    tree: VpTree,
}

/// Wedge-set size used for the query-side PAA envelopes; Figure 24 does
/// not sweep this, and tightness saturates quickly.
const INDEX_WEDGE_SET_SIZE: usize = 16;

impl IndexedDatabase {
    /// Build an index holding `d` coefficients of `repr` per item.
    ///
    /// # Errors
    ///
    /// [`SearchError::EmptyDatabase`] / [`SearchError::LengthMismatch`]
    /// on malformed input; `d` is clamped to `n`.
    pub fn build(items: Vec<Vec<f64>>, d: usize, repr: ReducedRepr) -> Result<Self, SearchError> {
        let Some(first) = items.first() else {
            return Err(SearchError::EmptyDatabase);
        };
        let n = first.len();
        if n == 0 {
            return Err(SearchError::invalid_param(
                "items",
                "series must be non-empty",
            ));
        }
        for (index, item) in items.iter().enumerate() {
            if item.len() != n {
                return Err(SearchError::LengthMismatch {
                    index,
                    expected: n,
                    actual: item.len(),
                });
            }
        }
        if d == 0 {
            return Err(SearchError::invalid_param("d", "must be >= 1"));
        }
        let d = d.min(n);
        let reduced: Vec<Vec<f64>> = match repr {
            ReducedRepr::FourierMagnitude => {
                items.iter().map(|s| magnitude_features(s, d)).collect()
            }
            ReducedRepr::Paa => items
                .iter()
                .map(|s| Paa::of(s, d).values().to_vec())
                .collect(),
        };
        let tree = VpTree::build(reduced);
        Ok(IndexedDatabase {
            items,
            n,
            d,
            repr,
            tree,
        })
    }

    /// Database size.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when no items are indexed (construction forbids this).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Series length `n`.
    pub fn series_len(&self) -> usize {
        self.n
    }

    /// Reduced dimensionality `D`.
    pub fn dims(&self) -> usize {
        self.d
    }

    /// The reduced representation stored.
    pub fn repr(&self) -> ReducedRepr {
        self.repr
    }

    /// Exact rotation-invariant 1-NN through the index, counting disk
    /// retrievals. The measure must be admissible for the stored
    /// representation: Euclidean for [`ReducedRepr::FourierMagnitude`],
    /// Euclidean or DTW for [`ReducedRepr::Paa`].
    pub fn nearest(
        &self,
        query: &[f64],
        measure: Measure,
    ) -> Result<(Neighbor, DiskStats), SearchError> {
        if query.len() != self.n {
            return Err(SearchError::LengthMismatch {
                index: usize::MAX,
                expected: self.n,
                actual: query.len(),
            });
        }
        if matches!(measure, Measure::Lcss(_)) {
            return Err(SearchError::invalid_param(
                "measure",
                "the disk index supports Euclidean and DTW queries",
            ));
        }
        if matches!(self.repr, ReducedRepr::FourierMagnitude)
            && !matches!(measure, Measure::Euclidean)
        {
            return Err(SearchError::invalid_param(
                "measure",
                "Fourier magnitudes only lower-bound Euclidean; build a Paa index for DTW",
            ));
        }

        // Query-side machinery: the H-Merge engine for exact refinement...
        let engine = RotationQuery::with_measure(query, Invariance::Rotation, measure)
            .map_err(|e: TsError| SearchError::invalid_param("query", e.to_string()))?;
        let tree = engine.tree();
        let cut = tree.cut_nodes(INDEX_WEDGE_SET_SIZE.min(tree.max_k()));
        let mut counter = StepCounter::new();
        let mut retrieved = 0usize;

        // Table 7: the retrieved item's exact distance is computed by
        // H-Merge *under the running best-so-far*, so hopeless rotations
        // abandon early; items that cannot beat the threshold report +∞.
        let mut refine = |i: usize, bsf: f64| -> f64 {
            retrieved += 1;
            h_merge(&self.items[i], tree, &cut, bsf, measure, &mut counter)
                .map_or(f64::INFINITY, |o| o.distance)
        };

        let (best, _stats) = match self.repr {
            ReducedRepr::FourierMagnitude => {
                let qm = magnitude_features(query, self.d);
                let mut scratch = StepCounter::new();
                self.tree.best_first(
                    BoundKind::MetricToPoint,
                    |x| magnitude_distance(&qm, x, &mut scratch),
                    &mut refine,
                    f64::INFINITY,
                )
            }
            ReducedRepr::Paa => {
                let wedges: Vec<&Wedge> = cut.iter().map(|&node| tree.lb_wedge(node)).collect();
                let set = PaaWedgeSet::new(&wedges, self.d);
                let seg = self.n / self.d.min(self.n);
                let mut scratch = StepCounter::new();
                self.tree.best_first(
                    BoundKind::Lipschitz,
                    |x| set.lower_bound(&Paa::from_scaled(x.to_vec(), seg), &mut scratch),
                    &mut refine,
                    f64::INFINITY,
                )
            }
        };

        let (index, _) = best.expect("non-empty database with infinite threshold");
        // Recompute the winning neighbour's rotation (cheap: one item).
        let outcome = h_merge(
            &self.items[index],
            tree,
            &cut,
            f64::INFINITY,
            measure,
            &mut counter,
        )
        .expect("infinite threshold always matches");
        Ok((
            Neighbor {
                index,
                distance: outcome.distance,
                rotation: outcome.rotation,
            },
            DiskStats {
                retrieved,
                total: self.items.len(),
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotind_distance::dtw::DtwParams;
    use rotind_distance::rotation::search_database;
    use rotind_ts::rotate::{rotated, RotationMatrix};

    fn signal(n: usize, phase: f64, w: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * w + phase).sin() + 0.4 * (i as f64 * 0.11).cos())
            .collect()
    }

    fn diverse_db(m: usize, n: usize) -> Vec<Vec<f64>> {
        (0..m)
            .map(|k| signal(n, k as f64 * 0.9, 0.07 + 0.011 * (k % 17) as f64))
            .collect()
    }

    #[test]
    fn fourier_index_exact_vs_brute_force() {
        let n = 64;
        let mut db = diverse_db(60, n);
        let query = signal(n, 0.123, 0.20);
        db[41] = rotated(&query, 30);
        for d in [4usize, 8, 16, 32] {
            let index =
                IndexedDatabase::build(db.clone(), d, ReducedRepr::FourierMagnitude).unwrap();
            let (hit, stats) = index.nearest(&query, Measure::Euclidean).unwrap();
            let matrix = RotationMatrix::full(&query).unwrap();
            let oracle =
                search_database(&matrix, &db, Measure::Euclidean, &mut StepCounter::new()).unwrap();
            assert_eq!(hit.index, oracle.index, "d = {d}");
            assert!((hit.distance - oracle.distance).abs() < 1e-9);
            assert!(stats.retrieved >= 1 && stats.retrieved <= stats.total);
        }
    }

    #[test]
    fn paa_index_exact_for_dtw() {
        let n = 48;
        let measure = Measure::Dtw(DtwParams::new(2));
        let mut db = diverse_db(40, n);
        let query = signal(n, 0.321, 0.23);
        db[17] = rotated(&query, 11);
        for d in [4usize, 8, 16] {
            let index = IndexedDatabase::build(db.clone(), d, ReducedRepr::Paa).unwrap();
            let (hit, stats) = index.nearest(&query, measure).unwrap();
            let matrix = RotationMatrix::full(&query).unwrap();
            let oracle = search_database(&matrix, &db, measure, &mut StepCounter::new()).unwrap();
            assert_eq!(hit.index, oracle.index, "d = {d}");
            assert!((hit.distance - oracle.distance).abs() < 1e-9);
            assert!(stats.fraction() <= 1.0);
        }
    }

    #[test]
    fn higher_dimensionality_retrieves_no_more() {
        // More coefficients → tighter bounds → (weakly) fewer disk reads.
        let n = 64;
        let db = diverse_db(120, n);
        let query = signal(n, 2.0, 0.16);
        let frac = |d: usize| {
            let index =
                IndexedDatabase::build(db.clone(), d, ReducedRepr::FourierMagnitude).unwrap();
            index
                .nearest(&query, Measure::Euclidean)
                .unwrap()
                .1
                .fraction()
        };
        // Not strictly monotone point-by-point (tree layout changes with
        // d), but the trend across the sweep must not invert grossly.
        let f4 = frac(4);
        let f32 = frac(32);
        assert!(
            f32 <= f4 + 0.1,
            "d=32 fraction {f32} grossly above d=4 fraction {f4}"
        );
    }

    #[test]
    fn index_beats_full_retrieval() {
        let n = 64;
        let db = diverse_db(200, n);
        let query = signal(n, 2.2, 0.18);
        let index = IndexedDatabase::build(db.clone(), 16, ReducedRepr::FourierMagnitude).unwrap();
        let (_, stats) = index.nearest(&query, Measure::Euclidean).unwrap();
        assert!(
            stats.fraction() < 0.8,
            "index should prune: fraction = {}",
            stats.fraction()
        );
    }

    #[test]
    fn error_paths() {
        assert_eq!(
            IndexedDatabase::build(Vec::new(), 4, ReducedRepr::Paa).unwrap_err(),
            SearchError::EmptyDatabase
        );
        let db = vec![vec![1.0; 8], vec![1.0; 7]];
        assert!(matches!(
            IndexedDatabase::build(db, 4, ReducedRepr::Paa),
            Err(SearchError::LengthMismatch { index: 1, .. })
        ));
        let db = diverse_db(5, 16);
        let index = IndexedDatabase::build(db, 4, ReducedRepr::FourierMagnitude).unwrap();
        assert!(index.nearest(&[0.0; 9], Measure::Euclidean).is_err());
        assert!(index
            .nearest(&[0.0; 16], Measure::Dtw(DtwParams::new(2)))
            .is_err());
        let db = diverse_db(5, 16);
        let paa_index = IndexedDatabase::build(db, 4, ReducedRepr::Paa).unwrap();
        assert!(paa_index
            .nearest(
                &[0.0; 16],
                Measure::Lcss(rotind_distance::lcss::LcssParams::new(0.5, 2))
            )
            .is_err());
    }

    #[test]
    fn disk_stats_fraction() {
        let s = DiskStats {
            retrieved: 5,
            total: 20,
        };
        assert_eq!(s.fraction(), 0.25);
        assert_eq!(DiskStats::default().fraction(), 0.0);
    }
}
