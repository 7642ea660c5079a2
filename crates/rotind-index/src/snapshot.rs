//! Immutable database snapshots for long-lived serving.
//!
//! A query service owns one validated, immutable database and
//! multiplexes many queries over it. [`IndexSnapshot`] is that handle:
//! the database sits behind an [`Arc`], so worker threads share it
//! without copies and a snapshot swap is a pointer swap; validation
//! (non-empty, uniform series length) happens once at construction
//! instead of once per query; and [`IndexSnapshot::execute`] is the
//! single entry point the serve crate drives, handing a [`QuerySpec`]
//! to the engine's one sequential scan, [`RotationQuery::search`] —
//! optionally through a [`BatchPaaCache`], so the tier-2 candidate
//! projections are amortized across the queries of a worker instead of
//! rebuilt per query, and Euclidean queries visit candidates best-first
//! by the snapshot's shared [`MagnitudeTable`].
//!
//! Results are bit-identical to calling [`RotationQuery`] directly:
//! `execute` adds only the query checks, ownership and dispatch (the
//! serve integration tests replay fixed query sets both ways and assert
//! equality).

use crate::cascade::{BatchPaaCache, CascadeConfig};
use crate::engine::{Invariance, Neighbor, RotationQuery};
use crate::error::SearchError;
use crate::reduced::MagnitudeTable;
use rotind_distance::measure::Measure;
use rotind_obs::{BudgetHook, BudgetOutcome, SearchObserver};
use rotind_ts::{StepCounter, TsError};
use std::sync::{Arc, OnceLock};

/// What a query asks for: the request shape of both scans,
/// [`RotationQuery::search`] and [`RotationQuery::search_parallel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryKind {
    /// The single nearest neighbour.
    Nearest,
    /// The `k` nearest neighbours (ties broken by database order).
    KNearest(usize),
    /// Every item within the radius (inclusive).
    Range(f64),
}

/// One self-contained query against a snapshot: the series, the
/// admitted rotations, the measure and the kind of answer wanted.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// The query series (must match the snapshot's series length).
    pub series: Vec<f64>,
    /// Which rotations of the query are admitted.
    pub invariance: Invariance,
    /// The distance measure to search under.
    pub measure: Measure,
    /// Nearest / k-NN / range.
    pub kind: QueryKind,
}

/// A validated, immutable, shareable database handle.
///
/// Cloning a snapshot clones the [`Arc`]s, not the data — the server's
/// worker threads each hold one handle to the same database, and to the
/// same slot for its [`MagnitudeTable`], which the first Euclidean query
/// through any of the snapshot's caches fills (see [`BatchPaaCache`]).
#[derive(Debug, Clone)]
pub struct IndexSnapshot {
    database: Arc<Vec<Vec<f64>>>,
    series_len: usize,
    magnitudes: Arc<OnceLock<MagnitudeTable>>,
}

impl IndexSnapshot {
    /// Validate and take ownership of a database: it must be non-empty
    /// and every series must have the same length.
    pub fn new(database: Vec<Vec<f64>>) -> Result<Self, SearchError> {
        let Some(first) = database.first() else {
            return Err(SearchError::EmptyDatabase);
        };
        let series_len = first.len();
        for (index, item) in database.iter().enumerate() {
            if item.len() != series_len {
                return Err(SearchError::LengthMismatch {
                    index,
                    expected: series_len,
                    actual: item.len(),
                });
            }
        }
        Ok(IndexSnapshot {
            database: Arc::new(database),
            series_len,
            magnitudes: Arc::default(),
        })
    }

    /// The snapshot's database.
    pub fn database(&self) -> &[Vec<f64>] {
        &self.database
    }

    /// Number of series in the snapshot.
    pub fn len(&self) -> usize {
        self.database.len()
    }

    /// Always false — construction rejects empty databases — but kept
    /// for the conventional pairing with [`len`](Self::len).
    pub fn is_empty(&self) -> bool {
        self.database.is_empty()
    }

    /// Length `n` of every series in the snapshot.
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// A fresh candidate cache sized for this snapshot, at the
    /// dimensionality the engine's default cascade configuration
    /// (`ROTIND_CASCADE`) will project at. One per worker thread; every
    /// cache of one snapshot shares its [`MagnitudeTable`], built once
    /// on the first Euclidean query. See [`BatchPaaCache`].
    pub fn paa_cache(&self) -> BatchPaaCache {
        BatchPaaCache::sharing(
            self.database.len(),
            CascadeConfig::from_env().dims,
            Arc::clone(&self.magnitudes),
        )
    }

    /// Run one query against the snapshot under a budget, optionally
    /// through a worker's [`BatchPaaCache`].
    ///
    /// This is pure dispatch to [`RotationQuery::search`]:
    /// [`QueryKind::Nearest`] is k-NN at `k = 1` (so the answer is a
    /// zero-or-one element vector — empty only when an exhausted budget
    /// tripped before any item was admitted), and results are
    /// bit-identical to calling the engine directly. The query length is
    /// checked against the snapshot before the engine is built, so a
    /// malformed query cannot make the `O(n²)` build allocate for a
    /// length the snapshot never holds; an empty query or one with a NaN
    /// or infinite sample is a [`SearchError::InvalidQuery`]. Engine
    /// construction is not counted in `counter`, matching direct engine
    /// use.
    ///
    /// Through a `cache`, a Euclidean k-NN query visits candidates
    /// best-first by their magnitude bound and stops at the best-so-far,
    /// and a Euclidean range query skips candidates whose bound exceeds
    /// the radius (see [`RotationQuery::search`]); the first such query
    /// builds the snapshot's [`MagnitudeTable`], uncharged, and a
    /// concurrent first query waits for that build. DTW, LCSS and
    /// uncached queries scan in database order.
    pub fn execute<O: SearchObserver, B: BudgetHook>(
        &self,
        spec: &QuerySpec,
        counter: &mut StepCounter,
        observer: &mut O,
        budget: &mut B,
        cache: Option<&mut BatchPaaCache>,
    ) -> Result<BudgetOutcome<Vec<Neighbor>>, SearchError> {
        if spec.series.len() != self.series_len {
            return Err(SearchError::QueryLength {
                query: spec.series.len(),
                database: self.series_len,
            });
        }
        let engine = RotationQuery::with_measure(&spec.series, spec.invariance, spec.measure)
            .map_err(|e| match e {
                TsError::Empty | TsError::NonFinite { .. } => SearchError::InvalidQuery(e),
                e => SearchError::invalid_param("query", e.to_string()),
            })?;
        let db = self.database.as_slice();
        engine.search(db, spec.kind, counter, observer, budget, cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotind_obs::{NoBudget, NoopObserver, QueryBudget};
    use rotind_ts::rotate::rotated;

    fn signal(n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.31 + phase).sin() + 0.4 * (i as f64 * 0.83 + phase).cos())
            .collect()
    }

    fn database(m: usize, n: usize) -> Vec<Vec<f64>> {
        (0..m).map(|k| signal(n, 1.0 + k as f64 * 0.41)).collect()
    }

    #[test]
    fn construction_validates() {
        assert_eq!(
            IndexSnapshot::new(vec![]).unwrap_err(),
            SearchError::EmptyDatabase
        );
        let ragged = vec![vec![0.0; 8], vec![0.0; 9]];
        assert!(matches!(
            IndexSnapshot::new(ragged).unwrap_err(),
            SearchError::LengthMismatch {
                index: 1,
                expected: 8,
                actual: 9
            }
        ));
        let snap = IndexSnapshot::new(database(5, 16)).unwrap();
        assert_eq!((snap.len(), snap.series_len()), (5, 16));
        assert!(!snap.is_empty());
    }

    #[test]
    fn execute_matches_direct_engine_calls() {
        let n = 32;
        let mut db = database(20, n);
        let query = signal(n, 0.12);
        db[7] = rotated(&query, 11);
        let snap = IndexSnapshot::new(db.clone()).unwrap();
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let radius = engine.nearest(&db).unwrap().distance + 1.0;

        for kind in [
            QueryKind::Nearest,
            QueryKind::KNearest(4),
            QueryKind::Range(radius),
        ] {
            let spec = QuerySpec {
                series: query.clone(),
                invariance: Invariance::Rotation,
                measure: Measure::Euclidean,
                kind,
            };
            let got = snap
                .execute(
                    &spec,
                    &mut StepCounter::new(),
                    &mut NoopObserver,
                    &mut NoBudget,
                    None,
                )
                .unwrap()
                .into_inner();
            let expected = match kind {
                QueryKind::Nearest => vec![engine.nearest(&db).unwrap()],
                QueryKind::KNearest(k) => engine.k_nearest(&db, k).unwrap(),
                QueryKind::Range(r) => engine.range(&db, r).unwrap(),
            };
            assert_eq!(got, expected, "{kind:?}");
        }
    }

    #[test]
    fn cached_execute_is_result_identical_and_amortizes_steps() {
        let n = 32;
        let db = database(40, n);
        let snap = IndexSnapshot::new(db).unwrap();
        let mut cache = snap.paa_cache();
        let specs: Vec<QuerySpec> = (0..4)
            .map(|i| QuerySpec {
                series: signal(n, 0.1 + i as f64 * 0.2),
                invariance: Invariance::Rotation,
                measure: Measure::Euclidean,
                kind: QueryKind::KNearest(3),
            })
            .collect();
        let mut cached_steps = 0u64;
        let mut fresh_steps = 0u64;
        for spec in &specs {
            let mut c1 = StepCounter::new();
            let cached = snap
                .execute(
                    spec,
                    &mut c1,
                    &mut NoopObserver,
                    &mut NoBudget,
                    Some(&mut cache),
                )
                .unwrap()
                .into_inner();
            let mut c2 = StepCounter::new();
            let fresh = snap
                .execute(spec, &mut c2, &mut NoopObserver, &mut NoBudget, None)
                .unwrap()
                .into_inner();
            assert_eq!(cached, fresh, "cache must never change results");
            cached_steps += c1.steps();
            fresh_steps += c2.steps();
        }
        assert!(
            cached_steps <= fresh_steps,
            "cached {cached_steps} !<= fresh {fresh_steps}"
        );
        if cache.reused() > 0 {
            assert!(
                cached_steps < fresh_steps,
                "reuse must save the recharged projections"
            );
        }
    }

    #[test]
    fn execute_rejects_mismatched_cache_dims() {
        let snap = IndexSnapshot::new(database(5, 16)).unwrap();
        let mut wrong = BatchPaaCache::new(snap.len(), CascadeConfig::from_env().dims + 1);
        let spec = QuerySpec {
            series: signal(16, 0.0),
            invariance: Invariance::Rotation,
            measure: Measure::Euclidean,
            kind: QueryKind::Nearest,
        };
        let err = snap
            .execute(
                &spec,
                &mut StepCounter::new(),
                &mut NoopObserver,
                &mut NoBudget,
                Some(&mut wrong),
            )
            .unwrap_err();
        assert!(matches!(err, SearchError::InvalidParam { .. }));
    }

    #[test]
    fn execute_rejects_a_cache_of_another_size() {
        let snap = IndexSnapshot::new(database(5, 16)).unwrap();
        let mut wrong = BatchPaaCache::new(snap.len() + 1, CascadeConfig::from_env().dims);
        let spec = QuerySpec {
            series: signal(16, 0.0),
            invariance: Invariance::Rotation,
            measure: Measure::Euclidean,
            kind: QueryKind::Nearest,
        };
        let err = snap
            .execute(
                &spec,
                &mut StepCounter::new(),
                &mut NoopObserver,
                &mut NoBudget,
                Some(&mut wrong),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            SearchError::InvalidParam { name: "cache", .. }
        ));
    }

    #[test]
    fn caches_of_one_snapshot_share_one_magnitude_table() {
        let snap = IndexSnapshot::new(database(6, 16)).unwrap();
        let (mut a, b) = (snap.paa_cache(), snap.clone().paa_cache());
        assert!(snap.magnitudes.get().is_none(), "built lazily, not at load");
        let spec = QuerySpec {
            series: signal(16, 0.3),
            invariance: Invariance::Rotation,
            measure: Measure::Dtw(rotind_distance::dtw::DtwParams::new(2)),
            kind: QueryKind::Nearest,
        };
        let run = |spec: &QuerySpec, cache: &mut BatchPaaCache| {
            snap.execute(
                spec,
                &mut StepCounter::new(),
                &mut NoopObserver,
                &mut NoBudget,
                Some(cache),
            )
            .unwrap()
        };
        run(&spec, &mut a);
        assert!(snap.magnitudes.get().is_none(), "DTW builds no table");
        let spec = QuerySpec {
            measure: Measure::Euclidean,
            ..spec
        };
        run(&spec, &mut a);
        let built = snap
            .magnitudes
            .get()
            .expect("the first Euclidean query builds it");
        assert!(std::ptr::eq(built, b.magnitudes(snap.database())));
        assert_eq!(built.len(), snap.len());
    }

    #[test]
    fn non_finite_query_samples_are_invalid_queries() {
        let snap = IndexSnapshot::new(database(5, 16)).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut series = signal(16, 0.0);
            series[3] = bad;
            let spec = QuerySpec {
                series,
                invariance: Invariance::Rotation,
                measure: Measure::Euclidean,
                kind: QueryKind::Nearest,
            };
            let err = snap
                .execute(
                    &spec,
                    &mut StepCounter::new(),
                    &mut NoopObserver,
                    &mut NoBudget,
                    Some(&mut snap.paa_cache()),
                )
                .unwrap_err();
            assert_eq!(
                err,
                SearchError::InvalidQuery(TsError::NonFinite { index: 3 }),
                "{bad}"
            );
        }
    }

    #[test]
    fn execute_surfaces_budget_exhaustion() {
        let snap = IndexSnapshot::new(database(30, 24)).unwrap();
        let spec = QuerySpec {
            series: signal(24, 0.2),
            invariance: Invariance::Rotation,
            measure: Measure::Euclidean,
            kind: QueryKind::Nearest,
        };
        let mut budget = QueryBudget::max_steps(1);
        let outcome = snap
            .execute(
                &spec,
                &mut StepCounter::new(),
                &mut NoopObserver,
                &mut budget,
                None,
            )
            .unwrap();
        assert!(!outcome.is_complete(), "a 1-step budget must trip");
    }

    #[test]
    fn bad_query_series_is_a_typed_error() {
        let snap = IndexSnapshot::new(database(5, 16)).unwrap();
        let spec = QuerySpec {
            series: signal(8, 0.0), // wrong length vs snapshot
            invariance: Invariance::Rotation,
            measure: Measure::Euclidean,
            kind: QueryKind::Nearest,
        };
        let err = snap
            .execute(
                &spec,
                &mut StepCounter::new(),
                &mut NoopObserver,
                &mut NoBudget,
                None,
            )
            .unwrap_err();
        assert_eq!(
            err,
            SearchError::QueryLength {
                query: 8,
                database: 16
            }
        );
    }
}
