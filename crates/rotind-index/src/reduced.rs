//! Reduced representations for disk-based indexing (Section 4.2,
//! Figure 24).
//!
//! The index must prune *in the reduced space*, i.e. from `D ≪ n`
//! numbers per item, while remaining admissible with respect to the true
//! rotation-invariant distance:
//!
//! * **Euclidean** — the first `D` Fourier magnitude coefficients (the
//!   paper's choice, after \[4\]/\[38\]): Euclidean distance between
//!   magnitude prefixes lower-bounds the rotation-invariant Euclidean
//!   distance (see `rotind-fft::lower_bound`).
//! * **DTW** — Fourier magnitudes do *not* lower-bound DTW, so the paper's
//!   elided "minor modifications" are realised here with the classic
//!   PAA projection: each item stores `D` segment means, the query-side
//!   wedge envelopes (already widened by the band, Proposition 2) are
//!   projected to per-segment max/min, and the point-to-envelope distance
//!   in PAA space lower-bounds `LB_Keogh_DTW` and hence DTW. Segments of
//!   equal width `⌊n/D⌋` are used and the remainder tail is dropped —
//!   dropping non-negative terms preserves admissibility for awkward
//!   lengths like the paper's `n = 251`.
//!
//! Stored PAA vectors are pre-scaled by `√seg` so that the envelope
//! distance is plain Euclidean geometry in the reduced space and is
//! 1-Lipschitz there — the property the VP-tree search relies on. The
//! PAA types serve only that disk index ([`crate::disk`]); the engine's
//! wedge scan bounds with LB_Keogh alone.
//!
//! The serve path orders its Euclidean candidates by the same Fourier
//! bound, folded over the conjugate-symmetric half of the spectrum
//! ([`MagnitudeTable`]).

use rotind_envelope::Wedge;
use rotind_fft::lower_bound::{fft_cost_model, folded_magnitude_features, magnitude_distance};
use rotind_ts::stats::sum_sq;
use rotind_ts::StepCounter;

/// Folded Fourier-magnitude coefficients per item of a
/// [`MagnitudeTable`]. On the 2,000-item, `n = 251` Euclidean serve
/// workload a 1-NN query visited 539 items on average at 8
/// coefficients, 486 at 16 and 477 at 32.
pub const MAGNITUDE_DIMS: usize = 16;

/// Slack subtracted from every [`MagnitudeTable`] bound, relative to
/// `‖q‖ + ‖c‖`. FFT rounding is about `1e-13` of the norms at the served
/// sizes, and the scan's own sum of squares is within `n·ε` of the true
/// distance, itself at most `‖q‖ + ‖c‖`; `1e-9` covers both with room,
/// so a bound never exceeds a distance the scan would compute.
const MAGNITUDE_SLACK: f64 = 1e-9;

/// The reduced-space index of the serve path's best-first Euclidean
/// scan: every item's folded Fourier-magnitude features
/// ([`folded_magnitude_features`], [`dims`](Self::dims) per item,
/// row-major) and its L2 norm, in flat vectors.
///
/// `‖f(q) − f(c)‖` lower-bounds the rotation-invariant Euclidean
/// distance under every invariance: magnitudes ignore circular shifts
/// and reversal, and limiting the rotations only raises the minimum. So
/// [`crate::engine::RotationQuery::search`] can visit candidates in
/// bound order and stop once the bound passes the best-so-far — the
/// paper's `NNSearch` (Table 7) over a sorted pass instead of a VP-tree.
#[derive(Debug, Clone, PartialEq)]
pub struct MagnitudeTable {
    dims: usize,
    features: Vec<f64>,
    norms: Vec<f64>,
}

impl MagnitudeTable {
    /// The features (at `dims` coefficients, clamped to `⌈n/2⌉`) and
    /// norms of every item of `database`, whose items must share one
    /// length. One FFT per item; it charges no steps, because it is
    /// index construction, like the engine build.
    pub fn build(database: &[Vec<f64>], dims: usize) -> Self {
        let dims = database
            .first()
            .map_or(0, |item| dims.min(item.len().div_ceil(2)));
        let mut features = Vec::with_capacity(database.len().saturating_mul(dims));
        for item in database {
            features.extend(folded_magnitude_features(item, dims));
        }
        MagnitudeTable {
            dims,
            features,
            norms: database.iter().map(|item| sum_sq(item).sqrt()).collect(),
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.norms.len()
    }

    /// True for the table of an empty database.
    pub fn is_empty(&self) -> bool {
        self.norms.is_empty()
    }

    /// Features per item.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// One bound per item for a finite `query` of the items' length:
    /// `max(0, ‖f(q) − f(c)‖ − 1e-9·(‖q‖ + ‖c‖))`, at most the
    /// rotation-invariant Euclidean distance the scan computes for that
    /// item (see `MAGNITUDE_SLACK`). A non-finite bound (from a NaN or
    /// infinite item) is 0, so that item is never dismissed by it.
    ///
    /// Charges `fft_cost_model(n)` for the query's features and one step
    /// per coefficient per item, as the FFT baseline charges its own.
    pub fn lower_bounds(&self, query: &[f64], counter: &mut StepCounter) -> Vec<f64> {
        counter.add(fft_cost_model(query.len()));
        let features = folded_magnitude_features(query, self.dims);
        let norm = sum_sq(query).sqrt();
        self.features
            .chunks_exact(self.dims.max(1))
            .zip(&self.norms)
            .map(|(item, item_norm)| {
                let lb = magnitude_distance(&features, item, counter)
                    - MAGNITUDE_SLACK * (norm + item_norm);
                if lb.is_finite() {
                    lb.max(0.0)
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// A `√seg`-scaled piecewise aggregate approximation.
#[derive(Debug, Clone, PartialEq)]
pub struct Paa {
    values: Vec<f64>,
    seg: usize,
}

impl Paa {
    /// Project `series` onto `d` equal segments of width `⌊n/d⌋`
    /// (clamped so the width is at least 1); the remainder tail is
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics for an empty series or `d = 0`.
    // lint: panic-exempt(documented preconditions: the snapshot rejects empty series and zero dims at admission)
    pub fn of(series: &[f64], d: usize) -> Self {
        let n = series.len();
        assert!(n > 0, "Paa::of: empty series");
        assert!(d > 0, "Paa::of: d must be >= 1");
        let d = d.min(n);
        let seg = n / d;
        let scale = (seg as f64).sqrt();
        let values = (0..d)
            .map(|j| {
                let chunk = &series[j * seg..(j + 1) * seg];
                scale * chunk.iter().sum::<f64>() / seg as f64
            })
            .collect();
        Paa { values, seg }
    }

    /// Rebuild a `Paa` from already-scaled values (as stored in an
    /// index). The caller asserts the values came from [`Paa::of`] with
    /// the same segment width.
    pub fn from_scaled(values: Vec<f64>, seg: usize) -> Self {
        assert!(seg > 0, "Paa::from_scaled: seg must be >= 1");
        Paa { values, seg }
    }

    /// The scaled segment means (length `d`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Segment width.
    pub fn seg(&self) -> usize {
        self.seg
    }

    /// Number of segments `d`.
    pub fn dims(&self) -> usize {
        self.values.len()
    }
}

/// A wedge envelope projected to PAA space: per-segment max of `U` and
/// min of `L`, `√seg`-scaled like [`Paa`].
#[derive(Debug, Clone, PartialEq)]
pub struct PaaEnvelope {
    upper: Vec<f64>,
    lower: Vec<f64>,
    seg: usize,
}

impl PaaEnvelope {
    /// Project a wedge onto `d` segments. Pass the *lower-bounding*
    /// wedge (already widened by the DTW band) for DTW admissibility.
    // lint: panic-exempt(documented preconditions: wedges are non-empty and PaaWedgeSet fixes d at construction)
    pub fn of_wedge(wedge: &Wedge, d: usize) -> Self {
        let n = wedge.len();
        assert!(n > 0, "PaaEnvelope::of_wedge: empty wedge");
        assert!(d > 0, "PaaEnvelope::of_wedge: d must be >= 1");
        let d = d.min(n);
        let seg = n / d;
        let scale = (seg as f64).sqrt();
        let mut upper = Vec::with_capacity(d);
        let mut lower = Vec::with_capacity(d);
        for j in 0..d {
            let range = j * seg..(j + 1) * seg;
            let u = wedge.upper()[range.clone()]
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            let l = wedge.lower()[range]
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            upper.push(scale * u);
            lower.push(scale * l);
        }
        PaaEnvelope { upper, lower, seg }
    }

    /// Segment width.
    pub fn seg(&self) -> usize {
        self.seg
    }

    /// `LB_PAA`: the Euclidean distance from a PAA point to this envelope
    /// rectangle — an admissible lower bound of `LB_Keogh` between the
    /// full-resolution series and wedge (per-segment Jensen argument).
    /// One step per segment.
    // lint: panic-exempt(the disk index projects items and envelopes at the same d)
    pub fn min_dist(&self, paa: &Paa, counter: &mut StepCounter) -> f64 {
        assert_eq!(self.seg, paa.seg, "PaaEnvelope::min_dist: segment mismatch");
        assert_eq!(
            self.upper.len(),
            paa.values.len(),
            "PaaEnvelope::min_dist: dimension mismatch"
        );
        let mut acc = 0.0;
        for ((&x, &u), &l) in paa.values.iter().zip(&self.upper).zip(&self.lower) {
            counter.tick();
            if x > u {
                let t = x - u;
                acc += t * t;
            } else if x < l {
                let t = l - x;
                acc += t * t;
            }
        }
        acc.sqrt()
    }
}

/// The query side of the DTW disk index: the PAA projections of a
/// wedge-set cut. The per-item lower bound is the minimum over the set.
#[derive(Debug, Clone)]
pub struct PaaWedgeSet {
    envelopes: Vec<PaaEnvelope>,
}

impl PaaWedgeSet {
    /// Project each wedge of a cut.
    // lint: panic-exempt(documented precondition: dendrogram cuts are never empty)
    pub fn new(wedges: &[&Wedge], d: usize) -> Self {
        assert!(!wedges.is_empty(), "PaaWedgeSet::new: empty wedge set");
        PaaWedgeSet {
            envelopes: wedges.iter().map(|w| PaaEnvelope::of_wedge(w, d)).collect(),
        }
    }

    /// Admissible lower bound of the rotation-invariant distance: the
    /// minimum point-to-envelope distance over the wedge set (every
    /// rotation lives in some wedge).
    // lint: witness-exempt(min-fold over PaaEnvelope::min_dist; the true distance is not available at this layer to witness at runtime — admissibility vs DTW is property-tested in this module's tests and tests/lower_bounds.rs)
    pub fn lower_bound(&self, paa: &Paa, counter: &mut StepCounter) -> f64 {
        self.envelopes
            .iter()
            .map(|e| e.min_dist(paa, counter))
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotind_distance::dtw::{dtw, DtwParams};
    use rotind_envelope::WedgeTree;
    use rotind_ts::rotate::RotationMatrix;

    fn steps() -> StepCounter {
        StepCounter::new()
    }

    fn signal(n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.23 + phase).sin() + 0.3 * (i as f64 * 0.71).cos())
            .collect()
    }

    #[test]
    fn paa_basic() {
        let p = Paa::of(&[1.0, 3.0, 5.0, 7.0], 2);
        // seg = 2, scale = √2; means are 2 and 6.
        assert_eq!(p.seg(), 2);
        assert_eq!(p.dims(), 2);
        assert!((p.values()[0] - 2.0 * 2f64.sqrt()).abs() < 1e-12);
        assert!((p.values()[1] - 6.0 * 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn paa_with_remainder_drops_tail() {
        // n = 7, d = 2 → seg = 3, uses first 6 samples.
        let p = Paa::of(&[1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 999.0], 2);
        assert_eq!(p.seg(), 3);
        assert!((p.values()[0] - 3f64.sqrt()).abs() < 1e-12);
        assert!((p.values()[1] - 5.0 * 3f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn paa_clamps_d() {
        let p = Paa::of(&[1.0, 2.0], 100);
        assert_eq!(p.dims(), 2);
        assert_eq!(p.seg(), 1);
    }

    #[test]
    fn paa_distance_lower_bounds_euclidean() {
        // For singleton wedges, LB_PAA(q, env(c)) <= ED(q, c).
        let q = signal(64, 0.1);
        let c = signal(64, 1.3);
        let ed = q
            .iter()
            .zip(&c)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        for d in [2usize, 4, 8, 16, 32] {
            let w = rotind_envelope::Wedge::from_single(&c, rotind_ts::rotate::Rotation::shift(0));
            let env = PaaEnvelope::of_wedge(&w, d);
            let lb = env.min_dist(&Paa::of(&q, d), &mut steps());
            assert!(lb <= ed + 1e-9, "d = {d}: {lb} > {ed}");
        }
    }

    #[test]
    fn envelope_bound_is_admissible_for_dtw_rotations() {
        let n = 48;
        let band = 3;
        let query = signal(n, 0.0);
        let tree = WedgeTree::new(RotationMatrix::full(&query).unwrap(), band);
        let candidate = signal(n, 2.1);
        // True rotation-invariant DTW distance.
        let true_dist = (0..n)
            .map(|s| {
                dtw(
                    &candidate,
                    &rotind_ts::rotate::rotated(&query, s),
                    DtwParams::new(band),
                    &mut steps(),
                )
            })
            .fold(f64::INFINITY, f64::min);
        for d in [4usize, 8, 16] {
            for k in [1usize, 4, 8] {
                let cut = tree.cut_nodes(k);
                let wedges: Vec<&rotind_envelope::Wedge> =
                    cut.iter().map(|&node| tree.lb_wedge(node)).collect();
                let set = PaaWedgeSet::new(&wedges, d);
                let lb = set.lower_bound(&Paa::of(&candidate, d), &mut steps());
                assert!(
                    lb <= true_dist + 1e-9,
                    "d = {d}, k = {k}: lb {lb} > true {true_dist}"
                );
            }
        }
    }

    #[test]
    fn envelope_bound_admissible_at_awkward_length_251() {
        let n = 251;
        let query = signal(n, 0.4);
        let tree = WedgeTree::new(RotationMatrix::full(&query).unwrap(), 0);
        let candidate = signal(n, 1.9);
        let true_dist = (0..n)
            .map(|s| {
                let r = rotind_ts::rotate::rotated(&query, s);
                candidate
                    .iter()
                    .zip(&r)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt()
            })
            .fold(f64::INFINITY, f64::min);
        for d in [4usize, 8, 16, 32] {
            let cut = tree.cut_nodes(8);
            let wedges: Vec<&rotind_envelope::Wedge> =
                cut.iter().map(|&node| tree.lb_wedge(node)).collect();
            let set = PaaWedgeSet::new(&wedges, d);
            let lb = set.lower_bound(&Paa::of(&candidate, d), &mut steps());
            assert!(lb <= true_dist + 1e-9, "d = {d}");
        }
    }

    #[test]
    fn bound_is_zero_for_contained_series() {
        let n = 32;
        let query = signal(n, 0.0);
        let tree = WedgeTree::new(RotationMatrix::full(&query).unwrap(), 0);
        let cut = tree.cut_nodes(1);
        let wedges: Vec<&rotind_envelope::Wedge> =
            cut.iter().map(|&node| tree.lb_wedge(node)).collect();
        let set = PaaWedgeSet::new(&wedges, 8);
        // Any rotation of the query is inside the root wedge.
        let rot = rotind_ts::rotate::rotated(&query, 5);
        assert_eq!(set.lower_bound(&Paa::of(&rot, 8), &mut steps()), 0.0);
    }

    #[test]
    fn singleton_cut_dominates_root_cut() {
        let n = 40;
        let query = signal(n, 0.0);
        let tree = WedgeTree::new(RotationMatrix::full(&query).unwrap(), 0);
        let candidate = signal(n, 2.8);
        let paa = Paa::of(&candidate, 8);
        let bound_at = |k: usize| {
            let cut = tree.cut_nodes(k);
            let wedges: Vec<&rotind_envelope::Wedge> =
                cut.iter().map(|&node| tree.lb_wedge(node)).collect();
            PaaWedgeSet::new(&wedges, 8).lower_bound(&paa, &mut steps())
        };
        // k = max (singleton wedges) dominates k = 1 (root wedge).
        assert!(bound_at(n) >= bound_at(1) - 1e-12);
    }

    /// Rotation-invariant Euclidean distance, mirror images admitted.
    fn min_rotation_ed(q: &[f64], c: &[f64]) -> f64 {
        let mirrored: Vec<f64> = q.iter().rev().copied().collect();
        [q, &mirrored[..]]
            .iter()
            .flat_map(|base| (0..c.len()).map(move |s| rotind_ts::rotate::rotated(base, s)))
            .map(|r| {
                r.iter()
                    .zip(c)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt()
            })
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn magnitude_bounds_are_admissible_and_charged() {
        let n = 45;
        let query = signal(n, 0.3);
        let db: Vec<Vec<f64>> = (0..12)
            .map(|k| {
                let s = signal(n, 0.5 + 0.7 * k as f64);
                s.iter().map(|x| x * (0.5 + 0.2 * k as f64)).collect()
            })
            .collect();
        let table = MagnitudeTable::build(&db, MAGNITUDE_DIMS);
        assert_eq!((table.len(), table.dims()), (12, MAGNITUDE_DIMS));
        let mut counter = steps();
        let bounds = table.lower_bounds(&query, &mut counter);
        assert_eq!(
            counter.steps(),
            fft_cost_model(n) + 12 * MAGNITUDE_DIMS as u64,
            "the query's features plus one step per coefficient per item"
        );
        for (item, lb) in db.iter().zip(&bounds) {
            let exact = min_rotation_ed(&query, item);
            assert!((0.0..=exact).contains(lb), "bound {lb} vs distance {exact}");
        }
        assert!(
            bounds.iter().any(|&lb| lb > 0.0),
            "the bounds prune something"
        );
        // A rotated or mirrored copy of the query is bounded by zero.
        let copies = vec![
            rotind_ts::rotate::rotated(&query, 17),
            query.iter().rev().copied().collect(),
        ];
        let table = MagnitudeTable::build(&copies, MAGNITUDE_DIMS);
        assert_eq!(table.lower_bounds(&query, &mut steps()), vec![0.0, 0.0]);
    }

    #[test]
    fn magnitude_table_clamps_dims_and_zeroes_non_finite_bounds() {
        let mut db = vec![signal(9, 0.1), signal(9, 1.2), signal(9, 2.3)];
        db[1][4] = f64::NAN;
        db[2][0] = f64::INFINITY;
        let table = MagnitudeTable::build(&db, MAGNITUDE_DIMS);
        assert_eq!(table.dims(), 5, "clamped to ⌈9/2⌉");
        let bounds = table.lower_bounds(&signal(9, 3.0), &mut steps());
        assert_eq!(bounds.len(), 3);
        assert_eq!(
            &bounds[1..],
            &[0.0, 0.0],
            "non-finite items are always visited"
        );
        assert!(MagnitudeTable::build(&[], MAGNITUDE_DIMS).is_empty());
    }

    #[test]
    #[should_panic(expected = "segment mismatch")]
    fn mismatched_segments_panic() {
        let w = rotind_envelope::Wedge::from_single(
            &signal(32, 0.0),
            rotind_ts::rotate::Rotation::shift(0),
        );
        let env = PaaEnvelope::of_wedge(&w, 4);
        let paa = Paa::of(&signal(32, 0.0), 8);
        env.min_dist(&paa, &mut steps());
    }
}
