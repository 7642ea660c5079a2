//! The LB_Keogh family of envelope lower bounds.
//!
//! For a query `Q` and a wedge `W = {U, L}` enclosing candidates
//! `C1..Ck`:
//!
//! ```text
//! LB_Keogh(Q, W) = sqrt( Σᵢ  (qᵢ−Uᵢ)²  if qᵢ > Uᵢ
//!                        (qᵢ−Lᵢ)²  if qᵢ < Lᵢ
//!                        0          otherwise )
//! ```
//!
//! **Proposition 1**: `LB_Keogh(Q, W) ≤ ED(Q, Cs)` for every member `Cs`.
//! **Proposition 2**: with the wedge widened by the warping radius `R`,
//! `LB_Keogh(Q, DTW_W) ≤ DTW_R(Q, Cs)`. The same envelope argument gives
//! an *upper* bound on LCSS similarity, i.e. a lower bound on the LCSS
//! distance form. All three are exercised by the property tests.

use crate::wedge::Wedge;
use rotind_distance::kernels;
use rotind_distance::lcss::LcssParams;
use rotind_ts::StepCounter;

/// Plain `LB_Keogh(Q, W)`; one step per position.
///
/// ```
/// use rotind_envelope::{Wedge, lb_keogh::lb_keogh};
/// use rotind_ts::rotate::{Rotation, RotationMatrix};
/// use rotind_ts::StepCounter;
/// let c = [0.0, 1.0, 2.0, 1.0, 0.0, -1.0];
/// let matrix = RotationMatrix::full(&c).unwrap();
/// let wedge = Wedge::from_rows(&matrix, &[0, 1, 2]);
/// let q = [5.0, 5.0, 5.0, 5.0, 5.0, 5.0];
/// let lb = lb_keogh(&q, &wedge, &mut StepCounter::new());
/// // Proposition 1: lb never exceeds the Euclidean distance to any member.
/// for row in 0..3 {
///     let member = matrix.row(row).to_vec();
///     let ed: f64 = q.iter().zip(&member).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
///     assert!(lb <= ed + 1e-12);
/// }
/// ```
///
/// # Panics
///
/// Panics when `q.len() != wedge.len()`.
// lint: panic-exempt(acc > r-squared is unsatisfiable for an infinite radius, so early abandon never returns None)
pub fn lb_keogh(q: &[f64], wedge: &Wedge, counter: &mut StepCounter) -> f64 {
    lb_keogh_early_abandon(q, wedge, f64::INFINITY, counter)
        // Invariant: `acc > r²` is unsatisfiable for r = ∞, so the
        // early-abandon path cannot return None.
        // rotind-lint: allow(no-panic)
        .expect("infinite radius never abandons")
}

/// Dynamic half of the exactness gate: in debug builds, assert that a
/// lower bound is admissible against a true distance computed for the
/// same pair. Call this wherever both values exist (the static
/// `lb-coverage` lint guarantees a property test exists; this catches
/// the regressions that slip between property-test runs). Non-finite
/// inputs are ignored — an overflowed distance is not a soundness bug.
/// The slack is [`SOUNDNESS_EPS`] relative to the distance (absolute
/// below 1), so rounding at any finite scale passes.
///
/// Compiled out entirely in release builds.
#[inline]
pub fn debug_assert_admissible(lb: f64, true_distance: f64) {
    let slack = SOUNDNESS_EPS * true_distance.max(1.0);
    debug_assert!(
        !(lb.is_finite() && true_distance.is_finite()) || lb <= true_distance + slack,
        "unsound lower bound: lb {lb} > true distance {true_distance} + {slack}"
    );
}

/// Slack for [`debug_assert_admissible`], relative to the distance (and
/// absolute below 1): generous enough for accumulated f64 rounding over
/// long series at any magnitude, far below any real tightening bug
/// (which shows up at the magnitude of the data).
pub const SOUNDNESS_EPS: f64 = 1e-6;

/// `EA_LB_Keogh` (Table 5): early-abandoning LB_Keogh. Returns `None` as
/// soon as the accumulated bound exceeds `r²` — at that point *no* member
/// of the wedge can be within `r` of the query.
///
/// Dismissal is strict in reported-bound space: because `fl(r·r)` can
/// round below the accumulator of a bound equal to `r` as a float, the
/// boundary is settled by `√acc > r` (evaluated only on the abandon
/// path). A wedge whose bound equals `r` exactly is always admitted.
pub fn lb_keogh_early_abandon(
    q: &[f64],
    wedge: &Wedge,
    r: f64,
    counter: &mut StepCounter,
) -> Option<f64> {
    lb_keogh_early_abandon_at(q, wedge, r, counter).ok()
}

/// [`lb_keogh_early_abandon`] that also reports *where* an abandon
/// happened: `Err(position)` carries the number of query positions
/// consumed before the accumulated bound provably exceeded `r`. Search
/// telemetry (the `SearchObserver` in `rotind-obs`) uses the position to
/// build abandon-depth histograms; the bound itself is unchanged.
// lint: panic-exempt(query/wedge length equality is validated at snapshot admission; the assert documents the kernel contract)
pub fn lb_keogh_early_abandon_at(
    q: &[f64],
    wedge: &Wedge,
    r: f64,
    counter: &mut StepCounter,
) -> Result<f64, usize> {
    assert_eq!(q.len(), wedge.len(), "lb_keogh: length mismatch");
    let upper = wedge.upper();
    let lower = wedge.lower();
    // The clamp-and-accumulate runs lane-parallel in the canonical
    // kernel order; abandon positions and step counts match the
    // historical per-element loop (block check + scalar replay).
    let acc = kernels::chunked::clamp_sq_abandon(q, upper, lower, r, counter)?;
    let lb = acc.sqrt();
    // Debug-only self-check of Proposition 1: every series inside the
    // envelope (the envelope curves themselves included, since L ≤ U
    // pointwise) must sit at least `lb` away from the query. A witness
    // closer than the bound means the bound over-tightened.
    #[cfg(debug_assertions)]
    {
        let ed = |w: &[f64]| {
            q.iter()
                .zip(w)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
        };
        debug_assert_admissible(lb, ed(upper));
        debug_assert_admissible(lb, ed(lower));
    }
    Ok(lb)
}

/// Reusable sliding-window buffers for the LCSS envelope bound: the
/// `δ`-widened upper and lower envelope curves. Owned by the caller (the
/// engine keeps one per scan) so the query hot path performs no
/// per-call allocation.
#[derive(Debug, Default)]
pub struct LcssScratch {
    upper: Vec<f64>,
    lower: Vec<f64>,
    win: crate::envelope::SlidingScratch,
}

impl LcssScratch {
    /// An empty workspace; buffers grow to the series length on first
    /// use and are retained across calls.
    pub fn new() -> Self {
        Self::default()
    }
}

/// LCSS envelope bound: an *upper* bound on the LCSS match count of the
/// query against every wedge member, hence a lower bound on the LCSS
/// distance form `1 − count/n`.
///
/// A position `i` can participate in a match with some member only if
/// `qᵢ` falls within the wedge envelope widened by the temporal window
/// `δ` and the amplitude threshold `ε` (cf. the "matching envelope" of
/// Figure 14). Counting such positions can only overestimate the true
/// match count.
// lint: panic-exempt(query/wedge length equality is validated at snapshot admission; the assert documents the kernel contract)
// lint: witness-exempt(pure delegation to lcss_distance_lower_bound_with, which carries the [0, 1] admissibility witness on the shared return path)
pub fn lcss_distance_lower_bound(
    q: &[f64],
    wedge: &Wedge,
    params: LcssParams,
    counter: &mut StepCounter,
) -> f64 {
    lcss_distance_lower_bound_with(q, wedge, params, &mut LcssScratch::new(), counter)
}

/// [`lcss_distance_lower_bound`] with caller-owned scratch: the
/// `δ`-widened envelope is built into reused sliding-window buffers
/// instead of materialising a whole widened [`Wedge`] (members and all)
/// per call, making the LCSS scan hot path allocation-free per
/// candidate.
// lint: panic-exempt(query/wedge length equality is validated at snapshot admission; the assert documents the kernel contract)
pub fn lcss_distance_lower_bound_with(
    q: &[f64],
    wedge: &Wedge,
    params: LcssParams,
    scratch: &mut LcssScratch,
    counter: &mut StepCounter,
) -> f64 {
    assert_eq!(q.len(), wedge.len(), "lcss bound: length mismatch");
    let s = scratch;
    crate::envelope::sliding_max_into(wedge.upper(), params.delta, &mut s.win, &mut s.upper);
    crate::envelope::sliding_min_into(wedge.lower(), params.delta, &mut s.win, &mut s.lower);
    // One step per scanned position, as the historical per-element loop
    // charged (the widening rides free there and here alike, keeping
    // committed step baselines identical).
    counter.add(q.len() as u64);
    let possible = q
        .iter()
        .zip(&s.lower)
        .zip(&s.upper)
        .filter(|((&x, &l), &u)| x >= l - params.epsilon && x <= u + params.epsilon)
        .count();
    let lb = 1.0 - possible as f64 / q.len() as f64;
    // Admissibility witness: the LCSS distance lives in [0, 1], so any
    // bound outside that interval is inadmissible on its face (the full
    // member-wise `lb <= lcss_distance` check is the proptest's job —
    // members are not available here).
    debug_assert!((0.0..=1.0).contains(&lb), "lcss bound {lb} escapes [0, 1]");
    lb
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotind_distance::dtw::{dtw, DtwParams};
    use rotind_distance::euclidean::euclidean;
    use rotind_distance::lcss::lcss_distance;
    use rotind_ts::rotate::{Rotation, RotationMatrix};

    fn steps() -> StepCounter {
        StepCounter::new()
    }

    fn signal(n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37 + phase).sin() + 0.4 * (i as f64 * 0.91).cos())
            .collect()
    }

    #[test]
    fn degenerates_to_euclidean_on_singleton() {
        let c = signal(24, 0.0);
        let q = signal(24, 1.0);
        let w = Wedge::from_single(&c, Rotation::shift(0));
        let lb = lb_keogh(&q, &w, &mut steps());
        assert!((lb - euclidean(&q, &c)).abs() < 1e-12);
    }

    #[test]
    fn proposition_1_lower_bounds_every_member() {
        let c = signal(32, 0.0);
        let m = RotationMatrix::full(&c).unwrap();
        let rows: Vec<usize> = vec![0, 1, 2, 5, 9, 20];
        let w = Wedge::from_rows(&m, &rows);
        let q = signal(32, 2.2);
        let lb = lb_keogh(&q, &w, &mut steps());
        for &row in &rows {
            let d = euclidean(&q, &m.row(row).to_vec());
            assert!(lb <= d + 1e-12, "row {row}: lb {lb} > ed {d}");
        }
    }

    #[test]
    fn zero_inside_the_wedge() {
        let c = signal(16, 0.0);
        let m = RotationMatrix::full(&c).unwrap();
        let w = Wedge::from_rows(&m, &[0, 1, 2, 3]);
        // Any member is inside its own wedge → bound 0.
        let lb = lb_keogh(&m.row(2).to_vec(), &w, &mut steps());
        assert_eq!(lb, 0.0);
    }

    #[test]
    fn early_abandon_agrees_with_plain() {
        let c = signal(40, 0.0);
        let m = RotationMatrix::full(&c).unwrap();
        let w = Wedge::from_rows(&m, &[0, 4, 8]);
        let q = signal(40, 2.8);
        let exact = lb_keogh(&q, &w, &mut steps());
        // A shrunken radius only forces an abandon when the exact bound
        // is positive: at exact == 0 the radius 0.9·exact is also 0, the
        // accumulator never exceeds r² = 0, and Some(0) is the correct
        // (inclusive) answer — asserting an abandon there is spurious.
        if exact > 0.0 {
            match lb_keogh_early_abandon(&q, &w, exact * 0.9, &mut steps()) {
                None => {} // abandoned, consistent with exact > 0.9·exact
                Some(_) => panic!("must abandon below the exact bound"),
            }
        }
        let kept = lb_keogh_early_abandon(&q, &w, exact + 1.0, &mut steps()).unwrap();
        assert!((kept - exact).abs() < 1e-12);
    }

    #[test]
    fn zero_radius_zero_bound_is_admitted() {
        // r == 0 with the query inside the wedge: the accumulator stays
        // 0, `0 > 0²` never fires, and the bound is returned — dismissal
        // is strict, so a candidate at exactly the radius survives.
        let c = signal(16, 0.0);
        let m = RotationMatrix::full(&c).unwrap();
        let w = Wedge::from_rows(&m, &[0, 1, 2, 3]);
        let inside = m.row(1).to_vec();
        let got = lb_keogh_early_abandon(&inside, &w, 0.0, &mut steps());
        assert_eq!(got, Some(0.0));
        // The degenerate radius 0.9 · 0.0 behaves identically.
        let shrunk = lb_keogh_early_abandon(&inside, &w, 0.0 * 0.9, &mut steps());
        assert_eq!(shrunk, Some(0.0));
    }

    #[test]
    fn zero_radius_positive_bound_abandons_immediately() {
        // r == 0 with the query outside the envelope: the first positive
        // contribution exceeds r² = 0 and the scan abandons right there.
        let c = vec![0.0; 8];
        let w = Wedge::from_single(&c, Rotation::shift(0));
        let mut q = vec![0.0; 8];
        q[0] = 1.0;
        let mut s = steps();
        assert_eq!(lb_keogh_early_abandon_at(&q, &w, 0.0, &mut s), Err(1));
        assert_eq!(s.steps(), 1);
    }

    #[test]
    fn early_abandon_saves_steps() {
        let n = 128;
        let c = vec![0.0; n];
        let w = Wedge::from_single(&c, Rotation::shift(0));
        let mut q = vec![0.0; n];
        q[0] = 100.0;
        let mut s = steps();
        assert!(lb_keogh_early_abandon(&q, &w, 1.0, &mut s).is_none());
        assert_eq!(s.steps(), 1);
    }

    #[test]
    fn abandon_position_matches_step_count() {
        let n = 64;
        let c = vec![0.0; n];
        let w = Wedge::from_single(&c, Rotation::shift(0));
        for spike_at in [0usize, 13, 40, 63] {
            let mut q = vec![0.0; n];
            q[spike_at] = 100.0;
            let mut s = steps();
            let pos = lb_keogh_early_abandon_at(&q, &w, 1.0, &mut s)
                .expect_err("spiked query must abandon");
            assert_eq!(pos, spike_at + 1, "abandons right after the spike");
            assert_eq!(s.steps(), pos as u64, "position equals the steps paid");
        }
        // Without a spike and a generous radius there is no abandon.
        let q = vec![0.0; n];
        let val = lb_keogh_early_abandon_at(&q, &w, 1.0, &mut steps()).unwrap();
        assert_eq!(val, 0.0);
    }

    #[test]
    fn merged_wedge_bound_is_looser() {
        // Figure 8: bigger wedges give smaller (looser) bounds.
        let c = signal(28, 0.0);
        let m = RotationMatrix::full(&c).unwrap();
        let small = Wedge::from_rows(&m, &[0, 1]);
        let big = Wedge::merge(&small, &Wedge::from_rows(&m, &[14]));
        let q = signal(28, 1.7);
        let lb_small = lb_keogh(&q, &small, &mut steps());
        let lb_big = lb_keogh(&q, &big, &mut steps());
        assert!(lb_big <= lb_small + 1e-12);
    }

    #[test]
    fn proposition_2_lower_bounds_dtw() {
        let c = signal(30, 0.0);
        let m = RotationMatrix::full(&c).unwrap();
        let rows: Vec<usize> = vec![0, 3, 6, 12];
        let w = Wedge::from_rows(&m, &rows);
        let q = signal(30, 2.5);
        for band in [0usize, 1, 3, 7] {
            let wide = w.widened(band);
            let lb = lb_keogh(&q, &wide, &mut steps());
            for &row in &rows {
                let d = dtw(&q, &m.row(row).to_vec(), DtwParams::new(band), &mut steps());
                assert!(lb <= d + 1e-9, "band {band}, row {row}: lb {lb} > dtw {d}");
            }
        }
    }

    #[test]
    fn lcss_bound_is_admissible() {
        let c = signal(26, 0.0);
        let m = RotationMatrix::full(&c).unwrap();
        let rows: Vec<usize> = vec![0, 2, 4];
        let w = Wedge::from_rows(&m, &rows);
        let q = signal(26, 1.2);
        let params = LcssParams::for_normalized(26);
        let lb = lcss_distance_lower_bound(&q, &w, params, &mut steps());
        for &row in &rows {
            let d = lcss_distance(&q, &m.row(row).to_vec(), params, &mut steps());
            assert!(lb <= d + 1e-12, "row {row}: lb {lb} > lcss {d}");
        }
    }

    #[test]
    fn lcss_bound_detects_gross_mismatch() {
        let c = vec![0.0; 20];
        let w = Wedge::from_single(&c, Rotation::shift(0));
        let q = vec![100.0; 20];
        let params = LcssParams::new(0.5, 2);
        let lb = lcss_distance_lower_bound(&q, &w, params, &mut steps());
        assert_eq!(lb, 1.0, "no position can possibly match");
    }

    #[test]
    fn step_accounting() {
        let c = signal(33, 0.0);
        let w = Wedge::from_single(&c, Rotation::shift(0));
        let q = signal(33, 0.5);
        let mut s = steps();
        lb_keogh(&q, &w, &mut s);
        assert_eq!(s.steps(), 33);
    }
}
