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
///
/// Compiled out entirely in release builds.
#[inline]
pub fn debug_assert_admissible(lb: f64, true_distance: f64) {
    debug_assert!(
        !(lb.is_finite() && true_distance.is_finite()) || lb <= true_distance + SOUNDNESS_EPS,
        "unsound lower bound: lb {lb} > true distance {true_distance} + {SOUNDNESS_EPS}"
    );
}

/// Absolute slack for [`debug_assert_admissible`]: generous enough for
/// accumulated f64 rounding over long series, far below any real
/// tightening bug (which shows up at the magnitude of the data).
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
    let acc = kernels::engine::clamp_sq_abandon(q, upper, lower, r, counter)?;
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

/// `LB_Kim`-style endpoint bound (cascade tier 1): the `LB_Keogh` sum
/// restricted to the first and last positions, hence computable in
/// `O(1)` with no per-candidate preparation.
///
/// Admissibility: the two terms are a subset of the `LB_Keogh` terms, so
/// `lb_kim(Q, W) ≤ LB_Keogh(Q, W) ≤ d(Q, Cs)` for every member `Cs` —
/// under Euclidean distance directly, and under banded DTW when `W` is
/// the band-widened envelope, because every warping path contains the
/// boundary cells `(0, 0)` and `(n−1, n−1)` and widening covers the
/// in-band neighbours of each endpoint. The classic LB_Kim also uses
/// global min/max terms; those are omitted here because extracting the
/// candidate's extrema would cost `O(n)` per candidate, defeating the
/// point of a constant-time first tier.
///
/// Two steps are charged (one for a length-1 series).
// lint: panic-exempt(query/wedge length equality is validated at snapshot admission; the assert documents the kernel contract)
pub fn lb_kim(q: &[f64], wedge: &Wedge, counter: &mut StepCounter) -> f64 {
    assert_eq!(q.len(), wedge.len(), "lb_kim: length mismatch");
    let n = q.len();
    if n == 0 {
        return 0.0;
    }
    let gap = |x: f64, u: f64, l: f64| {
        if x > u {
            x - u
        } else if x < l {
            l - x
        } else {
            0.0
        }
    };
    counter.tick();
    let first = gap(q[0], wedge.upper()[0], wedge.lower()[0]);
    let mut acc = first * first;
    if n > 1 {
        counter.tick();
        let last = gap(q[n - 1], wedge.upper()[n - 1], wedge.lower()[n - 1]);
        acc += last * last;
    }
    let lb = acc.sqrt();
    // Witness: the endpoint sum can never exceed the full LB_Keogh sum
    // (whose own witness covers the envelope argument).
    #[cfg(debug_assertions)]
    debug_assert_admissible(lb, lb_keogh(q, wedge, &mut StepCounter::new()));
    lb
}

/// Reordered early-abandoning `LB_Keogh` (cascade tier 3): identical sum
/// to [`lb_keogh_early_abandon_at`], but the terms are accumulated in
/// the position order `order` (a permutation of `0..q.len()`; the
/// cascade passes the wedge's [`extend_abandon_prefix`], whose head is
/// the head of [`extend_abandon_order`]) so the `r` threshold is
/// typically crossed after a handful of terms. `Err(k)` reports the
/// number of *terms* consumed (not a series position). The completed sum
/// is mathematically the same as the natural-order one but may differ in
/// the last float bits, so exact-distance paths (Euclidean singleton
/// leaves, where the bound *is* the returned distance) must keep the
/// natural order.
// lint: panic-exempt(query/wedge/order length equality is validated at snapshot admission and cascade build; the assert documents the kernel contract)
pub fn lb_keogh_reordered_early_abandon_at(
    q: &[f64],
    wedge: &Wedge,
    order: &[u32],
    r: f64,
    counter: &mut StepCounter,
) -> Result<f64, usize> {
    assert_eq!(q.len(), wedge.len(), "lb_keogh reordered: length mismatch");
    let upper = wedge.upper();
    let lower = wedge.lower();
    let acc = kernels::engine::clamp_sq_abandon_ordered(q, upper, lower, order, r, counter)?;
    let lb = acc.sqrt();
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

/// Append to `out` the positions of the envelope `[lower, upper]` in
/// decreasing expected contribution to `LB_Keogh` — the accumulation
/// order of [`lb_keogh_reordered_early_abandon_at`]. The primary key is
/// the envelope's distance from zero (`gap(0, [L_i, U_i])`, descending:
/// intervals far from the baseline force a contribution from any
/// roughly-centred candidate), then the width `U_i − L_i` ascending
/// (narrow intervals reject more candidates), then the index, so the
/// permutation is unique. Both float keys compare as `f64::total_cmp`.
///
/// Each position's key is computed once and the keys are sorted as
/// integers, which is `O(n log n)` with no float work in the
/// comparisons. The cascade builds [`extend_abandon_prefix`] instead;
/// this full order is its tested reference.
pub fn extend_abandon_order(upper: &[f64], lower: &[f64], out: &mut Vec<u32>) {
    debug_assert_eq!(upper.len(), lower.len());
    let mut keys: Vec<AbandonKey> = abandon_keys(upper, lower).collect();
    keys.sort_unstable();
    out.extend(keys.iter().map(|&(_, _, i)| i));
}

/// The integer sort key of one position of the abandon order: the
/// inverted zero-gap key (so larger gaps sort first), the width key,
/// then the position.
type AbandonKey = (u64, u64, u32);

/// Every position's [`AbandonKey`], in position order.
fn abandon_keys<'a>(upper: &'a [f64], lower: &'a [f64]) -> impl Iterator<Item = AbandonKey> + 'a {
    upper
        .iter()
        .zip(lower)
        .zip(0u32..)
        .map(|((&u, &l), i)| (!total_order_key(zero_gap(u, l)), total_order_key(u - l), i))
}

/// Working storage for [`extend_abandon_prefix`], reused across the
/// wedges of one build so the per-wedge calls allocate nothing once
/// the buffers have grown to the series length.
#[derive(Debug, Default)]
pub struct AbandonScratch {
    keys: Vec<AbandonKey>,
    /// The head's positions in ascending order.
    taken: Vec<u32>,
}

/// Append to `out` a permutation of the positions of `[lower, upper]`
/// whose first `min(prefix, n)` entries are the first entries of
/// [`extend_abandon_order`], followed by every other position in
/// ascending order. With `prefix >= n` it *is* that order.
///
/// Early abandoning reads only the head of the order: the accumulation
/// either crosses its threshold within the first few terms or sums
/// every term, and a completed sum of non-negative terms is the same
/// bound in any order up to float rounding. So the cascade keeps the
/// sorted head and leaves the tail in position order. The head is
/// selected in `O(n)` and sorted in `O(p log p)`, so an order costs
/// `O(n + p log p)` instead of the full sort's `O(n log n)`.
pub fn extend_abandon_prefix(
    upper: &[f64],
    lower: &[f64],
    prefix: usize,
    scratch: &mut AbandonScratch,
    out: &mut Vec<u32>,
) {
    debug_assert_eq!(upper.len(), lower.len());
    let keys = &mut scratch.keys;
    keys.clear();
    keys.extend(abandon_keys(upper, lower));
    let n = keys.len();
    if prefix >= n {
        keys.sort_unstable();
        out.extend(keys.iter().map(|&(_, _, i)| i));
        return;
    }
    // The keys are distinct (the position breaks every tie), so after
    // the selection the first `prefix` keys are exactly the smallest.
    keys.select_nth_unstable(prefix);
    let head = keys.get_mut(..prefix).unwrap_or_default();
    head.sort_unstable();
    out.extend(head.iter().map(|&(_, _, i)| i));
    // The tail is the runs of positions between the head's, which
    // extend as whole ranges rather than one tested position at a time.
    let taken = &mut scratch.taken;
    taken.clear();
    taken.extend(head.iter().map(|&(_, _, i)| i));
    taken.sort_unstable();
    let mut next = 0;
    for &i in taken.iter() {
        out.extend(next..i);
        next = i + 1;
    }
    out.extend(next..n as u32);
}

/// Distance of the interval `[l, u]` from zero (0 when it straddles it).
#[inline]
fn zero_gap(u: f64, l: f64) -> f64 {
    if l > 0.0 {
        l
    } else if u < 0.0 {
        -u
    } else {
        0.0
    }
}

/// An unsigned key whose integer order is `f64::total_cmp`'s order:
/// negative floats have every bit flipped, non-negative ones only the
/// sign bit.
#[inline]
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Reusable projection + sliding-window buffers for the envelope bounds
/// that need per-call working storage: the `LB_Improved` second pass and
/// the widened LCSS envelope. Owned by the caller (the engine keeps one
/// per scan, or per parallel worker, for its LCSS bound) so the query
/// hot path performs no per-call allocation.
#[derive(Debug, Default)]
pub struct ImprovedScratch {
    proj: Vec<f64>,
    proj_up: Vec<f64>,
    proj_lo: Vec<f64>,
    win: crate::envelope::SlidingScratch,
}

impl ImprovedScratch {
    /// An empty workspace; buffers grow to the series length on first
    /// use and are retained across calls.
    pub fn new() -> Self {
        Self::default()
    }
}

/// `LB_Improved` (Lemire's two-pass bound, arXiv:0811.3301, generalised
/// from single series to wedges): the first pass is
/// `LB_Keogh(Q, W^R)` against the band-widened envelope; the second pass
/// projects the candidate onto that envelope (`hᵢ = clamp(qᵢ, L^R_i,
/// U^R_i)`), widens the projection by the band, and adds the gap between
/// the *plain* envelope `[L_j, U_j]` and the widened projection interval
/// at every position. The total never falls below the first pass alone.
///
/// Admissibility (Proposition 2 extended): for any member `Cs` and any
/// in-band warping-path cell `(i, j)` (`|i−j| ≤ R`, so `Cs_j ∈ [L_j,
/// U_j] ⊆ [L^R_i, U^R_i]`), `qᵢ − hᵢ` and `hᵢ − Cs_j` share a sign,
/// hence `(qᵢ − Cs_j)² ≥ (qᵢ − hᵢ)² + (hᵢ − Cs_j)²`. Summing over the
/// path, the first addend dominates the first pass (every `i` occurs on
/// the path) and the second dominates the second pass (every `j` occurs
/// with some in-band `i`, and `min_{|i−j|≤R} (hᵢ − Cs_j)²` is at least
/// the interval-to-interval gap accumulated here). With `R = 0` the
/// projection lies inside the plain envelope and the second pass is
/// identically zero — the bound is only worth running for DTW.
///
/// Charges one step per position in each pass plus `n` for building the
/// projection envelope.
///
/// # Panics
///
/// Panics when the lengths of `q`, `wedge` and `lb_wedge` differ.
pub fn lb_improved(
    q: &[f64],
    wedge: &Wedge,
    lb_wedge: &Wedge,
    band: usize,
    counter: &mut StepCounter,
) -> f64 {
    let first = lb_keogh(q, lb_wedge, counter);
    lb_improved_second_pass(
        q,
        wedge,
        lb_wedge,
        band,
        first * first,
        f64::INFINITY,
        &mut ImprovedScratch::new(),
        counter,
    )
    // Invariant: an infinite radius never dismisses.
    // rotind-lint: allow(no-panic)
    .expect("infinite radius never abandons")
}

/// Second pass of [`lb_improved`], resuming from a completed first-pass
/// accumulator `first_pass_acc` (the *squared* `LB_Keogh(Q, W^R)` sum) —
/// the form the bound cascade uses, since tier 3 has already paid for
/// the first pass. Dismissal against `r` is strict in reported-bound
/// space (`acc > r²` and `√acc > r`), mirroring
/// [`lb_keogh_early_abandon_at`]; `None` means no member can be within
/// `r`.
// lint: panic-exempt(both wedges come from one hierarchy sharing the validated series length)
#[allow(clippy::too_many_arguments)] // mirrors the cascade's tier-call shape; scratch rides along
pub fn lb_improved_second_pass(
    q: &[f64],
    wedge: &Wedge,
    lb_wedge: &Wedge,
    band: usize,
    first_pass_acc: f64,
    r: f64,
    scratch: &mut ImprovedScratch,
    counter: &mut StepCounter,
) -> Option<f64> {
    let n = q.len();
    assert_eq!(n, wedge.len(), "lb_improved: length mismatch");
    assert_eq!(n, lb_wedge.len(), "lb_improved: widened length mismatch");
    let s = scratch;
    s.proj.clear();
    s.proj.reserve(n);
    let (wu, wl) = (lb_wedge.upper(), lb_wedge.lower());
    s.proj
        .extend(q.iter().zip(wl).zip(wu).map(|((&x, &l), &u)| x.clamp(l, u)));
    crate::envelope::sliding_max_into(&s.proj, band, &mut s.win, &mut s.proj_up);
    crate::envelope::sliding_min_into(&s.proj, band, &mut s.win, &mut s.proj_lo);
    // The projection and its widened envelope cost ~n real-value
    // operations; charge them so step counts stay honest.
    counter.add(n as u64);
    let acc = kernels::engine::interval_gap_sq_abandon(
        first_pass_acc,
        wedge.upper(),
        wedge.lower(),
        &s.proj_up,
        &s.proj_lo,
        r,
        counter,
    )
    .ok()?;
    let lb = acc.sqrt();
    // Witness: the envelope curves are themselves enclosed by the wedge
    // (L ≤ U pointwise), so the bound must not exceed the banded DTW
    // distance to either curve.
    #[cfg(debug_assertions)]
    {
        use rotind_distance::dtw::{dtw, DtwParams};
        let mut scratch_steps = StepCounter::new();
        let params = DtwParams::new(band);
        debug_assert_admissible(lb, dtw(q, wedge.upper(), params, &mut scratch_steps));
        debug_assert_admissible(lb, dtw(q, wedge.lower(), params, &mut scratch_steps));
    }
    Some(lb)
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
    lcss_distance_lower_bound_with(q, wedge, params, &mut ImprovedScratch::new(), counter)
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
    scratch: &mut ImprovedScratch,
    counter: &mut StepCounter,
) -> f64 {
    assert_eq!(q.len(), wedge.len(), "lcss bound: length mismatch");
    let s = scratch;
    crate::envelope::sliding_max_into(wedge.upper(), params.delta, &mut s.win, &mut s.proj_up);
    crate::envelope::sliding_min_into(wedge.lower(), params.delta, &mut s.win, &mut s.proj_lo);
    // One step per scanned position, as the historical per-element loop
    // charged (the widening rides free there and here alike, keeping
    // committed step baselines identical).
    counter.add(q.len() as u64);
    let possible = q
        .iter()
        .zip(&s.proj_lo)
        .zip(&s.proj_up)
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
    use proptest::prelude::*;
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
    fn lb_kim_is_admissible_and_costs_two_steps() {
        let c = signal(30, 0.0);
        let m = RotationMatrix::full(&c).unwrap();
        let rows: Vec<usize> = vec![0, 2, 7, 19];
        let w = Wedge::from_rows(&m, &rows);
        let q = signal(30, 2.1);
        let mut s = steps();
        let kim = lb_kim(&q, &w, &mut s);
        assert_eq!(s.steps(), 2, "endpoint bound is O(1)");
        let keogh = lb_keogh(&q, &w, &mut steps());
        assert!(kim <= keogh + 1e-12, "kim {kim} > keogh {keogh}");
        for &row in &rows {
            let d = euclidean(&q, &m.row(row).to_vec());
            assert!(kim <= d + 1e-12, "row {row}: kim {kim} > ed {d}");
        }
        // Widened wedge: admissible against banded DTW (boundary cells).
        for band in [1usize, 4] {
            let kim_w = lb_kim(&q, &w.widened(band), &mut steps());
            for &row in &rows {
                let d = dtw(&q, &m.row(row).to_vec(), DtwParams::new(band), &mut steps());
                assert!(kim_w <= d + 1e-9, "band {band} row {row}");
            }
        }
    }

    /// `wedge`'s abandon order.
    fn order_of(wedge: &Wedge) -> Vec<u32> {
        let mut order = Vec::new();
        extend_abandon_order(wedge.upper(), wedge.lower(), &mut order);
        order
    }

    #[test]
    fn reordered_keogh_matches_natural_sum_and_abandons_sooner() {
        let c = signal(48, 0.0);
        let m = RotationMatrix::full(&c).unwrap();
        let w = Wedge::from_rows(&m, &[0, 3, 9, 30]);
        let q = signal(48, 2.6);
        let natural = lb_keogh(&q, &w, &mut steps());
        let reordered =
            lb_keogh_reordered_early_abandon_at(&q, &w, &order_of(&w), f64::INFINITY, &mut steps())
                .expect("infinite radius never abandons");
        assert!(
            (natural - reordered).abs() < 1e-9,
            "same sum up to fp reassociation"
        );
        // A far spike late in the series: natural order pays almost the
        // whole scan, the contribution order pays one term.
        let n = 64;
        let mut member = vec![0.0; n];
        member[n - 2] = 100.0;
        let spiked = Wedge::from_single(&member, Rotation::shift(0));
        let q0 = vec![0.0; n];
        let mut nat = steps();
        let pos = lb_keogh_early_abandon_at(&q0, &spiked, 1.0, &mut nat)
            .expect_err("spike forces abandon");
        assert_eq!(pos, n - 1);
        let mut reo = steps();
        let terms =
            lb_keogh_reordered_early_abandon_at(&q0, &spiked, &order_of(&spiked), 1.0, &mut reo)
                .expect_err("spike forces abandon");
        assert_eq!(terms, 1, "largest contribution is accumulated first");
        assert!(reo.steps() < nat.steps());
    }

    /// The comparator the keyed sort replaces, kept as its reference:
    /// sort positions by `zero_gap` descending, width ascending, index.
    fn reference_abandon_order(upper: &[f64], lower: &[f64]) -> Vec<u32> {
        let mut order: Vec<u32> = (0..upper.len() as u32).collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            let gap = |i: usize| {
                if lower[i] > 0.0 {
                    lower[i]
                } else if upper[i] < 0.0 {
                    -upper[i]
                } else {
                    0.0
                }
            };
            gap(b)
                .total_cmp(&gap(a))
                .then((upper[a] - lower[a]).total_cmp(&(upper[b] - lower[b])))
                .then(a.cmp(&b))
        });
        order
    }

    #[test]
    fn abandon_order_is_a_permutation_sorted_by_contribution() {
        let c = signal(24, 0.0);
        let m = RotationMatrix::full(&c).unwrap();
        for w in [
            Wedge::from_rows(&m, &[0, 5, 11]),
            Wedge::from_single(&c, Rotation::shift(0)),
            Wedge::from_rows(&m, &[0, 5, 11]).widened(3),
        ] {
            let order = order_of(&w);
            let mut seen = order.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..w.len() as u32).collect::<Vec<_>>());
            // Primary key (distance of the envelope interval from zero)
            // must be non-increasing along the order.
            let gap = |i: u32| zero_gap(w.upper()[i as usize], w.lower()[i as usize]);
            for pair in order.windows(2) {
                assert!(gap(pair[0]) >= gap(pair[1]));
            }
            assert_eq!(order, reference_abandon_order(w.upper(), w.lower()));
        }
    }

    #[test]
    fn abandon_order_appends() {
        let (upper, lower) = ([3.0, -1.0, 0.5], [1.0, -2.0, -0.5]);
        let mut out = vec![7];
        extend_abandon_order(&upper, &lower, &mut out);
        // Gaps 1, 1, 0: the two gap-1 positions first, narrower (index 1,
        // width 1) before wider (index 0, width 2).
        assert_eq!(out, [7, 1, 0, 2]);
    }

    #[test]
    fn total_order_key_sorts_like_total_cmp() {
        let mut xs = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1.5,
            -1.5,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
        ];
        let mut by_key = xs;
        xs.sort_by(f64::total_cmp);
        by_key.sort_by_key(|&x| total_order_key(x));
        assert_eq!(xs.map(f64::to_bits), by_key.map(f64::to_bits));
    }

    /// An envelope sample of one of three families, decoded from a
    /// random `code`: continuous values, coarsely quantized ones (many
    /// exact ties), and zero-heavy ones (`±0.0`, with the occasional
    /// infinity or NaN).
    fn envelope_value(family: u8, code: u64) -> f64 {
        const ZERO_HEAVY: [f64; 12] = [
            0.0,
            -0.0,
            0.0,
            -0.0,
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        match family {
            0 => (code >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0,
            1 => (code % 17) as f64 * 0.5 - 4.0,
            _ => ZERO_HEAVY[(code % ZERO_HEAVY.len() as u64) as usize],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The keyed sort yields exactly the comparator's permutation,
        /// for every length up to 300.
        #[test]
        fn keyed_abandon_order_equals_reference_comparator(
            family in 0u8..3,
            n in 1usize..=300,
            codes in prop::collection::vec(0u64..u64::MAX, 600),
        ) {
            let value = |&code: &u64| envelope_value(family, code);
            let upper: Vec<f64> = codes[..n].iter().map(value).collect();
            let lower: Vec<f64> = codes[n..2 * n].iter().map(value).collect();
            let mut keyed = Vec::new();
            extend_abandon_order(&upper, &lower, &mut keyed);
            prop_assert_eq!(keyed, reference_abandon_order(&upper, &lower));
        }

        /// The prefix order appends a permutation whose first
        /// `min(prefix, n)` entries are the comparator's and whose rest
        /// ascends; with `prefix >= n` it is the full keyed order. The
        /// scratch arrives dirty from a call on a longer envelope.
        #[test]
        fn prefix_order_keeps_the_reference_head(
            family in 0u8..3,
            n in 1usize..=300,
            prefix_code in 0usize..=301,
            codes in prop::collection::vec(0u64..u64::MAX, 600),
        ) {
            let prefix = prefix_code % (n + 2);
            let value = |&code: &u64| envelope_value(family, code);
            let upper: Vec<f64> = codes[..n].iter().map(value).collect();
            let lower: Vec<f64> = codes[n..2 * n].iter().map(value).collect();
            let mut scratch = AbandonScratch::default();
            let wide: Vec<f64> = codes.iter().map(value).collect();
            let (wide_upper, wide_lower) = wide.split_at(300);
            extend_abandon_prefix(wide_upper, wide_lower, prefix / 2, &mut scratch, &mut Vec::new());
            let mut out = vec![u32::MAX];
            extend_abandon_prefix(&upper, &lower, prefix, &mut scratch, &mut out);
            prop_assert_eq!(out[0], u32::MAX, "must append");
            let order = &out[1..];
            let mut seen = order.to_vec();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..n as u32).collect::<Vec<_>>());
            let head = prefix.min(n);
            prop_assert_eq!(&order[..head], &reference_abandon_order(&upper, &lower)[..head]);
            prop_assert!(order[head..].windows(2).all(|pair| pair[0] < pair[1]));
            if prefix >= n {
                let mut full = Vec::new();
                extend_abandon_order(&upper, &lower, &mut full);
                prop_assert_eq!(order, &full[..]);
            }
        }
    }

    #[test]
    fn lb_improved_dominates_lb_keogh_and_stays_admissible() {
        let c = signal(36, 0.0);
        let m = RotationMatrix::full(&c).unwrap();
        let rows: Vec<usize> = vec![0, 4, 11, 18];
        let w = Wedge::from_rows(&m, &rows);
        let q = signal(36, 2.9);
        for band in [0usize, 1, 3, 6] {
            let wide = w.widened(band);
            let keogh = lb_keogh(&q, &wide, &mut steps());
            let improved = lb_improved(&q, &w, &wide, band, &mut steps());
            assert!(
                improved >= keogh - 1e-12,
                "band {band}: improved {improved} < keogh {keogh}"
            );
            for &row in &rows {
                let d = dtw(&q, &m.row(row).to_vec(), DtwParams::new(band), &mut steps());
                assert!(
                    improved <= d + 1e-9,
                    "band {band} row {row}: improved {improved} > dtw {d}"
                );
            }
        }
    }

    #[test]
    fn lb_improved_second_pass_dismissal_is_strict() {
        let c = signal(32, 0.0);
        let m = RotationMatrix::full(&c).unwrap();
        let w = Wedge::from_rows(&m, &[0, 5]);
        let wide = w.widened(2);
        let q = signal(32, 1.9);
        let first = lb_keogh(&q, &wide, &mut steps());
        let full = lb_improved(&q, &w, &wide, 2, &mut steps());
        assert!(full > 0.0, "test needs a non-trivial bound");
        let mut scratch = ImprovedScratch::new();
        // Radius exactly at the bound: inclusive, never dismissed.
        let at = lb_improved_second_pass(
            &q,
            &w,
            &wide,
            2,
            first * first,
            full,
            &mut scratch,
            &mut steps(),
        );
        assert_eq!(at, Some(full));
        // Radius below the bound: dismissed.
        let below = lb_improved_second_pass(
            &q,
            &w,
            &wide,
            2,
            first * first,
            full * 0.99,
            &mut scratch,
            &mut steps(),
        );
        assert_eq!(below, None);
    }

    #[test]
    fn lb_improved_second_pass_is_zero_at_band_zero() {
        let c = signal(20, 0.0);
        let m = RotationMatrix::full(&c).unwrap();
        let w = Wedge::from_rows(&m, &[0, 2, 6]);
        let q = signal(20, 3.3);
        let keogh = lb_keogh(&q, &w, &mut steps());
        let improved = lb_improved(&q, &w, &w, 0, &mut steps());
        assert!(
            (improved - keogh).abs() < 1e-12,
            "projection lies inside the plain envelope, second pass adds 0"
        );
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
