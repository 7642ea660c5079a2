//! The H-Merge algorithm (Section 4.1, Table 6).
//!
//! Given a candidate series and a wedge-set cut of the query's
//! hierarchical wedge tree, H-Merge pushes the cut's wedges onto a stack
//! and repeatedly pops: if `EA_LB_Keogh` against the popped wedge early
//! abandons, *every* rotation covered by that wedge is pruned with a
//! single (partial) pass; otherwise the wedge's children are pushed, down
//! to single-rotation leaves where the exact measure is evaluated.
//!
//! The paper's Table 6 is phrased for query filtering (return the first
//! leaf within `r`); the search engines need the *best* rotation, so this
//! implementation keeps scanning with the running best as the abandoning
//! threshold — exactly how `NNSearch` (Table 7) consumes it.

use rotind_distance::dtw::dtw_early_abandon_finite;
use rotind_distance::measure::Measure;
use rotind_envelope::lb_keogh::{
    lb_keogh_early_abandon_at, lcss_distance_lower_bound_with, LcssScratch,
};
use rotind_envelope::WedgeTree;
use rotind_obs::{BudgetHook, CascadeTier, NoBudget, NoopObserver, ProfilePhase, SearchObserver};
use rotind_ts::rotate::Rotation;
use rotind_ts::StepCounter;

/// Best rotation found by an H-Merge scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HMergeOutcome {
    /// The minimal distance over all admitted rotations (at most the
    /// threshold passed in — the admitted radius is inclusive).
    pub distance: f64,
    /// The rotation achieving it.
    pub rotation: Rotation,
}

/// Canonical ordering of rotations for tie-breaking: unmirrored shifts
/// first, then mirrored, each by ascending shift. This matches the row
/// order of [`rotind_ts::rotate::RotationMatrix`], so H-Merge and the
/// `Test_All_Rotations` oracle break exact distance ties identically —
/// and, because the ordering does not depend on traversal order, the
/// H-Merge outcome is a pure function of (candidate, tree, measure) for
/// any threshold admitting the true minimum. The best-first Euclidean
/// scan relies on that to return database order's answer although its
/// best-so-far tightens in a different order.
#[inline]
fn rotation_key(r: Rotation) -> (bool, usize) {
    (r.mirrored, r.shift)
}

/// The working buffers of an H-Merge walk: the wedge stack, the row DTW
/// and LCSS leaves copy their rotation into, and the widened-LCSS
/// scratch. A scan keeps one set for all its candidates, so once they
/// have grown to the tree's depth and the series length a walk
/// allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct WalkBuffers {
    stack: Vec<(usize, usize)>,
    leaf: Vec<f64>,
    lcss: LcssScratch,
}

/// Exact distance at a single-rotation leaf, early-abandoning against `r`.
/// DTW and LCSS read the leaf's rotation from `series`, a buffer the
/// caller keeps for its whole walk, so a leaf allocates nothing.
/// `finite_dtw` says the walk has found every candidate sample finite
/// under a DTW measure (see [`candidate_is_finite_dtw`]), so the leaf runs
/// the DTW kernel without its per-call finiteness pass.
#[allow(clippy::too_many_arguments)] // the leaf inputs plus the caller's buffer
fn leaf_distance(
    candidate: &[f64],
    tree: &WedgeTree,
    leaf: usize,
    r: f64,
    lb_at_leaf: f64,
    measure: Measure,
    finite_dtw: bool,
    series: &mut Vec<f64>,
    counter: &mut StepCounter,
) -> Option<f64> {
    match measure {
        // A singleton wedge's LB_Keogh IS the Euclidean distance — no
        // second pass needed (Section 4.1: "in the special case where W is
        // created from a single candidate sequence, it degenerates to the
        // Euclidean distance").
        Measure::Euclidean => Some(lb_at_leaf),
        Measure::Dtw(params) if finite_dtw => {
            tree.matrix().row(leaf).copy_into(series);
            dtw_early_abandon_finite(candidate, series, params, r, counter)
        }
        _ => {
            tree.matrix().row(leaf).copy_into(series);
            measure.distance_early_abandon(candidate, series, r, counter)
        }
    }
}

/// Whether `measure` is DTW and every sample of `candidate` is finite,
/// tested once per walk. The rows a leaf compares the candidate with are
/// rotations of the query, which `RotationMatrix` construction rejects
/// unless every sample is finite, so this one test settles the DTW
/// kernel's finiteness check for every leaf of the walk. A non-finite
/// candidate keeps the checked call, which runs the reference loop.
fn candidate_is_finite_dtw(candidate: &[f64], measure: Measure) -> bool {
    matches!(measure, Measure::Dtw(_)) && candidate.iter().all(|x| x.is_finite())
}

/// Scan the wedge set `cut` (node ids of `tree`) for the best rotation
/// match to `candidate` within `r` (inclusive: a rotation at exactly
/// distance `r` is returned). Returns `None` only when every rotation is
/// provably farther than `r`. Exact-distance ties are broken by the
/// canonical rotation order (unmirrored shifts first, then mirrored, each
/// by ascending shift), never by traversal order.
///
/// This is the engine's scan without an observer, a budget or reused
/// buffers; pass `&[tree.root()]` as the cut for `K = 1`.
pub fn h_merge(
    candidate: &[f64],
    tree: &WedgeTree,
    cut: &[usize],
    r: f64,
    measure: Measure,
    counter: &mut StepCounter,
) -> Option<HMergeOutcome> {
    h_merge_cascade(
        candidate,
        tree,
        cut,
        r,
        measure,
        counter,
        &mut NoopObserver,
        &mut NoBudget,
        &mut WalkBuffers::default(),
    )
}

/// Bound one wedge node against `best_so_far`, the engine's one wedge
/// bound dispatch: early-abandoning LB_Keogh in position order for
/// Euclidean and DTW, the similarity-count envelope bound (built in the
/// walk's `lcss` scratch) for LCSS. Returns the admitted bound, or `None`
/// when the bound dismissed the node (prune events already fired). For a
/// Euclidean singleton leaf the returned value *is* the exact distance
/// (no admit events — the legacy special case).
// Admissibility: delegates to witnessed lb_* kernels in rotind-envelope
// (lb_keogh_early_abandon_at, lcss_distance_lower_bound_with).
#[allow(clippy::too_many_arguments)] // the bound inputs plus scratch, counter and observer
fn node_tier_bound<O: SearchObserver>(
    candidate: &[f64],
    tree: &WedgeTree,
    node: usize,
    level: usize,
    best_so_far: f64,
    measure: Measure,
    lcss: &mut LcssScratch,
    counter: &mut StepCounter,
    observer: &mut O,
) -> Option<f64> {
    if let Measure::Lcss(p) = measure {
        // LCSS has a single similarity-count bound; no tiers apply.
        let lb = lcss_distance_lower_bound_with(candidate, tree.wedge(node), p, lcss, counter);
        let pruned = lb > best_so_far;
        observer.on_wedge_tested(level, lb, best_so_far, pruned);
        return (!pruned).then_some(lb);
    }
    let euclid_leaf = tree.is_leaf(node) && matches!(measure, Measure::Euclidean);
    // For DTW the tree's lb wedges are pre-widened by the band
    // (Proposition 2); for Euclidean they are the plain wedges
    // (Proposition 1).
    let lb_wedge = tree.lb_wedge(node);

    // A Euclidean singleton leaf's accumulation IS the exact distance
    // (Section 4.1), so its phase is `distance`, not a tier — the
    // profile tree attributes that work to where it economically
    // belongs. Pruned (early-abandoned) evaluations count too: the
    // phase measures attempted work, while `on_leaf_distance` keeps
    // counting only completed distances.
    let keogh_phase = if euclid_leaf {
        ProfilePhase::Distance
    } else {
        ProfilePhase::Tier(CascadeTier::Keogh)
    };
    observer.on_phase_start(keogh_phase, counter.steps());
    let keogh = lb_keogh_early_abandon_at(candidate, lb_wedge, best_so_far, counter);
    observer.on_phase_end(keogh_phase, counter.steps());
    let lb = match keogh {
        Ok(lb) => lb,
        Err(position) => {
            observer.on_cascade_tier(CascadeTier::Keogh, true);
            // The exact bound is unknown after an early abandon; the
            // crossed threshold is reported in its place.
            observer.on_wedge_tested(level, best_so_far, best_so_far, true);
            observer.on_early_abandon(position);
            return None;
        }
    };
    if euclid_leaf {
        // Legacy special case: no bound was tested — the value is the
        // exact distance and on_leaf_distance will fire for it.
        return Some(lb);
    }
    observer.on_cascade_tier(CascadeTier::Keogh, false);
    observer.on_wedge_tested(level, lb, best_so_far, false);
    Some(lb)
}

/// The H-Merge core behind every scan: [`h_merge`] with an observer, a
/// budget and caller-owned [`WalkBuffers`] (a caller that keeps them
/// across candidates allocates them once per scan).
///
/// Event semantics:
/// - `on_wedge_tested(level, lb, best_so_far, pruned)` fires per wedge
///   bound, with `level` the descent depth below the cut (cut members
///   are level 0). For bounds that early-abandoned, the exact `lb` is
///   unknown; the crossed threshold (`best_so_far`) is reported in its
///   place.
/// - `on_early_abandon(position)` follows a pruned LB_Keogh bound with
///   the number of query positions consumed.
/// - A *Euclidean leaf* is special: its singleton-wedge bound **is** the
///   exact distance (Section 4.1), so an admitted one fires only
///   `on_leaf_distance` — this keeps the observer's picture faithful
///   (no bound was tested, a distance was computed) and lets traces pair
///   each leaf distance with the most recent admitted ancestor bound
///   for LB-tightness accounting.
/// - Every tested LB_Keogh bound is also reported as
///   [`CascadeTier::Keogh`] through [`SearchObserver::on_cascade_tier`],
///   so the tier's prune count equals the per-level prune count (LCSS
///   keeps its own single envelope bound and fires no tier events).
/// - The whole walk is bracketed in a [`ProfilePhase::WedgeMerge`]
///   phase; bound evaluations and leaf distances report their own
///   nested phases.
///
/// The budget is checked at every dismissal boundary (the top of the pop
/// loop, before any bound is evaluated for the popped wedge). When it
/// trips, the walk stops and returns `None`: the wedges left on the
/// stack may hold a closer rotation, so the running best is only an
/// upper bound on the candidate's distance, and admitting it would put
/// an inexact distance in a partial answer. With [`NoBudget`] the check
/// monomorphizes to a constant `true`.
#[allow(clippy::too_many_arguments)] // the walk inputs plus observer, budget and buffers
                                     // lint: panic-exempt(candidate length is validated against the snapshot at admission; the assert documents the contract)
pub(crate) fn h_merge_cascade<O: SearchObserver, B: BudgetHook>(
    candidate: &[f64],
    tree: &WedgeTree,
    cut: &[usize],
    r: f64,
    measure: Measure,
    counter: &mut StepCounter,
    observer: &mut O,
    budget: &mut B,
    buffers: &mut WalkBuffers,
) -> Option<HMergeOutcome> {
    assert_eq!(
        candidate.len(),
        tree.matrix().series_len(),
        "h_merge: candidate length mismatch"
    );
    observer.on_phase_start(ProfilePhase::WedgeMerge, counter.steps());
    let mut best: Option<HMergeOutcome> = None;
    let mut best_so_far = r;
    let WalkBuffers { stack, leaf, lcss } = buffers;
    let finite_dtw = candidate_is_finite_dtw(candidate, measure);
    // A walk cut short by the budget may leave wedges behind.
    stack.clear();
    stack.extend(cut.iter().map(|&node| (node, 0)));
    let mut cut_short = false;
    while let Some((node, level)) = stack.pop() {
        // Dismissal boundary: a tripped budget abandons the remaining
        // wedges. The hook is sticky, so the caller can read the trip
        // reason afterwards.
        if !budget.check(counter.steps()) {
            cut_short = true;
            break;
        }
        let is_leaf = tree.is_leaf(node);
        let bound = node_tier_bound(
            candidate,
            tree,
            node,
            level,
            best_so_far,
            measure,
            lcss,
            counter,
            observer,
        );
        let Some(lb) = bound else {
            continue; // the whole wedge is pruned
        };
        if is_leaf {
            // Euclidean leaves fire their `distance` phase inside
            // `node_tier_bound` (the singleton bound IS the distance); the other
            // measures compute the real thing here.
            let phased = !matches!(measure, Measure::Euclidean);
            if phased {
                observer.on_phase_start(ProfilePhase::Distance, counter.steps());
            }
            let d = leaf_distance(
                candidate,
                tree,
                node,
                best_so_far,
                lb,
                measure,
                finite_dtw,
                leaf,
                counter,
            );
            if phased {
                observer.on_phase_end(ProfilePhase::Distance, counter.steps());
            }
            if let Some(d) = d {
                observer.on_leaf_distance(d);
                let rotation = tree.leaf_rotation(node);
                // Admission against the caller's radius is inclusive
                // (`d == r` matches — every dismissal in this crate is
                // strict), and among equal distances the canonical lowest
                // rotation key wins, so the outcome is independent of
                // traversal order and of any threshold that admits the
                // true minimum.
                let improved = match &best {
                    None => d <= best_so_far,
                    Some(b) => {
                        d < b.distance
                            || (d == b.distance
                                && rotation_key(rotation) < rotation_key(b.rotation))
                    }
                };
                if improved {
                    // For Euclidean leaves `d` is the singleton-wedge
                    // LB_Keogh, which §4.1 proves degenerates to the
                    // exact distance — the one place a bound-tainted
                    // value may legally tighten the radius.
                    // rotind-lint: allow(prune-only)
                    best_so_far = d;
                    best = Some(HMergeOutcome {
                        distance: d,
                        rotation,
                    });
                }
            }
        } else {
            let (left, right) = tree.children(node).expect("internal node has children");
            stack.push((left, level + 1));
            stack.push((right, level + 1));
        }
    }
    observer.on_phase_end(ProfilePhase::WedgeMerge, counter.steps());
    best.filter(|_| !cut_short)
}

/// Table 6 *verbatim*: a boolean query **filter**. Returns the first
/// rotation found within `r` of the candidate (not necessarily the
/// best), or `None` when every rotation is provably farther than `r`.
///
/// This is the streaming use-case the paper highlights (query filtering
/// over streams, "Atomic Wedgie" \[40\]): for monitoring, *any* match
/// within `r` suffices and scanning on after the first hit is wasted
/// work. For nearest-neighbour search use [`h_merge`], which keeps
/// scanning with the running best.
pub fn h_merge_filter(
    candidate: &[f64],
    tree: &WedgeTree,
    cut: &[usize],
    r: f64,
    measure: Measure,
    counter: &mut StepCounter,
) -> Option<HMergeOutcome> {
    assert_eq!(
        candidate.len(),
        tree.matrix().series_len(),
        "h_merge_filter: candidate length mismatch"
    );
    let WalkBuffers { stack, leaf, lcss } = &mut WalkBuffers::default();
    let finite_dtw = candidate_is_finite_dtw(candidate, measure);
    stack.extend(cut.iter().map(|&node| (node, 0)));
    while let Some((node, level)) = stack.pop() {
        let bound = node_tier_bound(
            candidate,
            tree,
            node,
            level,
            r,
            measure,
            lcss,
            counter,
            &mut NoopObserver,
        );
        let Some(lb) = bound else {
            continue;
        };
        if tree.is_leaf(node) {
            let d = leaf_distance(
                candidate, tree, node, r, lb, measure, finite_dtw, leaf, counter,
            );
            if let Some(d) = d.filter(|&d| d <= r) {
                return Some(HMergeOutcome {
                    distance: d,
                    rotation: tree.leaf_rotation(node),
                });
            }
        } else {
            let (left, right) = tree.children(node).expect("internal node has children");
            stack.push((left, level + 1));
            stack.push((right, level + 1));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotind_distance::dtw::DtwParams;
    use rotind_distance::lcss::LcssParams;
    use rotind_distance::rotation::test_all_rotations;
    use rotind_ts::rotate::{rotated, RotationMatrix};

    fn steps() -> StepCounter {
        StepCounter::new()
    }

    fn signal(n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.31 + phase).sin() + 0.4 * (i as f64 * 0.83 + phase).cos())
            .collect()
    }

    fn tree_for(query: &[f64], band: usize) -> WedgeTree {
        WedgeTree::new(RotationMatrix::full(query).unwrap(), band)
    }

    /// H-Merge over the whole tree starting from the root (`K = 1`).
    fn from_root(
        candidate: &[f64],
        tree: &WedgeTree,
        r: f64,
        measure: Measure,
        counter: &mut StepCounter,
    ) -> Option<HMergeOutcome> {
        h_merge(candidate, tree, &[tree.root()], r, measure, counter)
    }

    /// [`h_merge`] with observer callbacks.
    fn observed<O: SearchObserver>(
        candidate: &[f64],
        tree: &WedgeTree,
        cut: &[usize],
        r: f64,
        counter: &mut StepCounter,
        observer: &mut O,
    ) -> Option<HMergeOutcome> {
        h_merge_cascade(
            candidate,
            tree,
            cut,
            r,
            Measure::Euclidean,
            counter,
            observer,
            &mut NoBudget,
            &mut WalkBuffers::default(),
        )
    }

    #[test]
    fn equals_test_all_rotations_for_every_k_euclidean() {
        let query = signal(24, 0.0);
        let candidate = signal(24, 1.9);
        let tree = tree_for(&query, 0);
        let matrix = RotationMatrix::full(&query).unwrap();
        let oracle = test_all_rotations(
            &candidate,
            &matrix,
            f64::INFINITY,
            Measure::Euclidean,
            &mut steps(),
        )
        .unwrap();
        for k in 1..=24 {
            let cut = tree.cut_nodes(k);
            let got = h_merge(
                &candidate,
                &tree,
                &cut,
                f64::INFINITY,
                Measure::Euclidean,
                &mut steps(),
            )
            .unwrap();
            assert!(
                (got.distance - oracle.distance).abs() < 1e-9,
                "k = {k}: {} vs {}",
                got.distance,
                oracle.distance
            );
        }
    }

    #[test]
    fn equals_oracle_for_dtw_and_lcss() {
        let query = signal(20, 0.0);
        let candidate = signal(20, 2.6);
        let matrix = RotationMatrix::full(&query).unwrap();
        for (measure, band) in [
            (Measure::Dtw(DtwParams::new(3)), 3usize),
            (Measure::Lcss(LcssParams::for_normalized(20)), 0),
        ] {
            let tree = tree_for(&query, band);
            let oracle =
                test_all_rotations(&candidate, &matrix, f64::INFINITY, measure, &mut steps())
                    .unwrap();
            for k in [1usize, 2, 5, 10, 20] {
                let cut = tree.cut_nodes(k);
                let got = h_merge(
                    &candidate,
                    &tree,
                    &cut,
                    f64::INFINITY,
                    measure,
                    &mut steps(),
                )
                .unwrap();
                assert!(
                    (got.distance - oracle.distance).abs() < 1e-9,
                    "{} k = {k}",
                    measure.name()
                );
            }
        }
    }

    #[test]
    fn finds_planted_rotation() {
        let query = signal(32, 0.0);
        let candidate = rotated(&query, 13);
        let tree = tree_for(&query, 0);
        let got = from_root(
            &candidate,
            &tree,
            f64::INFINITY,
            Measure::Euclidean,
            &mut steps(),
        )
        .unwrap();
        assert!(got.distance < 1e-9);
        assert_eq!(got.rotation.shift, 13);
    }

    #[test]
    fn threshold_below_exact_returns_none() {
        let query = signal(18, 0.0);
        let candidate = signal(18, 2.2);
        let tree = tree_for(&query, 0);
        let exact = from_root(
            &candidate,
            &tree,
            f64::INFINITY,
            Measure::Euclidean,
            &mut steps(),
        )
        .unwrap()
        .distance;
        assert!(from_root(
            &candidate,
            &tree,
            exact * 0.99,
            Measure::Euclidean,
            &mut steps()
        )
        .is_none());
    }

    #[test]
    fn candidate_at_exactly_r_is_returned_by_every_scan_path() {
        // Exactly-representable construction: the candidate is the query
        // plus a single +3.0 spike, so the shift-0 Euclidean distance is
        // sqrt(3.0²) = 3.0 with no rounding anywhere (3.0² = 9.0 and
        // sqrt(9.0) = 3.0 are both exact in f64). Setting r to exactly
        // that distance must admit the candidate on every path: the
        // admitted radius is inclusive and every dismissal is strict.
        let n = 16;
        let query: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut candidate = query.clone();
        candidate[5] += 3.0;
        let tree = tree_for(&query, 0);
        let matrix = RotationMatrix::full(&query).unwrap();
        let exact = test_all_rotations(
            &candidate,
            &matrix,
            f64::INFINITY,
            Measure::Euclidean,
            &mut steps(),
        )
        .unwrap();
        assert_eq!(exact.distance, 3.0, "distance must be exactly 3.0");
        assert_eq!(exact.rotation, rotind_ts::rotate::Rotation::shift(0));
        let r = exact.distance;
        // Oracle at r == d.
        let oracle = test_all_rotations(&candidate, &matrix, r, Measure::Euclidean, &mut steps())
            .expect("candidate at exactly r is admitted by the oracle");
        assert_eq!(oracle.distance, 3.0);
        // H-Merge at every cut size, and the Table 6 filter.
        for k in 1..=n {
            let cut = tree.cut_nodes(k);
            let hit = h_merge(&candidate, &tree, &cut, r, Measure::Euclidean, &mut steps())
                .unwrap_or_else(|| panic!("k = {k}: candidate at exactly r must be returned"));
            assert_eq!(hit.distance, 3.0);
            assert_eq!(hit.rotation.shift, 0);
            let filtered =
                h_merge_filter(&candidate, &tree, &cut, r, Measure::Euclidean, &mut steps())
                    .unwrap_or_else(|| panic!("k = {k}: filter must admit d == r"));
            assert!(filtered.distance <= r);
        }
    }

    #[test]
    fn equal_distance_ties_break_on_rotation_key() {
        // A constant query has n bitwise-identical rotations, so every
        // leaf distance ties exactly; the winner must be the canonical
        // lowest rotation key (shift 0, unmirrored) for every cut size —
        // independent of stack traversal order. (A constant *candidate*
        // would not do: summing the same terms in rotated order is not
        // FP-associative, so those ties need not be exact.)
        let n = 8;
        let query = vec![1.0f64; n];
        let candidate = signal(n, 0.4);
        let tree = tree_for(&query, 0);
        for k in 1..=n {
            let cut = tree.cut_nodes(k);
            let hit = h_merge(
                &candidate,
                &tree,
                &cut,
                f64::INFINITY,
                Measure::Euclidean,
                &mut steps(),
            )
            .unwrap();
            assert_eq!(
                hit.rotation,
                rotind_ts::rotate::Rotation::shift(0),
                "k = {k}: ties must go to the canonical first rotation"
            );
        }
    }

    #[test]
    fn wedge_pruning_saves_steps_vs_early_abandon_scan() {
        // A dissimilar candidate with a tight threshold: one fat wedge
        // abandons in a few steps, while per-rotation early abandon pays
        // at least one step per rotation.
        let n = 64;
        let query = signal(n, 0.0);
        let candidate: Vec<f64> = vec![50.0; n];
        let tree = tree_for(&query, 0);
        let mut wedge_steps = steps();
        let cut = tree.cut_nodes(1);
        assert!(h_merge(
            &candidate,
            &tree,
            &cut,
            0.5,
            Measure::Euclidean,
            &mut wedge_steps
        )
        .is_none());
        let matrix = RotationMatrix::full(&query).unwrap();
        let mut scan_steps = steps();
        assert!(test_all_rotations(
            &candidate,
            &matrix,
            0.5,
            Measure::Euclidean,
            &mut scan_steps
        )
        .is_none());
        assert!(
            wedge_steps.steps() * 10 < scan_steps.steps(),
            "wedge {} vs scan {}",
            wedge_steps.steps(),
            scan_steps.steps()
        );
    }

    #[test]
    fn mirror_and_limited_invariance() {
        let query = signal(22, 0.0);
        // Mirror: the candidate is a rotated mirror image.
        let candidate = rotated(&rotind_ts::rotate::mirror(&query), 5);
        let tree = WedgeTree::new(RotationMatrix::with_mirror(&query).unwrap(), 0);
        let got = from_root(
            &candidate,
            &tree,
            f64::INFINITY,
            Measure::Euclidean,
            &mut steps(),
        )
        .unwrap();
        assert!(got.distance < 1e-9);
        assert!(got.rotation.mirrored);

        // Limited: a far rotation must not be matched exactly.
        let far = rotated(&query, 11);
        let tree = WedgeTree::new(RotationMatrix::limited(&query, 2).unwrap(), 0);
        let got = from_root(&far, &tree, f64::INFINITY, Measure::Euclidean, &mut steps()).unwrap();
        assert!(got.distance > 0.1);
    }

    #[test]
    fn filter_agrees_with_search_on_matchability() {
        let query = signal(24, 0.0);
        let tree = tree_for(&query, 0);
        let cut = tree.cut_nodes(4);
        for phase in [0.3, 0.9, 1.7, 2.8] {
            let candidate = signal(24, phase);
            let exact = h_merge(
                &candidate,
                &tree,
                &cut,
                f64::INFINITY,
                Measure::Euclidean,
                &mut steps(),
            )
            .unwrap()
            .distance;
            // r == exact exactly is FP-fragile (squaring the sqrt can
            // round below the accumulated sum); pad by one ulp-ish.
            for r in [exact * 0.5, exact + 1e-9, exact * 2.0] {
                let hit =
                    h_merge_filter(&candidate, &tree, &cut, r, Measure::Euclidean, &mut steps());
                if exact <= r {
                    let hit = hit.expect("a rotation within r exists");
                    assert!(hit.distance <= r, "returned match must be within r");
                } else {
                    assert!(hit.is_none(), "no rotation within r exists");
                }
            }
        }
    }

    #[test]
    fn filter_stops_early_and_saves_steps() {
        // A self-match is found long before all rotations are examined.
        let query = signal(64, 0.0);
        let tree = tree_for(&query, 0);
        let cut = tree.cut_nodes(8);
        let candidate = rotated(&query, 20);
        let mut filter_steps = steps();
        let hit = h_merge_filter(
            &candidate,
            &tree,
            &cut,
            1e-6,
            Measure::Euclidean,
            &mut filter_steps,
        )
        .unwrap();
        assert_eq!(hit.rotation.shift, 20);
        let mut search_steps = steps();
        h_merge(
            &candidate,
            &tree,
            &cut,
            f64::INFINITY,
            Measure::Euclidean,
            &mut search_steps,
        )
        .unwrap();
        assert!(
            filter_steps.steps() < search_steps.steps(),
            "filter {} !< search {}",
            filter_steps.steps(),
            search_steps.steps()
        );
    }

    #[test]
    fn observed_scan_is_neutral_and_fires_events() {
        use rotind_obs::QueryTrace;
        let n = 48;
        let query = signal(n, 0.0);
        let tree = tree_for(&query, 0);
        let cut = tree.cut_nodes(4);
        for phase in [0.7, 1.9, 3.1] {
            let candidate = signal(n, phase);
            let mut plain_steps = steps();
            let plain = h_merge(
                &candidate,
                &tree,
                &cut,
                f64::INFINITY,
                Measure::Euclidean,
                &mut plain_steps,
            );
            let mut trace = QueryTrace::new(n);
            let mut observed_steps = steps();
            let observed = observed(
                &candidate,
                &tree,
                &cut,
                f64::INFINITY,
                &mut observed_steps,
                &mut trace,
            );
            assert_eq!(plain, observed, "observer must not change the answer");
            assert_eq!(
                plain_steps.steps(),
                observed_steps.steps(),
                "observer must not change the step count"
            );
            // The running best-so-far prunes most rotations even with an
            // infinite initial threshold; at least the first admitted
            // leaf must have fired a distance event, and every cut node
            // is tested at level 0 (admitted or pruned).
            assert!(trace.leaf_distances() >= 1);
            assert!(trace.tested(0) + trace.leaf_distances() >= cut.len() as u64);
            assert!(trace.wedges_tested() > 0);
        }
    }

    #[test]
    fn observed_scan_reports_abandon_positions() {
        use rotind_obs::QueryTrace;
        let n = 64;
        let query = signal(n, 0.0);
        let candidate: Vec<f64> = vec![50.0; n];
        let tree = tree_for(&query, 0);
        let cut = tree.cut_nodes(1);
        let mut trace = QueryTrace::new(n);
        let mut counter = steps();
        assert!(observed(&candidate, &tree, &cut, 0.5, &mut counter, &mut trace).is_none());
        assert_eq!(trace.pruned(0), 1, "the single fat wedge prunes");
        assert_eq!(trace.early_abandons(), 1);
        assert!(trace.abandon_depth().mean().unwrap() <= 1.0);
        assert_eq!(trace.leaf_distances(), 0);
    }

    #[test]
    fn k_equal_n_behaves_like_early_abandon_rotation_scan() {
        // At K = n every wedge is a singleton: the result must match and
        // the work is comparable to Table 2 with best-so-far threading.
        let query = signal(16, 0.0);
        let candidate = signal(16, 0.9);
        let tree = tree_for(&query, 0);
        let cut = tree.cut_nodes(16);
        assert_eq!(cut.len(), 16);
        let got = h_merge(
            &candidate,
            &tree,
            &cut,
            f64::INFINITY,
            Measure::Euclidean,
            &mut steps(),
        )
        .unwrap();
        let matrix = RotationMatrix::full(&query).unwrap();
        let oracle = test_all_rotations(
            &candidate,
            &matrix,
            f64::INFINITY,
            Measure::Euclidean,
            &mut steps(),
        )
        .unwrap();
        assert!((got.distance - oracle.distance).abs() < 1e-9);
    }
}
