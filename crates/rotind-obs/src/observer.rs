//! The [`SearchObserver`] callback trait threaded through the wedge
//! engine.
//!
//! Every callback has an empty default body, and the engine's search
//! entry points are generic over the observer, so a search running with
//! [`NoopObserver`] monomorphizes to *exactly* the un-instrumented code
//! (verified by the `observer_overhead` benchmark in `rotind-bench`).
//! Observers must never influence the search — they receive values, they
//! do not return any.

/// One tier of the admissible-bound cascade the engine runs per
/// (candidate, wedge) pair, in strictly increasing cost order. Lives
/// here (not in `rotind-index`) so observers can attribute prunes to
/// tiers without a dependency cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CascadeTier {
    /// Tier 1: the `O(1)` endpoint (LB_Kim-style) bound; no engine runs it.
    Kim,
    /// Tier 2: the reduced-space (PAA) bound; no engine runs it.
    Reduced,
    /// Tier 3: full LB_Keogh with early abandoning, in position order.
    Keogh,
    /// Tier 4: Lemire's LB_Improved second pass, deleted from the
    /// library. Tiers 1, 2 and 4 each cost more than they saved, so their
    /// `tier.*` metrics read 0 under every measure. The variants stay
    /// because trace and benchmark consumers index their tier slots by
    /// [`CascadeTier::ALL`].
    Improved,
}

impl CascadeTier {
    /// All tiers in cascade (increasing cost) order.
    pub const ALL: [CascadeTier; 4] = [
        CascadeTier::Kim,
        CascadeTier::Reduced,
        CascadeTier::Keogh,
        CascadeTier::Improved,
    ];

    /// Dense index of this tier in [`CascadeTier::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        match self {
            CascadeTier::Kim => 0,
            CascadeTier::Reduced => 1,
            CascadeTier::Keogh => 2,
            CascadeTier::Improved => 3,
        }
    }

    /// Stable lowercase name, the `<name>` of the `tier.<name>.*`
    /// metrics.
    #[inline]
    pub fn name(self) -> &'static str {
        match self {
            CascadeTier::Kim => "kim",
            CascadeTier::Reduced => "reduced",
            CascadeTier::Keogh => "keogh",
            CascadeTier::Improved => "improved",
        }
    }
}

/// A nestable phase of query execution, reported through
/// [`SearchObserver::on_phase_start`] / [`on_phase_end`] so a profiler
/// can build the span tree `query → wedge-merge → tier → distance`
/// (DESIGN.md §13).
///
/// Phases strictly nest: a `start` is always matched by an `end` of the
/// same phase before the enclosing phase ends, even when the search
/// inside is cut short by a budget.
///
/// [`on_phase_end`]: SearchObserver::on_phase_end
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfilePhase {
    /// One whole query: a `nearest`/`k_nearest`/`range` call.
    Query,
    /// One H-Merge candidate evaluation — the full cascade walk for a
    /// single database series.
    WedgeMerge,
    /// One cascade-tier bound evaluation inside a wedge merge.
    Tier(CascadeTier),
    /// One true distance call at a leaf (a single rotation).
    Distance,
}

impl ProfilePhase {
    /// Stable dotted name used in span trees, folded stacks and chrome
    /// trace events.
    #[inline]
    pub fn name(self) -> &'static str {
        match self {
            ProfilePhase::Query => "query",
            ProfilePhase::WedgeMerge => "wedge_merge",
            ProfilePhase::Tier(CascadeTier::Kim) => "tier.kim",
            ProfilePhase::Tier(CascadeTier::Reduced) => "tier.reduced",
            ProfilePhase::Tier(CascadeTier::Keogh) => "tier.keogh",
            ProfilePhase::Tier(CascadeTier::Improved) => "tier.improved",
            ProfilePhase::Distance => "distance",
        }
    }
}

/// Receives fine-grained events from a wedge search.
///
/// `level` in [`on_wedge_tested`](SearchObserver::on_wedge_tested) is the
/// descent depth below the H-Merge cut: the K cut wedges are level 0,
/// their children level 1, and so on down to the leaves.
pub trait SearchObserver {
    /// A wedge lower bound was computed. `pruned` is true when `lb`
    /// exceeded `best_so_far` and the subtree was discarded.
    #[inline]
    fn on_wedge_tested(&mut self, level: usize, lb: f64, best_so_far: f64, pruned: bool) {
        let _ = (level, lb, best_so_far, pruned);
    }

    /// A true distance was evaluated at a leaf (a single rotation).
    #[inline]
    fn on_leaf_distance(&mut self, distance: f64) {
        let _ = distance;
    }

    /// A lower-bound accumulation abandoned early at `position` (the
    /// number of series points consumed before the running sum crossed
    /// the best-so-far threshold).
    #[inline]
    fn on_early_abandon(&mut self, position: usize) {
        let _ = position;
    }

    /// The dynamic K planner moved from `old` to `new` wedges.
    /// `probing` is true when the change starts a measurement probe
    /// rather than adopting a measured winner.
    #[inline]
    fn on_k_change(&mut self, old: usize, new: usize, probing: bool) {
        let _ = (old, new, probing);
    }

    /// One cascade tier evaluated its bound for a (candidate, wedge)
    /// pair: `pruned` is true when this tier dismissed the wedge (no
    /// later tier ran). Fired *in addition to*
    /// [`on_wedge_tested`](SearchObserver::on_wedge_tested), which keeps
    /// its historical per-wedge semantics.
    #[inline]
    fn on_cascade_tier(&mut self, tier: CascadeTier, pruned: bool) {
        let _ = (tier, pruned);
    }

    /// A profiling phase opened. `steps` is the query counter's value
    /// at entry; the matching [`on_phase_end`] reports the value at
    /// exit, so a profiler attributes `end - start` steps to the phase
    /// without the engine paying for any clock read (wall-clock, when
    /// wanted, is the *observer's* job to measure inside the callback —
    /// [`NoopObserver`] pays literally nothing).
    ///
    /// [`on_phase_end`]: SearchObserver::on_phase_end
    #[inline]
    fn on_phase_start(&mut self, phase: ProfilePhase, steps: u64) {
        let _ = (phase, steps);
    }

    /// The innermost open phase closed; `phase` always matches the
    /// unmatched [`on_phase_start`]. `steps` is the query counter's
    /// value at exit.
    ///
    /// [`on_phase_start`]: SearchObserver::on_phase_start
    #[inline]
    fn on_phase_end(&mut self, phase: ProfilePhase, steps: u64) {
        let _ = (phase, steps);
    }
}

/// The do-nothing observer: the default for un-instrumented searches.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl SearchObserver for NoopObserver {}

impl<O: SearchObserver + ?Sized> SearchObserver for &mut O {
    #[inline]
    fn on_wedge_tested(&mut self, level: usize, lb: f64, best_so_far: f64, pruned: bool) {
        (**self).on_wedge_tested(level, lb, best_so_far, pruned);
    }

    #[inline]
    fn on_leaf_distance(&mut self, distance: f64) {
        (**self).on_leaf_distance(distance);
    }

    #[inline]
    fn on_early_abandon(&mut self, position: usize) {
        (**self).on_early_abandon(position);
    }

    #[inline]
    fn on_k_change(&mut self, old: usize, new: usize, probing: bool) {
        (**self).on_k_change(old, new, probing);
    }

    #[inline]
    fn on_cascade_tier(&mut self, tier: CascadeTier, pruned: bool) {
        (**self).on_cascade_tier(tier, pruned);
    }

    #[inline]
    fn on_phase_start(&mut self, phase: ProfilePhase, steps: u64) {
        (**self).on_phase_start(phase, steps);
    }

    #[inline]
    fn on_phase_end(&mut self, phase: ProfilePhase, steps: u64) {
        (**self).on_phase_end(phase, steps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct CountingObserver {
        wedges: usize,
        leaves: usize,
        abandons: usize,
        k_changes: usize,
        tiers: usize,
        phases: usize,
    }

    impl SearchObserver for CountingObserver {
        fn on_wedge_tested(&mut self, _: usize, _: f64, _: f64, _: bool) {
            self.wedges += 1;
        }
        fn on_leaf_distance(&mut self, _: f64) {
            self.leaves += 1;
        }
        fn on_early_abandon(&mut self, _: usize) {
            self.abandons += 1;
        }
        fn on_k_change(&mut self, _: usize, _: usize, _: bool) {
            self.k_changes += 1;
        }
        fn on_cascade_tier(&mut self, _: CascadeTier, _: bool) {
            self.tiers += 1;
        }
        fn on_phase_start(&mut self, _: ProfilePhase, _: u64) {
            self.phases += 1;
        }
        fn on_phase_end(&mut self, _: ProfilePhase, _: u64) {
            self.phases += 1;
        }
    }

    fn drive<O: SearchObserver>(obs: &mut O) {
        obs.on_wedge_tested(0, 1.0, 2.0, false);
        obs.on_leaf_distance(1.5);
        obs.on_early_abandon(17);
        obs.on_k_change(8, 4, true);
        obs.on_cascade_tier(CascadeTier::Kim, true);
        obs.on_phase_start(ProfilePhase::Query, 0);
        obs.on_phase_end(ProfilePhase::Query, 10);
    }

    #[test]
    fn noop_observer_accepts_all_events() {
        drive(&mut NoopObserver);
    }

    #[test]
    fn mut_ref_forwards_all_events() {
        let mut obs = CountingObserver::default();
        // Drive through a &mut to exercise the forwarding impl, as the
        // engine's nested calls do.
        drive(&mut &mut obs);
        assert_eq!(
            (
                obs.wedges,
                obs.leaves,
                obs.abandons,
                obs.k_changes,
                obs.tiers,
                obs.phases
            ),
            (1, 1, 1, 1, 1, 2)
        );
    }

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(ProfilePhase::Query.name(), "query");
        assert_eq!(ProfilePhase::WedgeMerge.name(), "wedge_merge");
        assert_eq!(ProfilePhase::Tier(CascadeTier::Kim).name(), "tier.kim");
        assert_eq!(
            ProfilePhase::Tier(CascadeTier::Improved).name(),
            "tier.improved"
        );
        assert_eq!(ProfilePhase::Distance.name(), "distance");
    }

    #[test]
    fn tier_order_and_names_are_stable() {
        assert_eq!(CascadeTier::ALL.len(), 4);
        for (i, tier) in CascadeTier::ALL.iter().enumerate() {
            assert_eq!(tier.index(), i, "ALL is in cascade order");
        }
        let names: Vec<&str> = CascadeTier::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(names, ["kim", "reduced", "keogh", "improved"]);
    }
}
