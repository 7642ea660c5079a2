//! Dynamic wedge-set-size selection (Section 4.1).
//!
//! The best wedge-set size `K` depends on the current best-so-far `r`:
//! a large `r` prunes little, favouring many thin wedges (large `K`);
//! a small `r` prunes a lot, favouring few fat wedges that abandon many
//! rotations with one pass. The paper's controller: *"We start with the
//! wedge set where K = 2. Each time the bestSoFar value changes, we test
//! a subset of the possible values of K and choose the most efficient
//! one (as measured by num_steps) as the next K to use. [The candidates]
//! are the values which evenly divide the ranges [1, current_K] and
//! [current_K, max_K] into 5 intervals."*
//!
//! The probe here is *free in steps*: candidate `K` values are tried on
//! consecutive database items (one candidate per item, work that had to
//! be done anyway), their `num_steps` recorded, and the cheapest adopted.
//! Re-running one item under every candidate would multiply the scan cost
//! by the candidate count and, measured on our workloads, erases the
//! entire wedge advantage — so the sequential form is used and its step
//! cost is naturally included in every experiment, as the paper
//! requires.
//!
//! It is not free in wall time. Steps charge nothing per wedge popped,
//! so the probe favours many thin wedges, and each probe cycle runs
//! items at `K = 1` and at `K = max_K` (one singleton wedge per
//! rotation). On the registered serve workloads (release build, one
//! host, policies interleaved per query), a fixed `K = 16` took
//! 0.63–0.70× of this planner's Euclidean scan time (n = 251, 1-NN,
//! best-first; 32 queries) and 0.93× of its DTW scan time (n = 128,
//! band 5, 5-NN; 64 queries), though it charged up to 21% more steps.
//! So the engine scans at a fixed
//! [`DEFAULT_K`](crate::engine::DEFAULT_K), and this planner runs only
//! where a caller opts in with
//! [`KPolicy::Dynamic`](crate::engine::KPolicy::Dynamic) — the
//! experiments that reproduce the paper's step counts.

use rotind_obs::{NoopObserver, SearchObserver};

/// Number of intervals each side of `current_K` is divided into.
/// The paper finds any value in 3..=20 changes performance by < 4%.
pub const PROBE_INTERVALS: usize = 5;

/// State machine selecting the wedge-set size `K`.
#[derive(Debug, Clone)]
pub struct KPlanner {
    current_k: usize,
    max_k: usize,
    intervals: usize,
    /// Candidate Ks still to be measured (reverse order, popped from the
    /// back), plus measurements taken so far in this probe cycle.
    pending: Vec<usize>,
    measured: Vec<(usize, u64)>,
}

impl KPlanner {
    /// A planner over wedge sets of size `1..=max_k`, starting at the
    /// paper's initial `K = 2`.
    pub fn new(max_k: usize) -> Self {
        Self::with_intervals(max_k, PROBE_INTERVALS)
    }

    /// A planner with a custom probe-interval count (the paper: any
    /// value in `3..=20` changes performance by less than 4%; the
    /// sensitivity is measured by the ablation harness).
    pub fn with_intervals(max_k: usize, intervals: usize) -> Self {
        let max_k = max_k.max(1);
        KPlanner {
            current_k: 2.min(max_k),
            max_k,
            intervals: intervals.max(1),
            pending: Vec::new(),
            measured: Vec::new(),
        }
    }

    /// The `K` to use for the next comparison: the next probe candidate
    /// while a probe cycle is active, the adopted `K` otherwise.
    pub fn next_k(&mut self) -> usize {
        self.effective_k()
    }

    fn effective_k(&self) -> usize {
        match self.pending.last() {
            Some(&k) => k,
            None => self.current_k,
        }
    }

    /// `true` while a probe cycle is measuring candidates.
    pub fn probing(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Largest admissible `K`.
    pub fn max_k(&self) -> usize {
        self.max_k
    }

    /// Currently adopted `K`.
    pub fn current_k(&self) -> usize {
        self.current_k
    }

    /// Record the `num_steps` cost of the comparison just performed with
    /// [`next_k`](Self::next_k)'s value. Advances the probe cycle; when
    /// the last candidate is measured, the cheapest is adopted.
    pub fn record(&mut self, steps: u64) {
        self.record_observed(steps, &mut NoopObserver);
    }

    /// [`record`](Self::record) that reports every effective-K transition
    /// to `observer` via [`SearchObserver::on_k_change`] — advancing to
    /// the next probe candidate (`probing = true`) or adopting the
    /// measured winner at the end of a cycle (`probing = false`).
    pub fn record_observed<O: SearchObserver>(&mut self, steps: u64, observer: &mut O) {
        let old = self.effective_k();
        if let Some(k) = self.pending.pop() {
            self.measured.push((k, steps));
            if self.pending.is_empty() {
                if let Some(&(best_k, _)) = self.measured.iter().min_by_key(|&&(_, cost)| cost) {
                    self.current_k = best_k;
                }
                self.measured.clear();
            }
        }
        let new = self.effective_k();
        if new != old {
            observer.on_k_change(old, new, self.probing());
        }
    }

    /// Notify the planner that best-so-far improved: start (or restart) a
    /// probe cycle over the candidate values that evenly divide
    /// `[1, current_K]` and `[current_K, max_K]` into
    /// [`PROBE_INTERVALS`] intervals.
    pub fn on_best_so_far_change(&mut self) {
        self.on_best_so_far_change_observed(&mut NoopObserver);
    }

    /// [`on_best_so_far_change`](Self::on_best_so_far_change) that
    /// reports the jump to the first probe candidate (when it differs
    /// from the current effective K) via
    /// [`SearchObserver::on_k_change`] with `probing = true`.
    pub fn on_best_so_far_change_observed<O: SearchObserver>(&mut self, observer: &mut O) {
        let old = self.effective_k();
        self.measured.clear();
        let intervals = self.intervals;
        let mut cands = Vec::with_capacity(2 * intervals + 2);
        let spread = |lo: usize, hi: usize, out: &mut Vec<usize>| {
            if hi <= lo {
                out.push(lo);
                return;
            }
            for i in 0..=intervals {
                let v = lo as f64 + (hi - lo) as f64 * i as f64 / intervals as f64;
                out.push(v.round() as usize);
            }
        };
        spread(1, self.current_k, &mut cands);
        spread(self.current_k, self.max_k, &mut cands);
        cands.sort_unstable();
        cands.dedup();
        cands.retain(|&k| (1..=self.max_k).contains(&k));
        cands.reverse(); // popped from the back → ascending trial order
        self.pending = cands;
        let new = self.effective_k();
        if new != old {
            observer.on_k_change(old, new, true);
        }
    }

    /// Force-adopt a `K` (used by tests and ablations).
    pub fn adopt(&mut self, k: usize) {
        self.current_k = k.clamp(1, self.max_k);
        self.pending.clear();
        self.measured.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_two() {
        assert_eq!(KPlanner::new(100).next_k(), 2);
        assert_eq!(KPlanner::new(1).next_k(), 1, "clamped to max_k");
    }

    #[test]
    fn no_probe_until_notified() {
        let mut p = KPlanner::new(50);
        assert!(!p.probing());
        assert_eq!(p.next_k(), 2);
        p.record(100); // recording outside a probe is a no-op
        assert_eq!(p.next_k(), 2);
    }

    #[test]
    fn probe_cycle_adopts_cheapest() {
        let mut p = KPlanner::new(10);
        p.adopt(5);
        p.on_best_so_far_change();
        assert!(p.probing());
        let mut seen = Vec::new();
        // Feed costs so that K = 7 is cheapest (if present), else make a
        // specific candidate cheapest.
        while p.probing() {
            let k = p.next_k();
            seen.push(k);
            p.record(if k == 7 { 1 } else { 100 + k as u64 });
        }
        assert!(seen.contains(&1) && seen.contains(&5) && seen.contains(&10));
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "ascending trials");
        if seen.contains(&7) {
            assert_eq!(p.current_k(), 7);
        }
        assert!(!p.probing());
    }

    #[test]
    fn candidates_cover_both_ranges() {
        let mut p = KPlanner::new(100);
        p.adopt(20);
        p.on_best_so_far_change();
        let mut cands = Vec::new();
        while p.probing() {
            cands.push(p.next_k());
            p.record(1);
        }
        assert!(cands.contains(&1));
        assert!(cands.contains(&20));
        assert!(cands.contains(&100));
        assert!(cands.iter().any(|&k| k > 1 && k < 20));
        assert!(cands.iter().any(|&k| k > 20 && k < 100));
        assert!(cands.iter().all(|&k| (1..=100).contains(&k)));
    }

    #[test]
    fn bsf_change_mid_probe_restarts() {
        let mut p = KPlanner::new(30);
        p.on_best_so_far_change();
        let first = p.next_k();
        p.record(10);
        p.on_best_so_far_change(); // restart before the cycle completes
        assert!(p.probing());
        assert_eq!(p.next_k(), first, "cycle restarted from the beginning");
    }

    #[test]
    fn degenerate_ranges() {
        let mut p = KPlanner::new(1);
        p.on_best_so_far_change();
        assert_eq!(p.next_k(), 1);
        p.record(5);
        assert!(!p.probing());
        assert_eq!(p.current_k(), 1);
    }

    #[test]
    fn custom_intervals_change_candidate_density() {
        let mut coarse = KPlanner::with_intervals(100, 3);
        let mut fine = KPlanner::with_intervals(100, 20);
        coarse.adopt(50);
        fine.adopt(50);
        let count = |p: &mut KPlanner| {
            p.on_best_so_far_change();
            let mut c = 0;
            while p.probing() {
                p.next_k();
                p.record(1);
                c += 1;
            }
            c
        };
        assert!(count(&mut fine) > count(&mut coarse));
    }

    #[test]
    fn adopt_clamps() {
        let mut p = KPlanner::new(30);
        p.adopt(0);
        assert_eq!(p.current_k(), 1);
        p.adopt(99);
        assert_eq!(p.current_k(), 30);
    }

    #[derive(Default)]
    struct KLog(Vec<(usize, usize, bool)>);

    impl SearchObserver for KLog {
        fn on_k_change(&mut self, old: usize, new: usize, probing: bool) {
            self.0.push((old, new, probing));
        }
    }

    #[test]
    fn observed_variants_report_every_k_transition() {
        let mut p = KPlanner::new(10);
        p.adopt(5);
        let mut log = KLog::default();
        p.on_best_so_far_change_observed(&mut log);
        assert_eq!(log.0.len(), 1, "probe start is one transition");
        assert_eq!(log.0[0], (5, p.next_k(), true));
        // Make the FIRST candidate (K = 1) cheapest, so the adoption at
        // cycle end is a visible transition away from the last candidate.
        while p.probing() {
            let k = p.next_k();
            p.record_observed(if k == 1 { 1 } else { 50 }, &mut log);
        }
        let last = *log.0.last().unwrap();
        assert!(!last.2, "final transition adopts (probing = false)");
        assert_eq!(last.1, 1, "cheapest candidate adopted");
        // Every transition chains: new of one is old of the next.
        assert!(log.0.windows(2).all(|w| w[0].1 == w[1].0));
    }

    #[test]
    fn observed_variants_match_unobserved_decisions() {
        // The observer must not influence the adopted K.
        let mut a = KPlanner::new(40);
        let mut b = KPlanner::new(40);
        let mut log = KLog::default();
        a.on_best_so_far_change();
        b.on_best_so_far_change_observed(&mut log);
        let mut cost = 17u64;
        while a.probing() {
            assert_eq!(a.next_k(), b.next_k());
            cost = cost.wrapping_mul(31).wrapping_add(7) % 1000;
            a.record(cost);
            b.record_observed(cost, &mut log);
        }
        assert!(!b.probing());
        assert_eq!(a.current_k(), b.current_k());
    }
}
