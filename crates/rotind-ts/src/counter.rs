//! Step accounting — the paper's implementation-free cost metric.
//!
//! Section 5.3 of the paper: *"the variable `num_steps` returned by Table 1
//! and Table 5 allows an implementation free measure to compare
//! performance"*. A *step* is one real-value subtraction performed while
//! accumulating a distance or a lower bound. Every distance routine in the
//! workspace threads a [`StepCounter`] so the efficiency experiments
//! (Figures 19–23) can be reproduced exactly as published, independent of
//! CPU, allocator or compiler effects.

/// Accumulates the number of *steps* (real-value subtractions) performed.
///
/// The counter deliberately has no notion of time; it is a pure operation
/// count. Cloning is cheap and the counter is `Copy` so harnesses can
/// snapshot it before and after a phase.
///
/// ```
/// use rotind_ts::StepCounter;
/// let mut counter = StepCounter::new();
/// counter.add(100);
/// let snapshot = counter;
/// counter.tick();
/// assert_eq!(counter.steps(), 101);
/// assert_eq!(counter.since(snapshot), 1);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StepCounter {
    steps: u64,
}

impl StepCounter {
    /// A fresh counter at zero.
    #[inline]
    pub const fn new() -> Self {
        StepCounter { steps: 0 }
    }

    /// Record a single step.
    ///
    /// Saturates at `u64::MAX` — at one step per nanosecond that is 584
    /// years of search, but telemetry must never be the thing that
    /// panics (or, with overflow checks off, silently wraps and reports
    /// a tiny step count for the longest run in the fleet).
    #[inline]
    pub fn tick(&mut self) {
        self.steps = self.steps.saturating_add(1);
    }

    /// Record `n` steps at once (used e.g. to charge the FFT cost model
    /// `n·log2 n`, footnote in Section 5.3). Saturating, like
    /// [`tick`](Self::tick).
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.steps = self.steps.saturating_add(n);
    }

    /// Total steps recorded so far.
    #[inline]
    pub const fn steps(&self) -> u64 {
        self.steps
    }

    /// Steps recorded since an earlier snapshot of this counter.
    ///
    /// Saturates at zero when the snapshot is *ahead* of this counter
    /// (possible when a caller snapshots one counter and diffs another,
    /// or after a [`reset`](Self::reset)) — a telemetry readout must
    /// never panic mid-search.
    #[inline]
    pub fn since(&self, snapshot: StepCounter) -> u64 {
        self.steps.saturating_sub(snapshot.steps)
    }

    /// Reset to zero.
    #[inline]
    pub fn reset(&mut self) {
        self.steps = 0;
    }
}

impl std::ops::AddAssign<u64> for StepCounter {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.steps = self.steps.saturating_add(rhs);
    }
}

impl std::fmt::Display for StepCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} steps", self.steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(StepCounter::new().steps(), 0);
        assert_eq!(StepCounter::default().steps(), 0);
    }

    #[test]
    fn tick_add_and_reset() {
        let mut c = StepCounter::new();
        c.tick();
        c.tick();
        c.add(10);
        assert_eq!(c.steps(), 12);
        c.reset();
        assert_eq!(c.steps(), 0);
    }

    #[test]
    fn since_snapshot() {
        let mut c = StepCounter::new();
        c.add(5);
        let snap = c;
        c.add(7);
        assert_eq!(c.since(snap), 7);
        assert_eq!(snap.steps(), 5, "snapshot is an independent copy");
    }

    #[test]
    fn since_saturates_when_snapshot_is_ahead() {
        let mut c = StepCounter::new();
        c.add(5);
        let snap = c;
        c.reset();
        c.add(2);
        assert_eq!(c.since(snap), 0, "stale snapshot saturates, not panics");
        assert_eq!(c.since(c), 0);
    }

    #[test]
    fn since_after_add_matches_increment() {
        let mut c = StepCounter::new();
        c.add(1_000);
        let snap = c;
        c.tick();
        c.add(41);
        assert_eq!(c.since(snap), 42);
        assert_eq!(c.steps(), 1_042);
    }

    #[test]
    fn add_assign_adds() {
        let mut a = StepCounter::new();
        a.add(3);
        a += 2;
        assert_eq!(a.steps(), 5);
    }

    #[test]
    fn saturates_instead_of_wrapping() {
        let mut c = StepCounter::new();
        c.add(u64::MAX - 1);
        c.tick();
        c.tick();
        assert_eq!(c.steps(), u64::MAX, "tick saturates");
        c.add(10);
        assert_eq!(c.steps(), u64::MAX, "add saturates");
        c += 1;
        assert_eq!(c.steps(), u64::MAX, "+= saturates");
    }

    #[test]
    fn display() {
        let mut c = StepCounter::new();
        c.add(42);
        assert_eq!(c.to_string(), "42 steps");
    }
}
