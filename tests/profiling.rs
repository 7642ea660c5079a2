//! The profiling layer's three contracts, end-to-end:
//!
//! 1. **Mergeability** — [`LogHistogram`] (and therefore
//!    [`MetricsRegistry::merge`]) is exactly associative and
//!    commutative, so per-worker metrics can be folded in any order.
//! 2. **Neutrality** — attaching a [`Profiler`] or threading an unset
//!    budget through the budget-generic scan changes nothing: same
//!    answer, same `num_steps`, same per-tier prune attribution.
//! 3. **Budget semantics** — a tripped [`QueryBudget`] returns a typed
//!    [`Exhausted`] partial whose hits are genuine distances, with the
//!    reason and step spend filled in.

use std::time::Duration;

use proptest::prelude::*;
use rotind::distance::dtw::DtwParams;
use rotind::distance::measure::Measure;
use rotind::index::engine::{Invariance, KPolicy, Neighbor, RotationQuery};
use rotind::index::QueryKind;
use rotind::obs::{
    BudgetHook, CascadeTier, LogHistogram, ManualClock, MetricsRegistry, NoBudget,
    DEADLINE_POLL_STEPS,
};
use rotind::prelude::{
    BudgetOutcome, BudgetReason, NoopObserver, Profiler, QueryBudget, QueryTrace, SearchObserver,
};
use rotind::ts::StepCounter;

fn series_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-5.0f64..5.0, n)
}

fn db_strategy(n: usize, m: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(series_strategy(n), 1..=m)
}

/// The sequential scan without a cache.
fn scan<O: SearchObserver, B: BudgetHook>(
    engine: &RotationQuery,
    db: &[Vec<f64>],
    kind: QueryKind,
    counter: &mut StepCounter,
    observer: &mut O,
    budget: &mut B,
) -> BudgetOutcome<Vec<Neighbor>> {
    engine
        .search(db, kind, counter, observer, budget, None)
        .unwrap()
}

/// The plain nearest-neighbour scan with step accounting.
fn nearest(engine: &RotationQuery, db: &[Vec<f64>], counter: &mut StepCounter) -> Vec<Neighbor> {
    scan(
        engine,
        db,
        QueryKind::Nearest,
        counter,
        &mut NoopObserver,
        &mut NoBudget,
    )
    .into_inner()
}

fn hist_of(samples: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &s in samples {
        h.observe(s);
    }
    h
}

// ---------------------------------------------------------------------
// 1. Histogram merge algebra
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn log_histogram_merge_is_commutative(
        a in prop::collection::vec(0u64..u64::MAX, 0..40),
        b in prop::collection::vec(0u64..u64::MAX, 0..40),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);
        // And merging equals observing the union stream directly.
        let mut union: Vec<u64> = a.clone();
        union.extend_from_slice(&b);
        prop_assert_eq!(&ab, &hist_of(&union));
    }

    #[test]
    fn log_histogram_merge_is_associative(
        a in prop::collection::vec(0u64..u64::MAX, 0..30),
        b in prop::collection::vec(0u64..u64::MAX, 0..30),
        c in prop::collection::vec(0u64..u64::MAX, 0..30),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn registry_merge_is_order_independent(
        a in prop::collection::vec(1u64..1_000_000, 1..20),
        b in prop::collection::vec(1u64..1_000_000, 1..20),
        count_a in 0u64..1000,
        count_b in 0u64..1000,
    ) {
        let make = |samples: &[u64], count: u64| {
            let mut r = MetricsRegistry::new();
            r.counter_add("rotind_test_total", count);
            r.log_histogram("rotind_test_latency_ns").merge(&hist_of(samples));
            r
        };
        let (ra, rb) = (make(&a, count_a), make(&b, count_b));
        let mut ab = ra.clone();
        ab.merge(&rb);
        let mut ba = rb.clone();
        ba.merge(&ra);
        // Rendered exposition is the registry's observable state.
        prop_assert_eq!(ab.render_prometheus(), ba.render_prometheus());
    }

    /// Quantiles are monotone non-decreasing in `q` over the whole real
    /// line, with the edge cases pinned: `q <= 0` is the exact min,
    /// `q >= 1` the exact max, NaN and the empty histogram are `None`.
    #[test]
    fn log_histogram_quantile_is_monotone_in_q(
        samples in prop::collection::vec(0u64..u64::MAX, 1..60),
        qs in prop::collection::vec(-0.5f64..1.5, 2..24),
    ) {
        let h = hist_of(&samples);
        let mut qs = qs;
        qs.sort_by(f64::total_cmp);
        let values: Vec<u64> = qs
            .iter()
            .map(|&q| h.quantile(q).expect("non-empty, non-NaN q"))
            .collect();
        for (pair, q) in values.windows(2).zip(qs.windows(2)) {
            prop_assert!(
                pair[0] <= pair[1],
                "quantile({}) = {} > quantile({}) = {}",
                q[0], pair[0], q[1], pair[1]
            );
        }
        prop_assert_eq!(h.quantile(0.0), samples.iter().min().copied());
        prop_assert_eq!(h.quantile(1.0), samples.iter().max().copied());
        prop_assert_eq!(h.quantile(f64::NAN), None);
        prop_assert_eq!(LogHistogram::new().quantile(0.5), None);
    }
}

// ---------------------------------------------------------------------
// 2. Profiler and budget-plumbing neutrality
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The budget-generic scan with no budget set, the profiler, and the
    /// plain path must agree on the answer, the step count, and the
    /// per-tier prune attribution. The scans run under the paper's
    /// planner (it starts at `K = 2`), whose fat internal wedges a
    /// default cut at n = 18 hardly has.
    #[test]
    fn profiler_and_unset_budget_are_neutral_sequential(
        query in series_strategy(18),
        db in db_strategy(18, 10),
        measure_is_dtw in (0u32..2).prop_map(|v| v == 1),
    ) {
        let measure = if measure_is_dtw {
            Measure::Dtw(DtwParams::new(2))
        } else {
            Measure::Euclidean
        };
        let engine = RotationQuery::with_measure(&query, Invariance::Rotation, measure)
            .unwrap()
            .with_k_policy(KPolicy::dynamic());

        let nn = QueryKind::Nearest;
        let mut plain_counter = StepCounter::new();
        let plain = nearest(&engine, &db, &mut plain_counter);

        // Profiler attached (wall-clock reads, phase events).
        let mut profiler = Profiler::new();
        let mut prof_counter = StepCounter::new();
        let profiled =
            scan(&engine, &db, nn, &mut prof_counter, &mut profiler, &mut NoBudget).into_inner();

        // Budget plumbing engaged with nothing to trip: NoBudget and
        // a limitless QueryBudget must both stay bit-identical.
        let mut nb_counter = StepCounter::new();
        let via_nobudget = scan(
            &engine, &db, QueryKind::KNearest(1), &mut nb_counter, &mut NoopObserver,
            &mut NoBudget,
        );
        let mut qb_counter = StepCounter::new();
        let mut limitless = QueryBudget::new(None, None);
        let via_limitless = scan(
            &engine, &db, QueryKind::KNearest(1), &mut qb_counter, &mut NoopObserver,
            &mut limitless,
        );

        prop_assert_eq!(&plain, &profiled, "profiler changed the answer");
        prop_assert_eq!(
            plain_counter.steps(), prof_counter.steps(),
            "profiler changed num_steps"
        );
        for (tag, outcome, counter) in [
            ("NoBudget", via_nobudget, &nb_counter),
            ("limitless QueryBudget", via_limitless, &qb_counter),
        ] {
            prop_assert!(outcome.is_complete(), "{} tripped", tag);
            let hits = outcome.into_inner();
            prop_assert_eq!(hits.len(), 1);
            prop_assert_eq!(&hits, &plain, "{} changed the answer", tag);
            prop_assert_eq!(
                plain_counter.steps(), counter.steps(),
                "{} changed num_steps", tag
            );
        }

        // Prune attribution: the profiler's online tier accounting
        // must agree with QueryTrace's aggregate counters.
        let mut trace = QueryTrace::new(query.len());
        let mut trace_counter = StepCounter::new();
        scan(&engine, &db, nn, &mut trace_counter, &mut trace, &mut NoBudget);
        prop_assert_eq!(trace_counter.steps(), plain_counter.steps());
        for tier in CascadeTier::ALL {
            let cost = &profiler.tier_costs()[tier.index()];
            prop_assert_eq!(
                cost.tested, trace.tier_tested(tier),
                "tested mismatch at {:?}", tier
            );
            prop_assert_eq!(
                cost.pruned, trace.tier_pruned(tier),
                "pruned mismatch at {:?}", tier
            );
        }
    }
}

// ---------------------------------------------------------------------
// 3. Budget exhaustion semantics
// ---------------------------------------------------------------------

fn workload(m: usize, n: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
    let db: Vec<Vec<f64>> = (0..m)
        .map(|k| {
            (0..n)
                .map(|i| ((i + 3 * k) as f64 * 0.21).sin() + 0.1 * k as f64)
                .collect()
        })
        .collect();
    let query = db[m / 2].iter().map(|v| v + 0.05).collect();
    (query, db)
}

#[test]
fn step_budget_trips_with_valid_partial() {
    let (query, db) = workload(40, 32);
    let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();

    let mut full_counter = StepCounter::new();
    let full = nearest(&engine, &db, &mut full_counter);
    let limit = full_counter.steps() / 4;

    let mut counter = StepCounter::new();
    let mut budget = QueryBudget::max_steps(limit);
    let nn = QueryKind::Nearest;
    let outcome = scan(
        &engine,
        &db,
        nn,
        &mut counter,
        &mut NoopObserver,
        &mut budget,
    );
    match outcome {
        BudgetOutcome::Complete(_) => panic!("a quarter-step budget must trip"),
        BudgetOutcome::Exhausted(ex) => {
            assert_eq!(ex.reason, BudgetReason::Steps);
            assert!(
                ex.steps_spent >= limit,
                "spend {} below the inclusive limit {limit}",
                ex.steps_spent
            );
            assert_eq!(ex.steps_spent, counter.steps());
            // The partial result is a genuine neighbor: its reported
            // distance must be the exact rotation-invariant distance.
            for hit in &ex.partial {
                let exact = engine.distance_to(&db[hit.index]).unwrap();
                assert!(
                    (hit.distance - exact).abs() < 1e-9,
                    "partial hit is not a real distance"
                );
            }
        }
    }
    // A roomy budget never trips and returns the full answer.
    let mut counter = StepCounter::new();
    let mut roomy = QueryBudget::max_steps(full_counter.steps() * 2);
    let outcome = scan(
        &engine,
        &db,
        nn,
        &mut counter,
        &mut NoopObserver,
        &mut roomy,
    );
    assert!(outcome.is_complete());
    assert_eq!(outcome.into_inner(), full);
}

#[test]
fn zero_deadline_trips_immediately() {
    let (query, db) = workload(20, 24);
    let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
    let mut counter = StepCounter::new();
    let mut budget = QueryBudget::deadline(Duration::ZERO);
    let nn = QueryKind::Nearest;
    let outcome = scan(
        &engine,
        &db,
        nn,
        &mut counter,
        &mut NoopObserver,
        &mut budget,
    );
    match outcome {
        BudgetOutcome::Complete(_) => panic!("an already-expired deadline must trip"),
        BudgetOutcome::Exhausted(ex) => {
            assert_eq!(ex.reason, BudgetReason::Deadline);
            assert!(
                ex.partial.is_empty(),
                "no item was admitted before the first check"
            );
        }
    }
}

/// A [`BudgetHook`] that delegates to a clock-driven [`QueryBudget`]
/// but advances the [`ManualClock`] past the deadline once the scan
/// reaches `advance_at` steps — so the deadline trip point is a pure
/// function of step progress, never of scheduler timing.
struct AdvanceClockAt<'a> {
    inner: QueryBudget,
    clock: &'a ManualClock,
    advance_at: u64,
    advanced: bool,
}

impl BudgetHook for AdvanceClockAt<'_> {
    fn check(&mut self, steps_now: u64) -> bool {
        if !self.advanced && steps_now >= self.advance_at {
            self.clock.advance(Duration::from_secs(3600));
            self.advanced = true;
        }
        self.inner.check(steps_now)
    }

    fn trip_reason(&self) -> Option<BudgetReason> {
        self.inner.trip_reason()
    }
}

#[test]
fn manual_clock_deadline_trips_deterministically_mid_scan() {
    let (query, db) = workload(80, 32);
    let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
    let mut full_counter = StepCounter::new();
    let full = nearest(&engine, &db, &mut full_counter);
    let nn = QueryKind::Nearest;

    // Expire the deadline at one third of the full scan: the trip must
    // land within one poll window of that point, every run.
    let advance_at = full_counter.steps() / 3;
    let clock = ManualClock::new();
    let mut budget = AdvanceClockAt {
        inner: QueryBudget::with_clock(None, Some(Duration::from_secs(1)), &clock),
        clock: &clock,
        advance_at,
        advanced: false,
    };
    let mut counter = StepCounter::new();
    let outcome = scan(
        &engine,
        &db,
        nn,
        &mut counter,
        &mut NoopObserver,
        &mut budget,
    );
    match outcome {
        BudgetOutcome::Complete(_) => panic!("a mid-scan deadline expiry must trip"),
        BudgetOutcome::Exhausted(ex) => {
            assert_eq!(ex.reason, BudgetReason::Deadline);
            assert!(
                ex.steps_spent >= advance_at,
                "tripped at {} steps, before the clock advanced at {advance_at}",
                ex.steps_spent
            );
            // Amortized polling bounds the trip latency: at most one
            // poll window plus one dismissal boundary past the expiry.
            assert!(
                ex.steps_spent < full_counter.steps(),
                "deadline trip must cut the scan short"
            );
            assert_eq!(ex.steps_spent, counter.steps());
            // The partial is still a genuine prefix answer. At most one
            // candidate's wedge walk ran after the trip, so at most one
            // hit may carry a truncated-walk distance — an exact
            // distance at *some* rotation, an admissible upper bound on
            // the true rotation-invariant minimum. Every other hit is
            // exact.
            let mut truncated = 0;
            for hit in &ex.partial {
                let exact = engine.distance_to(&db[hit.index]).unwrap();
                assert!(
                    hit.distance >= exact - 1e-9,
                    "a partial hit must never understate its distance"
                );
                if (hit.distance - exact).abs() > 1e-9 {
                    truncated += 1;
                }
            }
            assert!(
                truncated <= 1,
                "only the tripped candidate's walk may be truncated, got {truncated}"
            );
        }
    }

    // Re-running with the same advance point reproduces the same trip:
    // the whole point of the injectable clock.
    let clock2 = ManualClock::new();
    let mut budget2 = AdvanceClockAt {
        inner: QueryBudget::with_clock(None, Some(Duration::from_secs(1)), &clock2),
        clock: &clock2,
        advance_at,
        advanced: false,
    };
    let mut counter2 = StepCounter::new();
    let outcome2 = scan(
        &engine,
        &db,
        nn,
        &mut counter2,
        &mut NoopObserver,
        &mut budget2,
    );
    match outcome2 {
        BudgetOutcome::Complete(_) => panic!("second run must trip too"),
        BudgetOutcome::Exhausted(ex) => assert_eq!(
            ex.steps_spent,
            counter.steps(),
            "step-driven deadline trips are exactly reproducible"
        ),
    }

    // An un-advanced clock never trips: the budgeted path returns the
    // full answer with the full step count (amortization must not have
    // changed the scan).
    let idle_clock = ManualClock::new();
    let mut idle = QueryBudget::with_clock(None, Some(Duration::from_secs(1)), &idle_clock);
    let mut idle_counter = StepCounter::new();
    let outcome = scan(
        &engine,
        &db,
        nn,
        &mut idle_counter,
        &mut NoopObserver,
        &mut idle,
    );
    assert!(outcome.is_complete());
    assert_eq!(outcome.into_inner(), full);
    assert_eq!(
        idle_counter.steps(),
        full_counter.steps(),
        "deadline polling must not change the scanned step count"
    );
    // And the amortization is real: the clock was read roughly once per
    // poll window, not once per dismissal boundary.
    let expected_polls = full_counter.steps() / DEADLINE_POLL_STEPS + 2;
    assert!(
        idle_clock.reads() <= expected_polls,
        "{} clock reads over {} steps breaks the {}-step amortization",
        idle_clock.reads(),
        full_counter.steps(),
        DEADLINE_POLL_STEPS
    );
}

#[test]
fn range_budget_returns_prefix_hits() {
    let (query, db) = workload(40, 32);
    let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
    let radius = engine.distance_to(&db[0]).unwrap() * 2.0 + 1.0;

    let kind = QueryKind::Range(radius);
    let mut full_counter = StepCounter::new();
    let all = engine.range(&db, radius).unwrap();
    scan(
        &engine,
        &db,
        kind,
        &mut full_counter,
        &mut NoopObserver,
        &mut NoBudget,
    );
    assert!(!all.is_empty());

    let mut counter = StepCounter::new();
    let mut budget = QueryBudget::max_steps(full_counter.steps() / 3);
    let outcome = scan(
        &engine,
        &db,
        kind,
        &mut counter,
        &mut NoopObserver,
        &mut budget,
    );
    match outcome {
        BudgetOutcome::Complete(_) => panic!("a third-step budget must trip"),
        BudgetOutcome::Exhausted(ex) => {
            assert_eq!(ex.reason, BudgetReason::Steps);
            assert!(ex.partial.len() < all.len());
            // Dismissal-boundary checks scan items in database order,
            // so the partial is a prefix of the full hit list.
            for (got, want) in ex.partial.iter().zip(&all) {
                assert_eq!(got, want, "partial hits must be a prefix of the full scan");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Profiler tree shape on a real query
// ---------------------------------------------------------------------

#[test]
fn profiler_builds_the_expected_span_tree() {
    let (query, db) = workload(30, 24);
    let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
    let mut profiler = Profiler::new();
    let mut counter = StepCounter::new();
    let nn = QueryKind::Nearest;
    scan(&engine, &db, nn, &mut counter, &mut profiler, &mut NoBudget);

    let tree = profiler.tree();
    let root = tree.root("query").expect("a query span");
    assert_eq!(root.count(), 1);
    assert_eq!(
        root.total_steps(),
        counter.steps(),
        "the query span covers the whole scan"
    );
    let merge = root.child("wedge_merge").expect("a wedge_merge span");
    assert!(merge.count() >= 1);
    assert!(merge.total_steps() <= root.total_steps());

    assert_eq!(profiler.query_latency_ns().count(), 1);
    assert_eq!(profiler.query_steps().count(), 1);

    let chrome = tree.to_chrome_trace();
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("\"query\""));
    let folded = tree.to_folded();
    assert!(folded.contains("query;wedge_merge"));
}
