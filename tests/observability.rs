//! Observer neutrality, end-to-end: attaching a recording
//! [`QueryTrace`] to a search must change **nothing** about it — not
//! the answer, and not a single `num_steps` tick. The observer is a
//! read-only tap; these property tests pin that down across measures,
//! query modes and database shapes.

use proptest::prelude::*;
use rotind::distance::{DtwParams, LcssParams, Measure};
use rotind::index::engine::{Invariance, Neighbor, RotationQuery};
use rotind::index::QueryKind;
use rotind::obs::NoBudget;
use rotind::prelude::{NoopObserver, QueryTrace, SearchObserver};
use rotind::ts::StepCounter;

fn series_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-5.0f64..5.0, n)
}

fn db_strategy(n: usize, m: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(series_strategy(n), 1..=m)
}

/// An unbudgeted sequential scan reporting to `observer`.
fn scan<O: SearchObserver>(
    engine: &RotationQuery,
    db: &[Vec<f64>],
    kind: QueryKind,
    counter: &mut StepCounter,
    observer: &mut O,
) -> Vec<Neighbor> {
    engine
        .search(db, kind, counter, observer, &mut NoBudget, None)
        .unwrap()
        .into_inner()
}

fn measures() -> Vec<Measure> {
    vec![
        Measure::Euclidean,
        Measure::Dtw(DtwParams::new(2)),
        Measure::Lcss(LcssParams::new(0.5, 2)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn recording_observer_is_neutral_for_nearest(
        query in series_strategy(20),
        db in db_strategy(20, 12),
        measure_idx in 0usize..3,
    ) {
        let measure = measures()[measure_idx];
        let engine =
            RotationQuery::with_measure(&query, Invariance::Rotation, measure).unwrap();

        let mut plain_counter = StepCounter::new();
        let kind = QueryKind::Nearest;
        let plain = scan(&engine, &db, kind, &mut plain_counter, &mut NoopObserver);

        let mut trace = QueryTrace::new(query.len());
        let mut traced_counter = StepCounter::new();
        let traced = scan(&engine, &db, kind, &mut traced_counter, &mut trace);

        prop_assert_eq!(plain.len(), 1);
        prop_assert_eq!(plain[0].index, traced[0].index);
        prop_assert_eq!(plain[0].rotation, traced[0].rotation);
        prop_assert!((plain[0].distance - traced[0].distance).abs() < 1e-12);
        prop_assert_eq!(
            plain_counter.steps(),
            traced_counter.steps(),
            "observer changed num_steps"
        );
        // The trace saw the search: every leaf that was admitted paid a
        // full distance, and the engine tested at least the cut wedges.
        prop_assert!(trace.wedges_tested() + trace.leaf_distances() > 0);
    }

    #[test]
    fn recording_observer_is_neutral_for_k_nearest(
        query in series_strategy(16),
        db in db_strategy(16, 10),
        k in 1usize..4,
    ) {
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();

        let mut plain_counter = StepCounter::new();
        let kind = QueryKind::KNearest(k);
        let plain = scan(&engine, &db, kind, &mut plain_counter, &mut NoopObserver);

        let mut trace = QueryTrace::new(query.len());
        let mut traced_counter = StepCounter::new();
        let traced = scan(&engine, &db, kind, &mut traced_counter, &mut trace);

        prop_assert_eq!(plain.len(), traced.len());
        for (a, b) in plain.iter().zip(&traced) {
            prop_assert_eq!(a.index, b.index);
            prop_assert!((a.distance - b.distance).abs() < 1e-12);
        }
        prop_assert_eq!(plain_counter.steps(), traced_counter.steps());
    }

    #[test]
    fn recording_observer_is_neutral_for_range(
        query in series_strategy(16),
        db in db_strategy(16, 10),
        radius in 0.5f64..30.0,
    ) {
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();

        let mut plain_counter = StepCounter::new();
        let kind = QueryKind::Range(radius);
        let plain = scan(&engine, &db, kind, &mut plain_counter, &mut NoopObserver);

        let mut trace = QueryTrace::new(query.len());
        let mut traced_counter = StepCounter::new();
        let traced = scan(&engine, &db, kind, &mut traced_counter, &mut trace);

        prop_assert_eq!(plain.len(), traced.len());
        for (a, b) in plain.iter().zip(&traced) {
            prop_assert_eq!(a.index, b.index);
            prop_assert!((a.distance - b.distance).abs() < 1e-12);
        }
        prop_assert_eq!(plain_counter.steps(), traced_counter.steps());
    }
}
