//! The parallel scan's headline guarantee, tested end-to-end: chunked
//! multi-threaded search with a shared best-so-far returns results
//! **bit-identical** to the sequential scan and the brute-force oracle
//! — same index, same distance bits, same rotation, same tie-break —
//! for every thread count, and its merged telemetry equals the sum of
//! the per-thread parts.

use proptest::prelude::*;
use rotind::distance::measure::Measure;
use rotind::distance::rotation::search_database;
use rotind::index::engine::{Invariance, Neighbor, RotationQuery};
use rotind::index::QueryKind;
use rotind::obs::{NoopObserver, QueryTrace};
use rotind::ts::rotate::{rotated, RotationMatrix};
use rotind::ts::StepCounter;

fn series_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-5.0f64..5.0, n)
}

fn db_strategy(n: usize, m: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(series_strategy(n), 1..=m)
}

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// An unbudgeted parallel scan's answer.
fn parallel(
    engine: &RotationQuery,
    db: &[Vec<f64>],
    kind: QueryKind,
    threads: usize,
) -> Vec<Neighbor> {
    let mut counter = StepCounter::new();
    let (outcome, _) = engine
        .search_parallel(db, kind, threads, &mut counter, &mut NoopObserver, None)
        .unwrap();
    outcome.into_inner()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    // ISSUE 3 acceptance: >= 100 randomized databases, identical
    // `Neighbor` results at 2, 4 and 8 threads vs the sequential scan
    // and the brute-force oracle.
    #[test]
    fn nearest_parallel_is_bit_identical_to_sequential_and_oracle(
        query in series_strategy(16),
        db in db_strategy(16, 20),
    ) {
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let sequential = engine.nearest(&db).unwrap();
        let matrix = RotationMatrix::full(&query).unwrap();
        let oracle =
            search_database(&matrix, &db, Measure::Euclidean, &mut StepCounter::new()).unwrap();
        prop_assert_eq!(sequential.index, oracle.index);
        prop_assert!((sequential.distance - oracle.distance).abs() < 1e-9);
        for threads in THREAD_COUNTS {
            let hits = parallel(&engine, &db, QueryKind::Nearest, threads);
            prop_assert_eq!(hits.len(), 1);
            let hit = hits[0];
            prop_assert_eq!(hit, sequential);
            prop_assert_eq!(
                hit.distance.to_bits(),
                sequential.distance.to_bits(),
                "distance must be bit-identical at {} threads",
                threads
            );
        }
    }

    #[test]
    fn nearest_parallel_preserves_lowest_index_tie_break(
        query in series_strategy(12),
        db in db_strategy(12, 16),
        lo in 0usize..16,
        hi in 0usize..16,
        shift in 0usize..12,
    ) {
        // Plant the same rotation of the query at two positions: exact
        // ties across chunks must resolve to the lower index, exactly
        // as the sequential scan does.
        let mut db = db;
        let planted = rotated(&query, shift);
        let lo = lo % db.len();
        let hi = hi % db.len();
        db[lo] = planted.clone();
        db[hi] = planted;
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let sequential = engine.nearest(&db).unwrap();
        prop_assert_eq!(sequential.index, lo.min(hi));
        for threads in THREAD_COUNTS {
            prop_assert_eq!(parallel(&engine, &db, QueryKind::Nearest, threads), vec![sequential]);
        }
    }

    #[test]
    fn merged_telemetry_equals_per_thread_sum(
        query in series_strategy(16),
        db in db_strategy(16, 20),
    ) {
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let sequential = engine.nearest(&db).unwrap();
        for threads in THREAD_COUNTS {
            let mut counter = StepCounter::new();
            let mut trace = QueryTrace::new(16);
            let (outcome, report) = engine
                .search_parallel(&db, QueryKind::Nearest, threads, &mut counter, &mut trace, None)
                .unwrap();
            prop_assert_eq!(outcome.into_inner(), vec![sequential]);
            let sum: u64 = report.per_thread_steps.iter().sum();
            prop_assert_eq!(counter.steps(), sum);
            prop_assert_eq!(report.chunk_lens.iter().sum::<usize>(), db.len());
            prop_assert!(trace.leaf_distances() >= 1, "the winner's leaf was observed");
        }
    }

    #[test]
    fn range_parallel_matches_sequential(
        query in series_strategy(16),
        db in db_strategy(16, 20),
        scale in 0.5f64..3.0,
    ) {
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        // A radius around the nearest distance keeps both empty-ish and
        // full-ish result sets in play across cases.
        let radius = engine.nearest(&db).unwrap().distance * scale;
        prop_assert!(radius.is_finite());
        let sequential = engine.range(&db, radius).unwrap();
        for threads in THREAD_COUNTS {
            let hits = parallel(&engine, &db, QueryKind::Range(radius), threads);
            prop_assert_eq!(&hits, &sequential, "threads = {}", threads);
        }
    }
}
