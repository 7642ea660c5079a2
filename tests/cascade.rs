//! The wedge bound's two contracts, tested end-to-end (DESIGN.md §12):
//! every bound is **admissible** against the exact rotation-invariant
//! distance, and — because every dismissal is strict — the reordered
//! scan is **bit-identical** to the legacy natural-order scan for every
//! invariance mode, K policy and thread count.

use proptest::prelude::*;
use rotind::distance::dtw::{dtw, DtwParams};
use rotind::distance::euclidean::euclidean;
use rotind::distance::lcss::LcssParams;
use rotind::distance::measure::Measure;
use rotind::distance::rotation::search_database;
use rotind::envelope::lb_keogh::{
    extend_abandon_order, extend_abandon_prefix, lb_improved, lb_keogh,
    lb_keogh_reordered_early_abandon_at, AbandonScratch,
};
use rotind::envelope::Wedge;
use rotind::index::cascade::ABANDON_PREFIX;
use rotind::index::engine::{Invariance, KPolicy, RotationQuery, DEFAULT_K};
use rotind::index::reduced::{Paa, PaaEnvelope};
use rotind::index::{CascadeConfig, QueryKind};
use rotind::obs::{CascadeTier, NoBudget, NoopObserver, QueryTrace};
use rotind::ts::rotate::{rotated, RotationMatrix};
use rotind::ts::StepCounter;

fn series_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-5.0f64..5.0, n)
}

fn db_strategy(n: usize, m: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(series_strategy(n), 1..=m)
}

fn rows_strategy(n: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::btree_set(0usize..n, 1..=n).prop_map(|s| s.into_iter().collect())
}

fn measures() -> Vec<Measure> {
    vec![
        Measure::Euclidean,
        Measure::Dtw(DtwParams::new(2)),
        Measure::Lcss(LcssParams::new(0.5, 2)),
    ]
}

/// Every configuration the engine can run under: the natural-order
/// legacy scan and the reordered default.
fn configs() -> [(&'static str, CascadeConfig); 2] {
    [
        ("legacy", CascadeConfig::legacy()),
        ("all", CascadeConfig::all()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// LB_Improved (a library bound, no longer a cascade tier) dominates
    /// tier 3, its first pass, and still lower-bounds the banded DTW
    /// distance to every wedge member.
    #[test]
    fn lb_improved_dominates_lb_keogh_and_stays_admissible(
        base in series_strategy(14),
        q in series_strategy(14),
        rows in rows_strategy(14),
        band in 1usize..5,
    ) {
        let matrix = RotationMatrix::full(&base).unwrap();
        let plain = Wedge::from_rows(&matrix, &rows);
        let lb_wedge = plain.widened(band);
        let first = lb_keogh(&q, &lb_wedge, &mut StepCounter::new());
        let improved = lb_improved(&q, &plain, &lb_wedge, band, &mut StepCounter::new());
        prop_assert!(improved >= first - 1e-9, "{} < {}", improved, first);
        for &row in &rows {
            let d = dtw(
                &q,
                &matrix.row(row).to_vec(),
                DtwParams::new(band),
                &mut StepCounter::new(),
            );
            prop_assert!(improved <= d + 1e-9, "row {}: {} > {}", row, improved, d);
        }
    }

    /// The PAA projection of a wedge envelope, the disk index's bound
    /// (Figure 24), lower-bounds ED through the plain wedge and banded
    /// DTW through the widened wedge, for every dimensionality.
    #[test]
    fn reduced_space_tier_is_admissible(
        base in series_strategy(14),
        q in series_strategy(14),
        rows in rows_strategy(14),
        band in 0usize..5,
        dims in 1usize..17,
    ) {
        let matrix = RotationMatrix::full(&base).unwrap();
        let plain = Wedge::from_rows(&matrix, &rows);
        let widened = plain.widened(band);
        let paa = Paa::of(&q, dims);
        let lb_ed = PaaEnvelope::of_wedge(&plain, dims).min_dist(&paa, &mut StepCounter::new());
        let lb_dtw =
            PaaEnvelope::of_wedge(&widened, dims).min_dist(&paa, &mut StepCounter::new());
        for &row in &rows {
            let series = matrix.row(row).to_vec();
            let ed = euclidean(&q, &series);
            prop_assert!(lb_ed <= ed + 1e-9, "row {}: {} > {}", row, lb_ed, ed);
            let d = dtw(&q, &series, DtwParams::new(band), &mut StepCounter::new());
            prop_assert!(lb_dtw <= d + 1e-9, "row {}: {} > {}", row, lb_dtw, d);
        }
    }

    /// LB_Keogh reordering is a pure permutation of the accumulation: with
    /// an infinite threshold the reordered scan never abandons and
    /// returns the same bound as natural-order LB_Keogh — under the full
    /// order, and under the prefix order the cascade stores, at a length
    /// where that order is truncated.
    #[test]
    fn reordered_keogh_equals_natural_order(
        base in series_strategy(14),
        q in series_strategy(14),
        rows in rows_strategy(14),
        long_base in series_strategy(48),
        long_q in series_strategy(48),
        long_rows in rows_strategy(48),
        band in 0usize..5,
    ) {
        let mut scratch = AbandonScratch::default();
        for (base, q, rows) in [(&base, &q, &rows), (&long_base, &long_q, &long_rows)] {
            let matrix = RotationMatrix::full(base).unwrap();
            let wedge = Wedge::from_rows(&matrix, rows).widened(band);
            let (mut full, mut prefix) = (Vec::new(), Vec::new());
            extend_abandon_order(wedge.upper(), wedge.lower(), &mut full);
            extend_abandon_prefix(
                wedge.upper(),
                wedge.lower(),
                ABANDON_PREFIX,
                &mut scratch,
                &mut prefix,
            );
            let natural = lb_keogh(q, &wedge, &mut StepCounter::new());
            for order in [&full, &prefix] {
                let reordered = lb_keogh_reordered_early_abandon_at(
                    q,
                    &wedge,
                    order,
                    f64::INFINITY,
                    &mut StepCounter::new(),
                )
                .expect("infinite threshold never abandons");
                prop_assert!((natural - reordered).abs() < 1e-9, "{} != {}", natural, reordered);
            }
        }
    }

    /// The headline guarantee: both configurations — the reordered
    /// default and the legacy scan — return the **same** neighbour
    /// (index, distance and reported rotation, compared exactly) for
    /// every measure and invariance mode, at the default `K` and under
    /// the paper's planner, both sequentially and across thread counts;
    /// and that answer matches the brute-force oracle.
    #[test]
    fn every_cascade_config_is_bit_identical(
        query in series_strategy(16),
        db in db_strategy(16, 8),
        measure_idx in 0usize..3,
        invariance_idx in 0usize..4,
        max_shift in 0usize..8,
    ) {
        let measure = measures()[measure_idx];
        let invariance = match invariance_idx {
            0 => Invariance::Rotation,
            1 => Invariance::RotationMirror,
            2 => Invariance::RotationLimited { max_shift },
            _ => Invariance::RotationLimitedMirror { max_shift },
        };
        let legacy = RotationQuery::with_measure(&query, invariance, measure)
            .unwrap()
            .with_cascade(CascadeConfig::legacy())
            .nearest(&db)
            .unwrap();

        // `max_shift < 8 < n`, so the limited windows never saturate.
        let matrix = match invariance {
            Invariance::Rotation => RotationMatrix::full(&query).unwrap(),
            Invariance::RotationMirror => RotationMatrix::with_mirror(&query).unwrap(),
            Invariance::RotationLimited { max_shift } => {
                RotationMatrix::limited(&query, max_shift).unwrap()
            }
            Invariance::RotationLimitedMirror { max_shift } => {
                RotationMatrix::limited_with_mirror(&query, max_shift).unwrap()
            }
        };
        let oracle = search_database(&matrix, &db, measure, &mut StepCounter::new()).unwrap();
        prop_assert_eq!(legacy.index, oracle.index);
        prop_assert!((legacy.distance - oracle.distance).abs() < 1e-9);

        for policy in [KPolicy::Fixed(DEFAULT_K), KPolicy::dynamic()] {
            for (name, config) in configs() {
                let engine = RotationQuery::with_measure(&query, invariance, measure)
                    .unwrap()
                    .with_k_policy(policy)
                    .with_cascade(config);
                let hit = engine.nearest(&db).unwrap();
                prop_assert_eq!(
                    &hit, &legacy, "config {} diverged sequentially under {:?}", name, policy
                );
                for threads in [1usize, 4] {
                    let (outcome, _) = engine
                        .search_parallel(
                            &db, QueryKind::Nearest, threads, &mut StepCounter::new(),
                            &mut NoopObserver, None,
                        )
                        .unwrap();
                    prop_assert_eq!(
                        outcome.into_inner(), vec![legacy],
                        "config {} diverged at {} threads under {:?}", name, threads, policy
                    );
                }
            }
        }
    }
}

/// A small structured workload where pruning actually happens: shifted
/// sinusoids plus a query that is a rotation of one of them.
fn sine_db(m: usize, n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let db: Vec<Vec<f64>> = (0..m)
        .map(|k| {
            (0..n)
                .map(|i| ((i + 3 * k) as f64 * 0.3).sin() + 0.05 * (k as f64))
                .collect()
        })
        .collect();
    let query = rotated(&db[m / 2], n / 3);
    (db, query)
}

/// A nearest-neighbour search recording into `trace`.
fn nearest_traced(engine: &RotationQuery, db: &[Vec<f64>], trace: &mut QueryTrace) {
    let mut counter = StepCounter::new();
    engine
        .search(
            db,
            QueryKind::Nearest,
            &mut counter,
            trace,
            &mut NoBudget,
            None,
        )
        .unwrap();
}

/// Every pruned wedge is attributed to exactly one cascade tier: under
/// ED and DTW the per-tier prune counts sum to the per-level prune
/// counts, for both configurations.
#[test]
fn tier_attribution_accounts_for_every_pruned_wedge() {
    let (db, query) = sine_db(32, 64);
    let measures: [Measure; 2] = [Measure::Euclidean, Measure::Dtw(DtwParams::new(5))];
    for measure in measures {
        for (name, config) in configs() {
            let engine = RotationQuery::with_measure(&query, Invariance::Rotation, measure)
                .unwrap()
                .with_cascade(config);
            let mut trace = QueryTrace::new(query.len());
            nearest_traced(&engine, &db, &mut trace);
            let by_level: u64 = (0..trace.levels()).map(|l| trace.pruned(l)).sum();
            assert_eq!(
                trace.tier_pruned_total(),
                by_level,
                "{measure:?}/{name}: tier attribution does not cover every pruned wedge"
            );
            assert!(
                by_level > 0,
                "{measure:?}/{name}: workload produced no prunes — test is vacuous"
            );
        }
    }
}

/// LCSS keeps its own single envelope bound outside the cascade and
/// fires no tier events at all.
#[test]
fn lcss_stays_outside_the_cascade() {
    let (db, query) = sine_db(16, 48);
    let engine = RotationQuery::with_measure(
        &query,
        Invariance::Rotation,
        Measure::Lcss(LcssParams::new(0.5, 2)),
    )
    .unwrap()
    .with_cascade(CascadeConfig::all());
    let mut trace = QueryTrace::new(query.len());
    nearest_traced(&engine, &db, &mut trace);
    for tier in CascadeTier::ALL {
        assert_eq!(trace.tier_tested(tier), 0, "{tier:?} fired under LCSS");
    }
}

/// `reorder` applies under Euclidean distance only: under DTW, at band 0
/// and above, the default and the natural-order legacy configuration
/// give the same answers for the same number of steps.
#[test]
fn reorder_has_no_effect_under_dtw() {
    let (db, query) = sine_db(32, 64);
    for band in [0usize, 5] {
        let measure = Measure::Dtw(DtwParams::new(band));
        let run = |config: CascadeConfig| {
            let engine = RotationQuery::with_measure(&query, Invariance::Rotation, measure)
                .unwrap()
                .with_cascade(config);
            let mut counter = StepCounter::new();
            let hits = engine
                .search(
                    &db,
                    QueryKind::KNearest(3),
                    &mut counter,
                    &mut NoopObserver,
                    &mut NoBudget,
                    None,
                )
                .unwrap()
                .into_inner();
            (hits, counter.steps())
        };
        let (with, with_steps) = run(CascadeConfig::all());
        let (without, without_steps) = run(CascadeConfig::legacy());
        assert_eq!(with, without, "band {band}: answers differ");
        assert_eq!(with_steps, without_steps, "band {band}: steps differ");
    }
}
