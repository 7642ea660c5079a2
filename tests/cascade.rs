//! The wedge bound's two contracts, tested end-to-end (DESIGN.md §12):
//! every bound is **admissible** against the exact rotation-invariant
//! distance, and — because every dismissal is strict — the scan returns
//! the **same** answer as the brute-force oracle for every invariance
//! mode and K policy.

use proptest::prelude::*;
use rotind::distance::dtw::{dtw, DtwParams};
use rotind::distance::euclidean::euclidean;
use rotind::distance::lcss::LcssParams;
use rotind::distance::measure::Measure;
use rotind::distance::rotation::search_database;
use rotind::envelope::Wedge;
use rotind::index::engine::{Invariance, KPolicy, RotationQuery, DEFAULT_K};
use rotind::index::reduced::{Paa, PaaEnvelope};
use rotind::index::QueryKind;
use rotind::obs::{CascadeTier, NoBudget, QueryTrace};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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

    /// The headline guarantee: the engine returns the brute-force
    /// oracle's neighbour for every measure and invariance mode, and the
    /// **same** neighbour (index, distance and reported rotation,
    /// compared exactly) at the default `K` and under the paper's
    /// planner.
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
        let reference = RotationQuery::with_measure(&query, invariance, measure)
            .unwrap()
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
        prop_assert_eq!(reference.index, oracle.index);
        prop_assert!((reference.distance - oracle.distance).abs() < 1e-9);

        for policy in [KPolicy::Fixed(DEFAULT_K), KPolicy::dynamic()] {
            let engine = RotationQuery::with_measure(&query, invariance, measure)
                .unwrap()
                .with_k_policy(policy);
            let hit = engine.nearest(&db).unwrap();
            prop_assert_eq!(&hit, &reference, "diverged under {:?}", policy);
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
/// counts.
#[test]
fn tier_attribution_accounts_for_every_pruned_wedge() {
    let (db, query) = sine_db(32, 64);
    let measures: [Measure; 2] = [Measure::Euclidean, Measure::Dtw(DtwParams::new(5))];
    for measure in measures {
        let engine = RotationQuery::with_measure(&query, Invariance::Rotation, measure).unwrap();
        let mut trace = QueryTrace::new(query.len());
        nearest_traced(&engine, &db, &mut trace);
        let by_level: u64 = (0..trace.levels()).map(|l| trace.pruned(l)).sum();
        assert_eq!(
            trace.tier_pruned_total(),
            by_level,
            "{measure:?}: tier attribution does not cover every pruned wedge"
        );
        assert!(
            by_level > 0,
            "{measure:?}: workload produced no prunes — test is vacuous"
        );
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
    .unwrap();
    let mut trace = QueryTrace::new(query.len());
    nearest_traced(&engine, &db, &mut trace);
    for tier in CascadeTier::ALL {
        assert_eq!(trace.tier_tested(tier), 0, "{tier:?} fired under LCSS");
    }
}
