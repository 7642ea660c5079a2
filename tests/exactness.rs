//! The library's headline guarantee, tested end-to-end: the wedge
//! engine returns **exactly** the brute-force answers — "we prove that
//! we will always return the same answer set as the slower methods" —
//! for every measure, invariance mode and wedge-set policy.

use proptest::prelude::*;
use rotind::distance::rotation::{search_database, test_all_rotations};
use rotind::distance::{DtwParams, LcssParams, Measure};
use rotind::index::engine::{Invariance, KPolicy, Neighbor, RotationQuery};
use rotind::index::snapshot::{IndexSnapshot, QueryKind, QuerySpec};
use rotind::index::BatchPaaCache;
use rotind::obs::{NoBudget, NoopObserver, ProfilePhase, SearchObserver};
use rotind::ts::rotate::{mirror, rotated, Rotation, RotationMatrix};
use rotind::ts::StepCounter;

fn series_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-5.0f64..5.0, n)
}

fn db_strategy(n: usize, m: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(series_strategy(n), 1..=m)
}

fn measures() -> Vec<Measure> {
    vec![
        Measure::Euclidean,
        Measure::Dtw(DtwParams::new(2)),
        Measure::Lcss(LcssParams::new(0.5, 2)),
    ]
}

fn invariances(max_shift: usize) -> [Invariance; 4] {
    [
        Invariance::Rotation,
        Invariance::RotationMirror,
        Invariance::RotationLimited { max_shift },
        Invariance::RotationLimitedMirror { max_shift },
    ]
}

/// `db` with planted ties: two exact rotations of the query (zero
/// distance), a rotated mirror image (zero under the mirror
/// invariances), and duplicates of two items (ties at a positive
/// distance), spread through the database so ties cross index order.
fn planted(query: &[f64], mut db: Vec<Vec<f64>>, s1: usize, s2: usize) -> Vec<Vec<f64>> {
    let n = query.len();
    db.insert(s1 % (db.len() + 1), rotated(query, s2 % n));
    db.push(rotated(&mirror(query), s1 % n));
    db.insert(s2 % db.len(), db[0].clone());
    db.push(rotated(query, (s1 + s2) % n));
    let last = db.len() - 1;
    db.insert(s1 % db.len(), db[last / 2].clone());
    db
}

/// Every hit as (index, distance bits, rotation): equal only when the
/// answers are bit-identical.
fn exact(hits: &[Neighbor]) -> Vec<(usize, u64, Rotation)> {
    hits.iter()
        .map(|h| (h.index, h.distance.to_bits(), h.rotation))
        .collect()
}

/// An unbudgeted [`RotationQuery::search`], through `cache` if given.
fn search(
    engine: &RotationQuery,
    db: &[Vec<f64>],
    kind: QueryKind,
    observer: &mut impl SearchObserver,
    cache: Option<&mut BatchPaaCache>,
) -> Vec<Neighbor> {
    engine
        .search(
            db,
            kind,
            &mut StepCounter::new(),
            observer,
            &mut NoBudget,
            cache,
        )
        .unwrap()
        .into_inner()
}

/// Counts the H-Merge walks a scan opens — one per visited item.
#[derive(Default)]
struct WedgeMerges(usize);

impl SearchObserver for WedgeMerges {
    fn on_phase_start(&mut self, phase: ProfilePhase, _steps: u64) {
        if phase == ProfilePhase::WedgeMerge {
            self.0 += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn nearest_equals_brute_force(
        query in series_strategy(20),
        db in db_strategy(20, 12),
        measure_idx in 0usize..3,
    ) {
        let measure = measures()[measure_idx];
        let engine = RotationQuery::with_measure(&query, Invariance::Rotation, measure).unwrap();
        let hit = engine.nearest(&db).unwrap();
        let matrix = RotationMatrix::full(&query).unwrap();
        let oracle = search_database(&matrix, &db, measure, &mut StepCounter::new()).unwrap();
        prop_assert_eq!(hit.index, oracle.index);
        prop_assert!((hit.distance - oracle.distance).abs() < 1e-9);
    }

    #[test]
    fn every_k_policy_is_exact(
        query in series_strategy(16),
        db in db_strategy(16, 8),
        k in 1usize..40,
    ) {
        let fixed = RotationQuery::new(&query, Invariance::Rotation)
            .unwrap()
            .with_k_policy(KPolicy::Fixed(k));
        let dynamic = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let a = fixed.nearest(&db).unwrap();
        let b = dynamic.nearest(&db).unwrap();
        prop_assert_eq!(a.index, b.index);
        prop_assert!((a.distance - b.distance).abs() < 1e-9);
    }

    #[test]
    fn mirror_invariance_equals_explicit_mirror_scan(
        query in series_strategy(14),
        db in db_strategy(14, 8),
    ) {
        let engine = RotationQuery::new(&query, Invariance::RotationMirror).unwrap();
        let hit = engine.nearest(&db).unwrap();
        let matrix = RotationMatrix::with_mirror(&query).unwrap();
        let oracle =
            search_database(&matrix, &db, Measure::Euclidean, &mut StepCounter::new()).unwrap();
        prop_assert_eq!(hit.index, oracle.index);
        prop_assert!((hit.distance - oracle.distance).abs() < 1e-9);
    }

    #[test]
    fn rotation_limited_equals_limited_scan(
        query in series_strategy(18),
        db in db_strategy(18, 8),
        max_shift in 0usize..9,
    ) {
        let engine =
            RotationQuery::new(&query, Invariance::RotationLimited { max_shift }).unwrap();
        let hit = engine.nearest(&db).unwrap();
        let matrix = RotationMatrix::limited(&query, max_shift).unwrap();
        let oracle =
            search_database(&matrix, &db, Measure::Euclidean, &mut StepCounter::new()).unwrap();
        prop_assert_eq!(hit.index, oracle.index);
        prop_assert!((hit.distance - oracle.distance).abs() < 1e-9);
    }

    #[test]
    fn knn_equals_sorted_oracle(
        query in series_strategy(16),
        db in db_strategy(16, 10),
        k in 1usize..6,
    ) {
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let hits = engine.k_nearest(&db, k).unwrap();
        let matrix = RotationMatrix::full(&query).unwrap();
        let mut oracle: Vec<(usize, f64)> = db
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let d = test_all_rotations(
                    item,
                    &matrix,
                    f64::INFINITY,
                    Measure::Euclidean,
                    &mut StepCounter::new(),
                )
                .unwrap()
                .distance;
                (i, d)
            })
            .collect();
        oracle.sort_by(|a, b| a.1.total_cmp(&b.1));
        prop_assert_eq!(hits.len(), k.min(db.len()));
        for (hit, (_, od)) in hits.iter().zip(&oracle) {
            // Indices can differ under exact ties; distances cannot.
            prop_assert!((hit.distance - od).abs() < 1e-9);
        }
    }

    #[test]
    fn range_equals_filtered_oracle(
        query in series_strategy(14),
        db in db_strategy(14, 10),
        radius in 0.0f64..20.0,
    ) {
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let hits = engine.range(&db, radius).unwrap();
        let matrix = RotationMatrix::full(&query).unwrap();
        let expected: Vec<usize> = db
            .iter()
            .enumerate()
            .filter_map(|(i, item)| {
                let d = test_all_rotations(
                    item,
                    &matrix,
                    f64::INFINITY,
                    Measure::Euclidean,
                    &mut StepCounter::new(),
                )
                .unwrap()
                .distance;
                (d <= radius).then_some(i)
            })
            .collect();
        let mut got: Vec<usize> = hits.iter().map(|h| h.index).collect();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn reported_rotation_reproduces_the_distance(
        query in series_strategy(16),
        db in db_strategy(16, 6),
    ) {
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let hit = engine.nearest(&db).unwrap();
        let rotated = rotind::ts::rotate::rotated(&query, hit.rotation.shift);
        let direct: f64 = db[hit.index]
            .iter()
            .zip(&rotated)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        prop_assert!((direct - hit.distance).abs() < 1e-9);
    }

    /// The best-first Euclidean order (a cache's magnitude table) and
    /// the snapshot path return exactly the uncached database-order
    /// answers — index, distance bits and rotation — for every
    /// invariance and query kind, ties at zero and at positive distance
    /// included.
    ///
    /// With `integral` set, every sample is rounded to an integer, so
    /// sums of squares are exact and distinct items tie exactly at
    /// positive distances while their bounds differ — the case where
    /// best-first order meets a tie at a higher index first.
    #[test]
    fn bound_order_is_bit_identical_to_database_order(
        query in series_strategy(16),
        db in db_strategy(16, 9),
        s1 in 0usize..64,
        s2 in 0usize..64,
        max_shift in 0usize..6,
        radius in 0.0f64..12.0,
        integral in 0usize..2,
    ) {
        let round = |xs: &[f64]| -> Vec<f64> {
            xs.iter().map(|x| if integral == 1 { x.round() } else { *x }).collect()
        };
        let query = round(&query);
        let db: Vec<Vec<f64>> = db.iter().map(|item| round(item)).collect();
        let db = planted(&query, db, s1, s2);
        let m = db.len();
        let snapshot = IndexSnapshot::new(db.clone()).unwrap();
        for invariance in invariances(max_shift) {
            let engine = RotationQuery::new(&query, invariance).unwrap();
            let dims = engine.cascade().config().dims;
            let third = search(&engine, &db, QueryKind::KNearest(3), &mut NoopObserver, None);
            let tie_radius = third.last().map_or(radius, |h| h.distance);
            for kind in [
                QueryKind::Nearest,
                QueryKind::KNearest(1),
                QueryKind::KNearest(3),
                QueryKind::KNearest(m + 2),
                QueryKind::Range(radius),
                QueryKind::Range(tie_radius),
            ] {
                let plain = search(&engine, &db, kind, &mut NoopObserver, None);
                let mut cache = BatchPaaCache::new(m, dims);
                let cached = search(&engine, &db, kind, &mut NoopObserver, Some(&mut cache));
                prop_assert_eq!(exact(&cached), exact(&plain), "{:?} {:?}", invariance, kind);
                let spec = QuerySpec {
                    series: query.clone(),
                    invariance,
                    measure: Measure::Euclidean,
                    kind,
                };
                let executed = snapshot
                    .execute(
                        &spec,
                        &mut StepCounter::new(),
                        &mut NoopObserver,
                        &mut NoBudget,
                        Some(&mut snapshot.paa_cache()),
                    )
                    .unwrap()
                    .into_inner();
                prop_assert_eq!(exact(&executed), exact(&plain), "{:?} {:?}", invariance, kind);
            }
        }
    }

    /// DTW and LCSS ignore the magnitude table: through a cache they
    /// scan in database order and return exactly the uncached answers.
    #[test]
    fn cached_elastic_measures_are_bit_identical(
        query in series_strategy(14),
        db in db_strategy(14, 8),
        s1 in 0usize..64,
        s2 in 0usize..64,
        radius in 0.0f64..12.0,
    ) {
        let db = planted(&query, db, s1, s2);
        for measure in measures().into_iter().skip(1) {
            let engine =
                RotationQuery::with_measure(&query, Invariance::RotationMirror, measure).unwrap();
            let dims = engine.cascade().config().dims;
            for kind in [QueryKind::Nearest, QueryKind::KNearest(3), QueryKind::Range(radius)] {
                let mut opened = WedgeMerges::default();
                let plain = search(&engine, &db, kind, &mut NoopObserver, None);
                let mut cache = BatchPaaCache::new(db.len(), dims);
                let cached = search(&engine, &db, kind, &mut opened, Some(&mut cache));
                prop_assert_eq!(exact(&cached), exact(&plain), "{:?} {:?}", measure, kind);
                prop_assert_eq!(opened.0, db.len(), "{:?} skipped an item", measure);
            }
        }
    }
}

/// A diverse database (its items differ in amplitude and frequency, so
/// their Fourier magnitudes differ) with the query planted, rotated, at
/// index 41.
fn planted_match_database(query: &[f64], m: usize) -> Vec<Vec<f64>> {
    let n = query.len();
    let mut db: Vec<Vec<f64>> = (0..m)
        .map(|k| {
            let (amp, w) = (0.5 + 0.05 * k as f64, 0.1 + 0.017 * k as f64);
            (0..n)
                .map(|i| amp * (i as f64 * w + k as f64).sin())
                .collect()
        })
        .collect();
    db[41] = rotated(query, 9);
    db
}

#[test]
fn ordered_knn_stops_before_visiting_every_item() {
    let n = 32;
    let m = 60;
    let query: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).sin() * 2.0).collect();
    let db = planted_match_database(&query, m);
    let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
    let dims = engine.cascade().config().dims;
    for kind in [QueryKind::Nearest, QueryKind::KNearest(3)] {
        let mut all = WedgeMerges::default();
        let plain = search(&engine, &db, kind, &mut all, None);
        assert_eq!(all.0, m, "the uncached scan visits every item");
        let mut opened = WedgeMerges::default();
        let mut cache = BatchPaaCache::new(m, dims);
        let ordered = search(&engine, &db, kind, &mut opened, Some(&mut cache));
        assert_eq!(exact(&ordered), exact(&plain), "{kind:?}");
        assert_eq!(ordered[0].index, 41);
        assert!(
            opened.0 < m,
            "{kind:?}: the best-first scan opened {} of {m} walks",
            opened.0
        );
        if kind == QueryKind::Nearest {
            // The planted match has the only zero bound, so it is
            // visited first, and its zero distance stops the scan.
            assert_eq!(opened.0, 1, "1-NN opened {} walks", opened.0);
        }
    }
}

/// The serve benchmark checks a traced pass through one cache against
/// an untraced pass through another, both from one snapshot and fed the
/// same queries: answers *and* step counts must agree whichever cache
/// runs first and builds the shared magnitude table.
#[test]
fn two_caches_of_one_snapshot_agree_on_answers_and_steps() {
    let n = 32;
    let query: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).sin() * 2.0).collect();
    let snapshot = IndexSnapshot::new(planted_match_database(&query, 60)).unwrap();
    let specs: Vec<QuerySpec> = (0..8)
        .map(|i| QuerySpec {
            series: rotated(&query, 5 * i),
            invariance: invariances(3)[i % 4],
            measure: if i == 5 {
                Measure::Dtw(DtwParams::new(2))
            } else {
                Measure::Euclidean
            },
            kind: match i % 3 {
                0 => QueryKind::Nearest,
                1 => QueryKind::KNearest(4),
                _ => QueryKind::Range(1.5),
            },
        })
        .collect();
    let run = |spec: &QuerySpec, cache: &mut BatchPaaCache| {
        let mut counter = StepCounter::new();
        let hits = snapshot
            .execute(
                spec,
                &mut counter,
                &mut NoopObserver,
                &mut NoBudget,
                Some(cache),
            )
            .unwrap()
            .into_inner();
        (exact(&hits), counter.steps())
    };
    let (mut a, mut b) = (snapshot.paa_cache(), snapshot.paa_cache());
    for (i, spec) in specs.iter().enumerate() {
        let (first, second) = if i % 2 == 0 {
            (&mut a, &mut b)
        } else {
            (&mut b, &mut a)
        };
        let x = run(spec, first);
        let y = run(spec, second);
        assert_eq!(x, y, "query {i}");
    }
}
