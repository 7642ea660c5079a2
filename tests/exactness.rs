//! The library's headline guarantee, tested end-to-end: the wedge
//! engine returns **exactly** the brute-force answers — "we prove that
//! we will always return the same answer set as the slower methods" —
//! for every measure, invariance mode and wedge-set policy.

use proptest::prelude::*;
use rotind::distance::rotation::{search_database, test_all_rotations};
use rotind::distance::{DtwParams, LcssParams, Measure};
use rotind::index::cascade::ABANDON_PREFIX;
use rotind::index::engine::{Invariance, KPolicy, Neighbor, RotationQuery};
use rotind::index::parallel::default_threads;
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

    /// Past the abandon prefix: at lengths 33, 48 and 64, where tier 3
    /// reads truncated abandon orders, every Euclidean answer equals the
    /// brute-force scan's by index, distance bits and rotation, under
    /// all four invariances — uncached, through one snapshot cache
    /// shared by every query (the serve path), and, for the kinds the
    /// parallel scan serves, across the `ROTIND_THREADS` workers. With
    /// `integral` set, the samples are integers, so distinct items (and
    /// rotations of one item) tie exactly at positive distances.
    #[test]
    fn truncated_abandon_orders_equal_brute_force(
        query in series_strategy(64),
        db in db_strategy(64, 8),
        n_idx in 0usize..3,
        s1 in 0usize..64,
        s2 in 0usize..64,
        max_shift in 0usize..12,
        radius in 0.0f64..40.0,
        integral in 0usize..2,
    ) {
        let n = [33, 48, 64][n_idx];
        prop_assert!(n > ABANDON_PREFIX);
        let cut = |xs: &[f64]| -> Vec<f64> {
            xs[..n].iter().map(|x| if integral == 1 { x.round() } else { *x }).collect()
        };
        let query = cut(&query);
        let db = planted(&query, db.iter().map(|item| cut(item)).collect(), s1, s2);
        let snapshot = IndexSnapshot::new(db.clone()).unwrap();
        let mut cache = snapshot.paa_cache();
        // `max_shift < 12 < n / 2`, so the limited windows never saturate.
        for (invariance, matrix) in [
            (Invariance::Rotation, RotationMatrix::full(&query)),
            (Invariance::RotationMirror, RotationMatrix::with_mirror(&query)),
            (
                Invariance::RotationLimited { max_shift },
                RotationMatrix::limited(&query, max_shift),
            ),
            (
                Invariance::RotationLimitedMirror { max_shift },
                RotationMatrix::limited_with_mirror(&query, max_shift),
            ),
        ] {
            let matrix = matrix.unwrap();
            let brute: Vec<(usize, u64, Rotation)> = db
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    let hit = test_all_rotations(
                        item,
                        &matrix,
                        f64::INFINITY,
                        Measure::Euclidean,
                        &mut StepCounter::new(),
                    )
                    .unwrap();
                    (i, hit.distance.to_bits(), hit.rotation)
                })
                .collect();
            let mut ranked = brute.clone();
            ranked.sort_by(|a, b| {
                f64::from_bits(a.1).total_cmp(&f64::from_bits(b.1)).then(a.0.cmp(&b.0))
            });
            let third = f64::from_bits(ranked[2].1);
            let engine = RotationQuery::new(&query, invariance).unwrap();
            for kind in [
                QueryKind::Nearest,
                QueryKind::KNearest(3),
                QueryKind::Range(radius),
                QueryKind::Range(third),
            ] {
                let expected: Vec<(usize, u64, Rotation)> = match kind {
                    QueryKind::Nearest => ranked[..1].to_vec(),
                    QueryKind::KNearest(k) => ranked[..k].to_vec(),
                    QueryKind::Range(r) => brute
                        .iter()
                        .filter(|hit| f64::from_bits(hit.1) <= r)
                        .copied()
                        .collect(),
                };
                let plain = search(&engine, &db, kind, &mut NoopObserver, None);
                prop_assert_eq!(exact(&plain), expected.clone(), "{:?} {:?}", invariance, kind);
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
                        Some(&mut cache),
                    )
                    .unwrap()
                    .into_inner();
                prop_assert_eq!(exact(&executed), expected.clone(), "{:?} {:?}", invariance, kind);
                if kind != QueryKind::KNearest(3) {
                    let (outcome, _) = engine
                        .search_parallel(
                            &db,
                            kind,
                            default_threads(),
                            &mut StepCounter::new(),
                            &mut NoopObserver,
                            None,
                        )
                        .unwrap();
                    prop_assert_eq!(
                        exact(&outcome.into_inner()),
                        expected,
                        "{:?} {:?} parallel",
                        invariance,
                        kind
                    );
                }
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

/// A DTW k-NN search over a database whose first items hold +∞ (or −∞)
/// and NaN samples completes, in debug builds too, and returns the
/// brute-force answer whenever at least k items are finite. Such an
/// item's distance is +∞ or NaN, so it ranks behind every finite item;
/// the first k items are scanned at an infinite radius, so their leaf
/// DTW runs to the non-finite corner.
#[test]
fn dtw_knn_with_non_finite_items_equals_brute_force() {
    let (n, m) = (12, 6);
    let query: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() * 2.0).collect();
    let clean: Vec<Vec<f64>> = (0..m)
        .map(|k| {
            (0..n)
                .map(|i| ((i + 2 * k) as f64 * 0.55).cos() * (1.0 + 0.1 * k as f64))
                .collect()
        })
        .collect();
    let measure = Measure::Dtw(DtwParams::new(2));
    let matrix = RotationMatrix::full(&query).unwrap();
    let engine = RotationQuery::with_measure(&query, Invariance::Rotation, measure).unwrap();
    let bits = |hits: &[(usize, f64)]| -> Vec<(usize, u64)> {
        hits.iter().map(|&(i, d)| (i, d.to_bits())).collect()
    };
    for k in 1..=3 {
        for inf_item in 0..k {
            for nan_item in [(inf_item + 1) % m, m - 1] {
                for (infinity, nan_at) in [
                    (f64::INFINITY, 0),
                    (f64::NEG_INFINITY, 5),
                    (f64::INFINITY, n - 1),
                ] {
                    let mut db = clean.clone();
                    db[inf_item][3] = infinity;
                    db[nan_item][nan_at] = f64::NAN;
                    let got: Vec<(usize, f64)> = engine
                        .k_nearest(&db, k)
                        .unwrap()
                        .iter()
                        .map(|h| (h.index, h.distance))
                        .collect();
                    let mut oracle: Vec<(usize, f64)> = db
                        .iter()
                        .enumerate()
                        .filter_map(|(i, item)| {
                            let hit = test_all_rotations(
                                item,
                                &matrix,
                                f64::INFINITY,
                                measure,
                                &mut StepCounter::new(),
                            )?;
                            hit.distance.is_finite().then_some((i, hit.distance))
                        })
                        .collect();
                    oracle.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                    oracle.truncate(k);
                    assert_eq!(
                        bits(&got),
                        bits(&oracle),
                        "k = {k}, {infinity} in item {inf_item}, NaN at {nan_item}[{nan_at}]"
                    );
                }
            }
        }
    }
}
