//! Steps-ratio sweeps over database size (Figures 19–23).
//!
//! The paper's protocol (Section 5.3): for each database size `m`,
//! average over repeated runs *"with the query object randomly chosen
//! and removed from the dataset"* the number of steps each algorithm
//! needs for a 1-NN scan, and report it **relative to brute force**.
//! Brute force performs a deterministic number of steps
//! (`m · rotations · steps-per-pair`), so its denominator is computed
//! analytically — running it at `m = 16,000`, `n = 251` would add
//! nothing but hours.
//!
//! For the wedge method the paper *"include\[s\] a startup cost of O(n²),
//! which is the time required to build the wedges"*; here that charge is
//! `n² + 4·rotations·n` steps per query (shift profiles + envelope
//! materialisation), amortised into the query's total.

use rotind_distance::measure::Measure;
use rotind_index::baselines::{
    brute_force_scan, convolution_scan, early_abandon_scan_observed, fft_scan_observed,
};
use rotind_index::engine::{Invariance, RotationQuery};
use rotind_index::QueryKind;
use rotind_obs::{LogHistogram, NoBudget, NoopObserver, QueryTrace, SearchObserver};
use rotind_ts::rotate::RotationMatrix;
use rotind_ts::StepCounter;

/// The rival search algorithms of the paper's efficiency figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchAlgorithm {
    /// Full distances for every rotation of every item (the 1.0 line).
    BruteForce,
    /// Tables 1–3: early abandoning with best-so-far threading.
    EarlyAbandon,
    /// Fourier magnitude filter at `n·log₂n` per item (Euclidean only).
    Fft,
    /// The paper's contribution: hierarchical wedges + H-Merge.
    Wedge,
    /// Exact min-shift distance via circular correlation (Euclidean
    /// only; Section 2.4's astronomy trick).
    Convolution,
}

impl SearchAlgorithm {
    /// Display name used in figure output.
    pub fn name(&self) -> &'static str {
        match self {
            SearchAlgorithm::BruteForce => "brute-force",
            SearchAlgorithm::EarlyAbandon => "early-abandon",
            SearchAlgorithm::Fft => "fft",
            SearchAlgorithm::Wedge => "wedge",
            SearchAlgorithm::Convolution => "convolution",
        }
    }
}

/// Steps one exact distance computation performs on length-`n` series —
/// deterministic per measure (band-limited cell counts for the DP
/// measures). Established by running the measure once.
pub fn steps_per_pair(n: usize, measure: Measure) -> u64 {
    let zeros = vec![0.0; n];
    let mut counter = StepCounter::new();
    measure.distance(&zeros, &zeros, &mut counter);
    counter.steps()
}

/// Analytical brute-force scan cost: `m` items × `rotations` × steps per
/// pair, with no abandoning anywhere.
pub fn brute_force_steps(m: usize, n: usize, rotations: usize, measure: Measure) -> u64 {
    m as u64 * rotations as u64 * steps_per_pair(n, measure)
}

/// The per-query wedge-build startup charge (see module docs).
pub fn wedge_startup_steps(n: usize, rotations: usize) -> u64 {
    (n * n + 4 * rotations * n) as u64
}

/// Steps used by `algorithm` for one 1-NN query over `db`.
///
/// # Panics
///
/// Panics when the algorithm/measure combination is unsupported (FFT and
/// convolution are Euclidean-only) or the database is malformed.
pub fn scan_steps(
    db: &[Vec<f64>],
    query: &[f64],
    algorithm: SearchAlgorithm,
    measure: Measure,
) -> u64 {
    scan_steps_observed(db, query, algorithm, measure, &mut NoopObserver)
}

/// [`scan_steps`] with every wedge test, leaf distance, early abandon
/// and K-change reported to `observer`. Brute force and convolution
/// fire no events (they have no pruning structure to report); early
/// abandon reports improving leaf distances; FFT reports its magnitude
/// filter as level-0 wedge tests. The observer never changes the step
/// count — `scan_steps_observed(.., &mut NoopObserver)` and a recording
/// observer return identical totals.
pub fn scan_steps_observed<O: SearchObserver>(
    db: &[Vec<f64>],
    query: &[f64],
    algorithm: SearchAlgorithm,
    measure: Measure,
    observer: &mut O,
) -> u64 {
    let mut counter = StepCounter::new();
    match algorithm {
        SearchAlgorithm::BruteForce => {
            let matrix = RotationMatrix::full(query).expect("valid query");
            brute_force_scan(&matrix, db, measure, &mut counter).expect("valid database");
        }
        SearchAlgorithm::EarlyAbandon => {
            let matrix = RotationMatrix::full(query).expect("valid query");
            early_abandon_scan_observed(&matrix, db, measure, &mut counter, observer)
                .expect("valid database");
        }
        SearchAlgorithm::Fft => {
            assert_eq!(measure, Measure::Euclidean, "FFT filter is Euclidean-only");
            let matrix = RotationMatrix::full(query).expect("valid query");
            fft_scan_observed(&matrix, db, &mut counter, observer).expect("valid database");
        }
        SearchAlgorithm::Convolution => {
            assert_eq!(measure, Measure::Euclidean, "convolution is Euclidean-only");
            let matrix = RotationMatrix::full(query).expect("valid query");
            convolution_scan(&matrix, db, &mut counter).expect("valid database");
        }
        SearchAlgorithm::Wedge => {
            let engine = RotationQuery::with_measure(query, Invariance::Rotation, measure)
                .expect("valid query");
            engine
                .search(
                    db,
                    QueryKind::Nearest,
                    &mut counter,
                    observer,
                    &mut NoBudget,
                    None,
                )
                .expect("valid database");
            counter.add(wedge_startup_steps(query.len(), engine.tree().max_k()));
        }
    }
    counter.steps()
}

/// Run one wedge 1-NN scan and return its full [`QueryTrace`] alongside
/// the step total (startup charge included, as in [`scan_steps`]).
pub fn wedge_query_trace(db: &[Vec<f64>], query: &[f64], measure: Measure) -> (QueryTrace, u64) {
    let mut trace = QueryTrace::new(query.len());
    let steps = scan_steps_observed(db, query, SearchAlgorithm::Wedge, measure, &mut trace);
    (trace, steps)
}

/// Wall-clock nanoseconds for one 1-NN query under `algorithm` — the
/// paper's final sanity check (Section 5.3: *"we also measured the wall
/// clock time of our best implementation of all methods. The results
/// are essentially identical"*). Includes the wedge build for the wedge
/// method, mirroring the step accounting.
pub fn scan_wall_nanos(
    db: &[Vec<f64>],
    query: &[f64],
    algorithm: SearchAlgorithm,
    measure: Measure,
) -> u128 {
    let start = std::time::Instant::now();
    // Brute force must actually run here (no analytic shortcut for time).
    let mut counter = StepCounter::new();
    match algorithm {
        SearchAlgorithm::BruteForce => {
            let matrix = RotationMatrix::full(query).expect("valid query");
            brute_force_scan(&matrix, db, measure, &mut counter).expect("valid database");
        }
        _ => {
            let _ = scan_steps(db, query, algorithm, measure);
        }
    }
    start.elapsed().as_nanos()
}

/// Wall-clock nanoseconds for one **parallel** wedge 1-NN query at
/// `threads` worker threads (`0` = auto, honouring `ROTIND_THREADS`).
/// Includes the wedge build, mirroring [`scan_wall_nanos`] for the
/// wedge method, so single-thread numbers are directly comparable.
pub fn scan_wall_nanos_parallel(
    db: &[Vec<f64>],
    query: &[f64],
    measure: Measure,
    threads: usize,
) -> u128 {
    let start = std::time::Instant::now();
    // Bench harness, not serving code: a malformed workload should stop
    // the experiment immediately rather than report bogus timings.
    let engine =
        // rotind-lint: allow(no-panic)
        RotationQuery::with_measure(query, Invariance::Rotation, measure).expect("valid query");
    let mut counter = StepCounter::new();
    engine
        .search_parallel(
            db,
            QueryKind::Nearest,
            threads,
            &mut counter,
            &mut NoopObserver,
            None,
        )
        // rotind-lint: allow(no-panic)
        .expect("valid database");
    start.elapsed().as_nanos()
}

/// One row of a [`thread_sweep`]: median wall-clock at one thread count
/// and the speedup relative to the sweep's single-thread row, plus
/// latency quantiles over the row's repeats (streamed through a
/// [`LogHistogram`], so each is within 6.25% of a sampled value).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadSweepPoint {
    /// Worker threads used for this row.
    pub threads: usize,
    /// Median wall-clock nanoseconds over the sweep's repeats.
    pub wall_nanos: u128,
    /// `baseline / wall_nanos` where baseline is the 1-thread median
    /// (> 1.0 means the parallel scan is faster).
    pub speedup: f64,
    /// 50th-percentile wall-clock nanoseconds over the repeats.
    pub p50_nanos: u64,
    /// 95th-percentile wall-clock nanoseconds over the repeats.
    pub p95_nanos: u64,
    /// 99th-percentile wall-clock nanoseconds over the repeats.
    pub p99_nanos: u64,
}

/// Median-of-`repeats` parallel scan wall-clock at each requested
/// thread count, with speedups relative to a 1-thread baseline measured
/// the same way (the baseline is always measured, whether or not `1` is
/// in `thread_counts`). Answers are identical across rows by the
/// parallel scan's determinism guarantee, so only time varies.
///
/// # Panics
/// Panics when `repeats == 0` or the database is empty/malformed.
pub fn thread_sweep(
    db: &[Vec<f64>],
    query: &[f64],
    measure: Measure,
    thread_counts: &[usize],
    repeats: usize,
) -> Vec<ThreadSweepPoint> {
    assert!(repeats > 0, "thread_sweep needs at least one repeat");
    let sample = |threads: usize| -> (u128, LogHistogram) {
        let mut samples: Vec<u128> = (0..repeats)
            .map(|_| scan_wall_nanos_parallel(db, query, measure, threads))
            .collect();
        let mut hist = LogHistogram::new();
        for &s in &samples {
            hist.observe(u64::try_from(s).unwrap_or(u64::MAX));
        }
        samples.sort_unstable();
        // `repeats > 0` is asserted above, so the median index is valid.
        // rotind-lint: allow(no-index)
        (samples[samples.len() / 2], hist)
    };
    let (baseline, baseline_hist) = sample(1);
    let baseline = baseline.max(1);
    thread_counts
        .iter()
        .map(|&threads| {
            let (wall_nanos, hist) = if threads == 1 {
                (baseline, baseline_hist.clone())
            } else {
                sample(threads)
            };
            // `repeats > 0`, so every quantile is Some.
            let q = |p: f64| hist.quantile(p).unwrap_or(0);
            ThreadSweepPoint {
                threads,
                wall_nanos,
                speedup: baseline as f64 / wall_nanos.max(1) as f64,
                p50_nanos: q(0.5),
                p95_nanos: q(0.95),
                p99_nanos: q(0.99),
            }
        })
        .collect()
}

/// One row of a Figure 19–23 sweep: the database size and, per
/// algorithm, the step ratio to brute force (≤ 1.0 means faster).
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Database size `m`.
    pub m: usize,
    /// `(algorithm, steps / brute_force_steps)` pairs.
    pub ratios: Vec<(SearchAlgorithm, f64)>,
}

/// Run the full sweep. `pool` supplies both databases (prefixes of the
/// given sizes) and queries (`queries_per_size` items taken from beyond
/// the largest size, wrapping if the pool is tight — the paper removes
/// the query from the dataset).
pub fn speedup_sweep(
    pool: &[Vec<f64>],
    sizes: &[usize],
    queries_per_size: usize,
    measure: Measure,
    algorithms: &[SearchAlgorithm],
) -> Vec<SweepPoint> {
    speedup_sweep_traced(pool, sizes, queries_per_size, measure, algorithms)
        .into_iter()
        .map(|(point, _)| point)
        .collect()
}

/// [`speedup_sweep`] that also returns, per sweep point, the merged
/// [`QueryTrace`] of every wedge query run at that point (per-level
/// prune counts, LB-tightness, abandon depths, K timeline). When
/// [`SearchAlgorithm::Wedge`] is not among `algorithms` the trace is
/// empty.
pub fn speedup_sweep_traced(
    pool: &[Vec<f64>],
    sizes: &[usize],
    queries_per_size: usize,
    measure: Measure,
    algorithms: &[SearchAlgorithm],
) -> Vec<(SweepPoint, QueryTrace)> {
    assert!(!pool.is_empty() && queries_per_size > 0);
    let n = pool[0].len();
    let max_size = sizes.iter().copied().max().unwrap_or(0);
    assert!(max_size <= pool.len(), "pool smaller than largest size");
    sizes
        .iter()
        .map(|&m| {
            let db = &pool[..m];
            // Queries from beyond the database prefix when possible.
            let queries: Vec<&[f64]> = (0..queries_per_size)
                .map(|q| {
                    let idx = if max_size + q < pool.len() {
                        max_size + q
                    } else {
                        // Tight pool: reuse spread-out items (still
                        // excluded? they are in the db — acceptable for a
                        // self-query benchmark and noted by callers).
                        (q * 7919) % pool.len()
                    };
                    pool[idx].as_slice()
                })
                .collect();
            let brute = brute_force_steps(m, n, n, measure) as f64;
            let mut point_trace = QueryTrace::new(n);
            let mut ratios = Vec::with_capacity(algorithms.len());
            for &alg in algorithms {
                let ratio = if alg == SearchAlgorithm::BruteForce {
                    1.0
                } else {
                    let total: u64 = queries
                        .iter()
                        .map(|q| {
                            if alg == SearchAlgorithm::Wedge {
                                let (trace, steps) = wedge_query_trace(db, q, measure);
                                point_trace.merge(&trace);
                                steps
                            } else {
                                scan_steps(db, q, alg, measure)
                            }
                        })
                        .sum();
                    (total as f64 / queries.len() as f64) / brute
                };
                ratios.push((alg, ratio));
            }
            (SweepPoint { m, ratios }, point_trace)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotind_distance::DtwParams;

    fn signal(n: usize, k: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * (0.1 + 0.013 * (k % 13) as f64)).sin() + (k as f64 * 0.7).cos())
            .collect()
    }

    fn pool(m: usize, n: usize) -> Vec<Vec<f64>> {
        (0..m).map(|k| signal(n, k)).collect()
    }

    #[test]
    fn steps_per_pair_values() {
        assert_eq!(steps_per_pair(32, Measure::Euclidean), 32);
        let d = steps_per_pair(32, Measure::Dtw(DtwParams::new(0)));
        assert_eq!(d, 32, "R = 0 visits the diagonal only");
        let d5 = steps_per_pair(32, Measure::Dtw(DtwParams::new(5)));
        assert!(d5 > 32 && d5 <= 32 * 11);
    }

    #[test]
    fn analytical_brute_matches_measured() {
        let db = pool(6, 16);
        let query = signal(16, 99);
        let measured = scan_steps(&db, &query, SearchAlgorithm::BruteForce, Measure::Euclidean);
        assert_eq!(measured, brute_force_steps(6, 16, 16, Measure::Euclidean));
        let m2 = Measure::Dtw(DtwParams::new(3));
        let measured_dtw = scan_steps(&db, &query, SearchAlgorithm::BruteForce, m2);
        assert_eq!(measured_dtw, brute_force_steps(6, 16, 16, m2));
    }

    #[test]
    fn all_algorithms_cost_at_most_brute_force_asymptotically() {
        let db = pool(40, 32);
        let query = signal(32, 123);
        let brute = brute_force_steps(40, 32, 32, Measure::Euclidean);
        for alg in [SearchAlgorithm::EarlyAbandon, SearchAlgorithm::Wedge] {
            let s = scan_steps(&db, &query, alg, Measure::Euclidean);
            assert!(s < brute, "{}: {s} !< {brute}", alg.name());
        }
    }

    #[test]
    fn sweep_structure() {
        let p = pool(50, 24);
        let points = speedup_sweep(
            &p,
            &[8, 16, 32],
            3,
            Measure::Euclidean,
            &[
                SearchAlgorithm::BruteForce,
                SearchAlgorithm::EarlyAbandon,
                SearchAlgorithm::Wedge,
            ],
        );
        assert_eq!(points.len(), 3);
        for pt in &points {
            assert_eq!(pt.ratios.len(), 3);
            let brute = pt
                .ratios
                .iter()
                .find(|(a, _)| *a == SearchAlgorithm::BruteForce)
                .unwrap();
            assert_eq!(brute.1, 1.0);
            for (alg, ratio) in &pt.ratios {
                assert!(ratio.is_finite() && *ratio > 0.0, "{}", alg.name());
            }
        }
        // Early abandon improves (or holds) as the database grows.
        let ea = |pt: &SweepPoint| {
            pt.ratios
                .iter()
                .find(|(a, _)| *a == SearchAlgorithm::EarlyAbandon)
                .unwrap()
                .1
        };
        assert!(ea(&points[2]) <= ea(&points[0]) * 1.5);
    }

    #[test]
    fn wedge_ratio_improves_with_database_size() {
        let p = pool(300, 32);
        let points = speedup_sweep(
            &p,
            &[16, 256],
            4,
            Measure::Euclidean,
            &[SearchAlgorithm::Wedge],
        );
        let small = points[0].ratios[0].1;
        let large = points[1].ratios[0].1;
        assert!(
            large < small,
            "wedge ratio should shrink with m: {small} -> {large}"
        );
    }

    #[test]
    fn dtw_sweep_works() {
        let p = pool(40, 24);
        let m = Measure::Dtw(DtwParams::new(2));
        let points = speedup_sweep(
            &p,
            &[20],
            2,
            m,
            &[SearchAlgorithm::EarlyAbandon, SearchAlgorithm::Wedge],
        );
        for (_, r) in &points[0].ratios {
            assert!(*r < 1.0, "DTW optimisations must beat brute force");
        }
    }

    #[test]
    fn observed_scan_steps_match_plain() {
        let db = pool(30, 32);
        let query = signal(32, 77);
        for alg in [
            SearchAlgorithm::EarlyAbandon,
            SearchAlgorithm::Fft,
            SearchAlgorithm::Wedge,
        ] {
            let plain = scan_steps(&db, &query, alg, Measure::Euclidean);
            let mut trace = QueryTrace::new(query.len());
            let observed = scan_steps_observed(&db, &query, alg, Measure::Euclidean, &mut trace);
            assert_eq!(plain, observed, "{}: observer changed the cost", alg.name());
        }
    }

    #[test]
    fn traced_sweep_matches_plain_and_collects_traces() {
        let p = pool(60, 24);
        let algs = [SearchAlgorithm::BruteForce, SearchAlgorithm::Wedge];
        let plain = speedup_sweep(&p, &[16, 48], 2, Measure::Euclidean, &algs);
        let traced = speedup_sweep_traced(&p, &[16, 48], 2, Measure::Euclidean, &algs);
        assert_eq!(plain.len(), traced.len());
        for (a, (b, trace)) in plain.iter().zip(&traced) {
            assert_eq!(a.m, b.m);
            for ((alg_a, ra), (alg_b, rb)) in a.ratios.iter().zip(&b.ratios) {
                assert_eq!(alg_a, alg_b);
                assert_eq!(ra, rb, "trace recording must not change step ratios");
            }
            assert!(
                trace.wedges_tested() > 0,
                "wedge trace collected at m = {}",
                a.m
            );
            assert!(trace.prune_rate_from(0).is_some());
        }
        // Without the wedge algorithm the trace stays empty.
        let (_, empty) = speedup_sweep_traced(
            &p,
            &[16],
            2,
            Measure::Euclidean,
            &[SearchAlgorithm::EarlyAbandon],
        )
        .pop()
        .unwrap();
        assert_eq!(empty.wedges_tested(), 0);
    }

    #[test]
    fn wedge_trace_has_pruning_activity() {
        let db = pool(60, 32);
        let query = signal(32, 200);
        let (trace, steps) = wedge_query_trace(&db, &query, Measure::Euclidean);
        assert_eq!(
            steps,
            scan_steps(&db, &query, SearchAlgorithm::Wedge, Measure::Euclidean)
        );
        assert!(trace.wedges_tested() > 0);
        assert!(trace.leaf_distances() > 0);
    }

    #[test]
    fn thread_sweep_shape_and_determinism() {
        let db = pool(30, 24);
        let query = signal(24, 55);
        let points = thread_sweep(&db, &query, Measure::Euclidean, &[1, 2, 4], 3);
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].threads, 1);
        assert!(
            (points[0].speedup - 1.0).abs() < 1e-12,
            "1-thread row is its own baseline"
        );
        for pt in &points {
            assert!(pt.wall_nanos > 0);
            assert!(pt.speedup.is_finite() && pt.speedup > 0.0);
            assert!(pt.p50_nanos > 0, "repeats > 0 populate every quantile");
            assert!(pt.p50_nanos <= pt.p95_nanos && pt.p95_nanos <= pt.p99_nanos);
        }
        // Determinism: parallel answers equal sequential at every count.
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let sequential = vec![engine.nearest(&db).unwrap()];
        for threads in [1, 2, 4] {
            let mut counter = StepCounter::new();
            let (outcome, _) = engine
                .search_parallel(
                    &db,
                    QueryKind::Nearest,
                    threads,
                    &mut counter,
                    &mut NoopObserver,
                    None,
                )
                .unwrap();
            assert_eq!(outcome.into_inner(), sequential);
        }
    }

    #[test]
    fn parallel_wall_nanos_is_positive() {
        let db = pool(10, 16);
        let query = signal(16, 3);
        assert!(scan_wall_nanos_parallel(&db, &query, Measure::Euclidean, 2) > 0);
        assert!(scan_wall_nanos_parallel(&db, &query, Measure::Euclidean, 0) > 0);
    }

    #[test]
    #[should_panic(expected = "Euclidean-only")]
    fn fft_rejects_dtw() {
        let db = pool(4, 16);
        scan_steps(
            &db,
            &signal(16, 9),
            SearchAlgorithm::Fft,
            Measure::Dtw(DtwParams::new(2)),
        );
    }
}
