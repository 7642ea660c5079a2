//! Bound ablation: run the same 1-NN workload under both
//! [`CascadeConfig`]s — the legacy natural-order LB_Keogh scan and the
//! default, which reorders Euclidean internal wedges — and report, per
//! configuration and measure, the total `num_steps`, steps and
//! wall-clock per query, the steps-per-pair exponent
//! (`ln(steps/pair)/ln(n)`, the paper's §5.3 framing), LB_Keogh's
//! tested/pruned counts from [`QueryTrace`], and its wall-clock
//! prunes-per-microsecond yield from the [`Profiler`]'s online cost
//! accounting.
//!
//! Counts and prune yields come from one traced pass per configuration.
//! Wall-clock comes from separate untraced passes ([`NoopObserver`]),
//! with the configurations interleaved per query: each pass times a
//! configuration's own work on a query (building its abandon orders,
//! then the scan), and each query keeps its fastest pass. The engine
//! build the configurations share (shift matrix, clustering, wedges)
//! is outside the clock.
//!
//! Besides the usual CSV table, the run writes machine-readable
//! `results/bench_cascade.json` for CI trending. `ROTIND_QUICK=1`
//! shrinks the workload for smoke runs.
//!
//! [`CascadeConfig`]: rotind_index::CascadeConfig
//! [`QueryTrace`]: rotind_obs::QueryTrace
//! [`Profiler`]: rotind_obs::Profiler
//! [`NoopObserver`]: rotind_obs::NoopObserver

use rotind_bench::BenchError;
use rotind_distance::dtw::DtwParams;
use rotind_distance::measure::Measure;
use rotind_eval::report::Table;
use rotind_index::engine::{Invariance, RotationQuery};
use rotind_index::QueryKind;
use rotind_index::{BoundCascade, CascadeConfig};
use rotind_obs::{
    CascadeTier, NoBudget, NoopObserver, ProfilePhase, Profiler, QueryTrace, SearchObserver,
};
use rotind_shape::dataset as shapes;
use rotind_ts::StepCounter;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fan-out observer: every search event goes to both the aggregate
/// [`QueryTrace`] and the wall-clock-attributing [`Profiler`], so one
/// pass yields prune counts *and* per-tier nanoseconds.
struct TraceAndProfile<'a> {
    trace: &'a mut QueryTrace,
    profiler: &'a mut Profiler,
}

impl SearchObserver for TraceAndProfile<'_> {
    fn on_wedge_tested(&mut self, level: usize, lb: f64, best_so_far: f64, pruned: bool) {
        self.trace.on_wedge_tested(level, lb, best_so_far, pruned);
        self.profiler
            .on_wedge_tested(level, lb, best_so_far, pruned);
    }
    fn on_leaf_distance(&mut self, distance: f64) {
        self.trace.on_leaf_distance(distance);
        self.profiler.on_leaf_distance(distance);
    }
    fn on_early_abandon(&mut self, position: usize) {
        self.trace.on_early_abandon(position);
        self.profiler.on_early_abandon(position);
    }
    fn on_k_change(&mut self, old: usize, new: usize, probing: bool) {
        self.trace.on_k_change(old, new, probing);
        self.profiler.on_k_change(old, new, probing);
    }
    fn on_cascade_tier(&mut self, tier: CascadeTier, pruned: bool) {
        self.trace.on_cascade_tier(tier, pruned);
        self.profiler.on_cascade_tier(tier, pruned);
    }
    fn on_phase_start(&mut self, phase: ProfilePhase, steps: u64) {
        self.trace.on_phase_start(phase, steps);
        self.profiler.on_phase_start(phase, steps);
    }
    fn on_phase_end(&mut self, phase: ProfilePhase, steps: u64) {
        self.trace.on_phase_end(phase, steps);
        self.profiler.on_phase_end(phase, steps);
    }
}

/// The ablation ladder. The bound reorders Euclidean internal wedges
/// only, so under DTW `full` runs exactly the `legacy` scan (same steps
/// and prunes; only its wall time differs, by noise).
fn ladder() -> [(&'static str, CascadeConfig); 2] {
    [
        ("legacy", CascadeConfig::legacy()),
        ("full", CascadeConfig::all()),
    ]
}

struct Run {
    measure: &'static str,
    config: &'static str,
    total_steps: u64,
    steps_per_query: f64,
    micros_per_query: f64,
    exponent: f64,
    keogh_tested: u64,
    keogh_pruned: u64,
    keogh_ns: u128,
    keogh_prunes_per_us: Option<f64>,
}

/// The traced pass of one configuration: steps and LB_Keogh's counts and
/// yield. Its own wall time is not reported: `micros_per_query` comes
/// from the untraced passes of [`fastest_micros`].
fn traced_run(
    name: &'static str,
    measure_name: &'static str,
    engines: &[RotationQuery],
    db: &[Vec<f64>],
    n: usize,
    micros_per_query: f64,
) -> Result<Run, BenchError> {
    let mut trace = QueryTrace::new(n);
    let mut profiler = Profiler::new();
    let mut total_steps = 0u64;
    for engine in engines {
        let mut counter = StepCounter::new();
        let mut observer = TraceAndProfile {
            trace: &mut trace,
            profiler: &mut profiler,
        };
        engine.search(
            db,
            QueryKind::Nearest,
            &mut counter,
            &mut observer,
            &mut NoBudget,
            None,
        )?;
        total_steps += counter.steps();
    }
    let pairs = (db.len() * engines.len()) as f64;
    let steps_per_pair = total_steps as f64 / pairs;
    let keogh = &profiler.tier_costs()[CascadeTier::Keogh.index()];
    Ok(Run {
        measure: measure_name,
        config: name,
        total_steps,
        steps_per_query: total_steps as f64 / engines.len() as f64,
        micros_per_query,
        exponent: steps_per_pair.max(1.0).ln() / (n as f64).ln(),
        keogh_tested: trace.tier_tested(CascadeTier::Keogh),
        keogh_pruned: trace.tier_pruned(CascadeTier::Keogh),
        keogh_ns: keogh.total_ns,
        keogh_prunes_per_us: keogh.prunes_per_us(),
    })
}

/// Untraced wall-clock per query of each configuration:
/// `engines[config][query]` is timed `passes` times, building the
/// configuration's abandon orders and then scanning, with the
/// configurations interleaved per query (their order alternating between
/// passes). Returns, per configuration, the sum over queries of each
/// query's fastest pass, divided by the number of queries.
fn fastest_micros(
    engines: &[Vec<RotationQuery>],
    configs: &[CascadeConfig],
    db: &[Vec<f64>],
    passes: usize,
) -> Result<Vec<f64>, BenchError> {
    let queries = engines.first().map_or(0, Vec::len);
    let mut best = vec![vec![Duration::MAX; queries]; engines.len()];
    for pass in 0..passes {
        for query in 0..queries {
            for slot in 0..engines.len() {
                let slot = if pass % 2 == 0 {
                    slot
                } else {
                    engines.len() - 1 - slot
                };
                let engine = &engines[slot][query];
                let start = Instant::now();
                black_box(BoundCascade::build(
                    engine.tree(),
                    engine.measure(),
                    configs[slot],
                ));
                engine.search(
                    db,
                    QueryKind::Nearest,
                    &mut StepCounter::new(),
                    &mut NoopObserver,
                    &mut NoBudget,
                    None,
                )?;
                let elapsed = start.elapsed();
                best[slot][query] = best[slot][query].min(elapsed);
            }
        }
    }
    Ok(best
        .iter()
        .map(|times| times.iter().sum::<Duration>().as_secs_f64() * 1e6 / queries.max(1) as f64)
        .collect())
}

fn json_escape_free(s: &str) -> &str {
    debug_assert!(s.chars().all(|c| c.is_ascii_graphic() && c != '"'));
    s
}

fn write_json(runs: &[Run], m: usize, n: usize, queries: usize, passes: usize) -> String {
    // Hand-rolled JSON (the workspace vendors no serializer): flat,
    // machine-readable, one object per (measure, config) run.
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"workload\": {{ \"m\": {m}, \"n\": {n}, \"queries\": {queries}, \"timed_passes\": {passes} }},"
    );
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let rate = if r.keogh_tested > 0 {
            r.keogh_pruned as f64 / r.keogh_tested as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "    {{ \"measure\": \"{}\", \"config\": \"{}\", \"total_steps\": {}, \
             \"steps_per_query\": {:.1}, \"micros_per_query\": {:.1}, \"exponent\": {:.4}, \
             \"keogh\": {{ \"tested\": {}, \"pruned\": {}, \"prune_rate\": {rate:.4}, \
             \"ns\": {}, \"prunes_per_us\": {:.3} }} }}{}",
            json_escape_free(r.measure),
            json_escape_free(r.config),
            r.total_steps,
            r.steps_per_query,
            r.micros_per_query,
            r.exponent,
            r.keogh_tested,
            r.keogh_pruned,
            r.keogh_ns,
            r.keogh_prunes_per_us.unwrap_or(0.0),
            if i + 1 < runs.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn run() -> Result<(), BenchError> {
    let quick = rotind_bench::quick_mode();
    let (m, n, queries) = if quick { (200, 64, 3) } else { (2000, 251, 10) };
    println!("cascade ablation over m = {m} projectile points (n = {n}), {queries} queries");

    let pool = shapes::projectile_points(m + queries, n, 1906).items;
    let db = &pool[..m];
    let queries_set = &pool[m..];

    let band = 5.min(n - 1);
    let measures: [(&'static str, Measure); 2] = [
        ("euclidean", Measure::Euclidean),
        ("dtw", Measure::Dtw(DtwParams::new(band))),
    ];

    let (names, configs): (Vec<&'static str>, Vec<CascadeConfig>) = ladder().into_iter().unzip();
    let passes = if quick { 3 } else { 9 };
    let mut runs = Vec::new();
    for (measure_name, measure) in measures {
        let mut engines = Vec::with_capacity(configs.len());
        for &config in &configs {
            let built = queries_set
                .iter()
                .map(|query| {
                    RotationQuery::with_measure(query, Invariance::Rotation, measure)
                        .map(|engine| engine.with_cascade(config))
                })
                .collect::<Result<Vec<_>, _>>()?;
            engines.push(built);
        }
        let micros = fastest_micros(&engines, &configs, db, passes)?;
        for ((&config_name, per_query), micros_per_query) in names.iter().zip(&engines).zip(micros)
        {
            let run = traced_run(
                config_name,
                measure_name,
                per_query,
                db,
                n,
                micros_per_query,
            )?;
            println!(
                "  {measure_name:>9} {config_name:>9}: {:>12} steps  ({:.0} steps/query, {:.0} us/query, exponent {:.3})",
                run.total_steps, run.steps_per_query, run.micros_per_query, run.exponent
            );
            runs.push(run);
        }
    }

    let mut table = Table::new([
        "measure",
        "config",
        "total_steps",
        "steps_per_query",
        "us_per_query",
        "exponent",
        "keogh_tested",
        "keogh_pruned",
        "keogh_prunes_us",
    ]);
    for r in &runs {
        table.push_row([
            r.measure.to_string(),
            r.config.to_string(),
            r.total_steps.to_string(),
            format!("{:.1}", r.steps_per_query),
            format!("{:.1}", r.micros_per_query),
            format!("{:.4}", r.exponent),
            r.keogh_tested.to_string(),
            r.keogh_pruned.to_string(),
            r.keogh_prunes_per_us
                .map_or_else(|| "-".to_string(), |rate| format!("{rate:.2}")),
        ]);
    }
    rotind_bench::emit("bench_cascade", &table);

    let json = write_json(&runs, m, n, queries, passes);
    let path = rotind_bench::results_dir().join("bench_cascade.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("[warn: could not save {}: {e}]", path.display()),
    }
    Ok(())
}

fn main() -> ExitCode {
    rotind_bench::error::exit(run())
}
