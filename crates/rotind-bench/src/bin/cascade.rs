//! Bound-cascade ablation: run the same 1-NN workload under a ladder of
//! [`CascadeConfig`]s — from the legacy natural-order LB_Keogh scan to
//! the full four-tier cascade — and report, per configuration and
//! measure, the total `num_steps`, steps and wall-clock per query, the
//! steps-per-pair exponent (`ln(steps/pair)/ln(n)`, the paper's §5.3
//! framing), the per-tier tested/pruned counts from [`QueryTrace`],
//! and each tier's wall-clock and prunes-per-microsecond yield from the
//! [`Profiler`]'s online cost accounting.
//!
//! Besides the usual CSV table, the run writes machine-readable
//! `results/bench_cascade.json` for CI trending. `ROTIND_QUICK=1`
//! shrinks the workload for smoke runs.
//!
//! [`CascadeConfig`]: rotind_index::CascadeConfig
//! [`QueryTrace`]: rotind_obs::QueryTrace
//! [`Profiler`]: rotind_obs::Profiler

use rotind_bench::BenchError;
use rotind_distance::dtw::DtwParams;
use rotind_distance::measure::Measure;
use rotind_eval::report::Table;
use rotind_index::engine::{Invariance, RotationQuery};
use rotind_index::CascadeConfig;
use rotind_index::QueryKind;
use rotind_obs::{CascadeTier, NoBudget, ProfilePhase, Profiler, QueryTrace, SearchObserver};
use rotind_shape::dataset as shapes;
use rotind_ts::StepCounter;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

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

/// The ablation ladder: each rung adds one cascade feature, all under
/// the tuned default gates of [`CascadeConfig::all`].
fn ladder() -> Vec<(&'static str, CascadeConfig)> {
    let full = CascadeConfig::all();
    let reduced = CascadeConfig {
        improved: false,
        ..full
    };
    let kim = CascadeConfig {
        reduced: false,
        ..reduced
    };
    let reorder = CascadeConfig { kim: false, ..kim };
    vec![
        ("legacy", CascadeConfig::legacy()),
        ("reorder", reorder),
        ("+kim", kim),
        ("+reduced", reduced),
        ("full", full),
    ]
}

struct Run {
    measure: &'static str,
    config: &'static str,
    total_steps: u64,
    steps_per_query: f64,
    micros_per_query: f64,
    exponent: f64,
    tier_tested: [u64; CascadeTier::ALL.len()],
    tier_pruned: [u64; CascadeTier::ALL.len()],
    tier_ns: [u128; CascadeTier::ALL.len()],
    tier_prunes_per_us: [Option<f64>; CascadeTier::ALL.len()],
}

fn run_config(
    name: &'static str,
    config: CascadeConfig,
    measure_name: &'static str,
    measure: Measure,
    db: &[Vec<f64>],
    queries: &[Vec<f64>],
    n: usize,
) -> Result<Run, BenchError> {
    let mut trace = QueryTrace::new(n);
    let mut profiler = Profiler::new();
    let mut total_steps = 0u64;
    let start = Instant::now();
    for query in queries {
        let engine =
            RotationQuery::with_measure(query, Invariance::Rotation, measure)?.with_cascade(config);
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
    let elapsed = start.elapsed();
    let pairs = (db.len() * queries.len()) as f64;
    let steps_per_pair = total_steps as f64 / pairs;
    let mut tier_tested = [0u64; CascadeTier::ALL.len()];
    let mut tier_pruned = [0u64; CascadeTier::ALL.len()];
    let mut tier_ns = [0u128; CascadeTier::ALL.len()];
    let mut tier_prunes_per_us = [None; CascadeTier::ALL.len()];
    for tier in CascadeTier::ALL {
        let cost = &profiler.tier_costs()[tier.index()];
        tier_tested[tier.index()] = trace.tier_tested(tier);
        tier_pruned[tier.index()] = trace.tier_pruned(tier);
        tier_ns[tier.index()] = cost.total_ns;
        tier_prunes_per_us[tier.index()] = cost.prunes_per_us();
    }
    Ok(Run {
        measure: measure_name,
        config: name,
        total_steps,
        steps_per_query: total_steps as f64 / queries.len() as f64,
        micros_per_query: elapsed.as_secs_f64() * 1e6 / queries.len() as f64,
        exponent: steps_per_pair.max(1.0).ln() / (n as f64).ln(),
        tier_tested,
        tier_pruned,
        tier_ns,
        tier_prunes_per_us,
    })
}

fn json_escape_free(s: &str) -> &str {
    debug_assert!(s.chars().all(|c| c.is_ascii_graphic() && c != '"'));
    s
}

fn write_json(runs: &[Run], m: usize, n: usize, queries: usize) -> String {
    // Hand-rolled JSON (the workspace vendors no serializer): flat,
    // machine-readable, one object per (measure, config) run.
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"workload\": {{ \"m\": {m}, \"n\": {n}, \"queries\": {queries} }},"
    );
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let _ = write!(
            out,
            "    {{ \"measure\": \"{}\", \"config\": \"{}\", \"total_steps\": {}, \
             \"steps_per_query\": {:.1}, \"micros_per_query\": {:.1}, \"exponent\": {:.4}, \
             \"tiers\": {{",
            json_escape_free(r.measure),
            json_escape_free(r.config),
            r.total_steps,
            r.steps_per_query,
            r.micros_per_query,
            r.exponent
        );
        for (j, tier) in CascadeTier::ALL.iter().enumerate() {
            let tested = r.tier_tested[tier.index()];
            let pruned = r.tier_pruned[tier.index()];
            let rate = if tested > 0 {
                pruned as f64 / tested as f64
            } else {
                0.0
            };
            let ns = r.tier_ns[tier.index()];
            let prunes_per_us = r.tier_prunes_per_us[tier.index()].unwrap_or(0.0);
            let _ = write!(
                out,
                "{}\"{}\": {{ \"tested\": {tested}, \"pruned\": {pruned}, \"prune_rate\": {rate:.4}, \
                 \"ns\": {ns}, \"prunes_per_us\": {prunes_per_us:.3} }}",
                if j > 0 { ", " } else { " " },
                tier.name()
            );
        }
        let _ = writeln!(out, " }} }}{}", if i + 1 < runs.len() { "," } else { "" });
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

    let mut runs = Vec::new();
    for (measure_name, measure) in measures {
        for (config_name, config) in ladder() {
            let run = run_config(
                config_name,
                config,
                measure_name,
                measure,
                db,
                queries_set,
                n,
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
        "kim_pruned",
        "reduced_pruned",
        "keogh_pruned",
        "improved_pruned",
        "kim_prunes_us",
        "reduced_prunes_us",
        "keogh_prunes_us",
        "improved_prunes_us",
    ]);
    let fmt_rate = |rate: Option<f64>| rate.map_or_else(|| "-".to_string(), |r| format!("{r:.2}"));
    for r in &runs {
        table.push_row([
            r.measure.to_string(),
            r.config.to_string(),
            r.total_steps.to_string(),
            format!("{:.1}", r.steps_per_query),
            format!("{:.1}", r.micros_per_query),
            format!("{:.4}", r.exponent),
            r.tier_pruned[CascadeTier::Kim.index()].to_string(),
            r.tier_pruned[CascadeTier::Reduced.index()].to_string(),
            r.tier_pruned[CascadeTier::Keogh.index()].to_string(),
            r.tier_pruned[CascadeTier::Improved.index()].to_string(),
            fmt_rate(r.tier_prunes_per_us[CascadeTier::Kim.index()]),
            fmt_rate(r.tier_prunes_per_us[CascadeTier::Reduced.index()]),
            fmt_rate(r.tier_prunes_per_us[CascadeTier::Keogh.index()]),
            fmt_rate(r.tier_prunes_per_us[CascadeTier::Improved.index()]),
        ]);
    }
    rotind_bench::emit("bench_cascade", &table);

    let json = write_json(&runs, m, n, queries);
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
