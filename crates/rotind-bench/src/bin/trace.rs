//! Search-telemetry deep dive: run a batch of wedge 1-NN queries over a
//! projectile-point database with a recording [`QueryTrace`] attached,
//! then emit everything the observer saw — per-level prune counts,
//! the LB-tightness histogram (`lb / true distance` over admitted
//! leaves), the early-abandon depth histogram, and the K-planner
//! timeline — as `results/trace.csv` plus a human-readable report,
//! the Prometheus exposition of the metrics registry, and the span
//! table (wall-clock next to `num_steps`, the paper's §5.3 argument
//! made visible).
//!
//! A second pass re-runs the same queries under the hierarchical
//! [`Profiler`] and writes `results/trace_profile.json` — a
//! chrome://tracing / Perfetto-loadable span tree with wall-clock *and*
//! `num_steps` per phase — plus `results/trace_profile.folded`
//! (collapsed stacks for `flamegraph.pl` / speedscope), and prints
//! latency quantiles and the per-tier prune economics.
//!
//! `ROTIND_QUICK=1` bounds the database for smoke runs; the full run
//! uses the paper's 2,000-item, n = 251 workload.
//!
//! [`QueryTrace`]: rotind_obs::QueryTrace
//! [`Profiler`]: rotind_obs::Profiler

use rotind_bench::BenchError;
use rotind_eval::report::{fmt_ratio, Table};
use rotind_eval::speedup::wedge_startup_steps;
use rotind_index::engine::{Invariance, RotationQuery};
use rotind_index::QueryKind;
use rotind_obs::{global_span_report, MetricsRegistry, NoBudget, Profiler, QueryTrace, Span};
use rotind_shape::dataset as shapes;
use rotind_ts::StepCounter;
use std::process::ExitCode;

fn run() -> Result<(), BenchError> {
    let quick = rotind_bench::quick_mode();
    let (m, n, queries) = if quick { (200, 64, 3) } else { (2000, 251, 10) };
    println!("tracing {queries} wedge queries over m = {m} projectile points (n = {n})");

    let pool = shapes::projectile_points(m + queries, n, 1906).items;
    let db = &pool[..m];

    let mut trace = QueryTrace::new(n);
    let mut total_steps = 0u64;
    for query in &pool[m..] {
        let mut counter = StepCounter::new();
        let span = Span::enter_with("trace.query", &counter);
        let engine = RotationQuery::new(query, Invariance::Rotation)?;
        engine.search(
            db,
            QueryKind::Nearest,
            &mut counter,
            &mut trace,
            &mut NoBudget,
            None,
        )?;
        counter.add(wedge_startup_steps(n, engine.tree().max_k()));
        span.finish(&counter);
        total_steps += counter.steps();
    }

    let mut table = Table::new(["metric", "key", "value"]);
    let mut push = |metric: &str, key: String, value: String| {
        table.push_row([metric.to_string(), key, value]);
    };
    push("workload", "m".into(), m.to_string());
    push("workload", "n".into(), n.to_string());
    push("workload", "queries".into(), queries.to_string());
    push("steps", "total".into(), total_steps.to_string());
    push(
        "steps",
        "per-query".into(),
        (total_steps / queries as u64).to_string(),
    );
    for level in 0..trace.levels() {
        let key = format!("L{level}");
        push(
            "wedges_tested",
            key.clone(),
            trace.tested(level).to_string(),
        );
        push(
            "wedges_pruned",
            key.clone(),
            trace.pruned(level).to_string(),
        );
        push(
            "prune_rate",
            key,
            trace
                .prune_rate(level)
                .map(fmt_ratio)
                .unwrap_or_else(|| "-".into()),
        );
    }
    push(
        "leaf_distances",
        "total".into(),
        trace.leaf_distances().to_string(),
    );
    push(
        "early_abandons",
        "total".into(),
        trace.early_abandons().to_string(),
    );
    for (bound, count) in trace.tightness().buckets() {
        let key = if bound.is_finite() {
            format!("le={bound:.1}")
        } else {
            "le=+Inf".into()
        };
        push("lb_tightness", key, count.to_string());
    }
    if let Some(mean) = trace.tightness().mean() {
        push("lb_tightness", "mean".into(), fmt_ratio(mean));
    }
    for (bound, count) in trace.abandon_depth().buckets() {
        let key = if bound.is_finite() {
            format!("le={bound:.1}")
        } else {
            "le=+Inf".into()
        };
        push("abandon_depth", key, count.to_string());
    }
    if let Some(mean) = trace.abandon_depth().mean() {
        push("abandon_depth", "mean".into(), fmt_ratio(mean));
    }
    for (i, c) in trace.k_timeline().iter().enumerate() {
        let tag = if c.probing { "probe" } else { "adopt" };
        push(
            "k_change",
            i.to_string(),
            format!("{tag}@{} {}->{}", c.seq, c.old, c.new),
        );
    }

    // Second pass: the same queries under the hierarchical profiler.
    // Identical answers and step counts (observer neutrality, proven in
    // tests/profiling.rs) — this pass only *attributes* the work.
    let mut profiler = Profiler::new();
    let mut profiled_steps = 0u64;
    for query in &pool[m..] {
        let mut counter = StepCounter::new();
        let engine = RotationQuery::new(query, Invariance::Rotation)?;
        engine.search(
            db,
            QueryKind::Nearest,
            &mut counter,
            &mut profiler,
            &mut NoBudget,
            None,
        )?;
        counter.add(wedge_startup_steps(n, engine.tree().max_k()));
        profiled_steps += counter.steps();
    }
    assert_eq!(
        profiled_steps, total_steps,
        "the profiler must not change the step count"
    );

    println!("\n--- query trace ---\n{}", trace.report());
    println!("--- profile ---\n{}", profiler.report());
    let mut registry = MetricsRegistry::new();
    trace.export_to(&mut registry);
    profiler.export_to(&mut registry);
    println!(
        "--- metrics (prometheus exposition) ---\n{}",
        registry.render_prometheus()
    );
    println!("--- spans ---\n{}", global_span_report());

    let dir = rotind_bench::results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let chrome = dir.join("trace_profile.json");
    match std::fs::write(&chrome, profiler.tree().to_chrome_trace()) {
        Ok(()) => println!("[saved {} — load it at chrome://tracing]", chrome.display()),
        Err(e) => eprintln!("[warn: could not save {}: {e}]", chrome.display()),
    }
    let folded = dir.join("trace_profile.folded");
    match std::fs::write(&folded, profiler.tree().to_folded()) {
        Ok(()) => println!(
            "[saved {} — flamegraph.pl {} > flame.svg]",
            folded.display(),
            folded.display()
        ),
        Err(e) => eprintln!("[warn: could not save {}: {e}]", folded.display()),
    }

    rotind_bench::emit("trace", &table);
    Ok(())
}

fn main() -> ExitCode {
    rotind_bench::error::exit(run())
}
