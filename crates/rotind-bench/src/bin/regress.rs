//! Performance-regression gate: measure a small deterministic workload
//! suite and compare it against `results/bench_baseline.json`.
//!
//! ```text
//! cargo run -p rotind-bench --release --bin regress                     # gate
//! cargo run -p rotind-bench --release --bin regress -- --update-baseline
//! cargo run -p rotind-bench --release --bin regress -- --baseline x.json
//! ROTIND_REGRESS_INJECT=1.2 cargo run ... --bin regress   # must exit 1
//! ```
//!
//! Exit codes: `0` pass, `1` regression; infrastructure failures use
//! the typed [`rotind_bench::BenchError`] codes (`2` usage, `3` I/O,
//! `4` malformed baseline JSON, `6` engine error), so CI can tell a
//! genuine slowdown from a broken harness. Step totals are
//! machine-independent and always gated at 2%; wall-clock medians are
//! gated at 30% only when the baseline host matches (see
//! `rotind_bench::regress` for the full policy).

use std::process::ExitCode;
use std::time::Instant;

use rotind_bench::regress::{
    apply_inject, compare, hostname, inject_factor, Baseline, Measurement,
};
use rotind_bench::BenchError;
use rotind_distance::dtw::DtwParams;
use rotind_distance::measure::Measure;
use rotind_index::engine::{Invariance, RotationQuery};
use rotind_index::QueryKind;
use rotind_obs::{NoBudget, NoopObserver};
use rotind_shape::dataset as shapes;
use rotind_ts::StepCounter;

/// Repeat a workload, keeping the (deterministic) step total of the
/// last run and the median wall-clock across runs.
fn run_entry(
    name: &str,
    deterministic: bool,
    repeats: usize,
    mut work: impl FnMut() -> Result<u64, BenchError>,
) -> Result<Measurement, BenchError> {
    let mut walls: Vec<u64> = Vec::with_capacity(repeats);
    let mut steps = 0u64;
    for _ in 0..repeats {
        let t = Instant::now();
        steps = work()?;
        walls.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    walls.sort_unstable();
    // `repeats` is a positive constant below, so the median index is valid.
    // rotind-lint: allow(no-index)
    let wall_ns = walls[walls.len() / 2];
    Ok(Measurement {
        name: name.to_string(),
        deterministic,
        steps,
        wall_ns,
    })
}

/// The gate's workload suite: fixed seeds, fixed sizes, so `num_steps`
/// is exactly reproducible across machines at a given quick setting.
fn measure_suite(quick: bool) -> Result<Vec<Measurement>, BenchError> {
    let (m, n, queries, repeats) = if quick {
        (200, 64, 3, 3)
    } else {
        (600, 128, 5, 5)
    };
    println!("regress suite: m = {m}, n = {n}, {queries} queries, {repeats} repeats");
    let pool = shapes::projectile_points(m + queries, n, 1906).items;
    // rotind-lint: allow(no-index)
    let db = &pool[..m];
    // rotind-lint: allow(no-index)
    let queries = &pool[m..];

    let euclid = run_entry("euclid_nearest", true, repeats, || {
        let mut total = 0u64;
        for query in queries {
            let mut counter = StepCounter::new();
            let engine = RotationQuery::new(query, Invariance::Rotation)?;
            engine.search(
                db,
                QueryKind::Nearest,
                &mut counter,
                &mut NoopObserver,
                &mut NoBudget,
                None,
            )?;
            total += counter.steps();
        }
        Ok(total)
    })?;

    let band = n / 25 + 1;
    let dtw = run_entry("dtw_nearest", true, repeats, || {
        let mut total = 0u64;
        for query in queries {
            let mut counter = StepCounter::new();
            let engine = RotationQuery::with_measure(
                query,
                Invariance::Rotation,
                Measure::Dtw(DtwParams::new(band)),
            )?;
            engine.search(
                db,
                QueryKind::Nearest,
                &mut counter,
                &mut NoopObserver,
                &mut NoBudget,
                None,
            )?;
            total += counter.steps();
        }
        Ok(total)
    })?;

    // Workers race on the shared best-so-far, so step totals vary run
    // to run: wall-clock only (deterministic = false).
    let parallel = run_entry("euclid_parallel4", false, repeats, || {
        for query in queries {
            let engine = RotationQuery::new(query, Invariance::Rotation)?;
            engine.search_parallel(
                db,
                QueryKind::Nearest,
                4,
                &mut StepCounter::new(),
                &mut NoopObserver,
                None,
            )?;
        }
        Ok(0)
    })?;

    Ok(vec![euclid, dtw, parallel])
}

const USAGE: &str = "regress [--update-baseline] [--baseline <path>]";

/// The gate proper. `Ok` carries the pass/regression verdict (exit `0`
/// or `1`); `Err` is an infrastructure failure with its class code.
fn run() -> Result<ExitCode, BenchError> {
    let mut update = false;
    let mut baseline_path: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--update-baseline" => update = true,
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(p.into()),
                None => return Err(BenchError::Usage(USAGE.into())),
            },
            _ => return Err(BenchError::Usage(USAGE.into())),
        }
    }
    let path =
        baseline_path.unwrap_or_else(|| rotind_bench::results_dir().join("bench_baseline.json"));

    let quick = rotind_bench::quick_mode();
    let host = hostname();
    let factor = inject_factor().map_err(BenchError::Usage)?;

    let mut entries = measure_suite(quick)?;
    // 1.0 is the exact "not set" sentinel from `inject_factor`.
    // rotind-lint: allow(float-eq)
    if factor != 1.0 {
        println!("applying synthetic slowdown factor {factor} (ROTIND_REGRESS_INJECT)");
        apply_inject(&mut entries, factor);
    }
    for e in &entries {
        println!(
            "  {:<18} steps = {:>12}  wall = {:>10.3} ms{}",
            e.name,
            e.steps,
            e.wall_ns as f64 / 1e6,
            if e.deterministic { "" } else { "  (wall-only)" }
        );
    }
    let current = Baseline {
        comment: format!(
            "captured on {host} (quick = {quick}); steps gate at 2% on every machine, \
             wall gate at 30% on this host only"
        ),
        host,
        quick,
        entries,
    };

    if update {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, current.to_json()).map_err(|e| BenchError::io(&path, e))?;
        println!("baseline written to {}", path.display());
        return Ok(ExitCode::SUCCESS);
    }

    let text = std::fs::read_to_string(&path).map_err(|e| {
        eprintln!("(capture a baseline with: regress --update-baseline)");
        BenchError::io(&path, e)
    })?;
    let baseline =
        Baseline::from_json(&text).map_err(|e| BenchError::json(&path, e.to_string()))?;

    println!(
        "comparing against {} (host {:?}, quick = {})",
        path.display(),
        baseline.host,
        baseline.quick
    );
    let failures = compare(&baseline, &current);
    if failures.is_empty() {
        println!("regress: OK — no regression against the baseline");
        Ok(ExitCode::SUCCESS)
    } else {
        for f in &failures {
            eprintln!("regress: REGRESSION: {f}");
        }
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(verdict) => verdict,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
