//! Closed-loop end-to-end and per-layer benchmark of the rotind query
//! service. See `README.md` in this directory.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exit codes: 0 when every reply matched the oracle, 1 when one did
//! not (the result line is still printed), 2 for bad arguments, 3 when
//! the run could not complete (no result line).

mod oracle;
mod serve;
mod stats;
mod trace;
mod workload;
mod yardstick;

use oracle::Oracle;
use rotind_index::{CascadeConfig, IndexSnapshot};
use rotind_serve::ServeConfig;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Fnv, Stream, Workload};
use yardstick::HostSpeed;

/// Cold starts timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 101;

/// Where the traced pass writes its spans, relative to the working
/// directory.
const SPAN_DIR: &str = ".servebench-out";

const USAGE: &str = "usage: servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::workload(&value)
                        .ok_or(bad(&format!("expected one of {:?}", workload::NAMES)))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or(bad("not a whole number of seconds >= 1"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(3)
        }
    }
}

/// One metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Run one workload; `Ok(false)` when some reply was wrong.
fn run(args: &Args) -> Result<bool, String> {
    let w = &args.workload;
    let seed = args.seed;
    let config = ServeConfig::default();
    println!(
        "servebench: workload={} seed={seed} seconds={} trace={}",
        w.name,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "context: nproc={} cpu=\"{}\" rustc=\"{}\" open_files_limit={}",
        std::thread::available_parallelism().map_or(1, usize::from),
        proc_line("/proc/cpuinfo", "model name").unwrap_or_default(),
        env!("SERVEBENCH_RUSTC_VERSION"),
        proc_line("/proc/self/limits", "Max open files")
            .and_then(|limits| limits.split_whitespace().next().map(str::to_string))
            .unwrap_or_default(),
    );
    println!(
        "server: workers={} queue_depth={} batch={} cascade={:?}",
        config.workers,
        config.queue_depth,
        config.batch,
        CascadeConfig::from_env()
    );

    let started = Instant::now();
    let inputs = workload::inputs(w, seed);
    let oracle = Oracle::build(w, &inputs)?;
    let mut db_hash = Fnv::default();
    for item in &inputs.db {
        db_hash.floats(item);
    }
    let stream = Stream {
        workload: w,
        seed,
        inputs: &inputs,
        oracle: &oracle,
    };
    let mut stream_hash = Fnv::default();
    for g in 0..w.traced_requests.max(w.warmup_per_connection) {
        stream_hash.bytes(&rotind_serve::wire::encode_request(&stream.get(g).2));
    }
    println!(
        "inputs: m={} n={} base_shapes={} connections={} reconnect_every={:?} db_fnv={:016x} \
         stream_fnv={:016x} (inputs and oracle {:.2} s)",
        w.m,
        w.n,
        w.bases,
        w.connections,
        w.reconnect_every,
        db_hash.0,
        stream_hash.0,
        started.elapsed().as_secs_f64()
    );

    let io = |e: std::io::Error| e.to_string();
    let (setup, mut server) =
        serve::cold_starts(SETUP_REPS, || inputs.db.clone(), &config).map_err(io)?;
    let window = Duration::from_secs(args.seconds);
    let looped = serve::closed_loop(server.addr(), stream, window).map_err(io)?;
    let view = serve::server_view(&server).map_err(io)?;
    server.shutdown();
    drop(server);
    let peak_rss_mb = serve::peak_rss_mb().map_err(io)?;

    // Raw client latencies, and the same scaled to the nominal host
    // by the yardstick samples around each reply.
    let speed = HostSpeed::new(looped.yardstick.clone());
    let raw: Vec<f64> = looped.timed.iter().map(|r| r.ms).collect();
    let scaled: Vec<f64> = looped
        .timed
        .iter()
        .map(|r| speed.scale_at(r.at_s).map(|s| r.ms * s))
        .collect::<Option<_>>()
        .ok_or("no yardstick sample in the window")?;
    // The slow queries: each distinct query (class and base shape; a
    // shape's rotations cost alike) gets the median of its scaled
    // times, and the tail is the 90th percentile of those medians.
    // Unlike a percentile over all requests, a passing stall of the
    // host does not set it.
    let mut by_query: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    for (r, &ms) in looped.timed.iter().zip(&scaled) {
        by_query
            .entry((r.planned.class, r.planned.base))
            .or_default()
            .push(ms);
    }
    let query_medians: Vec<f64> = by_query.values().filter_map(|v| stats::median(v)).collect();
    let samples = raw.len();
    let none = "no request completed in the window";
    let (p50, p90, slow_queries) = (
        stats::median(&scaled).ok_or(none)?,
        stats::percentile(&scaled, 0.9).ok_or(none)?,
        stats::percentile(&query_medians, 0.9).ok_or(none)?,
    );
    let (raw_p50, raw_p90) = (
        stats::median(&raw).ok_or(none)?,
        stats::percentile(&raw, 0.9).ok_or(none)?,
    );
    // In a closed loop every connection always waits for a reply, so
    // replies per second of client-observed time, times the number of
    // connections, is the rate they reach; the yardstick and the
    // oracle check run outside that time.
    let rate = |ms: &[f64]| {
        looped.correct_timed as f64 * w.connections as f64 / (ms.iter().sum::<f64>() / 1e3)
    };
    let (throughput, raw_throughput) = (rate(&scaled), rate(&raw));
    let setup_s = stats::median(&setup).ok_or("no cold start ran")?;
    let tail = stats::tail(&raw);
    println!(
        "closed loop: samples={samples} over {} s; raw latency p50 {raw_p50:.4} ms, p90 \
         {raw_p90:.4} ms, tail {}; raw throughput {raw_throughput:.3} q/s",
        args.seconds,
        tail.map_or("n/a".to_string(), |t| format!(
            "p{:.2} {:.4} ms ({} samples, {} beyond)",
            t.percentile,
            t.value,
            t.samples,
            stats::TAIL_BEYOND
        )),
    );
    println!(
        "yardstick: {} samples in the window, median {:.4} ms (nominal {} ms); host ran at \
         {:.3} of nominal speed; scaled p50 {p50:.4} ms, p90 {p90:.4} ms, p90 over {} \
         queries' medians {slow_queries:.4} ms, throughput {throughput:.3} q/s",
        speed.len(),
        speed.median_ms().unwrap_or(f64::NAN),
        yardstick::NOMINAL_MS,
        yardstick::NOMINAL_MS / speed.median_ms().unwrap_or(f64::NAN),
        query_medians.len(),
    );
    println!(
        "setup: median {:.4} ms of {} cold starts; peak rss {peak_rss_mb:.2} MiB",
        setup_s * 1e3,
        setup.len(),
    );
    println!(
        "server: queue wait p50 {:.4} ms, tail {:.4} ms; service p50 {:.4} ms; connections {}; \
         open fds after {}",
        view.queue_wait_p50_ms,
        view.queue_wait_tail_ms,
        view.service_p50_ms,
        view.connections,
        view.open_fds_after
    );
    let mut attempted = looped.attempted;
    let mut failed = looped.failed;
    if let Some(why) = &looped.first_failure {
        println!(
            "FAILED: {} of {} requests; first: {why}",
            looped.failed, looped.attempted
        );
    }

    let metrics = if args.trace {
        let snapshot = IndexSnapshot::new(inputs.db.clone()).map_err(|e| e.to_string())?;
        let traced = trace::traced_pass(stream, &snapshot)?;
        attempted += traced.attempted;
        failed += traced.failed;
        if let Some(why) = &traced.first_failure {
            println!("FAILED (traced): {why}");
        }
        println!(
            "traced: requests={} counts: {}",
            traced.attempted, traced.counts
        );
        let path = format!("{SPAN_DIR}/spans-{}-seed{seed}.jsonl", w.name);
        std::fs::create_dir_all(SPAN_DIR).map_err(io)?;
        std::fs::write(&path, trace::spans_jsonl(&traced.spans)).map_err(io)?;
        println!("traced: {} spans written to {path}", traced.spans.len());

        let mut metrics = vec![
            Metric::new("server.queue_wait_p50_ms", view.queue_wait_p50_ms, "ms"),
            Metric::new("server.queue_wait_tail_ms", view.queue_wait_tail_ms, "ms"),
            Metric::new("server.service_p50_ms", view.service_p50_ms, "ms"),
            Metric::new(
                "server.transport_p50_ms",
                raw_p50 - view.queue_wait_p50_ms - view.service_p50_ms - traced.codec_ms,
                "ms",
            ),
            Metric::new("server.connections", view.connections as f64, "count"),
            Metric::new("server.open_fds_after", view.open_fds_after as f64, "count"),
        ];
        metrics.extend(traced.metrics);
        metrics
    } else {
        vec![
            Metric::new("latency_p50_ms", p50, "ms"),
            Metric::new("latency_slow_queries_ms", slow_queries, "ms"),
            Metric::new("throughput_qps", throughput, "1/s"),
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        ]
    };
    for m in &metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = failed == 0;
    println!("{}", result_line(correct, attempted, failed, &metrics)?);
    Ok(correct)
}

/// The JSON result line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

/// The rest of the first line of `path` that starts with `key`, with
/// the separating blanks and colon removed.
fn proc_line(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let rest = text.lines().find_map(|line| line.strip_prefix(key))?;
    Some(rest.trim_start().trim_start_matches(':').trim().to_string())
}
