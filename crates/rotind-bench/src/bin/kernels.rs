//! Microbenchmark of the scan's inner kernels — the Euclidean leaf, the
//! `LB_Keogh` clamp, the sliding extreme that widens wedges by the band,
//! and the DTW leaf — timed per backend: `seq` (the historical
//! per-element scalar loops) and `chunked` (the canonical lane-parallel
//! order in autovectorizable Rust; for the sliding extreme and DTW, the
//! block and band-major kernels).
//!
//! Inputs are deterministic mixed in/out series (some query points
//! inside the envelope, some out) at n = 64 / 256 / 1024, with an
//! infinite radius so every call runs the full accumulation — this
//! measures sustained kernel throughput, not abandon luck. A kernel's
//! backends are timed in turn within every sample, so a change in the
//! host's speed lands on all of them alike, and each cell reports its
//! fastest sample's ns/call (`SAMPLES` samples at full scale) and its
//! speedup against the scalar backend.
//!
//! Writes machine-readable `results/bench_kernels.json` for CI
//! trending; `ROTIND_QUICK=1` shrinks iteration counts for smoke runs.

use rotind_distance::dtw::{dtw_early_abandon, dtw_early_abandon_seq, DtwParams};
use rotind_distance::kernels;
use rotind_envelope::envelope::{sliding_max_into, sliding_max_into_seq, SlidingScratch};
use rotind_eval::report::Table;
use rotind_ts::StepCounter;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// Sizes the acceptance criteria are stated at.
const SIZES: [usize; 3] = [64, 256, 1024];

/// Interleaved samples per cell at full scale.
const SAMPLES: usize = 41;

/// Interleaved samples per cell under `ROTIND_QUICK`.
const QUICK_SAMPLES: usize = 5;

/// One timed cell.
struct Entry {
    kernel: &'static str,
    n: usize,
    backend: &'static str,
    ns_per_call: f64,
    speedup_vs_scalar: f64,
}

/// Deterministic pseudo-random series (same generator family as the
/// kernel unit tests): smooth enough to look like shape data, busy
/// enough that clamp gaps mix zero and non-zero lanes.
fn series(n: usize, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.37 + phase).sin() + 0.4 * (i as f64 * 0.91).cos())
        .collect()
}

/// Envelope around a phase-shifted series; the bench query crosses it
/// repeatedly, so roughly half the positions are inside (gap 0) and
/// half outside — the mixed regime the cascade actually sees.
fn envelope(n: usize) -> (Vec<f64>, Vec<f64>) {
    let mid = series(n, 1.3);
    let upper: Vec<f64> = mid.iter().map(|x| x + 0.25).collect();
    let lower: Vec<f64> = mid.iter().map(|x| x - 0.25).collect();
    (upper, lower)
}

/// The timed backends, the scalar reference first.
const BACKENDS: [&str; 2] = ["seq", "chunked"];

/// Time the backends of one kernel at one size and append the rows.
/// `run` is called with a backend tag of [`BACKENDS`] and must execute
/// one call of that backend's kernel. After one warmup batch each,
/// every sample times one batch of `iters` calls of every backend in
/// turn; a backend's time is its fastest sample's ns/call.
fn push_kernel(
    entries: &mut Vec<Entry>,
    kernel: &'static str,
    n: usize,
    iters: u32,
    samples: usize,
    mut run: impl FnMut(&'static str),
) {
    let mut batch = |backend: &'static str| -> f64 {
        let t = Instant::now();
        for _ in 0..iters {
            run(backend);
        }
        t.elapsed().as_nanos() as f64 / f64::from(iters)
    };
    for backend in BACKENDS {
        batch(backend);
    }
    let mut fastest = [f64::INFINITY; BACKENDS.len()];
    for _ in 0..samples {
        for (best, backend) in fastest.iter_mut().zip(BACKENDS) {
            *best = best.min(batch(backend));
        }
    }
    let [scalar_ns, _] = fastest;
    for (&ns_per_call, backend) in fastest.iter().zip(BACKENDS) {
        entries.push(Entry {
            kernel,
            n,
            backend,
            ns_per_call,
            speedup_vs_scalar: scalar_ns / ns_per_call,
        });
    }
}

fn measure(quick: bool) -> Vec<Entry> {
    let samples = if quick { QUICK_SAMPLES } else { SAMPLES };
    let mut entries = Vec::new();
    for n in SIZES {
        // Scale iterations so every sample touches a similar number of
        // elements regardless of n.
        let base = if quick { 100_000 } else { 400_000 };
        let iters = u32::try_from((base / n).max(500)).unwrap_or(500);

        let a = series(n, 0.0);
        let b = series(n, 2.2);
        let (upper, lower) = envelope(n);
        let mut counter = StepCounter::new();
        let r = f64::INFINITY;

        macro_rules! accum_kernel {
            ($backend_mod:ident, $be:ident, $call:expr) => {{
                if $be == "seq" {
                    use kernels::seq as $backend_mod;
                    let _ = black_box($call);
                } else {
                    use kernels::chunked as $backend_mod;
                    let _ = black_box($call);
                }
            }};
        }

        push_kernel(&mut entries, "euclid", n, iters, samples, |be| {
            accum_kernel!(
                bk,
                be,
                bk::sq_dist_abandon(black_box(&a), black_box(&b), r, &mut counter)
            )
        });
        push_kernel(&mut entries, "lb_keogh_clamp", n, iters, samples, |be| {
            accum_kernel!(
                bk,
                be,
                bk::clamp_sq_abandon(
                    black_box(&a),
                    black_box(&upper),
                    black_box(&lower),
                    r,
                    &mut counter
                )
            )
        });
        // Sliding extreme: seq = the historical monotonic deque,
        // chunked = the van Herk/Gil–Werman kernel.
        let band = (n / 16).max(1);
        let mut win = SlidingScratch::new();
        let mut out = Vec::new();
        push_kernel(&mut entries, "sliding_max", n, iters, samples, |be| {
            let kernel = if be == "seq" {
                sliding_max_into_seq
            } else {
                sliding_max_into
            };
            kernel(black_box(&a), band, &mut win, &mut out);
            black_box(&out);
        });

        // Early-abandoning DTW at band 5, the leaf of every DTW scan:
        // seq = the historical cell-by-cell loop, chunked = the
        // band-major kernel (finite inputs, so its finiteness pass and
        // compare-min recurrence).
        let dtw = DtwParams::new(5);
        push_kernel(&mut entries, "dtw_band5", n, iters, samples, |be| {
            let kernel = if be == "seq" {
                dtw_early_abandon_seq
            } else {
                dtw_early_abandon
            };
            black_box(kernel(black_box(&a), black_box(&b), dtw, r, &mut counter));
        });
    }
    entries
}

fn render_table(entries: &[Entry]) -> Table {
    let mut table = Table::new(["kernel", "n", "backend", "ns/call", "speedup vs scalar"]);
    for e in entries {
        table.push_row([
            e.kernel.to_string(),
            e.n.to_string(),
            e.backend.to_string(),
            format!("{:.1}", e.ns_per_call),
            format!("{:.2}x", e.speedup_vs_scalar),
        ]);
    }
    table
}

fn write_json(entries: &[Entry], quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"comment\": \"scan kernel throughput (wedge bound and DTW leaf); fastest \
         ns/call of {} samples, backends interleaved per sample, infinite radius \
         (full accumulation), mixed in/out data\",",
        if quick { QUICK_SAMPLES } else { SAMPLES }
    );
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"lanes\": {},", kernels::LANES);
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"kernel\": \"{}\", \"n\": {}, \"backend\": \"{}\", \
             \"ns_per_call\": {:.2}, \"speedup_vs_scalar\": {:.3}}}",
            e.kernel, e.n, e.backend, e.ns_per_call, e.speedup_vs_scalar
        );
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let quick = rotind_bench::quick_mode();
    println!(
        "kernel bench: sizes {SIZES:?}, backends seq/chunked{}",
        if quick { " (quick)" } else { "" },
    );
    let entries = measure(quick);
    println!("{}", render_table(&entries).render());

    let json = write_json(&entries, quick);
    let path = rotind_bench::results_dir().join("bench_kernels.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => {
            eprintln!("[error: could not save {}: {e}]", path.display());
            return ExitCode::from(3);
        }
    }
    ExitCode::SUCCESS
}
