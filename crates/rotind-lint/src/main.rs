//! The `rotind-lint` binary — the CI gate.
//!
//! ```text
//! rotind-lint                      # workspace scan, compare against lint-baseline.json
//! rotind-lint --write-baseline     # workspace scan, re-ratchet the baseline
//! rotind-lint --write-timing       # workspace scan, snapshot results/lint_timing.json
//! rotind-lint --no-baseline        # workspace scan, report every finding
//! rotind-lint --self-check         # ratchet-gate the linter's own crate only
//! rotind-lint <path>…              # lint explicit files/dirs as library code (fixture mode)
//! rotind-lint --format sarif …     # SARIF 2.1.0 findings on stdout (also: human, json)
//! rotind-lint --json …             # shorthand for --format json
//! rotind-lint --list               # print the rule catalogue
//! ```
//!
//! The default workspace scan also runs the lint wall-time gate against
//! the committed `results/lint_timing.json` (same-host only; see
//! [`rotind_lint::timing`]).
//!
//! Exit codes: 0 clean / at-or-below baseline, 1 findings, ratchet or
//! timing regression, 2 usage or I/O error.

use rotind_lint::baseline::{self, Counts, BASELINE_FILE};
use rotind_lint::effects::RootSet;
use rotind_lint::findings::{
    count_by_rule_and_file, render_human, render_json, witness_hashes, Finding,
};
use rotind_lint::rules::ALL_RULES;
use rotind_lint::{lint_paths_rooted, sarif, scan_workspace, timing, workspace_root, ScanTiming};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Human,
    Json,
    Sarif,
}

struct Options {
    format: Format,
    write_baseline: bool,
    write_timing: bool,
    no_baseline: bool,
    self_check: bool,
    list: bool,
    paths: Vec<PathBuf>,
    /// The availability root set the effect rules certify. Starts from
    /// [`RootSet::serve_default`] — the worker loop, the wire codec,
    /// `IndexSnapshot::execute` and the parallel scan —
    /// because that is the surface PR 8 exposed to live traffic;
    /// `--panic-root` / `--worker-root` append further entry points
    /// without recompiling.
    roots: RootSet,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        format: Format::Human,
        write_baseline: false,
        write_timing: false,
        no_baseline: false,
        self_check: false,
        list: false,
        paths: Vec::new(),
        roots: RootSet::serve_default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let arg = arg.as_str();
        if arg == "--panic-root" || arg == "--worker-root" {
            let name = args
                .next()
                .ok_or(format!("{arg} needs a function name\n\n{USAGE}"))?;
            if arg == "--panic-root" {
                opts.roots.panic_roots.push(name);
            } else {
                opts.roots.worker_roots.push(name);
            }
            continue;
        }
        if let Some(value) = arg.strip_prefix("--format") {
            let value = match value.strip_prefix('=') {
                Some(v) => v.to_string(),
                None if value.is_empty() => args
                    .next()
                    .ok_or(format!("--format needs a value\n\n{USAGE}"))?,
                None => return Err(format!("unknown flag `{arg}`\n\n{USAGE}")),
            };
            opts.format = match value.as_str() {
                "human" => Format::Human,
                "json" => Format::Json,
                "sarif" => Format::Sarif,
                other => {
                    return Err(format!(
                        "unknown format `{other}` (expected human, json or sarif)\n\n{USAGE}"
                    ))
                }
            };
            continue;
        }
        match arg {
            "--json" => opts.format = Format::Json,
            "--write-baseline" => opts.write_baseline = true,
            "--write-timing" => opts.write_timing = true,
            "--no-baseline" => opts.no_baseline = true,
            "--self-check" => opts.self_check = true,
            "--list" => opts.list = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`\n\n{USAGE}"))
            }
            path => opts.paths.push(PathBuf::from(path)),
        }
    }
    if (opts.write_baseline || opts.write_timing) && !opts.paths.is_empty() {
        return Err("--write-baseline/--write-timing only apply to the workspace scan".to_string());
    }
    if opts.self_check
        && (opts.write_baseline || opts.write_timing || opts.no_baseline || !opts.paths.is_empty())
    {
        return Err(
            "--self-check runs the workspace scan against the committed ratchet; \
                    it combines only with --format"
                .to_string(),
        );
    }
    Ok(opts)
}

const USAGE: &str = "usage: rotind-lint [--format human|json|sarif] \
                     [--write-baseline | --write-timing | --no-baseline | --self-check | --list] \
                     [--panic-root fn]… [--worker-root fn]… [path…]";

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if opts.list {
        for r in ALL_RULES {
            println!("{:<14} {}", r.id, r.summary);
        }
        return ExitCode::SUCCESS;
    }
    match run(&opts) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("rotind-lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(opts: &Options) -> Result<bool, String> {
    let root = workspace_root();

    // Fixture mode: lint exactly the given paths, no ratchet.
    if !opts.paths.is_empty() {
        let findings =
            lint_paths_rooted(root, &opts.paths, &opts.roots).map_err(|e| e.to_string())?;
        report(&findings, opts.format);
        return Ok(findings.is_empty());
    }

    let scan = scan_workspace(root, &opts.roots).map_err(|e| e.to_string())?;
    let (findings, exempted) = (scan.findings, scan.exempted);
    let fresh_timing = measure(&findings, &scan.timing);

    if opts.self_check {
        return self_check(root, &findings, opts.format);
    }

    if opts.no_baseline {
        report(&findings, opts.format);
        if opts.format == Format::Human {
            summary(&findings);
        }
        return Ok(findings.is_empty());
    }

    let baseline_path = root.join(BASELINE_FILE);
    if opts.write_baseline {
        let counts = count_by_rule_and_file(&findings);
        let witness = witness_hashes(&findings);
        std::fs::write(
            &baseline_path,
            baseline::to_json(&counts, &witness, &exempted),
        )
        .map_err(|e| e.to_string())?;
        println!(
            "wrote {} ({} findings across {} rules)",
            baseline_path.display(),
            findings.len(),
            counts.len()
        );
    }
    if opts.write_timing {
        let timing_path = root.join(timing::TIMING_FILE);
        if let Some(dir) = timing_path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(&timing_path, fresh_timing.to_json()).map_err(|e| e.to_string())?;
        println!(
            "wrote {} (host {}, total {} µs)",
            timing_path.display(),
            fresh_timing.host,
            fresh_timing.total_us
        );
    }
    if opts.write_baseline || opts.write_timing {
        return Ok(true);
    }

    let committed = std::fs::read_to_string(&baseline_path).map_err(|e| {
        format!(
            "cannot read {} ({e}); run `cargo run -p rotind-lint -- --write-baseline` once",
            baseline_path.display()
        )
    })?;
    let committed = baseline::from_json(&committed)?;
    let cmp = baseline::compare(&findings, &committed);

    match opts.format {
        Format::Human => {}
        Format::Json => print!("{}", render_json(&findings)),
        Format::Sarif => print!("{}", sarif::render(&findings)),
    }
    let mut status = String::new();
    for (rule, path, permitted, count) in &cmp.regressions {
        let _ = writeln!(
            status,
            "RATCHET {rule}: {path} has {count} finding(s), baseline allows {permitted}"
        );
        // Show the individual findings of the offending pair so the
        // developer sees candidates without re-running in --no-baseline.
        for f in findings
            .iter()
            .filter(|f| f.rule == rule && &f.path == path)
        {
            let _ = writeln!(status, "  {}:{}: {}", f.path, f.line, f.message);
        }
    }
    for (rule, path, permitted, count) in &cmp.improvements {
        let _ = writeln!(
            status,
            "improved {rule}: {path} is down to {count} (baseline {permitted}) — \
             re-ratchet with `cargo run -p rotind-lint -- --write-baseline`"
        );
    }
    if cmp.is_pass() {
        let _ = writeln!(
            status,
            "lint gate: PASS ({} finding(s), all within the committed ratchet)",
            findings.len()
        );
    } else {
        let _ = writeln!(
            status,
            "lint gate: FAIL ({} (rule, file) pair(s) above the ratchet)",
            cmp.regressions.len()
        );
    }
    let timing_ok = timing_gate(root, &fresh_timing, &mut status)?;
    emit_status(&status, opts.format);
    Ok(cmp.is_pass() && timing_ok)
}

/// Package a scan's phase timings as a [`timing::Timing`] snapshot.
fn measure(findings: &[Finding], scan: &ScanTiming) -> timing::Timing {
    timing::Timing {
        host: timing::hostname(),
        files: scan.files,
        findings: findings.len() as u64,
        parse_us: scan.parse_us,
        rules_us: scan.rules_us,
        total_us: scan.parse_us.saturating_add(scan.rules_us),
    }
}

/// Run the lint wall-time gate against the committed snapshot,
/// appending its verdict to `status`. Missing snapshot and host
/// mismatch are graceful skips; only a same-host overrun fails.
fn timing_gate(
    root: &std::path::Path,
    fresh: &timing::Timing,
    status: &mut String,
) -> Result<bool, String> {
    let timing_path = root.join(timing::TIMING_FILE);
    let Ok(text) = std::fs::read_to_string(&timing_path) else {
        let _ = writeln!(
            status,
            "timing gate: SKIP (no committed {})",
            timing::TIMING_FILE
        );
        return Ok(true);
    };
    let committed =
        timing::Timing::from_json(&text).map_err(|e| format!("{}: {e}", timing_path.display()))?;
    let factor = timing::inject_factor()?;
    let mut probe = fresh.clone();
    probe.total_us = scale(probe.total_us, factor);
    match timing::gate(&probe, &committed) {
        timing::Verdict::Pass => {
            let _ = writeln!(
                status,
                "timing gate: PASS ({} µs, committed {} µs on this host)",
                probe.total_us, committed.total_us
            );
            Ok(true)
        }
        timing::Verdict::Skip(reason) => {
            let _ = writeln!(status, "timing gate: SKIP ({reason})");
            Ok(true)
        }
        timing::Verdict::Fail(msg) => {
            let _ = writeln!(status, "TIMING {msg}");
            let _ = writeln!(status, "timing gate: FAIL");
            Ok(false)
        }
    }
}

/// Multiply a microsecond count by the inject factor (saturating).
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn scale(us: u64, factor: f64) -> u64 {
    let scaled = (us as f64) * factor;
    if scaled.is_finite() && scaled > 0.0 {
        scaled.min((u64::MAX / 2) as f64) as u64
    } else {
        0
    }
}

/// `--self-check`: gate only the linter's own crate against the matching
/// slice of the committed ratchet. CI runs this as a fast sanity step —
/// a linter that cannot keep its own house clean has no business gating
/// anyone else's.
fn self_check(
    root: &std::path::Path,
    findings: &[Finding],
    format: Format,
) -> Result<bool, String> {
    const SELF: &str = "crates/rotind-lint/";
    let own: Vec<Finding> = findings
        .iter()
        .filter(|f| f.path.starts_with(SELF))
        .cloned()
        .collect();
    let baseline_path = root.join(BASELINE_FILE);
    let committed = std::fs::read_to_string(&baseline_path).map_err(|e| {
        format!(
            "cannot read {} ({e}); run `cargo run -p rotind-lint -- --write-baseline` once",
            baseline_path.display()
        )
    })?;
    let committed = baseline::from_json(&committed)?;
    let own_baseline: Counts = committed
        .into_iter()
        .map(|(rule, files)| {
            (
                rule,
                files
                    .into_iter()
                    .filter(|(path, _)| path.starts_with(SELF))
                    .collect(),
            )
        })
        .collect();
    let cmp = baseline::compare(&own, &own_baseline);
    match format {
        Format::Human => {}
        Format::Json => print!("{}", render_json(&own)),
        Format::Sarif => print!("{}", sarif::render(&own)),
    }
    let mut status = String::new();
    for (rule, path, permitted, count) in &cmp.regressions {
        let _ = writeln!(
            status,
            "RATCHET {rule}: {path} has {count} finding(s), baseline allows {permitted}"
        );
        for f in own.iter().filter(|f| f.rule == rule && &f.path == path) {
            let _ = writeln!(status, "  {}:{}: {}", f.path, f.line, f.message);
        }
    }
    if cmp.is_pass() {
        let _ = writeln!(
            status,
            "self-check: PASS ({} finding(s) in {SELF}, all within the committed ratchet)",
            own.len()
        );
    } else {
        let _ = writeln!(
            status,
            "self-check: FAIL ({} (rule, file) pair(s) above the ratchet)",
            cmp.regressions.len()
        );
    }
    emit_status(&status, format);
    Ok(cmp.is_pass())
}

/// Gate and ratchet lines go to stdout in human mode, but to stderr
/// when the caller asked for a machine format — so `--format sarif`
/// leaves a parseable document on stdout while the verdict stays
/// visible in the terminal or CI log.
fn emit_status(status: &str, format: Format) {
    match format {
        Format::Human => print!("{status}"),
        Format::Json | Format::Sarif => eprint!("{status}"),
    }
}

fn report(findings: &[Finding], format: Format) {
    match format {
        Format::Human => print!("{}", render_human(findings)),
        Format::Json => print!("{}", render_json(findings)),
        Format::Sarif => print!("{}", sarif::render(findings)),
    }
}

fn summary(findings: &[Finding]) {
    let counts = count_by_rule_and_file(findings);
    for (rule, files) in &counts {
        let total: usize = files.values().sum();
        println!(
            "{rule:<14} {total:>4} finding(s) in {} file(s)",
            files.len()
        );
    }
}
