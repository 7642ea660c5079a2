//! # rotind-lint — the workspace's own static-analysis gate
//!
//! A zero-dependency linter enforcing the invariants that make the
//! paper's result trustworthy in production: exactness (no unsound float
//! comparison, every lower bound covered by a soundness test) and
//! no-panic serving paths (no `unwrap`, no raw indexing, no print-side
//! channels, no `unsafe`). Clippy cannot express these — they are
//! project semantics, not Rust semantics.
//!
//! The design is a hand-rolled lexer ([`lexer`]) feeding nine
//! token-pattern rules ([`rules`]), with a committed ratchet baseline
//! ([`baseline`]) so the gate could be introduced over a codebase with
//! pre-existing findings and only ever tightens. See DESIGN.md §9 for
//! the rule catalogue and rationale.
//!
//! Run it as `cargo run -p rotind-lint` (workspace gate mode) or with
//! explicit paths (fixture mode); `scripts/ci.sh` wires it between
//! clippy and the build.

#![forbid(unsafe_code)]

pub mod ast;
pub mod baseline;
pub mod callgraph;
pub mod dataflow;
pub mod effects;
pub mod findings;
pub mod interproc;
pub mod json;
pub mod lexer;
pub mod resolve;
pub mod rules;
pub mod sarif;
pub mod source;
pub mod symbols;
pub mod timing;
pub mod walker;

use std::collections::BTreeMap;
use std::path::Path;

/// A workspace scan's phase timings (microseconds), for the self-timing
/// snapshot in [`timing`].
#[derive(Debug, Clone, Copy)]
pub struct ScanTiming {
    /// Loading + lexing + parsing every file.
    pub parse_us: u64,
    /// All rules, including the interprocedural fixpoint.
    pub rules_us: u64,
    /// Files scanned.
    pub files: u64,
}

/// Everything a workspace scan produces: findings, phase timings and
/// the per-rule count of reasoned exemption comments honoured — the
/// latter is recorded in baseline schema v4 so exemption creep shows up
/// in diffs just like finding counts do.
pub struct WorkspaceScan {
    /// Raw findings (baseline not yet applied).
    pub findings: Vec<findings::Finding>,
    /// Phase timings for the lint wall-time gate.
    pub timing: ScanTiming,
    /// rule id → reasoned exemption comments in scope of that rule.
    pub exempted: BTreeMap<String, usize>,
}

/// Lint the whole workspace rooted at `root`; returns raw findings
/// (baseline not yet applied).
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<findings::Finding>> {
    lint_workspace_timed(root).map(|(f, _)| f)
}

/// [`lint_workspace`], also measuring how long each phase took — the
/// workspace gate feeds this into the lint wall-time gate.
pub fn lint_workspace_timed(root: &Path) -> std::io::Result<(Vec<findings::Finding>, ScanTiming)> {
    scan_workspace(root).map(|s| (s.findings, s.timing))
}

/// The full workspace scan: findings, phase timings and exemption
/// counts.
pub fn scan_workspace(root: &Path) -> std::io::Result<WorkspaceScan> {
    let t0 = std::time::Instant::now();
    let files = walker::load_workspace(root)?;
    let parse_us = us_since(t0);
    let t1 = std::time::Instant::now();
    let findings = rules::run_all(&files);
    let rules_us = us_since(t1);
    Ok(WorkspaceScan {
        findings,
        timing: ScanTiming {
            parse_us,
            rules_us,
            files: files.len() as u64,
        },
        exempted: exemption_counts(&files),
    })
}

/// Tally the reasoned exemption comments each availability/witness rule
/// honours, keyed by rule id. Empty-reason comments are *not* counted —
/// they are findings, not exemptions.
pub fn exemption_counts(files: &[source::SourceFile]) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    let (mut witness, mut panics, mut blocking) = (0usize, 0usize, 0usize);
    for f in files {
        let (w, p, b) = f.exemption_tally();
        witness += w;
        panics += p;
        blocking += b;
    }
    for (rule, n) in [
        (rules::lb_witness::ID, witness),
        (rules::no_panic_reachable::ID, panics),
        (rules::no_blocking_in_worker::ID, blocking),
    ] {
        if n > 0 {
            out.insert(rule.to_string(), n);
        }
    }
    out
}

#[allow(clippy::cast_possible_truncation)]
fn us_since(t: std::time::Instant) -> u64 {
    t.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// Lint explicit files or directories (fixture mode: snippets lint as
/// library code, no baseline).
pub fn lint_paths(
    root: &Path,
    paths: &[std::path::PathBuf],
) -> std::io::Result<Vec<findings::Finding>> {
    let files = walker::load_paths(root, paths)?;
    Ok(rules::run_all(&files))
}

/// The workspace root, derived from this crate's manifest directory
/// (`crates/rotind-lint` → two levels up). Works from any cwd.
pub fn workspace_root() -> &'static Path {
    static ROOT: &str = env!("CARGO_MANIFEST_DIR");
    Path::new(ROOT)
        .parent()
        .and_then(Path::parent)
        .unwrap_or(Path::new(ROOT))
}
