//! Integration tests for the linter: every rule against its bad/good
//! fixture pair, the ratchet baseline against a fresh workspace scan, and
//! the CLI binary's exit codes.

use rotind_lint::baseline;
use rotind_lint::effects::RootSet;
use rotind_lint::findings::{count_by_rule_and_file, witness_hashes, Finding};
use rotind_lint::resolve::GlobalIndex;
use rotind_lint::rules::ALL_RULES;
use rotind_lint::source::FileKind;
use rotind_lint::walker::load_workspace;
use rotind_lint::{lint_paths, lint_workspace, scan_workspace, workspace_root};
use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint_fixture(name: &str) -> Vec<Finding> {
    let path = fixture(name);
    assert!(path.exists(), "missing fixture {}", path.display());
    lint_paths(workspace_root(), &[path]).expect("fixture lint must not fail on I/O")
}

/// Each bad fixture must trip its own rule; each good fixture must be
/// completely clean under *all* rules, so the fixtures double as a
/// false-positive regression corpus.
fn assert_pair(rule: &str, bad: &str, good: &str) {
    let bad_findings = lint_fixture(bad);
    assert!(
        bad_findings.iter().any(|f| f.rule == rule),
        "{bad} should trip `{rule}`, got: {bad_findings:?}"
    );
    let good_findings = lint_fixture(good);
    assert!(
        good_findings.is_empty(),
        "{good} should be clean under every rule, got: {good_findings:?}"
    );
}

#[test]
fn no_panic_fixture_pair() {
    let findings = lint_fixture("no_panic_bad.rs");
    // unwrap, expect, panic!, unreachable! — all four call sites.
    assert_eq!(findings.iter().filter(|f| f.rule == "no-panic").count(), 4);
    assert_pair("no-panic", "no_panic_bad.rs", "no_panic_good.rs");
}

#[test]
fn no_index_fixture_pair() {
    let findings = lint_fixture("no_index_bad.rs");
    // xs[0], xs[i], xs[1..] — range-from indexing still panics.
    assert_eq!(findings.iter().filter(|f| f.rule == "no-index").count(), 3);
    assert_pair("no-index", "no_index_bad.rs", "no_index_good.rs");
}

#[test]
fn float_eq_fixture_pair() {
    assert_pair("float-eq", "float_eq_bad.rs", "float_eq_good.rs");
}

#[test]
fn counter_arith_fixture_pair() {
    let findings = lint_fixture("counter_arith_bad.rs");
    // step_count +=, tick -=, wrapping_add and fetch_add on counters.
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.rule == "counter-arith")
            .count(),
        4
    );
    assert_pair(
        "counter-arith",
        "counter_arith_bad.rs",
        "counter_arith_good.rs",
    );
}

#[test]
fn no_print_fixture_pair() {
    assert_pair("no-print", "no_print_bad.rs", "no_print_good.rs");
}

#[test]
fn todo_issue_fixture_pair() {
    let findings = lint_fixture("todo_issue_bad.rs");
    assert_eq!(
        findings.iter().filter(|f| f.rule == "todo-issue").count(),
        3
    );
    assert_pair("todo-issue", "todo_issue_bad.rs", "todo_issue_good.rs");
}

#[test]
fn no_wildcard_fixture_pair() {
    let findings = lint_fixture("no_wildcard_bad.rs");
    // `pub use …::*` and `pub(crate) use …::*`.
    assert_eq!(
        findings.iter().filter(|f| f.rule == "no-wildcard").count(),
        2
    );
    assert_pair("no-wildcard", "no_wildcard_bad.rs", "no_wildcard_good.rs");
}

#[test]
fn forbid_unsafe_fixture_pair() {
    assert_pair(
        "forbid-unsafe",
        "forbid_unsafe_bad/src/lib.rs",
        "forbid_unsafe_good/src/lib.rs",
    );
}

#[test]
fn lb_coverage_fixture_pair() {
    let findings = lint_fixture("lb_coverage_bad.rs");
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "lb-coverage")
        .collect();
    assert_eq!(hits.len(), 1, "only lb_orphan is uncovered: {hits:?}");
    assert!(hits[0].message.contains("lb_orphan"));
    assert_pair("lb-coverage", "lb_coverage_bad.rs", "lb_coverage_good.rs");
}

#[test]
fn lb_witness_fixture_pair() {
    let findings = lint_fixture("lb_witness_bad.rs");
    let hits: Vec<_> = findings.iter().filter(|f| f.rule == "lb-witness").collect();
    assert_eq!(hits.len(), 2, "bare fn + empty exemption: {hits:?}");
    assert!(hits.iter().any(|f| f.message.contains("lb_unwitnessed")));
    assert!(hits.iter().any(|f| f.message.contains("no reason")));
    assert_pair("lb-witness", "lb_witness_bad.rs", "lb_witness_good.rs");
}

#[test]
fn atomic_ordering_fixture_pair() {
    let findings = lint_fixture("atomic_ordering_bad.rs");
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "atomic-ordering")
        .collect();
    assert_eq!(hits.len(), 3, "two loads + one CAS: {hits:?}");
    assert!(
        hits.iter().any(|f| f.message.contains("via `let snapshot")),
        "the binding-mediated load must name its binding: {hits:?}"
    );
    assert_pair(
        "atomic-ordering",
        "atomic_ordering_bad.rs",
        "atomic_ordering_good.rs",
    );
}

#[test]
fn strict_dismissal_fixture_pair() {
    let findings = lint_fixture("strict_dismissal_bad.rs");
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "strict-dismissal")
        .collect();
    assert_eq!(hits.len(), 2, ">= r and best_so_far <=: {hits:?}");
    assert_pair(
        "strict-dismissal",
        "strict_dismissal_bad.rs",
        "strict_dismissal_good.rs",
    );
}

#[test]
fn exhaustive_invariance_fixture_pair() {
    let findings = lint_fixture("exhaustive_invariance_bad.rs");
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "exhaustive-invariance")
        .collect();
    assert_eq!(hits.len(), 2, "catch-all + missing variant: {hits:?}");
    assert!(
        hits.iter().any(|f| f.message.contains("RotationLimited")),
        "the missing variant must be named: {hits:?}"
    );
    assert_pair(
        "exhaustive-invariance",
        "exhaustive_invariance_bad.rs",
        "exhaustive_invariance_good.rs",
    );
}

/// The three parser false-positive regressions (`Self::` calls, UFCS
/// `<T as Trait>::f`, trait-default bodies): each good fixture used to
/// trip a rule purely because the parser could not see the form.
#[test]
fn ufcs_fixture_pair() {
    assert_pair("lb-witness", "ufcs_bad.rs", "ufcs_good.rs");
}

#[test]
fn self_qualified_fixture_pair() {
    assert_pair(
        "lb-witness",
        "self_qualified_bad.rs",
        "self_qualified_good.rs",
    );
}

#[test]
fn trait_default_fixture_pair() {
    assert_pair(
        "lb-coverage",
        "trait_default_bad.rs",
        "trait_default_good.rs",
    );
}

/// The interprocedural pair is a two-file fixture *crate*: the bound is
/// produced in `bounds.rs` and leaked in `scan.rs`, so the finding must
/// carry a witness path that crosses the file boundary.
#[test]
fn prune_only_interprocedural_fixture_pair() {
    let findings = lint_fixture("prune_only_bad");
    let hits: Vec<_> = findings.iter().filter(|f| f.rule == "prune-only").collect();
    assert!(
        hits.iter().any(|f| {
            f.path.ends_with("scan.rs")
                && !f.witness.is_empty()
                && f.witness.iter().any(|w| w.path.ends_with("bounds.rs"))
        }),
        "the scan.rs finding must witness back into bounds.rs: {hits:?}"
    );
    assert_pair("prune-only", "prune_only_bad", "prune_only_good");
}

/// The panic-certificate pair is a two-file fixture crate: a fn named
/// like a serve root launders an index through two helpers, the second
/// in a different file — the finding must compose the cross-file chain.
#[test]
fn no_panic_reachable_fixture_pair() {
    let findings = lint_fixture("no_panic_reachable_bad");
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "no-panic-reachable")
        .collect();
    assert!(
        hits.iter().any(|f| {
            f.path.ends_with("kernel.rs")
                && !f.witness.is_empty()
                && f.witness.iter().any(|w| w.path.ends_with("loop.rs"))
        }),
        "the kernel.rs finding must witness back into loop.rs: {hits:?}"
    );
    assert_pair(
        "no-panic-reachable",
        "no_panic_reachable_bad",
        "no_panic_reachable_good",
    );
}

/// The worker-blocking pair: a mutex taken two calls below the worker
/// loop, in a different file, with no allowlist comment.
#[test]
fn no_blocking_in_worker_fixture_pair() {
    let findings = lint_fixture("no_blocking_in_worker_bad");
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "no-blocking-in-worker")
        .collect();
    assert!(
        hits.iter().any(|f| {
            f.path.ends_with("metrics.rs")
                && !f.witness.is_empty()
                && f.witness.iter().any(|w| w.path.ends_with("loop.rs"))
        }),
        "the metrics.rs finding must witness back into loop.rs: {hits:?}"
    );
    assert_pair(
        "no-blocking-in-worker",
        "no_blocking_in_worker_bad",
        "no_blocking_in_worker_good",
    );
}

/// Acceptance check for the SARIF surface: the injected violation shows
/// up as a result with a `codeFlow` whose locations span both files.
#[test]
fn sarif_reports_a_multi_file_witness_path() {
    let out = Command::new(env!("CARGO_BIN_EXE_rotind-lint"))
        .args(["--format", "sarif"])
        .arg(fixture("prune_only_bad"))
        .output()
        .expect("spawn rotind-lint");
    assert_eq!(out.status.code(), Some(1), "injected violation must fail");
    let sarif = String::from_utf8_lossy(&out.stdout);
    assert!(sarif.contains("\"ruleId\": \"prune-only\""), "{sarif}");
    assert!(sarif.contains("\"codeFlows\""), "{sarif}");
    assert!(
        sarif.contains("prune_only_bad/bounds.rs") && sarif.contains("prune_only_bad/scan.rs"),
        "witness locations must span both files:\n{sarif}"
    );
}

/// Both availability rules must surface their composed root→site chain
/// as SARIF `codeFlows` spanning the fixture crate's files.
#[test]
fn sarif_code_flows_for_availability_rules_span_files() {
    for (fix, rule) in [
        ("no_panic_reachable_bad", "no-panic-reachable"),
        ("no_blocking_in_worker_bad", "no-blocking-in-worker"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_rotind-lint"))
            .args(["--format", "sarif"])
            .arg(fixture(fix))
            .output()
            .expect("spawn rotind-lint");
        assert_eq!(out.status.code(), Some(1), "{fix} must fail the gate");
        let sarif = String::from_utf8_lossy(&out.stdout);
        assert!(
            sarif.contains(&format!("\"ruleId\": \"{rule}\"")),
            "{sarif}"
        );
        assert!(sarif.contains("\"codeFlows\""), "{sarif}");
        assert!(
            sarif.contains(&format!("{fix}/loop.rs")),
            "codeFlow must reach back into the root file:\n{sarif}"
        );
    }
}

/// The committed ratchet file must be exactly what a fresh scan of the
/// workspace produces in canonical form — no stale counts, no hand edits.
/// (`--write-baseline` regenerates it; this test is what keeps it honest.)
#[test]
fn committed_baseline_matches_fresh_workspace_scan() {
    let root = workspace_root();
    let scan = scan_workspace(root).expect("workspace scan must not fail on I/O");
    let fresh = baseline::to_json(
        &count_by_rule_and_file(&scan.findings),
        &witness_hashes(&scan.findings),
        &scan.exempted,
    );
    let committed = std::fs::read_to_string(root.join(baseline::BASELINE_FILE))
        .expect("lint-baseline.json must be committed at the workspace root");
    assert_eq!(
        committed, fresh,
        "lint-baseline.json is stale; run `cargo run -p rotind-lint -- --write-baseline`"
    );
    // And the committed bytes must round-trip through the parser.
    let parsed = baseline::from_json(&committed).expect("committed baseline must parse");
    assert_eq!(parsed, count_by_rule_and_file(&scan.findings));
}

/// Every default availability root, and at least one `admissible-chain`
/// cascade root, must name a non-test library fn of the workspace. The
/// rules drop a root that matches nothing without a word, so a renamed
/// entry point would otherwise shrink the certificate silently.
#[test]
fn default_roots_resolve_to_workspace_fns() {
    let files = load_workspace(workspace_root()).expect("workspace load");
    let index = GlobalIndex::build(&files);
    let defined = |matches: &dyn Fn(&str) -> bool| {
        index.nodes.iter().any(|n| {
            !n.is_test
                && matches(&n.decl.name)
                && files
                    .get(n.file)
                    .is_some_and(|f| f.kind == FileKind::Library)
        })
    };
    let roots = RootSet::serve_default();
    for root in roots.panic_roots.iter().chain(&roots.worker_roots) {
        assert!(
            defined(&|name| name == root),
            "serve root `{root}` matches no non-test library fn"
        );
    }
    assert!(
        defined(&|name| name.starts_with("h_merge_cascade")),
        "no `h_merge_cascade*` fn for the admissible-chain rule to start from"
    );
}

/// Deliberately rule-violating fixture crates (the `_bad` trees under
/// `tests/fixtures/`) must never leak into the workspace scan — the
/// walker's single skip predicate is what keeps the baseline describing
/// rotind code only.
#[test]
fn bad_fixture_crates_never_leak_into_the_workspace_baseline() {
    let findings = lint_workspace(workspace_root()).expect("workspace scan");
    assert!(
        findings.iter().all(|f| !f.path.contains("fixtures")),
        "fixture findings leaked into the workspace scan"
    );
    let committed =
        std::fs::read_to_string(workspace_root().join(baseline::BASELINE_FILE)).expect("baseline");
    assert!(
        !committed.contains("fixtures"),
        "fixture paths leaked into the committed baseline"
    );
}

/// Workspace findings must all sit inside rules the baseline knows about,
/// and the burn-down satellites hold: no panic-family findings remain in
/// the three core crates, and the total stays far below the seed's count.
#[test]
fn burned_down_crates_stay_clean() {
    let findings = lint_workspace(workspace_root()).expect("workspace scan");
    for f in &findings {
        if f.rule != "no-panic" {
            continue;
        }
        for crate_dir in ["crates/rotind-ts/", "crates/rotind-envelope/"] {
            assert!(
                !f.path.starts_with(crate_dir),
                "no-panic regression in burned-down crate: {f:?}"
            );
        }
    }
    let panics = findings.iter().filter(|f| f.rule == "no-panic").count();
    assert!(panics < 238, "no-panic count crept back up: {panics}");
}

#[test]
fn binary_fails_on_bad_fixture_and_passes_on_good() {
    let bad = Command::new(env!("CARGO_BIN_EXE_rotind-lint"))
        .arg(fixture("no_panic_bad.rs"))
        .output()
        .expect("spawn rotind-lint");
    assert_eq!(bad.status.code(), Some(1), "bad fixture must exit 1");
    let good = Command::new(env!("CARGO_BIN_EXE_rotind-lint"))
        .arg(fixture("no_panic_good.rs"))
        .output()
        .expect("spawn rotind-lint");
    assert_eq!(good.status.code(), Some(0), "good fixture must exit 0");
}

#[test]
fn binary_workspace_gate_passes_against_committed_baseline() {
    let out = Command::new(env!("CARGO_BIN_EXE_rotind-lint"))
        .output()
        .expect("spawn rotind-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace gate must pass: {stdout}"
    );
    assert!(stdout.contains("lint gate: PASS"), "unexpected: {stdout}");
}

#[test]
fn binary_lists_every_rule() {
    let out = Command::new(env!("CARGO_BIN_EXE_rotind-lint"))
        .arg("--list")
        .output()
        .expect("spawn rotind-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in ALL_RULES {
        assert!(stdout.contains(rule.id), "--list missing {}", rule.id);
    }
    assert_eq!(ALL_RULES.len(), 18);
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_rotind-lint"))
        .arg("--bogus")
        .output()
        .expect("spawn rotind-lint");
    assert_eq!(out.status.code(), Some(2));
}
