//! The rule engine: eighteen project-specific passes over lexed source.
//!
//! Nine rules are token-pattern passes; four (`lb-witness`,
//! `atomic-ordering`, `strict-dismissal`, `exhaustive-invariance`) are
//! semantic — they run on the [`crate::ast`] tree with the
//! [`crate::dataflow`] walk, because "a load feeds a comparison" or
//! "this match names every variant" is invisible to a flat token
//! stream. Five are interprocedural: `prune-only`, `admissible-chain`
//! and `shared-atomic-protocol` consume the bound-taint analysis
//! ([`crate::interproc`]), while `no-panic-reachable` and
//! `no-blocking-in-worker` consume the effect summaries
//! ([`crate::effects`]) rooted at the serve entry set. Every rule is a
//! pure function from file context to findings; the engine applies
//! file-kind gating and the `// rotind-lint: allow(rule)` escape
//! comments centrally, so individual rules stay single-purpose. See
//! DESIGN.md §9/§11/§16 for the rationale of each rule and its tie to
//! the paper's exactness and the service's availability invariants.

use crate::findings::Finding;
use crate::source::SourceFile;

pub mod admissible_chain;
pub mod atomic_ordering;
pub mod counter_arith;
pub mod exhaustive_invariance;
pub mod float_eq;
pub mod forbid_unsafe;
pub mod lb_coverage;
pub mod lb_witness;
pub mod no_blocking_in_worker;
pub mod no_index;
pub mod no_panic;
pub mod no_panic_reachable;
pub mod no_print;
pub mod no_wildcard;
pub mod prune_only;
pub mod shared_atomic_protocol;
pub mod strict_dismissal;
pub mod todo_issue;

/// Static description of a rule, for `--list` and documentation.
pub struct RuleInfo {
    /// Stable rule id, used in reports, allow comments and the baseline.
    pub id: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// Every rule the engine knows, in report order.
pub const ALL_RULES: &[RuleInfo] = &[
    RuleInfo {
        id: no_panic::ID,
        summary: "no unwrap/expect/panic! in non-test library code",
    },
    RuleInfo {
        id: no_index::ID,
        summary: "no panicking slice/array indexing in non-test library code",
    },
    RuleInfo {
        id: float_eq::ID,
        summary: "no ==/!= against float literals, no partial_cmp(..).unwrap() comparators",
    },
    RuleInfo {
        id: lb_coverage::ID,
        summary: "every public lb_*/‥lower_bound fn must be referenced by a test",
    },
    RuleInfo {
        id: counter_arith::ID,
        summary: "counter/step arithmetic must use saturating or checked ops",
    },
    RuleInfo {
        id: no_print::ID,
        summary: "no println!/eprintln!/stdout in library crates; route telemetry via rotind-obs",
    },
    RuleInfo {
        id: forbid_unsafe::ID,
        summary: "every crate root must carry #![forbid(unsafe_code)]",
    },
    RuleInfo {
        id: todo_issue::ID,
        summary: "to-do / fix-me comments must reference an issue",
    },
    RuleInfo {
        id: no_wildcard::ID,
        summary: "no `pub use …::*` wildcard re-exports",
    },
    RuleInfo {
        id: lb_witness::ID,
        summary: "every lb_*/‥lower_bound fn needs a debug_assert admissibility witness or a witness-exempt reason",
    },
    RuleInfo {
        id: atomic_ordering::ID,
        summary: "Relaxed atomic loads must not feed comparisons; CAS on a shared atomic needs AcqRel/Acquire",
    },
    RuleInfo {
        id: strict_dismissal::ID,
        summary: "dismissing branches must compare strictly (`>`) against the radius/best-so-far, never `>=`/`<=`",
    },
    RuleInfo {
        id: exhaustive_invariance::ID,
        summary: "matches on `Invariance` must name every variant — no `_` or binding catch-all arm",
    },
    RuleInfo {
        id: prune_only::ID,
        summary: "bound-tainted values may prune or feed observers, never become returned distances or best-so-far updates (interprocedural)",
    },
    RuleInfo {
        id: admissible_chain::ID,
        summary: "every tier reachable from h_merge_cascade* must carry an admissibility witness or exemption (call-graph level)",
    },
    RuleInfo {
        id: shared_atomic_protocol::ID,
        summary: "shared-radius CAS cycles must follow load(Acquire) → compare → compare_exchange_weak(AcqRel, Acquire), across helper fns",
    },
    RuleInfo {
        id: no_panic_reachable::ID,
        summary: "no may-panic site reachable from the serve roots without a reasoned panic-exempt (call-graph level)",
    },
    RuleInfo {
        id: no_blocking_in_worker::ID,
        summary: "no blocking call reachable from the worker hot loop outside the reasoned blocking-allowed allowlist (call-graph level)",
    },
];

/// Run every rule over `files`, honouring allow comments. The slice is
/// the whole scan unit: the cross-file `lb-coverage` rule treats it as
/// the universe of definitions and test references. The availability
/// rules root their reachability at the serve entry set,
/// [`RootSet::serve_default`](crate::effects::RootSet::serve_default).
pub fn run_all(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        findings.extend(no_panic::check(file));
        findings.extend(no_index::check(file));
        findings.extend(float_eq::check(file));
        findings.extend(counter_arith::check(file));
        findings.extend(no_print::check(file));
        findings.extend(forbid_unsafe::check(file));
        findings.extend(todo_issue::check(file));
        findings.extend(no_wildcard::check(file));
        findings.extend(lb_witness::check(file));
        findings.extend(atomic_ordering::check(file));
        findings.extend(strict_dismissal::check(file));
    }
    findings.extend(lb_coverage::check(files));
    findings.extend(exhaustive_invariance::check(files));
    // Interprocedural rules share one whole-workspace analysis (and the
    // effect rules reuse its call graph rather than building another).
    let ws = crate::interproc::analyze(files);
    findings.extend(prune_only::check(&ws, files));
    findings.extend(admissible_chain::check(&ws, files));
    findings.extend(shared_atomic_protocol::check(&ws, files));
    let effects = crate::effects::analyze(&ws.graph, files);
    findings.extend(no_panic_reachable::check(&ws, &effects, files));
    findings.extend(no_blocking_in_worker::check(&ws, &effects, files));
    // Apply escape comments centrally so every rule honours them the
    // same way, including the cross-file one.
    findings.retain(|f| {
        files
            .iter()
            .find(|s| s.path == f.path)
            .is_none_or(|s| !s.allowed(f.rule, f.line))
    });
    findings
}

/// Probe an exemption accessor over a function's exemption window: the
/// line above the item (attributes included) through the last line of
/// the body. Shared by `admissible-chain` (witness-exempt) and
/// `no-panic-reachable` (panic-exempt) so the window semantics cannot
/// drift between rules.
pub(crate) fn exemption_window<'f>(
    file: &'f SourceFile,
    node: &crate::resolve::FnNode<'_>,
    probe: impl Fn(&'f SourceFile, usize, usize) -> Option<(usize, &'f str)>,
) -> Option<(usize, &'f str)> {
    let toks = file.tokens();
    let start_line = node.item_span.line(toks);
    let end_line = node
        .decl
        .body
        .as_ref()
        .and_then(|b| toks.get(b.span.hi.saturating_sub(1)))
        .map_or(start_line, |t| t.line);
    probe(file, start_line.saturating_sub(1), end_line)
}

/// Find the matching closing delimiter for the opener at `open`
/// (`(`/`[`/`{`), returning its token index. Shared by several rules.
pub(crate) fn matching_close(tokens: &[crate::lexer::Token], open: usize) -> Option<usize> {
    let (o, c) = match tokens.get(open).map(|t| t.text.as_str()) {
        Some("(") => ("(", ")"),
        Some("[") => ("[", "]"),
        Some("{") => ("{", "}"),
        _ => return None,
    };
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.text == o {
            depth += 1;
        } else if t.text == c {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}
