//! `counter-arith`: step counters are the paper's cost metric and the
//! telemetry layer's currency. With `overflow-checks = true` in the test
//! profile, a `steps += n` that overflows panics the search; in release
//! it silently wraps and corrupts every speedup figure downstream. All
//! arithmetic on counter-ish state (identifiers containing `count`,
//! `step`, `tick`, `spent` or `budget`) must be saturating or checked
//! — and explicitly
//! wrapping arithmetic on counters is flagged outright, since wrapped
//! telemetry is worse than a panic. Atomic counters are held to the
//! same bar: `fetch_add`/`fetch_sub` wrap on overflow with no
//! `overflow-checks` safety net at all, so shared telemetry must keep
//! saturating counters per thread or guard updates with a saturating
//! CAS loop (as `ManualClock::advance` does).

use crate::findings::Finding;
use crate::lexer::TokKind;
use crate::source::{FileKind, SourceFile};

/// Rule id.
pub const ID: &str = "counter-arith";

/// True for identifiers that name step/count state — including the
/// budget layer's spend accounting (`spent_pool`, `budget_used`), which
/// feeds `Exhausted::steps_spent` and must never wrap either.
fn counter_ish(ident: &str) -> bool {
    let l = ident.to_ascii_lowercase();
    l.contains("count")
        || l.contains("step")
        || l.contains("tick")
        || l.contains("spent")
        || l.contains("budget")
}

/// Check one file.
pub fn check(file: &SourceFile) -> Vec<Finding> {
    if file.kind != FileKind::Library {
        return Vec::new();
    }
    let toks = file.tokens();
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if file.is_test_code(t.line) {
            continue;
        }
        // `counter += n` / `counter -= n` (also `self.steps += 1`: the
        // token just before the operator is the field name).
        if (t.text == "+=" || t.text == "-=")
            && i.checked_sub(1)
                .is_some_and(|p| toks[p].kind == TokKind::Ident && counter_ish(&toks[p].text))
        {
            let place = &toks[i - 1].text;
            out.push(Finding::new(
                ID,
                &file.path,
                t.line,
                format!(
                    "`{place} {}` overflows under `overflow-checks = true`; \
                     use `saturating_add`/`saturating_sub` (telemetry must \
                     never panic a search) or `checked_*` where loss matters",
                    t.text
                ),
            ));
        }
        // `counter.wrapping_add(…)` — wrapping telemetry is a silent lie.
        if (t.text == "wrapping_add" || t.text == "wrapping_sub")
            && i.checked_sub(1).is_some_and(|p| toks[p].text == ".")
            && i.checked_sub(2)
                .is_some_and(|p| toks[p].kind == TokKind::Ident && counter_ish(&toks[p].text))
        {
            out.push(Finding::new(
                ID,
                &file.path,
                t.line,
                format!(
                    "`{}` on a counter wraps silently and corrupts the step \
                     accounting; use `saturating_*`",
                    t.text
                ),
            ));
        }
        // `counter.fetch_add(…)` — atomics wrap on overflow in every
        // build profile; a shared counter that wraps under-reports the
        // longest runs in the fleet.
        // `p` comes from `checked_sub`, so `p < i < toks.len()`.
        if (t.text == "fetch_add" || t.text == "fetch_sub")
            // rotind-lint: allow(no-index)
            && i.checked_sub(1).is_some_and(|p| toks[p].text == ".")
            && i.checked_sub(2)
                // rotind-lint: allow(no-index)
                .is_some_and(|p| toks[p].kind == TokKind::Ident && counter_ish(&toks[p].text))
        {
            out.push(Finding::new(
                ID,
                &file.path,
                t.line,
                format!(
                    "`{}` on an atomic counter wraps silently on overflow; \
                     keep a saturating `StepCounter` per thread, or guard \
                     the update with a compare-exchange loop",
                    t.text
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Finding> {
        check(&SourceFile::parse(
            "crates/x/src/a.rs",
            src,
            FileKind::Library,
        ))
    }

    #[test]
    fn flags_compound_assignment_on_counters() {
        let f = lint("struct C { steps: u64 }\nimpl C {\n    fn tick(&mut self) { self.steps += 1; }\n    fn untick(&mut self, n: u64) { self.steps -= n; }\n}\n");
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn flags_wrapping_on_counters() {
        let f = lint("fn f(count: u64) -> u64 { count.wrapping_add(1) }\n");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn flags_atomic_fetch_arith_on_counters() {
        let f = lint(
            "use std::sync::atomic::{AtomicU64, Ordering};\nfn f(step_count: &AtomicU64) {\n    step_count.fetch_add(1, Ordering::Relaxed);\n    step_count.fetch_sub(1, Ordering::Relaxed);\n}\n",
        );
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn atomic_fetch_on_non_counters_is_fine() {
        let f = lint(
            "use std::sync::atomic::{AtomicU64, Ordering};\nfn f(generation: &AtomicU64) {\n    generation.fetch_add(1, Ordering::Relaxed);\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn flags_arith_on_budget_spend_state() {
        let f = lint(
            "use std::sync::atomic::{AtomicU64, Ordering};\nfn f(spent_pool: &AtomicU64, mut budget_used: u64) {\n    spent_pool.fetch_add(7, Ordering::AcqRel);\n    budget_used += 7;\n}\n",
        );
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn saturating_budget_spend_is_fine() {
        let f = lint("fn f(spent: u64, delta: u64) -> u64 { spent.saturating_add(delta) }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn saturating_and_unrelated_idents_are_fine() {
        let f = lint(
            "fn f(steps: u64, acc: f64) -> (u64, f64) {\n    let s = steps.saturating_add(1);\n    let mut a = acc;\n    a += 1.0;\n    (s, a)\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
