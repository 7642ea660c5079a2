//! `atomic-ordering`: a shared atomic that threads compare against and
//! tighten is only correct when it is read with `Acquire` and updated
//! with an `AcqRel` CAS (DESIGN.md §14). A `Relaxed` load feeding a
//! comparison can observe a stale value, and a `Relaxed` CAS breaks the
//! happens-before edge between the thread that published a value and
//! the threads deciding on it. The one CAS loop in library code is
//! `ManualClock::advance`.
//!
//! Two findings, both requiring the dataflow walk:
//!
//! * a `.load(Ordering::Relaxed)` whose value reaches a comparison —
//!   inline or through a `let` binding;
//! * any CAS-family call (`compare_exchange[_weak]`, `fetch_update`,
//!   `fetch_min`, `fetch_max`) with a `Relaxed` ordering argument.
//!
//! Pure counters are out of scope: `fetch_add`/`store` with `Relaxed`
//! stay legal (the `counter-arith` rule owns counter hygiene).

use crate::ast::walk_exprs;
use crate::dataflow;
use crate::findings::Finding;
use crate::source::{FileKind, SourceFile};

/// Rule id.
pub const ID: &str = "atomic-ordering";

/// Check one file.
pub fn check(file: &SourceFile) -> Vec<Finding> {
    if file.kind != FileKind::Library {
        return Vec::new();
    }
    let toks = file.tokens();
    let mut out = Vec::new();
    crate::ast::walk_fns(&file.ast, &mut |decl, _| {
        let Some(body) = &decl.body else { return };
        if file.is_test_code(decl.name_line) {
            return;
        }
        for hit in dataflow::relaxed_loads_feeding_compares(body, toks) {
            if file.is_test_code(hit.line) {
                continue;
            }
            let via = match &hit.via {
                Some(name) => format!(" (via `let {name} = …`)"),
                None => String::new(),
            };
            out.push(Finding::new(
                ID,
                &file.path,
                hit.line,
                format!(
                    "`load(Ordering::Relaxed)` feeds a comparison{via}; a \
                     decision must read a shared atomic with \
                     `Ordering::Acquire` to observe every published \
                     update (DESIGN.md §14)"
                ),
            ));
        }
        walk_exprs(body, &mut |e| {
            if let Some(method) = dataflow::is_relaxed_cas(e) {
                let line = e.span.line(toks);
                if !file.is_test_code(line) {
                    out.push(Finding::new(
                        ID,
                        &file.path,
                        line,
                        format!(
                            "`{method}` with `Ordering::Relaxed` breaks the \
                             happens-before edge on the shared value; use \
                             `AcqRel` on success and `Acquire` on failure"
                        ),
                    ));
                }
            }
        });
    });
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
    fn relaxed_load_into_comparison_fails() {
        let f = lint(
            "fn prune(radius: &AtomicU64, lb: f64) -> bool {\n    let r = f64::from_bits(radius.load(Ordering::Relaxed));\n    lb > f64::from_bits(radius.load(Ordering::Relaxed))\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn relaxed_load_via_binding_fails() {
        let f = lint(
            "fn prune(radius: &AtomicU64, lb: u64) -> bool {\n    let bits = radius.load(Ordering::Relaxed);\n    lb >= bits\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("via `let bits"));
    }

    #[test]
    fn acquire_load_passes() {
        let f = lint(
            "fn prune(radius: &AtomicU64, lb: u64) -> bool {\n    let bits = radius.load(Ordering::Acquire);\n    lb >= bits\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn relaxed_cas_fails_acqrel_passes() {
        let bad = lint(
            "fn tighten(radius: &AtomicU64, new: u64) {\n    let _ = radius.compare_exchange_weak(0, new, Ordering::Relaxed, Ordering::Relaxed);\n}\n",
        );
        assert_eq!(bad.len(), 1);
        let good = lint(
            "fn tighten(radius: &AtomicU64, new: u64) {\n    let _ = radius.compare_exchange_weak(0, new, Ordering::AcqRel, Ordering::Acquire);\n}\n",
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn relaxed_counters_stay_legal() {
        let f = lint(
            "fn bump(generation: &AtomicU64) {\n    generation.fetch_add(1, Ordering::Relaxed);\n    generation.store(0, Ordering::Relaxed);\n    let _snapshot = generation.load(Ordering::Relaxed);\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let f = lint(
            "#[cfg(test)]\nmod t {\n    fn probe(a: &AtomicU64) -> bool { a.load(Ordering::Relaxed) > 0 }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
