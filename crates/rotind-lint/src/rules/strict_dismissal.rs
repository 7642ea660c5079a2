//! `strict-dismissal`: encode PR 3's boundary-exactness fix as a
//! permanent check. The paper's range semantics admit candidates at
//! exactly distance `r`, so dismissal must be **strict** (`d > r` /
//! `lb > r`) and admission **inclusive** (`d <= r`). A dismissing
//! branch guarded by `lb >= r` throws away candidates sitting exactly
//! on the radius — a real false dismissal, the one class of bug this
//! repo exists to rule out.
//!
//! The rule flags `>=`/`<=` comparisons where one operand names the
//! search radius or best-so-far (`r`, `r2`, `radius`, `best`, `bsf`,
//! `best_so_far`, …) and the guarded branch *dismisses* (contains
//! `continue`, `break`, a dismissing `return`, or a `Pruned`-style tail
//! verdict). Inclusive **admission** guards — `if d <= r { admit }` —
//! are the correct dual and stay clean, because their branch does not
//! dismiss.

use crate::ast::{walk_exprs, ExprKind};
use crate::dataflow;
use crate::findings::Finding;
use crate::source::{FileKind, SourceFile};

/// Rule id.
pub const ID: &str = "strict-dismissal";

/// True for identifiers that name the search radius / best-so-far.
fn radius_ish(ident: &str) -> bool {
    let l = ident.to_ascii_lowercase();
    l == "r"
        || l == "r2"
        || l == "bsf"
        || l.contains("radius")
        || l.contains("best")
        || l.contains("threshold")
}

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
        walk_exprs(body, &mut |e| {
            let ExprKind::If {
                cond, then_block, ..
            } = &e.kind
            else {
                return;
            };
            if !dataflow::block_dismisses(then_block) {
                return;
            }
            let mut cmps = Vec::new();
            dataflow::comparisons(cond, &mut cmps);
            for cmp in cmps {
                let ExprKind::Binary { op, lhs, rhs } = &cmp.kind else {
                    continue;
                };
                if op != ">=" && op != "<=" {
                    continue;
                }
                let named = [lhs, rhs]
                    .into_iter()
                    .find_map(|side| dataflow::operand_ident(side).filter(|id| radius_ish(id)));
                let Some(ident) = named else { continue };
                let line = cmp.span.line(toks);
                if file.is_test_code(line) {
                    continue;
                }
                out.push(Finding::new(
                    ID,
                    &file.path,
                    line,
                    format!(
                        "dismissing branch guarded by `{op}` against `{ident}` \
                         drops candidates at exactly distance `{ident}`; \
                         dismissal must be strict (`>`) and admission \
                         inclusive (`<=`) — see the PR 3 boundary-exactness \
                         fix and DESIGN.md §12"
                    ),
                ));
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
    fn ge_radius_then_continue_fails() {
        let f = lint(
            "fn scan(lbs: &[f64], r: f64) {\n    for lb in lbs {\n        if *lb >= r {\n            continue;\n        }\n    }\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn strict_dismissal_passes() {
        let f = lint(
            "fn scan(lbs: &[f64], r: f64) {\n    for lb in lbs {\n        if *lb > r {\n            continue;\n        }\n    }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn inclusive_admission_passes() {
        let f = lint(
            "fn verdict(lb: f64, r: f64) -> V {\n    if lb <= r { V::Admitted } else { V::Pruned }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn le_flipped_operands_fail() {
        let f = lint(
            "fn check(d: f64, best_so_far: f64) -> Option<f64> {\n    if best_so_far <= d {\n        return None;\n    }\n    Some(d)\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("best_so_far"));
    }

    #[test]
    fn compound_condition_operand_found() {
        let f = lint(
            "fn two_stage(acc: f64, r2: f64, r: f64) -> Option<f64> {\n    if acc >= r2 && acc.sqrt() > r {\n        return None;\n    }\n    Some(acc)\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("r2"));
    }

    #[test]
    fn non_radius_idents_and_test_code_ignored() {
        let f = lint(
            "fn windowed(i: usize, hi: usize) {\n    for j in 0..hi {\n        if j >= hi { continue; }\n    }\n}\n#[cfg(test)]\nmod t {\n    fn probe(lb: f64, r: f64) -> bool { if lb >= r { return false; } true }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dismissing_return_of_pruned_verdict_fails() {
        let f = lint(
            "fn node(lb: f64, radius: f64) -> Verdict {\n    if lb >= radius {\n        return Verdict::Pruned;\n    }\n    Verdict::Admitted\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
    }
}
