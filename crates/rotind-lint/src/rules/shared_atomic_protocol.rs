//! `shared-atomic-protocol`: the interprocedural extension of
//! `atomic-ordering`. The blessed protocol for a shared atomic that
//! threads read, compare and tighten is
//!
//! > `load(Acquire)` to read → compare → `compare_exchange_weak(_, _,
//! > AcqRel, Acquire)` to publish,
//!
//! and `atomic-ordering` enforces it *within* a function. This rule
//! closes the helper-function loophole: a getter that returns a
//! `Relaxed`-loaded value launders the weak ordering past the
//! intraprocedural check, and a CAS cycle seeded by such a value can
//! spin on a stale value — decisions taken against it use a value
//! another thread may already have tightened, which is how a
//! concurrent algorithm's exactness guarantee quietly dies. Findings
//! carry the witness path through the helper chain. The one CAS loop in
//! library code is `ManualClock::advance`; the unit tests below check
//! the rule on synthetic sources of a shared best-so-far radius.

use crate::findings::Finding;
use crate::interproc::{ViolationKind, Workspace};
use crate::source::{FileKind, SourceFile};

/// Rule id.
pub const ID: &str = "shared-atomic-protocol";

/// Check the analyzed workspace.
pub fn check(ws: &Workspace<'_>, files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for v in &ws.violations {
        let Some(node) = ws.graph.index.nodes.get(v.fn_id) else {
            continue;
        };
        let Some(file) = files.get(node.file) else {
            continue;
        };
        if file.kind != FileKind::Library || node.is_test {
            continue;
        }
        let message = match v.kind {
            ViolationKind::RelaxedCompareViaCall => format!(
                "comparison in `{}` is fed by a helper returning a \
                 `Relaxed`-loaded value; the shared-atomic protocol requires \
                 `load(Acquire)` before any compare — strengthen the load in \
                 the helper or stop comparing its result",
                node.decl.name
            ),
            ViolationKind::RelaxedSeededCas => format!(
                "`{}` cycle in `{}` is seeded by a `Relaxed` read; the \
                 blessed pattern is `load(Acquire)` → compare → \
                 `compare_exchange_weak(_, _, AcqRel, Acquire)` — a \
                 Relaxed-seeded cycle can spin on a stale value",
                v.detail, node.decl.name
            ),
            ViolationKind::BoundReturned | ViolationKind::BoundToBest => continue,
        };
        out.push(Finding::new(ID, &file.path, v.line, message).with_witness(v.witness.clone()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interproc::analyze;

    fn run(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(p, s)| SourceFile::parse(p, s, crate::source::kind_for_path(p)))
            .collect();
        let ws = analyze(&files);
        check(&ws, &files)
    }

    #[test]
    fn relaxed_getter_feeding_compare_across_files_is_flagged() {
        let f = run(&[
            (
                "crates/rotind-index/src/parallel.rs",
                "impl SharedRadius { pub fn get(&self) -> f64 { f64::from_bits(self.bits.load(Ordering::Relaxed)) } }\n",
            ),
            (
                "crates/rotind-index/src/scan.rs",
                "pub fn should_prune(r: &SharedRadius, lb: f64) -> bool { lb > r.get() }\n",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].path, "crates/rotind-index/src/scan.rs");
        assert!(
            f[0].witness
                .iter()
                .any(|w| w.path == "crates/rotind-index/src/parallel.rs"),
            "witness reaches back into the helper: {:?}",
            f[0].witness
        );
    }

    #[test]
    fn acquire_getter_is_clean() {
        let f = run(&[
            (
                "crates/rotind-index/src/parallel.rs",
                "impl SharedRadius { pub fn get(&self) -> f64 { f64::from_bits(self.bits.load(Ordering::Acquire)) } }\n",
            ),
            (
                "crates/rotind-index/src/scan.rs",
                "pub fn should_prune(r: &SharedRadius, lb: f64) -> bool { lb > r.get() }\n",
            ),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn relaxed_seeded_cas_cycle_is_flagged() {
        let f = run(&[(
            "crates/rotind-index/src/parallel.rs",
            "pub fn tighten(bits: &AtomicU64, new: u64) { let cur = bits.load(Ordering::Relaxed); let _ = bits.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire); }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("compare_exchange_weak"));
    }

    #[test]
    fn blessed_cas_cycle_is_clean() {
        let f = run(&[(
            "crates/rotind-index/src/parallel.rs",
            "pub fn tighten(bits: &AtomicU64, new: u64) { let cur = bits.load(Ordering::Acquire); let _ = bits.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire); }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let f = run(&[(
            "crates/rotind-index/src/parallel.rs",
            "#[cfg(test)]\nmod t {\n    fn probe(a: &AtomicU64, r: u64) -> bool { helper(a) < r }\n    fn helper(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }\n}\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }
}
