//! `no-panic-reachable`: interprocedural panic-freedom for the serve
//! entry set.
//!
//! The per-file `no-panic` / `no-index` rules are lexical and ratcheted
//! — pre-existing findings are tolerated. This rule is the
//! availability *certificate*: every function reachable from a serve
//! root (the worker loop, the wire codec, the snapshot query dispatch,
//! the parallel scan) with an intrinsic may-panic site must
//! either lose the site or carry a reasoned
//! `// lint: panic-exempt(reason)` — zero unexempted findings is the
//! shipping bar, so a new `unwrap` wired anywhere under the serve roots
//! fails CI with a composed root→site witness path (a SARIF
//! `codeFlow`), even when the panic is laundered through helpers in
//! another crate.

use crate::effects::{reach_forest_excluding, witness_path, EffectAnalysis, RootSet};
use crate::findings::Finding;
use crate::interproc::Workspace;
use crate::source::{FileKind, SourceFile};

/// Rule id.
pub const ID: &str = "no-panic-reachable";

/// Check the analyzed workspace against the configured root set.
pub fn check(
    ws: &Workspace<'_>,
    effects: &EffectAnalysis,
    files: &[SourceFile],
    roots: &RootSet,
) -> Vec<Finding> {
    let nodes = &ws.graph.index.nodes;
    let root_ids: Vec<usize> = nodes
        .iter()
        .filter(|n| {
            !n.is_test
                && roots.panic_roots.iter().any(|r| r == &n.decl.name)
                && files
                    .get(n.file)
                    .is_some_and(|f| f.kind == FileKind::Library)
        })
        .map(|n| n.id)
        .collect();
    if root_ids.is_empty() {
        return Vec::new();
    }
    let excluded = roots.excluded_nodes(&ws.graph);
    let forest = reach_forest_excluding(&ws.graph, &root_ids, &excluded);
    let mut out = Vec::new();
    for node in nodes {
        if !forest.reached.get(node.id).copied().unwrap_or(false) || node.is_test {
            continue;
        }
        let Some(file) = files.get(node.file) else {
            continue;
        };
        if file.kind != FileKind::Library {
            continue;
        }
        let Some(site) = effects.fns.get(node.id).and_then(|f| f.panic_site.as_ref()) else {
            continue;
        };
        match super::exemption_window(file, node, SourceFile::panic_exempt) {
            Some((_, reason)) if !reason.is_empty() => continue,
            Some((line, _)) => {
                out.push(Finding::new(
                    ID,
                    &file.path,
                    line,
                    format!(
                        "`// lint: panic-exempt()` on `{}` carries no reason; every \
                         exemption from the serve panic certificate must say why the \
                         panic cannot fire",
                        node.decl.name
                    ),
                ));
                continue;
            }
            None => {}
        }
        let root_name = forest
            .via_root
            .get(node.id)
            .copied()
            .flatten()
            .and_then(|r| nodes.get(r))
            .map_or("?", |n| n.decl.name.as_str())
            .to_string();
        out.push(
            Finding::new(
                ID,
                &file.path,
                site.line,
                format!(
                    "`{}` is reachable from serve root `{root_name}` and {}; a panic \
                     here kills a worker serving live queries — return a typed error, \
                     bound the access, or justify with `// lint: panic-exempt(…)`",
                    node.decl.name, site.what
                ),
            )
            .with_witness(witness_path(&ws.graph, files, &forest, node.id, site)),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effects;
    use crate::interproc::analyze;

    fn run(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(p, s)| SourceFile::parse(p, s, crate::source::kind_for_path(p)))
            .collect();
        let ws = analyze(&files);
        let fx = effects::analyze(&ws.graph, &files);
        check(&ws, &fx, &files, &RootSet::serve_default())
    }

    #[test]
    fn cross_crate_laundered_panic_is_flagged_with_witness() {
        let f = run(&[
            (
                "crates/rotind-serve/src/server.rs",
                "pub fn worker_loop(v: &[f64]) -> f64 { estimate(v) }\n",
            ),
            (
                "crates/rotind-index/src/helper.rs",
                "pub fn estimate(v: &[f64]) -> f64 { kernel(v) }\npub fn kernel(v: &[f64]) -> f64 { v[0] }\n",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("kernel"));
        assert!(f[0].message.contains("worker_loop"));
        assert_eq!(f[0].path, "crates/rotind-index/src/helper.rs");
        assert!(f[0].witness.len() >= 3, "{:?}", f[0].witness);
        let step_files: std::collections::HashSet<&str> =
            f[0].witness.iter().map(|s| s.path.as_str()).collect();
        assert!(
            step_files.len() >= 2,
            "multi-file witness: {:?}",
            f[0].witness
        );
    }

    #[test]
    fn reasoned_exemption_certifies_clean() {
        let f = run(&[(
            "crates/rotind-serve/src/server.rs",
            "pub fn worker_loop(v: &[f64]) -> f64 { kernel(v) }\n// lint: panic-exempt(i ranges over 0..v.len(), in bounds by construction)\nfn kernel(v: &[f64]) -> f64 { v[0] }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn bare_exemption_is_its_own_finding() {
        let f = run(&[(
            "crates/rotind-serve/src/server.rs",
            "pub fn worker_loop(v: &[f64]) -> f64 { kernel(v) }\n// lint: panic-exempt()\nfn kernel(v: &[f64]) -> f64 { v[0] }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("no reason"), "{}", f[0].message);
    }

    #[test]
    fn unreachable_panics_are_not_this_rules_problem() {
        let f = run(&[(
            "crates/rotind-serve/src/server.rs",
            "pub fn worker_loop(v: &[f64]) -> f64 { v.iter().sum() }\nfn island(v: &[f64]) -> f64 { v[0] }\n",
        )]);
        assert!(f.is_empty(), "lexical no-index owns islands: {f:?}");
    }

    #[test]
    fn no_roots_means_no_findings() {
        let f = run(&[(
            "crates/rotind-index/src/x.rs",
            "pub fn helper(v: &[f64]) -> f64 { v[0] }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_roots_do_not_root_the_obligation() {
        let f = run(&[(
            "crates/rotind-serve/src/server.rs",
            "#[cfg(test)]\nmod tests {\n    fn worker_loop(v: &[f64]) -> f64 { crate::kern(v) }\n}\npub fn kern(v: &[f64]) -> f64 { v[0] }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }
}
