//! `no-blocking-in-worker`: nothing reachable from the worker hot loop
//! may block outside the explicit admission/reply allowlist (DESIGN.md
//! §16).
//!
//! The worker loop's *designed* blocking points — taking the admission
//! queue lock, the idle `recv` wait, the metrics mutex, the reply
//! `send` — each carry a site-level
//! `// lint: blocking-allowed(reason)` comment. Anything else that
//! blocks (a mutex two calls down, a surprise file read, a
//! `thread::sleep`) turns a bounded-latency worker into an unbounded
//! one and is flagged with the composed call chain from the loop to
//! the blocking site.

use crate::effects::{reach_forest_excluding, witness_path, EffectAnalysis, RootSet};
use crate::findings::Finding;
use crate::interproc::Workspace;
use crate::source::FileKind;

/// Rule id.
pub const ID: &str = "no-blocking-in-worker";

/// Check the analyzed workspace against the serve worker roots.
pub fn check(
    ws: &Workspace<'_>,
    effects: &EffectAnalysis,
    files: &[crate::source::SourceFile],
) -> Vec<Finding> {
    let roots = RootSet::serve_default();
    let nodes = &ws.graph.index.nodes;
    let root_ids: Vec<usize> = nodes
        .iter()
        .filter(|n| {
            !n.is_test
                && roots.worker_roots.iter().any(|r| r == &n.decl.name)
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
        let Some(fx) = effects.fns.get(node.id) else {
            continue;
        };
        for site in &fx.block_sites {
            match file.blocking_allowed(site.line) {
                Some((_, reason)) if !reason.is_empty() => continue,
                Some((line, _)) => {
                    out.push(Finding::new(
                        ID,
                        &file.path,
                        line,
                        format!(
                            "`// lint: blocking-allowed()` in `{}` carries no reason; \
                             every entry on the worker's blocking allowlist must say \
                             why the wait is bounded or intended",
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
                        "`{}` is reachable from worker loop `{root_name}` and {}; an \
                         un-allowlisted wait makes worker latency unbounded — use a \
                         try_/bounded variant, move the work off the hot loop, or \
                         justify with `// lint: blocking-allowed(…)` on the site",
                        node.decl.name, site.what
                    ),
                )
                .with_witness(witness_path(&ws.graph, files, &forest, node.id, site)),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effects;
    use crate::interproc::analyze;
    use crate::source::SourceFile;

    fn run(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(p, s)| SourceFile::parse(p, s, crate::source::kind_for_path(p)))
            .collect();
        let ws = analyze(&files);
        let fx = effects::analyze(&ws.graph, &files);
        check(&ws, &fx, &files)
    }

    #[test]
    fn lock_two_calls_below_the_loop_is_flagged() {
        let f = run(&[
            (
                "crates/rotind-serve/src/server.rs",
                "pub fn worker_loop(s: &Shared) { run_job(s); }\nfn run_job(s: &Shared) { observe(s); }\n",
            ),
            (
                "crates/rotind-serve/src/obs.rs",
                "pub fn observe(s: &Shared) { let _g = s.metrics.lock(); }\n",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("observe"));
        assert!(f[0].message.contains("worker_loop"));
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
    fn allowlisted_admission_sites_pass() {
        let f = run(&[(
            "crates/rotind-serve/src/server.rs",
            "pub fn worker_loop(rx: &Mutex<Receiver<Job>>) {\n    // lint: blocking-allowed(admission queue handoff, bounded by try_send at enqueue)\n    let guard = rx.lock();\n    // lint: blocking-allowed(idle wait for work is the designed parking point)\n    let _job = guard.recv();\n}\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn bare_allowlist_entry_is_its_own_finding() {
        let f = run(&[(
            "crates/rotind-serve/src/server.rs",
            "pub fn worker_loop(rx: &Mutex<Receiver<Job>>) {\n    // lint: blocking-allowed()\n    let guard = rx.lock();\n}\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("no reason"), "{}", f[0].message);
    }

    #[test]
    fn allowlist_is_per_site_not_per_fn() {
        let f = run(&[(
            "crates/rotind-serve/src/server.rs",
            "pub fn worker_loop(rx: &Mutex<Receiver<Job>>, m: &Mutex<u64>) {\n    // lint: blocking-allowed(admission queue handoff)\n    let guard = rx.lock();\n    let _x = m.lock();\n}\n",
        )]);
        assert_eq!(f.len(), 1, "second lock is not covered: {f:?}");
    }

    #[test]
    fn blocking_outside_the_worker_is_fine() {
        let f = run(&[(
            "crates/rotind-serve/src/server.rs",
            "pub fn acceptor(l: &TcpListener) { let _ = l.accept(); }\npub fn worker_loop(v: &[f64]) -> f64 { v.iter().sum() }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }
}
