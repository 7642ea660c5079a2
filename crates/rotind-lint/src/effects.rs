//! Interprocedural *effect* summaries: may-panic and may-block facts
//! per function, propagated to fixpoint over the [`crate::callgraph`].
//!
//! Where [`crate::interproc`] tracks how *values* flow (bound taint),
//! this module tracks what a call can *do*: panic (explicit `panic!` /
//! `unreachable!`, `unwrap` / `expect`, raw indexing or slicing,
//! integer `/` and `%`, `assert!` outside `#[cfg(test)]`) or block
//! (`Mutex::lock`, unbounded `recv`, channel `send`, condvar waits,
//! file/socket IO, `thread::sleep`, argument-less `join`). Each
//! function gets its first *intrinsic* effect site, then a boolean
//! `may_*` flag closes the summaries over resolved call edges:
//!
//! > `may_panic(f) = own_panic(f) ∨ ∃ call f → g with may_panic(g)`
//!
//! The lattice per function is `{⊥, may}²` and transfer only ever
//! raises flags, so the fixpoint is monotone and terminates in at most
//! `nodes + 1` rounds — `EffectAnalysis::rounds` exposes the count so
//! the property test over random call webs can check exactly that.
//!
//! The `no-panic-reachable` and `no-blocking-in-worker` rules root the
//! summaries at the serve entry set ([`RootSet`]) and render the
//! composed call chain from root to effect site as a witness path
//! (≤ [`crate::interproc::MAX_WITNESS`] steps, elided in the middle
//! when a chain runs longer), which SARIF output turns into a
//! `codeFlow`.
//!
//! Precision notes, deliberately chosen and documented in DESIGN.md
//! §16: division/modulo is only a panic source when an operand shows
//! *integer evidence* (an integer type token in a cast or turbofish, an
//! integer-suffixed literal, or a `len`/`capacity`/`count` call) and
//! the divisor is not a non-zero literal — the f64 math that dominates
//! the hot path must not drown the signal; `debug_assert!` is never a
//! panic source (release builds strip it, and `lb-witness` *requires*
//! it); `.join(sep)` with arguments is a str/path join, while
//! `handle.join()` without arguments is a thread join.

use crate::ast::{walk_item_exprs, Expr, ExprKind, Span};
use crate::callgraph::CallGraph;
use crate::findings::WitnessStep;
use crate::interproc::MAX_WITNESS;
use crate::lexer::Token;
use crate::source::SourceFile;

/// One intrinsic effect site inside a function body.
#[derive(Debug, Clone)]
pub struct EffectSite {
    /// 1-based source line of the effecting expression.
    pub line: usize,
    /// What the expression does (`"\`unwrap()\` may panic"`, …).
    pub what: String,
}

/// Per-function effect summary.
#[derive(Debug, Default, Clone)]
pub struct FnEffects {
    /// First intrinsic panic site in the body, in source order.
    pub panic_site: Option<EffectSite>,
    /// Every intrinsic blocking site in the body, in source order —
    /// the blocking allowlist is per *site*, so the rule needs them all.
    pub block_sites: Vec<EffectSite>,
    /// Closed over calls: this function may panic.
    pub may_panic: bool,
    /// Closed over calls: this function may block.
    pub may_block: bool,
}

/// The whole-workspace effect analysis.
pub struct EffectAnalysis {
    /// One summary per [`crate::resolve::GlobalIndex`] node id.
    pub fns: Vec<FnEffects>,
    /// Fixpoint rounds until convergence (monotone boolean lattice:
    /// bounded by `nodes + 1`; the call-web proptest asserts it).
    pub rounds: usize,
}

/// The reachability roots the availability rules certify: the serve
/// entry set of [`RootSet::serve_default`], matched by function name
/// among non-test definitions.
#[derive(Debug, Clone)]
pub struct RootSet {
    /// Entry points that must be panic-free: the worker loop, the wire
    /// codec and the snapshot query dispatch.
    pub panic_roots: Vec<String>,
    /// The worker hot loop(s) that must never block outside the
    /// explicit admission/reply allowlist.
    pub worker_roots: Vec<String>,
    /// Crates outside the serve link closure. Name-based call resolution
    /// would otherwise bridge the certificate into them through
    /// ubiquitous method names (`collect`, `get`, `merge`), producing
    /// obligations for code the serve binary never runs.
    pub excluded_crates: Vec<String>,
}

impl RootSet {
    /// The serve entry set (see DESIGN.md §16). `rotind-lint` is
    /// excluded: the linter is a build-time tool, never linked into the
    /// serve binary.
    pub fn serve_default() -> RootSet {
        let s = |n: &str| n.to_string();
        RootSet {
            panic_roots: vec![
                s("worker_loop"),
                s("read_frame"),
                s("write_frame"),
                s("execute"),
            ],
            worker_roots: vec![s("worker_loop")],
            excluded_crates: vec![s("rotind-lint")],
        }
    }

    /// Bitmask of graph nodes the certificate must not traverse or
    /// report: everything in an excluded crate.
    pub fn excluded_nodes(&self, graph: &CallGraph<'_>) -> Vec<bool> {
        graph
            .index
            .nodes
            .iter()
            .map(|n| self.excluded_crates.iter().any(|c| c == &n.crate_name))
            .collect()
    }
}

/// Compute effect summaries for every function in the graph and close
/// them over resolved call edges.
pub fn analyze(graph: &CallGraph<'_>, files: &[SourceFile]) -> EffectAnalysis {
    let n = graph.index.nodes.len();
    let mut fns = vec![FnEffects::default(); n];

    // Intrinsic sites: walk each file's expressions once, attributing
    // every expression to its innermost enclosing function (nested fns
    // are their own nodes and must not leak sites into their parent).
    let mut per_file: Vec<Vec<usize>> = vec![Vec::new(); files.len()];
    for node in &graph.index.nodes {
        if let Some(bucket) = per_file.get_mut(node.file) {
            bucket.push(node.id);
        }
    }
    for (file, candidates) in files.iter().zip(&per_file) {
        let toks = file.tokens();
        for item in &file.ast.items {
            walk_item_exprs(item, &mut |e| {
                let line = e.span.line(toks);
                if file.is_test_code(line) {
                    return;
                }
                let Some(node) = innermost_fn(graph, candidates, e.span) else {
                    return;
                };
                let Some(slot) = fns.get_mut(node) else {
                    return;
                };
                if let Some(what) = panic_effect(e, toks) {
                    record(&mut slot.panic_site, line, what);
                }
                if let Some(what) = blocking_effect(e) {
                    slot.block_sites.push(EffectSite { line, what });
                }
            });
        }
    }
    for f in &mut fns {
        f.may_panic = f.panic_site.is_some();
        f.block_sites.sort_by_key(|s| s.line);
        f.may_block = !f.block_sites.is_empty();
    }

    // Close over calls. Monotone: flags only ever rise, so the loop
    // terminates after at most `n + 1` rounds (each productive round
    // raises at least one flag).
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let mut changed = false;
        for node in 0..n {
            let (mut p, mut b) = match fns.get(node) {
                Some(f) => (f.may_panic, f.may_block),
                None => continue,
            };
            if p && b {
                continue;
            }
            for t in graph
                .sites_of
                .get(node)
                .into_iter()
                .flatten()
                .flat_map(|&s| graph.sites.get(s))
                .flat_map(|s| &s.targets)
            {
                if let Some(callee) = fns.get(*t) {
                    p |= callee.may_panic;
                    b |= callee.may_block;
                }
            }
            if let Some(f) = fns.get_mut(node) {
                if p != f.may_panic || b != f.may_block {
                    f.may_panic = p;
                    f.may_block = b;
                    changed = true;
                }
            }
        }
        if !changed || rounds > n + 1 {
            break;
        }
    }
    EffectAnalysis { fns, rounds }
}

/// Keep the earliest site in source order.
fn record(slot: &mut Option<EffectSite>, line: usize, what: String) {
    if slot.as_ref().is_none_or(|s| line < s.line) {
        *slot = Some(EffectSite { line, what });
    }
}

/// A breadth-first reachability forest over resolved call edges,
/// remembering for every reached node the (caller, call-site) edge that
/// first discovered it — the spine the witness paths are built from.
pub struct ReachForest {
    /// node id → discovering edge; `None` for roots and unreached nodes.
    pub parent: Vec<Option<(usize, usize)>>,
    /// node id → reached from some root.
    pub reached: Vec<bool>,
    /// node id → root that discovered it.
    pub via_root: Vec<Option<usize>>,
}

/// BFS from `roots` (shortest call chains make the tightest witnesses;
/// sites are visited in (file, source) order, so discovery — and with
/// it every witness path — is deterministic).
pub fn reach_forest(graph: &CallGraph<'_>, roots: &[usize]) -> ReachForest {
    reach_forest_excluding(graph, roots, &[])
}

/// [`reach_forest`] that refuses to enter nodes marked in `excluded`
/// (see [`RootSet::excluded_nodes`]) — an excluded node is neither
/// reported nor a conduit back into certified crates. An empty mask
/// excludes nothing.
pub fn reach_forest_excluding(
    graph: &CallGraph<'_>,
    roots: &[usize],
    excluded: &[bool],
) -> ReachForest {
    let n = graph.index.nodes.len();
    let mut forest = ReachForest {
        parent: vec![None; n],
        reached: vec![false; n],
        via_root: vec![None; n],
    };
    let mut queue = std::collections::VecDeque::new();
    for &r in roots {
        if let (Some(slot), Some(via)) = (forest.reached.get_mut(r), forest.via_root.get_mut(r)) {
            if !*slot {
                *slot = true;
                *via = Some(r);
                queue.push_back(r);
            }
        }
    }
    while let Some(node) = queue.pop_front() {
        let root = forest.via_root.get(node).copied().flatten();
        for &site in graph.sites_of.get(node).into_iter().flatten() {
            let Some(s) = graph.sites.get(site) else {
                continue;
            };
            for &t in &s.targets {
                if excluded.get(t).copied().unwrap_or(false) {
                    continue;
                }
                if let Some(slot) = forest.reached.get_mut(t) {
                    if !*slot {
                        *slot = true;
                        if let Some(p) = forest.parent.get_mut(t) {
                            *p = Some((node, site));
                        }
                        if let Some(v) = forest.via_root.get_mut(t) {
                            *v = root;
                        }
                        queue.push_back(t);
                    }
                }
            }
        }
    }
    forest
}

/// Compose the witness path root → … → `target` → effect site. The
/// chain is capped at [`MAX_WITNESS`] steps: overlong chains keep both
/// ends and elide the middle, so the report always shows the root that
/// roots the obligation and the site that breaks it.
pub fn witness_path(
    graph: &CallGraph<'_>,
    files: &[SourceFile],
    forest: &ReachForest,
    target: usize,
    site: &EffectSite,
) -> Vec<WitnessStep> {
    let nodes = &graph.index.nodes;
    // Rebuild the discovery chain of edges, root first.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut cur = target;
    while let Some((caller, s)) = forest.parent.get(cur).copied().flatten() {
        edges.push((caller, s));
        cur = caller;
        if edges.len() > nodes.len() {
            break; // defensive: parent pointers cannot cycle, but stay total
        }
    }
    edges.reverse();
    let mut steps: Vec<WitnessStep> = Vec::new();
    let step_of = |node: usize, line: usize, note: String| {
        let path = nodes
            .get(node)
            .and_then(|n| files.get(n.file))
            .map_or_else(String::new, |f| f.path.clone());
        WitnessStep { path, line, note }
    };
    if let Some(root) = nodes.get(cur) {
        steps.push(step_of(
            cur,
            root.decl.name_line,
            format!("serve root `{}`", root.decl.name),
        ));
    }
    for &(caller, s) in &edges {
        let Some(call) = graph.sites.get(s) else {
            continue;
        };
        let caller_name = nodes
            .get(caller)
            .map_or("?", |n| n.decl.name.as_str())
            .to_string();
        steps.push(step_of(
            caller,
            call.line,
            format!("`{caller_name}` calls `{}`", call.name),
        ));
    }
    let target_name = nodes
        .get(target)
        .map_or("?", |n| n.decl.name.as_str())
        .to_string();
    let last = step_of(
        target,
        site.line,
        format!("in `{target_name}`: {}", site.what),
    );
    if steps.len() + 1 > MAX_WITNESS {
        let keep_head = MAX_WITNESS / 2;
        let keep_tail = MAX_WITNESS - keep_head - 2; // head + elision + tail + site
        let elided = steps.len() - keep_head - keep_tail;
        let tail: Vec<WitnessStep> = steps.split_off(steps.len() - keep_tail);
        steps.truncate(keep_head);
        let at = steps.last().cloned();
        steps.push(WitnessStep {
            path: at.map_or_else(String::new, |s| s.path),
            line: at_line(&steps),
            note: format!("… {elided} intermediate call step(s) elided …"),
        });
        steps.extend(tail);
    }
    steps.push(last);
    steps
}

fn at_line(steps: &[WitnessStep]) -> usize {
    steps.last().map_or(1, |s| s.line)
}

/// The innermost function in `candidates` (node ids of one file) whose
/// body span contains `span` — mirrors the call-graph's attribution so
/// effect sites and call sites agree on ownership.
fn innermost_fn(graph: &CallGraph<'_>, candidates: &[usize], span: Span) -> Option<usize> {
    candidates
        .iter()
        .copied()
        .filter_map(|id| {
            let body = graph.index.nodes.get(id)?.decl.body.as_ref()?;
            body.span
                .contains(span)
                .then_some((body.span.hi - body.span.lo, id))
        })
        .min_by_key(|&(width, _)| width)
        .map(|(_, id)| id)
}

/// Macros whose expansion panics unconditionally (or on a failed
/// runtime check). `debug_assert*` is deliberately absent: release
/// builds strip it, and `lb-witness` *requires* it as the admissibility
/// witness.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Integer type names that count as integer evidence in an operand.
const INT_TYPES: &[&str] = &[
    "usize", "u8", "u16", "u32", "u64", "u128", "isize", "i8", "i16", "i32", "i64", "i128",
];

/// Methods whose result is an integer count — evidence that arithmetic
/// around them is integral.
const INT_METHODS: &[&str] = &["len", "capacity", "count"];

/// Does `e` intrinsically may-panic? Returns the site description.
fn panic_effect(e: &Expr, toks: &[Token]) -> Option<String> {
    match &e.kind {
        ExprKind::MethodCall { name, .. } if name == "unwrap" || name == "expect" => {
            Some(format!("`.{name}()` may panic on `None`/`Err`"))
        }
        ExprKind::Index { .. } => Some("panicking index/slice expression".to_string()),
        ExprKind::Macro { name } if PANIC_MACROS.contains(&name.as_str()) => {
            Some(format!("`{name}!` panics when reached/failed"))
        }
        ExprKind::Binary { op, lhs, rhs } if op == "/" || op == "%" => {
            integer_division(lhs, rhs, toks)
                .then(|| format!("integer `{op}` may panic on a zero divisor"))
        }
        _ => None,
    }
}

/// The division heuristic: flag `/` and `%` only when the divisor is
/// not a non-zero literal AND either operand shows integer evidence.
/// Everything else is assumed to be the f64 math the hot path is made
/// of — a documented under-approximation (DESIGN.md §16).
fn integer_division(lhs: &Expr, rhs: &Expr, toks: &[Token]) -> bool {
    if let Some(text) = literal_text(rhs, toks) {
        // A literal divisor panics only when it is the integer zero.
        return is_integer_literal(text) && is_zero_literal(text);
    }
    has_integer_evidence(lhs.span, toks) || has_integer_evidence(rhs.span, toks)
}

/// The token text of a literal expression (possibly parenthesised).
fn literal_text<'t>(e: &Expr, toks: &'t [Token]) -> Option<&'t str> {
    match &e.kind {
        ExprKind::Lit => toks.get(e.span.lo).map(|t| t.text.as_str()),
        ExprKind::Paren(inner) | ExprKind::Unary(inner) => literal_text(inner, toks),
        _ => None,
    }
}

/// Is this literal token an integer (not a float)?
fn is_integer_literal(text: &str) -> bool {
    let mut t = text;
    for suffix in INT_TYPES {
        if let Some(stripped) = t.strip_suffix(suffix) {
            t = stripped;
            break;
        }
    }
    if t.ends_with("f32") || t.ends_with("f64") || t.contains('.') {
        return false;
    }
    !t.is_empty() && t.chars().next().is_some_and(|c| c.is_ascii_digit())
}

/// Is this integer literal zero (`0`, `0_0`, `0x0`, `0usize`, …)?
fn is_zero_literal(text: &str) -> bool {
    let digits: String = text
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(|c| c.is_ascii_digit() || *c == '_' || *c == 'x' || *c == 'o' || *c == 'b')
        .filter(char::is_ascii_digit)
        .collect();
    !digits.is_empty() && digits.chars().all(|c| c == '0')
}

/// Scan an operand's tokens for integer evidence: an integer type name
/// (cast / turbofish), an integer-suffixed literal, or a `len`-like
/// method call.
fn has_integer_evidence(span: Span, toks: &[Token]) -> bool {
    toks.get(span.lo..span.hi).into_iter().flatten().any(|t| {
        let text = t.text.as_str();
        INT_TYPES.contains(&text)
            || INT_METHODS.contains(&text)
            || (text.chars().next().is_some_and(|c| c.is_ascii_digit())
                && INT_TYPES.iter().any(|ty| text.ends_with(ty)))
    })
}

/// Free/path calls that block: `thread::sleep`, filesystem and socket
/// entry points.
const BLOCKING_PATHS: &[(&str, &str)] = &[
    ("thread", "sleep"),
    ("thread", "park"),
    ("File", "open"),
    ("File", "create"),
    ("fs", "read"),
    ("fs", "write"),
    ("fs", "read_to_string"),
    ("fs", "copy"),
    ("fs", "metadata"),
    ("fs", "read_dir"),
    ("TcpStream", "connect"),
    ("TcpListener", "bind"),
    ("UnixStream", "connect"),
];

/// Methods that block their caller.
const BLOCKING_METHODS: &[&str] = &[
    "lock",
    "recv",
    "send",
    "wait",
    "wait_timeout",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write_all",
    "write_fmt",
    "flush",
    "accept",
    "connect",
];

/// Does `e` intrinsically may-block? Returns the site description.
pub fn blocking_effect(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::MethodCall { name, args, .. } => {
            if BLOCKING_METHODS.contains(&name.as_str()) {
                let what = match name.as_str() {
                    "lock" => "acquires a `Mutex`/`RwLock`",
                    "recv" => "blocks on an unbounded channel `recv`",
                    "send" => "may block on a bounded channel `send`",
                    "wait" | "wait_timeout" => "waits on a condvar/barrier",
                    _ => "performs blocking file/socket IO",
                };
                return Some(format!("`.{name}()` {what}"));
            }
            // Thread `join()` takes no arguments; `slice::join(sep)` /
            // `Path::join(seg)` take one and never block.
            if name == "join" && args.is_empty() {
                return Some("`.join()` blocks on a thread handle".to_string());
            }
            None
        }
        ExprKind::Call { callee, .. } => {
            let ExprKind::Path(segs) = &callee.kind else {
                return None;
            };
            let last = segs.last()?;
            let qual = segs.len().checked_sub(2).and_then(|i| segs.get(i));
            for (q, f) in BLOCKING_PATHS {
                if last == f && qual.is_some_and(|s| s == q) {
                    return Some(format!("`{q}::{f}` blocks"));
                }
            }
            None
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;

    fn analyzed(srcs: &[(&str, &str)]) -> (Vec<SourceFile>, Vec<FnEffects>, usize) {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(p, s)| SourceFile::parse(p, s, FileKind::Library))
            .collect();
        // Build graph in a scope returning owned data we need.
        let graph = CallGraph::build(&files);
        let a = analyze(&graph, &files);
        let fx = a.fns.clone();
        let rounds = a.rounds;
        drop(graph);
        (files, fx, rounds)
    }

    fn effects_of<'a>(
        files: &[SourceFile],
        fx: &'a [FnEffects],
        name: &str,
    ) -> Option<&'a FnEffects> {
        let graph = CallGraph::build(files);
        let id = graph.index.nodes.iter().find(|n| n.decl.name == name)?.id;
        fx.get(id)
    }

    #[test]
    fn intrinsic_panic_sites_detected() {
        let (files, fx, _) = analyzed(&[(
            "crates/a/src/x.rs",
            "fn u(o: Option<f64>) -> f64 { o.unwrap() }\nfn ix(v: &[f64]) -> f64 { v[0] }\nfn m() { panic!(\"boom\"); }\nfn ok(v: &[f64]) -> f64 { v.iter().sum() }\n",
        )]);
        assert!(effects_of(&files, &fx, "u").unwrap().may_panic);
        assert!(effects_of(&files, &fx, "ix").unwrap().may_panic);
        assert!(effects_of(&files, &fx, "m").unwrap().may_panic);
        assert!(!effects_of(&files, &fx, "ok").unwrap().may_panic);
    }

    #[test]
    fn division_heuristic_wants_integer_evidence() {
        let (files, fx, _) = analyzed(&[(
            "crates/a/src/x.rs",
            "fn fdiv(a: f64, b: f64) -> f64 { a / b }\nfn by_lit(a: u64) -> u64 { a / 21 }\nfn idiv(a: u64, n: u64) -> u64 { a / (n as u64) }\nfn by_len(a: usize, v: &[f64]) -> usize { a % v.len() }\n",
        )]);
        assert!(
            !effects_of(&files, &fx, "fdiv").unwrap().may_panic,
            "float division must not count"
        );
        assert!(
            !effects_of(&files, &fx, "by_lit").unwrap().may_panic,
            "non-zero literal divisor cannot be zero"
        );
        assert!(effects_of(&files, &fx, "idiv").unwrap().may_panic);
        assert!(effects_of(&files, &fx, "by_len").unwrap().may_panic);
    }

    #[test]
    fn debug_assert_is_not_a_panic_source() {
        let (files, fx, _) = analyzed(&[(
            "crates/a/src/x.rs",
            "fn lb(v: &[f64]) -> f64 { let b = 0.0; debug_assert!(b >= 0.0); b }\nfn hard(v: &[f64]) { assert!(!v.is_empty()); }\n",
        )]);
        assert!(!effects_of(&files, &fx, "lb").unwrap().may_panic);
        assert!(effects_of(&files, &fx, "hard").unwrap().may_panic);
    }

    #[test]
    fn effects_close_over_cross_file_calls() {
        let (files, fx, rounds) = analyzed(&[
            (
                "crates/a/src/root.rs",
                "pub fn top(v: &[f64]) -> f64 { mid(v) }\n",
            ),
            (
                "crates/a/src/mid.rs",
                "pub fn mid(v: &[f64]) -> f64 { leaf(v) }\npub fn leaf(v: &[f64]) -> f64 { v[0] }\n",
            ),
        ]);
        assert!(effects_of(&files, &fx, "top").unwrap().may_panic);
        assert!(effects_of(&files, &fx, "mid").unwrap().may_panic);
        assert!(
            effects_of(&files, &fx, "top").unwrap().panic_site.is_none(),
            "top has no intrinsic site — only the closed flag"
        );
        assert!(rounds <= 4, "tiny web converges fast, took {rounds}");
    }

    #[test]
    fn blocking_sites_classified() {
        let (files, fx, _) = analyzed(&[(
            "crates/a/src/x.rs",
            "fn a(m: &Mutex<u64>) -> u64 { *m.lock().unwrap_or_else(|p| p.into_inner()) }\nfn b(rx: &Receiver<u64>) -> u64 { rx.recv().unwrap_or(0) }\nfn c() { thread::sleep(core); }\nfn d(parts: &[String]) -> String { parts.join(\"-\") }\nfn e(h: JoinHandle<()>) { let _ = h.join(); }\n",
        )]);
        assert!(effects_of(&files, &fx, "a").unwrap().may_block);
        assert!(effects_of(&files, &fx, "b").unwrap().may_block);
        assert!(effects_of(&files, &fx, "c").unwrap().may_block);
        assert!(
            effects_of(&files, &fx, "d").unwrap().block_sites.is_empty(),
            "str join takes an argument and never blocks"
        );
        assert!(effects_of(&files, &fx, "e").unwrap().may_block);
    }

    #[test]
    fn test_spans_do_not_contribute_sites() {
        let (files, fx, _) = analyzed(&[(
            "crates/a/src/x.rs",
            "pub fn clean(v: &[f64]) -> f64 { v.iter().sum() }\n#[cfg(test)]\nmod tests {\n    fn t(v: &[f64]) -> f64 { v[0] }\n}\n",
        )]);
        assert!(!effects_of(&files, &fx, "clean").unwrap().may_panic);
    }

    #[test]
    fn witness_path_walks_root_to_site() {
        let files: Vec<SourceFile> = [
            (
                "crates/s/src/server.rs",
                "pub fn worker_loop(v: &[f64]) -> f64 { helper(v) }\n",
            ),
            (
                "crates/s/src/helper.rs",
                "pub fn helper(v: &[f64]) -> f64 { v[0] }\n",
            ),
        ]
        .iter()
        .map(|(p, s)| SourceFile::parse(p, s, FileKind::Library))
        .collect();
        let graph = CallGraph::build(&files);
        let a = analyze(&graph, &files);
        let root = graph
            .index
            .nodes
            .iter()
            .find(|n| n.decl.name == "worker_loop")
            .unwrap()
            .id;
        let target = graph
            .index
            .nodes
            .iter()
            .find(|n| n.decl.name == "helper")
            .unwrap()
            .id;
        let forest = reach_forest(&graph, &[root]);
        assert!(forest.reached[target]);
        let site = a.fns[target].panic_site.clone().unwrap();
        let steps = witness_path(&graph, &files, &forest, target, &site);
        assert_eq!(steps.len(), 3, "{steps:?}");
        assert!(steps[0].note.contains("serve root"));
        assert!(steps[1].note.contains("calls `helper`"));
        assert!(steps[2].note.contains("index/slice"));
        let files_in_path: std::collections::HashSet<&str> =
            steps.iter().map(|s| s.path.as_str()).collect();
        assert!(files_in_path.len() >= 2, "multi-file witness");
    }

    #[test]
    fn overlong_witness_elides_the_middle() {
        // A 20-deep call chain: root f0 → f1 → … → f19 (panics).
        let mut src = String::new();
        for i in 0..20 {
            if i < 19 {
                src.push_str(&format!("fn f{i}(v: &[f64]) -> f64 {{ f{}(v) }}\n", i + 1));
            } else {
                src.push_str(&format!("fn f{i}(v: &[f64]) -> f64 {{ v[0] }}\n"));
            }
        }
        let files = vec![SourceFile::parse(
            "crates/a/src/x.rs",
            &src,
            FileKind::Library,
        )];
        let graph = CallGraph::build(&files);
        let a = analyze(&graph, &files);
        let root = graph
            .index
            .nodes
            .iter()
            .find(|n| n.decl.name == "f0")
            .unwrap()
            .id;
        let target = graph
            .index
            .nodes
            .iter()
            .find(|n| n.decl.name == "f19")
            .unwrap()
            .id;
        let forest = reach_forest(&graph, &[root]);
        let site = a.fns[target].panic_site.clone().unwrap();
        let steps = witness_path(&graph, &files, &forest, target, &site);
        assert!(steps.len() <= MAX_WITNESS, "{}", steps.len());
        assert!(steps.iter().any(|s| s.note.contains("elided")));
        assert!(steps.first().unwrap().note.contains("serve root"));
        assert!(steps.last().unwrap().note.contains("index/slice"));
    }
}
