//! Query-level profiling: hierarchical span trees, latency quantiles,
//! per-tier cost accounting.
//!
//! [`Profiler`] is a [`SearchObserver`] that turns the engine's
//! [`ProfilePhase`] events into a [`ProfileTree`]: spans nest per query
//! (`query → wedge_merge → tier.* / distance`) and aggregate **by name
//! within their parent**, so the tree stays a handful of nodes no
//! matter how many candidates a query scans — each node carries a call
//! count, total wall-clock and total `num_steps`. The tree exports as
//! chrome://tracing JSON ([`ProfileTree::to_chrome_trace`]) and as
//! collapsed stacks for flamegraph tooling
//! ([`ProfileTree::to_folded`]).
//!
//! Wall-clock is measured *inside* the observer callbacks — the engine
//! only reports counter values — so searches running with
//! [`NoopObserver`](crate::NoopObserver) never touch a clock.
//!
//! The profiler also keeps streaming [`LogHistogram`]s of per-query
//! latency and steps (p50/p95/p99), and per-tier cost rows
//! ([`TierCost`]: tested, pruned, nanoseconds) whose
//! prune-rate-per-microsecond is the signal the ROADMAP's self-tuning
//! cascade will feed on.

use crate::metrics::{LogHistogram, MetricsRegistry};
use crate::observer::{CascadeTier, ProfilePhase, SearchObserver};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One aggregated node of a [`ProfileTree`]: all spans with this name
/// under the same parent path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileNode {
    count: u64,
    total_ns: u128,
    total_steps: u64,
    children: BTreeMap<&'static str, ProfileNode>,
}

impl ProfileNode {
    /// How many spans aggregated into this node.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total wall-clock across those spans, in nanoseconds.
    pub fn total_ns(&self) -> u128 {
        self.total_ns
    }

    /// Total `num_steps` across those spans.
    pub fn total_steps(&self) -> u64 {
        self.total_steps
    }

    /// Child nodes in name order.
    pub fn children(&self) -> impl Iterator<Item = (&'static str, &ProfileNode)> {
        self.children.iter().map(|(name, node)| (*name, node))
    }

    /// The named child, when present.
    pub fn child(&self, name: &str) -> Option<&ProfileNode> {
        self.children.get(name)
    }
}

/// A tree of aggregated profiling spans, rooted at the phase names the
/// engine opened at top level (in practice a single `query` root).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileTree {
    roots: BTreeMap<&'static str, ProfileNode>,
}

impl ProfileTree {
    /// Root nodes in name order.
    pub fn roots(&self) -> impl Iterator<Item = (&'static str, &ProfileNode)> {
        self.roots.iter().map(|(name, node)| (*name, node))
    }

    /// The named root, when present.
    pub fn root(&self, name: &str) -> Option<&ProfileNode> {
        self.roots.get(name)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    // lint: panic-exempt(path_of always yields at least the phase's own name)
    fn node_mut(&mut self, path: &[&'static str]) -> &mut ProfileNode {
        // `path_of` always yields at least the phase's own name.
        // rotind-lint: allow(no-panic)
        let (first, rest) = path.split_first().expect("profile path is never empty");
        let mut node = self.roots.entry(*first).or_default();
        for name in rest {
            node = node.children.entry(*name).or_default();
        }
        node
    }

    fn record(&mut self, path: &[&'static str], ns: u128, steps: u64) {
        let node = self.node_mut(path);
        node.count = node.count.saturating_add(1);
        node.total_ns = node.total_ns.saturating_add(ns);
        node.total_steps = node.total_steps.saturating_add(steps);
    }

    /// The tree as chrome://tracing JSON (the "trace event" format,
    /// `ph: "X"` complete events). Aggregated nodes are laid out on a
    /// synthetic timeline — children packed sequentially from their
    /// parent's start — so span *widths* are true total costs while
    /// positions are schematic. Load via chrome://tracing or
    /// <https://ui.perfetto.dev>.
    pub fn to_chrome_trace(&self) -> String {
        let mut events = Vec::new();
        let mut cursor_us = 0.0f64;
        for (name, node) in &self.roots {
            Self::emit_chrome(name, node, cursor_us, &mut events);
            cursor_us += node.total_ns as f64 / 1_000.0;
        }
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        out.push_str(&events.join(","));
        out.push_str("]}\n");
        out
    }

    fn emit_chrome(name: &str, node: &ProfileNode, start_us: f64, events: &mut Vec<String>) {
        let dur_us = node.total_ns as f64 / 1_000.0;
        events.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"count\":{},\"steps\":{}}}}}",
            name, start_us, dur_us, node.count, node.total_steps
        ));
        let mut cursor = start_us;
        for (child_name, child) in &node.children {
            Self::emit_chrome(child_name, child, cursor, events);
            cursor += child.total_ns as f64 / 1_000.0;
        }
    }

    /// The tree as collapsed stacks ("folded" format): one line per
    /// path, semicolon-separated frames, weighted by **self**
    /// nanoseconds (total minus children, so flamegraph totals are not
    /// double-counted). Pipe into `flamegraph.pl` or paste into
    /// <https://www.speedscope.app>.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for (name, node) in &self.roots {
            Self::emit_folded(name.to_string(), node, &mut out);
        }
        out
    }

    fn emit_folded(path: String, node: &ProfileNode, out: &mut String) {
        let child_ns: u128 = node.children.values().map(|c| c.total_ns).sum();
        let self_ns = node.total_ns.saturating_sub(child_ns);
        if self_ns > 0 || node.children.is_empty() {
            let _ = writeln!(out, "{path} {self_ns}");
        }
        for (child_name, child) in &node.children {
            Self::emit_folded(format!("{path};{child_name}"), child, out);
        }
    }

    /// An aligned text rendering with per-node totals and means.
    pub fn report(&self) -> String {
        if self.roots.is_empty() {
            return "no profile recorded\n".to_string();
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28}  {:>10}  {:>12}  {:>14}  {:>12}",
            "phase", "count", "total ms", "steps", "ns/call"
        );
        for (name, node) in &self.roots {
            Self::emit_report(name, node, 0, &mut out);
        }
        out
    }

    fn emit_report(name: &str, node: &ProfileNode, depth: usize, out: &mut String) {
        let label = format!("{}{}", "  ".repeat(depth), name);
        let per_call = if node.count > 0 {
            node.total_ns as f64 / node.count as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<28}  {:>10}  {:>12.3}  {:>14}  {:>12.0}",
            label,
            node.count,
            node.total_ns as f64 / 1e6,
            node.total_steps,
            per_call
        );
        for (child_name, child) in &node.children {
            Self::emit_report(child_name, child, depth + 1, out);
        }
    }
}

/// Online cost accounting for one cascade tier: how often it ran, how
/// often it dismissed, and what it cost in wall-clock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierCost {
    /// Bound evaluations this tier ran.
    pub tested: u64,
    /// Of those, how many dismissed the candidate (no later tier ran).
    pub pruned: u64,
    /// Total wall-clock spent inside this tier, in nanoseconds.
    pub total_ns: u128,
}

impl TierCost {
    /// Prunes per microsecond spent — the tier's economic yield, the
    /// quantity a self-tuning cascade maximizes. `None` until the tier
    /// has accumulated measurable time.
    pub fn prunes_per_us(&self) -> Option<f64> {
        (self.total_ns > 0).then(|| self.pruned as f64 * 1_000.0 / self.total_ns as f64)
    }
}

/// The profiling observer: builds a [`ProfileTree`] plus latency/step
/// histograms and per-tier [`TierCost`] rows from one or more observed
/// queries.
///
/// ```
/// use rotind_obs::{Profiler, ProfilePhase, SearchObserver};
/// let mut p = Profiler::new();
/// p.on_phase_start(ProfilePhase::Query, 0);
/// p.on_phase_start(ProfilePhase::Distance, 10);
/// p.on_phase_end(ProfilePhase::Distance, 50);
/// p.on_phase_end(ProfilePhase::Query, 60);
/// let tree = p.tree();
/// assert_eq!(tree.root("query").unwrap().total_steps(), 60);
/// assert_eq!(tree.root("query").unwrap().child("distance").unwrap().total_steps(), 40);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    tree: ProfileTree,
    /// Open phases, outermost first: (phase, entered_at, steps_at_entry).
    stack: Vec<(ProfilePhase, Instant, u64)>,
    query_latency_ns: LogHistogram,
    query_steps: LogHistogram,
    tiers: [TierCost; 4],
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The aggregated span tree.
    pub fn tree(&self) -> &ProfileTree {
        &self.tree
    }

    /// Streaming histogram of per-query wall-clock, in nanoseconds.
    pub fn query_latency_ns(&self) -> &LogHistogram {
        &self.query_latency_ns
    }

    /// Streaming histogram of per-query `num_steps`.
    pub fn query_steps(&self) -> &LogHistogram {
        &self.query_steps
    }

    /// Per-tier cost rows, indexed like [`CascadeTier::ALL`] (the engine
    /// fills only the `Keogh` row).
    pub fn tier_costs(&self) -> &[TierCost; 4] {
        &self.tiers
    }

    /// Export histograms and tier economics into a registry under
    /// `rotind_*` metric names.
    pub fn export_to(&self, registry: &mut MetricsRegistry) {
        registry
            .log_histogram("rotind_query_latency_ns")
            .merge(&self.query_latency_ns);
        registry
            .log_histogram("rotind_query_steps")
            .merge(&self.query_steps);
        for tier in CascadeTier::ALL {
            // `CascadeTier::index()` is < ALL.len() by construction.
            // rotind-lint: allow(no-index)
            let cost = &self.tiers[tier.index()];
            let name = tier.name();
            registry.counter_add(
                &format!("rotind_tier_tested_total{{tier=\"{name}\"}}"),
                cost.tested,
            );
            registry.counter_add(
                &format!("rotind_tier_pruned_total{{tier=\"{name}\"}}"),
                cost.pruned,
            );
            registry.counter_add(
                &format!("rotind_tier_ns_total{{tier=\"{name}\"}}"),
                u64::try_from(cost.total_ns).unwrap_or(u64::MAX),
            );
            if let Some(rate) = cost.prunes_per_us() {
                registry.gauge_set(
                    &format!("rotind_tier_prunes_per_us{{tier=\"{name}\"}}"),
                    rate,
                );
            }
        }
    }

    /// A text report: the span tree, latency quantiles, and the
    /// per-tier economics table.
    pub fn report(&self) -> String {
        let mut out = self.tree.report();
        if let (Some(p50), Some(p95), Some(p99)) = (
            self.query_latency_ns.quantile(0.5),
            self.query_latency_ns.quantile(0.95),
            self.query_latency_ns.quantile(0.99),
        ) {
            let _ = writeln!(
                out,
                "latency p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  over {} queries",
                p50 as f64 / 1e6,
                p95 as f64 / 1e6,
                p99 as f64 / 1e6,
                self.query_latency_ns.count()
            );
        }
        let _ = writeln!(
            out,
            "{:<10}  {:>10}  {:>10}  {:>12}  {:>14}",
            "tier", "tested", "pruned", "total ms", "prunes/us"
        );
        for tier in CascadeTier::ALL {
            // `CascadeTier::index()` is < ALL.len() by construction.
            // rotind-lint: allow(no-index)
            let cost = &self.tiers[tier.index()];
            let rate = cost
                .prunes_per_us()
                .map(|r| format!("{r:.3}"))
                .unwrap_or_else(|| "-".to_string());
            let _ = writeln!(
                out,
                "{:<10}  {:>10}  {:>10}  {:>12.3}  {:>14}",
                tier.name(),
                cost.tested,
                cost.pruned,
                cost.total_ns as f64 / 1e6,
                rate
            );
        }
        out
    }

    fn path_of(&self, leaf: ProfilePhase) -> Vec<&'static str> {
        self.stack
            .iter()
            .map(|(phase, _, _)| phase.name())
            .chain(std::iter::once(leaf.name()))
            .collect()
    }
}

impl SearchObserver for Profiler {
    #[inline]
    fn on_phase_start(&mut self, phase: ProfilePhase, steps: u64) {
        self.stack.push((phase, Instant::now(), steps));
    }

    // lint: panic-exempt(CascadeTier::index is below ALL.len() by construction)
    fn on_phase_end(&mut self, phase: ProfilePhase, steps: u64) {
        // The engine strictly nests phases; a mismatched end would mean
        // a bug upstream — drop it rather than corrupt the tree or
        // panic mid-telemetry.
        let Some(&(top, entered_at, steps_at_entry)) = self.stack.last() else {
            return;
        };
        if top != phase {
            return;
        }
        self.stack.pop();
        let ns = entered_at.elapsed().as_nanos();
        let step_delta = steps.saturating_sub(steps_at_entry);
        let path = self.path_of(phase);
        self.tree.record(&path, ns, step_delta);
        match phase {
            ProfilePhase::Query => {
                self.query_latency_ns
                    .observe(u64::try_from(ns).unwrap_or(u64::MAX));
                self.query_steps.observe(step_delta);
            }
            ProfilePhase::Tier(tier) => {
                // `CascadeTier::index()` is < ALL.len() by construction.
                // rotind-lint: allow(no-index)
                let cost = &mut self.tiers[tier.index()];
                cost.total_ns = cost.total_ns.saturating_add(ns);
            }
            _ => {}
        }
    }

    #[inline]
    // lint: panic-exempt(CascadeTier::index is below ALL.len() by construction)
    fn on_cascade_tier(&mut self, tier: CascadeTier, pruned: bool) {
        // `CascadeTier::index()` is < ALL.len() by construction.
        // rotind-lint: allow(no-index)
        let cost = &mut self.tiers[tier.index()];
        cost.tested = cost.tested.saturating_add(1);
        if pruned {
            cost.pruned = cost.pruned.saturating_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_one_query(p: &mut Profiler) {
        p.on_phase_start(ProfilePhase::Query, 0);
        p.on_phase_start(ProfilePhase::WedgeMerge, 0);
        p.on_phase_start(ProfilePhase::Tier(CascadeTier::Kim), 0);
        p.on_cascade_tier(CascadeTier::Kim, true);
        p.on_phase_end(ProfilePhase::Tier(CascadeTier::Kim), 4);
        p.on_phase_end(ProfilePhase::WedgeMerge, 4);
        p.on_phase_start(ProfilePhase::WedgeMerge, 4);
        p.on_phase_start(ProfilePhase::Tier(CascadeTier::Kim), 4);
        p.on_cascade_tier(CascadeTier::Kim, false);
        p.on_phase_end(ProfilePhase::Tier(CascadeTier::Kim), 8);
        p.on_phase_start(ProfilePhase::Distance, 8);
        p.on_phase_end(ProfilePhase::Distance, 108);
        p.on_phase_end(ProfilePhase::WedgeMerge, 108);
        p.on_phase_end(ProfilePhase::Query, 110);
    }

    #[test]
    fn tree_nests_and_aggregates_by_name() {
        let mut p = Profiler::new();
        drive_one_query(&mut p);
        let query = p.tree().root("query").expect("query root");
        assert_eq!(query.count(), 1);
        assert_eq!(query.total_steps(), 110);
        let merge = query.child("wedge_merge").expect("wedge_merge child");
        assert_eq!(merge.count(), 2, "two candidates aggregate into one node");
        assert_eq!(merge.total_steps(), 108);
        assert_eq!(merge.child("tier.kim").unwrap().count(), 2);
        assert_eq!(merge.child("tier.kim").unwrap().total_steps(), 8);
        assert_eq!(merge.child("distance").unwrap().total_steps(), 100);
        assert!(p.tree().root("wedge_merge").is_none(), "no stray roots");
    }

    #[test]
    fn latency_and_steps_histograms_track_queries() {
        let mut p = Profiler::new();
        drive_one_query(&mut p);
        drive_one_query(&mut p);
        assert_eq!(p.query_latency_ns().count(), 2);
        assert_eq!(p.query_steps().count(), 2);
        assert_eq!(p.query_steps().max(), Some(110));
    }

    #[test]
    fn tier_costs_attribute_tested_pruned_and_time() {
        let mut p = Profiler::new();
        drive_one_query(&mut p);
        let kim = &p.tier_costs()[CascadeTier::Kim.index()];
        assert_eq!(kim.tested, 2);
        assert_eq!(kim.pruned, 1);
        let reduced = &p.tier_costs()[CascadeTier::Reduced.index()];
        assert_eq!(reduced.tested, 0);
    }

    #[test]
    fn mismatched_phase_end_is_dropped_not_fatal() {
        let mut p = Profiler::new();
        p.on_phase_start(ProfilePhase::Query, 0);
        p.on_phase_end(ProfilePhase::Distance, 5);
        p.on_phase_end(ProfilePhase::Query, 10);
        let query = p.tree().root("query").unwrap();
        assert_eq!(query.count(), 1);
        assert!(query.child("distance").is_none());
    }

    #[test]
    fn chrome_trace_is_wellformed_and_nested() {
        let mut p = Profiler::new();
        drive_one_query(&mut p);
        let json = p.tree().to_chrome_trace();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"query\""));
        assert!(json.contains("\"name\":\"wedge_merge\""));
        assert!(json.contains("\"name\":\"tier.kim\""));
        assert!(json.contains("\"ph\":\"X\""));
        // Balanced braces/brackets — a structural well-formedness check
        // that catches a missing comma or truncated event.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn folded_stacks_use_self_time_paths() {
        let mut p = Profiler::new();
        drive_one_query(&mut p);
        let folded = p.tree().to_folded();
        assert!(folded.contains("query;wedge_merge;tier.kim "));
        assert!(folded.contains("query;wedge_merge;distance "));
        for line in folded.lines() {
            let (path, value) = line.rsplit_once(' ').expect("path value");
            assert!(!path.is_empty());
            value.parse::<u128>().expect("numeric weight");
        }
    }

    #[test]
    fn report_renders_tree_latency_and_tier_table() {
        let mut p = Profiler::new();
        drive_one_query(&mut p);
        let report = p.report();
        assert!(report.contains("query"));
        assert!(report.contains("latency p50"));
        assert!(report.contains("prunes/us"));
        assert!(report.contains("kim"));
    }

    #[test]
    fn export_to_registry_writes_rotind_metrics() {
        let mut p = Profiler::new();
        drive_one_query(&mut p);
        let mut reg = MetricsRegistry::new();
        p.export_to(&mut reg);
        assert_eq!(
            reg.log_histogram_get("rotind_query_latency_ns")
                .unwrap()
                .count(),
            1
        );
        assert_eq!(reg.counter("rotind_tier_tested_total{tier=\"kim\"}"), 2);
        assert_eq!(reg.counter("rotind_tier_pruned_total{tier=\"kim\"}"), 1);
    }

    #[test]
    fn empty_profiler_renders_without_panicking() {
        let p = Profiler::new();
        assert!(p.report().contains("no profile recorded"));
        assert_eq!(p.tree().to_folded(), "");
        assert!(p.tree().to_chrome_trace().contains("\"traceEvents\":[]"));
    }
}
