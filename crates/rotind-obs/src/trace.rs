//! [`QueryTrace`]: a ready-made [`SearchObserver`] that summarises one
//! (or many) wedge searches.
//!
//! The trace answers the questions `num_steps` alone cannot:
//!
//! - **Where does pruning happen?** Wedge tests and prunes are counted
//!   per descent level below the H-Merge cut (level 0 = the K cut
//!   wedges themselves).
//! - **How tight is LB_Keogh?** Each true leaf distance is paired with
//!   the lower bound that admitted it, and the ratio `lb / true_dist`
//!   is recorded in a `[0, 1]` histogram — mass near 1 means the bound
//!   is doing almost all the work.
//! - **How deep do early abandons run?** Abandon positions are recorded
//!   as the fraction of the series consumed before the running sum
//!   crossed the threshold.
//! - **What did the K planner do?** Every K change is logged with its
//!   position in the search (wedge-test sequence number) and whether it
//!   was a probe or an adoption.

use crate::metrics::{Histogram, MetricsRegistry};
use crate::observer::{CascadeTier, SearchObserver};
use std::fmt::Write as _;

/// One dynamic-K transition, in search order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KChange {
    /// Number of wedge tests performed before the change.
    pub seq: u64,
    /// K before the change.
    pub old: usize,
    /// K after the change.
    pub new: usize,
    /// True when the change starts a measurement probe, false when it
    /// adopts a measured winner.
    pub probing: bool,
}

/// Aggregating observer for wedge searches; see the module docs.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    series_len: usize,
    tested_by_level: Vec<u64>,
    pruned_by_level: Vec<u64>,
    leaf_count: u64,
    abandon_count: u64,
    tightness: Histogram,
    abandon_depth: Histogram,
    k_timeline: Vec<KChange>,
    wedge_seq: u64,
    last_unpruned_lb: Option<f64>,
    tier_tested: [u64; CascadeTier::ALL.len()],
    tier_pruned: [u64; CascadeTier::ALL.len()],
}

impl QueryTrace {
    /// A fresh trace for series of length `series_len` (used to express
    /// abandon depths as fractions; pass the query length).
    pub fn new(series_len: usize) -> Self {
        QueryTrace {
            series_len: series_len.max(1),
            tested_by_level: Vec::new(),
            pruned_by_level: Vec::new(),
            leaf_count: 0,
            abandon_count: 0,
            tightness: Histogram::ratio(),
            abandon_depth: Histogram::ratio(),
            k_timeline: Vec::new(),
            wedge_seq: 0,
            last_unpruned_lb: None,
            tier_tested: [0; CascadeTier::ALL.len()],
            tier_pruned: [0; CascadeTier::ALL.len()],
        }
    }

    /// Number of levels with at least one wedge test.
    pub fn levels(&self) -> usize {
        self.tested_by_level.len()
    }

    /// Wedge tests at `level` (0 = the H-Merge cut).
    pub fn tested(&self, level: usize) -> u64 {
        self.tested_by_level.get(level).copied().unwrap_or(0)
    }

    /// Prunes at `level`.
    pub fn pruned(&self, level: usize) -> u64 {
        self.pruned_by_level.get(level).copied().unwrap_or(0)
    }

    /// Fraction of wedge tests at `level` that pruned their subtree,
    /// or `None` when nothing was tested there.
    pub fn prune_rate(&self, level: usize) -> Option<f64> {
        let tested = self.tested(level);
        (tested > 0).then(|| self.pruned(level) as f64 / tested as f64)
    }

    /// Prune rate pooled over `level..` (used for the "level 2+"
    /// reporting column).
    pub fn prune_rate_from(&self, level: usize) -> Option<f64> {
        let tested: u64 = self.tested_by_level.iter().skip(level).sum();
        let pruned: u64 = self.pruned_by_level.iter().skip(level).sum();
        (tested > 0).then(|| pruned as f64 / tested as f64)
    }

    /// Total wedge tests across all levels.
    pub fn wedges_tested(&self) -> u64 {
        self.tested_by_level.iter().sum()
    }

    /// Total true leaf-distance evaluations.
    pub fn leaf_distances(&self) -> u64 {
        self.leaf_count
    }

    /// Total early abandons.
    pub fn early_abandons(&self) -> u64 {
        self.abandon_count
    }

    /// The `lb / true_dist` tightness histogram.
    pub fn tightness(&self) -> &Histogram {
        &self.tightness
    }

    /// The abandon-depth histogram (fraction of the series consumed).
    pub fn abandon_depth(&self) -> &Histogram {
        &self.abandon_depth
    }

    /// The K-planner timeline, in search order.
    pub fn k_timeline(&self) -> &[KChange] {
        &self.k_timeline
    }

    /// Bound evaluations by cascade tier.
    pub fn tier_tested(&self, tier: CascadeTier) -> u64 {
        self.tier_tested[tier.index()]
    }

    /// Dismissals attributed to a cascade tier (the tier whose bound
    /// exceeded best-so-far; later tiers never ran for that pair).
    pub fn tier_pruned(&self, tier: CascadeTier) -> u64 {
        self.tier_pruned[tier.index()]
    }

    /// Fraction of a tier's evaluations that pruned, or `None` when the
    /// tier never ran.
    pub fn tier_prune_rate(&self, tier: CascadeTier) -> Option<f64> {
        let tested = self.tier_tested(tier);
        (tested > 0).then(|| self.tier_pruned(tier) as f64 / tested as f64)
    }

    /// Total dismissals attributed to any cascade tier.
    pub fn tier_pruned_total(&self) -> u64 {
        self.tier_pruned.iter().sum()
    }

    /// Fold `other` into this trace (accumulate across queries).
    /// K changes keep their per-query sequence numbers.
    // lint: panic-exempt(both level vectors are resized to the shared maximum before the writes)
    pub fn merge(&mut self, other: &QueryTrace) {
        let levels = self.tested_by_level.len().max(other.tested_by_level.len());
        self.tested_by_level.resize(levels, 0);
        self.pruned_by_level.resize(levels, 0);
        for (i, &v) in other.tested_by_level.iter().enumerate() {
            self.tested_by_level[i] += v;
        }
        for (i, &v) in other.pruned_by_level.iter().enumerate() {
            self.pruned_by_level[i] += v;
        }
        self.leaf_count = self.leaf_count.saturating_add(other.leaf_count);
        self.abandon_count = self.abandon_count.saturating_add(other.abandon_count);
        self.tightness.merge(&other.tightness);
        self.abandon_depth.merge(&other.abandon_depth);
        self.k_timeline.extend_from_slice(&other.k_timeline);
        self.wedge_seq += other.wedge_seq;
        for i in 0..CascadeTier::ALL.len() {
            self.tier_tested[i] = self.tier_tested[i].saturating_add(other.tier_tested[i]);
            self.tier_pruned[i] = self.tier_pruned[i].saturating_add(other.tier_pruned[i]);
        }
    }

    /// Export the trace into a [`MetricsRegistry`] under `rotind_`
    /// metric names (see DESIGN.md, "Observability").
    pub fn export_to(&self, registry: &mut MetricsRegistry) {
        for level in 0..self.levels() {
            registry.counter_add(
                &format!("rotind_wedges_tested_l{level}"),
                self.tested(level),
            );
            registry.counter_add(
                &format!("rotind_wedges_pruned_l{level}"),
                self.pruned(level),
            );
        }
        for tier in CascadeTier::ALL {
            registry.counter_add(
                &format!("rotind_cascade_tested_{}", tier.name()),
                self.tier_tested(tier),
            );
            registry.counter_add(
                &format!("rotind_cascade_pruned_{}", tier.name()),
                self.tier_pruned(tier),
            );
        }
        registry.counter_add("rotind_leaf_distances_total", self.leaf_count);
        registry.counter_add("rotind_early_abandons_total", self.abandon_count);
        registry.counter_add("rotind_k_changes_total", self.k_timeline.len() as u64);
        registry
            .histogram("rotind_lb_tightness_ratio", Histogram::ratio)
            .merge(&self.tightness);
        registry
            .histogram("rotind_abandon_depth_fraction", Histogram::ratio)
            .merge(&self.abandon_depth);
        if let Some(last) = self.k_timeline.last() {
            registry.gauge_set("rotind_planner_k", last.new as f64);
        }
        for change in &self.k_timeline {
            registry.record_event(
                "k_change",
                &[
                    ("seq", change.seq as f64),
                    ("old", change.old as f64),
                    ("new", change.new as f64),
                    ("probing", if change.probing { 1.0 } else { 0.0 }),
                ],
            );
        }
    }

    /// Human-readable multi-line summary of the trace.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "wedge tests: {} | leaf distances: {} | early abandons: {}",
            self.wedges_tested(),
            self.leaf_count,
            self.abandon_count
        );
        for level in 0..self.levels() {
            let rate = self.prune_rate(level).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "  level {level}: tested {:>8}  pruned {:>8}  ({:.1}% pruned)",
                self.tested(level),
                self.pruned(level),
                100.0 * rate
            );
        }
        if self.tier_tested.iter().any(|&t| t > 0) {
            let _ = write!(out, "cascade tiers:");
            for tier in CascadeTier::ALL {
                if self.tier_tested(tier) > 0 {
                    let _ = write!(
                        out,
                        " [{} tested {} pruned {} ({:.1}%)]",
                        tier.name(),
                        self.tier_tested(tier),
                        self.tier_pruned(tier),
                        100.0 * self.tier_prune_rate(tier).unwrap_or(0.0)
                    );
                }
            }
            let _ = writeln!(out);
        }
        if let Some(mean) = self.tightness.mean() {
            let _ = writeln!(
                out,
                "lb tightness (lb/true over {} admitted leaves): mean {:.3}",
                self.tightness.count(),
                mean
            );
        }
        if let Some(mean) = self.abandon_depth.mean() {
            let _ = writeln!(
                out,
                "abandon depth (fraction of series): mean {:.3} over {} abandons",
                mean,
                self.abandon_depth.count()
            );
        }
        if self.k_timeline.is_empty() {
            let _ = writeln!(out, "k timeline: (no changes)");
        } else {
            let _ = write!(out, "k timeline:");
            for c in &self.k_timeline {
                let tag = if c.probing { "probe" } else { "adopt" };
                let _ = write!(out, " [{}@{} {}->{}]", tag, c.seq, c.old, c.new);
            }
            let _ = writeln!(out);
        }
        out
    }

    fn level_slot(&mut self, level: usize) {
        if level >= self.tested_by_level.len() {
            self.tested_by_level.resize(level + 1, 0);
            self.pruned_by_level.resize(level + 1, 0);
        }
    }
}

impl Default for QueryTrace {
    fn default() -> Self {
        QueryTrace::new(1)
    }
}

impl SearchObserver for QueryTrace {
    // lint: panic-exempt(level_slot grows both per-level vectors past level before the increments)
    fn on_wedge_tested(&mut self, level: usize, lb: f64, best_so_far: f64, pruned: bool) {
        let _ = best_so_far;
        self.wedge_seq += 1;
        self.level_slot(level);
        self.tested_by_level[level] += 1;
        if pruned {
            self.pruned_by_level[level] += 1;
        } else {
            // The engine fires the leaf's own wedge test immediately
            // before its true distance, so this pairs exactly.
            self.last_unpruned_lb = Some(lb);
        }
    }

    fn on_leaf_distance(&mut self, distance: f64) {
        self.leaf_count = self.leaf_count.saturating_add(1);
        if let Some(lb) = self.last_unpruned_lb.take() {
            let ratio = if distance > f64::EPSILON {
                (lb / distance).clamp(0.0, 1.0)
            } else {
                1.0 // exact match: the bound cannot be tighter
            };
            self.tightness.observe(ratio);
        }
    }

    fn on_early_abandon(&mut self, position: usize) {
        self.abandon_count = self.abandon_count.saturating_add(1);
        let fraction = (position as f64 / self.series_len as f64).clamp(0.0, 1.0);
        self.abandon_depth.observe(fraction);
    }

    fn on_k_change(&mut self, old: usize, new: usize, probing: bool) {
        self.k_timeline.push(KChange {
            seq: self.wedge_seq,
            old,
            new,
            probing,
        });
    }

    // lint: panic-exempt(CascadeTier::index is below the fixed tier-array length by construction)
    fn on_cascade_tier(&mut self, tier: CascadeTier, pruned: bool) {
        let i = tier.index();
        self.tier_tested[i] = self.tier_tested[i].saturating_add(1);
        if pruned {
            self.tier_pruned[i] = self.tier_pruned[i].saturating_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_grow_and_count() {
        let mut t = QueryTrace::new(100);
        t.on_wedge_tested(0, 1.0, 5.0, true);
        t.on_wedge_tested(0, 1.0, 5.0, false);
        t.on_wedge_tested(2, 3.0, 5.0, true);
        assert_eq!(t.levels(), 3);
        assert_eq!(t.tested(0), 2);
        assert_eq!(t.pruned(0), 1);
        assert_eq!(t.tested(1), 0);
        assert_eq!(t.pruned(2), 1);
        assert_eq!(t.wedges_tested(), 3);
        assert_eq!(t.prune_rate(0), Some(0.5));
        assert_eq!(t.prune_rate(1), None);
        assert_eq!(t.prune_rate_from(1), Some(1.0));
    }

    #[test]
    fn tightness_pairs_lb_with_next_leaf() {
        let mut t = QueryTrace::new(100);
        t.on_wedge_tested(0, 4.0, 10.0, false);
        t.on_leaf_distance(5.0); // ratio 0.8
                                 // A pruned wedge must not leave a stale lb behind.
        t.on_wedge_tested(0, 9.0, 10.0, true);
        t.on_leaf_distance(2.0); // unpaired: no ratio recorded
        assert_eq!(t.leaf_distances(), 2);
        assert_eq!(t.tightness().count(), 1);
        assert!((t.tightness().mean().unwrap() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn zero_distance_leaf_counts_as_fully_tight() {
        let mut t = QueryTrace::new(10);
        t.on_wedge_tested(0, 0.0, 1.0, false);
        t.on_leaf_distance(0.0);
        assert!((t.tightness().mean().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn abandon_depth_is_fractional() {
        let mut t = QueryTrace::new(200);
        t.on_early_abandon(50); // 0.25
        t.on_early_abandon(150); // 0.75
        assert_eq!(t.early_abandons(), 2);
        assert!((t.abandon_depth().mean().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn k_timeline_records_sequence_position() {
        let mut t = QueryTrace::new(10);
        t.on_wedge_tested(0, 1.0, 2.0, true);
        t.on_wedge_tested(0, 1.0, 2.0, true);
        t.on_k_change(8, 4, true);
        t.on_wedge_tested(0, 1.0, 2.0, true);
        t.on_k_change(4, 8, false);
        let timeline = t.k_timeline();
        assert_eq!(timeline.len(), 2);
        assert_eq!(
            timeline[0],
            KChange {
                seq: 2,
                old: 8,
                new: 4,
                probing: true
            }
        );
        assert_eq!(timeline[1].seq, 3);
        assert!(!timeline[1].probing);
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = QueryTrace::new(100);
        a.on_wedge_tested(0, 1.0, 2.0, true);
        a.on_early_abandon(10);
        let mut b = QueryTrace::new(100);
        b.on_wedge_tested(1, 1.0, 2.0, false);
        b.on_leaf_distance(2.0);
        b.on_k_change(8, 4, false);
        a.merge(&b);
        assert_eq!(a.tested(0), 1);
        assert_eq!(a.tested(1), 1);
        assert_eq!(a.leaf_distances(), 1);
        assert_eq!(a.early_abandons(), 1);
        assert_eq!(a.k_timeline().len(), 1);
        assert_eq!(a.tightness().count(), 1);
    }

    #[test]
    fn tier_counters_accumulate_merge_and_report() {
        let mut a = QueryTrace::new(32);
        a.on_cascade_tier(CascadeTier::Kim, false);
        a.on_cascade_tier(CascadeTier::Keogh, true);
        let mut b = QueryTrace::new(32);
        b.on_cascade_tier(CascadeTier::Kim, true);
        a.merge(&b);
        assert_eq!(a.tier_tested(CascadeTier::Kim), 2);
        assert_eq!(a.tier_pruned(CascadeTier::Kim), 1);
        assert_eq!(a.tier_prune_rate(CascadeTier::Kim), Some(0.5));
        assert_eq!(a.tier_prune_rate(CascadeTier::Improved), None);
        assert_eq!(a.tier_pruned_total(), 2);
        let report = a.report();
        assert!(report.contains("cascade tiers:"), "{report}");
        assert!(report.contains("[kim tested 2 pruned 1"), "{report}");
        let mut reg = MetricsRegistry::new();
        a.export_to(&mut reg);
        assert_eq!(reg.counter("rotind_cascade_tested_kim"), 2);
        assert_eq!(reg.counter("rotind_cascade_pruned_keogh"), 1);
    }

    #[test]
    fn export_to_registry() {
        let mut t = QueryTrace::new(100);
        t.on_wedge_tested(0, 1.0, 2.0, true);
        t.on_wedge_tested(0, 1.0, 2.0, false);
        t.on_leaf_distance(2.0);
        t.on_k_change(8, 4, false);
        let mut reg = MetricsRegistry::new();
        t.export_to(&mut reg);
        assert_eq!(reg.counter("rotind_wedges_tested_l0"), 2);
        assert_eq!(reg.counter("rotind_wedges_pruned_l0"), 1);
        assert_eq!(reg.counter("rotind_leaf_distances_total"), 1);
        assert_eq!(reg.counter("rotind_k_changes_total"), 1);
        assert_eq!(reg.gauge("rotind_planner_k"), Some(4.0));
        assert_eq!(reg.event_count(), 1);
        let text = reg.render_prometheus();
        assert!(text.contains("rotind_lb_tightness_ratio_count 1"));
    }

    #[test]
    fn report_mentions_all_sections() {
        let mut t = QueryTrace::new(100);
        t.on_wedge_tested(0, 1.0, 2.0, false);
        t.on_leaf_distance(2.0);
        t.on_early_abandon(25);
        t.on_k_change(8, 16, true);
        let report = t.report();
        assert!(report.contains("level 0"));
        assert!(report.contains("lb tightness"));
        assert!(report.contains("abandon depth"));
        assert!(report.contains("k timeline"));
        assert!(report.contains("probe@1 8->16"));
    }
}
