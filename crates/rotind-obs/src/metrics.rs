//! Metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! The registry is a plain value — no global state, no locks, no
//! background threads. Harnesses own one, feed it during a run, and
//! render it at the end either as Prometheus-style exposition text
//! ([`MetricsRegistry::render_prometheus`]) or as one JSON object per
//! recorded event ([`MetricsRegistry::export_jsonl`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A fixed-bucket histogram in the Prometheus style: cumulative bucket
/// counts at explicit upper bounds plus an implicit `+Inf` bucket, a
/// running sum and a total count.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `counts[i]` is the number of observations `<= bounds[i]`;
    /// `counts[bounds.len()]` is the `+Inf` bucket. Counts are
    /// *non-cumulative* internally and accumulated at render time.
    counts: Vec<u64>,
    sum: f64,
    total: u64,
}

impl Histogram {
    /// A histogram with the given ascending upper bounds.
    ///
    /// # Panics
    /// Panics when `bounds` is empty or not strictly ascending.
    // lint: panic-exempt(documented precondition: registry histograms are built from static ascending bound lists)
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let n = bounds.len();
        Histogram {
            bounds,
            counts: vec![0; n + 1],
            sum: 0.0,
            total: 0,
        }
    }

    /// `n` equal-width buckets covering `[lo, hi]`.
    pub fn linear(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n > 0 && hi > lo, "need n > 0 and hi > lo");
        // `lo + span * i / n` (not an accumulated width) keeps bounds
        // like 0.3 exact, so exposition labels stay clean.
        Histogram::new(
            (1..=n)
                .map(|i| lo + (hi - lo) * i as f64 / n as f64)
                .collect(),
        )
    }

    /// Buckets for a ratio in `[0, 1]`: 0.1, 0.2, …, 1.0.
    pub fn ratio() -> Self {
        Histogram::linear(0.0, 1.0, 10)
    }

    /// Record one observation.
    // lint: panic-exempt(counts has bounds.len() + 1 slots, and position never exceeds bounds.len())
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.total += 1;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation, or `None` before the first one.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum / self.total as f64)
    }

    /// `(upper_bound, count)` per bucket, non-cumulative; the final
    /// entry has bound `f64::INFINITY`.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(self.counts.iter().copied())
    }

    /// Fold another histogram with identical bounds into this one.
    ///
    /// # Panics
    /// Panics when the bucket bounds differ.
    // lint: panic-exempt(documented precondition: merged registries are created from the same static bounds)
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds must match");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.total += other.total;
    }
}

/// Sub-bucket resolution of [`LogHistogram`]: each power of two splits
/// into `2^LOG_SUB_BITS` linear sub-buckets, so any reported quantile
/// is within `1/2^LOG_SUB_BITS` (6.25%) of a true sample value —
/// and *exact* for values below `2^LOG_SUB_BITS`.
const LOG_SUB_BITS: u32 = 4;
const LOG_SUB: usize = 1 << LOG_SUB_BITS;
/// 16 exact low buckets + 16 sub-buckets for each of the 60 remaining
/// powers of two of the `u64` range.
const LOG_BUCKETS: usize = LOG_SUB + (64 - LOG_SUB_BITS as usize) * LOG_SUB;

/// A streaming log-bucketed histogram over `u64` samples (latencies in
/// nanoseconds, step counts) — HDR-style: log2 major buckets, linear
/// sub-buckets, fixed memory, O(1) observe.
///
/// Unlike [`Histogram`] the bucket layout is universal (covers all of
/// `u64` at bounded relative error), so merging never needs matching
/// bounds: two `LogHistogram`s always merge, and because the state is
/// pure integer counts the merge is exactly associative and
/// commutative — histograms filled apart (one per load-generating
/// client, say) can be folded in any order and export identical
/// buckets (property-tested in `tests/profiling.rs`).
///
/// ```
/// use rotind_obs::LogHistogram;
/// let mut h = LogHistogram::new();
/// for v in [10, 20, 30, 40, 50, 60, 70, 80, 90, 1000] {
///     h.observe(v);
/// }
/// assert_eq!(h.count(), 10);
/// assert!(h.quantile(0.5).unwrap() <= 60);
/// assert!(h.quantile(0.99).unwrap() >= 900);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    /// Exact integer sum (`u128` so that merge stays associative —
    /// float accumulation would not be).
    sum: u128,
    total: u64,
    min: u64,
    max: u64,
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.total)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram. The bucket layout is fixed, so there is
    /// nothing to configure.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; LOG_BUCKETS],
            sum: 0,
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value < LOG_SUB as u64 {
            return value as usize;
        }
        // Highest set bit h >= LOG_SUB_BITS; the sub-bucket is the next
        // LOG_SUB_BITS bits below it.
        let h = 63 - value.leading_zeros();
        let major = (h - LOG_SUB_BITS) as usize;
        let sub = ((value >> (h - LOG_SUB_BITS)) & (LOG_SUB as u64 - 1)) as usize;
        LOG_SUB + major * LOG_SUB + sub
    }

    /// Inclusive upper bound of the bucket at `idx` — the largest value
    /// that lands in it.
    fn bucket_high(idx: usize) -> u64 {
        if idx < LOG_SUB {
            return idx as u64;
        }
        let major = ((idx - LOG_SUB) / LOG_SUB) as u32;
        let sub = ((idx - LOG_SUB) % LOG_SUB) as u128;
        // Values here have highest bit at `major + LOG_SUB_BITS`; the
        // low `major` bits are free, so the top of the bucket is all
        // ones below the sub-bucket prefix. Computed in u128 because
        // the topmost bucket's bound is exactly 2^64 - 1.
        let high = ((LOG_SUB as u128 + sub + 1) << major) - 1;
        u64::try_from(high).unwrap_or(u64::MAX)
    }

    /// Record one sample.
    #[inline]
    // lint: panic-exempt(bucket_index is below LOG_BUCKETS for every u64 by construction)
    pub fn observe(&mut self, value: u64) {
        // `bucket_index` is < LOG_BUCKETS for every u64 by construction.
        // rotind-lint: allow(no-index)
        self.counts[Self::bucket_index(value)] += 1;
        self.sum += value as u128;
        self.total += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Record a [`std::time::Duration`] in nanoseconds (saturating at
    /// `u64::MAX` ≈ 584 years).
    #[inline]
    pub fn observe_duration(&mut self, d: std::time::Duration) {
        self.observe(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean sample, or `None` before the first one.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// Smallest sample seen (exact), or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest sample seen (exact), or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// holding the rank-`⌈q·n⌉` sample, clamped to the exact observed
    /// `[min, max]`. Within 6.25% of the true sample value; exact for
    /// samples below 16.
    ///
    /// Edge cases are fully defined: `None` when the histogram is
    /// empty or `q` is NaN; `q <= 0.0` is the exact observed minimum;
    /// `q >= 1.0` is the exact observed maximum. The result is
    /// monotone non-decreasing in `q` (property-tested in
    /// `tests/profiling.rs`).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 || q.is_nan() {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_high(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Fold another histogram into this one. The layout is universal,
    /// so this never fails; integer state makes it exactly associative
    /// and commutative across any merge order.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// `(inclusive_upper_bound, count)` for each non-empty bucket, in
    /// ascending order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| (Self::bucket_high(idx), c))
    }
}

/// A JSONL-exportable event: a name plus numeric fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    name: String,
    fields: Vec<(String, f64)>,
}

/// Registry of named counters, gauges, histograms and events.
///
/// ```
/// use rotind_obs::{Histogram, MetricsRegistry};
/// let mut reg = MetricsRegistry::new();
/// reg.counter_add("rotind_queries_total", 1);
/// reg.gauge_set("rotind_planner_k", 8.0);
/// reg.histogram("rotind_lb_tightness", Histogram::ratio).observe(0.85);
/// let text = reg.render_prometheus();
/// assert!(text.contains("rotind_queries_total 1"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    log_histograms: BTreeMap<String, LogHistogram>,
    events: Vec<Event>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named monotonic counter (created at zero).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Set the named gauge to `value`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// The named histogram, created with `make` on first use.
    pub fn histogram(&mut self, name: &str, make: impl FnOnce() -> Histogram) -> &mut Histogram {
        self.histograms.entry(name.to_string()).or_insert_with(make)
    }

    /// The named log-bucketed histogram, created empty on first use
    /// (the layout is universal, so no constructor is needed).
    pub fn log_histogram(&mut self, name: &str) -> &mut LogHistogram {
        self.log_histograms.entry(name.to_string()).or_default()
    }

    /// Read access to a log-bucketed histogram, when present.
    pub fn log_histogram_get(&self, name: &str) -> Option<&LogHistogram> {
        self.log_histograms.get(name)
    }

    /// Current value of a counter (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, when set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record a structured event for JSONL export.
    pub fn record_event(&mut self, name: &str, fields: &[(&str, f64)]) {
        self.events.push(Event {
            name: name.to_string(),
            fields: fields.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }

    /// Number of recorded events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Prometheus-style text exposition of counters, gauges and
    /// histograms (events are JSONL-only).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", fmt_value(*value));
        }
        for (name, hist) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (bound, count) in hist.buckets() {
                cumulative += count;
                let le = if bound.is_infinite() {
                    "+Inf".to_string()
                } else {
                    fmt_value(bound)
                };
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_sum {}", fmt_value(hist.sum()));
            let _ = writeln!(out, "{name}_count {}", hist.count());
        }
        for (name, hist) in &self.log_histograms {
            // Log-bucketed histograms expose quantiles directly, which
            // maps onto the Prometheus summary type.
            let _ = writeln!(out, "# TYPE {name} summary");
            for q in [0.5, 0.95, 0.99] {
                if let Some(v) = hist.quantile(q) {
                    let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
                }
            }
            let _ = writeln!(out, "{name}_sum {}", hist.sum());
            let _ = writeln!(out, "{name}_count {}", hist.count());
        }
        out
    }

    /// Fold another registry into this one: counters add, gauges take
    /// `other`'s value (a join adopts the child's last write), matching
    /// histograms merge and new ones are copied in, events are appended
    /// after this registry's events. Merging registries filled apart in
    /// a fixed order makes the result deterministic.
    ///
    /// # Panics
    /// Panics when `self` and `other` define the same histogram with
    /// different bucket bounds (see [`Histogram::merge`]).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, value) in &other.counters {
            self.counter_add(name, *value);
        }
        for (name, value) in &other.gauges {
            self.gauges.insert(name.clone(), *value);
        }
        for (name, hist) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(hist),
                None => {
                    self.histograms.insert(name.clone(), hist.clone());
                }
            }
        }
        for (name, hist) in &other.log_histograms {
            self.log_histogram(name).merge(hist);
        }
        self.events.extend(other.events.iter().cloned());
    }

    /// One JSON object per recorded event, newline-separated.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            let _ = write!(out, "{{\"event\":\"{}\"", escape_json(&event.name));
            for (key, value) in &event.fields {
                let _ = write!(out, ",\"{}\":{}", escape_json(key), fmt_value(*value));
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Render a float the way Prometheus and JSON both accept: integral
/// values without a trailing `.0` noise-free, non-finite values quoted
/// out as extreme sentinels would break JSON, so clamp to literals.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new(vec![1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 3.0, 10.0] {
            h.observe(v);
        }
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets[0], (1.0, 1));
        assert_eq!(buckets[1], (2.0, 1));
        assert_eq!(buckets[2], (4.0, 1));
        assert_eq!(buckets[3].1, 1, "+Inf bucket");
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 15.0).abs() < 1e-12);
        assert!((h.mean().unwrap() - 3.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_linear_and_ratio() {
        let h = Histogram::linear(0.0, 1.0, 4);
        let bounds: Vec<f64> = h.buckets().map(|(b, _)| b).collect();
        assert!((bounds[0] - 0.25).abs() < 1e-12);
        assert!((bounds[3] - 1.0).abs() < 1e-12);
        assert!(bounds[4].is_infinite());
        assert_eq!(Histogram::ratio().buckets().count(), 11);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::ratio();
        let mut b = Histogram::ratio();
        a.observe(0.15);
        b.observe(0.95);
        b.observe(0.15);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        let second_bucket = a.buckets().nth(1).unwrap();
        assert_eq!(second_bucket.1, 2, "two observations in (0.1, 0.2]");
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(vec![2.0, 1.0]);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("q_total", 2);
        reg.counter_add("q_total", 1);
        reg.gauge_set("k_current", 8.0);
        reg.histogram("tightness", Histogram::ratio).observe(0.42);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE q_total counter\nq_total 3\n"));
        assert!(text.contains("# TYPE k_current gauge\nk_current 8\n"));
        assert!(text.contains("tightness_bucket{le=\"0.5\"} 1"));
        assert!(text.contains("tightness_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("tightness_count 1"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("h", || Histogram::new(vec![1.0, 2.0]));
        h.observe(0.5);
        h.observe(1.5);
        let text = reg.render_prometheus();
        assert!(text.contains("h_bucket{le=\"1\"} 1"));
        assert!(text.contains("h_bucket{le=\"2\"} 2"));
        assert!(text.contains("h_bucket{le=\"+Inf\"} 2"));
    }

    #[test]
    fn registry_merge_combines_all_kinds() {
        let mut a = MetricsRegistry::new();
        a.counter_add("c", 2);
        a.gauge_set("g", 1.0);
        a.histogram("h", Histogram::ratio).observe(0.2);
        a.record_event("e", &[("x", 1.0)]);
        let mut b = MetricsRegistry::new();
        b.counter_add("c", 3);
        b.counter_add("only_b", 1);
        b.gauge_set("g", 5.0);
        b.histogram("h", Histogram::ratio).observe(0.8);
        b.histogram("h2", Histogram::ratio).observe(0.5);
        b.record_event("e", &[("x", 2.0)]);
        a.merge(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.counter("only_b"), 1);
        assert_eq!(a.gauge("g"), Some(5.0), "merge adopts the child gauge");
        assert_eq!(a.histogram("h", Histogram::ratio).count(), 2);
        assert_eq!(a.histogram("h2", Histogram::ratio).count(), 1);
        assert_eq!(a.event_count(), 2);
        let jsonl = a.export_jsonl();
        let lines: Vec<_> = jsonl.lines().collect();
        assert!(lines[0].contains("\"x\":1"), "own events come first");
        assert!(lines[1].contains("\"x\":2"));
    }

    #[test]
    #[should_panic(expected = "bounds must match")]
    fn registry_merge_rejects_mismatched_histograms() {
        let mut a = MetricsRegistry::new();
        a.histogram("h", Histogram::ratio).observe(0.2);
        let mut b = MetricsRegistry::new();
        b.histogram("h", || Histogram::linear(0.0, 2.0, 4))
            .observe(0.5);
        a.merge(&b);
    }

    #[test]
    fn log_histogram_exact_below_sixteen() {
        let mut h = LogHistogram::new();
        for v in 0..16u64 {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.5), Some(7));
        assert_eq!(h.quantile(1.0), Some(15));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(15));
        assert_eq!(h.sum(), 120);
    }

    #[test]
    fn log_histogram_quantile_within_resolution() {
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.observe(v);
        }
        let p50 = h.quantile(0.5).unwrap() as f64;
        let p99 = h.quantile(0.99).unwrap() as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.0625, "p50 = {p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.0625, "p99 = {p99}");
    }

    #[test]
    fn log_histogram_bucket_roundtrip_covers_u64() {
        // Every sample must land in a bucket whose reported bound is
        // >= the sample and within the documented relative error.
        for &v in &[
            0,
            1,
            15,
            16,
            17,
            255,
            256,
            1_000_000,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = LogHistogram::bucket_index(v);
            let high = LogHistogram::bucket_high(idx);
            assert!(high >= v, "bucket_high({idx}) = {high} < {v}");
            if v >= 16 {
                assert!((high - v) as f64 <= v as f64 * 0.0625, "{v} -> {high}");
            }
        }
    }

    #[test]
    fn log_histogram_quantile_edge_cases() {
        let empty = LogHistogram::new();
        assert_eq!(empty.quantile(0.5), None);
        assert_eq!(empty.quantile(f64::NAN), None);
        let mut h = LogHistogram::new();
        for v in [100u64, 2_000, 30_000] {
            h.observe(v);
        }
        assert_eq!(h.quantile(f64::NAN), None, "NaN rank is meaningless");
        assert_eq!(h.quantile(0.0), Some(100), "q <= 0 is the exact min");
        assert_eq!(h.quantile(-3.0), Some(100));
        assert_eq!(h.quantile(f64::NEG_INFINITY), Some(100));
        assert_eq!(h.quantile(1.0), Some(30_000), "q >= 1 is the exact max");
        assert_eq!(h.quantile(7.0), Some(30_000));
        assert_eq!(h.quantile(f64::INFINITY), Some(30_000));
    }

    #[test]
    fn log_histogram_quantile_monotone_in_q() {
        let mut h = LogHistogram::new();
        for v in [1u64, 7, 19, 400, 90_000, 90_000, 12] {
            h.observe(v);
        }
        let mut prev = 0u64;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = h.quantile(q).unwrap();
            assert!(v >= prev, "quantile({q}) = {v} < quantile(prev) = {prev}");
            prev = v;
        }
    }

    #[test]
    fn log_histogram_merge_is_exact() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for v in [3u64, 900, 17, 40_000, 5] {
            whole.observe(v);
        }
        a.observe(3);
        a.observe(900);
        b.observe(17);
        b.observe(40_000);
        b.observe(5);
        a.merge(&b);
        assert_eq!(a, whole, "merge equals observing the union");
    }

    #[test]
    fn log_histogram_empty_and_duration() {
        let mut h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        h.observe_duration(std::time::Duration::from_nanos(1500));
        assert_eq!(h.count(), 1);
        assert!(h.quantile(0.5).unwrap() >= 1500);
    }

    #[test]
    fn registry_log_histograms_merge_and_render() {
        let mut a = MetricsRegistry::new();
        a.log_histogram("rotind_query_latency_ns").observe(1000);
        let mut b = MetricsRegistry::new();
        b.log_histogram("rotind_query_latency_ns").observe(2000);
        a.merge(&b);
        assert_eq!(
            a.log_histogram_get("rotind_query_latency_ns")
                .unwrap()
                .count(),
            2
        );
        let text = a.render_prometheus();
        assert!(text.contains("# TYPE rotind_query_latency_ns summary"));
        assert!(text.contains("rotind_query_latency_ns{quantile=\"0.5\"}"));
        assert!(text.contains("rotind_query_latency_ns_count 2"));
    }

    #[test]
    fn jsonl_events() {
        let mut reg = MetricsRegistry::new();
        reg.record_event("query_done", &[("steps", 1234.0), ("k", 8.0)]);
        reg.record_event("k_change", &[("old", 8.0), ("new", 4.0)]);
        let jsonl = reg.export_jsonl();
        let lines: Vec<_> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"event\":\"query_done\",\"steps\":1234,\"k\":8}"
        );
        assert_eq!(lines[1], "{\"event\":\"k_change\",\"old\":8,\"new\":4}");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("x\ny"), "x\\u000ay");
    }

    #[test]
    fn counter_and_gauge_readback() {
        let mut reg = MetricsRegistry::new();
        assert_eq!(reg.counter("missing"), 0);
        assert_eq!(reg.gauge("missing"), None);
        reg.counter_add("c", 7);
        reg.gauge_set("g", -1.25);
        assert_eq!(reg.counter("c"), 7);
        assert_eq!(reg.gauge("g"), Some(-1.25));
    }
}
