//! The traced pass: the request stream replayed, one request at a time,
//! through each layer's public functions, each call timed from outside.
//!
//! For every request it records spans — request id, span id, parent,
//! start and end — around the wire codec calls, `engine.build`
//! (`RotationQuery::with_measure`) and `engine.scan` (the budgeted
//! cached scan with a `Profiler` attached). The profiler's aggregated
//! wedge-merge, tier and distance totals become children of
//! `engine.scan`, laid out one after another from its start, so their
//! widths are true totals and their positions schematic. The same
//! request also runs untraced through `IndexSnapshot::execute` with its
//! own cache fed the same sequence, which must give the same answer and
//! step count and is the base of the tracing overhead.

use crate::oracle::check;
use crate::stats::median;
use crate::workload::Stream;
use crate::Metric;
use rotind_index::{IndexSnapshot, QueryKind, RotationQuery};
use rotind_obs::{
    BudgetOutcome, BudgetReason, CascadeTier, NoopObserver, ProfileNode, Profiler, QueryBudget,
};
use rotind_serve::wire::{self, Hit, QueryResponse, QueryStatus, Request, Response};
use rotind_ts::StepCounter;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Stream index of the request.
    pub request: u64,
    /// Span id, unique within the pass.
    pub id: usize,
    /// Enclosing span, `None` for the request itself.
    pub parent: Option<usize>,
    /// Layer name.
    pub name: &'static str,
    /// Start, ns since the pass began.
    pub start_ns: u64,
    /// End, ns since the pass began.
    pub end_ns: u64,
    /// Calls aggregated into this span (1 for a single call).
    pub calls: u64,
}

/// Per-request times and counts of the traced pass.
#[derive(Debug, Clone, Default)]
struct Sample {
    encode_request_ns: u64,
    decode_request_ns: u64,
    build_ns: u64,
    scan_ns: u64,
    encode_response_ns: u64,
    decode_response_ns: u64,
    untraced_execute_ns: u64,
    coverage: f64,
    steps: u64,
    wedge_merge_calls: u64,
    wedge_merge_self_ns: u64,
    leaf_calls: u64,
    leaf_ns: u64,
    /// tested, pruned, ns — indexed like `CascadeTier::ALL`.
    tiers: [(u64, u64, u64); 4],
}

/// What the traced pass measured.
#[derive(Debug, Default)]
pub struct TraceReport {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Sum of the four codec medians, ms.
    pub codec_ms: f64,
    /// Every recorded span.
    pub spans: Vec<Span>,
    /// Requests replayed.
    pub attempted: u64,
    /// Requests whose traced reply differs from the oracle, or whose
    /// answer or step count differs from the untraced run.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
    /// The exact counts that must repeat across runs of one seed.
    pub counts: String,
}

/// Replay the first `traced_requests` requests of the stream.
pub fn traced_pass(stream: Stream, snapshot: &IndexSnapshot) -> Result<TraceReport, String> {
    let mut traced_cache = snapshot.paa_cache();
    let mut untraced_cache = snapshot.paa_cache();
    let mut report = TraceReport::default();
    let mut samples = Vec::new();
    let origin = Instant::now();
    let at = |t: Instant| u64::try_from(t.duration_since(origin).as_nanos()).unwrap_or(u64::MAX);
    for g in 0..stream.workload.traced_requests {
        let (planned, expected, request) = stream.get(g);
        let Request::Query(spec_request) = &request else {
            return Err("the stream holds only queries".into());
        };

        // Untraced reference; alternate which path runs first so
        // neither always meets the warmer cache.
        let untraced = |cache: &mut _| {
            let mut counter = StepCounter::new();
            let started = Instant::now();
            let outcome = snapshot.execute(
                &spec_request.spec,
                &mut counter,
                &mut NoopObserver,
                &mut QueryBudget::new(None, None),
                Some(cache),
            );
            (started.elapsed(), outcome, counter.steps())
        };
        let reference = if g % 2 == 0 {
            Some(untraced(&mut untraced_cache))
        } else {
            None
        };

        // The traced path: each layer's public function, in serve order.
        let t0 = Instant::now();
        let bytes = wire::encode_request(&request);
        let t1 = Instant::now();
        let decoded = wire::decode_request(&bytes).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let Request::Query(q) = decoded else {
            return Err("request decoded to a non-query".into());
        };
        let engine = RotationQuery::with_measure(&q.spec.series, q.spec.invariance, q.spec.measure)
            .map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        let mut profiler = Profiler::new();
        let mut counter = StepCounter::new();
        let mut budget = QueryBudget::new(q.max_steps, q.deadline);
        let db = snapshot.database();
        let cache = &mut traced_cache;
        let outcome = match q.spec.kind {
            QueryKind::Nearest => engine.k_nearest_budgeted_cached(
                db,
                1,
                &mut counter,
                &mut profiler,
                &mut budget,
                cache,
            ),
            QueryKind::KNearest(k) => engine.k_nearest_budgeted_cached(
                db,
                k,
                &mut counter,
                &mut profiler,
                &mut budget,
                cache,
            ),
            QueryKind::Range(radius) => engine.range_budgeted_cached(
                db,
                radius,
                &mut counter,
                &mut profiler,
                &mut budget,
                cache,
            ),
        }
        .map_err(|e| e.to_string())?;
        let t4 = Instant::now();
        let status = match &outcome {
            BudgetOutcome::Complete(_) => QueryStatus::Complete,
            BudgetOutcome::Exhausted(e) => match e.reason {
                BudgetReason::Steps => QueryStatus::ExhaustedSteps,
                BudgetReason::Deadline => QueryStatus::ExhaustedDeadline,
            },
        };
        let neighbors = outcome.into_inner();
        let response = Response::Query(QueryResponse {
            status,
            steps: counter.steps(),
            hits: neighbors.iter().map(Hit::from).collect(),
        });
        let t5 = Instant::now();
        let reply_bytes = wire::encode_response(&response);
        let t6 = Instant::now();
        let reply = wire::decode_response(&reply_bytes).map_err(|e| e.to_string())?;
        let t7 = Instant::now();

        let reference = match reference {
            Some(r) => r,
            None => untraced(&mut untraced_cache),
        };

        report.attempted += 1;
        let (untraced_time, untraced_outcome, untraced_steps) = reference;
        let untraced_neighbors = untraced_outcome.map_err(|e| e.to_string())?.into_inner();
        let verdict = check(expected, &reply).and_then(|()| {
            if untraced_neighbors != neighbors || untraced_steps != counter.steps() {
                Err(format!(
                    "traced answer or steps ({}) differ from untraced ({untraced_steps})",
                    counter.steps()
                ))
            } else {
                Ok(())
            }
        });
        if let Err(why) = verdict {
            report.failed += 1;
            report
                .first_failure
                .get_or_insert_with(|| format!("traced {planned:?}: {why}"));
        }

        // Spans: the request, its direct children, and the profiler's
        // totals under engine.scan.
        let request_id = report.spans.len();
        let mut push = |parent, name, start: u64, end: u64, calls| {
            let id = report.spans.len();
            report.spans.push(Span {
                request: g,
                id,
                parent,
                name,
                start_ns: start,
                end_ns: end,
                calls,
            });
            id
        };
        push(None, "request", at(t0), at(t7), 1);
        let children = [
            ("wire.encode_request", t0, t1),
            ("wire.decode_request", t1, t2),
            ("engine.build", t2, t3),
            ("engine.scan", t3, t4),
            ("wire.encode_response", t5, t6),
            ("wire.decode_response", t6, t7),
        ];
        let mut scan_id = request_id;
        for (name, start, end) in children {
            let id = push(Some(request_id), name, at(start), at(end), 1);
            if name == "engine.scan" {
                scan_id = id;
            }
        }
        if let Some(query) = profiler.tree().root("query") {
            push_profile(query, scan_id, at(t3), &mut push);
        }

        let ns = |a: Instant, b: Instant| u64::try_from((b - a).as_nanos()).unwrap_or(u64::MAX);
        let covered = ns(t0, t4) + ns(t5, t7);
        let mut sample = Sample {
            encode_request_ns: ns(t0, t1),
            decode_request_ns: ns(t1, t2),
            build_ns: ns(t2, t3),
            scan_ns: ns(t3, t4),
            encode_response_ns: ns(t5, t6),
            decode_response_ns: ns(t6, t7),
            untraced_execute_ns: u64::try_from(untraced_time.as_nanos()).unwrap_or(u64::MAX),
            coverage: covered as f64 / ns(t0, t7).max(1) as f64,
            steps: counter.steps(),
            ..Sample::default()
        };
        if let Some(query) = profiler.tree().root("query") {
            tally_profile("query", query, &mut sample);
        }
        for (slot, cost) in sample.tiers.iter_mut().zip(profiler.tier_costs()) {
            *slot = (
                cost.tested,
                cost.pruned,
                u64::try_from(cost.total_ns).unwrap_or(u64::MAX),
            );
        }
        samples.push(sample);
    }
    summarize(&mut report, &samples, &traced_cache);
    Ok(report)
}

/// Emit a profiler node's children as spans under `parent`, packed one
/// after another from `start`.
fn push_profile(
    node: &ProfileNode,
    parent: usize,
    start: u64,
    push: &mut impl FnMut(Option<usize>, &'static str, u64, u64, u64) -> usize,
) {
    let mut cursor = start;
    for (name, child) in node.children() {
        let width = u64::try_from(child.total_ns()).unwrap_or(u64::MAX);
        let id = push(
            Some(parent),
            name,
            cursor,
            cursor.saturating_add(width),
            child.count(),
        );
        push_profile(child, id, cursor, push);
        cursor = cursor.saturating_add(width);
    }
}

/// Add a profiler subtree's wedge-merge and distance totals to `sample`.
fn tally_profile(name: &str, node: &ProfileNode, sample: &mut Sample) {
    let ns = |n: &ProfileNode| u64::try_from(n.total_ns()).unwrap_or(u64::MAX);
    match name {
        "wedge_merge" => {
            let children: u64 = node.children().map(|(_, c)| ns(c)).sum();
            sample.wedge_merge_calls += node.count();
            sample.wedge_merge_self_ns += ns(node).saturating_sub(children);
        }
        "distance" => {
            sample.leaf_calls += node.count();
            sample.leaf_ns += ns(node);
        }
        _ => {}
    }
    for (child_name, child) in node.children() {
        tally_profile(child_name, child, sample);
    }
}

fn summarize(report: &mut TraceReport, samples: &[Sample], cache: &rotind_index::BatchPaaCache) {
    let med = |f: &dyn Fn(&Sample) -> u64, scale: f64| {
        let values: Vec<f64> = samples.iter().map(|s| f(s) as f64 / scale).collect();
        median(&values).unwrap_or(0.0)
    };
    let total = |f: &dyn Fn(&Sample) -> u64| samples.iter().map(f).sum::<u64>();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (us, ms) = (1e3, 1e6);
    let codec = [
        ("wire.encode_request_us", med(&|s| s.encode_request_ns, us)),
        ("wire.decode_request_us", med(&|s| s.decode_request_ns, us)),
        (
            "wire.encode_response_us",
            med(&|s| s.encode_response_ns, us),
        ),
        (
            "wire.decode_response_us",
            med(&|s| s.decode_response_ns, us),
        ),
    ];
    report.codec_ms = codec.iter().map(|(_, v)| v / 1e3).sum();
    let mut m: Vec<Metric> = codec
        .iter()
        .map(|&(name, v)| Metric::new(name, v, "us"))
        .collect();
    let executed = total(&|s| s.untraced_execute_ns);
    let build = total(&|s| s.build_ns);
    let scan = total(&|s| s.scan_ns);
    let steps = total(&|s| s.steps);
    let wedge_calls = total(&|s| s.wedge_merge_calls);
    m.extend([
        Metric::new("engine.build_ms", med(&|s| s.build_ns, ms), "ms"),
        Metric::new("engine.build_share", ratio(build, executed), "ratio"),
        Metric::new("engine.scan_ms", med(&|s| s.scan_ns, ms), "ms"),
        Metric::new(
            "engine.steps_per_query",
            ratio(steps, samples.len() as u64),
            "steps",
        ),
        Metric::new("wedge_merge.calls", wedge_calls as f64, "count"),
        Metric::new(
            "wedge_merge.self_ms",
            med(&|s| s.wedge_merge_self_ns, ms),
            "ms",
        ),
    ]);
    let mut counts = format!("steps={steps} wedge_merge.calls={wedge_calls}");
    for (i, tier) in CascadeTier::ALL.iter().enumerate() {
        let tested = total(&|s| s.tiers[i].0);
        let pruned = total(&|s| s.tiers[i].1);
        let name = tier.name();
        m.extend([
            Metric::new(format!("tier.{name}.tested"), tested as f64, "count"),
            Metric::new(format!("tier.{name}.pruned"), pruned as f64, "count"),
            Metric::new(
                format!("tier.{name}.prune_ratio"),
                ratio(pruned, tested),
                "ratio",
            ),
            Metric::new(format!("tier.{name}.ms"), med(&|s| s.tiers[i].2, ms), "ms"),
        ]);
        let _ = write!(
            counts,
            " tier.{name}.tested={tested} tier.{name}.pruned={pruned}"
        );
    }
    let leaf_calls = total(&|s| s.leaf_calls);
    let _ = write!(counts, " leaf.calls={leaf_calls}");
    let coverage: Vec<f64> = samples.iter().map(|s| s.coverage).collect();
    m.extend([
        Metric::new("leaf.calls", leaf_calls as f64, "count"),
        Metric::new("leaf.ms", med(&|s| s.leaf_ns, ms), "ms"),
        Metric::new(
            "paa_cache.hit_ratio",
            ratio(cache.reused(), cache.reused() + cache.built()),
            "ratio",
        ),
        Metric::new(
            "trace.overhead_ratio",
            ratio(build + scan, executed),
            "ratio",
        ),
        Metric::new("trace.coverage", median(&coverage).unwrap_or(0.0), "ratio"),
    ]);
    report.metrics = m;
    report.counts = counts;
}

/// The spans as JSON lines, one object per span.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"request\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
            s.request, s.id, s.name, s.start_ns, s.end_ns, s.calls
        );
    }
    out
}
