//! Observability for the rotind wedge engine.
//!
//! The paper reports efficiency in `num_steps` — an implementation-free
//! operation count (Section 5.3). That tells you *how much* work a search
//! did, but not *where* the pruning happened, how tight the LB_Keogh
//! bounds were, or how the dynamic K planner moved. This crate adds that
//! visibility without perturbing the measurements it reports on:
//!
//! - [`MetricsRegistry`] — counters, gauges and fixed-bucket histograms
//!   with Prometheus-style text exposition and JSONL event export.
//! - [`SearchObserver`] — a callback trait threaded through the wedge
//!   engine. The default [`NoopObserver`] monomorphizes to nothing, so
//!   un-observed searches pay zero overhead.
//! - [`QueryTrace`] — a ready-made observer summarising a search:
//!   per-level prune counts, LB-tightness ratios, early-abandon depths
//!   and the K-planner timeline.
//! - [`Profiler`] — a query-level profiling observer building a
//!   hierarchical [`ProfileTree`] (query → wedge-merge → cascade tier →
//!   distance) with wall-clock *and* steps per node, exportable as
//!   chrome://tracing JSON and collapsed-stack flamegraph text, plus
//!   streaming [`LogHistogram`] latency quantiles and per-tier
//!   [`TierCost`] economics (DESIGN.md §13).
//! - [`QueryBudget`] — a [`BudgetHook`] capping a query's steps and/or
//!   wall-clock; budgeted searches return a typed partial result
//!   ([`BudgetOutcome`]) instead of overrunning. [`NoBudget`] is the
//!   zero-cost default.
//!
//! The crate depends only on `rotind-ts` (for the step counter) and the
//! standard library.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod envcfg;
pub mod metrics;
pub mod observer;
pub mod profile;
pub mod trace;

pub use budget::{
    BudgetHook, BudgetOutcome, BudgetReason, Exhausted, ManualClock, NoBudget, QueryBudget,
    DEADLINE_POLL_STEPS,
};
pub use envcfg::env_positive_usize;
pub use metrics::{Histogram, LogHistogram, MetricsRegistry};
pub use observer::{CascadeTier, NoopObserver, ProfilePhase, SearchObserver};
pub use profile::{ProfileNode, ProfileTree, Profiler, TierCost};
pub use trace::{KChange, QueryTrace};
