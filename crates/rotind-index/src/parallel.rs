//! Parallel chunked database scans with a shared best-so-far.
//!
//! The paper's experiments scan the database sequentially; on a modern
//! multicore machine the scan is embarrassingly parallel *except* for
//! the best-so-far threshold, which every H-Merge comparison wants as
//! tight as possible. This module splits the database into one
//! contiguous chunk per worker thread (hand-rolled on
//! [`std::thread::scope`] — no external thread pool) and shares the
//! best-so-far through a single atomic word, so an improvement found by
//! any worker immediately tightens pruning in all of them.
//!
//! # Determinism
//!
//! The parallel scan returns results **bit-identical** to the
//! sequential scan, including the lowest-index tie-break, even though
//! the shared threshold tightens in nondeterministic order. The
//! argument (DESIGN.md §10):
//!
//! 1. The shared radius only ever holds *achieved* exact distances, so
//!    it is always `>=` the global minimum `d*`.
//! 2. Admission is inclusive (`d <= r`) and dismissal strict, so every
//!    global minimizer is fully evaluated no matter when other workers
//!    tighten the radius.
//! 3. Leaf distances are exact and threshold-independent, and H-Merge
//!    breaks exact ties by the canonical rotation key — its outcome is
//!    a pure function of (candidate, tree, measure) for any threshold
//!    admitting the true minimum.
//! 4. Each worker keeps its chunk's best under a strict-improvement
//!    guard (lowest index wins ties within the chunk), and chunk bests
//!    are merged in chunk order by `(distance, index)` — reproducing
//!    the sequential lowest-index tie-break globally.
//!
//! Per-worker [`StepCounter`]s and forked observers
//! ([`ForkJoinObserver`]) are joined in chunk order after the scope
//! ends, so the merged telemetry is deterministic and equals the sum of
//! the per-thread parts.

use crate::cascade::CandidateCtx;
use crate::engine::{Neighbor, RotationQuery, ScanState};
use crate::error::SearchError;
use crate::radius::SharedRadius;
use crate::snapshot::QueryKind;
use rotind_obs::{
    BudgetHook, BudgetOutcome, Exhausted, ForkJoinObserver, NoBudget, QueryBudget, SharedBudget,
};
use rotind_ts::StepCounter;
use std::ops::Range;
use std::thread;

/// Worker-thread count used when a caller passes `threads == 0`: the
/// `ROTIND_THREADS` environment variable when set to a positive
/// integer, otherwise [`std::thread::available_parallelism`], otherwise
/// one. A set-but-invalid value falls back with a one-line stderr
/// warning (see [`rotind_obs::envcfg`]) instead of silently running a
/// different thread count than the operator asked for.
pub fn default_threads() -> usize {
    let auto = thread::available_parallelism().map_or(1, |n| n.get());
    rotind_obs::env_positive_usize("ROTIND_THREADS", auto)
}

/// Per-thread accounting from one parallel scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelReport {
    /// Worker threads actually used — the requested count bounded by the
    /// database size (a chunk is never empty), with `0` resolved via
    /// [`default_threads`].
    pub threads: usize,
    /// Database items in each worker's chunk, in chunk order. Chunks are
    /// contiguous and balanced: sizes differ by at most one.
    pub chunk_lens: Vec<usize>,
    /// Steps charged by each worker, in chunk order. Their sum is
    /// exactly what the scan merges into the caller's [`StepCounter`].
    pub per_thread_steps: Vec<u64>,
}

/// Balanced contiguous chunks: the first `len % threads` chunks get one
/// extra item. `threads` is clamped to `1..=len` so no chunk is empty.
// lint: panic-exempt(t is clamped to at least one, so the divisors are never zero)
fn chunk_ranges(len: usize, threads: usize) -> Vec<Range<usize>> {
    let t = threads.clamp(1, len.max(1));
    let base = len / t;
    let rem = len % t;
    let mut out = Vec::with_capacity(t);
    let mut start = 0;
    for i in 0..t {
        let size = base + usize::from(i < rem);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Resolve a caller-supplied thread count: `0` means "auto".
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        default_threads()
    } else {
        threads
    }
}

/// What one worker brings back from its chunk.
struct WorkerOutput<O> {
    best: Option<Neighbor>,
    hits: Vec<Neighbor>,
    steps: StepCounter,
    observer: O,
}

/// Merge chunk bests in chunk order by (distance, index): equal
/// distances keep the earlier chunk, reproducing the sequential
/// lowest-index tie-break.
fn merge_chunk_bests<O>(outputs: &[WorkerOutput<O>]) -> Option<Neighbor> {
    let mut best: Option<Neighbor> = None;
    for output in outputs {
        if let Some(candidate) = output.best {
            let improved = match best {
                None => true,
                Some(b) => candidate.distance < b.distance,
            };
            if improved {
                best = Some(candidate);
            }
        }
    }
    best
}

impl RotationQuery {
    /// The chunked scan behind every parallel query: `database` is split
    /// into balanced contiguous chunks, one per worker thread (`0` =
    /// auto, see [`default_threads`]), each scanned with its own
    /// planner, step counter and forked observer.
    ///
    /// - [`QueryKind::Nearest`] (and `KNearest(1)`) shares the
    ///   best-so-far between workers through a [`SharedRadius`] and
    ///   returns exactly what [`nearest`](RotationQuery::nearest)
    ///   returns — same index, same distance bits, same rotation — for
    ///   every thread count. Parallel k-NN for `k > 1` is not
    ///   implemented and is rejected as an invalid parameter.
    /// - [`QueryKind::Range`] shares nothing (the threshold is fixed)
    ///   and returns exactly what [`range`](RotationQuery::range)
    ///   returns, in the same (database) order: chunk hit lists
    ///   concatenate in chunk order.
    ///
    /// The observer is [forked](ForkJoinObserver::fork) once per worker
    /// and the children are [joined](ForkJoinObserver::join) back in
    /// chunk order, so aggregate telemetry is deterministic. The
    /// returned [`ParallelReport`] carries the per-thread step counts;
    /// their sum is exactly what is merged into `counter`.
    ///
    /// With `budget: None` every worker runs under [`NoBudget`], so an
    /// unbudgeted scan pays no atomic charge. With a [`QueryBudget`],
    /// one pool ([`SharedBudget`]) is shared by all workers, each
    /// charging its local step delta at every dismissal boundary — so a
    /// trip by any worker stops all of them at their next check. When
    /// the budget never trips the answer is [`BudgetOutcome::Complete`];
    /// on exhaustion the partial answer covers whatever prefix of each
    /// chunk was scanned.
    #[allow(clippy::type_complexity)] // the outcome + report pair
    pub fn search_parallel<O: ForkJoinObserver>(
        &self,
        database: &[Vec<f64>],
        kind: QueryKind,
        threads: usize,
        counter: &mut StepCounter,
        observer: &mut O,
        budget: Option<&QueryBudget>,
    ) -> Result<(BudgetOutcome<Vec<Neighbor>>, ParallelReport), SearchError> {
        // `None`: nearest under a shared best-so-far; `Some`: a range.
        let radius = match kind {
            QueryKind::Nearest | QueryKind::KNearest(1) => None,
            QueryKind::KNearest(0) => return Err(SearchError::invalid_param("k", "must be >= 1")),
            QueryKind::KNearest(_) => {
                return Err(SearchError::invalid_param(
                    "k",
                    "the parallel scan answers k = 1 only",
                ));
            }
            QueryKind::Range(r) if !r.is_finite() || r < 0.0 => {
                return Err(SearchError::invalid_param(
                    "radius",
                    "must be finite and >= 0",
                ));
            }
            QueryKind::Range(r) => Some(r),
        };
        if radius.is_none() && database.is_empty() {
            return Err(SearchError::EmptyDatabase);
        }
        self.check_all(database)?;
        let pool = budget.map(SharedBudget::from_budget);
        let (outputs, report) = match &pool {
            None => self.scan_chunks(database, radius, threads, observer, || NoBudget),
            Some(pool) => self.scan_chunks(database, radius, threads, observer, || pool.hook()),
        };
        let hits = match radius {
            Some(_) => outputs
                .iter()
                .flat_map(|o| o.hits.iter().copied())
                .collect(),
            None => merge_chunk_bests(&outputs).into_iter().collect(),
        };
        for output in outputs {
            counter.merge(output.steps);
            observer.join(output.observer);
        }
        let tripped = pool
            .as_ref()
            .and_then(|p| Some((p.trip_reason()?, p.spent())));
        let outcome = match tripped {
            Some((reason, steps_spent)) => BudgetOutcome::Exhausted(Exhausted {
                partial: hits,
                reason,
                steps_spent,
            }),
            None => BudgetOutcome::Complete(hits),
        };
        Ok((outcome, report))
    }

    /// Split `database` into balanced contiguous chunks and scan each on
    /// its own thread, with a fresh [`ScanState`], step counter, forked
    /// observer and budget hook (from `make_budget`) per worker. Items
    /// are compared against `radius` when given, else against the
    /// shared best-so-far, which every admitted hit tightens. Workers
    /// record every hit (for range queries) and track the chunk best
    /// under a strict-improvement guard (for nearest queries). Outputs
    /// come back in chunk order.
    // lint: panic-exempt(chunk_ranges yields only indices below database.len())
    fn scan_chunks<O, B, MB>(
        &self,
        database: &[Vec<f64>],
        radius: Option<f64>,
        threads: usize,
        observer: &O,
        make_budget: MB,
    ) -> (Vec<WorkerOutput<O>>, ParallelReport)
    where
        O: ForkJoinObserver,
        B: BudgetHook + Send,
        MB: Fn() -> B + Sync,
    {
        let chunks = chunk_ranges(database.len(), resolve_threads(threads));
        let shared = SharedRadius::new(f64::INFINITY);
        let (shared, make_budget) = (&shared, &make_budget);
        let outputs: Vec<WorkerOutput<O>> = thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|range| {
                    let range = range.clone();
                    let mut child = observer.fork();
                    scope.spawn(move || {
                        let mut scan = ScanState::new(
                            self.tree(),
                            self.cascade(),
                            self.k_policy,
                            self.probe_intervals,
                        );
                        let mut steps = StepCounter::new();
                        let mut budget = make_budget();
                        let mut best: Option<Neighbor> = None;
                        let mut hits = Vec::new();
                        for index in range {
                            // Dismissal boundary: a tripped pool stops
                            // every worker at its next item. NoBudget
                            // folds this branch away entirely.
                            if !budget.check(steps.steps()) {
                                break;
                            }
                            let bsf = radius.unwrap_or_else(|| shared.get());
                            let Some(outcome) = scan.compare_budgeted_ctx(
                                // `chunk_ranges` only yields indices below
                                // `database.len()`, so this cannot panic.
                                // rotind-lint: allow(no-index)
                                &database[index],
                                bsf,
                                self.measure(),
                                &mut steps,
                                &mut child,
                                &mut budget,
                                &mut CandidateCtx::new(),
                            ) else {
                                continue;
                            };
                            if radius.is_none() {
                                shared.update_min(outcome.distance);
                            }
                            let hit = Neighbor {
                                index,
                                distance: outcome.distance,
                                rotation: outcome.rotation,
                            };
                            hits.push(hit);
                            // Strict improvement: ties keep the
                            // earlier (lower-index) incumbent, as
                            // the sequential scan does.
                            let improved = match best {
                                None => true,
                                Some(b) => hit.distance < b.distance,
                            };
                            if improved {
                                best = Some(hit);
                                scan.notify_improvement_observed(&mut child);
                            }
                        }
                        WorkerOutput {
                            best,
                            hits,
                            steps,
                            observer: child,
                        }
                    })
                })
                .collect();
            // Join in spawn (= chunk) order: observer joins and counter
            // merges become deterministic. A worker can only panic if
            // the search itself panicked; re-raising on the caller's
            // thread is the correct propagation, not a new panic site.
            handles
                .into_iter()
                // rotind-lint: allow(no-panic)
                .map(|h| h.join().expect("parallel scan worker panicked"))
                .collect()
        });
        let report = ParallelReport {
            threads: chunks.len(),
            chunk_lens: chunks.iter().map(ExactSizeIterator::len).collect(),
            per_thread_steps: outputs.iter().map(|o| o.steps.steps()).collect(),
        };
        (outputs, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Invariance;
    use rotind_obs::{NoopObserver, QueryTrace};
    use rotind_ts::rotate::rotated;

    fn signal(n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.29 + phase).sin() + 0.5 * (i as f64 * 0.91 + phase).cos())
            .collect()
    }

    fn database(m: usize, n: usize) -> Vec<Vec<f64>> {
        (0..m).map(|k| signal(n, 1.0 + k as f64 * 0.37)).collect()
    }

    /// An unbudgeted parallel scan's answer.
    fn scan(
        engine: &RotationQuery,
        db: &[Vec<f64>],
        kind: QueryKind,
        threads: usize,
    ) -> Result<Vec<Neighbor>, SearchError> {
        let mut counter = StepCounter::new();
        let mut observer = NoopObserver;
        let (outcome, _) =
            engine.search_parallel(db, kind, threads, &mut counter, &mut observer, None)?;
        Ok(outcome.into_inner())
    }

    #[test]
    fn chunks_are_balanced_contiguous_and_cover() {
        for len in [0usize, 1, 2, 7, 16, 100] {
            for threads in [1usize, 2, 3, 4, 8, 200] {
                let chunks = chunk_ranges(len, threads);
                assert!(!chunks.is_empty());
                assert!(chunks.len() <= threads);
                let mut next = 0;
                for c in &chunks {
                    assert_eq!(c.start, next, "contiguous");
                    next = c.end;
                    if len > 0 {
                        assert!(!c.is_empty(), "no empty chunks when items exist");
                    }
                }
                assert_eq!(next, len, "chunks cover the database");
                let sizes: Vec<usize> = chunks.iter().map(ExactSizeIterator::len).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "balanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn nearest_parallel_matches_sequential_exactly() {
        let n = 32;
        let query = signal(n, 0.11);
        let mut db = database(37, n);
        db[20] = rotated(&query, 9);
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let sequential = vec![engine.nearest(&db).unwrap()];
        for threads in [1, 2, 3, 4, 8, 64] {
            let hit = scan(&engine, &db, QueryKind::Nearest, threads).unwrap();
            assert_eq!(hit, sequential, "threads = {threads}");
        }
        // threads = 0 resolves to an automatic count and must also agree,
        // and k-NN at k = 1 is the nearest query.
        assert_eq!(
            scan(&engine, &db, QueryKind::Nearest, 0).unwrap(),
            sequential
        );
        assert_eq!(
            scan(&engine, &db, QueryKind::KNearest(1), 3).unwrap(),
            sequential
        );
    }

    #[test]
    fn range_parallel_matches_sequential_exactly() {
        let n = 24;
        let query = signal(n, 0.0);
        let db = database(31, n);
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let radius = engine.nearest(&db).unwrap().distance * 2.0;
        let sequential = engine.range(&db, radius).unwrap();
        assert!(!sequential.is_empty());
        for threads in [1, 2, 4, 7] {
            let hits = scan(&engine, &db, QueryKind::Range(radius), threads).unwrap();
            assert_eq!(hits, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn boundary_item_survives_parallel_range() {
        // Item at exactly the radius (exact-integer construction, see
        // the engine tests) must be returned by every thread count.
        let n = 16;
        let query: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut boundary = query.clone();
        boundary[5] += 3.0;
        let mut db = database(9, n);
        db[4] = boundary;
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        for threads in [1, 2, 3, 9] {
            let hits = scan(&engine, &db, QueryKind::Range(3.0), threads).unwrap();
            assert!(
                hits.iter().any(|h| h.index == 4 && h.distance == 3.0),
                "threads = {threads}: {hits:?}"
            );
        }
    }

    #[test]
    fn tie_break_prefers_lowest_index_across_chunks() {
        // Two bit-identical planted items in different chunks: every
        // thread count must return the lower index, like the
        // sequential scan.
        let n = 24;
        let query = signal(n, 0.5);
        let mut db = database(16, n);
        let planted = rotated(&query, 5);
        db[3] = planted.clone();
        db[12] = planted;
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let sequential = engine.nearest(&db).unwrap();
        assert_eq!(sequential.index, 3);
        for threads in [1, 2, 4, 16] {
            let hit = scan(&engine, &db, QueryKind::Nearest, threads).unwrap();
            assert_eq!(hit, vec![sequential], "threads = {threads}");
        }
    }

    #[test]
    fn report_steps_sum_to_merged_counter() {
        let n = 24;
        let query = signal(n, 0.2);
        let db = database(23, n);
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        for threads in [1, 3, 5] {
            let mut counter = StepCounter::new();
            let mut trace = QueryTrace::new(n);
            let (outcome, report) = engine
                .search_parallel(
                    &db,
                    QueryKind::Nearest,
                    threads,
                    &mut counter,
                    &mut trace,
                    None,
                )
                .unwrap();
            assert_eq!(outcome.into_inner(), vec![engine.nearest(&db).unwrap()]);
            assert_eq!(report.threads, threads);
            assert_eq!(report.per_thread_steps.len(), threads);
            assert_eq!(report.chunk_lens.iter().sum::<usize>(), db.len());
            let sum: u64 = report.per_thread_steps.iter().sum();
            assert_eq!(counter.steps(), sum, "threads = {threads}");
            assert!(counter.steps() > 0);
            assert!(trace.leaf_distances() > 0, "joined trace saw leaves");
        }
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let n = 16;
        let query = signal(n, 0.1);
        let db = database(3, n);
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let (outcome, report) = engine
            .search_parallel(
                &db,
                QueryKind::Nearest,
                100,
                &mut StepCounter::new(),
                &mut NoopObserver,
                None,
            )
            .unwrap();
        assert_eq!(outcome.into_inner(), vec![engine.nearest(&db).unwrap()]);
        assert_eq!(report.threads, 3, "clamped to database size");
    }

    #[test]
    fn parallel_error_paths_match_sequential() {
        let engine = RotationQuery::new(&signal(16, 0.0), Invariance::Rotation).unwrap();
        assert_eq!(
            scan(&engine, &[], QueryKind::Nearest, 4).unwrap_err(),
            SearchError::EmptyDatabase
        );
        assert_eq!(
            scan(&engine, &[], QueryKind::Range(1.0), 4).unwrap(),
            vec![]
        );
        let bad = vec![vec![0.0; 8]];
        assert!(matches!(
            scan(&engine, &bad, QueryKind::Nearest, 4).unwrap_err(),
            SearchError::LengthMismatch { .. }
        ));
        let db = database(3, 16);
        for kind in [
            QueryKind::Range(-1.0),
            QueryKind::Range(f64::NAN),
            QueryKind::KNearest(0),
            QueryKind::KNearest(2),
        ] {
            assert!(matches!(
                scan(&engine, &db, kind, 4).unwrap_err(),
                SearchError::InvalidParam { .. }
            ));
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
