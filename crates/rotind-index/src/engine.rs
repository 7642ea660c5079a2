//! The user-facing rotation-invariant search engine.
//!
//! A [`RotationQuery`] packages the paper's full pipeline for one query
//! shape: expand the query into its admitted rotations (full, mirrored
//! and/or rotation-limited — Section 3), cluster them into a hierarchical
//! wedge tree (Section 4.1), then scan a database with H-Merge under the
//! dynamically tuned wedge-set size `K`. All searches are **exact**: they
//! return precisely the answers of the brute-force Table 3 scan, verified
//! by the property tests in `tests/`.

use crate::cascade::{BatchPaaCache, BoundCascade, CandidateCtx, CascadeConfig};
use crate::error::SearchError;
use crate::hmerge::{h_merge, h_merge_cascade, HMergeOutcome, WalkBuffers};
use crate::planner::KPlanner;
use crate::snapshot::QueryKind;
use rotind_distance::measure::Measure;
use rotind_envelope::WedgeTree;
use rotind_obs::{
    BudgetHook, BudgetOutcome, Exhausted, NoBudget, NoopObserver, ProfilePhase, SearchObserver,
};
use rotind_ts::rotate::{Rotation, RotationMatrix};
use rotind_ts::{StepCounter, TsError};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Which rotations of the query are admitted as matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariance {
    /// All `n` circular shifts (full rotation invariance).
    Rotation,
    /// All shifts of the query and of its mirror image (enantiomorphic
    /// invariance — matching skulls facing either direction).
    RotationMirror,
    /// Only shifts within `max_shift` samples of zero — the paper's
    /// rotation-limited query (*"find the best match allowing a maximum
    /// rotation of 15 degrees"*); convert degrees to samples with
    /// `n·deg/360`. `max_shift == 0` admits exactly the identity
    /// rotation; `max_shift >= n` saturates to full invariance
    /// ([`Invariance::Rotation`]) — the window already covers every
    /// shift, so the engine clamps rather than erroring.
    RotationLimited {
        /// Maximum admitted shift, in samples, in either direction.
        max_shift: usize,
    },
    /// Rotation-limited with mirror rows; the same `max_shift` edge
    /// semantics as [`Invariance::RotationLimited`] apply.
    RotationLimitedMirror {
        /// Maximum admitted shift, in samples, in either direction.
        max_shift: usize,
    },
}

impl Invariance {
    fn matrix(self, query: &[f64]) -> Result<RotationMatrix, TsError> {
        // `RotationMatrix::limited` rejects `max_shift >= n` so that raw
        // huge limits are caught there; at the engine level a saturated
        // window is well-defined — it is full invariance — so clamp.
        let saturated = |max_shift: usize| max_shift >= query.len();
        match self {
            Invariance::Rotation => RotationMatrix::full(query),
            Invariance::RotationMirror => RotationMatrix::with_mirror(query),
            Invariance::RotationLimited { max_shift } if saturated(max_shift) => {
                RotationMatrix::full(query)
            }
            Invariance::RotationLimited { max_shift } => RotationMatrix::limited(query, max_shift),
            Invariance::RotationLimitedMirror { max_shift } if saturated(max_shift) => {
                RotationMatrix::with_mirror(query)
            }
            Invariance::RotationLimitedMirror { max_shift } => {
                RotationMatrix::limited_with_mirror(query, max_shift)
            }
        }
    }
}

/// How the wedge-set size `K` is chosen during a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KPolicy {
    /// The paper's controller: start at 2, re-probe when best-so-far
    /// improves (Section 4.1). The default.
    Dynamic,
    /// A fixed `K` (clamped to the number of rotations); used by the
    /// ablation benches.
    Fixed(usize),
}

/// One search hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the database item.
    pub index: usize,
    /// Rotation-invariant distance to the query.
    pub distance: f64,
    /// The query rotation realising that distance.
    pub rotation: Rotation,
}

/// An exact rotation-invariant query engine for one query series.
///
/// Building the engine costs the paper's `O(n²)` startup (shift profiles,
/// clustering, wedges). The default cascade stays inside that bound: under
/// Euclidean distance tier 3's abandon orders cost `O(n)` per internal
/// wedge (a selected and sorted [`ABANDON_PREFIX`] head, the rest in
/// position order), and tier 2 projects envelopes only for the wedges
/// its cardinality gate admits. Each search over `m` items then costs an
/// empirical `O(m·n^{1.06})` instead of the brute-force `O(m·n²)`.
///
/// [`ABANDON_PREFIX`]: crate::cascade::ABANDON_PREFIX
///
/// ```
/// use rotind_index::engine::{Invariance, RotationQuery};
/// use rotind_ts::rotate::rotated;
/// let db: Vec<Vec<f64>> = (0..10)
///     .map(|k| (0..32).map(|i| ((i * (k + 2)) as f64 * 0.1).sin()).collect())
///     .collect();
/// let query = rotated(&db[4], 13); // item 4 at a different orientation
/// let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
/// let hit = engine.nearest(&db).unwrap();
/// assert_eq!(hit.index, 4);
/// assert!(hit.distance < 1e-9);
/// assert_eq!(hit.rotation.shift, 32 - 13);
/// ```
#[derive(Debug, Clone)]
pub struct RotationQuery {
    tree: WedgeTree,
    measure: Measure,
    cascade: BoundCascade,
    pub(crate) k_policy: KPolicy,
    pub(crate) probe_intervals: usize,
}

impl RotationQuery {
    /// Engine under Euclidean distance with the dynamic-K policy.
    pub fn new(query: &[f64], invariance: Invariance) -> Result<Self, TsError> {
        Self::with_measure(query, invariance, Measure::Euclidean)
    }

    /// Engine under an arbitrary measure (Euclidean, DTW or LCSS). For
    /// DTW the wedge envelopes are widened by the measure's band.
    pub fn with_measure(
        query: &[f64],
        invariance: Invariance,
        measure: Measure,
    ) -> Result<Self, TsError> {
        let matrix = invariance.matrix(query)?;
        let tree = WedgeTree::new(matrix, measure.warping_band());
        let cascade = BoundCascade::build(&tree, measure, CascadeConfig::from_env());
        Ok(RotationQuery {
            tree,
            measure,
            cascade,
            k_policy: KPolicy::Dynamic,
            probe_intervals: crate::planner::PROBE_INTERVALS,
        })
    }

    /// Replace the K policy (builder style).
    pub fn with_k_policy(mut self, policy: KPolicy) -> Self {
        self.k_policy = policy;
        self
    }

    /// Replace the bound-cascade configuration (builder style),
    /// rebuilding any per-tree tier data. Every configuration yields
    /// bit-identical search results; only the work profile changes.
    pub fn with_cascade(mut self, config: CascadeConfig) -> Self {
        self.cascade = BoundCascade::build(&self.tree, self.measure, config);
        self
    }

    /// The bound cascade this engine scans with.
    pub fn cascade(&self) -> &BoundCascade {
        &self.cascade
    }

    /// Set the dynamic planner's probe-interval count (builder style).
    /// The paper reports that any value in `3..=20` changes performance
    /// by less than 4%; the default is 5.
    pub fn with_probe_intervals(mut self, intervals: usize) -> Self {
        self.probe_intervals = intervals.max(1);
        self
    }

    /// The measure this engine searches under.
    pub fn measure(&self) -> Measure {
        self.measure
    }

    /// Query series length `n`.
    pub fn series_len(&self) -> usize {
        self.tree.matrix().series_len()
    }

    /// The hierarchical wedge tree (for diagnostics and benches).
    pub fn tree(&self) -> &WedgeTree {
        &self.tree
    }

    /// Exact rotation-invariant distance from the query to `candidate`.
    pub fn distance_to(&self, candidate: &[f64]) -> Result<f64, SearchError> {
        self.check_len(0, candidate)?;
        let mut counter = StepCounter::new();
        let root = [self.tree.root()];
        Ok(h_merge(
            candidate,
            &self.tree,
            &root,
            f64::INFINITY,
            self.measure,
            &mut counter,
        )
        .expect("infinite threshold always matches")
        .distance)
    }

    /// Exact 1-nearest-neighbour search.
    pub fn nearest(&self, database: &[Vec<f64>]) -> Result<Neighbor, SearchError> {
        let hits = self.k_nearest(database, 1)?;
        Ok(hits.into_iter().next().expect("k = 1 yields one hit"))
    }

    /// Exact k-nearest-neighbour search (ties broken by database order).
    pub fn k_nearest(&self, database: &[Vec<f64>], k: usize) -> Result<Vec<Neighbor>, SearchError> {
        self.unbudgeted(database, QueryKind::KNearest(k))
    }

    /// Exact range query: every item within `radius` (inclusive) of the
    /// query under the engine's measure.
    pub fn range(&self, database: &[Vec<f64>], radius: f64) -> Result<Vec<Neighbor>, SearchError> {
        self.unbudgeted(database, QueryKind::Range(radius))
    }

    /// [`search`](Self::search) with no observer, budget or cache.
    fn unbudgeted(
        &self,
        database: &[Vec<f64>],
        kind: QueryKind,
    ) -> Result<Vec<Neighbor>, SearchError> {
        let mut counter = StepCounter::new();
        let outcome = self.search(
            database,
            kind,
            &mut counter,
            &mut NoopObserver,
            &mut NoBudget,
            None,
        )?;
        Ok(outcome.into_inner())
    }

    /// The sequential scan behind every query kind: one pass over
    /// `database`, each visited item compared by H-Merge under the
    /// dynamically tuned `K`.
    ///
    /// - [`QueryKind::KNearest`] keeps the `k` best, ordered by
    ///   `(distance, index)`, and prunes against the `k`-th best distance
    ///   once `k` hits are held; [`QueryKind::Nearest`] is k-NN at
    ///   `k = 1`, so its answer has at most one element.
    /// - [`QueryKind::Range`] prunes against the fixed radius and
    ///   returns every item within it (inclusive), in database order.
    ///
    /// **Visiting order.** Under Euclidean distance through a `cache`,
    /// every item first gets a rotation-invariant lower bound from the
    /// cache's [`MagnitudeTable`](crate::reduced::MagnitudeTable) of
    /// folded Fourier magnitudes (built on first use, uncharged). A k-NN
    /// scan then visits items best-first, by ascending `(bound, index)`,
    /// and stops at the first item whose bound exceeds the `k`-th best
    /// distance — the paper's `NNSearch` (Table 7). A range scan keeps
    /// database order and skips every item whose bound exceeds the
    /// radius. Both dismissals are strict, and an item at exactly the
    /// `k`-th distance displaces the `k`-th hit only when its index is
    /// lower, so the answers are exactly the database-order scan's. DTW,
    /// LCSS and uncached scans visit every item in database order.
    ///
    /// `counter` receives the `num_steps` cost (the metric of Figures
    /// 19–23), including the bounds: `fft_cost_model(n)` for the query's
    /// features and one step per coefficient per item. `observer` sees
    /// every wedge test, prune, early abandon and planner decision; it
    /// never changes the answer or the step count
    /// (`tests/observability.rs`). Pass [`NoopObserver`] and
    /// [`NoBudget`] for the plain scan: both monomorphize away.
    ///
    /// The budget is checked at every dismissal boundary — before each
    /// visited item here, and before each popped wedge inside H-Merge.
    /// On exhaustion the partial answer holds exact distances for every
    /// admitted item, but may miss closer items that were never (or
    /// only partially) scanned. A k-NN partial covers the items visited
    /// so far, in bound order when the bounds apply; a range partial
    /// covers a prefix of the database, filtered by the bounds when they
    /// apply.
    ///
    /// `cache` shares a [`BatchPaaCache`] of query-independent candidate
    /// data across queries. Its PAA projections leave results
    /// bit-identical to the uncached scan, and only the step counts of
    /// queries after the first drop, by the amortized `O(n)`
    /// projections. The cache must cover this `database` (the same
    /// length; the table is built from the first database searched
    /// through it) at this engine's cascade `dims`; a mismatch in either
    /// is an [`SearchError::InvalidParam`].
    pub fn search<O: SearchObserver, B: BudgetHook>(
        &self,
        database: &[Vec<f64>],
        kind: QueryKind,
        counter: &mut StepCounter,
        observer: &mut O,
        budget: &mut B,
        mut cache: Option<&mut BatchPaaCache>,
    ) -> Result<BudgetOutcome<Vec<Neighbor>>, SearchError> {
        if let Some(cache) = cache.as_deref() {
            self.check_cache(cache, database.len())?;
        }
        // The k of a k-NN query; a range query (`k = 0` here) keeps
        // every hit.
        let k = match kind {
            QueryKind::Nearest => 1,
            QueryKind::KNearest(0) => return Err(SearchError::invalid_param("k", "must be >= 1")),
            QueryKind::KNearest(k) => k,
            QueryKind::Range(radius) if !radius.is_finite() || radius < 0.0 => {
                return Err(SearchError::invalid_param(
                    "radius",
                    "must be finite and >= 0",
                ));
            }
            QueryKind::Range(_) => 0,
        };
        // An empty database has no nearest neighbour, but an empty range.
        if k > 0 && database.is_empty() {
            return Err(SearchError::EmptyDatabase);
        }
        self.check_all(database)?;

        observer.on_phase_start(ProfilePhase::Query, counter.steps());
        // One magnitude bound per item where a table applies (the query
        // is finite: engine construction rejects anything else);
        // otherwise none, and every item's bound reads as 0.
        let bounds = match cache.as_deref() {
            Some(cache) if matches!(self.measure, Measure::Euclidean) => cache
                .magnitudes(database)
                .lower_bounds(self.tree.matrix().base(), counter),
            _ => Vec::new(),
        };
        let best_first = k > 0 && !bounds.is_empty();
        let mut visits: Vec<(f64, usize)> = (0..database.len())
            .map(|index| (bounds.get(index).copied().unwrap_or(0.0), index))
            .collect();
        if best_first {
            visits.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        }
        let mut scan = ScanState::new(
            &self.tree,
            &self.cascade,
            self.k_policy,
            self.probe_intervals,
        );
        // k-NN: the k best by (distance, index); range: every hit, in
        // database order. A k-NN list never holds more than one hit per
        // item, so a wire-sized `k` reserves no more than the database.
        let mut hits: Vec<Neighbor> = Vec::with_capacity(k.min(database.len()) + 1);
        for (lb, index) in visits {
            // Dismissal boundary: stop admitting new candidates once the
            // budget trips (the sticky hook also cuts the wedge walk
            // below, so at most one partial walk runs after a trip).
            if !budget.check(counter.steps()) {
                break;
            }
            let Some(item) = database.get(index) else {
                continue;
            };
            // The threshold: H-Merge admits inclusively (`d == radius`
            // matches), so a radius is passed straight through — no
            // epsilon padding. k-NN prunes only once k hits are held.
            let bsf = match kind {
                QueryKind::Range(radius) => radius,
                _ if hits.len() == k => hits.last().map_or(f64::INFINITY, |h| h.distance),
                _ => f64::INFINITY,
            };
            // Strict dismissal by the item's magnitude bound. In
            // best-first order every later bound is at least this one,
            // so none of them can be admitted either.
            if lb > bsf {
                if best_first {
                    break;
                }
                continue;
            }
            let mut ctx = match cache.as_deref_mut() {
                Some(cache) => cache.take(index),
                None => CandidateCtx::new(),
            };
            let compared = scan.compare_budgeted_ctx(
                item,
                bsf,
                self.measure,
                counter,
                observer,
                budget,
                &mut ctx,
            );
            if let Some(cache) = cache.as_deref_mut() {
                cache.put(index, ctx);
            }
            let Some(outcome) = compared else {
                continue;
            };
            debug_assert!(
                lb <= outcome.distance,
                "unsound magnitude bound: {lb} exceeds the distance {} of item {index}",
                outcome.distance
            );
            let hit = Neighbor {
                index,
                distance: outcome.distance,
                rotation: outcome.rotation,
            };
            if let QueryKind::Range(_) = kind {
                hits.push(hit);
                continue;
            }
            // H-Merge admits inclusively, so with k hits held an item at
            // exactly the k-th distance comes back `Some`. It displaces
            // the k-th hit only when its index is lower — which database
            // order never visits — so ties resolve by index in any
            // visiting order, without churning the list and the planner.
            if hits.len() == k && hits.last().is_some_and(|kth| rank(&hit, kth).is_ge()) {
                continue;
            }
            hits.push(hit);
            hits.sort_by(rank);
            hits.truncate(k);
            scan.notify_improvement_observed(observer);
        }
        observer.on_phase_end(ProfilePhase::Query, counter.steps());
        Ok(match budget.trip_reason() {
            Some(reason) => BudgetOutcome::Exhausted(Exhausted {
                partial: hits,
                reason,
                steps_spent: counter.steps(),
            }),
            None => BudgetOutcome::Complete(hits),
        })
    }

    /// [`search`](Self::search) for k-NN through a [`BatchPaaCache`].
    /// Kept because the committed serve benchmark calls it.
    pub fn k_nearest_budgeted_cached<O: SearchObserver, B: BudgetHook>(
        &self,
        database: &[Vec<f64>],
        k: usize,
        counter: &mut StepCounter,
        observer: &mut O,
        budget: &mut B,
        cache: &mut BatchPaaCache,
    ) -> Result<BudgetOutcome<Vec<Neighbor>>, SearchError> {
        let kind = QueryKind::KNearest(k);
        self.search(database, kind, counter, observer, budget, Some(cache))
    }

    /// [`search`](Self::search) for a range query through a
    /// [`BatchPaaCache`]. Kept because the committed serve benchmark
    /// calls it.
    pub fn range_budgeted_cached<O: SearchObserver, B: BudgetHook>(
        &self,
        database: &[Vec<f64>],
        radius: f64,
        counter: &mut StepCounter,
        observer: &mut O,
        budget: &mut B,
        cache: &mut BatchPaaCache,
    ) -> Result<BudgetOutcome<Vec<Neighbor>>, SearchError> {
        let kind = QueryKind::Range(radius);
        self.search(database, kind, counter, observer, budget, Some(cache))
    }

    fn check_cache(&self, cache: &BatchPaaCache, db_len: usize) -> Result<(), SearchError> {
        let dims = self.cascade.config().dims;
        if cache.dims() != dims {
            return Err(SearchError::invalid_param(
                "cache",
                format!(
                    "BatchPaaCache built at dims {} but this engine projects at dims {dims}",
                    cache.dims()
                ),
            ));
        }
        if cache.len() != db_len {
            return Err(SearchError::invalid_param(
                "cache",
                format!(
                    "BatchPaaCache covers {} items but the database holds {db_len}",
                    cache.len()
                ),
            ));
        }
        Ok(())
    }

    pub(crate) fn check_len(&self, index: usize, item: &[f64]) -> Result<(), SearchError> {
        let expected = self.series_len();
        if item.len() != expected {
            return Err(SearchError::LengthMismatch {
                index,
                expected,
                actual: item.len(),
            });
        }
        Ok(())
    }

    pub(crate) fn check_all(&self, database: &[Vec<f64>]) -> Result<(), SearchError> {
        for (i, item) in database.iter().enumerate() {
            self.check_len(i, item)?;
        }
        Ok(())
    }
}

/// The order of k-NN hits: by distance, ties by database index.
fn rank(a: &Neighbor, b: &Neighbor) -> Ordering {
    a.distance
        .total_cmp(&b.distance)
        .then(a.index.cmp(&b.index))
}

/// Per-scan state: the K planner, a cache of dendrogram cuts, and the
/// H-Merge walk buffers every candidate reuses.
/// `pub(crate)` so the parallel scan (`crate::parallel`) can give each
/// worker thread its own independent planner, cut cache and buffers.
pub(crate) struct ScanState<'a> {
    tree: &'a WedgeTree,
    cascade: &'a BoundCascade,
    planner: KPlanner,
    fixed_k: Option<usize>,
    cuts: HashMap<usize, Vec<usize>>,
    walk: WalkBuffers,
}

impl<'a> ScanState<'a> {
    pub(crate) fn new(
        tree: &'a WedgeTree,
        cascade: &'a BoundCascade,
        policy: KPolicy,
        probe_intervals: usize,
    ) -> Self {
        let planner = KPlanner::with_intervals(tree.max_k(), probe_intervals);
        let fixed_k = match policy {
            KPolicy::Dynamic => None,
            KPolicy::Fixed(k) => Some(k.clamp(1, tree.max_k())),
        };
        ScanState {
            tree,
            cascade,
            planner,
            fixed_k,
            cuts: HashMap::new(),
            walk: WalkBuffers::default(),
        }
    }

    pub(crate) fn notify_improvement_observed<O: SearchObserver>(&mut self, observer: &mut O) {
        if self.fixed_k.is_none() {
            self.planner.on_best_so_far_change_observed(observer);
        }
    }

    /// Compare one database item against the query's wedge tree under the
    /// current best-so-far. Under the dynamic policy, probe-cycle
    /// candidates are tried on consecutive items and their `num_steps`
    /// reported back to the planner — no extra work is performed, so the
    /// probe cost is (trivially) included in every experiment.
    ///
    /// Under a [`BudgetHook`], a tripped budget cuts the wedge walk at
    /// the next popped node. The (possibly truncated) step cost is
    /// still fed to the planner — its probes only tune future work,
    /// never exactness. Un-budgeted callers pass [`NoBudget`]. The
    /// caller owns the candidate context, so batch scans can reuse a
    /// cached PAA projection (see [`BatchPaaCache`]).
    #[allow(clippy::too_many_arguments)] // the scan state plus the one-candidate H-Merge inputs
    pub(crate) fn compare_budgeted_ctx<O: SearchObserver, B: BudgetHook>(
        &mut self,
        item: &[f64],
        bsf: f64,
        measure: Measure,
        counter: &mut StepCounter,
        observer: &mut O,
        budget: &mut B,
        ctx: &mut CandidateCtx,
    ) -> Option<HMergeOutcome> {
        let k = match self.fixed_k {
            Some(k) => k,
            None => self.planner.next_k(),
        };
        // Disjoint field borrows: the cut stays in the cache while the
        // walk runs in the scan's own buffers.
        let tree = self.tree;
        let cut = self.cuts.entry(k).or_insert_with(|| tree.cut_nodes(k));
        let before = *counter;
        let outcome = h_merge_cascade(
            item,
            tree,
            self.cascade,
            cut,
            bsf,
            measure,
            counter,
            observer,
            budget,
            ctx,
            &mut self.walk,
        );
        if self.fixed_k.is_none() {
            self.planner
                .record_observed(counter.since(before), observer);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotind_distance::dtw::DtwParams;
    use rotind_distance::rotation::{search_database, test_all_rotations};
    use rotind_ts::rotate::{mirror, rotated};

    fn signal(n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.29 + phase).sin() + 0.5 * (i as f64 * 0.91 + phase).cos())
            .collect()
    }

    fn database(m: usize, n: usize) -> Vec<Vec<f64>> {
        // Phases start away from the query phases used in the tests so no
        // database item accidentally coincides with a query.
        (0..m).map(|k| signal(n, 1.0 + k as f64 * 0.37)).collect()
    }

    /// An unbudgeted, uncached [`RotationQuery::search`].
    fn scan<O: SearchObserver>(
        engine: &RotationQuery,
        db: &[Vec<f64>],
        kind: QueryKind,
        counter: &mut StepCounter,
        observer: &mut O,
    ) -> Vec<Neighbor> {
        engine
            .search(db, kind, counter, observer, &mut NoBudget, None)
            .unwrap()
            .into_inner()
    }

    #[test]
    fn nearest_matches_brute_force() {
        let n = 32;
        let query = signal(n, 0.11);
        let db = database(24, n);
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let hit = engine.nearest(&db).unwrap();
        let matrix = RotationMatrix::full(&query).unwrap();
        let oracle =
            search_database(&matrix, &db, Measure::Euclidean, &mut StepCounter::new()).unwrap();
        assert_eq!(hit.index, oracle.index);
        assert!((hit.distance - oracle.distance).abs() < 1e-9);
    }

    #[test]
    fn nearest_matches_brute_force_dtw() {
        let n = 24;
        let query = signal(n, 0.4);
        let db = database(15, n);
        let measure = Measure::Dtw(DtwParams::new(2));
        let engine = RotationQuery::with_measure(&query, Invariance::Rotation, measure).unwrap();
        let hit = engine.nearest(&db).unwrap();
        let matrix = RotationMatrix::full(&query).unwrap();
        let oracle = search_database(&matrix, &db, measure, &mut StepCounter::new()).unwrap();
        assert_eq!(hit.index, oracle.index);
        assert!((hit.distance - oracle.distance).abs() < 1e-9);
    }

    #[test]
    fn finds_planted_rotated_item() {
        let n = 40;
        let query = signal(n, 0.0);
        let mut db = database(30, n);
        db[17] = rotated(&query, 23);
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let hit = engine.nearest(&db).unwrap();
        assert_eq!(hit.index, 17);
        assert!(hit.distance < 1e-9);
        assert_eq!(hit.rotation.shift, 23);
    }

    #[test]
    fn k_nearest_is_sorted_and_exact() {
        let n = 28;
        let query = signal(n, 0.2);
        let db = database(20, n);
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let hits = engine.k_nearest(&db, 5).unwrap();
        assert_eq!(hits.len(), 5);
        assert!(hits.windows(2).all(|w| w[0].distance <= w[1].distance));
        // Oracle: all rotation-invariant distances, sorted.
        let matrix = RotationMatrix::full(&query).unwrap();
        let mut all: Vec<(usize, f64)> = db
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let d = test_all_rotations(
                    item,
                    &matrix,
                    f64::INFINITY,
                    Measure::Euclidean,
                    &mut StepCounter::new(),
                )
                .unwrap()
                .distance;
                (i, d)
            })
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1));
        for (hit, (oi, od)) in hits.iter().zip(&all) {
            assert_eq!(hit.index, *oi);
            assert!((hit.distance - od).abs() < 1e-9);
        }
    }

    #[test]
    fn k_larger_than_database_returns_all() {
        let db = database(4, 16);
        let engine = RotationQuery::new(&signal(16, 0.0), Invariance::Rotation).unwrap();
        let hits = engine.k_nearest(&db, 10).unwrap();
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn huge_k_returns_every_item_in_rank_order() {
        let db = database(9, 16);
        let engine = RotationQuery::new(&signal(16, 0.0), Invariance::Rotation).unwrap();
        let all = engine.k_nearest(&db, db.len()).unwrap();
        let huge = engine.k_nearest(&db, usize::MAX).unwrap();
        assert_eq!(huge, all);
        assert_eq!(huge.len(), db.len());
        assert!(huge.windows(2).all(|w| rank(&w[0], &w[1]).is_lt()));
    }

    #[test]
    fn range_query_inclusive_and_exact() {
        let n = 24;
        let query = signal(n, 0.0);
        let db = database(25, n);
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        // Oracle distances.
        let matrix = RotationMatrix::full(&query).unwrap();
        let dists: Vec<f64> = db
            .iter()
            .map(|item| {
                test_all_rotations(
                    item,
                    &matrix,
                    f64::INFINITY,
                    Measure::Euclidean,
                    &mut StepCounter::new(),
                )
                .unwrap()
                .distance
            })
            .collect();
        let mut sorted = dists.clone();
        sorted.sort_by(f64::total_cmp);
        let radius = sorted[10]; // exactly the 11th distance → inclusivity matters
        let hits = engine.range(&db, radius).unwrap();
        let expected: Vec<usize> = dists
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| (d <= radius).then_some(i))
            .collect();
        let mut got: Vec<usize> = hits.iter().map(|h| h.index).collect();
        got.sort_unstable();
        assert_eq!(got, expected);
        for h in &hits {
            assert!(h.distance <= radius);
        }
    }

    #[test]
    fn mirror_invariance_end_to_end() {
        let n = 30;
        let query = signal(n, 0.0);
        let mut db = database(12, n);
        db[5] = rotated(&mirror(&query), 9);
        let plain = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let with_mirror = RotationQuery::new(&query, Invariance::RotationMirror).unwrap();
        assert!(plain.nearest(&db).unwrap().distance > 1e-3);
        let hit = with_mirror.nearest(&db).unwrap();
        assert_eq!(hit.index, 5);
        assert!(hit.distance < 1e-9);
        assert!(hit.rotation.mirrored);
    }

    #[test]
    fn rotation_limited_end_to_end() {
        let n = 36;
        let query = signal(n, 0.0);
        let mut db = database(10, n);
        db[3] = rotated(&query, 12); // outside a ±2 window
        db[7] = rotated(&query, 1); // inside
        let engine =
            RotationQuery::new(&query, Invariance::RotationLimited { max_shift: 2 }).unwrap();
        let hit = engine.nearest(&db).unwrap();
        assert_eq!(hit.index, 7);
        assert!(hit.distance < 1e-9);
    }

    #[test]
    fn rotation_limited_zero_admits_identity_only() {
        // max_shift == 0 must still admit the identity rotation: the
        // engine degenerates to plain (unrotated) matching, not an error
        // and not an empty rotation set.
        let n = 24;
        let query = signal(n, 0.0);
        let mut db = database(8, n);
        db[2] = query.clone(); // exact unrotated copy
        db[5] = rotated(&query, 3); // rotated copy, outside the window
        let engine =
            RotationQuery::new(&query, Invariance::RotationLimited { max_shift: 0 }).unwrap();
        let hit = engine.nearest(&db).unwrap();
        assert_eq!(hit.index, 2);
        assert!(hit.distance < 1e-12);
        assert_eq!(hit.rotation, Rotation::shift(0));
        // The mirror variant keeps both identity rows.
        let engine =
            RotationQuery::new(&query, Invariance::RotationLimitedMirror { max_shift: 0 }).unwrap();
        assert_eq!(engine.tree().matrix().num_rotations(), 2);
        assert_eq!(engine.nearest(&db).unwrap().index, 2);
    }

    #[test]
    fn rotation_limited_saturated_equals_full_invariance() {
        // max_shift >= n saturates to full invariance: same rotation set
        // (no duplicate rows, no panic) and the same search answers.
        let n = 20;
        let query = signal(n, 0.1);
        let db = database(10, n);
        let full = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        for max_shift in [n, n + 1, 10 * n, usize::MAX] {
            let limited =
                RotationQuery::new(&query, Invariance::RotationLimited { max_shift }).unwrap();
            assert_eq!(
                limited.tree().matrix().rotations(),
                full.tree().matrix().rotations(),
                "max_shift = {max_shift}: saturated window must equal full invariance"
            );
            assert_eq!(
                limited.nearest(&db).unwrap(),
                full.nearest(&db).unwrap(),
                "max_shift = {max_shift}"
            );
        }
        let full_mirror = RotationQuery::new(&query, Invariance::RotationMirror).unwrap();
        let limited_mirror =
            RotationQuery::new(&query, Invariance::RotationLimitedMirror { max_shift: n }).unwrap();
        assert_eq!(
            limited_mirror.tree().matrix().rotations(),
            full_mirror.tree().matrix().rotations()
        );
        assert_eq!(
            limited_mirror.nearest(&db).unwrap(),
            full_mirror.nearest(&db).unwrap()
        );
    }

    #[test]
    fn range_at_exactly_representable_radius_includes_boundary_item() {
        // The planted item sits at exactly distance 3.0 (a single +3.0
        // spike on an exact-integer ramp: 3.0² = 9.0 and √9.0 = 3.0 are
        // exact in f64). A range query with radius == 3.0 must return it
        // — the admitted radius is inclusive on every scan path.
        let n = 16;
        let query: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut boundary = query.clone();
        boundary[5] += 3.0;
        let mut db = database(6, n);
        db[3] = boundary;
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let hits = engine.range(&db, 3.0).unwrap();
        assert!(
            hits.iter().any(|h| h.index == 3 && h.distance == 3.0),
            "item at exactly the radius must be returned: {hits:?}"
        );
    }

    #[test]
    fn fixed_k_policy_is_still_exact() {
        let n = 20;
        let query = signal(n, 0.3);
        let db = database(18, n);
        let reference = RotationQuery::new(&query, Invariance::Rotation)
            .unwrap()
            .nearest(&db)
            .unwrap();
        for k in [1usize, 3, 10, 20, 999] {
            let engine = RotationQuery::new(&query, Invariance::Rotation)
                .unwrap()
                .with_k_policy(KPolicy::Fixed(k));
            let hit = engine.nearest(&db).unwrap();
            assert_eq!(hit.index, reference.index, "K = {k}");
            assert!((hit.distance - reference.distance).abs() < 1e-9);
        }
    }

    #[test]
    fn lcss_nearest_matches_brute_force() {
        let n = 20;
        let query = signal(n, 0.4);
        let db = database(12, n);
        let measure = Measure::Lcss(rotind_distance::LcssParams::for_normalized(n));
        let engine = RotationQuery::with_measure(&query, Invariance::Rotation, measure).unwrap();
        let hit = engine.nearest(&db).unwrap();
        let matrix = RotationMatrix::full(&query).unwrap();
        let oracle = search_database(&matrix, &db, measure, &mut StepCounter::new()).unwrap();
        assert!((hit.distance - oracle.distance).abs() < 1e-9);
        // Indices may differ only under exact distance ties.
        if hit.index != oracle.index {
            let d_other = test_all_rotations(
                &db[hit.index],
                &matrix,
                f64::INFINITY,
                measure,
                &mut StepCounter::new(),
            )
            .unwrap()
            .distance;
            assert!((d_other - oracle.distance).abs() < 1e-9);
        }
    }

    #[test]
    fn error_paths() {
        let engine = RotationQuery::new(&signal(16, 0.0), Invariance::Rotation).unwrap();
        assert_eq!(engine.nearest(&[]).unwrap_err(), SearchError::EmptyDatabase);
        let bad = vec![vec![0.0; 8]];
        assert!(matches!(
            engine.nearest(&bad).unwrap_err(),
            SearchError::LengthMismatch {
                index: 0,
                expected: 16,
                actual: 8
            }
        ));
        assert!(matches!(
            engine.k_nearest(&database(3, 16), 0).unwrap_err(),
            SearchError::InvalidParam { .. }
        ));
        assert!(engine.range(&database(3, 16), -1.0).is_err());
        assert!(engine.range(&database(3, 16), f64::NAN).is_err());
        // An empty database is an error for k-NN only.
        assert_eq!(engine.range(&[], 1.0).unwrap(), vec![]);
    }

    #[test]
    fn distance_to_matches_oracle() {
        let query = signal(26, 0.0);
        let candidate = signal(26, 1.4);
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let got = engine.distance_to(&candidate).unwrap();
        let oracle = rotind_distance::rotation::rotation_invariant_distance(
            &candidate,
            &query,
            Measure::Euclidean,
            &mut StepCounter::new(),
        );
        assert!((got - oracle).abs() < 1e-9);
    }

    #[test]
    fn observed_search_is_neutral_and_sees_planner_activity() {
        use rotind_obs::QueryTrace;
        let n = 32;
        let query = signal(n, 0.15);
        let db = database(60, n);
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let mut plain_steps = StepCounter::new();
        let plain = scan(
            &engine,
            &db,
            QueryKind::Nearest,
            &mut plain_steps,
            &mut NoopObserver,
        );
        let mut trace = QueryTrace::new(n);
        let mut observed_steps = StepCounter::new();
        let observed = scan(
            &engine,
            &db,
            QueryKind::Nearest,
            &mut observed_steps,
            &mut trace,
        );
        assert_eq!(plain, observed);
        assert_eq!(plain_steps.steps(), observed_steps.steps());
        assert!(trace.leaf_distances() > 0);
        assert!(trace.wedges_tested() > 0);
        assert!(
            !trace.k_timeline().is_empty(),
            "dynamic planner must have probed at least once"
        );
        // The first best-so-far improvement starts a probe cycle.
        assert!(trace.k_timeline()[0].probing);
    }

    #[test]
    fn observed_range_query_matches_plain() {
        use rotind_obs::QueryTrace;
        let n = 24;
        let query = signal(n, 0.0);
        let db = database(20, n);
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let radius = engine.nearest(&db).unwrap().distance * 1.5;
        let plain = engine.range(&db, radius).unwrap();
        let mut trace = QueryTrace::new(n);
        let mut counter = StepCounter::new();
        let observed = scan(
            &engine,
            &db,
            QueryKind::Range(radius),
            &mut counter,
            &mut trace,
        );
        assert_eq!(plain, observed);
        assert!(counter.steps() > 0);
        assert!(trace.leaf_distances() > 0);
    }

    #[test]
    fn wedge_scan_beats_early_abandon_scan_on_steps() {
        // A diverse database (varying frequencies) with one planted
        // near-match: the regime of Figures 19–23, where the best-so-far
        // shrinks quickly and fat wedges prune whole rotation groups.
        let n = 64;
        let query: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).sin() * 2.0).collect();
        let mut db: Vec<Vec<f64>> = (0..200)
            .map(|k| {
                let w = 0.05 + 0.013 * k as f64;
                (0..n)
                    .map(|i| (i as f64 * w).sin() * 2.0 + (k as f64 * 0.77).cos())
                    .collect()
            })
            .collect();
        db[120] = rotated(&query, 31);
        let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
        let mut wedge_steps = StepCounter::new();
        scan(
            &engine,
            &db,
            QueryKind::Nearest,
            &mut wedge_steps,
            &mut NoopObserver,
        );
        let matrix = RotationMatrix::full(&query).unwrap();
        let mut ea_steps = StepCounter::new();
        search_database(&matrix, &db, Measure::Euclidean, &mut ea_steps).unwrap();
        assert!(
            wedge_steps.steps() < ea_steps.steps(),
            "wedge {} !< early-abandon {}",
            wedge_steps.steps(),
            ea_steps.steps()
        );
    }
}
