//! The tiered admissible-bound cascade run per (candidate, wedge) pair.
//!
//! Each tier is a cheaper-but-looser admissible lower bound tried before
//! the next, in strictly increasing cost order; a tier that pushes the
//! bound above the current best-so-far dismisses the whole wedge and no
//! later tier runs:
//!
//! | tier | bound | cost per wedge | tightness |
//! |------|-------|----------------|-----------|
//! | 1    | `lb_kim` (endpoints only)          | `O(1)`          | loosest |
//! | 2    | reduced-space PAA envelope bound   | `O(D)` (+ lazy `O(n)` per candidate) | looser than LB_Keogh |
//! | 3    | LB_Keogh, early abandon (largest expected terms first on Euclidean internal wedges) | `O(n)` worst | the paper's bound |
//!
//! A wedge no tier prunes descends to its children, and a leaf evaluates
//! the exact measure. LB_Improved's second pass
//! ([`rotind_envelope::lb_keogh::lb_improved_second_pass`]) is not a
//! tier: under DTW it cost more than the band-major leaf it saved
//! (DESIGN.md §12).
//!
//! Every tier prunes with a *strict* comparison against an admissible
//! bound, so the cascade can neither exclude a rotation at exactly the
//! admitted radius nor change any exact distance the scan computes — the
//! H-Merge outcome stays bit-identical to the single-bound scan (see
//! `tests/cascade.rs`). The tier list is configurable per engine via
//! [`CascadeConfig`] and, for the CI ablation matrix, via the
//! `ROTIND_CASCADE` environment variable.

use crate::reduced::{MagnitudeTable, Paa, PaaEnvelope, MAGNITUDE_DIMS};
use rotind_distance::measure::Measure;
use rotind_envelope::lb_keogh::{extend_abandon_prefix, AbandonScratch};
use rotind_envelope::WedgeTree;
use rotind_ts::StepCounter;
use std::sync::{Arc, OnceLock};

/// Default reduced-space dimensionality for tier 2 (segments per item).
/// Small on purpose: the tier has to amortise `D` steps per tested wedge
/// plus a lazy `n`-step projection per candidate.
pub const DEFAULT_DIMS: usize = 8;

/// Default cardinality gate for tier 1 (see [`CascadeConfig`]).
pub const DEFAULT_KIM_MIN_CARDINALITY: usize = 8;

/// Default cardinality gate for tier 2 (see [`CascadeConfig`]).
pub const DEFAULT_REDUCED_MIN_CARDINALITY: usize = 32;

/// How many positions of a tier-3 abandon order are sorted by expected
/// contribution; the rest follow in position order (see
/// [`extend_abandon_prefix`]). 32 terms span the first three dismissal
/// checks of the kernels' block schedule (after 8, 16 and 32 terms),
/// where nearly every internal-wedge abandon happens (DESIGN.md §12).
pub const ABANDON_PREFIX: usize = 32;

/// Which tiers of the bound cascade run, and where.
///
/// The exactness of the scan never depends on this configuration — every
/// tier is individually admissible — only the amount of work does. The
/// `*_cardinality` gates encode the cost model measured by the
/// `cascade` ablation bench: a cheap tier is only worth running where
/// the tier below it would be expensive. Tier 1's two endpoint terms
/// are dominated by reordered LB_Keogh's first two (contribution-sorted)
/// terms on Euclidean internal wedges, and its first term is
/// natural-order LB_Keogh's first term elsewhere, so it earns its keep
/// only on fat wedges where an admit is costly anyway; tier 2 must
/// amortise a lazy `O(n)` candidate projection, so it is restricted to
/// the fattest wedges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeConfig {
    /// Tier 1: the `O(1)` endpoint (LB_Kim-style) bound.
    pub kim: bool,
    /// Tier 2: the reduced-space PAA envelope bound.
    pub reduced: bool,
    /// Tier 3: full LB_Keogh with early abandoning.
    pub keogh: bool,
    /// Accumulate tier 3 in the per-wedge contribution order instead of
    /// natural position order: the [`ABANDON_PREFIX`] largest expected
    /// contributions first, then the other positions in order. Applies
    /// under Euclidean distance only, and only to internal wedges: a
    /// Euclidean singleton leaf's sum *is* the exact distance, and under
    /// DTW the order costs more build and scan time than its earlier
    /// abandons save, so both keep the natural order (see
    /// [`BoundCascade::build`]).
    pub reorder: bool,
    /// Reduced-space dimensionality for tier 2.
    pub dims: usize,
    /// Tier 1 runs only on wedges covering at least this many rotations.
    pub kim_min_cardinality: usize,
    /// Tier 2 runs only on wedges covering at least this many rotations.
    pub reduced_min_cardinality: usize,
}

impl CascadeConfig {
    /// Every tier on, under the measured default gates — the engine
    /// default.
    pub fn all() -> Self {
        CascadeConfig {
            kim: true,
            reduced: true,
            keogh: true,
            reorder: true,
            dims: DEFAULT_DIMS,
            kim_min_cardinality: DEFAULT_KIM_MIN_CARDINALITY,
            reduced_min_cardinality: DEFAULT_REDUCED_MIN_CARDINALITY,
        }
    }

    /// The pre-cascade engine: natural-order LB_Keogh and nothing else.
    /// [`crate::hmerge::h_merge`] runs under this configuration,
    /// reproducing the historical scan step-for-step.
    pub fn legacy() -> Self {
        CascadeConfig {
            kim: false,
            reduced: false,
            keogh: true,
            reorder: false,
            dims: DEFAULT_DIMS,
            kim_min_cardinality: 0,
            reduced_min_cardinality: 0,
        }
    }

    /// Parse a `ROTIND_CASCADE` value: a single-tier name
    /// (`kim`/`reduced`/`keogh`) or `all`. Single-tier configurations
    /// run their tier on *every* wedge (no cardinality gates) so the CI
    /// exactness matrix exercises each tier in isolation; `keogh`
    /// selects the reordered tier-3 scan (which reorders Euclidean
    /// internal wedges only).
    pub fn parse(s: &str) -> Option<Self> {
        let off = CascadeConfig {
            keogh: false,
            ..Self::legacy()
        };
        match s {
            "kim" => Some(CascadeConfig { kim: true, ..off }),
            "reduced" => Some(CascadeConfig {
                reduced: true,
                ..off
            }),
            "keogh" => Some(CascadeConfig {
                keogh: true,
                reorder: true,
                ..off
            }),
            "all" => Some(Self::all()),
            _ => None,
        }
    }

    /// Configuration from the `ROTIND_CASCADE` environment variable;
    /// unset or unrecognised values mean [`CascadeConfig::all`].
    pub fn from_env() -> Self {
        std::env::var("ROTIND_CASCADE")
            .ok()
            .and_then(|s| Self::parse(s.trim()))
            .unwrap_or_else(Self::all)
    }
}

impl Default for CascadeConfig {
    fn default() -> Self {
        Self::all()
    }
}

/// A [`CascadeConfig`] plus the per-tree data its tiers need, built
/// only where a tier reads it: for tier 2, a reduced envelope for each
/// wedge-tree node the cardinality gate admits, projected from the
/// node's *lower-bound* wedge (widened by the DTW band) so the PAA bound
/// stays admissible for DTW exactly as it is for Euclidean; for tier 3,
/// the abandon order of every node it reorders.
#[derive(Debug, Clone)]
pub struct BoundCascade {
    config: CascadeConfig,
    /// Tier-2 envelopes by node id: `Some` exactly for the nodes at or
    /// above `reduced_min_cardinality`. Empty when tier 2 is off.
    paa: Vec<Option<PaaEnvelope>>,
    /// Tier-3 abandon orders of the internal nodes, flat: internal node
    /// `leaves + j` owns `orders[j * n..(j + 1) * n]`. Empty when tier 3
    /// reorders nothing.
    orders: Vec<u32>,
    /// Number of tree leaves, the first internal node id.
    leaves: usize,
    /// Series length, the length of one order.
    n: usize,
}

impl BoundCascade {
    /// Precompute the tier data `config` needs on `tree` under
    /// `measure`, and nothing the scan would not read:
    ///
    /// - when the reduced tier is on, the tier-2 envelope of every node
    ///   whose lower-bound wedge covers at least
    ///   `reduced_min_cardinality` rotations — the only nodes tier 2
    ///   tests;
    /// - when tier 3 reorders — under Euclidean distance with `keogh`
    ///   and `reorder` on — the [`ABANDON_PREFIX`] abandon order of
    ///   every internal node, `O(n)` each and `O(n²)` in all, the
    ///   paper's startup bound. Leaves, DTW and LCSS get none: tier 3
    ///   runs there in natural order.
    pub fn build(tree: &WedgeTree, measure: Measure, config: CascadeConfig) -> Self {
        let nodes = tree.dendrogram().num_nodes();
        let paa = if config.reduced {
            (0..nodes)
                .map(|node| {
                    let wedge = tree.lb_wedge(node);
                    (wedge.cardinality() >= config.reduced_min_cardinality)
                        .then(|| PaaEnvelope::of_wedge(wedge, config.dims))
                })
                .collect()
        } else {
            Vec::new()
        };
        let (leaves, n) = (tree.max_k(), tree.matrix().series_len());
        let mut orders = Vec::new();
        if config.keogh && config.reorder && matches!(measure, Measure::Euclidean) {
            orders.reserve(nodes.saturating_sub(leaves) * n);
            let mut scratch = AbandonScratch::default();
            for node in leaves..nodes {
                let wedge = tree.lb_wedge(node);
                extend_abandon_prefix(
                    wedge.upper(),
                    wedge.lower(),
                    ABANDON_PREFIX,
                    &mut scratch,
                    &mut orders,
                );
            }
        }
        BoundCascade {
            config,
            paa,
            orders,
            leaves,
            n,
        }
    }

    /// The tree-independent legacy cascade (no tier data to build).
    pub fn legacy() -> Self {
        BoundCascade {
            config: CascadeConfig::legacy(),
            paa: Vec::new(),
            orders: Vec::new(),
            leaves: 0,
            n: 0,
        }
    }

    /// The active tier configuration.
    pub fn config(&self) -> CascadeConfig {
        self.config
    }

    /// Tier-2 envelope for `node`: present exactly when tier 2 tests
    /// that node (the reduced tier is on and the node passes its
    /// cardinality gate).
    pub(crate) fn paa_envelope(&self, node: usize) -> Option<&PaaEnvelope> {
        self.paa.get(node).and_then(Option::as_ref)
    }

    /// Tier-3 abandon order for `node`: present exactly when tier 3
    /// reorders that node's accumulation.
    pub(crate) fn abandon_order(&self, node: usize) -> Option<&[u32]> {
        let start = node.checked_sub(self.leaves)?.checked_mul(self.n)?;
        self.orders
            .get(start..start.checked_add(self.n)?)
            .filter(|order| !order.is_empty())
    }
}

/// Per-candidate lazy state for one H-Merge call: the candidate's PAA
/// projection is only computed (and charged, `n` steps) if some wedge
/// actually reaches tier 2. The walk's working buffers live with the
/// scan, not here (`crate::hmerge::WalkBuffers`).
pub(crate) struct CandidateCtx {
    paa: Option<Paa>,
    /// True when the projection arrived pre-built from a cache (used
    /// only for the cache's built/reused accounting).
    seeded: bool,
}

impl CandidateCtx {
    pub(crate) fn new() -> Self {
        Self::with(None)
    }

    /// A context pre-seeded with an already-built projection (or
    /// explicitly empty) — how [`BatchPaaCache`] hands a candidate its
    /// cached state.
    pub(crate) fn with(paa: Option<Paa>) -> Self {
        let seeded = paa.is_some();
        CandidateCtx { paa, seeded }
    }

    /// Surrender the (possibly still unbuilt) projection, so a cache
    /// can keep it for the next query over the same candidate. The
    /// flag reports whether the context was seeded at construction.
    pub(crate) fn into_paa(self) -> (Option<Paa>, bool) {
        (self.paa, self.seeded)
    }

    /// The candidate's PAA projection, built on first use.
    // lint: panic-exempt(the expect follows the branch that builds the projection, so it is always present)
    pub(crate) fn paa(
        &mut self,
        candidate: &[f64],
        dims: usize,
        counter: &mut StepCounter,
    ) -> &Paa {
        if self.paa.is_none() {
            // One pass over the candidate to form segment means.
            counter.add(candidate.len() as u64);
            self.paa = Some(Paa::of(candidate, dims));
        }
        // rotind-lint: allow(no-panic)
        self.paa.as_ref().expect("projection was just built")
    }
}

/// A per-database cache of query-independent candidate data, shared
/// across the queries of a batch (or the lifetime of a serve worker):
/// each candidate's tier-2 PAA projection, and the database's
/// [`MagnitudeTable`] that orders Euclidean scans best-first.
///
/// Tier 2 charges a lazy `O(n)` projection per candidate per query —
/// but `Paa::of(candidate, dims)` is *query-independent*, so a server
/// answering many queries over one immutable snapshot recomputes the
/// identical projection over and over. This cache moves each
/// candidate's slot into the scan (via [`CandidateCtx`]) and takes it
/// back afterwards, so the projection is built (and charged) at most
/// once per cache instead of once per query. Search results are
/// unchanged — the cached value is bit-identical to a fresh build —
/// only later queries' step counts drop by the amortized projections.
///
/// The magnitude table is built, uncharged, on the first Euclidean
/// search through the cache (one FFT per item). Caches from one
/// [`crate::IndexSnapshot::paa_cache`] share a single table, so every
/// worker of a server uses the table the first Euclidean query built;
/// a worker whose first Euclidean query arrives during that build waits
/// for it. A cache from [`BatchPaaCache::new`] builds its own. The
/// table belongs to the database the cache was made for: a cache must
/// not be moved to another database of the same size.
///
/// The slots are single-threaded by design (`&mut` access, no locks):
/// a serve worker owns one cache and reuses it across its whole job
/// stream.
#[derive(Debug, Clone)]
pub struct BatchPaaCache {
    dims: usize,
    slots: Vec<Option<Paa>>,
    reused: u64,
    built: u64,
    magnitudes: Arc<OnceLock<MagnitudeTable>>,
}

impl BatchPaaCache {
    /// An empty cache for a database of `db_len` items, projecting at
    /// `dims` segments (must match the engine's
    /// [`CascadeConfig::dims`]; the cached entry points reject a
    /// mismatch, and a `db_len` other than the database's size).
    pub fn new(db_len: usize, dims: usize) -> Self {
        Self::sharing(db_len, dims, Arc::default())
    }

    /// An empty cache that shares `magnitudes` — the table slot of the
    /// snapshot handing it out — with every other cache of that
    /// snapshot.
    pub(crate) fn sharing(
        db_len: usize,
        dims: usize,
        magnitudes: Arc<OnceLock<MagnitudeTable>>,
    ) -> Self {
        BatchPaaCache {
            dims,
            slots: vec![None; db_len],
            reused: 0,
            built: 0,
            magnitudes,
        }
    }

    /// The magnitude table of `database`, the database this cache was
    /// made for: built on first use, then shared (see the type docs).
    pub(crate) fn magnitudes(&self, database: &[Vec<f64>]) -> &MagnitudeTable {
        self.magnitudes
            .get_or_init(|| MagnitudeTable::build(database, MAGNITUDE_DIMS))
    }

    /// The reduced-space dimensionality this cache projects at.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of database slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the cache covers no candidates.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// How many scans found their candidate's projection already built.
    pub fn reused(&self) -> u64 {
        self.reused
    }

    /// How many projections have been built into the cache.
    pub fn built(&self) -> u64 {
        self.built
    }

    /// Move candidate `index`'s slot into a scan context. Out-of-range
    /// indices get an empty context (the scan then behaves exactly as
    /// uncached).
    pub(crate) fn take(&mut self, index: usize) -> CandidateCtx {
        let slot = self.slots.get_mut(index).and_then(Option::take);
        if slot.is_some() {
            self.reused = self.reused.saturating_add(1);
        }
        CandidateCtx::with(slot)
    }

    /// Return candidate `index`'s (possibly now-built) state to the
    /// cache after a scan.
    pub(crate) fn put(&mut self, index: usize, ctx: CandidateCtx) {
        if let Some(slot) = self.slots.get_mut(index) {
            let (paa, seeded) = ctx.into_paa();
            if !seeded && paa.is_some() {
                self.built = self.built.saturating_add(1);
            }
            *slot = paa;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotind_distance::dtw::DtwParams;
    use rotind_distance::lcss::LcssParams;
    use rotind_ts::rotate::RotationMatrix;

    #[test]
    fn parse_recognises_every_ci_value_and_rejects_garbage() {
        for name in ["kim", "reduced", "keogh", "all"] {
            let c = CascadeConfig::parse(name).unwrap_or_else(|| panic!("{name} must parse"));
            let tiers = [c.kim, c.reduced, c.keogh];
            if name == "all" {
                assert_eq!(c, CascadeConfig::all());
            } else {
                assert_eq!(tiers.iter().filter(|&&t| t).count(), 1, "{name}");
            }
        }
        assert_eq!(CascadeConfig::parse(""), None);
        // Tier 4 left the cascade; its old CI value is garbage now.
        assert_eq!(CascadeConfig::parse("improved"), None);
        assert_eq!(CascadeConfig::parse("keogh,kim"), None);
        assert_eq!(CascadeConfig::parse("ALL"), None);
    }

    #[test]
    fn legacy_is_natural_order_keogh_only() {
        let c = CascadeConfig::legacy();
        assert!(c.keogh && !c.kim && !c.reduced && !c.reorder);
    }

    #[test]
    fn build_projects_every_node_only_when_reduced_is_on() {
        let series: Vec<f64> = (0..48).map(|i| (i as f64 * 0.4).sin()).collect();
        let matrix = RotationMatrix::full(&series).unwrap();
        for band in [0, 3] {
            let tree = WedgeTree::new(matrix.clone(), band);
            let nodes = 0..tree.dendrogram().num_nodes();
            let cardinality = |node: usize| tree.lb_wedge(node).cardinality();
            // Exactly the nodes tier 2 tests, under the default gate and
            // under a gate equal to the root's first child's cardinality,
            // which puts a node exactly at the gate.
            let (first, _) = tree.children(tree.root()).unwrap();
            for gate in [DEFAULT_REDUCED_MIN_CARDINALITY, cardinality(first)] {
                let config = CascadeConfig {
                    reduced_min_cardinality: gate,
                    ..CascadeConfig::all()
                };
                let gated = BoundCascade::build(&tree, Measure::Euclidean, config);
                let tested = |node: usize| cardinality(node) >= gate;
                for node in nodes.clone() {
                    let built = gated.paa_envelope(node).is_some();
                    assert_eq!(built, tested(node), "gate {gate}, node {node}");
                }
                assert!(nodes.clone().any(tested) && !nodes.clone().all(tested));
            }
            // The single-tier rung has gate 0: every node.
            let reduced = CascadeConfig::parse("reduced").unwrap();
            let every = BoundCascade::build(&tree, Measure::Euclidean, reduced);
            assert!(nodes.clone().all(|node| every.paa_envelope(node).is_some()));
            let without = BoundCascade::build(&tree, Measure::Euclidean, CascadeConfig::legacy());
            assert!(nodes
                .clone()
                .all(|node| without.paa_envelope(node).is_none()));
        }
        assert!(BoundCascade::legacy().paa_envelope(0).is_none());
    }

    #[test]
    fn orders_exist_only_for_euclidean_internal_nodes() {
        // Longer than ABANDON_PREFIX, so the stored orders are truncated.
        let series: Vec<f64> = (0..48).map(|i| (i as f64 * 0.4).sin()).collect();
        let matrix = RotationMatrix::full(&series).unwrap();
        let plain = WedgeTree::new(matrix.clone(), 0);
        let euclid = BoundCascade::build(&plain, Measure::Euclidean, CascadeConfig::all());
        let mut scratch = AbandonScratch::default();
        for node in 0..plain.dendrogram().num_nodes() {
            match euclid.abandon_order(node) {
                Some(order) => {
                    assert!(!plain.is_leaf(node), "leaf {node} holds an order");
                    let wedge = plain.lb_wedge(node);
                    let mut expected = Vec::new();
                    extend_abandon_prefix(
                        wedge.upper(),
                        wedge.lower(),
                        ABANDON_PREFIX,
                        &mut scratch,
                        &mut expected,
                    );
                    assert_eq!(order, &expected[..], "node {node}");
                }
                None => assert!(plain.is_leaf(node), "internal node {node} has no order"),
            }
        }
        let none = |cascade: &BoundCascade, tree: &WedgeTree| {
            (0..tree.dendrogram().num_nodes()).all(|node| cascade.abandon_order(node).is_none())
        };
        let banded = WedgeTree::new(matrix, 3);
        for (measure, tree) in [
            (Measure::Dtw(DtwParams::new(0)), &plain),
            (Measure::Dtw(DtwParams::new(3)), &banded),
            (Measure::Lcss(LcssParams::new(0.5, 2)), &plain),
        ] {
            let cascade = BoundCascade::build(tree, measure, CascadeConfig::all());
            assert!(none(&cascade, tree), "{measure:?} holds an order");
        }
        let legacy = BoundCascade::build(&plain, Measure::Euclidean, CascadeConfig::legacy());
        assert!(none(&legacy, &plain), "legacy holds an order");
        assert!(none(&BoundCascade::legacy(), &plain));
    }

    #[test]
    fn batch_cache_amortizes_projection_across_queries() {
        let series: Vec<f64> = (0..32).map(|i| (i as f64 * 0.2).cos()).collect();
        let mut cache = BatchPaaCache::new(4, DEFAULT_DIMS);
        // Query 1 over candidate 2: builds and charges the projection.
        let mut ctx = cache.take(2);
        let mut counter = StepCounter::new();
        let first = ctx.paa(&series, DEFAULT_DIMS, &mut counter).clone();
        cache.put(2, ctx);
        assert_eq!(counter.steps(), 32);
        assert_eq!((cache.built(), cache.reused()), (1, 0));
        // Query 2 over the same candidate: free and bit-identical.
        let mut ctx = cache.take(2);
        let mut counter = StepCounter::new();
        let second = ctx.paa(&series, DEFAULT_DIMS, &mut counter).clone();
        cache.put(2, ctx);
        assert_eq!(counter.steps(), 0, "cached projection charges nothing");
        assert_eq!(first, second);
        assert_eq!((cache.built(), cache.reused()), (1, 1));
        // A scan that never reaches tier 2 stores nothing.
        let ctx = cache.take(3);
        cache.put(3, ctx);
        assert_eq!(cache.built(), 1);
        // Out-of-range indices degrade to an uncached scan.
        let ctx = cache.take(99);
        cache.put(99, ctx);
        assert_eq!((cache.len(), cache.dims()), (4, DEFAULT_DIMS));
    }

    #[test]
    fn candidate_ctx_builds_lazily_and_charges_once() {
        let series: Vec<f64> = (0..32).map(|i| (i as f64 * 0.2).cos()).collect();
        let mut ctx = CandidateCtx::new();
        let mut counter = StepCounter::new();
        let first = ctx.paa(&series, DEFAULT_DIMS, &mut counter).clone();
        assert_eq!(counter.steps(), 32, "projection charges one pass");
        let again = ctx.paa(&series, DEFAULT_DIMS, &mut counter).clone();
        assert_eq!(counter.steps(), 32, "second access is free");
        assert_eq!(first, again);
        assert_eq!(first, Paa::of(&series, DEFAULT_DIMS));
    }
}
