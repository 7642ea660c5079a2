//! The wedge bound the engine runs per (candidate, wedge) pair: the
//! paper's early-abandoning LB_Keogh (Table 5, Propositions 1–2).
//!
//! A wedge the bound dismisses prunes every rotation it covers; one it
//! admits descends to its children, and a leaf evaluates the exact
//! measure. On Euclidean internal wedges the bound accumulates its
//! terms largest-expected-contribution first ([`ABANDON_PREFIX`]), so
//! a dismissal usually needs only a few terms; everywhere else it runs
//! in natural position order. It is the only bound: cheaper pre-filters
//! (an `O(1)` endpoint bound, a reduced-space PAA bound) and
//! LB_Improved's second pass
//! ([`rotind_envelope::lb_keogh::lb_improved_second_pass`]) each cost
//! more wall time than they saved (DESIGN.md §12).
//!
//! The bound prunes with a *strict* comparison, so the scan can neither
//! exclude a rotation at exactly the admitted radius nor change any
//! exact distance it computes: the reordered scan is bit-identical to
//! the natural-order one ([`CascadeConfig::legacy`], see
//! `tests/cascade.rs`).

use crate::reduced::{MagnitudeTable, MAGNITUDE_DIMS};
use rotind_distance::measure::Measure;
use rotind_envelope::lb_keogh::{extend_abandon_prefix, AbandonScratch};
use rotind_envelope::WedgeTree;
use std::sync::{Arc, OnceLock};

/// How many positions of an abandon order are sorted by expected
/// contribution; the rest follow in position order (see
/// [`extend_abandon_prefix`]). 32 terms span the first three dismissal
/// checks of the kernels' block schedule (after 8, 16 and 32 terms),
/// where nearly every internal-wedge abandon happens (DESIGN.md §12).
pub const ABANDON_PREFIX: usize = 32;

/// The order LB_Keogh accumulates its terms in.
///
/// The exactness of the scan never depends on it, only the amount of
/// work does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeConfig {
    /// Accumulate in the per-wedge contribution order instead of
    /// natural position order: the [`ABANDON_PREFIX`] largest expected
    /// contributions first, then the other positions in order. Applies
    /// under Euclidean distance only, and only to internal wedges: a
    /// Euclidean singleton leaf's sum *is* the exact distance, and under
    /// DTW the order costs more build and scan time than its earlier
    /// abandons save, so both keep the natural order (see
    /// [`BoundCascade::build`]).
    pub reorder: bool,
}

impl CascadeConfig {
    /// Reordered LB_Keogh: the engine default.
    pub fn all() -> Self {
        CascadeConfig { reorder: true }
    }

    /// Natural-order LB_Keogh, the historical scan:
    /// [`crate::hmerge::h_merge`] runs under this configuration.
    pub fn legacy() -> Self {
        CascadeConfig { reorder: false }
    }

    /// The engine default, [`CascadeConfig::all`]; it reads no
    /// environment. Kept because the committed serve benchmark calls it.
    pub fn from_env() -> Self {
        Self::all()
    }
}

/// The per-tree data a [`CascadeConfig`] needs: the abandon order of
/// every node the bound reorders.
#[derive(Debug, Clone)]
pub struct BoundCascade {
    /// Abandon orders of the internal nodes, flat: internal node
    /// `leaves + j` owns `orders[j * n..(j + 1) * n]`. Empty when the
    /// bound reorders nothing.
    orders: Vec<u32>,
    /// Number of tree leaves, the first internal node id.
    leaves: usize,
    /// Series length, the length of one order.
    n: usize,
}

impl BoundCascade {
    /// Precompute what `config` needs on `tree` under `measure`: when
    /// it reorders and the measure is Euclidean, the [`ABANDON_PREFIX`]
    /// abandon order of every internal node, `O(n)` each and `O(n²)` in
    /// all, the paper's startup bound. Leaves, DTW and LCSS get none:
    /// the bound runs there in natural order.
    pub fn build(tree: &WedgeTree, measure: Measure, config: CascadeConfig) -> Self {
        let nodes = tree.dendrogram().num_nodes();
        let (leaves, n) = (tree.max_k(), tree.matrix().series_len());
        let mut orders = Vec::new();
        if config.reorder && matches!(measure, Measure::Euclidean) {
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
        BoundCascade { orders, leaves, n }
    }

    /// The tree-independent natural-order cascade (nothing to build).
    pub fn legacy() -> Self {
        BoundCascade {
            orders: Vec::new(),
            leaves: 0,
            n: 0,
        }
    }

    /// Abandon order for `node`: present exactly when the bound
    /// reorders that node's accumulation.
    pub(crate) fn abandon_order(&self, node: usize) -> Option<&[u32]> {
        let start = node.checked_sub(self.leaves)?.checked_mul(self.n)?;
        self.orders
            .get(start..start.checked_add(self.n)?)
            .filter(|order| !order.is_empty())
    }
}

/// A per-database handle on the database's [`MagnitudeTable`], which
/// orders Euclidean scans best-first. It caches nothing per candidate;
/// it keeps its name because the committed serve benchmark names it.
///
/// The table is built, uncharged, on the first Euclidean search through
/// the handle (one FFT per item). Handles from one
/// [`crate::IndexSnapshot::paa_cache`] share a single table, so every
/// worker of a server uses the table the first Euclidean query built;
/// a worker whose first Euclidean query arrives during that build waits
/// for it. A handle from [`BatchPaaCache::new`] builds its own. The
/// table belongs to the database the handle was made for: a handle must
/// not be moved to another database of the same size.
#[derive(Debug, Clone)]
pub struct BatchPaaCache {
    len: usize,
    magnitudes: Arc<OnceLock<MagnitudeTable>>,
}

impl BatchPaaCache {
    /// An empty handle for a database of `db_len` items (the searches
    /// reject a handle whose `db_len` is not the database's size).
    pub fn new(db_len: usize) -> Self {
        Self::sharing(db_len, Arc::default())
    }

    /// An empty handle that shares `magnitudes` — the table slot of the
    /// snapshot handing it out — with every other handle of that
    /// snapshot.
    pub(crate) fn sharing(db_len: usize, magnitudes: Arc<OnceLock<MagnitudeTable>>) -> Self {
        BatchPaaCache {
            len: db_len,
            magnitudes,
        }
    }

    /// The magnitude table of `database`, the database this handle was
    /// made for: built on first use, then shared (see the type docs).
    pub(crate) fn magnitudes(&self, database: &[Vec<f64>]) -> &MagnitudeTable {
        self.magnitudes
            .get_or_init(|| MagnitudeTable::build(database, MAGNITUDE_DIMS))
    }

    /// Number of database items the handle covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the handle covers no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Always 0: nothing per candidate is cached. Kept because the
    /// committed serve benchmark calls it.
    pub fn reused(&self) -> u64 {
        0
    }

    /// Always 0: nothing per candidate is cached. Kept because the
    /// committed serve benchmark calls it.
    pub fn built(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotind_distance::dtw::DtwParams;
    use rotind_distance::lcss::LcssParams;
    use rotind_ts::rotate::RotationMatrix;

    #[test]
    fn legacy_is_natural_order_keogh_only() {
        assert!(!CascadeConfig::legacy().reorder);
        assert_eq!(CascadeConfig::from_env(), CascadeConfig::all());
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
}
