//! The wedge bound the engine runs per (candidate, wedge) pair: the
//! paper's early-abandoning LB_Keogh (Table 5, Propositions 1–2),
//! accumulated in position order.
//!
//! A wedge the bound dismisses prunes every rotation it covers; one it
//! admits descends to its children, and a leaf evaluates the exact
//! measure. It is the only bound: cheaper pre-filters (an `O(1)`
//! endpoint bound, a reduced-space PAA bound), Lemire's two-pass
//! LB_Improved (deleted; git history keeps it) and a per-wedge "largest
//! expected contribution first" accumulation order each cost more wall
//! time than they saved (DESIGN.md §12).
//!
//! The bound prunes with a *strict* comparison, so the scan can neither
//! exclude a rotation at exactly the admitted radius nor change any
//! exact distance it computes (see `tests/cascade.rs`).

use crate::reduced::{MagnitudeTable, MAGNITUDE_DIMS};
use std::sync::{Arc, OnceLock};

/// The configuration of the wedge bound, which has nothing left to
/// configure: every wedge runs natural-order early-abandoning LB_Keogh.
/// Kept, with [`CascadeConfig::from_env`], only because the committed
/// serve benchmark prints it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeConfig;

impl CascadeConfig {
    /// The one configuration; it reads no environment.
    pub fn from_env() -> Self {
        CascadeConfig
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
