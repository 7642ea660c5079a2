//! # rotind-index — wedge-based rotation-invariant search and indexing
//!
//! The paper's search machinery (Section 4):
//!
//! * [`hmerge`] — the H-Merge algorithm (Table 6): traverse a wedge-set
//!   cut of the hierarchical wedge tree with `EA_LB_Keogh`, descending
//!   into child wedges only where the bound fails to prune, and
//!   evaluating the exact measure at single-rotation leaves;
//! * [`planner`] — the paper's dynamic wedge-set-size controller: start
//!   at `K = 2` and, each time the best-so-far improves, probe the values
//!   that evenly divide `[1, K]` and `[K, K_max]` into five intervals,
//!   adopting the one with the fewest steps (Section 4.1). An opt-in
//!   ([`engine::KPolicy::Dynamic`]) for the experiments that reproduce
//!   the paper's step counts;
//! * [`engine`] — the user-facing [`engine::RotationQuery`]: exact
//!   rotation-invariant nearest-neighbour / k-NN / range search over a
//!   database, for Euclidean, DTW and LCSS, with mirror-image and
//!   rotation-limited invariance, scanning at a fixed wedge-set size
//!   [`engine::DEFAULT_K`] by default (faster in wall time than the
//!   planner). Every query kind ([`snapshot::QueryKind`]) runs through
//!   one sequential scan, [`engine::RotationQuery::search`];
//! * [`cascade`] — the one wedge bound the engine runs per (candidate,
//!   wedge) pair: early-abandoning LB_Keogh in position order
//!   (DESIGN.md §12);
//! * [`snapshot`] — the immutable, `Arc`-shared database handle a
//!   long-lived query service owns, handing out handles on one shared
//!   magnitude table, which orders Euclidean scans best-first
//!   (DESIGN.md §15);
//! * [`baselines`] — the rival methods of Figures 19–23: brute force,
//!   early abandon, the FFT magnitude filter and the convolution trick;
//! * [`reduced`] — reduced representations: Fourier magnitudes
//!   (Euclidean) and PAA projections of the wedge envelopes (DTW), both
//!   admissible, for the disk index of Figure 24, and the
//!   folded-magnitude table behind the serve path's best-first Euclidean
//!   scan;
//! * [`vptree`] — a vantage-point tree over the reduced space (Table 7),
//!   searched with any 1-Lipschitz lower-bound function;
//! * [`disk`] — the simulated disk and the fraction-retrieved accounting
//!   of Figure 24, via [`disk::IndexedDatabase`];
//! * [`stream`] — wedge-based streaming query filtering over sets of
//!   monitored patterns (the "Atomic Wedgie" application the paper
//!   cites);
//! * [`motif`] — shape motif discovery (rotation-invariant closest
//!   pairs), the data-mining subroutine of the paper's conclusion.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod cascade;
pub mod disk;
pub mod engine;
pub mod error;
pub mod hmerge;
pub mod motif;
pub mod planner;
pub mod reduced;
pub mod snapshot;
pub mod stream;
pub mod vptree;

pub use cascade::{BatchPaaCache, CascadeConfig};
pub use engine::{Invariance, Neighbor, RotationQuery};
pub use error::SearchError;
pub use snapshot::{IndexSnapshot, QueryKind, QuerySpec};
