//! # rotind — exact rotation-invariant shape indexing with LB_Keogh
//!
//! A production-quality Rust reproduction of
//!
//! > E. Keogh, L. Wei, X. Xi, M. Vlachos, S.-H. Lee, P. Protopapas.
//! > *LB_Keogh Supports Exact Indexing of Shapes under Rotation Invariance
//! > with Arbitrary Representations and Distance Measures.* VLDB 2006.
//!
//! This façade crate re-exports the workspace's subsystem crates under one
//! roof. See the repository `README.md` for a guided tour, `DESIGN.md` for
//! the system inventory, and `EXPERIMENTS.md` for the paper-vs-measured
//! record of every table and figure (not committed: render it with
//! `python3 scripts/render_experiments.py`).
//!
//! ## Quick start
//!
//! ```
//! use rotind::prelude::*;
//!
//! // A tiny database of closed-boundary "shapes" as centroid-distance
//! // series, plus a rotated query.
//! let db: Vec<Vec<f64>> = (0..16)
//!     .map(|k| (0..64).map(|i| ((i + k) as f64 * 0.3).sin()).collect())
//!     .collect();
//! let query = rotind::ts::rotate::rotated(&db[7], 19);
//!
//! // Exact rotation-invariant 1-NN with wedge-accelerated search.
//! let engine = RotationQuery::new(&query, Invariance::Rotation).unwrap();
//! let hit = engine.nearest(&db).unwrap();
//! assert_eq!(hit.index, 7);
//! assert!(hit.distance < 1e-9);
//! ```

#![forbid(unsafe_code)]

pub use rotind_cluster as cluster;
pub use rotind_distance as distance;
pub use rotind_envelope as envelope;
pub use rotind_eval as eval;
pub use rotind_fft as fft;
pub use rotind_index as index;
pub use rotind_lightcurve as lightcurve;
pub use rotind_obs as obs;
pub use rotind_serve as serve;
pub use rotind_shape as shape;
pub use rotind_ts as ts;

/// Convenient re-exports of the most frequently used items.
pub mod prelude {
    pub use rotind_distance::dtw::DtwParams;
    pub use rotind_distance::measure::Measure;
    pub use rotind_envelope::wedge::Wedge;
    pub use rotind_index::engine::{Invariance, Neighbor, RotationQuery};
    pub use rotind_index::snapshot::{IndexSnapshot, QueryKind, QuerySpec};
    pub use rotind_obs::{
        BudgetOutcome, BudgetReason, Exhausted, ManualClock, NoBudget, NoopObserver, Profiler,
        QueryBudget, QueryTrace, SearchObserver,
    };
    pub use rotind_ts::{StepCounter, TimeSeries};
}
