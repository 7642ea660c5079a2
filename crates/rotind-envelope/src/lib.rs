//! # rotind-envelope — wedges and the LB_Keogh lower-bound family
//!
//! The geometric core of the paper (Section 4): a set of candidate
//! rotations is summarised by its **wedge** `W = {U, L}` — the smallest
//! envelope enclosing every member from above and below (Figure 6) — and
//! the **LB_Keogh** function lower-bounds the distance from any query to
//! *every* member of the wedge at once (Proposition 1). Wedges nest
//! hierarchically (Figure 7), and widening a wedge by the warping band
//! `R` extends the bound to DTW (Proposition 2, Figure 13); an analogous
//! envelope argument upper-bounds LCSS similarity.
//!
//! * [`envelope`] — pointwise min/max envelopes, including `O(n)`
//!   sliding-window widening via the branch-free van Herk / Gil–Werman
//!   block kernel (the historical monotonic deque is kept as the scalar
//!   reference);
//! * [`wedge`] — the wedge type: construction from rotations, merging,
//!   area (the quality heuristic of Figure 8);
//! * [`lb_keogh`] — `LB_Keogh` and its early-abandoning form (Table 5),
//!   plus the DTW and LCSS variants;
//! * [`hierarchy`] — the hierarchical wedge tree derived from a
//!   group-average dendrogram over the query's rotations (Figures 9/10),
//!   the structure the H-Merge search of `rotind-index` traverses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod envelope;
pub mod hierarchy;
pub mod lb_keogh;
pub mod wedge;

pub use hierarchy::WedgeTree;
pub use wedge::Wedge;
