//! # rotind-distance — distance measures with early abandoning
//!
//! The three distance measures the paper targets (Section 1: *"Euclidean
//! distance, Dynamic Time Warping and Longest Common Subsequence account
//! for the majority of the literature"*), each with the early-abandoning
//! optimisations that the wedge machinery of `rotind-envelope` builds on:
//!
//! * [`euclidean`] — plain and early-abandoning Euclidean distance
//!   (Definition 1 / Table 1 of the paper);
//! * [`dtw`] — Sakoe-Chiba–banded Dynamic Time Warping, in full-matrix,
//!   rolling-row early-abandoning, and path-recovering forms (Section 4.3);
//! * [`lcss`] — banded Longest Common SubSequence similarity and its
//!   distance form (Section 4.3, Figure 14);
//! * [`rotation`] — brute-force rotation-invariant matching:
//!   `Test_All_Rotations` (Table 2) and the database scan (Table 3), for
//!   any of the three measures, with mirror-image and rotation-limited
//!   support;
//! * [`measure`] — a small enum unifying the three measures so engines and
//!   experiment harnesses can be measure-generic.
//!
//! Every routine threads a [`rotind_ts::StepCounter`] and charges one step
//! per accumulated real-value subtraction (per visited cell for the DP
//! measures), reproducing the paper's implementation-free cost metric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dtw;
pub mod euclidean;
pub mod kernels;
pub mod lcss;
pub mod measure;
pub mod rotation;

pub use dtw::DtwParams;
pub use lcss::LcssParams;
pub use measure::Measure;
