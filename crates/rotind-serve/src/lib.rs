//! # rotind-serve — a long-lived concurrent query service
//!
//! The library crates answer one query per call; this crate keeps an
//! [`IndexSnapshot`](rotind_index::snapshot::IndexSnapshot) resident
//! and serves many concurrent nearest / k-NN / range queries over a
//! small length-prefixed binary protocol (DESIGN.md §15):
//!
//! * [`wire`] — the frame and payload codec, pure functions over byte
//!   slices;
//! * [`server`] — the acceptor / connection / worker threading model,
//!   bounded admission queue with `Overloaded` backpressure,
//!   enqueue-anchored per-query budgets, a shared magnitude table that
//!   orders Euclidean scans best-first, and a Prometheus `/metrics`
//!   endpoint (plain HTTP `GET` on the same port);
//! * [`client`] — a minimal blocking client used by the integration
//!   tests and the `rotind-bench` load generator.
//!
//! Serving changes *where* queries run, never *what* they answer: the
//! integration tests replay fixed query sets through the server and
//! through the engine directly and assert bit-identical results,
//! including lowest-index tie-breaks, sequentially and under a
//! four-worker pool.
//!
//! ```no_run
//! use rotind_index::snapshot::{IndexSnapshot, QueryKind, QuerySpec};
//! use rotind_index::engine::Invariance;
//! use rotind_distance::measure::Measure;
//! use rotind_serve::{Client, QueryRequest, ServeConfig, Server};
//!
//! let snapshot = IndexSnapshot::new(vec![vec![0.0; 64]; 100])?;
//! let server = Server::start(snapshot, ServeConfig::from_env())?;
//! let mut client = Client::connect(server.addr())?;
//! let reply = client.query(&QueryRequest {
//!     spec: QuerySpec {
//!         series: vec![0.0; 64],
//!         invariance: Invariance::Rotation,
//!         measure: Measure::Euclidean,
//!         kind: QueryKind::Nearest,
//!     },
//!     max_steps: None,
//!     deadline: None,
//! })?;
//! # let _ = reply;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod server;
pub mod wire;

pub use client::Client;
pub use server::{ServeConfig, Server};
pub use wire::{Hit, QueryRequest, QueryResponse, QueryStatus, Request, Response, WireError};
