//! The server: acceptor, connection threads, a bounded admission queue
//! and a worker pool over one shared [`IndexSnapshot`].
//!
//! ## Threading model
//!
//! One *acceptor* thread owns the listener and spawns one *connection*
//! thread per client. Connection threads parse frames and answer
//! `Ping`/`Metrics` inline; `Query` requests become [`Job`]s pushed
//! onto a bounded [`sync_channel`](std::sync::mpsc::sync_channel).
//! A fixed pool of *worker* threads drains that queue; each worker
//! owns a persistent [`BatchPaaCache`] so candidate PAA projections
//! are built once per worker and amortized across every query it
//! serves (results stay bit-identical — the cache only removes
//! recharges, see DESIGN.md §15).
//!
//! ## Admission control
//!
//! The queue depth bounds in-flight work. When `try_send` finds the
//! queue full the connection thread replies
//! [`Response::Overloaded`](crate::wire::Response::Overloaded)
//! immediately instead of blocking — backpressure reaches the client
//! as a typed reply, never as an unbounded queue.
//!
//! ## Budgets
//!
//! Each query's [`QueryBudget`] is constructed at *enqueue* time, so a
//! deadline covers queue wait as well as execution: an overloaded
//! server degrades into deadline-exhausted partial answers rather than
//! silently serving stale latencies. Exhausted queries return their
//! scanned-prefix partial with a typed status — they are answers, not
//! errors. A [`ManualClock`] can be injected through
//! [`ServeConfig::clock`] to make deadline trips deterministic in
//! tests.
//!
//! ## Connections
//!
//! The server keeps a clone of each live connection's socket, keyed by
//! a connection id, so shutdown can unblock its reader. A connection
//! thread removes its own entry when it ends (a drop guard covers every
//! return path), and the acceptor joins the connection threads that
//! have finished as it accepts, so a long-lived server holds file
//! descriptors and thread handles only for the connections that are
//! still open.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] (also run on drop) flips the shutdown flag,
//! shuts the client sockets down to unblock their readers, wakes the
//! acceptor with a loop-back connection, joins connection threads,
//! then drops the queue senders so workers drain what was admitted and
//! exit — admitted queries are answered, never abandoned.

use crate::wire::{self, error_code, QueryResponse, QueryStatus, Request, Response};
use rotind_index::cascade::BatchPaaCache;
use rotind_index::error::SearchError;
use rotind_index::snapshot::{IndexSnapshot, QuerySpec};
use rotind_obs::{
    env_positive_usize, BudgetOutcome, BudgetReason, ManualClock, MetricsRegistry, NoopObserver,
    QueryBudget,
};
use rotind_ts::StepCounter;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Server tuning knobs.
///
/// [`ServeConfig::from_env`] reads `ROTIND_SERVE_WORKERS` (default:
/// available parallelism), `ROTIND_SERVE_QUEUE` (default 64) and
/// `ROTIND_SERVE_BATCH` (default 8); unparseable or zero values warn
/// on stderr once and fall back, matching `ROTIND_THREADS`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the admission queue. `0` is permitted
    /// programmatically (queries are admitted but never run — useful
    /// for deterministic backpressure tests) but not via environment.
    pub workers: usize,
    /// Admission queue depth; a full queue answers `Overloaded`.
    pub queue_depth: usize,
    /// Max jobs a worker drains per queue lock (batching amortizes the
    /// lock and keeps its PAA cache hot across consecutive queries).
    pub batch: usize,
    /// When set, query deadlines race this hand-advanced clock instead
    /// of the wall clock — deterministic `ExhaustedDeadline` replies.
    pub clock: Option<ManualClock>,
}

impl ServeConfig {
    /// Defaults, with `ROTIND_SERVE_*` environment overrides.
    pub fn from_env() -> Self {
        let auto = thread::available_parallelism().map_or(1, |n| n.get());
        ServeConfig {
            workers: env_positive_usize("ROTIND_SERVE_WORKERS", auto),
            queue_depth: env_positive_usize("ROTIND_SERVE_QUEUE", 64),
            batch: env_positive_usize("ROTIND_SERVE_BATCH", 8),
            clock: None,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

/// One admitted query: its spec, its enqueue-anchored budget, and the
/// channel its connection thread is blocked on.
struct Job {
    spec: QuerySpec,
    budget: QueryBudget,
    enqueued: Instant,
    reply: mpsc::Sender<Response>,
}

/// State shared by every thread of one server.
struct Shared {
    snapshot: IndexSnapshot,
    metrics: Mutex<MetricsRegistry>,
    shutdown: AtomicBool,
    batch: usize,
    clock: Option<ManualClock>,
}

/// Lock the metrics registry, recovering from poison: metrics are
/// monotonic counters and histograms, safe to keep appending to even
/// if some other thread panicked mid-update.
fn lock_metrics(shared: &Shared) -> MutexGuard<'_, MetricsRegistry> {
    // lint: blocking-allowed(metrics lock is held for counter appends only; no IO or waits ever run under it)
    shared.metrics.lock().unwrap_or_else(|p| p.into_inner())
}

/// Socket clones of the live connections, keyed by connection id.
type Conns = Arc<Mutex<HashMap<u64, TcpStream>>>;

fn lock_conns(conns: &Conns) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
    conns.lock().unwrap_or_else(|p| p.into_inner())
}

/// Removes a connection's socket clone from [`Conns`] when its thread
/// ends, whichever way it returns, so the clone's file descriptor is
/// closed with the connection.
struct ConnEntry {
    conns: Conns,
    id: u64,
}

impl Drop for ConnEntry {
    fn drop(&mut self) {
        lock_conns(&self.conns).remove(&self.id);
    }
}

/// A running query service bound to a loop-back port.
///
/// Dropping the server shuts it down; [`Server::shutdown`] does the
/// same explicitly (and is idempotent).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    sender: Option<SyncSender<Job>>,
    queue_rx: Option<Arc<Mutex<Receiver<Job>>>>,
    conns: Conns,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `127.0.0.1:0` and start serving `snapshot`.
    pub fn start(snapshot: IndexSnapshot, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let (sender, receiver) = mpsc::sync_channel::<Job>(config.queue_depth.max(1));
        let queue_rx = Arc::new(Mutex::new(receiver));
        let shared = Arc::new(Shared {
            snapshot,
            metrics: Mutex::new(MetricsRegistry::new()),
            shutdown: AtomicBool::new(false),
            batch: config.batch.max(1),
            clock: config.clock.clone(),
        });
        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&queue_rx);
                thread::spawn(move || worker_loop(&shared, &rx))
            })
            .collect();
        let conns = Conns::default();
        let acceptor = {
            let shared = Arc::clone(&shared);
            let sender = sender.clone();
            let conns = Arc::clone(&conns);
            thread::spawn(move || acceptor_loop(&shared, &listener, &sender, &conns))
        };
        Ok(Server {
            addr,
            shared,
            sender: Some(sender),
            queue_rx: Some(queue_rx),
            conns,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the server's metrics registry.
    pub fn metrics(&self) -> MetricsRegistry {
        lock_metrics(&self.shared).clone()
    }

    /// The Prometheus exposition text (same body the HTTP `GET` path
    /// and the binary `Metrics` request serve).
    pub fn metrics_text(&self) -> String {
        lock_metrics(&self.shared).render_prometheus()
    }

    /// Stop accepting, answer or drop what is in flight, join every
    /// thread. Idempotent; also run on drop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Unblock connection threads stuck reading their sockets.
        for (_, stream) in lock_conns(&self.conns).drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // With no workers (test configurations) the queued jobs are
        // dropped here, which closes their reply channels and releases
        // the connection threads blocked on them. With workers the
        // queue stays alive through the workers' own handles and is
        // drained normally.
        self.queue_rx = None;
        // Wake the acceptor's blocking `accept`.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        // Acceptor and connection threads are gone; dropping the last
        // sender disconnects the queue so workers exit once drained.
        self.sender = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

fn acceptor_loop(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    sender: &SyncSender<Job>,
    conns: &Conns,
) {
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id: u64 = 0;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                // Join the connection threads that have ended (`join`
                // returns at once for them), so only live ones keep a
                // handle here.
                let (ended, live): (Vec<_>, Vec<_>) = std::mem::take(&mut handles)
                    .into_iter()
                    .partition(JoinHandle::is_finished);
                handles = live;
                for handle in ended {
                    let _ = handle.join();
                }
                // Request/response streams are latency-bound: without
                // this, replies sit in Nagle's buffer waiting for the
                // client's delayed ACK (~20 ms per round trip).
                let _ = stream.set_nodelay(true);
                lock_metrics(shared).counter_add("rotind_serve_connections_total", 1);
                let id = next_id;
                next_id = next_id.wrapping_add(1);
                if let Ok(clone) = stream.try_clone() {
                    lock_conns(conns).insert(id, clone);
                }
                let entry = ConnEntry {
                    conns: Arc::clone(conns),
                    id,
                };
                let shared = Arc::clone(shared);
                let sender = sender.clone();
                handles.push(thread::spawn(move || {
                    let _entry = entry;
                    connection_loop(&shared, &sender, stream)
                }));
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
            }
        }
    }
    for handle in handles {
        let _ = handle.join();
    }
}

fn connection_loop(shared: &Shared, sender: &SyncSender<Job>, mut stream: TcpStream) {
    // The first four bytes decide the protocol: an HTTP `GET ` (for
    // the /metrics scrape path) or a binary frame length. `"GET "` as
    // a little-endian u32 is far above MAX_FRAME_LEN, so the sniff is
    // unambiguous.
    let mut head = [0u8; 4];
    if stream.read_exact(&mut head).is_err() {
        return;
    }
    if &head == b"GET " {
        serve_http_metrics(shared, stream);
        return;
    }
    let mut pending_head = Some(head);
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let payload = match pending_head.take() {
            Some(head) => {
                let len = u32::from_le_bytes(head) as usize;
                if len > wire::MAX_FRAME_LEN {
                    return;
                }
                let mut payload = vec![0u8; len];
                if stream.read_exact(&mut payload).is_err() {
                    return;
                }
                payload
            }
            None => match wire::read_frame(&mut stream) {
                Ok(payload) => payload,
                Err(_) => return,
            },
        };
        let response = handle_request(shared, sender, &payload);
        if wire::write_frame(&mut stream, &wire::encode_response(&response)).is_err() {
            return;
        }
    }
}

/// Decode one request payload and produce its reply, enqueueing query
/// work and blocking on the worker's answer.
fn handle_request(shared: &Shared, sender: &SyncSender<Job>, payload: &[u8]) -> Response {
    let request = match wire::decode_request(payload) {
        Ok(request) => request,
        Err(e) => {
            lock_metrics(shared).counter_add("rotind_serve_errors_total", 1);
            return Response::Error {
                code: error_code::MALFORMED,
                message: e.to_string(),
            };
        }
    };
    match request {
        Request::Ping => Response::Pong,
        Request::Metrics => Response::Metrics(lock_metrics(shared).render_prometheus()),
        Request::Query(q) => {
            // The budget anchors at enqueue: queue wait counts against
            // the deadline.
            let budget = match &shared.clock {
                Some(clock) => QueryBudget::with_clock(q.max_steps, q.deadline, clock),
                None => QueryBudget::new(q.max_steps, q.deadline),
            };
            let (reply_tx, reply_rx) = mpsc::channel();
            let job = Job {
                spec: q.spec,
                budget,
                enqueued: Instant::now(),
                reply: reply_tx,
            };
            match sender.try_send(job) {
                Ok(()) => {
                    lock_metrics(shared).counter_add("rotind_serve_enqueued_total", 1);
                    match reply_rx.recv() {
                        Ok(response) => response,
                        // The queue was torn down with this job still
                        // queued: shutdown, not an answer.
                        Err(_) => Response::Error {
                            code: error_code::SHUTDOWN,
                            message: "server shutting down".to_string(),
                        },
                    }
                }
                Err(TrySendError::Full(_)) => {
                    lock_metrics(shared).counter_add("rotind_serve_overload_total", 1);
                    Response::Overloaded
                }
                Err(TrySendError::Disconnected(_)) => Response::Error {
                    code: error_code::SHUTDOWN,
                    message: "server shutting down".to_string(),
                },
            }
        }
    }
}

/// Minimal HTTP/1.0 responder for `GET /metrics` scrapes: read the
/// request head (discarded — every path serves the metrics text),
/// write one plain-text response, close.
fn serve_http_metrics(shared: &Shared, mut stream: TcpStream) {
    let mut head = vec![b'G', b'E', b'T', b' '];
    let mut chunk = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 8192 {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => head.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
        }
    }
    let body = lock_metrics(shared).render_prometheus();
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<Job>>) {
    let mut cache = shared.snapshot.paa_cache();
    loop {
        let mut batch = Vec::new();
        {
            // lint: blocking-allowed(admission handoff: workers hold the queue lock only to drain one batch)
            let guard = rx.lock().unwrap_or_else(|p| p.into_inner());
            // lint: blocking-allowed(idle wait for the next admitted job is the worker's designed parking point)
            match guard.recv() {
                Ok(job) => batch.push(job),
                // Every sender dropped and the queue drained: done.
                Err(_) => return,
            }
            while batch.len() < shared.batch {
                match guard.try_recv() {
                    Ok(job) => batch.push(job),
                    Err(_) => break,
                }
            }
        }
        lock_metrics(shared).counter_add("rotind_serve_dequeued_total", batch.len() as u64);
        for job in batch {
            run_job(shared, &mut cache, job);
        }
    }
}

/// Execute one admitted query and reply to its connection thread.
fn run_job(shared: &Shared, cache: &mut BatchPaaCache, mut job: Job) {
    let started = Instant::now();
    let queue_wait = started.duration_since(job.enqueued);
    let mut counter = StepCounter::new();
    let result = shared.snapshot.execute(
        &job.spec,
        &mut counter,
        &mut NoopObserver,
        &mut job.budget,
        Some(cache),
    );
    let response = match result {
        Ok(outcome) => {
            let status = match &outcome {
                BudgetOutcome::Complete(_) => QueryStatus::Complete,
                BudgetOutcome::Exhausted(e) => match e.reason {
                    BudgetReason::Steps => QueryStatus::ExhaustedSteps,
                    BudgetReason::Deadline => QueryStatus::ExhaustedDeadline,
                },
            };
            let hits = outcome.into_inner().iter().map(wire::Hit::from).collect();
            Response::Query(QueryResponse {
                status,
                steps: counter.steps(),
                hits,
            })
        }
        Err(e) => Response::Error {
            code: search_error_code(&e),
            message: e.to_string(),
        },
    };
    {
        let mut metrics = lock_metrics(shared);
        metrics.counter_add("rotind_serve_requests_total", 1);
        match &response {
            Response::Query(q) if q.status != QueryStatus::Complete => {
                metrics.counter_add("rotind_serve_exhausted_total", 1);
            }
            Response::Error { .. } => {
                metrics.counter_add("rotind_serve_errors_total", 1);
            }
            _ => {}
        }
        metrics
            .log_histogram("rotind_serve_latency_ns")
            .observe_duration(started.elapsed());
        metrics
            .log_histogram("rotind_serve_queue_wait_ns")
            .observe_duration(queue_wait);
        metrics
            .log_histogram("rotind_serve_steps")
            .observe(counter.steps());
    }
    // The connection may be gone (client hung up, shutdown): the
    // answer is dropped, never a panic.
    // lint: blocking-allowed(std mpsc senders never block: the reply channel is unbounded, and a gone receiver just returns Err)
    let _ = job.reply.send(response);
}

fn search_error_code(e: &SearchError) -> u16 {
    match e {
        SearchError::EmptyDatabase
        | SearchError::LengthMismatch { .. }
        | SearchError::QueryLength { .. }
        | SearchError::InvalidQuery(_) => error_code::BAD_QUERY,
        SearchError::InvalidParam { .. } => error_code::BAD_PARAM,
    }
}
