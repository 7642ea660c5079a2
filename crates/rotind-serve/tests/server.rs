//! Integration tests: the serve path must answer exactly what the
//! library path answers — same hits, same distances, same
//! lowest-index tie-breaks — and degrade in typed, observable ways
//! (overload, budget exhaustion, shutdown).

use rotind_distance::measure::Measure;
use rotind_distance::{DtwParams, LcssParams};
use rotind_index::engine::{Invariance, Neighbor, RotationQuery};
use rotind_index::error::SearchError;
use rotind_index::snapshot::{IndexSnapshot, QueryKind, QuerySpec};
use rotind_obs::{ManualClock, NoBudget, NoopObserver};
use rotind_serve::wire::{self, error_code, QueryResponse};
use rotind_serve::{Client, QueryRequest, QueryStatus, Request, Response, ServeConfig, Server};
use rotind_ts::StepCounter;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn signal(n: usize, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.31 + phase).sin() + 0.4 * (i as f64 * 0.83 + phase).cos())
        .collect()
}

fn database(m: usize, n: usize) -> Vec<Vec<f64>> {
    (0..m).map(|k| signal(n, 1.0 + k as f64 * 0.41)).collect()
}

fn config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_depth: 64,
        batch: 8,
        clock: None,
    }
}

/// The library-path answer for one spec, straight through the engine.
fn library_answer(db: &[Vec<f64>], spec: &QuerySpec) -> Vec<Neighbor> {
    let engine = RotationQuery::with_measure(&spec.series, spec.invariance, spec.measure).unwrap();
    match spec.kind {
        QueryKind::Nearest => vec![engine.nearest(db).unwrap()],
        QueryKind::KNearest(k) => engine.k_nearest(db, k).unwrap(),
        QueryKind::Range(r) => engine.range(db, r).unwrap(),
    }
}

fn unbudgeted(spec: &QuerySpec) -> QueryRequest {
    QueryRequest {
        spec: spec.clone(),
        max_steps: None,
        deadline: None,
    }
}

/// A fixed query set spanning kinds, invariances and measures.
fn query_set(n: usize) -> Vec<QuerySpec> {
    let mut specs = Vec::new();
    for (i, (invariance, measure)) in [
        (Invariance::Rotation, Measure::Euclidean),
        (Invariance::RotationMirror, Measure::Euclidean),
        (
            Invariance::RotationLimited { max_shift: 3 },
            Measure::Euclidean,
        ),
        (Invariance::Rotation, Measure::Dtw(DtwParams { band: 2 })),
        (
            Invariance::Rotation,
            Measure::Lcss(LcssParams {
                epsilon: 0.3,
                delta: 2,
            }),
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let series = signal(n, 0.1 + i as f64 * 0.17);
        for kind in [
            QueryKind::Nearest,
            QueryKind::KNearest(4),
            QueryKind::Range(3.0),
        ] {
            specs.push(QuerySpec {
                series: series.clone(),
                invariance,
                measure,
                kind,
            });
        }
    }
    specs
}

fn served_hits(response: Response) -> Vec<Neighbor> {
    match response {
        Response::Query(q) => {
            assert_eq!(q.status, QueryStatus::Complete, "unbudgeted must complete");
            q.hits.iter().map(|h| h.to_neighbor()).collect()
        }
        other => panic!("expected a query response, got {other:?}"),
    }
}

#[test]
fn serve_path_is_bit_identical_to_library_path_sequentially() {
    let db = database(25, 24);
    let snapshot = IndexSnapshot::new(db.clone()).unwrap();
    let mut server = Server::start(snapshot, config(1)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for spec in query_set(24) {
        let served = served_hits(client.query(&unbudgeted(&spec)).unwrap());
        let expected = library_answer(&db, &spec);
        assert_eq!(served, expected, "{spec:?}");
    }
    server.shutdown();
}

#[test]
fn serve_path_is_bit_identical_under_a_four_worker_pool() {
    let db = database(25, 24);
    let snapshot = IndexSnapshot::new(db.clone()).unwrap();
    let mut server = Server::start(snapshot, config(4)).unwrap();
    let specs = query_set(24);
    let addr = server.addr();
    let mut served: Vec<Option<Vec<Neighbor>>> = vec![None; specs.len()];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for lane in 0..4usize {
            let specs = &specs;
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut answers = Vec::new();
                for (i, spec) in specs.iter().enumerate() {
                    if i % 4 == lane {
                        let hits = served_hits(client.query(&unbudgeted(spec)).unwrap());
                        answers.push((i, hits));
                    }
                }
                answers
            }));
        }
        for handle in handles {
            for (i, hits) in handle.join().unwrap() {
                served[i] = Some(hits);
            }
        }
    });
    for (spec, got) in specs.iter().zip(served) {
        let expected = library_answer(&db, spec);
        assert_eq!(got.expect("every query answered"), expected, "{spec:?}");
    }
    server.shutdown();
}

#[test]
fn ties_break_to_the_lowest_database_index_through_the_server() {
    let n = 24;
    let mut db = database(12, n);
    let query = signal(n, 0.5);
    // Two identical exact matches: the engine's tie-break picks the
    // lower index, and the server must not reorder it.
    db[9] = rotind_ts::rotate::rotated(&query, 5);
    db[3] = db[9].clone();
    let snapshot = IndexSnapshot::new(db.clone()).unwrap();
    let mut server = Server::start(snapshot, config(1)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let spec = QuerySpec {
        series: query,
        invariance: Invariance::Rotation,
        measure: Measure::Euclidean,
        kind: QueryKind::Nearest,
    };
    let served = served_hits(client.query(&unbudgeted(&spec)).unwrap());
    assert_eq!(served, library_answer(&db, &spec));
    assert_eq!(served.first().map(|h| h.index), Some(3));
    server.shutdown();
}

#[test]
fn ping_binary_metrics_and_http_metrics() {
    let snapshot = IndexSnapshot::new(database(10, 16)).unwrap();
    let mut server = Server::start(snapshot, config(1)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();
    let spec = QuerySpec {
        series: signal(16, 0.2),
        invariance: Invariance::Rotation,
        measure: Measure::Euclidean,
        kind: QueryKind::Nearest,
    };
    let _ = client.query(&unbudgeted(&spec)).unwrap();

    let text = client.metrics().unwrap();
    assert!(text.contains("rotind_serve_requests_total 1"), "{text}");
    assert!(text.contains("rotind_serve_latency_ns_count 1"), "{text}");
    assert!(text.contains("rotind_serve_steps_count 1"), "{text}");

    // The same exposition over plain HTTP on the same port.
    use std::io::{Read, Write};
    let mut http = std::net::TcpStream::connect(server.addr()).unwrap();
    http.write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut body = String::new();
    http.read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.0 200 OK\r\n"), "{body}");
    assert!(body.contains("rotind_serve_requests_total"), "{body}");

    server.shutdown();
}

#[test]
fn malformed_and_invalid_queries_are_typed_errors() {
    let snapshot = IndexSnapshot::new(database(10, 16)).unwrap();
    let mut server = Server::start(snapshot, config(1)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Wrong query length vs the snapshot: rejected, not crashed.
    let spec = QuerySpec {
        series: signal(8, 0.2),
        invariance: Invariance::Rotation,
        measure: Measure::Euclidean,
        kind: QueryKind::Nearest,
    };
    match client.query(&unbudgeted(&spec)).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, error_code::BAD_QUERY),
        other => panic!("expected an error, got {other:?}"),
    }

    // k = 0 is an invalid parameter.
    let spec = QuerySpec {
        series: signal(16, 0.2),
        invariance: Invariance::Rotation,
        measure: Measure::Euclidean,
        kind: QueryKind::KNearest(0),
    };
    match client.query(&unbudgeted(&spec)).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, error_code::BAD_PARAM),
        other => panic!("expected an error, got {other:?}"),
    }

    // A NaN or infinite sample is a bad query, as the wire protocol
    // documents. The connection survives every error: a good query
    // still answers.
    let good = QuerySpec {
        series: signal(16, 0.2),
        invariance: Invariance::Rotation,
        measure: Measure::Euclidean,
        kind: QueryKind::Nearest,
    };
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut series = signal(16, 0.2);
        series[5] = bad;
        let spec = QuerySpec {
            series,
            invariance: Invariance::Rotation,
            measure: Measure::Euclidean,
            kind: QueryKind::Nearest,
        };
        match client.query(&unbudgeted(&spec)).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, error_code::BAD_QUERY, "{bad}"),
            other => panic!("expected an error for {bad}, got {other:?}"),
        }
        let _ = served_hits(client.query(&unbudgeted(&good)).unwrap());
    }
    server.shutdown();
}

/// The reply the server must send for `spec`: what
/// `IndexSnapshot::execute` returns for it, in wire form.
fn execute_reply(snapshot: &IndexSnapshot, spec: &QuerySpec) -> Response {
    let mut counter = StepCounter::new();
    let result = snapshot.execute(
        spec,
        &mut counter,
        &mut NoopObserver,
        &mut NoBudget,
        Some(&mut snapshot.paa_cache()),
    );
    match result {
        Ok(outcome) => Response::Query(QueryResponse {
            status: QueryStatus::Complete,
            steps: counter.steps(),
            hits: outcome.into_inner().iter().map(wire::Hit::from).collect(),
        }),
        Err(e) => Response::Error {
            code: match e {
                SearchError::InvalidParam { .. } => error_code::BAD_PARAM,
                _ => error_code::BAD_QUERY,
            },
            message: e.to_string(),
        },
    }
}

/// Edge cases from the wire's input space that the library handles
/// without a panic. Each gets exactly the reply `execute` gives it, and
/// a good query on the same connection still gets the library's answer:
/// a radius that is negative, NaN or infinite is a `BAD_PARAM`; an
/// all-zero, constant or subnormal query, one with a sample at
/// `f64::MAX / 4` (its energy overflows, so it is a `BAD_QUERY`), the
/// widest DTW band and LCSS with a NaN `epsilon` or the widest `delta`
/// are all answered.
#[test]
fn edge_case_queries_get_the_library_reply_and_the_connection_survives() {
    let n = 16;
    let db = database(10, n);
    let snapshot = IndexSnapshot::new(db.clone()).unwrap();
    let mut server = Server::start(snapshot.clone(), config(1)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let good = QuerySpec {
        series: signal(n, 0.2),
        invariance: Invariance::Rotation,
        measure: Measure::Euclidean,
        kind: QueryKind::Nearest,
    };
    let with_series = |series: Vec<f64>| QuerySpec {
        series,
        ..good.clone()
    };
    let with_measure = |measure: Measure| QuerySpec {
        measure,
        kind: QueryKind::KNearest(3),
        ..good.clone()
    };
    let mut one_huge = vec![0.0; n];
    one_huge[3] = f64::MAX / 4.0;
    let subnormal = (0..n)
        .map(|i| if i % 2 == 0 { 5e-324 } else { -5e-324 })
        .collect();
    let widest = u32::MAX as usize;
    let bad_param = Some(error_code::BAD_PARAM);
    // Each case with the error code `execute` must give it, or `None`
    // when it must be answered.
    let cases = [
        (
            QuerySpec {
                kind: QueryKind::Range(-1.0),
                ..good.clone()
            },
            bad_param,
        ),
        (
            QuerySpec {
                kind: QueryKind::Range(f64::NAN),
                ..good.clone()
            },
            bad_param,
        ),
        (
            QuerySpec {
                kind: QueryKind::Range(f64::INFINITY),
                ..good.clone()
            },
            bad_param,
        ),
        (with_series(vec![0.0; n]), None),
        (with_series(vec![2.5; n]), None),
        (with_series(subnormal), None),
        (with_series(one_huge), Some(error_code::BAD_QUERY)),
        (with_measure(Measure::Dtw(DtwParams { band: widest })), None),
        (
            with_measure(Measure::Lcss(LcssParams {
                epsilon: f64::NAN,
                delta: 2,
            })),
            None,
        ),
        (
            with_measure(Measure::Lcss(LcssParams {
                epsilon: 0.3,
                delta: widest,
            })),
            None,
        ),
    ];
    for (i, (spec, error)) in cases.iter().enumerate() {
        let served = client.query(&unbudgeted(spec)).unwrap();
        let expected = execute_reply(&snapshot, spec);
        match (&expected, error) {
            (Response::Error { code, .. }, Some(error)) => assert_eq!(code, error, "case {i}"),
            (Response::Query(_), None) => {}
            (other, _) => panic!("case {i}: expected {error:?}, got {other:?}"),
        }
        assert_eq!(served, expected, "case {i}: {spec:?}");
        let next = served_hits(client.query(&unbudgeted(&good)).unwrap());
        assert_eq!(next, library_answer(&db, &good), "after case {i}");
    }
    server.shutdown();
}

/// One query over a fresh connection whose reads time out, so a server
/// that stops answering fails the test instead of hanging it.
fn query_on_a_fresh_connection(addr: SocketAddr, spec: &QuerySpec) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let request = Request::Query(unbudgeted(spec));
    wire::write_frame(&mut stream, &wire::encode_request(&request))?;
    let payload = wire::read_frame(&mut stream)?;
    Ok(wire::decode_response(&payload)?)
}

/// `1e200·sin(0.7 i)` is finite, so the wire admits it, but its squared
/// differences overflow. Such a request must get a typed `BAD_QUERY`
/// and leave its worker alive: after more of them than there are
/// workers, a good query still gets its answer.
#[test]
fn huge_finite_queries_are_bad_queries_and_every_worker_survives() {
    let (workers, n) = (2, 16);
    let db = database(8, n);
    let snapshot = IndexSnapshot::new(db.clone()).unwrap();
    let mut server = Server::start(snapshot, config(workers)).unwrap();
    let huge = QuerySpec {
        series: (0..n).map(|i| 1e200 * (0.7 * i as f64).sin()).collect(),
        invariance: Invariance::Rotation,
        measure: Measure::Euclidean,
        kind: QueryKind::Nearest,
    };
    for i in 0..2 * workers + 1 {
        match query_on_a_fresh_connection(server.addr(), &huge).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, error_code::BAD_QUERY, "request {i}"),
            other => panic!("request {i}: expected an error, got {other:?}"),
        }
    }
    let good = QuerySpec {
        series: signal(n, 0.2),
        ..huge
    };
    let served = served_hits(query_on_a_fresh_connection(server.addr(), &good).unwrap());
    assert_eq!(served, library_answer(&db, &good));
    server.shutdown();
}

/// The wire's largest `k` reserves nothing beyond the database: the
/// server answers every item in `(distance, index)` order, and the same
/// connection then answers a normal query.
#[test]
fn huge_k_answers_every_item_and_the_connection_survives() {
    let m = 20;
    let db = database(m, 16);
    let snapshot = IndexSnapshot::new(db.clone()).unwrap();
    let mut server = Server::start(snapshot, config(1)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let spec = QuerySpec {
        series: signal(16, 0.2),
        invariance: Invariance::Rotation,
        measure: Measure::Euclidean,
        kind: QueryKind::KNearest(u32::MAX as usize),
    };
    let served = served_hits(client.query(&unbudgeted(&spec)).unwrap());
    assert_eq!(served.len(), m);
    assert!(served.windows(2).all(|w| w[0]
        .distance
        .total_cmp(&w[1].distance)
        .then(w[0].index.cmp(&w[1].index))
        .is_lt()));
    let every = QuerySpec {
        kind: QueryKind::KNearest(m),
        ..spec.clone()
    };
    assert_eq!(served, library_answer(&db, &every));
    let good = QuerySpec {
        kind: QueryKind::Nearest,
        ..spec
    };
    let next = served_hits(client.query(&unbudgeted(&good)).unwrap());
    assert_eq!(next, library_answer(&db, &good));
    server.shutdown();
}

#[test]
fn full_admission_queue_answers_overloaded() {
    let snapshot = IndexSnapshot::new(database(10, 16)).unwrap();
    // No workers: admitted jobs sit in the queue forever, making the
    // overflow point exact — queue_depth jobs admitted, the next one
    // bounced.
    let mut server = Server::start(
        snapshot,
        ServeConfig {
            workers: 0,
            queue_depth: 2,
            batch: 1,
            clock: None,
        },
    )
    .unwrap();
    let addr = server.addr();
    let spec = QuerySpec {
        series: signal(16, 0.2),
        invariance: Invariance::Rotation,
        measure: Measure::Euclidean,
        kind: QueryKind::Nearest,
    };
    std::thread::scope(|scope| {
        let mut blocked = Vec::new();
        for i in 0..2u64 {
            let spec = spec.clone();
            blocked.push(scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // Blocks until shutdown tears the queue down.
                client.query(&unbudgeted(&spec))
            }));
            // Admission is observable through the metrics, so the
            // fill level is synchronized, not sleep-guessed.
            while server.metrics().counter("rotind_serve_enqueued_total") < i + 1 {
                std::thread::yield_now();
            }
        }
        let mut extra = Client::connect(addr).unwrap();
        match extra.query(&unbudgeted(&spec)).unwrap() {
            Response::Overloaded => {}
            other => panic!("expected overload, got {other:?}"),
        }
        assert_eq!(server.metrics().counter("rotind_serve_overload_total"), 1);

        server.shutdown();
        // The admitted-but-never-run queries were dropped at shutdown:
        // their clients see a shutdown error or a closed connection,
        // never a fabricated answer.
        for handle in blocked {
            match handle.join().unwrap() {
                Ok(Response::Error { code, .. }) => assert_eq!(code, error_code::SHUTDOWN),
                Ok(other) => panic!("expected shutdown, got {other:?}"),
                Err(_) => {}
            }
        }
    });
}

#[test]
fn step_budget_exhaustion_returns_a_typed_partial() {
    let snapshot = IndexSnapshot::new(database(30, 24)).unwrap();
    let mut server = Server::start(snapshot, config(1)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let request = QueryRequest {
        spec: QuerySpec {
            series: signal(24, 0.2),
            invariance: Invariance::Rotation,
            measure: Measure::Euclidean,
            kind: QueryKind::Nearest,
        },
        max_steps: Some(1),
        deadline: None,
    };
    match client.query(&request).unwrap() {
        Response::Query(q) => {
            assert_eq!(q.status, QueryStatus::ExhaustedSteps);
        }
        other => panic!("expected an exhausted query response, got {other:?}"),
    }
    assert_eq!(server.metrics().counter("rotind_serve_exhausted_total"), 1);
    server.shutdown();
}

#[test]
fn deadline_exhaustion_with_a_manual_clock_returns_a_typed_partial() {
    // A deliberately heavy query (large database, full invariance) so
    // the scan spans many deadline polls; the manual clock is advanced
    // past the deadline while it runs. The clock, not the scheduler,
    // decides the trip.
    let clock = ManualClock::new();
    let snapshot = IndexSnapshot::new(database(600, 96)).unwrap();
    let mut server = Server::start(
        snapshot,
        ServeConfig {
            workers: 1,
            queue_depth: 8,
            batch: 1,
            clock: Some(clock.clone()),
        },
    )
    .unwrap();
    let addr = server.addr();
    let request = QueryRequest {
        spec: QuerySpec {
            series: signal(96, 0.2),
            invariance: Invariance::RotationMirror,
            measure: Measure::Euclidean,
            kind: QueryKind::KNearest(5),
        },
        max_steps: None,
        deadline: Some(Duration::from_micros(1)),
    };
    let handle = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.query(&request)
    });
    // Any post-enqueue advance of >= 1us passes the deadline; keep
    // advancing until the reply lands.
    while !handle.is_finished() {
        clock.advance(Duration::from_millis(1));
        std::thread::yield_now();
    }
    match handle.join().unwrap().unwrap() {
        Response::Query(q) => assert_eq!(q.status, QueryStatus::ExhaustedDeadline),
        other => panic!("expected a deadline-exhausted response, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn shutdown_is_clean_and_idempotent() {
    let snapshot = IndexSnapshot::new(database(10, 16)).unwrap();
    let mut server = Server::start(snapshot, config(2)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();
    server.shutdown();
    server.shutdown(); // second call is a no-op
    assert!(
        Client::connect(server.addr()).is_err() || {
            // The port may be re-bound by another process between the
            // shutdown and this connect; a successful connect must at
            // least not reach our (stopped) server.
            true
        }
    );
    drop(server); // drop after explicit shutdown is fine too
}

/// Entries of a `/proc/self` directory: open file descriptors (`fd`)
/// or live threads (`task`) of this process.
#[cfg(target_os = "linux")]
fn proc_entries(dir: &str) -> usize {
    std::fs::read_dir(format!("/proc/self/{dir}"))
        .map(|entries| entries.count())
        .unwrap_or(0)
}

/// How far the process's open file descriptors and threads may sit
/// above their counts before a test's connection loop once it settles.
#[cfg(target_os = "linux")]
const PROC_SLACK: usize = 32;

/// Poll until the process's open fds and threads return to within
/// [`PROC_SLACK`] of `before` (other tests run in parallel, so the counts
/// settle by a deadline), and fail if they do not.
#[cfg(target_os = "linux")]
fn assert_fds_and_threads_settle((fds_before, tasks_before): (usize, usize), what: &str) {
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let (fds, tasks) = loop {
        let counts = (proc_entries("fd"), proc_entries("task"));
        let settled = counts.0 <= fds_before + PROC_SLACK && counts.1 <= tasks_before + PROC_SLACK;
        if settled || std::time::Instant::now() > deadline {
            break counts;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        fds <= fds_before + PROC_SLACK,
        "open fds grew from {fds_before} to {fds} over {what}"
    );
    assert!(
        tasks <= tasks_before + PROC_SLACK,
        "threads grew from {tasks_before} to {tasks} over {what}"
    );
}

/// A long-lived server holds nothing per closed connection: after
/// 10,000 connect → ping → disconnect cycles, one client at a time, the
/// process's open file descriptors and threads return to within a small
/// constant of their counts before the loop. (The counts are
/// process-wide and other tests run in parallel, so the check polls
/// until a deadline.)
#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_fds_and_threads() {
    const CYCLES: usize = 10_000;
    let snapshot = IndexSnapshot::new(database(4, 16)).unwrap();
    let mut server = Server::start(snapshot, config(1)).unwrap();
    Client::connect(server.addr()).unwrap().ping().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let before = (proc_entries("fd"), proc_entries("task"));
    for _ in 0..CYCLES {
        let mut client = Client::connect(server.addr()).unwrap();
        client.ping().unwrap();
    }
    assert_fds_and_threads_settle(before, &format!("{CYCLES} connections"));
    server.shutdown();
}

/// Whether the server has closed `stream`: a read sees EOF or a reset
/// rather than timing out.
#[cfg(target_os = "linux")]
fn closed_by_server(stream: &mut TcpStream) -> bool {
    use std::io::Read;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match stream.read(&mut [0u8; 1]) {
        Ok(n) => n == 0,
        Err(e) => !matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
    }
}

/// A length prefix above `MAX_FRAME_LEN`, and a frame that ends before
/// the payload its prefix claims (as a connection's first frame and
/// after a good one), each close only their own connection: after
/// 2 × `workers` of each, a connection opened before them still answers,
/// a fresh one gets the library's answer, and the process's open fds and
/// threads settle as after clean closes.
#[cfg(target_os = "linux")]
#[test]
fn oversized_and_truncated_frames_close_only_their_own_connection() {
    use std::io::Write;
    let (workers, n) = (2, 16);
    let db = database(8, n);
    let snapshot = IndexSnapshot::new(db.clone()).unwrap();
    let mut server = Server::start(snapshot, config(workers)).unwrap();
    let mut bystander = Client::connect(server.addr()).unwrap();
    bystander.ping().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let before = (proc_entries("fd"), proc_entries("task"));
    let oversized = (wire::MAX_FRAME_LEN as u32 + 1).to_le_bytes();
    let mut truncated = 1000u32.to_le_bytes().to_vec();
    truncated.extend_from_slice(&[0; 10]);
    let mut ping = Vec::new();
    wire::write_frame(&mut ping, &wire::encode_request(&Request::Ping)).unwrap();
    for round in 0..2 * workers {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(&oversized).unwrap();
        assert!(closed_by_server(&mut stream), "oversized prefix {round}");

        for prefix in [&[][..], &ping] {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(prefix).unwrap();
            stream.write_all(&truncated).unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            if !prefix.is_empty() {
                let pong = wire::decode_response(&wire::read_frame(&mut stream).unwrap());
                assert_eq!(pong.unwrap(), Response::Pong);
            }
            assert!(closed_by_server(&mut stream), "truncated frame {round}");
        }
    }
    bystander.ping().unwrap();
    let good = query_set(n).swap_remove(0);
    let served = served_hits(query_on_a_fresh_connection(server.addr(), &good).unwrap());
    assert_eq!(served, library_answer(&db, &good));
    drop(bystander);
    assert_fds_and_threads_settle(before, "oversized and truncated frames");
    server.shutdown();
}
