//! The real server, in-process: cold-start timing, the closed loop, and
//! what the server and the process report afterwards.

use crate::oracle::check;
use crate::stats::tail_quantile;
use crate::workload::{Planned, Stream};
use crate::yardstick::AllCpus;
use rotind_index::IndexSnapshot;
use rotind_serve::{Client, ServeConfig, Server};
use std::io;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Idle time before each cold start. A start then begins from an idle
/// process, as a real one does; back to back, a start often finds the
/// other CPU still awake from the previous one, and the times split
/// into two modes that vary from run to run.
const IDLE_BEFORE_START: Duration = Duration::from_millis(10);

/// Least time between two yardstick samples of one connection, so that
/// on short requests the yardstick stays a small share of the run.
const YARDSTICK_GAP: Duration = Duration::from_millis(25);

/// Time `reps` cold starts of the service: `IndexSnapshot::new`,
/// `Server::start`, connect and the first ping. `input` runs before
/// each start's clock does, so the database copy it returns is not
/// timed; neither is stopping the previous server. Returns the times
/// in seconds and the last server, still running.
pub fn cold_starts(
    reps: usize,
    mut input: impl FnMut() -> Vec<Vec<f64>>,
    config: &ServeConfig,
) -> io::Result<(Vec<f64>, Server)> {
    let mut seconds = Vec::with_capacity(reps);
    let mut running: Option<Server> = None;
    for _ in 0..reps.max(1) {
        if let Some(mut previous) = running.take() {
            previous.shutdown();
        }
        let db = input();
        std::thread::sleep(IDLE_BEFORE_START);
        let started = Instant::now();
        let snapshot = IndexSnapshot::new(db)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let server = Server::start(snapshot, config.clone())?;
        Client::connect(server.addr())?.ping()?;
        seconds.push(started.elapsed().as_secs_f64());
        running = Some(server);
    }
    let server = running.ok_or_else(|| io::Error::other("no cold start ran"))?;
    Ok((seconds, server))
}

/// One request of the timed window.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Reply time, seconds since the window opened.
    pub at_s: f64,
    /// Client-observed time from send to decoded reply, ms.
    pub ms: f64,
    /// What was asked.
    pub planned: Planned,
}

/// What the closed loop observed.
#[derive(Debug, Default)]
pub struct LoopReport {
    /// Every request sent in the timed window.
    pub timed: Vec<Timed>,
    /// `(time, ms)` yardstick samples taken in the timed window, time
    /// in seconds since it opened.
    pub yardstick: Vec<(f64, f64)>,
    /// Replies in the timed window that matched the oracle.
    pub correct_timed: u64,
    /// Every request sent, warm-up included.
    pub attempted: u64,
    /// Requests answered with an error, `Overloaded`, or an answer
    /// that differs from the oracle, warm-up included.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

impl LoopReport {
    fn merge(&mut self, other: LoopReport) {
        self.timed.extend(other.timed);
        self.yardstick.extend(other.yardstick);
        self.correct_timed += other.correct_timed;
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Drive the server closed-loop: each connection sends its next
/// request only after the previous reply arrived, and times the
/// yardstick after a reply when [`YARDSTICK_GAP`] has passed since its
/// last sample. Every connection first sends its warm-up requests;
/// timing starts when all of them are done and lasts `window`.
pub fn closed_loop(addr: SocketAddr, stream: Stream, window: Duration) -> io::Result<LoopReport> {
    let connections = stream.workload.connections;
    let barrier = Barrier::new(connections);
    let opened = std::sync::OnceLock::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let (barrier, opened) = (&barrier, &opened);
                scope.spawn(move || connection(addr, stream, c, (barrier, opened), window))
            })
            .collect();
        let mut report = LoopReport::default();
        for handle in handles {
            let part = handle
                .join()
                .map_err(|_| io::Error::other("client connection thread panicked"))??;
            report.merge(part);
        }
        Ok(report)
    })
}

/// The timed window's shared start: every connection waits at the
/// barrier, and the first one through sets the instant.
type Start<'a> = (&'a Barrier, &'a std::sync::OnceLock<Instant>);

fn connection(
    addr: SocketAddr,
    stream: Stream,
    c: usize,
    (barrier, opened): Start,
    window: Duration,
) -> io::Result<LoopReport> {
    let w = stream.workload;
    let mut client = Client::connect(addr)?;
    let mut report = LoopReport::default();
    let mut yardstick = AllCpus::start();
    let mut sent = 0u64;
    // One request on this connection: reconnect when due, send, time
    // from send to decoded reply, check against the oracle.
    let mut one =
        |client: &mut Client, report: &mut LoopReport| -> io::Result<(Planned, f64, bool)> {
            if matches!(w.reconnect_every, Some(every) if sent > 0 && sent.is_multiple_of(every)) {
                *client = Client::connect(addr)?;
            }
            let (planned, expected, request) = stream.get(c as u64 + w.connections as u64 * sent);
            sent += 1;
            let started = Instant::now();
            let reply = client.call(&request)?;
            let ms = started.elapsed().as_secs_f64() * 1e3;
            report.attempted += 1;
            let verdict = check(expected, &reply);
            if let Err(why) = &verdict {
                report.failed += 1;
                report
                    .first_failure
                    .get_or_insert_with(|| format!("{planned:?}: {why}"));
            }
            Ok((planned, ms, verdict.is_ok()))
        };
    for _ in 0..w.warmup_per_connection {
        one(&mut client, &mut report)?;
        yardstick.sample();
    }
    barrier.wait();
    let started = *opened.get_or_init(Instant::now);
    let mut last_sample: Option<Instant> = None;
    while started.elapsed() < window {
        let (planned, ms, ok) = one(&mut client, &mut report)?;
        let replied = started.elapsed().as_secs_f64();
        report.timed.push(Timed {
            at_s: replied,
            ms,
            planned,
        });
        report.correct_timed += u64::from(ok);
        if last_sample.is_none_or(|at| at.elapsed() >= YARDSTICK_GAP) {
            let ms = yardstick.sample();
            report.yardstick.push((replied, ms));
            last_sample = Some(Instant::now());
        }
    }
    Ok(report)
}

/// The server's own view, from `Server::metrics()` and `/proc`.
#[derive(Debug, Clone, Copy)]
pub struct ServerView {
    /// Median admission-queue wait, ms.
    pub queue_wait_p50_ms: f64,
    /// Queue wait at the tail percentile, ms.
    pub queue_wait_tail_ms: f64,
    /// Median worker service time (engine build, scan and reply), ms.
    pub service_p50_ms: f64,
    /// Connections the server accepted.
    pub connections: u64,
    /// Open file descriptors of the process once every client closed.
    pub open_fds_after: u64,
}

/// Read the server's histograms and counters after the clients closed.
/// The histograms cover every query the server ran: the warm-up and
/// the timed window.
pub fn server_view(server: &Server) -> io::Result<ServerView> {
    // Give the connection threads a moment to see their clients' EOF
    // and drop their sockets, so only what the server keeps is counted.
    std::thread::sleep(Duration::from_millis(50));
    let open_fds_after = std::fs::read_dir("/proc/self/fd")?.count() as u64;
    let registry = server.metrics();
    let ms = |name: &str, q: Option<f64>| -> io::Result<f64> {
        let hist = registry
            .log_histogram_get(name)
            .ok_or_else(|| io::Error::other(format!("server has no histogram {name}")))?;
        q.and_then(|q| hist.quantile(q))
            .map(|ns| ns as f64 / 1e6)
            .ok_or_else(|| io::Error::other(format!("{name} has too few samples")))
    };
    let waits = registry
        .log_histogram_get("rotind_serve_queue_wait_ns")
        .map_or(0, |h| h.count());
    Ok(ServerView {
        queue_wait_p50_ms: ms("rotind_serve_queue_wait_ns", Some(0.5))?,
        queue_wait_tail_ms: ms(
            "rotind_serve_queue_wait_ns",
            tail_quantile(usize::try_from(waits).unwrap_or(usize::MAX)),
        )?,
        service_p50_ms: ms("rotind_serve_latency_ns", Some(0.5))?,
        connections: registry.counter("rotind_serve_connections_total"),
        open_fds_after,
    })
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_time_excludes_the_input_copy() {
        let db = vec![vec![0.5, -0.5, 1.0, -1.0]; 8];
        let copy_cost = Duration::from_millis(40);
        let config = ServeConfig {
            workers: 1,
            queue_depth: 4,
            batch: 1,
            clock: None,
        };
        let (seconds, mut server) = cold_starts(
            3,
            || {
                std::thread::sleep(copy_cost);
                db.clone()
            },
            &config,
        )
        .unwrap();
        server.shutdown();
        assert_eq!(seconds.len(), 3);
        for s in seconds {
            assert!(
                s > 0.0 && s < copy_cost.as_secs_f64(),
                "set-up {s} s includes the input copy"
            );
        }
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
