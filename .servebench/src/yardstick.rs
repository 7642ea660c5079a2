//! The yardstick: a fixed unit of work, timed between requests, that
//! tracks how fast the shared host runs at that moment.
//!
//! Other tenants share the host's cores, and its speed drifts by up to
//! half again over minutes, longer than a run. The closed loop times
//! the yardstick after replies, on every CPU at once because the
//! server's worker may have run on any of them, and each request's
//! latency is scaled by [`NOMINAL_MS`] over the yardstick's median time
//! within [`HALF_WINDOW_S`] of that reply: what the request would have
//! taken on the host at its nominal speed. The yardstick shares no code
//! with the system under test (banded DTW written here, over fixed
//! data), so a change to the system moves the requests' times and not
//! the yardstick's.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

/// The yardstick's time on the reference host (2-vCPU Xeon VM) in a
/// quiet stretch, ms. Scaled metrics read as on that host.
pub const NOMINAL_MS: f64 = 0.4;

/// Most threads the yardstick runs on at once.
const MAX_THREADS: usize = 8;

/// Samples within this many seconds of a reply, either side, set the
/// host speed for that request.
pub const HALF_WINDOW_S: f64 = 2.0;

/// Length of the yardstick's series.
const LEN: usize = 128;
/// Its warping band.
const BAND: usize = 5;
/// Series aligned against the first one per sample.
const PAIRS: usize = 32;

/// Banded DTW of one fixed series against [`PAIRS`] others.
#[derive(Debug, Clone)]
pub struct Yardstick {
    series: Vec<Vec<f64>>,
    prev: Vec<f64>,
    cur: Vec<f64>,
}

impl Default for Yardstick {
    fn default() -> Self {
        // A fixed linear congruential stream: the same work in every
        // run, whatever the seed.
        let mut state = 0x5EED_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let series = (0..=PAIRS)
            .map(|_| (0..LEN).map(|_| next()).collect())
            .collect();
        Yardstick {
            series,
            prev: vec![0.0; LEN + 1],
            cur: vec![0.0; LEN + 1],
        }
    }
}

impl Yardstick {
    /// Run the work once; its wall time in ms.
    pub fn sample(&mut self) -> f64 {
        let started = Instant::now();
        black_box(self.work());
        started.elapsed().as_secs_f64() * 1e3
    }

    /// Sum of the banded DTW distances.
    fn work(&mut self) -> f64 {
        let (first, rest) = self.series.split_at(1);
        let a = black_box(&first[0]);
        let mut total = 0.0;
        for b in rest {
            self.prev.fill(f64::INFINITY);
            self.prev[0] = 0.0;
            for i in 1..=LEN {
                self.cur.fill(f64::INFINITY);
                for j in i.saturating_sub(BAND).max(1)..=(i + BAND).min(LEN) {
                    let d = a[i - 1] - b[j - 1];
                    self.cur[j] = d * d + self.prev[j - 1].min(self.prev[j]).min(self.cur[j - 1]);
                }
                std::mem::swap(&mut self.prev, &mut self.cur);
            }
            total += self.prev[LEN];
        }
        total
    }
}

/// The yardstick on every CPU at once: the calling thread and one
/// helper per further CPU start together, so each lands on its own
/// CPU, and a sample is the mean of their times. Dropping it stops and
/// joins the helpers.
#[derive(Debug)]
pub struct AllCpus {
    own: Yardstick,
    go: Arc<Barrier>,
    stop: Arc<AtomicBool>,
    times: Receiver<f64>,
    helpers: Vec<JoinHandle<()>>,
}

impl AllCpus {
    /// Start one helper per CPU beyond the first.
    pub fn start() -> AllCpus {
        let threads = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .clamp(1, MAX_THREADS);
        let go = Arc::new(Barrier::new(threads));
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, times) = mpsc::channel();
        let helpers = (1..threads)
            .map(|_| {
                let (go, stop, tx) = (Arc::clone(&go), Arc::clone(&stop), tx.clone());
                std::thread::spawn(move || {
                    let mut yardstick = Yardstick::default();
                    loop {
                        go.wait();
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        if tx.send(yardstick.sample()).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        AllCpus {
            own: Yardstick::default(),
            go,
            stop,
            times,
            helpers,
        }
    }

    /// Time the work on every thread at once; the mean time, ms.
    pub fn sample(&mut self) -> f64 {
        self.go.wait();
        let mut total = self.own.sample();
        for _ in &self.helpers {
            total += self.times.recv().unwrap_or(f64::NAN);
        }
        total / (self.helpers.len() + 1) as f64
    }
}

impl Drop for AllCpus {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.go.wait();
        for helper in self.helpers.drain(..) {
            let _ = helper.join();
        }
    }
}

/// Yardstick samples of one run, `(time s, ms)`, in time order.
#[derive(Debug, Clone, Default)]
pub struct HostSpeed {
    samples: Vec<(f64, f64)>,
}

impl HostSpeed {
    /// Collect `samples`, in any order.
    pub fn new(mut samples: Vec<(f64, f64)>) -> HostSpeed {
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        HostSpeed { samples }
    }

    /// The factor that scales a time measured at `t` to the nominal
    /// host: [`NOMINAL_MS`] over the median sample within
    /// [`HALF_WINDOW_S`] of `t`, or over the median of all samples when
    /// none is that close. `None` without samples.
    pub fn scale_at(&self, t: f64) -> Option<f64> {
        let lo = self.samples.partition_point(|s| s.0 < t - HALF_WINDOW_S);
        let hi = self.samples.partition_point(|s| s.0 <= t + HALF_WINDOW_S);
        let window = if lo < hi {
            &self.samples[lo..hi]
        } else {
            &self.samples[..]
        };
        let ms: Vec<f64> = window.iter().map(|s| s.1).collect();
        crate::stats::median(&ms).map(|m| NOMINAL_MS / m)
    }

    /// The median sample, ms.
    pub fn median_ms(&self) -> Option<f64> {
        let ms: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        crate::stats::median(&ms)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_fixed() {
        let mut a = Yardstick::default();
        let mut b = Yardstick::default();
        let once = a.work();
        assert_eq!(once.to_bits(), b.work().to_bits());
        assert_eq!(once.to_bits(), a.work().to_bits(), "buffers leak state");
        assert!(once.is_finite() && once > 0.0);
        assert!(a.sample() > 0.0);
    }

    #[test]
    fn all_cpus_samples_and_stops_its_helpers() {
        let mut all = AllCpus::start();
        for _ in 0..3 {
            let ms = all.sample();
            assert!(ms.is_finite() && ms > 0.0);
        }
        drop(all);
    }

    #[test]
    fn scale_follows_the_nearby_samples() {
        // The host runs at nominal speed for 10 s, then at half speed.
        let samples = (0..200)
            .map(|i| {
                let t = f64::from(i) * 0.1;
                (
                    t,
                    if t < 10.0 {
                        NOMINAL_MS
                    } else {
                        2.0 * NOMINAL_MS
                    },
                )
            })
            .collect();
        let speed = HostSpeed::new(samples);
        assert_eq!(speed.len(), 200);
        assert_eq!(speed.scale_at(3.0), Some(1.0));
        assert_eq!(speed.scale_at(17.0), Some(0.5));
        // Beyond the last sample's window: the median of all.
        assert!(speed.scale_at(100.0).is_some());
        assert_eq!(HostSpeed::default().scale_at(1.0), None);
    }
}
