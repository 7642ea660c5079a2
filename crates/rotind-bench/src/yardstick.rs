//! The regression gate's yardstick: a fixed unit of work, timed on
//! the gate's own thread between its repeats, that tracks how fast the
//! shared host runs that thread at that moment.
//!
//! Other tenants share the host's cores, and its speed drifts by half
//! again over minutes, longer than a gate run. So `--bin regress` times
//! the yardstick right before and right after each repeat and scales
//! the repeat's wall time by [`NOMINAL_MS`] over the yardstick's mean
//! there: what the repeat would have taken on the host at its nominal
//! speed. Every entry runs on one thread, so the yardstick runs on that
//! same thread: load on another CPU moves the scale only as far as it
//! moves the entry. The yardstick shares no code with the library
//! (banded DTW written here, over fixed data), so a change to the
//! library moves the gate's entries and not the yardstick.

use std::hint::black_box;
use std::time::Instant;

/// The yardstick's time on one thread of the reference host (2-vCPU
/// Xeon VM) in a quiet stretch, ms. Scaled wall times read as on that
/// host.
pub const NOMINAL_MS: f64 = 0.18;

/// Length of the yardstick's series.
const LEN: usize = 128;
/// Its warping band.
const BAND: usize = 5;
/// Series aligned against the first one per sample.
const PAIRS: usize = 32;

/// Banded DTW of one fixed series against 32 others (`PAIRS`).
#[derive(Debug, Clone)]
pub struct Yardstick {
    series: Vec<Vec<f64>>,
    prev: Vec<f64>,
    cur: Vec<f64>,
}

impl Default for Yardstick {
    fn default() -> Self {
        // A fixed linear congruential stream: the same work every run.
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

    /// Sum of the banded DTW distances. Row `i` of the table is the
    /// first `i` samples of `a`; cell 0 of each row is the boundary.
    fn work(&mut self) -> f64 {
        let Some((a, rest)) = self.series.split_first() else {
            return 0.0;
        };
        let a = black_box(a);
        let mut total = 0.0;
        for b in rest {
            self.prev.fill(f64::INFINITY);
            if let Some(origin) = self.prev.first_mut() {
                *origin = 0.0;
            }
            for (i, &x) in (1usize..).zip(a) {
                self.cur.fill(f64::INFINITY);
                for j in i.saturating_sub(BAND).max(1)..=(i + BAND).min(LEN) {
                    // Every index is in 1..=LEN, inside the LEN + 1 rows
                    // and the LEN samples of `b` at j − 1.
                    // rotind-lint: allow(no-index)
                    let d = x - b[j - 1];
                    // rotind-lint: allow(no-index)
                    self.cur[j] = d * d + self.prev[j - 1].min(self.prev[j]).min(self.cur[j - 1]);
                }
                std::mem::swap(&mut self.prev, &mut self.cur);
            }
            total += self.prev.last().copied().unwrap_or(f64::NAN);
        }
        total
    }
}

/// The factor that scales a wall time measured among the yardstick
/// `samples` (ms) to the nominal host: [`NOMINAL_MS`] over their mean,
/// which weighs each stretch of the host's time alike. `None` without a
/// finite positive mean.
pub fn scale(samples: &[f64]) -> Option<f64> {
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    (mean.is_finite() && mean > 0.0).then(|| NOMINAL_MS / mean)
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
    fn scale_is_nominal_over_the_mean() {
        assert_eq!(scale(&[NOMINAL_MS]), Some(1.0));
        // A host at half speed doubles the yardstick: walls halve.
        let slow = 2.0 * NOMINAL_MS;
        let half = scale(&[slow, 0.5 * slow, 1.5 * slow]).unwrap();
        assert!((half - 0.5).abs() < 1e-12, "{half}");
        assert_eq!(scale(&[]), None);
        assert_eq!(scale(&[slow, f64::NAN]), None);
        assert_eq!(scale(&[0.0]), None);
    }
}
