//! The Fourier-magnitude lower bound for rotation-invariant Euclidean
//! distance (Section 4.2 of the paper, citing \[4\] and \[38\]).
//!
//! With the Parseval-normalised spectrum, a circular shift of `C` only
//! rotates the phase of each coefficient, so for every shift `s`:
//!
//! ```text
//! ED²(Q, rot_s(C)) = Σ_k |Q_k − C_k·e^{iθ_k s}|² ≥ Σ_k (|Q_k| − |C_k|)²
//! ```
//!
//! by the reverse triangle inequality per bin. The right-hand side is a
//! plain Euclidean distance between magnitude vectors — a true metric —
//! which makes it usable both as a scan-time filter (the `FFT` baseline
//! of Figures 19/21/22) and as the vantage-point-tree metric of the disk
//! index (Figure 24). Truncating to the first `D` bins drops non-negative
//! terms, so every prefix is still admissible.
//!
//! For real input the spectrum is conjugate-symmetric, `|X_{n−k}| =
//! |X_k|`, so a prefix of `D ≤ ⌈n/2⌉` bins stands for `2D − 1` distinct
//! bins of the sum: the DC bin once, every other bin twice.
//! [`folded_magnitude_features`] scales bins `1..D` by `√2`, so the plain
//! Euclidean distance between two folded vectors is that tighter bound.

use crate::spectrum::{magnitude_features, magnitudes};
use rotind_ts::StepCounter;

/// Euclidean distance between two (possibly truncated) magnitude vectors;
/// an admissible lower bound to the rotation-invariant Euclidean distance
/// between the underlying series. One step is charged per coefficient.
pub fn magnitude_distance(qm: &[f64], cm: &[f64], counter: &mut StepCounter) -> f64 {
    let mut acc = 0.0;
    for (q, c) in qm.iter().zip(cm) {
        let diff = q - c;
        acc += diff * diff;
        counter.tick();
    }
    acc.sqrt()
}

/// The first `d` Parseval-normalised magnitudes of a real series, folded
/// over the conjugate-symmetric half of the spectrum: `d` is clamped to
/// `⌈n/2⌉`, and bins `1..d` are scaled by `√2` because each stands for
/// itself and its mirror bin `n − k` (distinct from every kept bin under
/// that clamp). The Euclidean distance between two folded vectors is the
/// magnitude bound over `2d − 1` bins, still at most the
/// rotation-invariant Euclidean distance. Magnitudes are unchanged by a
/// circular shift and by reversal, so the features are too.
pub fn folded_magnitude_features(xs: &[f64], d: usize) -> Vec<f64> {
    let mut features = magnitude_features(xs, d.min(xs.len().div_ceil(2)));
    for m in features.iter_mut().skip(1) {
        *m *= std::f64::consts::SQRT_2;
    }
    features
}

/// The paper's cost model for one FFT-lower-bound test: `n·log₂(n)` steps
/// (Section 5.3: *"The cost model for the FFT lower bound is nlogn
/// steps"*). Charged by the `FFT` baseline per database item.
pub fn fft_cost_model(n: usize) -> u64 {
    if n <= 1 {
        return 1;
    }
    (n as f64 * (n as f64).log2()).ceil() as u64
}

/// Convenience: the full-spectrum Fourier lower bound between two raw
/// series. Computes both spectra (charging the cost model for each) and
/// returns the magnitude distance.
pub fn fourier_lower_bound(q: &[f64], c: &[f64], counter: &mut StepCounter) -> f64 {
    assert_eq!(q.len(), c.len(), "fourier_lower_bound: length mismatch");
    counter.add(2 * fft_cost_model(q.len()));
    let qm = magnitudes(q);
    let cm = magnitudes(c);
    let mut scratch = StepCounter::new();
    let lb = magnitude_distance(&qm, &cm, &mut scratch);
    // Debug-only soundness check: the bound claims to be below
    // ED(Q, rot_s(C)) for *every* shift s, so in particular the shift-0
    // Euclidean distance — computable right here — must dominate it.
    debug_assert!(
        {
            let ed0 = q
                .iter()
                .zip(c)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            !(lb.is_finite() && ed0.is_finite()) || lb <= ed0 + 1e-6
        },
        "unsound Fourier bound: lb {lb} exceeds the shift-0 distance"
    );
    lb
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotind_ts::rotate::rotated;

    fn euclidean(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    fn min_rotation_ed(q: &[f64], c: &[f64]) -> f64 {
        (0..c.len())
            .map(|s| euclidean(q, &rotated(c, s)))
            .fold(f64::INFINITY, f64::min)
    }

    fn signal(n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|j| (j as f64 * 0.53 + phase).sin() + 0.25 * (j as f64 * 0.19 + phase).cos())
            .collect()
    }

    #[test]
    fn lower_bounds_min_rotation_distance() {
        for n in [8usize, 31, 64, 251] {
            let q = signal(n, 0.2);
            let c = signal(n, 1.9);
            let lb = fourier_lower_bound(&q, &c, &mut StepCounter::new());
            let exact = min_rotation_ed(&q, &c);
            assert!(lb <= exact + 1e-7, "n = {n}: lb {lb} exceeds exact {exact}");
        }
    }

    #[test]
    fn truncated_features_still_lower_bound() {
        let n = 64;
        let q = signal(n, 0.0);
        let c = signal(n, 2.4);
        let exact = min_rotation_ed(&q, &c);
        let mut last = 0.0;
        for d in [1usize, 2, 4, 8, 16, 32, 64] {
            let qm = magnitude_features(&q, d);
            let cm = magnitude_features(&c, d);
            let lb = magnitude_distance(&qm, &cm, &mut StepCounter::new());
            assert!(lb <= exact + 1e-7, "d = {d}");
            assert!(lb + 1e-9 >= last, "prefix bound is monotone in d");
            last = lb;
        }
    }

    #[test]
    fn folded_features_lower_bound_and_tighten_the_prefix() {
        for n in [1usize, 2, 7, 8, 31, 64, 251] {
            let q = signal(n, 0.3);
            let c = signal(n, 2.2);
            let mirrored: Vec<f64> = c.iter().rev().copied().collect();
            let exact = min_rotation_ed(&q, &c).min(min_rotation_ed(&q, &mirrored));
            for d in [1usize, 4, 16, 500] {
                let (qf, cf) = (
                    folded_magnitude_features(&q, d),
                    folded_magnitude_features(&c, d),
                );
                assert_eq!(qf.len(), d.min(n.div_ceil(2)), "n = {n}, d = {d}");
                let folded = magnitude_distance(&qf, &cf, &mut StepCounter::new());
                let plain = magnitude_distance(
                    &magnitude_features(&q, d),
                    &magnitude_features(&c, d),
                    &mut StepCounter::new(),
                );
                assert!(
                    folded <= exact + 1e-7,
                    "n = {n}, d = {d}: {folded} > {exact}"
                );
                if d <= n.div_ceil(2) {
                    assert!(folded + 1e-9 >= plain, "n = {n}, d = {d}: fold loosened");
                }
            }
        }
    }

    #[test]
    fn folded_features_ignore_rotation_and_reversal() {
        let c = signal(45, 0.7);
        let base = folded_magnitude_features(&c, 16);
        let reversed: Vec<f64> = c.iter().rev().copied().collect();
        for other in [rotated(&c, 11), reversed] {
            let f = folded_magnitude_features(&other, 16);
            for (a, b) in base.iter().zip(&f) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn zero_for_pure_rotations() {
        let c = signal(40, 0.0);
        let q = rotated(&c, 13);
        let lb = fourier_lower_bound(&q, &c, &mut StepCounter::new());
        assert!(lb < 1e-9, "rotations share magnitudes exactly");
    }

    #[test]
    fn magnitude_distance_is_a_metric_sample() {
        // Triangle inequality spot check on feature vectors.
        let a = magnitude_features(&signal(32, 0.1), 8);
        let b = magnitude_features(&signal(32, 1.1), 8);
        let c = magnitude_features(&signal(32, 2.1), 8);
        let mut s = StepCounter::new();
        let ab = magnitude_distance(&a, &b, &mut s);
        let bc = magnitude_distance(&b, &c, &mut s);
        let ac = magnitude_distance(&a, &c, &mut s);
        assert!(ac <= ab + bc + 1e-12);
    }

    #[test]
    fn cost_model() {
        assert_eq!(fft_cost_model(1), 1);
        assert_eq!(fft_cost_model(1024), 10 * 1024);
        assert!(fft_cost_model(251) >= 251 * 7);
    }

    #[test]
    fn step_accounting() {
        let mut s = StepCounter::new();
        magnitude_distance(&[1.0, 2.0, 3.0], &[1.0, 1.0, 1.0], &mut s);
        assert_eq!(s.steps(), 3);
        let mut s2 = StepCounter::new();
        fourier_lower_bound(&signal(64, 0.0), &signal(64, 1.0), &mut s2);
        assert_eq!(s2.steps(), 2 * fft_cost_model(64));
    }
}
