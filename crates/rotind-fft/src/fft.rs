//! Iterative radix-2 Cooley–Tukey FFT.
//!
//! In-place, decimation-in-time, with an explicit bit-reversal pass and
//! per-stage twiddle recurrence. `O(n log n)` for power-of-two `n`;
//! arbitrary lengths are handled by [`crate::bluestein`], which reduces to
//! this transform.

use crate::complex::Complex;
use std::f64::consts::TAU;

/// `true` when `n` is a power of two (and nonzero).
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Smallest power of two `>= n`.
pub fn next_power_of_two(n: usize) -> usize {
    n.next_power_of_two()
}

/// In-place radix-2 FFT. `inverse = true` computes the inverse transform
/// *including* the `1/n` normalisation.
///
/// # Panics
///
/// Panics when `data.len()` is not a power of two.
// lint: panic-exempt(documented precondition: the serve path reaches this only through bluestein, which passes power-of-two buffers)
pub fn fft_pow2(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(
        is_power_of_two(n),
        "fft_pow2: length {n} is not a power of two"
    );
    if n == 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            data.swap(i, j);
        }
    }

    // Butterfly stages.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * TAU / len as f64;
        let wlen = Complex::cis(ang);
        for block in data.chunks_exact_mut(len) {
            let (lo, hi) = block.split_at_mut(len / 2);
            let mut w = Complex::ONE;
            for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                let a = *x;
                let b = *y * w;
                *x = a + b;
                *y = a - b;
                w *= wlen;
            }
        }
        len <<= 1;
    }

    if inverse {
        let scale = 1.0 / n as f64;
        for z in data.iter_mut() {
            *z = z.scale(scale);
        }
    }
}

/// Out-of-place forward FFT of a power-of-two-length buffer.
pub fn fft(input: &[Complex]) -> Vec<Complex> {
    let mut buf = input.to_vec();
    fft_pow2(&mut buf, false);
    buf
}

/// Out-of-place inverse FFT (normalised) of a power-of-two-length buffer.
pub fn ifft(input: &[Complex]) -> Vec<Complex> {
    let mut buf = input.to_vec();
    fft_pow2(&mut buf, true);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft, idft};

    fn close(a: &[Complex], b: &[Complex], tol: f64) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| (x.re - y.re).abs() < tol && (x.im - y.im).abs() < tol)
    }

    fn random_signal(n: usize, seed: u64) -> Vec<Complex> {
        // Small deterministic LCG; no RNG dependency needed here.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let re = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let im = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
                Complex::new(re, im)
            })
            .collect()
    }

    #[test]
    fn power_of_two_predicate() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(1024));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(251));
        assert_eq!(next_power_of_two(251), 256);
        assert_eq!(next_power_of_two(256), 256);
    }

    #[test]
    fn matches_reference_dft() {
        for n in [1usize, 2, 4, 8, 16, 64, 128] {
            let x = random_signal(n, n as u64);
            assert!(close(&fft(&x), &dft(&x), 1e-8), "fft != dft at n = {n}");
        }
    }

    #[test]
    fn inverse_matches_reference() {
        let x = random_signal(32, 7);
        assert!(close(&ifft(&x), &idft(&x), 1e-8));
    }

    #[test]
    fn round_trip() {
        for n in [2usize, 16, 256, 1024] {
            let x = random_signal(n, 99 + n as u64);
            let back = ifft(&fft(&x));
            assert!(close(&x, &back, 1e-9), "round trip failed at n = {n}");
        }
    }

    #[test]
    fn linearity() {
        let a = random_signal(64, 1);
        let b = random_signal(64, 2);
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fsum = fft(&sum);
        let expect: Vec<Complex> = fa.iter().zip(&fb).map(|(&x, &y)| x + y).collect();
        assert!(close(&fsum, &expect, 1e-9));
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn rejects_non_power_of_two() {
        let mut x = vec![Complex::ZERO; 6];
        fft_pow2(&mut x, false);
    }

    #[test]
    fn impulse_is_flat() {
        let mut x = vec![Complex::ZERO; 16];
        x[0] = Complex::ONE;
        for z in fft(&x) {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }
}
