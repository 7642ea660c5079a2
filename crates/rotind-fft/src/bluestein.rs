//! Bluestein's chirp-z algorithm: FFT for arbitrary lengths.
//!
//! The paper's canonical series lengths (251 for projectile points) are
//! not powers of two, so the spectral baselines need an arbitrary-`n`
//! transform. Bluestein rewrites `jk = (j² + k² − (k−j)²)/2`, turning the
//! DFT into a circular convolution of two *chirp* sequences, which is then
//! evaluated with the radix-2 transform at a padded power-of-two length
//! `≥ 2n − 1`.
//!
//! The chirp exponent `π·j²/n` is computed with `j² mod 2n` to keep the
//! angle argument small and the transform accurate for large `n`.

use crate::complex::Complex;
use crate::fft::{fft_pow2, is_power_of_two, next_power_of_two};
use std::f64::consts::PI;

/// Chirp term `e^{−iπ·j²/n}` evaluated stably via `j² mod 2n`.
#[inline]
fn chirp(j: usize, n: usize) -> Complex {
    // j² mod 2n in u128 to avoid overflow for large n (the transform
    // never asks for n = 0, where the remainder would be undefined).
    let m = (2 * n) as u128;
    let sq = (j as u128 * j as u128).checked_rem(m).unwrap_or(0);
    Complex::cis(-PI * sq as f64 / n as f64)
}

/// Forward DFT of arbitrary length via Bluestein (unnormalised,
/// identical convention to [`crate::dft::dft`]).
pub fn bluestein(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return input.to_vec();
    }
    if is_power_of_two(n) {
        let mut buf = input.to_vec();
        fft_pow2(&mut buf, false);
        return buf;
    }

    let m = next_power_of_two(2 * n - 1);

    // a_j = x_j · chirp(j);  b_j = conj(chirp(j)) mirrored for circular
    // convolution.
    let mut a = vec![Complex::ZERO; m];
    let mut b = vec![Complex::ZERO; m];
    for (j, ((a_j, b_j), &x)) in a.iter_mut().zip(b.iter_mut()).zip(input).enumerate() {
        let w = chirp(j, n);
        *a_j = x * w;
        *b_j = w.conj();
    }
    // b[m − j] = b[j] for j in 1..n: the last n − 1 slots, reversed,
    // take b[1..n] (m ≥ 2n − 1 keeps the two ranges apart).
    let (head, tail) = b.split_at_mut(m - n + 1);
    for (dst, src) in tail.iter_mut().rev().zip(head.iter().skip(1)) {
        *dst = *src;
    }

    fft_pow2(&mut a, false);
    fft_pow2(&mut b, false);
    for (x, y) in a.iter_mut().zip(&b) {
        *x *= *y;
    }
    fft_pow2(&mut a, true);

    a.iter()
        .take(n)
        .enumerate()
        .map(|(k, &z)| z * chirp(k, n))
        .collect()
}

/// Inverse DFT of arbitrary length (normalised by `1/n`).
pub fn inverse_bluestein(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    // IDFT(x) = conj(DFT(conj(x))) / n.
    let conj: Vec<Complex> = input.iter().map(|z| z.conj()).collect();
    bluestein(&conj)
        .into_iter()
        .map(|z| z.conj().scale(1.0 / n as f64))
        .collect()
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

    fn signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|j| {
                Complex::new(
                    (j as f64 * 0.7).sin() + 0.2 * j as f64 / n as f64,
                    (j as f64 * 1.3).cos(),
                )
            })
            .collect()
    }

    #[test]
    fn matches_dft_for_awkward_lengths() {
        for n in [2usize, 3, 5, 6, 7, 12, 17, 100, 251] {
            let x = signal(n);
            assert!(
                close(&bluestein(&x), &dft(&x), 1e-7),
                "bluestein != dft at n = {n}"
            );
        }
    }

    #[test]
    fn power_of_two_fast_path() {
        let x = signal(64);
        assert!(close(&bluestein(&x), &dft(&x), 1e-8));
    }

    #[test]
    fn inverse_matches_reference() {
        for n in [3usize, 5, 11, 251] {
            let x = signal(n);
            assert!(
                close(&inverse_bluestein(&x), &idft(&x), 1e-7),
                "inverse failed at n = {n}"
            );
        }
    }

    #[test]
    fn round_trip_arbitrary_n() {
        for n in [3usize, 7, 30, 251, 500] {
            let x = signal(n);
            let back = inverse_bluestein(&bluestein(&x));
            assert!(close(&x, &back, 1e-7), "round trip failed at n = {n}");
        }
    }

    #[test]
    fn degenerate_lengths() {
        assert!(bluestein(&[]).is_empty());
        let one = [Complex::new(2.0, -3.0)];
        assert_eq!(bluestein(&one), one.to_vec());
        assert_eq!(inverse_bluestein(&one), one.to_vec());
    }

    #[test]
    fn parseval_holds_at_251() {
        let x = signal(251);
        let spec = bluestein(&x);
        let time: f64 = x.iter().map(|z| z.norm_sq()).sum();
        let freq: f64 = spec.iter().map(|z| z.norm_sq()).sum::<f64>() / 251.0;
        assert!((time - freq).abs() / time < 1e-9);
    }
}
