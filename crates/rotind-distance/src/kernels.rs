//! Lane-parallel accumulation kernels shared by the hot bound loops.
//!
//! Every inner loop the scan profile is dominated by — early-abandoning
//! Euclidean distance and the `LB_Keogh` envelope clamp (`c < L[i]` /
//! `U[i] < c` squared-error sum) — is the same shape: a sum of
//! non-negative squared terms with a strict two-stage dismissal test
//! (`acc > r²` **and** `√acc > r`). This module implements that shape
//! once, in two interchangeable backends:
//!
//! * [`seq`] — the historical per-element scalar kernels, kept as the
//!   benchmark baseline and as the reference for early-abandon trip
//!   points;
//! * [`chunked`] — the **canonical** accumulation order (see below) in
//!   plain autovectorization-friendly Rust: the path the engine runs.
//!
//! # The canonical accumulation order
//!
//! A sequential `acc += term` chain serialises one add per element
//! (~4 cycles of FP-add latency each) and cannot go lane-parallel.
//! Instead, terms are accumulated into [`LANES`] independent lane sums
//! (`lane[j] += term[8k + j]`), block by block, and each completed block
//! is folded into the running scalar accumulator with a fixed-shape tree
//! reduction. The block schedule ramps — 8, 8, 16, 32 elements, then 64
//! repeating — so the dismissal test still fires within the first few
//! terms on wildly-distant candidates (where early abandoning earns the
//! most) while long admits run at full vector throughput. The trailing
//! `len % 8` elements are accumulated sequentially. This order is a
//! *definition*, not an optimisation detail: [`chunked`] implements
//! exactly this association, so its sums do not depend on how the
//! compiler maps the lanes onto vector registers.
//!
//! # Early abandoning: block check + scalar replay
//!
//! The dismissal test runs once per block on the would-be accumulator
//! `acc + block_sum`. Soundness is unconditional: terms are
//! non-negative, float addition of non-negatives is monotone, and `sqrt`
//! is correctly rounded, so a partial canonical sum already above `r`
//! proves the completed bound is too — the strict two-stage form is
//! evaluated exactly as in the scalar engine. When a block trips, the
//! block is *replayed* element-by-element from the pre-block accumulator
//! with the legacy per-element test, which recovers the historical trip
//! position (and therefore the historical step count) for observability:
//! abandon-depth histograms and the committed step baselines stay
//! comparable across engines. If the replay does not trip (possible only
//! when reassociation rounding puts the block sum a few ulps above the
//! sequential one), the scan simply continues canonically — the charged
//! steps are exactly the elements consumed either way.

use rotind_ts::StepCounter;

/// Lane count of the canonical accumulation order. Eight f64 lanes fill
/// an AVX-512 register, two AVX2 registers, or four SSE2 registers; the
/// chunked backend leaves the mapping to the autovectoriser.
pub const LANES: usize = 8;

/// Block schedule of the canonical order, in chunks of [`LANES`]: the
/// `step`-th dismissal check covers this many chunks. Ramped so cheap
/// prunes abandon within 8–16 elements while long admits amortise the
/// check to one test per 64 elements.
#[inline(always)]
fn block_chunks(step: usize) -> usize {
    match step {
        0 | 1 => 1,
        2 => 2,
        3 => 4,
        _ => 8,
    }
}

/// The fixed tree reduction folding the lane sums into a scalar:
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`. Part of the canonical-order
/// definition.
#[inline(always)]
fn tree8(l: [f64; LANES]) -> f64 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// The strict two-stage dismissal test (see `euclidean_early_abandon`
/// for the boundary argument): `acc > r²` triggers, `√acc > r` settles,
/// so a value at exactly `r` is never dismissed.
#[inline(always)]
fn trips(acc: f64, r2: f64, r: f64) -> bool {
    acc > r2 && acc.sqrt() > r
}

/// Envelope clamp gap: how far `x` falls outside `[l, u]` (0 inside).
/// Branch-free so a lane of gaps compiles to vector max; for `x > u` the
/// value is `x − u` and for `x < l` it is `l − x`, whose square is
/// bit-identical to the legacy `(x − l)²` form.
#[inline(always)]
fn gap(x: f64, u: f64, l: f64) -> f64 {
    (x - u).max(l - x).max(0.0)
}

/// A stream of non-negative squared terms to accumulate. `chunk` must
/// write the [`LANES`] terms starting at `start` (callers guarantee
/// `start + LANES <= len`); `at` is the scalar form used for the
/// remainder tail and for trip-point replay.
trait Terms {
    fn len(&self) -> usize;
    fn at(&self, i: usize) -> f64;
    fn chunk(&self, start: usize, out: &mut [f64; LANES]);
}

/// Squared Euclidean terms `(a_i − b_i)²`.
struct EuclidTerms<'a> {
    a: &'a [f64],
    b: &'a [f64],
}

impl Terms for EuclidTerms<'_> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.a.len()
    }

    // lint: panic-exempt(i < len is the trait contract; slices are length-checked by the public kernels)
    #[inline(always)]
    fn at(&self, i: usize) -> f64 {
        let d = self.a[i] - self.b[i];
        d * d
    }

    // lint: panic-exempt(start + LANES <= len is the trait contract; the range checks vanish after inlining)
    #[inline(always)]
    fn chunk(&self, start: usize, out: &mut [f64; LANES]) {
        let a = &self.a[start..start + LANES];
        let b = &self.b[start..start + LANES];
        for j in 0..LANES {
            let d = a[j] - b[j];
            out[j] = d * d;
        }
    }
}

/// Squared Euclidean terms against a logically-concatenated `first ++
/// second` right-hand side — the rotated-view comparison, where the base
/// series is split at the shift and the chunk grid must stay aligned to
/// the *logical* element order so the sum is bit-identical to a
/// materialised rotation.
struct SplitEuclidTerms<'a> {
    a: &'a [f64],
    first: &'a [f64],
    second: &'a [f64],
}

impl SplitEuclidTerms<'_> {
    #[inline(always)]
    // lint: panic-exempt(i < len is the trait contract and len == first.len() + second.len())
    fn rhs(&self, i: usize) -> f64 {
        if i < self.first.len() {
            self.first[i]
        } else {
            self.second[i - self.first.len()]
        }
    }
}

impl Terms for SplitEuclidTerms<'_> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.a.len()
    }

    // lint: panic-exempt(i < len is the trait contract; slices are length-checked by the public kernels)
    #[inline(always)]
    fn at(&self, i: usize) -> f64 {
        let d = self.a[i] - self.rhs(i);
        d * d
    }

    // lint: panic-exempt(start + LANES <= len is the trait contract; the range checks vanish after inlining)
    #[inline(always)]
    fn chunk(&self, start: usize, out: &mut [f64; LANES]) {
        // Stage the right-hand chunk contiguously; at most one chunk per
        // call straddles the seam, the rest are straight copies.
        let mut b = [0.0f64; LANES];
        if start + LANES <= self.first.len() {
            b.copy_from_slice(&self.first[start..start + LANES]);
        } else if start >= self.first.len() {
            let s = start - self.first.len();
            b.copy_from_slice(&self.second[s..s + LANES]);
        } else {
            let head = self.first.len() - start;
            b[..head].copy_from_slice(&self.first[start..]);
            b[head..].copy_from_slice(&self.second[..LANES - head]);
        }
        let a = &self.a[start..start + LANES];
        for j in 0..LANES {
            let d = a[j] - b[j];
            out[j] = d * d;
        }
    }
}

/// `LB_Keogh` clamp terms: squared distance of `q_i` outside `[L_i, U_i]`.
struct ClampTerms<'a> {
    q: &'a [f64],
    upper: &'a [f64],
    lower: &'a [f64],
}

impl Terms for ClampTerms<'_> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.q.len()
    }

    // lint: panic-exempt(i < len is the trait contract; slices are length-checked by the public kernels)
    #[inline(always)]
    fn at(&self, i: usize) -> f64 {
        let d = gap(self.q[i], self.upper[i], self.lower[i]);
        d * d
    }

    // lint: panic-exempt(start + LANES <= len is the trait contract; the range checks vanish after inlining)
    #[inline(always)]
    fn chunk(&self, start: usize, out: &mut [f64; LANES]) {
        let q = &self.q[start..start + LANES];
        let u = &self.upper[start..start + LANES];
        let l = &self.lower[start..start + LANES];
        for j in 0..LANES {
            let d = gap(q[j], u[j], l[j]);
            out[j] = d * d;
        }
    }
}

/// Per-element pass over `count` terms starting at `start`, resuming
/// from `acc`, with the legacy tick-and-test per element. Serves both
/// the remainder tail (where it *is* the canonical order) and trip-point
/// replay of an abandoned block.
fn scan_elements<T: Terms>(
    src: &T,
    start: usize,
    count: usize,
    mut acc: f64,
    r2: f64,
    r: f64,
    counter: &mut StepCounter,
) -> Result<f64, usize> {
    for i in start..start + count {
        counter.tick();
        acc += src.at(i);
        if trips(acc, r2, r) {
            return Err(i + 1);
        }
    }
    Ok(acc)
}

/// The [`seq`] accumulation: one tick-and-test per element, in index
/// order.
fn scan_seq<T: Terms>(src: &T, r: f64, counter: &mut StepCounter) -> Result<f64, usize> {
    scan_elements(src, 0, src.len(), 0.0, r * r, r, counter)
}

/// The chunked canonical driver: lane accumulators per block, tree
/// reduction, block-granular dismissal with per-element replay.
fn accumulate<T: Terms>(src: &T, r: f64, counter: &mut StepCounter) -> Result<f64, usize> {
    let n = src.len();
    let r2 = r * r;
    let chunks = n / LANES;
    let mut acc = 0.0;
    let mut chunk = 0usize;
    let mut sched = 0usize;
    let mut t = [0.0f64; LANES];
    while chunk < chunks {
        let blk = block_chunks(sched).min(chunks - chunk);
        sched += 1;
        let mut lane = [0.0f64; LANES];
        for k in chunk..chunk + blk {
            src.chunk(k * LANES, &mut t);
            for j in 0..LANES {
                lane[j] += t[j];
            }
        }
        let cand = acc + tree8(lane);
        if trips(cand, r2, r) {
            // Sound regardless of where (or whether) the replay trips:
            // the canonical total can only grow from `cand`. The replay
            // ticks exactly the elements it consumes, preserving the
            // legacy step accounting.
            scan_elements(src, chunk * LANES, blk * LANES, acc, r2, r, counter)?;
        } else {
            counter.add((blk * LANES) as u64);
        }
        acc = cand;
        chunk += blk;
    }
    scan_elements(src, chunks * LANES, n - chunks * LANES, acc, r2, r, counter)
}

/// Validate the slice lengths the kernels rely on (once, at the public
/// entry; the per-chunk slicing inside the term sources is then
/// statically in range).
macro_rules! check_len {
    ($n:expr, $($s:expr),+ $(,)?) => {
        $(assert_eq!($s.len(), $n, "kernel: length mismatch");)+
    };
}

macro_rules! backend {
    ($name:ident, $call:ident) => {
        /// One backend of the three accumulation kernels. Both backends share
        /// signatures and semantics; see the module docs for which order each
        /// implements.
        pub mod $name {
            use super::*;

            /// Squared Euclidean sum with strict two-stage early abandoning:
            /// `Ok(Σ (a_i − b_i)²)`, or `Err(k)` after consuming `k` terms once
            /// the partial sum provably exceeds `r`. Charges one step per
            /// consumed element.
            // lint: panic-exempt(length equality is validated here once; the kernel body is then in range)
            pub fn sq_dist_abandon(
                a: &[f64],
                b: &[f64],
                r: f64,
                counter: &mut StepCounter,
            ) -> Result<f64, usize> {
                check_len!(a.len(), b);
                $call(&EuclidTerms { a, b }, r, counter)
            }

            /// [`sq_dist_abandon`] against the logical concatenation
            /// `first ++ second` (a circularly-rotated view split at the
            /// shift), bit-identical to materialising the rotation first.
            // lint: panic-exempt(length equality is validated here once; the kernel body is then in range)
            pub fn sq_dist_abandon_split(
                a: &[f64],
                first: &[f64],
                second: &[f64],
                r: f64,
                counter: &mut StepCounter,
            ) -> Result<f64, usize> {
                assert_eq!(
                    a.len(),
                    first.len() + second.len(),
                    "kernel: length mismatch"
                );
                $call(&SplitEuclidTerms { a, first, second }, r, counter)
            }

            /// `LB_Keogh` accumulation: squared clamp gaps of `q` outside
            /// `[lower, upper]`, early abandoning as [`sq_dist_abandon`].
            // lint: panic-exempt(length equality is validated here once; the kernel body is then in range)
            pub fn clamp_sq_abandon(
                q: &[f64],
                upper: &[f64],
                lower: &[f64],
                r: f64,
                counter: &mut StepCounter,
            ) -> Result<f64, usize> {
                check_len!(q.len(), upper, lower);
                $call(&ClampTerms { q, upper, lower }, r, counter)
            }
        }
    };
}

backend!(seq, scan_seq);
backend!(chunked, accumulate);

#[cfg(test)]
mod tests {
    use super::*;

    fn steps() -> StepCounter {
        StepCounter::new()
    }

    fn series(n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37 + phase).sin() + 0.4 * (i as f64 * 0.91).cos())
            .collect()
    }

    fn envelope(n: usize) -> (Vec<f64>, Vec<f64>) {
        let mid = series(n, 1.3);
        let upper: Vec<f64> = mid.iter().map(|x| x + 0.25).collect();
        let lower: Vec<f64> = mid.iter().map(|x| x - 0.25).collect();
        (upper, lower)
    }

    #[test]
    fn chunked_matches_seq_values_on_completion() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 200, 251, 256] {
            let a = series(n, 0.0);
            let b = series(n, 2.2);
            let s = seq::sq_dist_abandon(&a, &b, f64::INFINITY, &mut steps()).unwrap();
            let c = chunked::sq_dist_abandon(&a, &b, f64::INFINITY, &mut steps()).unwrap();
            let rel = if s == 0.0 {
                c.abs()
            } else {
                ((s - c) / s).abs()
            };
            assert!(rel < 1e-12, "n={n}: seq {s} vs chunked {c}");
        }
    }

    #[test]
    fn completed_scans_charge_one_step_per_element() {
        for n in [0usize, 5, 8, 40, 64, 100, 251] {
            let a = series(n, 0.0);
            let b = series(n, 0.4);
            for f in [seq::sq_dist_abandon, chunked::sq_dist_abandon] {
                let mut s = steps();
                f(&a, &b, f64::INFINITY, &mut s).unwrap();
                assert_eq!(s.steps(), n as u64, "n={n}");
            }
        }
    }

    #[test]
    fn trip_positions_and_steps_match_seq() {
        // A single spike trips the scan right after the spike position in
        // every backend, with the step count equal to the trip position.
        let n = 200;
        for spike in [0usize, 3, 8, 15, 63, 64, 120, 196, 199] {
            let mut a = vec![0.0; n];
            a[spike] = 50.0;
            let b = vec![0.0; n];
            let mut s_seq = steps();
            let p_seq = seq::sq_dist_abandon(&a, &b, 1.0, &mut s_seq).unwrap_err();
            let mut s_chk = steps();
            let p_chk = chunked::sq_dist_abandon(&a, &b, 1.0, &mut s_chk).unwrap_err();
            assert_eq!(p_seq, spike + 1);
            assert_eq!(p_chk, p_seq, "spike at {spike}");
            assert_eq!(s_seq.steps(), p_seq as u64);
            assert_eq!(s_chk.steps(), p_chk as u64, "spike at {spike}");
        }
    }

    #[test]
    fn value_at_exactly_r_is_never_dismissed() {
        // Single exact term: 3² = 9, √9 = 3 with no rounding. The strict
        // two-stage test must admit it in every backend.
        let mut a = vec![0.0; 64];
        a[10] = 3.0;
        let b = vec![0.0; 64];
        for f in [seq::sq_dist_abandon, chunked::sq_dist_abandon] {
            assert_eq!(f(&a, &b, 3.0, &mut steps()), Ok(9.0));
        }
    }

    #[test]
    fn clamp_kernel_matches_branchy_definition() {
        let n = 97;
        let q = series(n, 2.9);
        let (upper, lower) = envelope(n);
        let reference: f64 = (0..n)
            .map(|i| {
                if q[i] > upper[i] {
                    let d = q[i] - upper[i];
                    d * d
                } else if q[i] < lower[i] {
                    let d = q[i] - lower[i];
                    d * d
                } else {
                    0.0
                }
            })
            .sum();
        let s = seq::clamp_sq_abandon(&q, &upper, &lower, f64::INFINITY, &mut steps()).unwrap();
        assert_eq!(s, reference, "seq accumulates the legacy order exactly");
        let c = chunked::clamp_sq_abandon(&q, &upper, &lower, f64::INFINITY, &mut steps()).unwrap();
        assert!(((s - c) / s.max(1e-300)).abs() < 1e-12);
    }

    #[test]
    fn split_kernel_is_bit_identical_to_materialized() {
        let n = 29;
        let a = series(n, 0.7);
        let base = series(n, 1.9);
        for shift in 0..n {
            let rot: Vec<f64> = (0..n).map(|i| base[(i + shift) % n]).collect();
            for r in [f64::INFINITY, 1.0, 0.2] {
                let mut s1 = steps();
                let mut s2 = steps();
                let plain = chunked::sq_dist_abandon(&a, &rot, r, &mut s1);
                let split =
                    chunked::sq_dist_abandon_split(&a, &base[shift..], &base[..shift], r, &mut s2);
                assert_eq!(plain, split, "shift {shift} r {r}");
                assert_eq!(s1.steps(), s2.steps(), "shift {shift} r {r}");
            }
        }
    }
}
