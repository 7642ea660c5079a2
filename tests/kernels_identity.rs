//! Property tests pinning the vectorized bound kernels to their scalar
//! twins (DESIGN.md §17).
//!
//! Three layers of identity are asserted, each against randomized data
//! at lane-straddling lengths (`LANES ± 1` and friends) plus the
//! adversarial all-inside / all-outside envelope regimes:
//!
//! * **`chunked` vs `seq` outcome equivalence** — the chunked canonical
//!   order must dismiss exactly the candidates the historical scalar
//!   loop dismisses, at the same trip position, charging the same step
//!   count (block check + scalar replay, see `rotind_distance::kernels`),
//!   and must agree on completed sums to reassociation rounding.
//! * **`simd` vs `chunked` bit-identity** (compiled only with
//!   `--features simd`) — both express the same canonical order, so
//!   sums, trip positions, and steps match *bitwise*.
//! * **van Herk vs deque bit-identity** — the block sliding-extreme
//!   kernel agrees bit for bit with the monotonic-deque reference.
//! * **band-major vs cell-by-cell DTW bit-identity** — the early-abandoning
//!   DTW leaf agrees with its reference loop on value bits, `None`/`Some`
//!   and steps at every band: on series with NaN or ±∞ samples, which it
//!   hands to that loop, and on finite series, which run its band-major
//!   recurrence without NaN handling (huge samples whose costs overflow
//!   to +∞, subnormals, ±0.0, constant series and exact ties included);
//!   and on finite inputs it agrees bit for bit with the independent
//!   full-matrix `dtw_path`. The brute-force oracles call the same leaf as
//!   the engine, so these are its only independent guards.

use proptest::prelude::*;
use rotind::distance::dtw::{dtw, dtw_early_abandon, dtw_early_abandon_seq, dtw_path, DtwParams};
use rotind::distance::kernels::{self, LANES};
use rotind::envelope::envelope::{
    sliding_max_into, sliding_max_into_seq, sliding_min_into, sliding_min_into_seq, SlidingScratch,
};
use rotind::ts::StepCounter;

/// Lane-straddling lengths: one below, at, and above each chunk and
/// block boundary the canonical schedule cares about.
const SIZES: [usize; 12] = [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200];
const MAX_N: usize = 200;

fn pool() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0f64..10.0, MAX_N)
}

/// Radius selector: 0 → ∞ (full accumulation), 1 → 0.0 (instant
/// dismissal on any positive term), otherwise the drawn finite value.
fn pick_radius(sel: usize, val: f64) -> f64 {
    match sel {
        0 => f64::INFINITY,
        1 => 0.0,
        _ => val,
    }
}

/// Clamp-kernel query for the adversarial regimes: 0 = mixed (the raw
/// draw), 1 = all inside (every term exactly 0.0), 2 = all outside
/// (every term positive).
fn clamp_query(q: &[f64], mid: &[f64], upper: &[f64], mode: usize) -> Vec<f64> {
    match mode {
        1 => mid.to_vec(),
        2 => upper.iter().map(|u| u + 1.0).collect(),
        _ => q.to_vec(),
    }
}

type KernelOut = (Result<f64, usize>, u64);

fn run<F: FnOnce(&mut StepCounter) -> Result<f64, usize>>(f: F) -> KernelOut {
    let mut counter = StepCounter::new();
    let out = f(&mut counter);
    (out, counter.steps())
}

/// `chunked` must agree with `seq` on the dismissal decision, the trip
/// position, and the step count exactly; completed sums agree to
/// reassociation rounding.
fn assert_outcome_equiv(name: &str, seq: KernelOut, chunked: KernelOut) {
    let ((s, s_steps), (c, c_steps)) = (seq, chunked);
    match (s, c) {
        (Ok(a), Ok(b)) => {
            let tol = 1e-9 * (1.0 + a.abs());
            assert!((a - b).abs() <= tol, "{name}: sum {a} vs {b}");
        }
        (Err(i), Err(j)) => assert_eq!(i, j, "{name}: trip position"),
        (a, b) => panic!("{name}: dismissal disagrees: seq {a:?} chunked {b:?}"),
    }
    assert_eq!(s_steps, c_steps, "{name}: steps");
}

/// The simd backend is the same canonical order; everything is bitwise.
#[cfg(feature = "simd")]
fn assert_bit_identical(name: &str, chunked: KernelOut, simd: KernelOut) {
    let ((c, c_steps), (v, v_steps)) = (chunked, simd);
    match (c, v) {
        (Ok(a), Ok(b)) => assert_eq!(a.to_bits(), b.to_bits(), "{name}: {a} vs {b}"),
        (Err(i), Err(j)) => assert_eq!(i, j, "{name}: trip position"),
        (a, b) => panic!("{name}: dismissal disagrees: chunked {a:?} simd {b:?}"),
    }
    assert_eq!(c_steps, v_steps, "{name}: steps");
}

/// A deterministic permutation of `0..n` (any fixed gather order works;
/// the kernels only require a permutation).
fn permutation(n: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.reverse();
    if n > 2 {
        order.swap(0, n / 2);
    }
    order
}

/// DTW lengths: the degenerate single sample, tiny series, and lengths
/// around the lane and block boundaries.
const DTW_SIZES: [usize; 10] = [1, 2, 7, 8, 9, 63, 64, 65, 128, 200];

/// Band selector: 0, 1, 5, the widest band `n − 1`, one past it, and the
/// largest band the wire allows (`u32::MAX`).
fn pick_band(sel: usize, n: usize) -> usize {
    match sel {
        0 => 0,
        1 => 1,
        2 => 5,
        3 => n - 1,
        4 => n,
        _ => u32::MAX as usize,
    }
}

/// Overwrite one or two samples of `xs` with non-finite values: 0–3
/// leave it finite, 4 → NaN, 5 → +∞, 6 → −∞, 7 → NaN and +∞.
fn poison(xs: &mut [f64], mode: usize, at: f64, at2: f64) {
    let n = xs.len();
    let pos = |frac: f64| ((n as f64 * frac) as usize).min(n - 1);
    match mode {
        4 => xs[pos(at)] = f64::NAN,
        5 => xs[pos(at)] = f64::INFINITY,
        6 => xs[pos(at)] = f64::NEG_INFINITY,
        7 => {
            xs[pos(at)] = f64::NAN;
            xs[pos(at2)] = f64::INFINITY;
        }
        _ => {}
    }
}

/// Kinds of finite sample, decoded by [`finite_sample`].
const FINITE_KINDS: u64 = 6;

/// A finite sample of the given kind from random bits (bit 0 is the
/// sign): 0 → |x| < 10; 1 → |x| < 1e300, so a squared difference can
/// overflow to +∞ beside finite cells; 2 → ±`f64::MAX`; 3 → a small
/// integer, so costs and path sums tie exactly; 4 → a subnormal or ±0.0;
/// 5 → ±0.0.
fn finite_sample(kind: u64, bits: u64) -> f64 {
    let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
    let payload = bits >> 11;
    let unit = payload as f64 / (1u64 << 53) as f64;
    sign * match kind {
        0 => 10.0 * unit,
        1 => 1e300 * unit,
        2 => f64::MAX,
        3 => (payload % 3) as f64,
        4 => f64::from_bits(payload & ((1 << 52) - 1)),
        _ => 0.0,
    }
}

/// A finite series of length `n` from random bits. Shape 0 mixes every
/// kind sample by sample, 1 repeats one sample (a constant series), 2 is
/// small integers, 3 subnormals and ±0.0, and 4 huge values only.
fn finite_series(bits: &[u64], shape: usize, n: usize) -> Vec<f64> {
    let mixed = |b: u64| finite_sample((b >> 1) % FINITE_KINDS, b);
    let of_kind = |kind: u64| bits[..n].iter().map(|&b| finite_sample(kind, b)).collect();
    match shape {
        0 => bits[..n].iter().map(|&b| mixed(b)).collect(),
        1 => vec![mixed(bits[0]); n],
        2 => of_kind(3),
        3 => of_kind(4),
        _ => of_kind(1),
    }
}

/// An early-abandoning DTW outcome: the value's bits (`None` when the
/// call abandoned) and the steps charged.
fn dtw_run(f: impl FnOnce(&mut StepCounter) -> Option<f64>) -> (Option<u64>, u64) {
    let mut counter = StepCounter::new();
    let out = f(&mut counter).map(f64::to_bits);
    (out, counter.steps())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn euclid_chunked_matches_seq(
        a_pool in pool(),
        b_pool in pool(),
        size_idx in 0usize..SIZES.len(),
        r_sel in 0usize..4,
        r_val in 0.0f64..40.0,
    ) {
        let n = SIZES[size_idx];
        let (a, b) = (&a_pool[..n], &b_pool[..n]);
        let r = pick_radius(r_sel, r_val);
        let seq = run(|c| kernels::seq::sq_dist_abandon(a, b, r, c));
        let chunked = run(|c| kernels::chunked::sq_dist_abandon(a, b, r, c));
        assert_outcome_equiv("euclid", seq, chunked);
        #[cfg(feature = "simd")]
        assert_bit_identical(
            "euclid",
            chunked,
            run(|c| kernels::simd::sq_dist_abandon(a, b, r, c)),
        );
    }

    #[test]
    fn split_euclid_chunked_matches_seq(
        a_pool in pool(),
        b_pool in pool(),
        size_idx in 0usize..SIZES.len(),
        shift_frac in 0.0f64..1.0,
        r_sel in 0usize..4,
        r_val in 0.0f64..40.0,
    ) {
        let n = SIZES[size_idx];
        let (a, base) = (&a_pool[..n], &b_pool[..n]);
        let r = pick_radius(r_sel, r_val);
        let shift = ((n as f64 * shift_frac) as usize).min(n.saturating_sub(1));
        let (head, tail) = base.split_at(shift);
        let seq = run(|c| kernels::seq::sq_dist_abandon_split(a, tail, head, r, c));
        let chunked = run(|c| kernels::chunked::sq_dist_abandon_split(a, tail, head, r, c));
        assert_outcome_equiv("split", seq, chunked);
        #[cfg(feature = "simd")]
        assert_bit_identical(
            "split",
            chunked,
            run(|c| kernels::simd::sq_dist_abandon_split(a, tail, head, r, c)),
        );
    }

    #[test]
    fn clamp_chunked_matches_seq(
        q_pool in pool(),
        mid_pool in pool(),
        size_idx in 0usize..SIZES.len(),
        mode in 0usize..3,
        r_sel in 0usize..4,
        r_val in 0.0f64..40.0,
    ) {
        let n = SIZES[size_idx];
        let mid = &mid_pool[..n];
        let upper: Vec<f64> = mid.iter().map(|x| x + 0.5).collect();
        let lower: Vec<f64> = mid.iter().map(|x| x - 0.5).collect();
        let q = clamp_query(&q_pool[..n], mid, &upper, mode);
        let r = pick_radius(r_sel, r_val);
        let seq = run(|c| kernels::seq::clamp_sq_abandon(&q, &upper, &lower, r, c));
        let chunked = run(|c| kernels::chunked::clamp_sq_abandon(&q, &upper, &lower, r, c));
        assert_outcome_equiv("clamp", seq, chunked);
        // All-inside inputs sum to exactly 0.0 in every backend: each
        // term is 0.0 and float zero-sums are association-free.
        if mode == 1 {
            prop_assert_eq!(chunked.0.map(f64::to_bits), Ok(0.0f64.to_bits()));
        }
        #[cfg(feature = "simd")]
        assert_bit_identical(
            "clamp",
            chunked,
            run(|c| kernels::simd::clamp_sq_abandon(&q, &upper, &lower, r, c)),
        );
    }

    #[test]
    fn ordered_clamp_chunked_matches_seq(
        q_pool in pool(),
        mid_pool in pool(),
        size_idx in 0usize..SIZES.len(),
        mode in 0usize..3,
        r_sel in 0usize..4,
        r_val in 0.0f64..40.0,
    ) {
        let n = SIZES[size_idx];
        let mid = &mid_pool[..n];
        let upper: Vec<f64> = mid.iter().map(|x| x + 0.5).collect();
        let lower: Vec<f64> = mid.iter().map(|x| x - 0.5).collect();
        let q = clamp_query(&q_pool[..n], mid, &upper, mode);
        let r = pick_radius(r_sel, r_val);
        let order = permutation(n);
        let seq =
            run(|c| kernels::seq::clamp_sq_abandon_ordered(&q, &upper, &lower, &order, r, c));
        let chunked =
            run(|c| kernels::chunked::clamp_sq_abandon_ordered(&q, &upper, &lower, &order, r, c));
        assert_outcome_equiv("ordered", seq, chunked);
        #[cfg(feature = "simd")]
        assert_bit_identical(
            "ordered",
            chunked,
            run(|c| kernels::simd::clamp_sq_abandon_ordered(&q, &upper, &lower, &order, r, c)),
        );
    }

    #[test]
    fn interval_gap_chunked_matches_seq(
        q_pool in pool(),
        mid_pool in pool(),
        size_idx in 0usize..SIZES.len(),
        mode in 0usize..3,
        init in 0.0f64..5.0,
        r_sel in 0usize..4,
        r_val in 0.0f64..40.0,
    ) {
        // Reuse the clamp setup: `q ± 0.25` plays the projection
        // envelope, overlapping the wedge envelope in all three regimes.
        let n = SIZES[size_idx];
        let mid = &mid_pool[..n];
        let upper: Vec<f64> = mid.iter().map(|x| x + 0.5).collect();
        let lower: Vec<f64> = mid.iter().map(|x| x - 0.5).collect();
        let q = clamp_query(&q_pool[..n], mid, &upper, mode);
        let proj_up: Vec<f64> = q.iter().map(|x| x + 0.25).collect();
        let proj_lo: Vec<f64> = q.iter().map(|x| x - 0.25).collect();
        let r = pick_radius(r_sel, r_val);
        let seq = run(|c| {
            kernels::seq::interval_gap_sq_abandon(init, &upper, &lower, &proj_up, &proj_lo, r, c)
        });
        let chunked = run(|c| {
            kernels::chunked::interval_gap_sq_abandon(init, &upper, &lower, &proj_up, &proj_lo, r, c)
        });
        assert_outcome_equiv("interval_gap", seq, chunked);
        #[cfg(feature = "simd")]
        assert_bit_identical(
            "interval_gap",
            chunked,
            run(|c| {
                kernels::simd::interval_gap_sq_abandon(
                    init, &upper, &lower, &proj_up, &proj_lo, r, c,
                )
            }),
        );
    }

    #[test]
    fn van_herk_sliding_matches_deque_bitwise(
        xs_pool in pool(),
        size_idx in 0usize..SIZES.len(),
        r in 0usize..70,
    ) {
        let xs = &xs_pool[..SIZES[size_idx]];
        let mut scratch = SlidingScratch::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        sliding_max_into(xs, r, &mut scratch, &mut a);
        sliding_max_into_seq(xs, r, &mut scratch, &mut b);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&a), bits(&b), "sliding max, r = {}", r);
        sliding_min_into(xs, r, &mut scratch, &mut a);
        sliding_min_into_seq(xs, r, &mut scratch, &mut b);
        prop_assert_eq!(bits(&a), bits(&b), "sliding min, r = {}", r);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The early-abandoning DTW returns the reference loop's value bits,
    /// `None`/`Some` and steps, at every length, band and radius —
    /// radii at, and one rounding step below, the exact distance included
    /// — with NaN and ±∞ samples in either series. Removing its finiteness
    /// dispatch fails this test: the band-major recurrence drops NaN
    /// handling.
    #[test]
    fn dtw_band_major_matches_seq_bitwise(
        q_pool in pool(),
        c_pool in pool(),
        size_idx in 0usize..DTW_SIZES.len(),
        band_sel in 0usize..6,
        r_sel in 0usize..5,
        r_val in 0.0f64..60.0,
        mode in 0usize..8,
        poison_query in 0usize..2,
        at in 0.0f64..1.0,
        at2 in 0.0f64..1.0,
    ) {
        let n = DTW_SIZES[size_idx];
        let params = DtwParams::new(pick_band(band_sel, n));
        let (mut q, mut c) = (q_pool[..n].to_vec(), c_pool[..n].to_vec());
        poison(if poison_query == 1 { &mut q } else { &mut c }, mode, at, at2);
        let exact = dtw_early_abandon_seq(&q, &c, params, f64::INFINITY, &mut StepCounter::new())
            .expect("an infinite radius never abandons");
        let r = match r_sel {
            0 => f64::INFINITY,
            1 => 0.0,
            2 => exact,
            3 => exact * (1.0 - 1e-12),
            _ => r_val,
        };
        let seq = dtw_run(|k| dtw_early_abandon_seq(&q, &c, params, r, k));
        // Leave zero-cost cells of another pair in the thread-local rows:
        // a kernel that reads a stale cell then sees a value below every
        // legitimate predecessor, which changes its answer.
        let zeros = vec![0.0; n];
        dtw_early_abandon(&zeros, &zeros, params, f64::INFINITY, &mut StepCounter::new());
        let band_major = dtw_run(|k| dtw_early_abandon(&q, &c, params, r, k));
        prop_assert_eq!(
            band_major, seq,
            "n = {}, band = {}, r = {}, mode = {}", n, params.band, r, mode
        );
    }

    /// On finite series the band-major recurrence, with its compare-min
    /// and no finiteness select, returns the reference loop's value bits,
    /// `None`/`Some` and steps: at every length, band and radius (NaN
    /// included), with costs that overflow to +∞ next to finite cells,
    /// subnormals, ±0.0, constant series and exact ties, and with
    /// another pair's cells left in the thread-local rows before each call.
    #[test]
    fn dtw_finite_recurrence_matches_seq_bitwise(
        q_bits in prop::collection::vec(0u64..u64::MAX, MAX_N),
        c_bits in prop::collection::vec(0u64..u64::MAX, MAX_N),
        q_shape in 0usize..5,
        c_shape in 0usize..5,
        size_idx in 0usize..DTW_SIZES.len(),
        band_sel in 0usize..6,
        r_sel in 0usize..7,
        r_val in 0.0f64..60.0,
        r_frac in 0.0f64..2.0,
    ) {
        let n = DTW_SIZES[size_idx];
        let params = DtwParams::new(pick_band(band_sel, n));
        let (q, c) = (finite_series(&q_bits, q_shape, n), finite_series(&c_bits, c_shape, n));
        prop_assert!(q.iter().chain(&c).all(|x| x.is_finite()));
        let exact = dtw_early_abandon_seq(&q, &c, params, f64::INFINITY, &mut StepCounter::new())
            .expect("an infinite radius never abandons");
        let r = match r_sel {
            0 => f64::INFINITY,
            1 => 0.0,
            2 => exact,
            3 => exact * (1.0 - 1e-12),
            4 => r_val,
            5 => exact * r_frac,
            _ => f64::NAN,
        };
        // Zero-cost cells of another pair: a stale read sees a value
        // below every legitimate predecessor.
        let zeros = vec![0.0; n];
        let dirty = || dtw_early_abandon(&zeros, &zeros, params, f64::INFINITY, &mut StepCounter::new());
        dirty();
        let seq = dtw_run(|k| dtw_early_abandon_seq(&q, &c, params, r, k));
        dirty();
        let band_major = dtw_run(|k| dtw_early_abandon(&q, &c, params, r, k));
        prop_assert_eq!(
            band_major, seq,
            "n = {}, band = {}, r = {}, shapes = {}/{}", n, params.band, r, q_shape, c_shape
        );
    }

    /// On finite inputs the rolling-row DTW equals the independent
    /// full-matrix `dtw_path` bit for bit.
    #[test]
    fn dtw_equals_full_matrix_path_bitwise(
        q_pool in pool(),
        c_pool in pool(),
        size_idx in 0usize..DTW_SIZES.len(),
        band_sel in 0usize..6,
    ) {
        let n = DTW_SIZES[size_idx];
        let params = DtwParams::new(pick_band(band_sel, n));
        let (q, c) = (&q_pool[..n], &c_pool[..n]);
        let rolling = dtw(q, c, params, &mut StepCounter::new());
        let (full, _) = dtw_path(q, c, params);
        prop_assert_eq!(rolling.to_bits(), full.to_bits(), "n = {}, band = {}", n, params.band);
    }
}

/// The engine alias must resolve to the canonical-order backend the
/// build selected: its results are bitwise those of `chunked` whether
/// or not the `simd` feature is on.
#[test]
fn engine_is_bitwise_chunked() {
    let n = 3 * LANES + 5;
    let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).sin() * 4.0).collect();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).cos() * 4.0).collect();
    for r in [f64::INFINITY, 8.0, 2.0, 0.5] {
        let engine = run(|c| kernels::engine::sq_dist_abandon(&a, &b, r, c));
        let chunked = run(|c| kernels::chunked::sq_dist_abandon(&a, &b, r, c));
        assert_eq!(engine.0.map(f64::to_bits), chunked.0.map(f64::to_bits));
        assert_eq!(engine.1, chunked.1);
    }
}

/// Early-abandon trip-point equivalence, stated directly: on a spike
/// series the chunked kernel abandons at exactly the element the scalar
/// loop abandons at — never earlier (that would charge fewer steps than
/// the scalar engine and skew abandon-depth observability) and never
/// later than the replayed block allows.
#[test]
fn trip_points_match_scalar_at_every_spike_position() {
    let n = 130;
    for spike in [0usize, 1, 7, 8, 9, 31, 32, 63, 64, 65, 127, 128, 129] {
        let mut a = vec![0.0f64; n];
        let b = vec![0.0f64; n];
        a[spike] = 100.0;
        let seq = run(|c| kernels::seq::sq_dist_abandon(&a, &b, 1.0, c));
        let chunked = run(|c| kernels::chunked::sq_dist_abandon(&a, &b, 1.0, c));
        assert_eq!(seq.0, Err(spike + 1));
        assert_eq!(chunked.0, Err(spike + 1), "spike at {spike}");
        assert_eq!(seq.1, chunked.1, "steps at spike {spike}");
    }
}
