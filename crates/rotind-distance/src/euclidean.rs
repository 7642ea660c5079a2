//! Euclidean distance, plain and early-abandoning (Table 1 of the paper).
//!
//! The accumulation itself lives in [`crate::kernels`] (the lane-parallel
//! canonical order shared with the `LB_Keogh` bound kernels); this module
//! keeps the paper-facing API and its dismissal semantics.

use crate::kernels;
use rotind_ts::StepCounter;

/// Squared Euclidean distance `Σ (qᵢ − cᵢ)²`, accumulated in the
/// canonical lane-parallel order of [`crate::kernels`].
///
/// # Panics
///
/// Panics when the slices differ in length; engine code validates lengths
/// once at the API boundary so the hot path never re-checks.
#[inline]
pub fn squared_euclidean(q: &[f64], c: &[f64]) -> f64 {
    let mut scratch = StepCounter::new();
    kernels::chunked::sq_dist_abandon(q, c, f64::INFINITY, &mut scratch)
        // Invariant: `acc > r²` is unsatisfiable for r = ∞, so the
        // early-abandon path cannot return Err.
        // rotind-lint: allow(no-panic)
        .expect("infinite radius never abandons")
}

/// Euclidean distance `√Σ (qᵢ − cᵢ)²` (the paper's `ED(Q, C)`).
#[inline]
pub fn euclidean(q: &[f64], c: &[f64]) -> f64 {
    squared_euclidean(q, c).sqrt()
}

/// Early-abandoning Euclidean distance — `EA_Euclidean_Dist` of Table 1.
///
/// Accumulates squared differences, charging one step to `counter` per
/// term; as soon as the accumulator exceeds `r²` the computation abandons
/// and `None` is returned (the paper returns `infinity`), secure in the
/// knowledge that the true distance would exceed `r` (Definition 1).
///
/// Dismissal is *strict in reported-distance space*: `None` is returned
/// only when the value this function would have reported provably
/// exceeds `r`. The cheap squared-space test (`acc > r²`) triggers the
/// abandon, but because `fl(r·r)` can round below the accumulator of a
/// distance that equals `r` exactly as a float, the boundary is settled
/// by `√acc > r` — the square root is only evaluated on the abandon
/// path, and correctly-rounded `sqrt` is monotone, so a prefix already
/// farther than `r` proves the full distance is too. A candidate at
/// exactly distance `r` is therefore never dismissed.
///
/// With `r = f64::INFINITY` this computes the exact distance (never
/// abandons), matching the brute-force invocation of Table 2.
///
/// The sum runs in the canonical lane-parallel order with block-granular
/// abandon checks (see [`crate::kernels`]); dismissal stays strict and a
/// tripped block is replayed per element, so observed trip positions and
/// step counts match the historical scalar loop.
// lint: panic-exempt(length equality is validated at snapshot admission; the kernel asserts the contract)
pub fn euclidean_early_abandon(
    q: &[f64],
    c: &[f64],
    r: f64,
    counter: &mut StepCounter,
) -> Option<f64> {
    kernels::chunked::sq_dist_abandon(q, c, r, counter)
        .ok()
        .map(f64::sqrt)
}

/// Early-abandoning Euclidean distance against a rotated view, avoiding
/// materialization of the rotation. `candidate` is compared against
/// `base` circularly shifted by `shift` (row `shift` of the paper's matrix
/// **C**). The boundary semantics match [`euclidean_early_abandon`]:
/// dismissal is strict in reported-distance space.
// lint: panic-exempt(length equality is validated at snapshot admission; the kernel asserts the contract)
pub fn euclidean_early_abandon_rotated(
    candidate: &[f64],
    base: &[f64],
    shift: usize,
    r: f64,
    counter: &mut StepCounter,
) -> Option<f64> {
    let n = base.len();
    assert_eq!(
        candidate.len(),
        n,
        "euclidean_early_abandon_rotated: length mismatch"
    );
    let shift = shift % n.max(1);
    // Two contiguous runs instead of a modulo per element; the split
    // kernel walks the logical rotation `tail ++ head` on the same chunk
    // grid as a materialised rotation, so sums, trip positions and step
    // counts are bit-identical to [`euclidean_early_abandon`] on the
    // materialised series.
    let (head, tail) = base.split_at(shift);
    kernels::chunked::sq_dist_abandon_split(candidate, tail, head, r, counter)
        .ok()
        .map(f64::sqrt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotind_ts::rotate::rotated;

    #[test]
    fn plain_euclidean() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(squared_euclidean(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn panics_on_length_mismatch() {
        euclidean(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn early_abandon_exact_when_r_infinite() {
        let q = [1.0, 2.0, 3.0, 4.0];
        let c = [4.0, 3.0, 2.0, 1.0];
        let mut steps = StepCounter::new();
        let d = euclidean_early_abandon(&q, &c, f64::INFINITY, &mut steps).unwrap();
        assert!((d - euclidean(&q, &c)).abs() < 1e-12);
        assert_eq!(steps.steps(), 4, "one step per sample");
    }

    #[test]
    fn early_abandon_saves_steps() {
        let q = [100.0, 0.0, 0.0, 0.0, 0.0];
        let c = [0.0; 5];
        let mut steps = StepCounter::new();
        assert!(euclidean_early_abandon(&q, &c, 1.0, &mut steps).is_none());
        assert_eq!(steps.steps(), 1, "abandons after the first sample");
    }

    #[test]
    fn early_abandon_boundary_not_abandoned() {
        // acc == r² must NOT abandon (paper: abandon when acc > r²).
        let q = [3.0];
        let c = [0.0];
        let mut steps = StepCounter::new();
        let d = euclidean_early_abandon(&q, &c, 3.0, &mut steps).unwrap();
        assert_eq!(d, 3.0);
    }

    #[test]
    fn rotated_variant_matches_materialized() {
        let base: Vec<f64> = (0..13).map(|i| ((i * i) % 7) as f64).collect();
        let candidate: Vec<f64> = (0..13).map(|i| (i as f64 * 0.7).cos()).collect();
        for shift in 0..13 {
            let mut s1 = StepCounter::new();
            let mut s2 = StepCounter::new();
            let rot = rotated(&base, shift);
            let expect = euclidean_early_abandon(&candidate, &rot, f64::INFINITY, &mut s1);
            let got =
                euclidean_early_abandon_rotated(&candidate, &base, shift, f64::INFINITY, &mut s2);
            assert_eq!(expect.is_some(), got.is_some());
            assert!(
                (expect.unwrap() - got.unwrap()).abs() < 1e-12,
                "shift {shift}"
            );
            assert_eq!(s1.steps(), s2.steps());
        }
    }

    #[test]
    fn rotated_variant_abandons_identically() {
        let base: Vec<f64> = (0..16).map(|i| (i as f64).sin() * 3.0).collect();
        let candidate: Vec<f64> = (0..16).map(|i| (i as f64).cos() * 3.0).collect();
        for shift in 0..16 {
            for r in [0.5, 2.0, 8.0] {
                let mut s1 = StepCounter::new();
                let mut s2 = StepCounter::new();
                let rot = rotated(&base, shift);
                let a = euclidean_early_abandon(&candidate, &rot, r, &mut s1);
                let b = euclidean_early_abandon_rotated(&candidate, &base, shift, r, &mut s2);
                assert_eq!(a.is_some(), b.is_some(), "shift {shift} r {r}");
                assert_eq!(s1.steps(), s2.steps(), "shift {shift} r {r}");
            }
        }
    }
}
