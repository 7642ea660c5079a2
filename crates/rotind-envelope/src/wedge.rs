//! The wedge type `W = {U, L}` (Section 4.1, Figure 6).

use crate::envelope::{envelope_of, sliding_max_into, sliding_min_into, SlidingScratch};
use rotind_distance::kernels::LANES;
use rotind_ts::rotate::{Rotation, RotationMatrix};

/// A wedge: the smallest bounding envelope enclosing a set of candidate
/// rotations from above (`upper`) and below (`lower`), together with the
/// rotations it covers.
///
/// The two envelopes live in one packed structure-of-arrays slab —
/// `upper` at offset 0, `lower` at a lane-aligned stride — so the clamp
/// kernels stream both from a single contiguous allocation; the padding
/// between and after them is deterministically zero (which keeps the
/// derived `PartialEq`/`Clone` meaningful).
///
/// ```
/// use rotind_envelope::Wedge;
/// use rotind_ts::rotate::RotationMatrix;
/// let series = [1.0, 5.0, 2.0, 8.0];
/// let matrix = RotationMatrix::full(&series).unwrap();
/// let wedge = Wedge::from_rows(&matrix, &[0, 1]);
/// assert_eq!(wedge.upper(), &[5.0, 5.0, 8.0, 8.0]);
/// assert_eq!(wedge.lower(), &[1.0, 2.0, 2.0, 1.0]);
/// assert!(wedge.contains(&[3.0, 4.0, 5.0, 2.0]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Wedge {
    /// Packed envelope slab of length `2 * stride`, where `stride` is
    /// `n` rounded up to the kernel lane count: `upper` occupies
    /// `[0, n)`, `lower` occupies `[stride, stride + n)`, all padding
    /// is 0.0.
    env: Vec<f64>,
    /// Series length `n`.
    n: usize,
    members: Vec<Rotation>,
}

/// Lane-aligned stride of the envelope slab for series length `n`.
#[inline]
fn slab_stride(n: usize) -> usize {
    n.next_multiple_of(LANES)
}

impl Wedge {
    /// Pack an (upper, lower) envelope pair into the SoA slab.
    // lint: panic-exempt(n <= stride and 2*stride is the slab length by construction, so every slice is in range)
    fn pack(upper: &[f64], lower: &[f64], members: Vec<Rotation>) -> Self {
        debug_assert_eq!(upper.len(), lower.len());
        let n = upper.len();
        let stride = slab_stride(n);
        let mut env = vec![0.0; 2 * stride];
        // rotind-lint: allow(no-index) — n <= stride <= env.len()/2 by construction
        env[..n].copy_from_slice(upper);
        env[stride..stride + n].copy_from_slice(lower);
        Wedge { env, n, members }
    }

    /// A degenerate wedge over a single candidate sequence — the case in
    /// which `LB_Keogh` collapses to the exact Euclidean distance.
    pub fn from_single(series: &[f64], rotation: Rotation) -> Self {
        Wedge::pack(series, series, vec![rotation])
    }

    /// The wedge over the given rows of a rotation matrix.
    ///
    /// # Panics
    ///
    /// Panics when `rows` is empty or contains an out-of-range row index.
    // lint: panic-exempt(documented precondition: cut member lists are non-empty rows of the same matrix)
    pub fn from_rows(matrix: &RotationMatrix, rows: &[usize]) -> Self {
        assert!(!rows.is_empty(), "Wedge::from_rows: empty row set");
        let series: Vec<Vec<f64>> = rows.iter().map(|&r| matrix.row(r).to_vec()).collect();
        let (upper, lower) = envelope_of(&series);
        Wedge::pack(
            &upper,
            &lower,
            rows.iter().map(|&r| matrix.rotations()[r]).collect(),
        )
    }

    /// Merge two wedges into their combined envelope (Figure 7:
    /// `W((1,2),3)` from `W(1,2)` and `W3`). The elementwise max/min run
    /// straight into the merged slab, lane-parallel.
    ///
    /// # Panics
    ///
    /// Panics when the wedges differ in length.
    // lint: panic-exempt(documented precondition: wedges of one hierarchy share the series length)
    pub fn merge(a: &Wedge, b: &Wedge) -> Self {
        assert_eq!(a.len(), b.len(), "Wedge::merge: length mismatch");
        let n = a.n;
        let stride = slab_stride(n);
        let mut env = vec![0.0; 2 * stride];
        {
            let (up, lo) = env.split_at_mut(stride);
            for ((dst, x), y) in up.iter_mut().zip(a.upper()).zip(b.upper()) {
                *dst = x.max(*y);
            }
            for ((dst, x), y) in lo.iter_mut().zip(a.lower()).zip(b.lower()) {
                *dst = x.min(*y);
            }
        }
        let mut members = a.members.clone();
        members.extend_from_slice(&b.members);
        Wedge { env, n, members }
    }

    /// Widen the envelope by the warping radius `R` (Section 4.3):
    /// `DTW_U_i = max(U_{i−R} : U_{i+R})`, `DTW_L_i = min(L_{i−R} :
    /// L_{i+R})`. With `R = 0` this is a clone.
    pub fn widened(&self, radius: usize) -> Self {
        self.widened_with(radius, &mut SlidingScratch::new())
    }

    /// [`Wedge::widened`] with caller-owned scratch: the sliding-window
    /// workspace is reused across calls, so building the `2n − 1` widened
    /// envelopes of a hierarchy allocates only the buffers it keeps.
    pub fn widened_with(&self, radius: usize, scratch: &mut SlidingScratch) -> Self {
        let mut upper = Vec::new();
        let mut lower = Vec::new();
        sliding_max_into(self.upper(), radius, scratch, &mut upper);
        sliding_min_into(self.lower(), radius, scratch, &mut lower);
        Wedge::pack(&upper, &lower, self.members.clone())
    }

    /// Series length `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the wedge covers a zero-length series (never for a
    /// constructed wedge).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Upper envelope `U` — the first row of the SoA slab.
    // lint: panic-exempt(n <= env.len()/2 is a struct invariant enforced by pack/merge)
    #[inline]
    pub fn upper(&self) -> &[f64] {
        // rotind-lint: allow(no-index) — n <= env.len()/2 is a struct invariant
        &self.env[..self.n]
    }

    /// Lower envelope `L` — the second, lane-aligned row of the SoA slab.
    // lint: panic-exempt(stride + n == env.len() is a struct invariant enforced by pack/merge)
    #[inline]
    pub fn lower(&self) -> &[f64] {
        let stride = slab_stride(self.n);
        // rotind-lint: allow(no-index) — stride + n == env.len() is a struct invariant
        &self.env[stride..stride + self.n]
    }

    /// The rotations covered by this wedge.
    #[inline]
    pub fn members(&self) -> &[Rotation] {
        &self.members
    }

    /// Number of covered rotations (the paper's `cardinality(T)`).
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.members.len()
    }

    /// Wedge area `Σ (U_i − L_i)` — the utility heuristic of Figure 8:
    /// fat wedges produce loose lower bounds.
    pub fn area(&self) -> f64 {
        self.upper()
            .iter()
            .zip(self.lower())
            .map(|(u, l)| u - l)
            .sum()
    }

    /// `true` when `series` lies within the envelope at every position.
    pub fn contains(&self, series: &[f64]) -> bool {
        series.len() == self.len()
            && series
                .iter()
                .zip(self.lower())
                .zip(self.upper())
                .all(|((&x, &l), &u)| l <= x && x <= u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotind_ts::rotate::rotated;

    fn signal(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.61).sin() * 2.0).collect()
    }

    #[test]
    fn single_wedge_is_the_series() {
        let s = signal(16);
        let w = Wedge::from_single(&s, Rotation::shift(0));
        assert_eq!(w.upper(), &s[..]);
        assert_eq!(w.lower(), &s[..]);
        assert_eq!(w.area(), 0.0);
        assert_eq!(w.cardinality(), 1);
        assert!(w.contains(&s));
    }

    #[test]
    fn from_rows_bounds_members() {
        let c = signal(20);
        let m = RotationMatrix::full(&c).unwrap();
        let w = Wedge::from_rows(&m, &[0, 3, 7]);
        assert_eq!(w.cardinality(), 3);
        for &row in &[0usize, 3, 7] {
            assert!(w.contains(&m.row(row).to_vec()), "row {row} escapes wedge");
        }
        // A rotation outside the wedge set is typically NOT contained.
        assert!(!w.contains(&m.row(10).to_vec()));
    }

    #[test]
    fn merge_contains_both_children() {
        let c = signal(24);
        let m = RotationMatrix::full(&c).unwrap();
        let a = Wedge::from_rows(&m, &[0, 1]);
        let b = Wedge::from_rows(&m, &[5, 6]);
        let merged = Wedge::merge(&a, &b);
        assert_eq!(merged.cardinality(), 4);
        for row in [0usize, 1, 5, 6] {
            assert!(merged.contains(&rotated(&c, row)));
        }
        // Merged area dominates each child's area (Figure 8).
        assert!(merged.area() >= a.area());
        assert!(merged.area() >= b.area());
    }

    #[test]
    fn merge_equals_from_rows() {
        let c = signal(18);
        let m = RotationMatrix::full(&c).unwrap();
        let a = Wedge::from_rows(&m, &[2, 4]);
        let b = Wedge::from_rows(&m, &[9]);
        let merged = Wedge::merge(&a, &b);
        let direct = Wedge::from_rows(&m, &[2, 4, 9]);
        assert_eq!(merged.upper(), direct.upper());
        assert_eq!(merged.lower(), direct.lower());
    }

    #[test]
    fn widened_contains_original_and_grows_area() {
        let c = signal(32);
        let m = RotationMatrix::full(&c).unwrap();
        let w = Wedge::from_rows(&m, &[0, 2, 4]);
        let wide = w.widened(3);
        for i in 0..w.len() {
            assert!(wide.upper()[i] >= w.upper()[i]);
            assert!(wide.lower()[i] <= w.lower()[i]);
        }
        assert!(wide.area() >= w.area());
        assert_eq!(wide.members(), w.members());
        assert_eq!(w.widened(0).upper(), w.upper());
    }

    #[test]
    fn widened_with_matches_widened() {
        let c = signal(40);
        let m = RotationMatrix::full(&c).unwrap();
        let w = Wedge::from_rows(&m, &[1, 2, 8]);
        let mut scratch = SlidingScratch::new();
        for r in [0usize, 2, 7] {
            assert_eq!(w.widened_with(r, &mut scratch), w.widened(r));
        }
    }

    #[test]
    fn contains_rejects_wrong_length() {
        let w = Wedge::from_single(&signal(8), Rotation::shift(0));
        assert!(!w.contains(&signal(9)));
    }

    #[test]
    #[should_panic(expected = "empty row set")]
    fn from_rows_rejects_empty() {
        let c = signal(8);
        let m = RotationMatrix::full(&c).unwrap();
        Wedge::from_rows(&m, &[]);
    }
}
