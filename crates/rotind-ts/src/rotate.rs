//! Circular shifts, mirror images and the rotation matrix **C**.
//!
//! Section 3 of the paper expands a series `C` of length `n` into an
//! `n × n` matrix **C** whose `j`-th row is `C` circularly shifted by `j`.
//! Rotating the underlying *shape* corresponds exactly to such a shift of
//! its centroid-distance series, so "all rotations" = "all rows of **C**".
//!
//! [`RotationMatrix`] keeps a single copy of the base series (plus,
//! optionally, its mirror image for enantiomorphic invariance, and a
//! restriction to a rotation-limited window) and exposes rows as zero-copy
//! views; materializing `n` vectors of length `n` is only done on request.

use crate::error::TsError;
use crate::Result;

/// `series` circularly shifted left by `shift` positions.
///
/// `rotated(c, 1)[i] == c[(i + 1) % n]`, matching the paper's layout where
/// row `j` of **C** starts at element `c_{j+1}`.
///
/// ```
/// use rotind_ts::rotate::rotated;
/// assert_eq!(rotated(&[1.0, 2.0, 3.0, 4.0], 1), vec![2.0, 3.0, 4.0, 1.0]);
/// assert_eq!(rotated(&[1.0, 2.0, 3.0, 4.0], 4), vec![1.0, 2.0, 3.0, 4.0]);
/// ```
pub fn rotated(series: &[f64], shift: usize) -> Vec<f64> {
    let n = series.len();
    if n == 0 {
        return Vec::new();
    }
    let shift = shift % n;
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&series[shift..]);
    out.extend_from_slice(&series[..shift]);
    out
}

/// The mirror image (reversal) of a series.
///
/// Matching a shape to its enantiomorph corresponds to reversing the
/// traversal direction of its boundary, i.e. reversing the series
/// (Section 3, *Mirror Image Invariance*).
pub fn mirror(series: &[f64]) -> Vec<f64> {
    let mut out = series.to_vec();
    out.reverse();
    out
}

/// Identifies one row of a [`RotationMatrix`]: a circular shift of the base
/// series, possibly of its mirror image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rotation {
    /// Circular shift amount in `[0, n)`.
    pub shift: usize,
    /// Whether this rotation is taken from the mirrored series.
    pub mirrored: bool,
}

impl Rotation {
    /// A plain (non-mirrored) shift.
    pub const fn shift(shift: usize) -> Self {
        Rotation {
            shift,
            mirrored: false,
        }
    }

    /// A shift of the mirror image.
    pub const fn mirrored(shift: usize) -> Self {
        Rotation {
            shift,
            mirrored: true,
        }
    }
}

/// Zero-copy view of one row of the rotation matrix.
///
/// Indexing wraps around the base series, so no per-row allocation is
/// needed; `get(i)` returns `base[(i + shift) % n]`.
#[derive(Debug, Clone, Copy)]
pub struct RotationView<'a> {
    base: &'a [f64],
    shift: usize,
}

impl<'a> RotationView<'a> {
    /// Element `i` of the rotated series.
    #[inline]
    // lint: panic-exempt(k < n after the conditional subtract, since i < n and shift < n)
    pub fn get(&self, i: usize) -> f64 {
        let n = self.base.len();
        let mut k = i + self.shift;
        if k >= n {
            k -= n;
        }
        self.base[k]
    }

    /// Length of the series.
    #[inline]
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// Always `false` for a constructed view; present for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Copy the rotated series into `buf` (cleared and refilled),
    /// avoiding a fresh allocation in per-rotation hot loops.
    // lint: panic-exempt(shift is reduced mod the base length at construction)
    pub fn copy_into(&self, buf: &mut Vec<f64>) {
        buf.clear();
        buf.extend_from_slice(&self.base[self.shift..]);
        buf.extend_from_slice(&self.base[..self.shift]);
    }

    /// Materialize this rotation as an owned vector.
    // lint: panic-exempt(shift is reduced mod the base length at construction)
    pub fn to_vec(&self) -> Vec<f64> {
        let n = self.base.len();
        let mut out = Vec::with_capacity(n);
        out.extend_from_slice(&self.base[self.shift..]);
        out.extend_from_slice(&self.base[..self.shift]);
        out
    }

    /// Iterate over the rotated samples.
    pub fn iter(&self) -> impl Iterator<Item = f64> + 'a {
        let (tail, head) = self.base.split_at(self.shift);
        head.iter().chain(tail.iter()).copied()
    }
}

/// The set of candidate rotations of a query series (the matrix **C**).
///
/// Holds the base series and, when mirror-image invariance is requested,
/// its reversal; rows are `(shift, mirrored)` pairs. A rotation-limited
/// query (e.g. *"allow a maximum rotation of 15 degrees"*) restricts the
/// admitted shifts to a window around zero, implementing the paper's
/// rotation-limited invariance by simply removing rows from **C**.
#[derive(Debug, Clone)]
pub struct RotationMatrix {
    base: Vec<f64>,
    mirrored: Option<Vec<f64>>,
    rotations: Vec<Rotation>,
}

impl RotationMatrix {
    /// All `n` rotations of `series` (no mirror rows).
    pub fn full(series: &[f64]) -> Result<Self> {
        Self::build(series, false, None)
    }

    /// All `2n` rotations: every shift of the series and of its mirror.
    pub fn with_mirror(series: &[f64]) -> Result<Self> {
        Self::build(series, true, None)
    }

    /// Rotation-limited matrix: only shifts within `max_shift` positions of
    /// zero (in either direction) are admitted. `max_shift` is expressed in
    /// samples; callers converting from degrees use
    /// `n * degrees / 360`, rounded down.
    ///
    /// # Errors
    ///
    /// [`TsError::InvalidParam`] when `max_shift >= n` (use [`full`]
    /// instead) — an unlimited query must be requested explicitly so that
    /// accidental huge limits are caught.
    ///
    /// [`full`]: RotationMatrix::full
    pub fn limited(series: &[f64], max_shift: usize) -> Result<Self> {
        Self::build(series, false, Some(max_shift))
    }

    /// Rotation-limited matrix that also admits mirror rows (each mirror
    /// shift limited by the same window).
    pub fn limited_with_mirror(series: &[f64], max_shift: usize) -> Result<Self> {
        Self::build(series, true, Some(max_shift))
    }

    fn build(series: &[f64], with_mirror: bool, limit: Option<usize>) -> Result<Self> {
        let n = series.len();
        if n == 0 {
            return Err(TsError::Empty);
        }
        if let Some(index) = series.iter().position(|v| !v.is_finite()) {
            return Err(TsError::NonFinite { index });
        }
        let shifts: Vec<usize> = match limit {
            None => (0..n).collect(),
            Some(max_shift) => {
                if max_shift >= n {
                    return Err(TsError::invalid_param(
                        "max_shift",
                        format!("must be < n = {n}; use RotationMatrix::full for unlimited"),
                    ));
                }
                // Window of shifts within max_shift of zero, in circular
                // terms: {0, 1, .., max_shift} ∪ {n-max_shift, .., n-1}.
                let mut s: Vec<usize> = (0..=max_shift).collect();
                if max_shift > 0 {
                    s.extend(n - max_shift..n);
                }
                s.sort_unstable();
                s.dedup();
                s
            }
        };
        let mut rotations: Vec<Rotation> = shifts.iter().map(|&s| Rotation::shift(s)).collect();
        let mirrored = if with_mirror {
            rotations.extend(shifts.iter().map(|&s| Rotation::mirrored(s)));
            Some(mirror(series))
        } else {
            None
        };
        Ok(RotationMatrix {
            base: series.to_vec(),
            mirrored,
            rotations,
        })
    }

    /// Length `n` of the underlying series.
    #[inline]
    pub fn series_len(&self) -> usize {
        self.base.len()
    }

    /// Number of rows (candidate rotations) in the matrix.
    #[inline]
    pub fn num_rotations(&self) -> usize {
        self.rotations.len()
    }

    /// The row descriptors, in construction order.
    #[inline]
    pub fn rotations(&self) -> &[Rotation] {
        &self.rotations
    }

    /// The base (shift-0, unmirrored) series.
    #[inline]
    pub fn base(&self) -> &[f64] {
        &self.base
    }

    /// Zero-copy view of an arbitrary rotation (not necessarily a row of
    /// this matrix — useful for tests).
    // lint: panic-exempt(mirrored rotations are only minted by full_with_mirror, which populates the mirror rows)
    pub fn view(&self, rotation: Rotation) -> RotationView<'_> {
        let base: &[f64] = if rotation.mirrored {
            self.mirrored
                .as_deref()
                // Invariant: mirrored Rotations are only ever minted by
                // `full_with_mirror`, which also populates `self.mirrored`.
                // rotind-lint: allow(no-panic)
                .expect("mirror rows requested from a matrix built without mirror")
        } else {
            &self.base
        };
        RotationView {
            base,
            shift: rotation.shift % base.len(),
        }
    }

    /// Zero-copy view of row `row` (construction order).
    // lint: panic-exempt(row ids come from the matrix's own construction order)
    pub fn row(&self, row: usize) -> RotationView<'_> {
        self.view(self.rotations[row])
    }

    /// Materialize every row as an owned vector (the literal matrix **C**
    /// of Section 3). Costs `O(rows · n)` memory; the search engine never
    /// needs this, but wedge construction and tests do.
    pub fn materialize(&self) -> Vec<Vec<f64>> {
        (0..self.num_rotations())
            .map(|r| self.row(r).to_vec())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotated_basic() {
        let c = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(rotated(&c, 0), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(rotated(&c, 1), vec![2.0, 3.0, 4.0, 1.0]);
        assert_eq!(rotated(&c, 3), vec![4.0, 1.0, 2.0, 3.0]);
        assert_eq!(rotated(&c, 4), vec![1.0, 2.0, 3.0, 4.0], "wraps modulo n");
        assert_eq!(rotated(&c, 7), rotated(&c, 3));
    }

    #[test]
    fn rotated_empty_and_singleton() {
        assert!(rotated(&[], 3).is_empty());
        assert_eq!(rotated(&[5.0], 9), vec![5.0]);
    }

    #[test]
    fn mirror_reverses() {
        assert_eq!(mirror(&[1.0, 2.0, 3.0]), vec![3.0, 2.0, 1.0]);
        assert_eq!(mirror(&mirror(&[1.0, 2.0, 3.0])), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn full_matrix_rows_match_rotated() {
        let c = [1.0, 5.0, 2.0, 8.0, 3.0];
        let m = RotationMatrix::full(&c).unwrap();
        assert_eq!(m.num_rotations(), 5);
        for j in 0..5 {
            assert_eq!(m.row(j).to_vec(), rotated(&c, j), "row {j}");
        }
    }

    #[test]
    fn view_get_wraps() {
        let c = [1.0, 2.0, 3.0];
        let m = RotationMatrix::full(&c).unwrap();
        let v = m.view(Rotation::shift(2));
        assert_eq!(v.get(0), 3.0);
        assert_eq!(v.get(1), 1.0);
        assert_eq!(v.get(2), 2.0);
        assert_eq!(v.len(), 3);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn mirror_rows_are_shifts_of_reversal() {
        let c = [1.0, 2.0, 3.0, 4.0];
        let m = RotationMatrix::with_mirror(&c).unwrap();
        assert_eq!(m.num_rotations(), 8);
        let rev = mirror(&c);
        for (i, rot) in m.rotations().iter().enumerate() {
            let row = m.row(i).to_vec();
            if rot.mirrored {
                assert_eq!(row, rotated(&rev, rot.shift));
            } else {
                assert_eq!(row, rotated(&c, rot.shift));
            }
        }
    }

    #[test]
    fn limited_matrix_window() {
        let c: Vec<f64> = (0..10).map(f64::from).collect();
        let m = RotationMatrix::limited(&c, 2).unwrap();
        let shifts: Vec<usize> = m.rotations().iter().map(|r| r.shift).collect();
        assert_eq!(shifts, vec![0, 1, 2, 8, 9]);
    }

    #[test]
    fn limited_zero_is_identity_only() {
        let c = [1.0, 2.0, 3.0];
        let m = RotationMatrix::limited(&c, 0).unwrap();
        assert_eq!(m.num_rotations(), 1);
        assert_eq!(m.row(0).to_vec(), c.to_vec());
    }

    #[test]
    fn limited_rejects_full_window() {
        let c = [1.0, 2.0, 3.0];
        assert!(matches!(
            RotationMatrix::limited(&c, 3),
            Err(TsError::InvalidParam { .. })
        ));
    }

    #[test]
    fn limited_with_mirror_doubles_rows() {
        let c = [1.0, 2.0, 3.0, 4.0, 5.0];
        let m = RotationMatrix::limited_with_mirror(&c, 1).unwrap();
        assert_eq!(m.num_rotations(), 6); // shifts {0,1,4} × {plain, mirror}
        assert_eq!(m.rotations().iter().filter(|r| r.mirrored).count(), 3);
    }

    #[test]
    fn rejects_invalid_input() {
        assert!(matches!(RotationMatrix::full(&[]), Err(TsError::Empty)));
        assert!(matches!(
            RotationMatrix::full(&[1.0, f64::NAN]),
            Err(TsError::NonFinite { index: 1 })
        ));
    }

    #[test]
    fn materialize_matches_rows() {
        let c = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        let m = RotationMatrix::with_mirror(&c).unwrap();
        let mat = m.materialize();
        assert_eq!(mat.len(), 12);
        for (i, row) in mat.iter().enumerate() {
            assert_eq!(*row, m.row(i).to_vec());
        }
    }
}
