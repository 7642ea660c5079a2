//! Condensed symmetric distance matrix.

/// A symmetric `m × m` distance matrix with a zero diagonal, stored
/// condensed (upper triangle only): `m·(m−1)/2` entries.
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    m: usize,
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// An all-zero matrix over `m` items.
    pub fn zeros(m: usize) -> Self {
        let len = m * m.saturating_sub(1) / 2;
        DistanceMatrix {
            m,
            data: vec![0.0; len],
        }
    }

    /// Build by evaluating `f(i, j)` for every pair `i < j`.
    pub fn from_fn(m: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut matrix = Self::zeros(m);
        for i in 0..m {
            for j in i + 1..m {
                let v = f(i, j);
                matrix.set(i, j, v);
            }
        }
        matrix
    }

    /// Number of items `m`.
    #[inline]
    pub fn len(&self) -> usize {
        self.m
    }

    /// `true` when the matrix covers zero items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.m, "index ({i}, {j}) out of range");
        // Offset of row i in the condensed upper triangle.
        i * self.m - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Distance between items `i` and `j` (0 on the diagonal).
    #[inline]
    // lint: panic-exempt(index maps in-range ordered pairs into the triangular buffer; callers pass matrix-local ids)
    pub fn get(&self, i: usize, j: usize) -> f64 {
        match i.cmp(&j) {
            std::cmp::Ordering::Equal => 0.0,
            std::cmp::Ordering::Less => self.data[self.index(i, j)],
            std::cmp::Ordering::Greater => self.data[self.index(j, i)],
        }
    }

    /// Set the distance between distinct items `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics when `i == j` or either index is out of range.
    #[inline]
    // lint: panic-exempt(documented precondition: builders write distinct in-range pairs only)
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i != j, "cannot set the diagonal");
        let idx = if i < j {
            self.index(i, j)
        } else {
            self.index(j, i)
        };
        self.data[idx] = value;
    }

    /// The full matrix, row-major `m × m` (both triangles and a zero
    /// diagonal): the working layout of [`crate::linkage::cluster`],
    /// whose nearest-neighbour scans then read one contiguous row.
    pub(crate) fn to_square(&self) -> Vec<f64> {
        let m = self.m;
        let mut square = vec![0.0; m * m];
        let mut rest = self.data.as_slice();
        for i in 0..m {
            // Row i of the condensed triangle holds (i, j) for j > i.
            let Some((row, tail)) = rest.split_at_checked(m - i - 1) else {
                break;
            };
            rest = tail;
            let start = i * m + i + 1;
            if let Some(upper) = square.get_mut(start..start + row.len()) {
                upper.copy_from_slice(row);
            }
            let column = square.iter_mut().skip(start + m - 1).step_by(m);
            for (cell, &v) in column.zip(row) {
                *cell = v;
            }
        }
        square
    }

    /// The largest off-diagonal entry (0.0 for m < 2).
    pub fn max_value(&self) -> f64 {
        self.data.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_get_set() {
        let mut m = DistanceMatrix::zeros(4);
        m.set(1, 3, 2.5);
        m.set(3, 0, 1.5); // reversed order
        assert_eq!(m.get(1, 3), 2.5);
        assert_eq!(m.get(3, 1), 2.5);
        assert_eq!(m.get(0, 3), 1.5);
        assert_eq!(m.get(2, 2), 0.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn from_fn_fills_all_pairs() {
        let m = DistanceMatrix::from_fn(5, |i, j| (i * 10 + j) as f64);
        for i in 0..5 {
            for j in 0..5 {
                if i < j {
                    assert_eq!(m.get(i, j), (i * 10 + j) as f64);
                    assert_eq!(m.get(j, i), (i * 10 + j) as f64);
                }
            }
        }
        assert_eq!(m.max_value(), 34.0);
    }

    #[test]
    fn degenerate_sizes() {
        let m0 = DistanceMatrix::zeros(0);
        assert!(m0.is_empty());
        assert_eq!(m0.max_value(), 0.0);
        let m1 = DistanceMatrix::zeros(1);
        assert_eq!(m1.len(), 1);
        assert_eq!(m1.get(0, 0), 0.0);
    }

    #[test]
    fn square_layout_mirrors_get() {
        for m in 0..7 {
            let dm = DistanceMatrix::from_fn(m, |i, j| (i * 10 + j) as f64 + 0.5);
            let square = dm.to_square();
            assert_eq!(square.len(), m * m);
            for i in 0..m {
                for j in 0..m {
                    assert_eq!(square[i * m + j], dm.get(i, j), "m {m} ({i}, {j})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn setting_diagonal_panics() {
        DistanceMatrix::zeros(3).set(1, 1, 1.0);
    }

    #[test]
    fn condensed_layout_is_dense() {
        // Every condensed slot is addressable exactly once.
        let m = 7;
        let mut dm = DistanceMatrix::zeros(m);
        let mut v = 1.0;
        for i in 0..m {
            for j in i + 1..m {
                dm.set(i, j, v);
                v += 1.0;
            }
        }
        let mut expect = 1.0;
        for i in 0..m {
            for j in i + 1..m {
                assert_eq!(dm.get(i, j), expect);
                expect += 1.0;
            }
        }
    }
}
