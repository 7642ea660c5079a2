//! Nearest-neighbour-chain agglomerative clustering.
//!
//! The NN-chain algorithm produces the exact agglomerative clustering for
//! every *reducible* linkage — single, complete, group-average and Ward —
//! in `O(m²)` time and memory, without the `O(m³)` cost of the naive
//! method. The paper's wedge sets are derived from group-average
//! dendrograms (Figure 9); the other linkages are provided for the
//! ablation benches.

use crate::dendrogram::{Dendrogram, RawMerge};
use crate::matrix::DistanceMatrix;

/// Cluster-to-cluster distance update rule (Lance–Williams family).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Minimum pairwise distance.
    Single,
    /// Maximum pairwise distance. A complete-linkage cluster's diameter is
    /// exactly the paper's wedge-area proxy ("the area of a wedge is
    /// simply the maximum Euclidean distance between any sequences
    /// contained therein").
    Complete,
    /// Unweighted group average (UPGMA) — the linkage used throughout the
    /// paper's figures.
    Average,
    /// Ward's minimum-variance criterion (expects Euclidean distances).
    Ward,
}

impl Linkage {
    /// Lance–Williams distance from the merge of clusters `a` (size
    /// `na`) and `b` (size `nb`) to another cluster `k` (size `nk`),
    /// given the pre-merge distances.
    fn update(self, dak: f64, dbk: f64, dab: f64, na: f64, nb: f64, nk: f64) -> f64 {
        match self {
            Linkage::Single => dak.min(dbk),
            Linkage::Complete => dak.max(dbk),
            Linkage::Average => (na * dak + nb * dbk) / (na + nb),
            Linkage::Ward => {
                let t = na + nb + nk;
                (((na + nk) * dak * dak + (nb + nk) * dbk * dbk - nk * dab * dab) / t)
                    .max(0.0)
                    .sqrt()
            }
        }
    }
}

/// Agglomerate `matrix.len()` items under `linkage`, returning the full
/// dendrogram.
///
/// # Panics
///
/// Panics for an empty matrix (there is nothing to cluster).
// lint: panic-exempt(documented precondition: the index builder always clusters a non-empty rotation matrix; the chain is non-empty where it is read)
pub fn cluster(matrix: &DistanceMatrix, linkage: Linkage) -> Dendrogram {
    let m = matrix.len();
    assert!(m > 0, "cluster: empty distance matrix");
    if m == 1 {
        return Dendrogram::from_raw_merges(1, Vec::new());
    }

    // Row-major `m × m` working copy of the distance matrix, both
    // triangles updated in place as clusters merge, so a nearest-
    // neighbour scan reads one contiguous row. `size[i]` is the
    // cardinality of the cluster currently represented by slot i;
    // `live` lists the live slots in ascending order.
    let mut dist = matrix.to_square();
    let mut size = vec![1usize; m];
    let mut live: Vec<usize> = (0..m).collect();
    let mut merges: Vec<RawMerge> = Vec::with_capacity(m - 1);

    // NN-chain stack.
    let mut chain: Vec<usize> = Vec::with_capacity(m);

    for _ in 0..m - 1 {
        if chain.is_empty() {
            let start = live
                .first()
                .copied()
                .expect("at least two active clusters remain");
            chain.push(start);
        }
        // Grow the chain until it ends in a pair of reciprocal nearest
        // neighbours.
        loop {
            let top = *chain.last().expect("chain is non-empty");
            let row = dist.get(top * m..(top + 1) * m).unwrap_or_default();
            // Prefer the previous chain element on ties so reciprocity is
            // detected deterministically.
            let prev = chain
                .len()
                .checked_sub(2)
                .and_then(|i| chain.get(i))
                .copied();
            let (mut nearest, mut nearest_d) = match prev.and_then(|p| Some((p, *row.get(p)?))) {
                Some(first) => first,
                None => (usize::MAX, f64::INFINITY),
            };
            for &k in &live {
                if k == top || Some(k) == prev {
                    continue;
                }
                if let Some(&d) = row.get(k) {
                    if d < nearest_d {
                        nearest_d = d;
                        nearest = k;
                    }
                }
            }
            debug_assert_ne!(nearest, usize::MAX);
            if Some(nearest) == prev {
                // Reciprocal nearest neighbours found: merge `top` and
                // `nearest`, at the distance just read between them.
                chain.pop();
                chain.pop();
                let (a, b) = (top, nearest);
                merges.push(RawMerge {
                    a,
                    b,
                    height: nearest_d,
                });
                // Merge b into a's slot.
                let slot_size = |slot: usize| size.get(slot).copied().unwrap_or(0);
                let (na, nb) = (slot_size(a) as f64, slot_size(b) as f64);
                for &k in &live {
                    if k == a || k == b {
                        continue;
                    }
                    let (Some(&dak), Some(&dbk)) = (dist.get(a * m + k), dist.get(b * m + k))
                    else {
                        continue;
                    };
                    let updated = linkage.update(dak, dbk, nearest_d, na, nb, slot_size(k) as f64);
                    for cell in [a * m + k, k * m + a] {
                        if let Some(d) = dist.get_mut(cell) {
                            *d = updated;
                        }
                    }
                }
                let merged = slot_size(a) + slot_size(b);
                if let Some(sa) = size.get_mut(a) {
                    *sa = merged;
                }
                live.retain(|&k| k != b);
                break;
            }
            chain.push(nearest);
        }
    }

    Dendrogram::from_raw_merges(m, merges)
}

/// Convenience: cluster raw vectors under the Euclidean metric.
///
/// ```
/// use rotind_cluster::linkage::{cluster_series, Linkage};
/// let series = vec![vec![0.0], vec![0.1], vec![9.0], vec![9.1]];
/// let dendrogram = cluster_series(&series, Linkage::Average);
/// let mut cut = dendrogram.cut(2);
/// for group in &mut cut { group.sort_unstable(); }
/// cut.sort();
/// assert_eq!(cut, vec![vec![0, 1], vec![2, 3]]);
/// ```
// lint: panic-exempt(DistanceMatrix::from_fn yields i and j below series.len() by contract)
pub fn cluster_series(series: &[Vec<f64>], linkage: Linkage) -> Dendrogram {
    let matrix = DistanceMatrix::from_fn(series.len(), |i, j| {
        series[i]
            .iter()
            .zip(&series[j])
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    });
    cluster(&matrix, linkage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rotation_shift::rotation_distance_matrix;
    use proptest::prelude::*;
    use rotind_ts::rotate::RotationMatrix;

    const LINKAGES: [Linkage; 4] = [
        Linkage::Single,
        Linkage::Complete,
        Linkage::Average,
        Linkage::Ward,
    ];

    /// The condensed-matrix NN-chain loop that [`cluster`] replaced,
    /// kept as its reference: every read goes through
    /// [`DistanceMatrix::get`] and every slot of `0..m` is visited.
    #[allow(clippy::needless_range_loop)] // k indexes `active`, `size` and the matrix
    fn cluster_condensed(matrix: &DistanceMatrix, linkage: Linkage) -> Dendrogram {
        let m = matrix.len();
        assert!(m > 0, "cluster: empty distance matrix");
        if m == 1 {
            return Dendrogram::from_raw_merges(1, Vec::new());
        }
        let mut dist = matrix.clone();
        let mut size = vec![1usize; m];
        let mut active = vec![true; m];
        let mut merges: Vec<RawMerge> = Vec::with_capacity(m - 1);
        let mut chain: Vec<usize> = Vec::with_capacity(m);
        for _ in 0..m - 1 {
            if chain.is_empty() {
                chain.push(active.iter().position(|&a| a).unwrap());
            }
            loop {
                let top = *chain.last().unwrap();
                let mut nearest = usize::MAX;
                let mut nearest_d = f64::INFINITY;
                let prev = (chain.len() >= 2).then(|| chain[chain.len() - 2]);
                if let Some(p) = prev {
                    nearest = p;
                    nearest_d = dist.get(top, p);
                }
                for k in 0..m {
                    if k == top || !active[k] || Some(k) == prev {
                        continue;
                    }
                    let d = dist.get(top, k);
                    if d < nearest_d {
                        nearest_d = d;
                        nearest = k;
                    }
                }
                if Some(nearest) == prev {
                    chain.pop();
                    chain.pop();
                    let (a, b) = (top, nearest);
                    merges.push(RawMerge {
                        a,
                        b,
                        height: nearest_d,
                    });
                    let (na, nb) = (size[a] as f64, size[b] as f64);
                    let dab = dist.get(a, b);
                    for k in 0..m {
                        if k == a || k == b || !active[k] {
                            continue;
                        }
                        let updated = linkage.update(
                            dist.get(a, k),
                            dist.get(b, k),
                            dab,
                            na,
                            nb,
                            size[k] as f64,
                        );
                        dist.set(a, k, updated);
                    }
                    size[a] += size[b];
                    active[b] = false;
                    break;
                }
                chain.push(nearest);
            }
        }
        Dendrogram::from_raw_merges(m, merges)
    }

    /// Every merge as (left, right, height bits): equal only when the
    /// dendrograms are identical.
    fn merge_bits(dendrogram: &Dendrogram) -> Vec<(usize, usize, u64)> {
        dendrogram
            .merges()
            .iter()
            .map(|mg| (mg.left, mg.right, mg.height.to_bits()))
            .collect()
    }

    fn assert_same_merges(matrix: &DistanceMatrix) {
        for linkage in LINKAGES {
            assert_eq!(
                merge_bits(&cluster(matrix, linkage)),
                merge_bits(&cluster_condensed(matrix, linkage)),
                "{linkage:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random matrices, continuous or quantized to `levels` values
        /// so that many entries tie exactly: the square working matrix
        /// reproduces every merge.
        #[test]
        fn square_working_matrix_equals_condensed_reference(
            m in 1usize..=40,
            levels in 0u64..8,
            codes in prop::collection::vec(0u64..u64::MAX, 40 * 39 / 2),
        ) {
            let mut values = codes.iter();
            let matrix = DistanceMatrix::from_fn(m, |_, _| {
                let code = values.next().copied().unwrap_or(0);
                match levels {
                    0 => (code >> 11) as f64 / (1u64 << 53) as f64 * 10.0,
                    _ => (code % levels) as f64 * 0.5,
                }
            });
            assert_same_merges(&matrix);
        }

        /// Rotation matrices: circulant, and tie-heavy when the series
        /// is periodic or its samples coarsely quantized, under the
        /// full, mirrored and limited rotation sets.
        #[test]
        fn rotation_matrices_cluster_identically(
            n in 2usize..=40,
            period in 1usize..=8,
            quantize in 0usize..2,
            samples in prop::collection::vec(-4.0f64..4.0, 40),
            max_shift in 0usize..20,
        ) {
            let series: Vec<f64> = (0..n)
                .map(|i| {
                    let x = samples[i % period.min(n)];
                    if quantize == 1 { x.round() } else { x }
                })
                .collect();
            for rotations in [
                RotationMatrix::full(&series),
                RotationMatrix::with_mirror(&series),
                RotationMatrix::limited(&series, max_shift % n),
            ] {
                assert_same_merges(&rotation_distance_matrix(&rotations.unwrap()));
            }
        }
    }

    /// Two tight groups far apart: every linkage must split them at K=2.
    fn two_blobs() -> DistanceMatrix {
        let points: &[f64] = &[0.0, 0.1, 0.2, 10.0, 10.1, 10.2];
        DistanceMatrix::from_fn(points.len(), |i, j| (points[i] - points[j]).abs())
    }

    #[test]
    fn separates_obvious_blobs_under_every_linkage() {
        for linkage in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Ward,
        ] {
            let dend = cluster(&two_blobs(), linkage);
            let mut cut = dend.cut(2);
            for c in &mut cut {
                c.sort_unstable();
            }
            cut.sort();
            assert_eq!(cut, vec![vec![0, 1, 2], vec![3, 4, 5]], "{linkage:?}");
        }
    }

    #[test]
    fn merge_count_and_root() {
        let dend = cluster(&two_blobs(), Linkage::Average);
        assert_eq!(dend.num_leaves(), 6);
        assert_eq!(dend.merges().len(), 5);
        let mut root_members = dend.members(dend.root().expect("root exists"));
        root_members.sort_unstable();
        assert_eq!(root_members, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn single_linkage_matches_naive_on_line() {
        // On collinear points single linkage merges nearest gaps first.
        let points: &[f64] = &[0.0, 1.0, 3.0, 6.0];
        let m = DistanceMatrix::from_fn(4, |i, j| (points[i] - points[j]).abs());
        let dend = cluster(&m, Linkage::Single);
        let heights: Vec<f64> = dend.merges().iter().map(|mg| mg.height).collect();
        assert_eq!(heights, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn complete_linkage_heights_are_diameters() {
        let points: &[f64] = &[0.0, 1.0, 10.0];
        let m = DistanceMatrix::from_fn(3, |i, j| (points[i] - points[j]).abs());
        let dend = cluster(&m, Linkage::Complete);
        assert_eq!(dend.merges()[0].height, 1.0);
        assert_eq!(dend.merges()[1].height, 10.0);
    }

    #[test]
    fn average_linkage_height() {
        let points: &[f64] = &[0.0, 2.0, 9.0];
        let m = DistanceMatrix::from_fn(3, |i, j| (points[i] - points[j]).abs());
        let dend = cluster(&m, Linkage::Average);
        assert_eq!(dend.merges()[0].height, 2.0);
        // d({0,1}, {2}) = (9 + 7) / 2 = 8.
        assert_eq!(dend.merges()[1].height, 8.0);
    }

    #[test]
    fn ward_prefers_balanced_merges() {
        // Ward should merge the two singletons at distance 1 before
        // attaching anything to the big far cluster.
        let points: &[f64] = &[0.0, 1.0, 50.0, 50.5, 51.0];
        let m = DistanceMatrix::from_fn(5, |i, j| (points[i] - points[j]).abs());
        let dend = cluster(&m, Linkage::Ward);
        let mut cut = dend.cut(2);
        for c in &mut cut {
            c.sort_unstable();
        }
        cut.sort();
        assert_eq!(cut, vec![vec![0, 1], vec![2, 3, 4]]);
    }

    #[test]
    fn singleton_input() {
        let dend = cluster(&DistanceMatrix::zeros(1), Linkage::Average);
        assert_eq!(dend.num_leaves(), 1);
        assert!(dend.merges().is_empty());
        assert_eq!(dend.cut(1), vec![vec![0]]);
    }

    #[test]
    fn cluster_series_euclidean() {
        let series = vec![
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![5.0, 5.0],
            vec![5.1, 5.0],
        ];
        let dend = cluster_series(&series, Linkage::Average);
        let mut cut = dend.cut(2);
        for c in &mut cut {
            c.sort_unstable();
        }
        cut.sort();
        assert_eq!(cut, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn ties_do_not_break_the_chain() {
        // All points equidistant: any dendrogram is valid, but the
        // algorithm must terminate with m−1 merges.
        let m = DistanceMatrix::from_fn(8, |_, _| 1.0);
        let dend = cluster(&m, Linkage::Average);
        assert_eq!(dend.merges().len(), 7);
        for k in 1..=8 {
            let cut = dend.cut(k);
            assert_eq!(cut.len(), k);
            let total: usize = cut.iter().map(Vec::len).sum();
            assert_eq!(total, 8);
        }
    }
}
