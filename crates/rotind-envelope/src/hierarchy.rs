//! Hierarchically nested wedges (Section 4.1, Figures 7, 9 and 10).
//!
//! The `n` admitted rotations of a query are clustered by group-average
//! linkage (using the `O(n²)` shift-profile distance matrix), and every
//! dendrogram node is materialised as a wedge: leaves are single
//! rotations, internal nodes merge their children's envelopes. Cutting
//! the dendrogram at `K` yields the paper's wedge set
//! `W = {W_set(1), …, W_set(K)}`, a partition of the rotations; the
//! H-Merge search descends from the cut towards the leaves only where the
//! lower bound fails to prune.

use crate::wedge::Wedge;
use rotind_cluster::linkage::{cluster, Linkage};
use rotind_cluster::rotation_shift::rotation_distance_matrix;
use rotind_cluster::Dendrogram;
use rotind_ts::rotate::{Rotation, RotationMatrix};

/// A rotation matrix, its dendrogram, and a wedge for every node.
///
/// The construction cost is the paper's `O(n²)` wedge-build startup:
/// `O(n²)` for the shift-profile distance matrix, `O(n²)` for NN-chain
/// clustering, and `O(n²)` to materialise all `2·rows − 1` wedges (a
/// wedge is its envelopes and members only: LB_Keogh reads them in
/// position order and needs nothing precomputed per wedge).
#[derive(Debug, Clone)]
pub struct WedgeTree {
    matrix: RotationMatrix,
    dendrogram: Dendrogram,
    /// Plain wedge per node (node ids follow the dendrogram convention).
    wedges: Vec<Wedge>,
    /// Envelopes used for lower bounding: widened copies when `band > 0`.
    lb_wedges: Option<Vec<Wedge>>,
}

impl WedgeTree {
    /// Build the tree over all rows of `matrix`, clustering with
    /// `linkage` (the paper uses group-average) and widening lower-bound
    /// envelopes by the DTW band `band` (0 for Euclidean/LCSS).
    pub fn build(matrix: RotationMatrix, linkage: Linkage, band: usize) -> Self {
        let dist = rotation_distance_matrix(&matrix);
        let dendrogram = cluster(&dist, linkage);
        Self::from_dendrogram(matrix, dendrogram, band)
    }

    /// Build with the paper's defaults: group-average linkage.
    pub fn new(matrix: RotationMatrix, band: usize) -> Self {
        Self::build(matrix, Linkage::Average, band)
    }

    /// Assemble wedges for a pre-computed dendrogram (exposed for ablation
    /// benches that compare linkages and for tests with handcrafted
    /// trees).
    ///
    /// # Panics
    ///
    /// Panics when the dendrogram's leaf count differs from the number of
    /// rotations in `matrix`.
    // lint: panic-exempt(documented precondition: the builder derives the dendrogram from the same matrix)
    pub fn from_dendrogram(matrix: RotationMatrix, dendrogram: Dendrogram, band: usize) -> Self {
        let rows = matrix.num_rotations();
        assert_eq!(
            dendrogram.num_leaves(),
            rows,
            "dendrogram must have one leaf per rotation"
        );
        let mut wedges: Vec<Wedge> = Vec::with_capacity(dendrogram.num_nodes());
        for leaf in 0..rows {
            wedges.push(Wedge::from_rows(&matrix, &[leaf]));
        }
        for merge in dendrogram.merges() {
            let w = Wedge::merge(&wedges[merge.left], &wedges[merge.right]);
            wedges.push(w);
        }
        let lb_wedges = (band > 0).then(|| {
            // One deque workspace serves all 2·rows − 1 widenings.
            let mut scratch = crate::envelope::SlidingScratch::new();
            wedges
                .iter()
                .map(|w| w.widened_with(band, &mut scratch))
                .collect()
        });
        WedgeTree {
            matrix,
            dendrogram,
            wedges,
            lb_wedges,
        }
    }

    /// The underlying rotation matrix.
    pub fn matrix(&self) -> &RotationMatrix {
        &self.matrix
    }

    /// The dendrogram over the rotations.
    pub fn dendrogram(&self) -> &Dendrogram {
        &self.dendrogram
    }

    /// Number of rotations (= leaves = the maximum wedge-set size `K`).
    pub fn max_k(&self) -> usize {
        self.dendrogram.num_leaves()
    }

    /// Root node id.
    pub fn root(&self) -> usize {
        // Invariant: construction rejects empty input, so the dendrogram
        // always has at least one leaf and therefore a root.
        // rotind-lint: allow(no-panic)
        self.dendrogram.root().expect("non-empty tree")
    }

    /// `true` when `node` is a single-rotation leaf.
    pub fn is_leaf(&self, node: usize) -> bool {
        self.dendrogram.is_leaf(node)
    }

    /// Children of an internal node.
    pub fn children(&self, node: usize) -> Option<(usize, usize)> {
        self.dendrogram.children(node)
    }

    /// The plain (unwidened) wedge at `node`.
    // lint: panic-exempt(node ids come from this hierarchy's own dendrogram, one wedge per node)
    pub fn wedge(&self, node: usize) -> &Wedge {
        &self.wedges[node]
    }

    /// The lower-bounding envelope at `node`: widened by the band for DTW,
    /// the plain wedge otherwise.
    // lint: witness-exempt(accessor: returns a precomputed envelope, computes no bound — admissibility is witnessed where the envelope is consumed, in lb_keogh_early_abandon_at)
    pub fn lb_wedge(&self, node: usize) -> &Wedge {
        match &self.lb_wedges {
            // lint: panic-exempt(lb_wedges, when present, holds one wedge per node — the same id space as wedges)
            Some(w) => &w[node],
            None => &self.wedges[node],
        }
    }

    /// The rotation at a leaf node.
    ///
    /// # Panics
    ///
    /// Panics when `node` is internal.
    // lint: panic-exempt(documented precondition: the engine only asks for rotations at leaves of this hierarchy)
    pub fn leaf_rotation(&self, node: usize) -> Rotation {
        assert!(self.is_leaf(node), "leaf_rotation on internal node {node}");
        self.matrix.rotations()[node]
    }

    /// Node ids forming the wedge set of size `k` (clamped to
    /// `[1, max_k]`) — the dendrogram cut of Figure 10.
    pub fn cut_nodes(&self, k: usize) -> Vec<usize> {
        self.dendrogram.cut_nodes(k)
    }

    /// Total envelope area of the size-`k` wedge set (ablation metric).
    pub fn cut_area(&self, k: usize) -> f64 {
        self.cut_nodes(k)
            .iter()
            .map(|&n| self.wedges[n].area())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.29).sin() + 0.5 * (i as f64 * 0.07).cos())
            .collect()
    }

    fn tree(n: usize, band: usize) -> WedgeTree {
        let m = RotationMatrix::full(&signal(n)).unwrap();
        WedgeTree::new(m, band)
    }

    #[test]
    fn structure_counts() {
        let t = tree(16, 0);
        assert_eq!(t.max_k(), 16);
        assert_eq!(t.dendrogram().num_nodes(), 31);
        assert!(!t.is_leaf(t.root()));
    }

    #[test]
    fn every_internal_wedge_contains_its_leaves() {
        let t = tree(20, 0);
        for node in 0..t.dendrogram().num_nodes() {
            for leaf in t.dendrogram().members(node) {
                let series = t.matrix().row(leaf).to_vec();
                assert!(
                    t.wedge(node).contains(&series),
                    "node {node} misses leaf {leaf}"
                );
            }
        }
    }

    #[test]
    fn wedge_members_match_dendrogram_members() {
        let t = tree(12, 0);
        for node in 0..t.dendrogram().num_nodes() {
            let mut from_wedge: Vec<usize> =
                t.wedge(node).members().iter().map(|r| r.shift).collect();
            let mut from_tree: Vec<usize> = t
                .dendrogram()
                .members(node)
                .iter()
                .map(|&l| t.leaf_rotation(l).shift)
                .collect();
            from_wedge.sort_unstable();
            from_tree.sort_unstable();
            assert_eq!(from_wedge, from_tree, "node {node}");
        }
    }

    #[test]
    fn cut_nodes_partition_rotations() {
        let t = tree(24, 0);
        for k in [1usize, 2, 5, 12, 24] {
            let cut = t.cut_nodes(k);
            assert_eq!(cut.len(), k);
            let mut shifts: Vec<usize> = cut
                .iter()
                .flat_map(|&n| t.wedge(n).members().iter().map(|r| r.shift))
                .collect();
            shifts.sort_unstable();
            assert_eq!(shifts, (0..24).collect::<Vec<_>>(), "k = {k}");
        }
    }

    #[test]
    fn clustering_groups_adjacent_rotations_of_smooth_series() {
        // For a single smooth bump, a small-K cut should place rotation 0
        // with its circular neighbours rather than with the antipode.
        let n = 32;
        let c: Vec<f64> = (0..n)
            .map(|i| (i as f64 / n as f64 * std::f64::consts::TAU).sin())
            .collect();
        let m = RotationMatrix::full(&c).unwrap();
        let t = WedgeTree::new(m, 0);
        let cut = t.cut_nodes(4);
        // Find the wedge holding rotation 0; it must also hold rotation 1
        // or rotation n−1 (a circular neighbour).
        let holder = cut
            .iter()
            .find(|&&node| t.wedge(node).members().iter().any(|r| r.shift == 0))
            .copied()
            .expect("some wedge holds rotation 0");
        let has_neighbor = t
            .wedge(holder)
            .members()
            .iter()
            .any(|r| r.shift == 1 || r.shift == n - 1);
        assert!(
            has_neighbor || t.wedge(holder).cardinality() == 1,
            "rotation 0 grouped without circular neighbours"
        );
    }

    #[test]
    fn lb_wedges_widened_only_for_dtw() {
        let t0 = tree(16, 0);
        assert_eq!(t0.lb_wedge(3).upper(), t0.wedge(3).upper());
        let t2 = tree(16, 2);
        let root = t2.root();
        assert!(t2.lb_wedge(root).area() >= t2.wedge(root).area());
        // Widened leaf envelopes still contain the leaf series.
        for leaf in 0..t2.max_k() {
            assert!(t2.lb_wedge(leaf).contains(&t2.matrix().row(leaf).to_vec()));
        }
    }

    #[test]
    fn cut_area_extremes() {
        // Note per-wedge areas are NOT additive across a split (heavily
        // overlapping children can sum to more than their parent), so
        // only the extremes are certain: the K = 1 cut is the root wedge
        // and the K = max cut is all singletons with zero area.
        let t = tree(24, 0);
        assert_eq!(t.cut_area(24), 0.0, "singleton wedges have zero area");
        let root_area = t.wedge(t.root()).area();
        assert!(root_area > 0.0);
        assert_eq!(t.cut_area(1), root_area);
        // Each child's area is bounded by its parent's.
        for node in 0..t.dendrogram().num_nodes() {
            if let Some((l, r)) = t.children(node) {
                assert!(t.wedge(l).area() <= t.wedge(node).area() + 1e-12);
                assert!(t.wedge(r).area() <= t.wedge(node).area() + 1e-12);
            }
        }
    }

    #[test]
    fn works_with_mirror_and_limited_matrices() {
        let c = signal(14);
        let mm = RotationMatrix::with_mirror(&c).unwrap();
        let tm = WedgeTree::new(mm, 1);
        assert_eq!(tm.max_k(), 28);
        let lm = RotationMatrix::limited(&c, 3).unwrap();
        let tl = WedgeTree::new(lm, 0);
        assert_eq!(tl.max_k(), 7);
    }
}
