//! A vantage-point tree over the reduced representation (Table 7).
//!
//! The tree is built on the plain Euclidean metric of the reduced space
//! (Fourier magnitudes or scaled PAA vectors). Search prunes with any
//! **1-Lipschitz** lower-bound function `g` over that space: since
//! `|g(x) − g(vp)| ≤ d(x, vp)`, a subtree whose members lie within
//! distance `hi` of the vantage point satisfies
//! `min_subtree g ≥ g(vp) − hi`, so the subtree can be skipped whenever
//! `g(vp) − hi ≥ best-so-far`.
//!
//! * Euclidean queries use `g(x) = ‖x − q_mags‖` — the magnitude lower
//!   bound, which is literally the metric distance to a point, enabling
//!   the additional two-sided prune `lo − g(vp) ≥ bsf`.
//! * DTW queries use `g(x) = min_k rectdist(x, PAA-envelope_k)` — a
//!   minimum of point-to-rectangle distances, each 1-Lipschitz, hence
//!   1-Lipschitz (one-sided pruning only).

/// Shape of the lower-bound function passed to [`VpTree::best_first`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// `g` is the metric distance to a fixed query point: both
    /// `g(vp) − hi` and `lo − g(vp)` prune.
    MetricToPoint,
    /// `g` is merely 1-Lipschitz: only `g(vp) − hi` prunes.
    Lipschitz,
}

#[derive(Debug, Clone)]
struct Node {
    /// Index (into the point set) of the vantage point.
    vp: usize,
    /// Distance range `[lo, hi]` of the inside subtree from `vp`.
    inside_range: (f64, f64),
    /// Distance range of the outside subtree from `vp`.
    outside_range: (f64, f64),
    inside: Option<Box<Node>>,
    outside: Option<Box<Node>>,
}

/// Search-cost accounting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VpSearchStats {
    /// Lower-bound (`g`) evaluations performed.
    pub bound_evals: usize,
    /// Items whose bound failed to prune (handed to `refine`).
    pub refined: usize,
}

/// A static vantage-point tree over reduced vectors.
#[derive(Debug, Clone)]
pub struct VpTree {
    points: Vec<Vec<f64>>,
    root: Option<Box<Node>>,
}

fn euclid(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

impl VpTree {
    /// Build over `points` (all the same dimensionality).
    ///
    /// Vantage points are chosen deterministically (first element of each
    /// subset) and the remainder is split at the median distance.
    ///
    /// # Panics
    ///
    /// Panics when point dimensionalities differ.
    pub fn build(points: Vec<Vec<f64>>) -> Self {
        if let Some(first) = points.first() {
            let dim = first.len();
            assert!(
                points.iter().all(|p| p.len() == dim),
                "VpTree::build: dimensionality mismatch"
            );
        }
        let indices: Vec<usize> = (0..points.len()).collect();
        let root = Self::build_node(&points, indices);
        VpTree { points, root }
    }

    fn build_node(points: &[Vec<f64>], mut indices: Vec<usize>) -> Option<Box<Node>> {
        let vp = indices.pop()?;
        if indices.is_empty() {
            return Some(Box::new(Node {
                vp,
                inside_range: (f64::INFINITY, f64::NEG_INFINITY),
                outside_range: (f64::INFINITY, f64::NEG_INFINITY),
                inside: None,
                outside: None,
            }));
        }
        let mut with_dist: Vec<(usize, f64)> = indices
            .into_iter()
            .map(|i| (i, euclid(&points[i], &points[vp])))
            .collect();
        with_dist.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mid = with_dist.len() / 2;
        let (inside_part, outside_part) = with_dist.split_at(mid.max(1).min(with_dist.len()));
        let range = |part: &[(usize, f64)]| -> (f64, f64) {
            part.iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &(_, d)| {
                    (lo.min(d), hi.max(d))
                })
        };
        let inside_range = range(inside_part);
        let outside_range = range(outside_part);
        let inside_idx: Vec<usize> = inside_part.iter().map(|&(i, _)| i).collect();
        let outside_idx: Vec<usize> = outside_part.iter().map(|&(i, _)| i).collect();
        Some(Box::new(Node {
            vp,
            inside_range,
            outside_range,
            inside: Self::build_node(points, inside_idx),
            outside: Self::build_node(points, outside_idx),
        }))
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the tree indexes no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The stored reduced vector for item `i`.
    pub fn point(&self, i: usize) -> &[f64] {
        &self.points[i]
    }

    /// Exact best-first search.
    ///
    /// `bound(x)` evaluates the admissible lower bound at a stored
    /// vector; `refine(i, bsf)` computes the item's *true* distance (and
    /// models the disk retrieval), receiving the current best-so-far so
    /// its own computation can early abandon — exactly Table 7, where
    /// `H-Merge(Q, W, BSF.distance)` is invoked with the running
    /// threshold. `refine` may return any value `> bsf` (e.g. infinity)
    /// when the item provably cannot beat it. The search maintains the
    /// best-so-far over true distances, calls `refine` only when
    /// `bound < bsf`, and prunes subtrees with the Lipschitz/metric
    /// rules. Returns the best `(index, distance)` and the stats.
    pub fn best_first(
        &self,
        kind: BoundKind,
        mut bound: impl FnMut(&[f64]) -> f64,
        mut refine: impl FnMut(usize, f64) -> f64,
        initial_bsf: f64,
    ) -> (Option<(usize, f64)>, VpSearchStats) {
        let mut stats = VpSearchStats::default();
        let mut best: Option<(usize, f64)> = None;
        let mut bsf = initial_bsf;
        if let Some(root) = &self.root {
            self.search_node(
                root,
                kind,
                &mut bound,
                &mut refine,
                &mut bsf,
                &mut best,
                &mut stats,
            );
        }
        (best, stats)
    }

    #[allow(clippy::too_many_arguments)]
    fn search_node(
        &self,
        node: &Node,
        kind: BoundKind,
        bound: &mut impl FnMut(&[f64]) -> f64,
        refine: &mut impl FnMut(usize, f64) -> f64,
        bsf: &mut f64,
        best: &mut Option<(usize, f64)>,
        stats: &mut VpSearchStats,
    ) {
        let g = bound(&self.points[node.vp]);
        stats.bound_evals += 1;
        if g < *bsf {
            stats.refined += 1;
            let d = refine(node.vp, *bsf);
            if d < *bsf {
                *bsf = d;
                *best = Some((node.vp, d));
            }
        }
        // Visit the side whose optimistic bound is smaller first, so the
        // best-so-far shrinks before the other side is considered.
        let min_possible = |range: (f64, f64)| -> f64 {
            let (lo, hi) = range;
            if hi < lo {
                return f64::INFINITY; // empty side
            }
            let mut m: f64 = g - hi;
            if kind == BoundKind::MetricToPoint {
                m = m.max(lo - g);
            }
            m.max(0.0)
        };
        let sides: [(&Option<Box<Node>>, f64); 2] = [
            (&node.inside, min_possible(node.inside_range)),
            (&node.outside, min_possible(node.outside_range)),
        ];
        let order = if sides[0].1 <= sides[1].1 {
            [0, 1]
        } else {
            [1, 0]
        };
        for &i in &order {
            let (child, min_poss) = &sides[i];
            if let Some(child) = child {
                if *min_poss < *bsf {
                    self.search_node(child, kind, bound, refine, bsf, best, stats);
                }
            }
        }
    }

    /// Linear-scan reference search (same bound/refine contract), for
    /// correctness tests and the fraction-retrieved denominator.
    pub fn linear_scan(
        &self,
        mut bound: impl FnMut(&[f64]) -> f64,
        mut refine: impl FnMut(usize, f64) -> f64,
        initial_bsf: f64,
    ) -> (Option<(usize, f64)>, VpSearchStats) {
        let mut stats = VpSearchStats::default();
        let mut best = None;
        let mut bsf = initial_bsf;
        for i in 0..self.points.len() {
            let g = bound(&self.points[i]);
            stats.bound_evals += 1;
            if g < bsf {
                stats.refined += 1;
                let d = refine(i, bsf);
                if d < bsf {
                    bsf = d;
                    best = Some((i, d));
                }
            }
        }
        (best, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for x in 0..6 {
            for y in 0..6 {
                pts.push(vec![x as f64, y as f64]);
            }
        }
        pts
    }

    #[test]
    fn build_shapes() {
        let t = VpTree::build(grid_points());
        assert_eq!(t.len(), 36);
        assert!(!t.is_empty());
        let empty = VpTree::build(Vec::new());
        assert!(empty.is_empty());
        let single = VpTree::build(vec![vec![1.0]]);
        assert_eq!(single.len(), 1);
    }

    #[test]
    fn metric_search_finds_nearest_point() {
        let pts = grid_points();
        let t = VpTree::build(pts.clone());
        for query in [
            vec![2.2, 3.1],
            vec![0.0, 0.0],
            vec![5.4, 5.4],
            vec![-3.0, 2.0],
        ] {
            let (best, _) = t.best_first(
                BoundKind::MetricToPoint,
                |x| euclid(x, &query),
                |i, _bsf| euclid(&pts[i], &query),
                f64::INFINITY,
            );
            let (bi, bd) = best.unwrap();
            // Brute-force oracle.
            let (oi, od) = pts
                .iter()
                .enumerate()
                .map(|(i, p)| (i, euclid(p, &query)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            assert!((bd - od).abs() < 1e-12, "query {query:?}");
            assert_eq!(euclid(&pts[bi], &query), euclid(&pts[oi], &query));
        }
    }

    #[test]
    fn search_prunes_versus_linear_scan() {
        // Clustered points: tree search should refine far fewer items.
        let mut pts = Vec::new();
        for k in 0..10 {
            for j in 0..30 {
                pts.push(vec![
                    k as f64 * 100.0 + (j % 5) as f64 * 0.01,
                    (j / 5) as f64 * 0.01,
                ]);
            }
        }
        let t = VpTree::build(pts.clone());
        let query = vec![305.0, 0.0];
        let (best_t, stats_t) = t.best_first(
            BoundKind::MetricToPoint,
            |x| euclid(x, &query),
            |i, _bsf| euclid(&pts[i], &query),
            f64::INFINITY,
        );
        let (best_l, stats_l) = t.linear_scan(
            |x| euclid(x, &query),
            |i, _bsf| euclid(&pts[i], &query),
            f64::INFINITY,
        );
        assert!((best_t.unwrap().1 - best_l.unwrap().1).abs() < 1e-12);
        assert!(
            stats_t.bound_evals < stats_l.bound_evals,
            "tree {} !< linear {}",
            stats_t.bound_evals,
            stats_l.bound_evals
        );
    }

    #[test]
    fn lipschitz_bound_search_is_exact() {
        // g = distance to the nearest of two rectangles (1-Lipschitz, not
        // a point distance); refine = true distance to a hidden target
        // that g genuinely lower-bounds (here: rect distance + offset
        // structure kept admissible by construction).
        let pts = grid_points();
        let t = VpTree::build(pts.clone());
        let rect_dist = |p: &[f64]| -> f64 {
            // Rectangle [4,5]×[4,5].
            let dx = (4.0 - p[0]).max(p[0] - 5.0).max(0.0);
            let dy = (4.0 - p[1]).max(p[1] - 5.0).max(0.0);
            (dx * dx + dy * dy).sqrt()
        };
        // True distance: distance to the rectangle's corner (admissible:
        // rect_dist(p) <= |p − corner|).
        let corner = [4.0, 4.0];
        let truth = |i: usize, _bsf: f64| euclid(&pts[i], &corner);
        let (best, _) = t.best_first(BoundKind::Lipschitz, rect_dist, truth, f64::INFINITY);
        let (bi, bd) = best.unwrap();
        let od = pts
            .iter()
            .map(|p| euclid(p, &corner))
            .fold(f64::INFINITY, f64::min);
        assert!((bd - od).abs() < 1e-12);
        assert_eq!(pts[bi], vec![4.0, 4.0]);
    }

    #[test]
    fn initial_bsf_limits_refinement() {
        let pts = grid_points();
        let t = VpTree::build(pts.clone());
        let query = vec![100.0, 100.0]; // far from everything
        let (best, stats) = t.best_first(
            BoundKind::MetricToPoint,
            |x| euclid(x, &query),
            |i, _bsf| euclid(&pts[i], &query),
            1.0, // nothing is within 1.0
        );
        assert!(best.is_none());
        assert_eq!(stats.refined, 0);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn mixed_dims_panic() {
        VpTree::build(vec![vec![1.0], vec![1.0, 2.0]]);
    }
}
