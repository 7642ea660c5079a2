//! Confusion-matrix reporting for the classification experiments.
//!
//! Table 8 reports only error rates; when a synthetic stand-in dataset
//! behaves unexpectedly, the confusion matrix shows *which* classes
//! collide — the diagnostic used while calibrating the generators (see
//! `EXPERIMENTS.md`, rendered by `python3 scripts/render_experiments.py`
//! and not committed).

use crate::report::Table;
use rotind_distance::measure::Measure;
use rotind_index::engine::{Invariance, RotationQuery};
use rotind_shape::Dataset;

/// A square confusion matrix: `counts[true][predicted]`.
#[derive(Debug, Clone)]
pub struct ConfusionMatrix {
    counts: Vec<Vec<usize>>,
    class_names: Vec<String>,
}

impl ConfusionMatrix {
    /// Leave-one-out 1-NN confusion matrix of `dataset` under `measure`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid dataset or fewer than two items.
    pub fn one_nn(dataset: &Dataset, measure: Measure) -> Self {
        assert!(dataset.validate(), "invalid dataset {}", dataset.name);
        assert!(dataset.len() >= 2, "need at least two items");
        let k = dataset.num_classes();
        let mut counts = vec![vec![0usize; k]; k];
        for i in 0..dataset.len() {
            let engine =
                RotationQuery::with_measure(&dataset.items[i], Invariance::Rotation, measure)
                    .expect("valid series");
            let hits = engine
                .k_nearest(&dataset.items, 2)
                .expect("non-empty database");
            let neighbor = hits
                .iter()
                .find(|h| h.index != i)
                .expect("a non-self neighbour exists");
            counts[dataset.labels[i]][dataset.labels[neighbor.index]] += 1;
        }
        ConfusionMatrix {
            counts,
            class_names: dataset.class_names.clone(),
        }
    }

    /// `counts[true][predicted]`.
    pub fn counts(&self) -> &[Vec<usize>] {
        &self.counts
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.counts.len()
    }

    /// Total items classified.
    pub fn total(&self) -> usize {
        self.counts.iter().flatten().sum()
    }

    /// Overall error rate (off-diagonal fraction).
    pub fn error_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: usize = (0..self.num_classes()).map(|c| self.counts[c][c]).sum();
        1.0 - correct as f64 / total as f64
    }

    /// Per-class recall (diagonal over row sum); `None` for empty classes.
    pub fn recall(&self, class: usize) -> Option<f64> {
        let row: usize = self.counts[class].iter().sum();
        (row > 0).then(|| self.counts[class][class] as f64 / row as f64)
    }

    /// The most confused class pairs `(true, predicted, count)`,
    /// descending, excluding the diagonal.
    pub fn top_confusions(&self, limit: usize) -> Vec<(usize, usize, usize)> {
        let mut pairs: Vec<(usize, usize, usize)> = Vec::new();
        for t in 0..self.num_classes() {
            for p in 0..self.num_classes() {
                if t != p && self.counts[t][p] > 0 {
                    pairs.push((t, p, self.counts[t][p]));
                }
            }
        }
        pairs.sort_by_key(|p| std::cmp::Reverse(p.2));
        pairs.truncate(limit);
        pairs
    }

    /// Render per-class recall and the top confusions as a table.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(["class", "recall", "most confused with"]);
        for c in 0..self.num_classes() {
            let worst = (0..self.num_classes())
                .filter(|&p| p != c)
                .max_by_key(|&p| self.counts[c][p])
                .filter(|&p| self.counts[c][p] > 0);
            table.push_row([
                self.class_names[c].clone(),
                self.recall(c)
                    .map_or("-".to_string(), |r| format!("{:.1}%", 100.0 * r)),
                worst.map_or("-".to_string(), |p| {
                    format!("{} ({})", self.class_names[p], self.counts[c][p])
                }),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rotind_ts::rotate::rotated;

    fn two_class_dataset(m: usize, n: usize, separable: bool) -> Dataset {
        let mut rng = StdRng::seed_from_u64(9);
        let mut items = Vec::new();
        let mut labels = Vec::new();
        for i in 0..m {
            let label = i % 2;
            let freq = if label == 0 || !separable { 1.0 } else { 3.0 };
            let base: Vec<f64> = (0..n)
                .map(|j| (freq * std::f64::consts::TAU * j as f64 / n as f64).sin())
                .collect();
            let noisy: Vec<f64> = base
                .iter()
                .map(|v| v + 0.01 * rng.random_range(-1.0..1.0))
                .collect();
            items.push(rotated(&noisy, rng.random_range(0..n)));
            labels.push(label);
        }
        Dataset {
            name: "two-class".to_string(),
            items,
            labels,
            class_names: vec!["a".into(), "b".into()],
        }
    }

    #[test]
    fn perfect_separation_is_diagonal() {
        let ds = two_class_dataset(16, 32, true);
        let cm = ConfusionMatrix::one_nn(&ds, Measure::Euclidean);
        assert_eq!(cm.error_rate(), 0.0);
        assert_eq!(cm.total(), 16);
        assert_eq!(cm.recall(0), Some(1.0));
        assert_eq!(cm.recall(1), Some(1.0));
        assert!(cm.top_confusions(5).is_empty());
    }

    #[test]
    fn identical_classes_confuse_heavily() {
        let ds = two_class_dataset(16, 32, false);
        let cm = ConfusionMatrix::one_nn(&ds, Measure::Euclidean);
        assert!(cm.error_rate() > 0.2, "error {}", cm.error_rate());
        assert!(!cm.top_confusions(5).is_empty());
    }

    #[test]
    fn agrees_with_one_nn_error() {
        let ds = two_class_dataset(20, 24, true);
        let cm = ConfusionMatrix::one_nn(&ds, Measure::Euclidean);
        let r = crate::onenn::one_nn_error(&ds, Measure::Euclidean);
        assert!((cm.error_rate() - r.error_rate()).abs() < 1e-12);
    }

    #[test]
    fn table_renders() {
        let ds = two_class_dataset(12, 24, false);
        let text = ConfusionMatrix::one_nn(&ds, Measure::Euclidean)
            .to_table()
            .render();
        assert!(text.contains("class"));
        assert!(text.contains('a') && text.contains('b'));
    }
}
