//! Property and golden-value tests of the substrate crates: the FFT
//! stack against analytically known transforms, the VP-tree against
//! linear scans, clustering determinism, and the resampling/normalising
//! pipeline.

use proptest::prelude::*;
use rotind::cluster::linkage::{cluster_series, Linkage};
use rotind::fft::bluestein::bluestein;
use rotind::fft::fft::fft;
use rotind::fft::Complex;
use rotind::index::stream::StreamFilter;
use rotind::index::vptree::{BoundKind, VpTree};
use rotind::ts::normalize::z_normalize_lossy;
use rotind::ts::resample::resample_circular;
use rotind::ts::StepCounter;

fn euclid(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

// ---------------------------------------------------------------------
// FFT golden values
// ---------------------------------------------------------------------

#[test]
fn fft_golden_values() {
    // DFT([1, 0, 0, 0]) = [1, 1, 1, 1].
    let impulse: Vec<Complex> = [1.0, 0.0, 0.0, 0.0]
        .iter()
        .map(|&x| Complex::real(x))
        .collect();
    for z in fft(&impulse) {
        assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
    }
    // DFT([1, 1, 1, 1]) = [4, 0, 0, 0].
    let dc: Vec<Complex> = vec![Complex::ONE; 4];
    let spec = fft(&dc);
    assert!((spec[0].re - 4.0).abs() < 1e-12);
    for z in &spec[1..] {
        assert!(z.abs() < 1e-12);
    }
    // DFT([0,1,0,-1]) = [0, -2i, 0, 2i] (a pure sine at bin 1).
    let sine: Vec<Complex> = [0.0, 1.0, 0.0, -1.0]
        .iter()
        .map(|&x| Complex::real(x))
        .collect();
    let spec = fft(&sine);
    assert!(spec[0].abs() < 1e-12);
    assert!((spec[1].im + 2.0).abs() < 1e-12 && spec[1].re.abs() < 1e-12);
    assert!(spec[2].abs() < 1e-12);
    assert!((spec[3].im - 2.0).abs() < 1e-12);
    // Bluestein at n = 3: DFT([1, 2, 3]) = [6, -1.5 + 0.866i, -1.5 - 0.866i].
    let x: Vec<Complex> = [1.0, 2.0, 3.0].iter().map(|&v| Complex::real(v)).collect();
    let spec = bluestein(&x);
    assert!((spec[0].re - 6.0).abs() < 1e-9);
    assert!((spec[1].re + 1.5).abs() < 1e-9);
    assert!((spec[1].im - 0.8660254037844386).abs() < 1e-9);
    assert!((spec[2].im + 0.8660254037844386).abs() < 1e-9);
}

// ---------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------

fn points_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 3), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// VP-tree nearest neighbour equals the linear-scan oracle for
    /// arbitrary point sets (duplicates included).
    #[test]
    fn vptree_matches_linear_scan(points in points_strategy(), query in prop::collection::vec(-10.0f64..10.0, 3)) {
        let tree = VpTree::build(points.clone());
        let (best, _) = tree.best_first(
            BoundKind::MetricToPoint,
            |x| euclid(x, &query),
            |i, _bsf| euclid(&points[i], &query),
            f64::INFINITY,
        );
        let oracle = points
            .iter()
            .map(|p| euclid(p, &query))
            .fold(f64::INFINITY, f64::min);
        let (_, bd) = best.expect("non-empty point set");
        prop_assert!((bd - oracle).abs() < 1e-12);
    }

    /// Circular resampling back and forth returns close to the original
    /// for band-limited (smooth) series.
    #[test]
    fn circular_resample_roundtrip(phase in 0.0f64..6.0, cycles in 1usize..4) {
        let n = 64;
        let xs: Vec<f64> = (0..n)
            .map(|i| (cycles as f64 * std::f64::consts::TAU * i as f64 / n as f64 + phase).sin())
            .collect();
        let up = resample_circular(&xs, 4 * n).unwrap();
        let back = resample_circular(&up, n).unwrap();
        for (a, b) in xs.iter().zip(&back) {
            prop_assert!((a - b).abs() < 0.02, "{a} vs {b}");
        }
    }

    /// z-normalisation is idempotent (up to FP) and shift/scale invariant.
    #[test]
    fn z_normalize_idempotent(xs in prop::collection::vec(-100.0f64..100.0, 4..64)) {
        let z1 = z_normalize_lossy(&xs);
        let z2 = z_normalize_lossy(&z1);
        for (a, b) in z1.iter().zip(&z2) {
            prop_assert!((a - b).abs() < 1e-9);
        }
        let shifted: Vec<f64> = xs.iter().map(|x| 3.0 * x - 7.0).collect();
        let zs = z_normalize_lossy(&shifted);
        for (a, b) in z1.iter().zip(&zs) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    /// Clustering is deterministic and cutting yields exact partitions at
    /// every K.
    #[test]
    fn clustering_partitions(seed in 0u64..1000) {
        let m = 12;
        let series: Vec<Vec<f64>> = (0..m)
            .map(|k| {
                (0..8)
                    .map(|i| ((k as u64 * 31 + i as u64 * 7 + seed) % 17) as f64)
                    .collect()
            })
            .collect();
        let a = cluster_series(&series, Linkage::Average);
        let b = cluster_series(&series, Linkage::Average);
        prop_assert_eq!(a.merges().len(), b.merges().len());
        for (x, y) in a.merges().iter().zip(b.merges()) {
            prop_assert_eq!(x.left, y.left);
            prop_assert_eq!(x.right, y.right);
        }
        for k in 1..=m {
            let cut = a.cut(k);
            prop_assert_eq!(cut.len(), k);
            let mut all: Vec<usize> = cut.concat();
            all.sort_unstable();
            prop_assert_eq!(all, (0..m).collect::<Vec<_>>());
        }
    }

    /// The stream filter reports exactly the naive sliding-window matches.
    #[test]
    fn stream_filter_equals_naive(
        stream in prop::collection::vec(-3.0f64..3.0, 20..80),
        threshold in 0.5f64..4.0,
    ) {
        let patterns = vec![
            (0..8).map(|i| (i as f64 * 0.9).sin()).collect::<Vec<f64>>(),
            (0..8).map(|i| (i as f64 * 0.3).cos()).collect::<Vec<f64>>(),
        ];
        let mut filter = StreamFilter::new(
            patterns.clone(),
            vec![threshold, threshold],
            rotind::distance::Measure::Euclidean,
        )
        .unwrap();
        let fast = filter.scan(&stream, &mut StepCounter::new());
        let mut naive = Vec::new();
        for end in 7..stream.len() {
            let window = &stream[end - 7..=end];
            for (p, pat) in patterns.iter().enumerate() {
                if euclid(window, pat) <= threshold {
                    naive.push((p, end));
                }
            }
        }
        prop_assert_eq!(fast.len(), naive.len());
        for (m, (p, end)) in fast.iter().zip(&naive) {
            prop_assert_eq!(m.pattern, *p);
            prop_assert_eq!(m.end_position, *end);
        }
    }
}
