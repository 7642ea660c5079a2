//! Property tests of every admissibility claim in the lower-bound
//! chain (DESIGN.md §6): Proposition 1, Proposition 2, the LCSS
//! envelope bound, the Fourier magnitude bound, the PAA projections and
//! the convolution trick.

use proptest::prelude::*;
use rotind::distance::dtw::{dtw, DtwParams};
use rotind::distance::euclidean::euclidean;
use rotind::distance::lcss::{lcss_distance, LcssParams};
use rotind::envelope::lb_keogh::{lb_keogh, lcss_distance_lower_bound};
use rotind::envelope::{Wedge, WedgeTree};
use rotind::fft::convolution::min_shift_euclidean;
use rotind::fft::lower_bound::fourier_lower_bound;
use rotind::index::reduced::{Paa, PaaWedgeSet};
use rotind::ts::rotate::{rotated, RotationMatrix};
use rotind::ts::StepCounter;

fn series_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-4.0f64..4.0, n)
}

fn rows_strategy(n: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::btree_set(0usize..n, 1..=n).prop_map(|s| s.into_iter().collect())
}

fn min_rotation_ed(q: &[f64], c: &[f64]) -> f64 {
    (0..c.len())
        .map(|s| euclidean(q, &rotated(c, s)))
        .fold(f64::INFINITY, f64::min)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Proposition 1: LB_Keogh lower-bounds ED to every wedge member.
    #[test]
    fn prop1_lb_keogh(
        base in series_strategy(16),
        q in series_strategy(16),
        rows in rows_strategy(16),
    ) {
        let matrix = RotationMatrix::full(&base).unwrap();
        let wedge = Wedge::from_rows(&matrix, &rows);
        let lb = lb_keogh(&q, &wedge, &mut StepCounter::new());
        for &row in &rows {
            let d = euclidean(&q, &matrix.row(row).to_vec());
            prop_assert!(lb <= d + 1e-9, "row {}: {} > {}", row, lb, d);
        }
    }

    /// Proposition 2: the band-widened wedge lower-bounds DTW.
    #[test]
    fn prop2_lb_keogh_dtw(
        base in series_strategy(14),
        q in series_strategy(14),
        rows in rows_strategy(14),
        band in 0usize..6,
    ) {
        let matrix = RotationMatrix::full(&base).unwrap();
        let wedge = Wedge::from_rows(&matrix, &rows).widened(band);
        let lb = lb_keogh(&q, &wedge, &mut StepCounter::new());
        for &row in &rows {
            let d = dtw(
                &q,
                &matrix.row(row).to_vec(),
                DtwParams::new(band),
                &mut StepCounter::new(),
            );
            prop_assert!(lb <= d + 1e-9, "row {}: {} > {}", row, lb, d);
        }
    }

    /// The LCSS envelope bound lower-bounds the LCSS distance form.
    #[test]
    fn lcss_envelope_bound(
        base in series_strategy(12),
        q in series_strategy(12),
        rows in rows_strategy(12),
        eps in 0.01f64..1.5,
        delta in 0usize..5,
    ) {
        let params = LcssParams::new(eps, delta);
        let matrix = RotationMatrix::full(&base).unwrap();
        let wedge = Wedge::from_rows(&matrix, &rows);
        let lb = lcss_distance_lower_bound(&q, &wedge, params, &mut StepCounter::new());
        for &row in &rows {
            let d = lcss_distance(&q, &matrix.row(row).to_vec(), params, &mut StepCounter::new());
            prop_assert!(lb <= d + 1e-9, "row {}: {} > {}", row, lb, d);
        }
    }

    /// LCSS bound edge: δ = 0 removes all temporal slack, so the
    /// matching envelope is the unwidened wedge — the bound must stay
    /// admissible against the δ = 0 distance for every ε, including
    /// ε = 0 (exact-value matching only).
    #[test]
    fn lcss_envelope_bound_delta_zero(
        base in series_strategy(12),
        q in series_strategy(12),
        rows in rows_strategy(12),
        eps in 0.0f64..1.5,
    ) {
        let params = LcssParams::new(eps, 0);
        let matrix = RotationMatrix::full(&base).unwrap();
        let wedge = Wedge::from_rows(&matrix, &rows);
        let lb = lcss_distance_lower_bound(&q, &wedge, params, &mut StepCounter::new());
        for &row in &rows {
            let d = lcss_distance(&q, &matrix.row(row).to_vec(), params, &mut StepCounter::new());
            prop_assert!(lb <= d + 1e-9, "row {}: {} > {}", row, lb, d);
        }
    }

    /// LCSS bound edge: ε wide enough to match any pair of samples. The
    /// true distance collapses to 0 (every position matches), so the
    /// bound must also report 0 — anything positive would be a false
    /// dismissal at radius 0.
    #[test]
    fn lcss_envelope_bound_huge_epsilon(
        base in series_strategy(12),
        q in series_strategy(12),
        rows in rows_strategy(12),
        delta in 0usize..5,
    ) {
        // Samples are drawn from (-4, 4), so ε = 16 covers every pair.
        let params = LcssParams::new(16.0, delta);
        let matrix = RotationMatrix::full(&base).unwrap();
        let wedge = Wedge::from_rows(&matrix, &rows);
        let lb = lcss_distance_lower_bound(&q, &wedge, params, &mut StepCounter::new());
        prop_assert_eq!(lb, 0.0, "all-matching epsilon must give a zero bound");
        for &row in &rows {
            let d = lcss_distance(&q, &matrix.row(row).to_vec(), params, &mut StepCounter::new());
            prop_assert_eq!(d, 0.0, "row {}: everything matches at this epsilon", row);
        }
    }

    /// The Fourier magnitude distance lower-bounds the min-rotation ED.
    #[test]
    fn fourier_bound(q in series_strategy(16), c in series_strategy(16)) {
        let lb = fourier_lower_bound(&q, &c, &mut StepCounter::new());
        let exact = min_rotation_ed(&q, &c);
        prop_assert!(lb <= exact + 1e-7, "{} > {}", lb, exact);
    }

    /// The convolution trick equals the brute-force min-shift distance.
    #[test]
    fn convolution_is_exact(q in series_strategy(20), c in series_strategy(20)) {
        let (fast, shift) = min_shift_euclidean(&q, &c);
        let brute = min_rotation_ed(&q, &c);
        prop_assert!((fast - brute).abs() < 1e-7);
        let at_shift = euclidean(&q, &rotated(&c, shift));
        prop_assert!((at_shift - fast).abs() < 1e-7);
    }

    /// The PAA wedge-set bound lower-bounds the rotation-invariant DTW
    /// distance for every cut size and dimensionality.
    #[test]
    fn paa_wedge_set_bound(
        base in series_strategy(16),
        q in series_strategy(16),
        band in 0usize..4,
        k in 1usize..17,
        d in 1usize..17,
    ) {
        let tree = WedgeTree::new(RotationMatrix::full(&base).unwrap(), band);
        let cut = tree.cut_nodes(k);
        let wedges: Vec<&Wedge> = cut.iter().map(|&node| tree.lb_wedge(node)).collect();
        let set = PaaWedgeSet::new(&wedges, d);
        let lb = set.lower_bound(&Paa::of(&q, d), &mut StepCounter::new());
        let exact = (0..base.len())
            .map(|s| {
                dtw(
                    &q,
                    &rotated(&base, s),
                    DtwParams::new(band),
                    &mut StepCounter::new(),
                )
            })
            .fold(f64::INFINITY, f64::min);
        prop_assert!(lb <= exact + 1e-9, "k={} d={}: {} > {}", k, d, lb, exact);
    }

    /// Envelope containment: every member stays within its wedge, and
    /// within every ancestor wedge of the hierarchy.
    #[test]
    fn hierarchy_containment(base in series_strategy(12), band in 0usize..4) {
        let tree = WedgeTree::new(RotationMatrix::full(&base).unwrap(), band);
        for node in 0..tree.dendrogram().num_nodes() {
            for leaf in tree.dendrogram().members(node) {
                let series = tree.matrix().row(leaf).to_vec();
                prop_assert!(tree.wedge(node).contains(&series));
                prop_assert!(tree.lb_wedge(node).contains(&series));
            }
        }
    }

    /// DTW sanity chain: banded DTW is monotone in the band and never
    /// exceeds Euclidean distance.
    #[test]
    fn dtw_band_monotonicity(q in series_strategy(14), c in series_strategy(14)) {
        let ed = euclidean(&q, &c);
        let mut last = f64::INFINITY;
        for band in 0..6 {
            let d = dtw(&q, &c, DtwParams::new(band), &mut StepCounter::new());
            prop_assert!(d <= last + 1e-9);
            prop_assert!(d <= ed + 1e-9);
            last = d;
        }
        let d0 = dtw(&q, &c, DtwParams::new(0), &mut StepCounter::new());
        prop_assert!((d0 - ed).abs() < 1e-9, "R = 0 must equal ED");
    }
}
