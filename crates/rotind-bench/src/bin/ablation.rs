//! Ablation studies over the design choices DESIGN.md calls out:
//!
//! 1. **Wedge-set size policy** — fixed K across the range vs the
//!    paper's dynamic controller (Section 4.1 argues no single K wins).
//! 2. **Wedge-derivation linkage** — the paper clusters rotations with
//!    group-average linkage; how much do the alternatives cost?
//! 3. **DTW envelope widening** — lower-bound tightness (and hence
//!    pruning) as a function of the band R (Proposition 2's trade-off).
//! 4. **Probe-interval sensitivity** — the paper: any interval count in
//!    `3..=20` changes performance by less than 4%.
//!
//! `ROTIND_QUICK=1` shrinks the workload.

use rotind_bench::BenchError;
use rotind_cluster::linkage::Linkage;
use rotind_distance::{DtwParams, Measure};
use rotind_envelope::lb_keogh::lb_keogh;
use rotind_envelope::WedgeTree;
use rotind_eval::report::{fmt_ratio, Table};
use rotind_index::engine::{Invariance, KPolicy, RotationQuery};
use rotind_index::hmerge::h_merge;
use rotind_index::QueryKind;
use rotind_obs::{NoBudget, NoopObserver};
use rotind_shape::dataset::projectile_points;
use rotind_ts::rotate::RotationMatrix;
use rotind_ts::StepCounter;
use std::process::ExitCode;

fn run() -> Result<(), BenchError> {
    let quick = rotind_bench::quick_mode();
    let n = if quick { 64 } else { 251 };
    let m = if quick { 200 } else { 2000 };
    let num_queries = if quick { 3 } else { 10 };
    let ds = projectile_points(m + num_queries, n, 4242);
    let db: Vec<Vec<f64>> = ds.items[..m].to_vec();
    let queries: Vec<&Vec<f64>> = ds.items[m..].iter().collect();

    // 1. K policy.
    let mut k_table = Table::new(["policy", "avg steps/query", "vs dynamic"]);
    let run_policy = |policy: KPolicy| -> Result<u64, BenchError> {
        let mut total = 0u64;
        for q in &queries {
            let engine = RotationQuery::new(q, Invariance::Rotation)?.with_k_policy(policy);
            let mut counter = StepCounter::new();
            engine.search(
                &db,
                QueryKind::Nearest,
                &mut counter,
                &mut NoopObserver,
                &mut NoBudget,
                None,
            )?;
            total += counter.steps();
        }
        Ok(total / queries.len() as u64)
    };
    let dynamic = run_policy(KPolicy::Dynamic)?;
    k_table.push_row(["dynamic".to_string(), dynamic.to_string(), fmt_ratio(1.0)]);
    let mut ks: Vec<usize> = [1usize, 2, 4, 8, 16, 32, 64, n]
        .into_iter()
        .filter(|&k| k <= n)
        .collect();
    ks.dedup();
    for k in ks {
        let steps = run_policy(KPolicy::Fixed(k))?;
        k_table.push_row([
            format!("fixed K={k}"),
            steps.to_string(),
            fmt_ratio(steps as f64 / dynamic as f64),
        ]);
    }
    rotind_bench::emit("ablation_k_policy", &k_table);

    // 2. Linkage. (Dynamic policy requires an engine; measure the raw
    //    H-Merge scan at a representative fixed K per linkage instead.)
    let mut l_table = Table::new(["linkage", "avg steps/query", "vs average"]);
    let run_linkage = |linkage: Linkage| -> Result<u64, BenchError> {
        let k = 16.min(n);
        let mut total = 0u64;
        for q in &queries {
            let tree = WedgeTree::build(RotationMatrix::full(q)?, linkage, 0);
            let cut = tree.cut_nodes(k);
            let mut counter = StepCounter::new();
            let mut bsf = f64::INFINITY;
            for item in &db {
                if let Some(o) = h_merge(item, &tree, &cut, bsf, Measure::Euclidean, &mut counter) {
                    bsf = o.distance;
                }
            }
            total += counter.steps();
        }
        Ok(total / queries.len() as u64)
    };
    let average = run_linkage(Linkage::Average)?;
    for (name, linkage) in [
        ("average (paper)", Linkage::Average),
        ("single", Linkage::Single),
        ("complete", Linkage::Complete),
        ("ward", Linkage::Ward),
    ] {
        let steps = if linkage == Linkage::Average {
            average
        } else {
            run_linkage(linkage)?
        };
        l_table.push_row([
            name.to_string(),
            steps.to_string(),
            fmt_ratio(steps as f64 / average as f64),
        ]);
    }
    rotind_bench::emit("ablation_linkage", &l_table);

    // 3. DTW widening: mean LB_Keogh tightness against a K=16 wedge-set
    //    cut (the root wedge is already max/min everywhere, so the decay
    //    only shows on mid-level wedges), plus realised scan steps under
    //    the matching DTW measure.
    let mut w_table = Table::new(["band R", "mean LB vs R=0", "DTW scan steps"]);
    let query = queries[0];
    let base_tree = WedgeTree::new(RotationMatrix::full(query)?, 0);
    let cut = base_tree.cut_nodes(16.min(n));
    let mean_cut_lb = |band: usize| -> f64 {
        // Widen each cut wedge once per band, not once per (item, node):
        // the scan below is then allocation-free per item.
        let widened: Vec<_> = cut
            .iter()
            .map(|&node| base_tree.wedge(node).widened(band))
            .collect();
        db.iter()
            .map(|item| {
                widened
                    .iter()
                    .map(|wedge| lb_keogh(item, wedge, &mut StepCounter::new()))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum::<f64>()
            / db.len() as f64
    };
    let base_lb = mean_cut_lb(0);
    for band in [0usize, 1, 2, 5, 10, 20] {
        let mean_lb = mean_cut_lb(band);
        let engine = RotationQuery::with_measure(
            query,
            Invariance::Rotation,
            Measure::Dtw(DtwParams::new(band)),
        )?;
        let mut counter = StepCounter::new();
        engine.search(
            &db,
            QueryKind::Nearest,
            &mut counter,
            &mut NoopObserver,
            &mut NoBudget,
            None,
        )?;
        w_table.push_row([
            band.to_string(),
            fmt_ratio(if base_lb > 0.0 {
                mean_lb / base_lb
            } else {
                0.0
            }),
            counter.steps().to_string(),
        ]);
    }
    rotind_bench::emit("ablation_dtw_band", &w_table);

    // 4. Probe-interval sensitivity (paper: < 4% across 3..=20).
    let mut p_table = Table::new(["probe intervals", "avg steps/query", "vs 5"]);
    let run_intervals = |intervals: usize| -> Result<u64, BenchError> {
        let mut total = 0u64;
        for q in &queries {
            let engine =
                RotationQuery::new(q, Invariance::Rotation)?.with_probe_intervals(intervals);
            let mut counter = StepCounter::new();
            engine.search(
                &db,
                QueryKind::Nearest,
                &mut counter,
                &mut NoopObserver,
                &mut NoBudget,
                None,
            )?;
            total += counter.steps();
        }
        Ok(total / queries.len() as u64)
    };
    let reference = run_intervals(5)?;
    for intervals in [1usize, 3, 5, 10, 20] {
        let steps = if intervals == 5 {
            reference
        } else {
            run_intervals(intervals)?
        };
        p_table.push_row([
            intervals.to_string(),
            steps.to_string(),
            fmt_ratio(steps as f64 / reference as f64),
        ]);
    }
    rotind_bench::emit("ablation_probe_intervals", &p_table);
    Ok(())
}

fn main() -> ExitCode {
    rotind_bench::error::exit(run())
}
