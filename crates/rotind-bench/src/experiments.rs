//! The experiment implementations behind every table and figure of the
//! paper's evaluation (Section 5). Each function returns a
//! [`Table`]; the `fig*` binaries print and save them. `quick` shrinks
//! scale for smoke runs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rotind_cluster::linkage::{cluster_series, Linkage};
use rotind_cluster::matrix::DistanceMatrix;
use rotind_distance::measure::Measure;
use rotind_distance::DtwParams;
use rotind_eval::onenn::{one_nn_error, one_nn_error_dtw_learned_band};
use rotind_eval::report::{fmt_percent, fmt_ratio, Table};
use rotind_eval::scaling::{empirical_exponent, ScalingPoint};
use rotind_eval::speedup::{
    scan_steps, speedup_sweep, speedup_sweep_traced, thread_sweep, wedge_startup_steps,
    SearchAlgorithm, SweepPoint,
};
use rotind_index::disk::{IndexedDatabase, ReducedRepr};
use rotind_index::engine::{Invariance, RotationQuery};
use rotind_index::QueryKind;
use rotind_lightcurve::dataset::{classification_set, light_curves};
use rotind_obs::{NoBudget, NoopObserver, QueryTrace};
use rotind_shape::centroid::align_to_major_axis;
use rotind_shape::dataset::{self as shapes, Dataset};
use rotind_shape::generators::butterfly::{bend_hindwing, butterfly_profile, LEPIDOPTERA};
use rotind_shape::generators::skull::{skull_profile, Species, FIGURE3_TRIO, PRIMATES, REPTILES};
use rotind_ts::normalize::z_normalize_lossy;
use rotind_ts::rotate::rotated;
use rotind_ts::StepCounter;

/// Deterministic Fisher–Yates shuffle (the heterogeneous pool is
/// generated dataset-by-dataset; prefixes must mix classes).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// The per-point wedge pruning-rate columns shared by the traced
/// figures: fraction of wedge tests pruned at the cut level (L0), one
/// level below (L1), and everywhere deeper (L2+). Empty levels render
/// as `-` (a tiny database may never descend that far).
const PRUNE_HEADERS: [&str; 3] = ["wedge-prune-L0", "wedge-prune-L1", "wedge-prune-L2+"];

fn prune_cells(trace: &QueryTrace) -> [String; 3] {
    let cell = |rate: Option<f64>| rate.map(fmt_ratio).unwrap_or_else(|| "-".to_string());
    [
        cell(trace.prune_rate(0)),
        cell(trace.prune_rate(1)),
        cell(trace.prune_rate_from(2)),
    ]
}

fn sweep_table(points: &[(SweepPoint, QueryTrace)], algorithms: &[SearchAlgorithm]) -> Table {
    let mut headers = vec!["m".to_string()];
    headers.extend(algorithms.iter().map(|a| a.name().to_string()));
    headers.extend(PRUNE_HEADERS.iter().map(|h| h.to_string()));
    let mut table = Table::new(headers);
    for (pt, trace) in points {
        let mut row = vec![pt.m.to_string()];
        for alg in algorithms {
            let r = pt
                .ratios
                .iter()
                .find(|(a, _)| a == alg)
                .map(|(_, r)| *r)
                .unwrap_or(f64::NAN);
            row.push(fmt_ratio(r));
        }
        row.extend(prune_cells(trace));
        table.push_row(row);
    }
    table
}

// ---------------------------------------------------------------------
// Table 8 — classification error
// ---------------------------------------------------------------------

/// Paper reference numbers for Table 8: (name, ED error, DTW error, R).
pub const TABLE8_PAPER: [(&str, f64, f64, usize); 10] = [
    ("Face", 0.03839, 0.03170, 3),
    ("SwedishLeaf", 0.1333, 0.1084, 2),
    ("Chicken", 0.1996, 0.1996, 1),
    ("MixedBag", 0.04375, 0.04375, 1),
    ("OSULeaf", 0.3371, 0.1561, 2),
    ("Diatom", 0.2753, 0.2753, 1),
    ("Aircraft", 0.0095, 0.0, 3),
    ("Fish", 0.1143, 0.0971, 1),
    ("LightCurve", 0.1415, 0.1143, 3),
    ("Yoga", 0.0470, 0.0485, 1),
];

/// Table 8: 1-NN leave-one-out error under rotation-invariant Euclidean
/// and DTW (band learned on a training subsample), on the ten synthetic
/// stand-in datasets.
pub fn table8(quick: bool) -> Table {
    let seed = 20060900; // VLDB 2006
    let mut datasets: Vec<Dataset> = vec![
        shapes::face(seed),
        shapes::swedish_leaf(seed + 1),
        shapes::chicken(seed + 2),
        shapes::mixed_bag(seed + 3),
        shapes::osu_leaf(seed + 4),
        shapes::diatom(seed + 5),
        shapes::aircraft(seed + 6),
        shapes::fish(seed + 7),
        classification_set(seed + 8),
        shapes::yoga(seed + 9),
    ];
    if quick {
        datasets = datasets
            .into_iter()
            .map(|d| {
                let keep = (d.num_classes() * 8).min(d.len());
                d.subsample(keep, seed + 100)
            })
            .collect();
    }
    let mut table = Table::new([
        "Name",
        "Classes",
        "Instances",
        "Euclidean Error",
        "DTW Error {R}",
        "Paper ED",
        "Paper DTW {R}",
    ]);
    for (ds, paper) in datasets.iter().zip(TABLE8_PAPER.iter()) {
        let ed = one_nn_error(ds, Measure::Euclidean);
        let (band, dtw) = one_nn_error_dtw_learned_band(ds, &[1, 2, 3, 5, 7], 0.3, seed + 50);
        table.push_row([
            ds.name.clone(),
            ds.num_classes().to_string(),
            ds.len().to_string(),
            fmt_percent(ed.error_rate()),
            format!("{} {{{band}}}", fmt_percent(dtw.error_rate())),
            fmt_percent(paper.1),
            format!("{} {{{}}}", fmt_percent(paper.2), paper.3),
        ]);
    }
    table
}

// ---------------------------------------------------------------------
// Figures 3 / 16 / 17 / 18 — clustering sanity checks
// ---------------------------------------------------------------------

const SKULL_LEN: usize = 128;

fn skull_series(sp: &Species, jitter: f64, rng: &mut StdRng) -> Vec<f64> {
    let profile = skull_profile(&sp.params, 4 * SKULL_LEN, jitter, rng);
    let series =
        rotind_shape::centroid::radial_profile_to_series(&profile, SKULL_LEN).expect("non-empty");
    z_normalize_lossy(&series)
}

/// Rotation-invariant distance matrix over a set of series.
fn invariant_matrix(series: &[Vec<f64>], measure: Measure) -> DistanceMatrix {
    let engines: Vec<RotationQuery> = series
        .iter()
        .map(|s| {
            RotationQuery::with_measure(s, Invariance::Rotation, measure).expect("valid series")
        })
        .collect();
    DistanceMatrix::from_fn(series.len(), |i, j| {
        engines[i].distance_to(&series[j]).expect("equal lengths")
    })
}

/// Do leaves `a` and `b` form a sibling pair (share a parent) in the
/// dendrogram?
fn are_siblings(dend: &rotind_cluster::Dendrogram, a: usize, b: usize) -> bool {
    dend.merges()
        .iter()
        .any(|m| (m.left == a && m.right == b) || (m.left == b && m.right == a))
}

/// Figure 3: landmark (major-axis) alignment vs best-rotation alignment
/// on three primate skulls — two congeneric owl monkeys and an
/// orangutan. Prints both dendrograms; the table reports whether each
/// method pairs the congeners.
pub fn fig03() -> Table {
    let mut rng = StdRng::seed_from_u64(3);
    let mut series: Vec<Vec<f64>> = FIGURE3_TRIO
        .iter()
        .map(|sp| skull_series(sp, 0.2, &mut rng))
        .collect();
    // "A small amount of rotation error results in a large difference":
    // present each skull at a random rotation, and give specimen B the
    // paper's single-extra-pixel analogue — a small protrusion at 90° to
    // its current major axis, sized to just overtake it (Zunic et al.
    // [45] show one pixel can rotate the major axis by 90°). The
    // protrusion barely moves the rotation-invariant distance but swings
    // the landmark by a quarter turn.
    for s in series.iter_mut() {
        let shift = rng.random_range(0..SKULL_LEN);
        *s = rotated(s, shift);
    }
    {
        let s = &mut series[1];
        let n = s.len();
        // Current major-axis position: argmax of r(i)² + r(i+n/2)².
        let axis = (0..n)
            .max_by(|&a, &b| {
                let da = s[a] * s[a] + s[(a + n / 2) % n] * s[(a + n / 2) % n];
                let db = s[b] * s[b] + s[(b + n / 2) % n] * s[(b + n / 2) % n];
                da.total_cmp(&db)
            })
            .expect("non-empty");
        let d_axis = s[axis] * s[axis] + s[(axis + n / 2) % n] * s[(axis + n / 2) % n];
        let p = (axis + n / 4) % n;
        let needed = (d_axis - s[(p + n / 2) % n] * s[(p + n / 2) % n]).max(0.0);
        s[p] = s[p].max(needed.sqrt() + 0.3);
    }

    let names: Vec<&str> = FIGURE3_TRIO.iter().map(|sp| sp.name).collect();

    // Landmark method: rotate every series to its major axis, then plain
    // Euclidean clustering.
    let landmarked: Vec<Vec<f64>> = series.iter().map(|s| align_to_major_axis(s)).collect();
    let landmark_dend = cluster_series(&landmarked, Linkage::Average);
    println!(
        "Landmark (major axis) alignment:\n{}",
        landmark_dend.render(&names)
    );

    // Best rotation: rotation-invariant distances.
    let matrix = invariant_matrix(&series, Measure::Euclidean);
    let best_dend = rotind_cluster::linkage::cluster(&matrix, Linkage::Average);
    println!("Best rotation alignment:\n{}", best_dend.render(&names));

    let mut table = Table::new(["method", "owl monkeys paired", "verdict"]);
    for (method, dend) in [("landmark", &landmark_dend), ("best-rotation", &best_dend)] {
        let paired = are_siblings(dend, 0, 1);
        table.push_row([
            method.to_string(),
            paired.to_string(),
            if paired {
                "correct".into()
            } else {
                "biologically meaningless".to_string()
            },
        ]);
    }
    table
}

/// Figure 16: group-average clustering of eight primate skulls under
/// rotation-invariant Euclidean distance. The table reports, per
/// group, whether its two specimens form a sibling pair.
pub fn fig16() -> Table {
    let mut rng = StdRng::seed_from_u64(16);
    let series: Vec<Vec<f64>> = PRIMATES
        .iter()
        .map(|sp| {
            let s = skull_series(sp, 0.25, &mut rng);
            let shift = rng.random_range(0..SKULL_LEN);
            rotated(&s, shift)
        })
        .collect();
    let matrix = invariant_matrix(&series, Measure::Euclidean);
    let dend = rotind_cluster::linkage::cluster(&matrix, Linkage::Average);
    let names: Vec<&str> = PRIMATES.iter().map(|sp| sp.name).collect();
    println!("{}", dend.render(&names));
    let ccc = rotind_cluster::cophenetic::cophenetic_correlation(&dend, &matrix);

    let mut table = Table::new(["group", "members", "siblings"]);
    for pair in [(0usize, 1usize), (2, 3), (4, 5), (6, 7)] {
        table.push_row([
            PRIMATES[pair.0].group.to_string(),
            format!("{} + {}", PRIMATES[pair.0].name, PRIMATES[pair.1].name),
            are_siblings(&dend, pair.0, pair.1).to_string(),
        ]);
    }
    table.push_row([
        "cophenetic correlation".to_string(),
        format!("{ccc:.3}"),
        String::new(),
    ]);
    table
}

/// Figure 17: group-average clustering of fourteen reptile skulls under
/// rotation-invariant DTW. The table reports the purity of each
/// taxonomic group at the five-cluster cut.
pub fn fig17() -> Table {
    let mut rng = StdRng::seed_from_u64(17);
    let series: Vec<Vec<f64>> = REPTILES
        .iter()
        .map(|sp| {
            let s = skull_series(sp, 0.2, &mut rng);
            let shift = rng.random_range(0..SKULL_LEN);
            rotated(&s, shift)
        })
        .collect();
    let measure = Measure::Dtw(DtwParams::new(3));
    let matrix = invariant_matrix(&series, measure);
    let dend = rotind_cluster::linkage::cluster(&matrix, Linkage::Average);
    let names: Vec<&str> = REPTILES.iter().map(|sp| sp.name).collect();
    println!("{}", dend.render(&names));

    // Purity at the K = number-of-groups cut.
    let groups: Vec<&str> = REPTILES.iter().map(|sp| sp.group).collect();
    let unique: Vec<&str> = {
        let mut u = groups.clone();
        u.dedup();
        let mut seen = Vec::new();
        for g in u {
            if !seen.contains(&g) {
                seen.push(g);
            }
        }
        seen
    };
    let ccc = rotind_cluster::cophenetic::cophenetic_correlation(&dend, &matrix);
    let cut = dend.cut(unique.len());
    let mut table = Table::new(["cluster", "dominant group", "purity", "size"]);
    for (i, members) in cut.iter().enumerate() {
        let mut counts: Vec<(&str, usize)> = Vec::new();
        for &m in members {
            match counts.iter_mut().find(|(g, _)| *g == groups[m]) {
                Some((_, c)) => *c += 1,
                None => counts.push((groups[m], 1)),
            }
        }
        let (dom, c) = counts.iter().max_by_key(|(_, c)| *c).expect("non-empty");
        table.push_row([
            i.to_string(),
            dom.to_string(),
            fmt_percent(*c as f64 / members.len() as f64),
            members.len().to_string(),
        ]);
    }
    table.push_row([
        "cophenetic correlation".to_string(),
        format!("{ccc:.3}"),
        String::new(),
        String::new(),
    ]);
    table
}

/// Figure 18: three Lepidoptera plus articulated ("bent hindwing")
/// copies, clustered under rotation-invariant Euclidean distance. The
/// correct outcome pairs every bent copy with its original.
pub fn fig18() -> Table {
    let mut rng = StdRng::seed_from_u64(18);
    let n = 128;
    let mut series: Vec<Vec<f64>> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for sp in &LEPIDOPTERA {
        let profile = butterfly_profile(&sp.params, 4 * n, 0.0, &mut rng);
        let bent = bend_hindwing(&profile, 0.18);
        for (label, p) in [("", &profile), (" (bent wing)", &bent)] {
            let s = rotind_shape::centroid::radial_profile_to_series(p, n).expect("non-empty");
            let s = z_normalize_lossy(&s);
            let shift = rng.random_range(0..n);
            series.push(rotated(&s, shift));
            names.push(format!("{}{}", sp.name, label));
        }
    }
    let matrix = invariant_matrix(&series, Measure::Euclidean);
    let dend = rotind_cluster::linkage::cluster(&matrix, Linkage::Average);
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    println!("{}", dend.render(&name_refs));

    let mut table = Table::new(["specimen", "bent copy paired with original"]);
    #[allow(clippy::needless_range_loop)] // index used across multiple slices
    for i in 0..LEPIDOPTERA.len() {
        table.push_row([
            LEPIDOPTERA[i].name.to_string(),
            are_siblings(&dend, 2 * i, 2 * i + 1).to_string(),
        ]);
    }
    table
}

// ---------------------------------------------------------------------
// Figures 19–23 — steps-ratio sweeps
// ---------------------------------------------------------------------

/// Query count per database size: the paper averages 50 runs; the huge
/// sizes get fewer to keep wall time sane (documented in
/// EXPERIMENTS.md).
fn queries_for(m: usize, quick: bool) -> usize {
    if quick {
        3
    } else if m <= 2000 {
        15
    } else {
        6
    }
}

fn run_sweep(
    pool: &[Vec<f64>],
    sizes: &[usize],
    measure: Measure,
    algorithms: &[SearchAlgorithm],
    quick: bool,
) -> Vec<(SweepPoint, QueryTrace)> {
    sizes
        .iter()
        .map(|&m| {
            let q = queries_for(m, quick);
            speedup_sweep_traced(pool, &[m], q, measure, algorithms)
                .pop()
                .expect("one point per size")
        })
        .collect()
}

/// The paper's Figure 19/20 size axis.
pub fn projectile_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![32, 128, 512]
    } else {
        vec![32, 64, 125, 250, 500, 1000, 2000, 4000, 8000, 16000]
    }
}

/// A pool of projectile-point series: the largest database size plus
/// enough extra items to serve as queries.
pub fn projectile_pool(quick: bool) -> Vec<Vec<f64>> {
    let max = *projectile_sizes(quick).last().expect("non-empty sizes");
    let n = 251;
    shapes::projectile_points(max + 64, n, 1906).items
}

/// Figure 19: Projectile Points (n = 251), Euclidean; brute force, FFT,
/// early abandon and wedge, as step ratios to brute force.
pub fn fig19(quick: bool) -> Table {
    let pool = projectile_pool(quick);
    let algorithms = [
        SearchAlgorithm::BruteForce,
        SearchAlgorithm::Fft,
        SearchAlgorithm::EarlyAbandon,
        SearchAlgorithm::Wedge,
    ];
    let points = run_sweep(
        &pool,
        &projectile_sizes(quick),
        Measure::Euclidean,
        &algorithms,
        quick,
    );
    sweep_table(&points, &algorithms)
}

/// Figure 20: Projectile Points, DTW. "Brute force" is unconstrained
/// DTW; "brute force R=5" the banded one; early abandon and wedge both
/// use R = 5. The inset of the paper (m = 16,000) is the last row.
pub fn fig20(quick: bool) -> Table {
    let pool = projectile_pool(quick);
    let n = pool[0].len();
    let banded = Measure::Dtw(DtwParams::new(5));
    let unconstrained = Measure::Dtw(DtwParams::new(n - 1));
    let sizes = projectile_sizes(quick);
    let algorithms = [SearchAlgorithm::EarlyAbandon, SearchAlgorithm::Wedge];

    let mut headers = vec![
        "m",
        "brute-force",
        "brute-force-R5",
        "early-abandon",
        "wedge",
    ];
    headers.extend(PRUNE_HEADERS);
    let mut table = Table::new(headers);
    for &m in &sizes {
        let q = queries_for(m, quick);
        let brute_unc = rotind_eval::speedup::brute_force_steps(m, n, n, unconstrained) as f64;
        let brute_banded = rotind_eval::speedup::brute_force_steps(m, n, n, banded) as f64;
        let mut row = vec![
            m.to_string(),
            fmt_ratio(1.0),
            fmt_ratio(brute_banded / brute_unc),
        ];
        let (point, trace) = speedup_sweep_traced(&pool, &[m], q, banded, &algorithms)
            .pop()
            .expect("one point");
        for (_, ratio_banded) in &point.ratios {
            // speedup_sweep normalises by the banded brute force; rescale
            // to the unconstrained denominator used in Figure 20.
            row.push(fmt_ratio(ratio_banded * brute_banded / brute_unc));
        }
        row.extend(prune_cells(&trace));
        table.push_row(row);
    }
    table
}

/// Heterogeneous pool (length 1,024): all shape datasets + projectile
/// points + light curves, shuffled.
pub fn heterogeneous_pool(quick: bool) -> Vec<Vec<f64>> {
    let n = 1024;
    let mut items = if quick {
        let mut ds = shapes::mixed_bag(77).resampled(n).items;
        ds.extend(shapes::projectile_points(400, n, 78).items);
        ds
    } else {
        let mut ds = shapes::heterogeneous(n, 77).items;
        ds.extend(light_curves(954, n, 79).items);
        ds
    };
    shuffle(&mut items, 4242);
    items
}

/// Figure 21 size axis.
pub fn heterogeneous_sizes(pool_len: usize, quick: bool) -> Vec<usize> {
    let base = if quick {
        vec![32, 128, 400]
    } else {
        vec![32, 64, 125, 250, 500, 1000, 2000, 4000, 5500]
    };
    base.into_iter().filter(|&m| m + 16 <= pool_len).collect()
}

/// Figure 21: the heterogeneous database (n = 1,024), Euclidean (left
/// half) and DTW R = 5 (right half).
pub fn fig21(quick: bool) -> Table {
    let pool = heterogeneous_pool(quick);
    let sizes = heterogeneous_sizes(pool.len(), quick);
    let ed_algorithms = [
        SearchAlgorithm::BruteForce,
        SearchAlgorithm::Fft,
        SearchAlgorithm::EarlyAbandon,
        SearchAlgorithm::Wedge,
    ];
    let dtw_algorithms = [SearchAlgorithm::EarlyAbandon, SearchAlgorithm::Wedge];
    let banded = Measure::Dtw(DtwParams::new(5));
    let ed_points = run_sweep(&pool, &sizes, Measure::Euclidean, &ed_algorithms, quick);
    let dtw_points = run_sweep(&pool, &sizes, banded, &dtw_algorithms, quick);

    let mut table = Table::new([
        "m",
        "ED:fft",
        "ED:early-abandon",
        "ED:wedge",
        "DTW:early-abandon",
        "DTW:wedge",
    ]);
    for ((e, _), (d, _)) in ed_points.iter().zip(&dtw_points) {
        let get = |pt: &SweepPoint, alg: SearchAlgorithm| {
            pt.ratios
                .iter()
                .find(|(a, _)| *a == alg)
                .map(|(_, r)| *r)
                .unwrap_or(f64::NAN)
        };
        table.push_row([
            e.m.to_string(),
            fmt_ratio(get(e, SearchAlgorithm::Fft)),
            fmt_ratio(get(e, SearchAlgorithm::EarlyAbandon)),
            fmt_ratio(get(e, SearchAlgorithm::Wedge)),
            fmt_ratio(get(d, SearchAlgorithm::EarlyAbandon)),
            fmt_ratio(get(d, SearchAlgorithm::Wedge)),
        ]);
    }
    table
}

/// Light-curve pool for Figures 22/23 (n = 1,024 like the paper).
pub fn lightcurve_pool(quick: bool) -> Vec<Vec<f64>> {
    let n = if quick { 256 } else { 1024 };
    let m = if quick { 300 } else { 953 + 32 };
    light_curves(m, n, 2006).items
}

/// Figure 22/23 size axis.
pub fn lightcurve_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![32, 128, 256]
    } else {
        vec![32, 64, 125, 250, 500, 953]
    }
}

/// Figure 22: star light curves, Euclidean.
pub fn fig22(quick: bool) -> Table {
    let pool = lightcurve_pool(quick);
    let algorithms = [
        SearchAlgorithm::BruteForce,
        SearchAlgorithm::Fft,
        SearchAlgorithm::EarlyAbandon,
        SearchAlgorithm::Wedge,
    ];
    let points = run_sweep(
        &pool,
        &lightcurve_sizes(quick),
        Measure::Euclidean,
        &algorithms,
        quick,
    );
    sweep_table(&points, &algorithms)
}

/// Figure 23: star light curves, DTW (brute force unconstrained and
/// R = 5 denominators as in Figure 20).
pub fn fig23(quick: bool) -> Table {
    let pool = lightcurve_pool(quick);
    let n = pool[0].len();
    let banded = Measure::Dtw(DtwParams::new(5));
    let unconstrained = Measure::Dtw(DtwParams::new(n - 1));
    let algorithms = [SearchAlgorithm::EarlyAbandon, SearchAlgorithm::Wedge];
    let mut table = Table::new([
        "m",
        "brute-force",
        "brute-force-R5",
        "early-abandon",
        "wedge",
    ]);
    for &m in &lightcurve_sizes(quick) {
        let q = queries_for(m, quick);
        let brute_unc = rotind_eval::speedup::brute_force_steps(m, n, n, unconstrained) as f64;
        let brute_banded = rotind_eval::speedup::brute_force_steps(m, n, n, banded) as f64;
        let mut row = vec![
            m.to_string(),
            fmt_ratio(1.0),
            fmt_ratio(brute_banded / brute_unc),
        ];
        let point = speedup_sweep(&pool, &[m], q, banded, &algorithms)
            .pop()
            .expect("one point");
        for (_, ratio_banded) in &point.ratios {
            row.push(fmt_ratio(ratio_banded * brute_banded / brute_unc));
        }
        table.push_row(row);
    }
    table
}

// ---------------------------------------------------------------------
// Figure 24 — disk accesses
// ---------------------------------------------------------------------

/// Figure 24: fraction of items retrieved from disk to answer a 1-NN
/// query through the VP-tree index, for D ∈ {4, 8, 16, 32}, wedge-ED
/// (Fourier magnitudes) and wedge-DTW (PAA envelopes), on the projectile
/// and heterogeneous databases.
pub fn fig24(quick: bool) -> Table {
    let dims = [4usize, 8, 16, 32];
    let num_queries = if quick { 3 } else { 15 };
    let mut table = Table::new(["database", "measure", "D", "fraction retrieved"]);

    let mut run = |name: &str, pool: Vec<Vec<f64>>| {
        let m = pool.len() - num_queries;
        let db: Vec<Vec<f64>> = pool[..m].to_vec();
        let queries = &pool[m..];
        for (measure, repr, label) in [
            (
                Measure::Euclidean,
                ReducedRepr::FourierMagnitude,
                "wedge-ED",
            ),
            (
                Measure::Dtw(DtwParams::new(5)),
                ReducedRepr::Paa,
                "wedge-DTW",
            ),
        ] {
            for &d in &dims {
                let index = IndexedDatabase::build(db.clone(), d, repr).expect("valid database");
                let mut total_fraction = 0.0;
                for q in queries {
                    let (_, stats) = index.nearest(q, measure).expect("valid query");
                    total_fraction += stats.fraction();
                }
                table.push_row([
                    name.to_string(),
                    label.to_string(),
                    d.to_string(),
                    fmt_ratio(total_fraction / queries.len() as f64),
                ]);
            }
        }
    };

    let projectile = if quick {
        shapes::projectile_points(400 + num_queries, 251, 1906).items
    } else {
        // The full 16,000-item database is indexable, but refining at
        // n = 251 over repeated D values is the wall-clock bottleneck;
        // 4,000 items preserve the fraction-retrieved behaviour.
        shapes::projectile_points(4000 + num_queries, 251, 1906).items
    };
    run("projectile-points", projectile);

    let mut hetero = heterogeneous_pool(quick);
    if !quick {
        hetero.truncate(3000 + num_queries);
    }
    run("heterogeneous", hetero);
    table
}

// ---------------------------------------------------------------------
// Figure 14 — LCSS and partial occlusion
// ---------------------------------------------------------------------

/// Figure 14: the original Skhul V skull is missing its nose region, so
/// it matches a modern human poorly even after DTW alignment, while
/// LCSS simply leaves the missing region unmatched. We reproduce the
/// effect: a Skhul-V profile with a damaged (flattened) nasal section is
/// ranked against a modern human and an orangutan under all three
/// measures; only LCSS should keep the human as the clear best match.
pub fn fig14() -> Table {
    use rotind_distance::LcssParams;
    let n = 128usize;
    let mut rng = StdRng::seed_from_u64(14);
    let series_of = |sp: &Species, rng: &mut StdRng| -> Vec<f64> {
        let profile = skull_profile(&sp.params, 4 * n, 0.0, rng);
        z_normalize_lossy(
            &rotind_shape::centroid::radial_profile_to_series(&profile, n).expect("non-empty"),
        )
    };
    let human = series_of(&PRIMATES[0], &mut rng);
    let orangutan = series_of(&PRIMATES[2], &mut rng);
    let mut skhul = series_of(&PRIMATES[1], &mut rng);
    // Damage: the nasal region (around φ = 0, where the snout maps) is
    // missing — the epoxy-free original. Flatten ~12% of the boundary.
    let damage = n / 8;
    for item in skhul.iter_mut().take(damage / 2) {
        *item = -1.5;
    }
    for item in skhul.iter_mut().rev().take(damage / 2) {
        *item = -1.5;
    }
    let skhul = rotated(&skhul, rng.random_range(0..n));

    let measures: [(&str, Measure); 3] = [
        ("Euclidean", Measure::Euclidean),
        ("DTW(R=3)", Measure::Dtw(DtwParams::new(3))),
        ("LCSS", Measure::Lcss(LcssParams::for_normalized(n))),
    ];
    let mut table = Table::new([
        "measure",
        "d(SkhulV, human)",
        "d(SkhulV, orangutan)",
        "margin",
    ]);
    for (name, measure) in measures {
        let engine =
            RotationQuery::with_measure(&skhul, Invariance::Rotation, measure).expect("valid");
        let dh = engine.distance_to(&human).expect("len");
        let do_ = engine.distance_to(&orangutan).expect("len");
        table.push_row([
            name.to_string(),
            format!("{dh:.4}"),
            format!("{do_:.4}"),
            format!("{:.3}", do_ / dh.max(1e-9)),
        ]);
    }
    table
}

// ---------------------------------------------------------------------
// Empirical O(n^1.06) scaling
// ---------------------------------------------------------------------

/// The empirical per-comparison complexity of the wedge method: sweep
/// the series length, measure average steps per item comparison
/// (including the amortised wedge-build charge), fit the log-log slope.
pub fn scaling(quick: bool) -> Table {
    let lengths: Vec<usize> = if quick {
        vec![64, 128, 256]
    } else {
        vec![64, 128, 251, 512, 1024]
    };
    // The startup charge is amortised over the database, so a small m
    // would dominate the per-comparison cost with the O(n²) build; the
    // paper's exponent is reported on large collections.
    let m = if quick { 150 } else { 2000 };
    let queries = if quick { 2 } else { 5 };
    let mut points = Vec::new();
    let mut table = Table::new(["n", "steps/comparison", "brute (n^2)"]);
    for &n in &lengths {
        let ds = shapes::projectile_points(m + queries, n, 777);
        let db = &ds.items[..m];
        let mut total = 0u64;
        for q in 0..queries {
            let query = &ds.items[m + q];
            let mut counter = StepCounter::new();
            let engine = RotationQuery::new(query, Invariance::Rotation).expect("valid query");
            engine
                .search(
                    db,
                    QueryKind::Nearest,
                    &mut counter,
                    &mut NoopObserver,
                    &mut NoBudget,
                    None,
                )
                .expect("valid db");
            total += counter.steps() + wedge_startup_steps(n, n);
        }
        let per_comparison = total as f64 / (queries * m) as f64;
        points.push(ScalingPoint {
            n,
            steps_per_comparison: per_comparison,
        });
        table.push_row([
            n.to_string(),
            format!("{per_comparison:.1}"),
            (n * n).to_string(),
        ]);
    }
    let exponent = empirical_exponent(&points);
    table.push_row([
        "fitted exponent".to_string(),
        format!("{exponent:.3}"),
        "paper: 1.06".to_string(),
    ]);
    table
}

// ---------------------------------------------------------------------
// Parallel scan — thread-count sweep
// ---------------------------------------------------------------------

/// Thread-count sweep of the parallel chunked scan (DESIGN.md §10) on a
/// Table 8–style shape workload: median wall-clock per thread count and
/// the speedup over the single-thread scan. Answers are asserted
/// identical across counts — the parallel scan's determinism guarantee
/// — so only the time column varies. On a single-core host the sweep
/// still runs; speedups then hover near 1.0. The auto row honours
/// `ROTIND_THREADS`.
pub fn thread_scaling(quick: bool) -> Table {
    let seed = 20060906;
    let ds = shapes::mixed_bag(seed);
    let keep = if quick { ds.len().min(64) } else { ds.len() };
    let ds = ds.subsample(keep, seed + 1);
    // The paper's protocol: the query is removed from the dataset. The
    // generated dataset is never empty; a bench harness should stop on
    // a malformed workload rather than emit bogus rows.
    // rotind-lint: allow(no-panic)
    let query = ds.items.last().expect("non-empty dataset").clone();
    // rotind-lint: allow(no-index)
    let db = &ds.items[..ds.len() - 1];
    let repeats = if quick { 3 } else { 9 };
    let auto = rotind_index::default_threads();
    let mut counts = vec![1usize, 2, 4, 8];
    if !counts.contains(&auto) {
        counts.push(auto);
    }
    let points = thread_sweep(db, &query, Measure::Euclidean, &counts, repeats);
    // rotind-lint: allow(no-panic)
    let engine = RotationQuery::new(&query, Invariance::Rotation).expect("valid query");
    // rotind-lint: allow(no-panic)
    let sequential = engine.nearest(db).expect("non-empty database");
    let mut table = Table::new([
        "threads", "wall-ms", "speedup", "p50-ms", "p95-ms", "p99-ms", "nn-index",
    ]);
    for pt in &points {
        let mut counter = StepCounter::new();
        let (outcome, _) = engine
            .search_parallel(
                db,
                QueryKind::Nearest,
                pt.threads,
                &mut counter,
                &mut NoopObserver,
                None,
            )
            // rotind-lint: allow(no-panic)
            .expect("non-empty database");
        assert_eq!(
            outcome.into_inner(),
            [sequential],
            "parallel scan must stay exact at {} threads",
            pt.threads
        );
        table.push_row([
            pt.threads.to_string(),
            format!("{:.3}", pt.wall_nanos as f64 / 1e6),
            fmt_ratio(pt.speedup),
            format!("{:.3}", pt.p50_nanos as f64 / 1e6),
            format!("{:.3}", pt.p95_nanos as f64 / 1e6),
            format!("{:.3}", pt.p99_nanos as f64 / 1e6),
            sequential.index.to_string(),
        ]);
    }
    table
}

// ---------------------------------------------------------------------
// Sanity helper reused by the `figures` bench and tests
// ---------------------------------------------------------------------

/// One tiny end-to-end wedge query (used by smoke benches).
pub fn smoke_query() -> u64 {
    let ds = shapes::projectile_points(64, 64, 5);
    let engine = RotationQuery::new(&ds.items[0], Invariance::Rotation).expect("valid");
    let mut counter = StepCounter::new();
    let _ = scan_steps(
        &ds.items[1..],
        &ds.items[0],
        SearchAlgorithm::Wedge,
        Measure::Euclidean,
    );
    engine
        .search(
            &ds.items[1..],
            QueryKind::Nearest,
            &mut counter,
            &mut NoopObserver,
            &mut NoBudget,
            None,
        )
        .expect("valid db");
    counter.steps()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig03_best_rotation_pairs_congeners() {
        let table = fig03();
        let text = table.render();
        assert!(text.contains("best-rotation  true"), "table:\n{text}");
    }

    #[test]
    fn fig14_lcss_margin_is_best() {
        let csv = fig14().to_csv();
        let margin = |name: &str| -> f64 {
            csv.lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| l.split(',').next_back())
                .and_then(|v| v.parse().ok())
                .expect("margin cell")
        };
        assert!(margin("LCSS") > margin("Euclidean"));
        assert!(margin("LCSS") > margin("DTW"));
        assert!(margin("LCSS") > 1.0, "human must stay the better match");
    }

    #[test]
    fn fig16_pairs_every_group() {
        let text = fig16().render();
        let fails = text.matches("false").count();
        assert!(fails <= 1, "at most one group may fail to pair:\n{text}");
    }

    #[test]
    fn fig18_bent_copies_pair_with_originals() {
        let text = fig18().render();
        assert_eq!(text.matches("true").count(), 3, "table:\n{text}");
    }

    #[test]
    fn size_axes_are_sane() {
        let quick = projectile_sizes(true);
        let full = projectile_sizes(false);
        assert!(quick.len() < full.len());
        assert_eq!(*full.last().unwrap(), 16000);
        assert!(full.windows(2).all(|w| w[0] < w[1]), "ascending");
        let het = heterogeneous_sizes(6000, false);
        assert!(het.iter().all(|&m| m + 16 <= 6000));
        assert!(heterogeneous_sizes(50, false).iter().all(|&m| m <= 34));
        let lc = lightcurve_sizes(false);
        assert_eq!(*lc.last().unwrap(), 953);
    }

    #[test]
    fn queries_scale_down_for_large_m() {
        assert!(queries_for(32, false) > queries_for(16000, false));
        assert_eq!(queries_for(32, true), queries_for(16000, true));
    }

    #[test]
    fn table8_quick_runs_and_orders_measures() {
        let table = table8(true);
        assert_eq!(table.len(), 10);
    }

    #[test]
    fn fig19_quick_wedge_beats_brute() {
        let table = fig19(true);
        let csv = table.to_csv();
        let last = csv.lines().last().expect("non-empty");
        let cells: Vec<&str> = last.split(',').collect();
        let wedge: f64 = cells[4].parse().expect("ratio");
        assert!(wedge < 0.5, "wedge ratio at largest m: {wedge}");
    }

    #[test]
    fn scaling_quick_exponent_is_subquadratic() {
        let table = scaling(true);
        let text = table.render();
        let line = text
            .lines()
            .find(|l| l.contains("fitted exponent"))
            .expect("exponent row");
        let value: f64 = line
            .split_whitespace()
            .nth(2)
            .expect("value")
            .parse()
            .expect("float");
        assert!(value < 1.9, "wedge scaling should be subquadratic: {value}");
    }
}
