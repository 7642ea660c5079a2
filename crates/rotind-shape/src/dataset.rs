//! Labelled synthetic datasets mirroring the paper's collections.
//!
//! Every builder is deterministic in its seed, generates radial profiles
//! from the [`crate::generators`] families, applies the distortions the
//! paper's data exhibits (within-class jitter, smooth local warping —
//! the DTW motivation of Figure 11 — and sensor noise), randomly rotates
//! each instance (the invariance under test), resamples to the canonical
//! length and z-normalises.
//!
//! Sizes and class counts follow `DESIGN.md` §4/§5: class structure
//! matches the paper's Table 8 datasets, with the largest collections
//! subsampled to keep leave-one-out evaluation tractable (documented in
//! `EXPERIMENTS.md`, rendered by `python3 scripts/render_experiments.py`
//! and not committed).

use crate::generators::blade::{blade_profile, BladeClass};
use crate::generators::butterfly::{butterfly_profile, LEPIDOPTERA};
use crate::generators::skull::{skull_profile, PRIMATES};
use crate::generators::superformula::Superformula;
use crate::generators::warp::{add_noise, random_rotation, smooth_circular};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rotind_ts::normalize::z_normalize_lossy;
use rotind_ts::resample::resample_circular;

/// A labelled collection of equal-length, z-normalised, randomly rotated
/// centroid-distance series.
///
/// ```
/// use rotind_shape::dataset::projectile_points;
/// let ds = projectile_points(40, 64, 7);
/// assert_eq!(ds.len(), 40);
/// assert_eq!(ds.series_len(), 64);
/// assert_eq!(ds.num_classes(), 4);
/// assert!(ds.validate());
/// ```
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Collection name (used in reports).
    pub name: String,
    /// The series.
    pub items: Vec<Vec<f64>>,
    /// Class label per item.
    pub labels: Vec<usize>,
    /// Class display names (indexed by label).
    pub class_names: Vec<String>,
}

impl Dataset {
    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Series length `n` (0 for an empty dataset).
    pub fn series_len(&self) -> usize {
        self.items.first().map_or(0, Vec::len)
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.class_names.len()
    }

    /// Check internal consistency (equal lengths, labels in range).
    pub fn validate(&self) -> bool {
        let n = self.series_len();
        self.items.len() == self.labels.len()
            && self.items.iter().all(|s| s.len() == n)
            && self.labels.iter().all(|&l| l < self.class_names.len())
    }

    /// A copy with every series resampled (circularly) to length `n`.
    pub fn resampled(&self, n: usize) -> Dataset {
        Dataset {
            name: self.name.clone(),
            items: self
                .items
                .iter()
                .map(|s| resample_circular(s, n).expect("non-empty series"))
                .collect(),
            labels: self.labels.clone(),
            class_names: self.class_names.clone(),
        }
    }

    /// A deterministic subsample of `m` items (all items when `m >=
    /// len`), preserving label diversity by stratified round-robin.
    pub fn subsample(&self, m: usize, seed: u64) -> Dataset {
        if m >= self.len() {
            return self.clone();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); self.num_classes().max(1)];
        for (i, &l) in self.labels.iter().enumerate() {
            by_class[l].push(i);
        }
        for idxs in &mut by_class {
            // Fisher–Yates.
            for i in (1..idxs.len()).rev() {
                let j = rng.random_range(0..=i);
                idxs.swap(i, j);
            }
        }
        let mut chosen = Vec::with_capacity(m);
        let mut round = 0usize;
        while chosen.len() < m {
            let mut advanced = false;
            for idxs in &by_class {
                if chosen.len() >= m {
                    break;
                }
                if let Some(&i) = idxs.get(round) {
                    chosen.push(i);
                    advanced = true;
                }
            }
            if !advanced {
                break;
            }
            round += 1;
        }
        chosen.sort_unstable();
        Dataset {
            name: format!("{}[{m}]", self.name),
            items: chosen.iter().map(|&i| self.items[i].clone()).collect(),
            labels: chosen.iter().map(|&i| self.labels[i]).collect(),
            class_names: self.class_names.clone(),
        }
    }
}

/// Distortion knobs shared by the builders.
#[derive(Debug, Clone, Copy)]
struct Distortion {
    /// Smooth circular warp amplitude (radians of angular displacement).
    warp: f64,
    /// Additive Gaussian noise σ (on the raw radial profile scale).
    noise: f64,
}

/// Smooth → bend → resample → smooth → noise → z-normalise → random
/// rotation. The smoothing passes band-limit the profile the way
/// rasterisation and contour resampling band-limit real shape data;
/// without them, sample-scale spikes make within-class distances blow
/// up under any angular perturbation.
///
/// The within-class angular distortion is a pair of random *local bends*
/// (a feature displaced a few samples, the rest of the boundary
/// untouched) — the morphological variation of Figure 11 that motivates
/// DTW, rather than a global warp that mostly re-parameterises the
/// whole outline.
fn finalize(radial: &[f64], n: usize, d: Distortion, rng: &mut StdRng) -> Vec<f64> {
    let pre = smooth_circular(radial, (radial.len() / 128).max(1));
    let mut warped = pre;
    if d.warp > 0.0 {
        // Three bends with alternating signs: a net-zero displacement
        // field that a global rotation cannot absorb (a single bend is
        // half-fixed by rotating the whole outline), so Euclidean
        // distance pays for the full local misalignment while DTW
        // recovers it within a small band.
        for b in 0..3 {
            let center = rng.random_range(0.0..std::f64::consts::TAU);
            let width = rng.random_range(0.5..1.0);
            // `d.warp` is the target peak angular displacement (radians);
            // the bend's peak displacement is ≈ 0.42·amount·width.
            let sign = if b % 2 == 0 { 1.0 } else { -1.0 };
            let amount = sign * (d.warp / (0.415 * width)).min(1.3) * rng.random_range(0.6..1.0);
            warped = crate::generators::warp::bend_window(&warped, center, width, amount);
        }
    }
    let series = resample_circular(&warped, n).expect("non-empty profile");
    let mut series = smooth_circular(&series, 1);
    // Noise is relative to the profile's dynamic range: z-normalisation
    // rescales everything afterwards, so absolute noise would swamp
    // low-relief outlines (a near-circular profile has range ≈ 0) while
    // barely touching spiky ones.
    let range = rotind_ts::stats::max(&series) - rotind_ts::stats::min(&series);
    add_noise(&mut series, d.noise * range.max(1e-6), rng);
    let normalized = z_normalize_lossy(&series);
    random_rotation(&normalized, rng).0
}

/// A superformula class: base parameters plus a within-class variation
/// scale.
///
/// Instances perturb the class's base *profile* with a few smooth random
/// bumps rather than jittering the superformula parameters — spiky
/// superformulas are chaotic in their parameters (a 3% nudge can
/// reshape the outline entirely), which makes within-class variance
/// untunable; profile-space bumps give a difficulty knob that moves
/// monotonically with `jitter`.
#[derive(Debug, Clone, Copy)]
struct SfClass {
    name: &'static str,
    base: Superformula,
    /// Amplitude of the within-class profile perturbation, relative to
    /// the profile's dynamic range.
    jitter: f64,
}

impl SfClass {
    const fn new(name: &'static str, m: f64, n1: f64, n2: f64, n3: f64, jitter: f64) -> Self {
        SfClass {
            name,
            base: Superformula::new(m, n1, n2, n3),
            jitter,
        }
    }

    fn instance(&self, samples: usize, rng: &mut StdRng) -> Vec<f64> {
        let mut profile = self.base.profile(samples);
        let range = rotind_ts::stats::max(&profile) - rotind_ts::stats::min(&profile);
        let amp = self.jitter * range.max(0.2);
        // A handful of smooth circular bumps: organ-level variation
        // (a longer lobe, a shallower sinus) rather than noise.
        for _ in 0..4 {
            let center = rng.random_range(0..samples);
            let width = rng.random_range(samples / 24..samples / 6).max(2);
            let a = amp * rng.random_range(-1.0..1.0);
            for d in 0..width {
                let t = d as f64 / width as f64 * std::f64::consts::PI;
                let bump = a * t.sin() * t.sin();
                let idx = (center + d) % samples;
                profile[idx] = (profile[idx] + bump).max(0.05);
            }
        }
        // Mild global scale variation (removed by z-normalisation but it
        // exercises the scale-invariance path).
        let scale = 1.0 + rng.random_range(-0.1..0.1);
        for v in profile.iter_mut() {
            *v *= scale;
        }
        profile
    }
}

fn superformula_dataset(
    name: &str,
    classes: &[SfClass],
    per_class: usize,
    n: usize,
    distortion: Distortion,
    seed: u64,
) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let samples = 4 * n;
    let mut items = Vec::with_capacity(classes.len() * per_class);
    let mut labels = Vec::with_capacity(classes.len() * per_class);
    for (label, class) in classes.iter().enumerate() {
        for _ in 0..per_class {
            let radial = class.instance(samples, &mut rng);
            items.push(finalize(&radial, n, distortion, &mut rng));
            labels.push(label);
        }
    }
    Dataset {
        name: name.to_string(),
        items,
        labels,
        class_names: classes.iter().map(|c| c.name.to_string()).collect(),
    }
}

/// Canonical classification series length (leave-one-out 1-NN over the
/// Table-8 collections stays tractable at this resolution).
pub const CLASSIFICATION_LEN: usize = 64;

/// "Face": 16 classes × 35 (paper: 16 × 2240 — subsampled). Profile-like
/// asymmetric outlines; moderate articulation (mouth/jaw) favours DTW.
pub fn face(seed: u64) -> Dataset {
    let classes: Vec<SfClass> = (0..16)
        .map(|i| {
            let fi = i as f64;
            SfClass {
                name: "face-class",
                base: Superformula::new(
                    1.0 + (i % 7) as f64,
                    1.2 + 0.22 * fi,
                    2.2 + 0.45 * ((i * 7) % 11) as f64,
                    1.6 + 0.38 * ((i * 3) % 13) as f64,
                ),
                jitter: 0.03,
            }
        })
        .collect();
    superformula_dataset(
        "Face",
        &classes,
        35,
        CLASSIFICATION_LEN,
        Distortion {
            warp: 0.12,
            noise: 0.015,
        },
        seed,
    )
}

/// "Swedish Leaves": 15 classes × 37 (paper: 15 × 1125 — subsampled).
pub fn swedish_leaf(seed: u64) -> Dataset {
    // Five lobe-count groups × three alternating-amplitude variants:
    // lobe counts separate the groups (warp-proof), amplitudes separate
    // classes within a group (value-structured, so DTW keeps them apart
    // while absorbing the bends).
    let classes: Vec<SfClass> = (0..15)
        .map(|i| SfClass {
            name: "leaf-class",
            base: Superformula {
                m: 1.0 + (i / 3) as f64,
                n1: 1.0,
                n2: 2.2,
                n3: 2.2,
                a: 1.0,
                b: 1.0 + 0.45 * (i % 3) as f64,
            },
            jitter: 0.05,
        })
        .collect();
    superformula_dataset(
        "SwedishLeaf",
        &classes,
        37,
        CLASSIFICATION_LEN,
        Distortion {
            warp: 0.75,
            noise: 0.045,
        },
        seed,
    )
}

/// "Chicken": 5 part classes × 89 ≈ 446 (paper: 5 × 446). High
/// within-class variation makes this hard, as in the paper (~20% error).
pub fn chicken(seed: u64) -> Dataset {
    let classes = [
        SfClass::new("breast", 2.0, 0.9, 2.8, 1.9, 0.35),
        SfClass::new("wing", 3.0, 1.1, 1.7, 3.1, 0.35),
        SfClass::new("drumstick", 1.0, 0.8, 2.2, 2.2, 0.35),
        SfClass::new("thigh", 2.0, 1.3, 3.5, 2.4, 0.35),
        SfClass::new("back", 4.0, 1.0, 2.0, 2.6, 0.35),
    ];
    superformula_dataset(
        "Chicken",
        &classes,
        89,
        CLASSIFICATION_LEN,
        Distortion {
            warp: 0.25,
            noise: 0.30,
        },
        seed,
    )
}

/// "MixedBag": 9 wildly different object classes × 18 ≈ 160 (paper:
/// 9 × 160). Mixes every generator family — the easiest collection.
pub fn mixed_bag(seed: u64) -> Dataset {
    let n = CLASSIFICATION_LEN;
    let samples = 4 * n;
    let mut rng = StdRng::seed_from_u64(seed);
    let d = Distortion {
        warp: 0.08,
        noise: 0.03,
    };
    let mut items = Vec::new();
    let mut labels = Vec::new();
    let per_class = 18;
    let mut class_names = Vec::new();

    // Classes 0–3: projectile points.
    for class in BladeClass::ALL {
        let label = class_names.len();
        class_names.push(format!("blade-{}", class.name()));
        for _ in 0..per_class {
            let radial = blade_profile(class, samples, &mut rng);
            items.push(finalize(&radial, n, d, &mut rng));
            labels.push(label);
        }
    }
    // Classes 4–5: two butterflies.
    for sp in &LEPIDOPTERA[..2] {
        let label = class_names.len();
        class_names.push(sp.name.to_string());
        for _ in 0..per_class {
            let radial = butterfly_profile(&sp.params, samples, 0.3, &mut rng);
            items.push(finalize(&radial, n, d, &mut rng));
            labels.push(label);
        }
    }
    // Classes 6–7: two skulls.
    for sp in [&PRIMATES[0], &PRIMATES[2]] {
        let label = class_names.len();
        class_names.push(sp.name.to_string());
        for _ in 0..per_class {
            let radial = skull_profile(&sp.params, samples, 0.4, &mut rng);
            items.push(finalize(&radial, n, d, &mut rng));
            labels.push(label);
        }
    }
    // Class 8: a spiky superformula "gadget".
    let label = class_names.len();
    class_names.push("gadget".to_string());
    let gadget = SfClass::new("gadget", 7.0, 0.6, 2.9, 2.9, 0.05);
    for _ in 0..per_class {
        let radial = gadget.instance(samples, &mut rng);
        items.push(finalize(&radial, n, d, &mut rng));
        labels.push(label);
    }
    Dataset {
        name: "MixedBag".to_string(),
        items,
        labels,
        class_names,
    }
}

/// "OSU Leaves": 6 classes × 74 ≈ 442 (paper: 6 × 442). Strong local
/// warping — the collection where DTW halves the Euclidean error in the
/// paper (33.7% → 15.6%).
pub fn osu_leaf(seed: u64) -> Dataset {
    // All classes share lobe count and sharpness (so DTW cannot erase
    // the class signal by stretching lobe widths) and differ in the
    // relative amplitude of alternating lobes (the `b` axis scale);
    // within-class variation is dominated by local bends, which is what
    // DTW absorbs and Euclidean distance pays for in full.
    let classes: Vec<SfClass> = (0..6)
        .map(|i| SfClass {
            name: "osu-leaf-class",
            base: Superformula {
                m: 4.0,
                n1: 1.2,
                n2: 2.5,
                n3: 2.5,
                a: 1.0,
                b: 1.0 + 0.28 * i as f64,
            },
            jitter: 0.05,
        })
        .collect();
    superformula_dataset(
        "OSULeaf",
        &classes,
        74,
        CLASSIFICATION_LEN,
        Distortion {
            warp: 0.60,
            noise: 0.035,
        },
        seed,
    )
}

/// "Diatoms": 37 species × 10 ≈ 390 (paper: 37 × 781 — subsampled).
/// Many subtly different classes — hard for everything, as in the paper
/// (~27% error, close to human experts).
pub fn diatom(seed: u64) -> Dataset {
    let classes: Vec<SfClass> = (0..37)
        .map(|i| SfClass {
            name: "diatom-species",
            base: Superformula::new(
                2.0 + (i % 5) as f64,
                1.0 + 0.15 * i as f64,
                2.0 + 0.50 * ((i * 11) % 17) as f64,
                2.0 + 0.45 * ((i * 5) % 19) as f64,
            ),
            jitter: 0.04,
        })
        .collect();
    superformula_dataset(
        "Diatom",
        &classes,
        10,
        CLASSIFICATION_LEN,
        Distortion {
            warp: 0.10,
            noise: 0.018,
        },
        seed,
    )
}

/// "Aircraft": 7 types × 30 = 210 (paper: 7 × 210). Highly distinct
/// silhouettes — near-zero error, as in the paper.
pub fn aircraft(seed: u64) -> Dataset {
    let classes = [
        SfClass::new("delta", 3.0, 0.4, 2.2, 1.4, 0.03),
        SfClass::new("swept", 5.0, 0.7, 3.3, 1.1, 0.03),
        SfClass::new("straight", 4.0, 1.6, 4.8, 4.8, 0.03),
        SfClass::new("biplane", 8.0, 1.1, 2.4, 2.4, 0.03),
        SfClass::new("canard", 6.0, 0.5, 1.5, 2.8, 0.03),
        SfClass::new("flying-wing", 2.0, 0.35, 1.8, 1.8, 0.03),
        SfClass::new("helicopter", 9.0, 2.2, 5.5, 3.3, 0.03),
    ];
    superformula_dataset(
        "Aircraft",
        &classes,
        30,
        CLASSIFICATION_LEN,
        Distortion {
            warp: 0.03,
            noise: 0.015,
        },
        seed,
    )
}

/// "Fish": 7 species × 50 = 350 (paper: 7 × 350).
pub fn fish(seed: u64) -> Dataset {
    // Two lobe-count groups with amplitude-graded classes (see the
    // OSULeaf comment: amplitude structure keeps DTW discriminative).
    let classes: Vec<SfClass> = (0..7)
        .map(|i| SfClass {
            name: "fish-species",
            base: Superformula {
                m: if i < 4 { 2.0 } else { 3.0 },
                n1: 1.1,
                n2: 2.4,
                n3: 2.4,
                a: 1.0,
                b: 1.0 + 0.38 * (i % 4) as f64,
            },
            jitter: 0.13,
        })
        .collect();
    superformula_dataset(
        "Fish",
        &classes,
        50,
        CLASSIFICATION_LEN,
        Distortion {
            warp: 0.80,
            noise: 0.04,
        },
        seed,
    )
}

/// "Yoga": 2 poses × 330 = 660 (paper: 2 × 3300 — subsampled). Two
/// similar articulated silhouettes.
pub fn yoga(seed: u64) -> Dataset {
    let classes = [
        SfClass {
            name: "pose-a",
            base: Superformula {
                m: 3.0,
                n1: 1.0,
                n2: 2.4,
                n3: 2.4,
                a: 1.0,
                b: 1.0,
            },
            jitter: 0.07,
        },
        SfClass {
            name: "pose-b",
            base: Superformula {
                m: 3.0,
                n1: 1.0,
                n2: 2.4,
                n3: 2.4,
                a: 1.0,
                b: 1.04,
            },
            jitter: 0.07,
        },
    ];
    superformula_dataset(
        "Yoga",
        &classes,
        330,
        CLASSIFICATION_LEN,
        Distortion {
            warp: 0.45,
            noise: 0.20,
        },
        seed,
    )
}

/// The 16,000-item projectile-point database of Figures 19/20 (length
/// 251, four morphological classes). `m` and `n` are parameters so the
/// sweep harness can generate prefixes cheaply.
pub fn projectile_points(m: usize, n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let samples = 2 * n;
    let d = Distortion {
        warp: 0.05,
        noise: 0.02,
    };
    let mut items = Vec::with_capacity(m);
    let mut labels = Vec::with_capacity(m);
    for i in 0..m {
        let class = BladeClass::ALL[i % BladeClass::ALL.len()];
        let radial = blade_profile(class, samples, &mut rng);
        items.push(finalize(&radial, n, d, &mut rng));
        labels.push(i % BladeClass::ALL.len());
    }
    Dataset {
        name: "ProjectilePoints".to_string(),
        items,
        labels,
        class_names: BladeClass::ALL
            .iter()
            .map(|c| c.name().to_string())
            .collect(),
    }
}

/// The heterogeneous database of Figure 21: the union of all shape
/// classification collections plus 1,000 projectile points, resampled to
/// length `n` (the paper uses 1,024 and 5,844 objects; our shape subset
/// totals ≈ 4,700 — the light-curve items live in `rotind-lightcurve`).
pub fn heterogeneous(n: usize, seed: u64) -> Dataset {
    let parts: Vec<Dataset> = vec![
        face(seed),
        swedish_leaf(seed + 1),
        chicken(seed + 2),
        mixed_bag(seed + 3),
        osu_leaf(seed + 4),
        diatom(seed + 5),
        aircraft(seed + 6),
        fish(seed + 7),
        yoga(seed + 8),
        projectile_points(1000, n, seed + 9),
    ];
    let mut items = Vec::new();
    let mut labels = Vec::new();
    let mut class_names = Vec::new();
    for part in parts {
        let offset = class_names.len();
        let part = part.resampled(n);
        for (series, label) in part.items.into_iter().zip(part.labels) {
            items.push(series);
            labels.push(offset + label);
        }
        class_names.extend(
            part.class_names
                .into_iter()
                .map(|c| format!("{}/{}", part.name, c)),
        );
    }
    Dataset {
        name: "Heterogeneous".to_string(),
        items,
        labels,
        class_names,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table8_builder_is_valid_and_sized() {
        let cases: Vec<(Dataset, usize, usize)> = vec![
            (face(1), 16, 560),
            (swedish_leaf(1), 15, 555),
            (chicken(1), 5, 445),
            (mixed_bag(1), 9, 162),
            (osu_leaf(1), 6, 444),
            (diatom(1), 37, 370),
            (aircraft(1), 7, 210),
            (fish(1), 7, 350),
            (yoga(1), 2, 660),
        ];
        for (ds, classes, size) in cases {
            assert!(ds.validate(), "{} invalid", ds.name);
            assert_eq!(ds.num_classes(), classes, "{}", ds.name);
            assert_eq!(ds.len(), size, "{}", ds.name);
            assert_eq!(ds.series_len(), CLASSIFICATION_LEN, "{}", ds.name);
        }
    }

    #[test]
    fn series_are_normalised() {
        let ds = aircraft(7);
        for s in &ds.items {
            assert!(rotind_ts::stats::mean(s).abs() < 1e-9);
            let sd = rotind_ts::stats::std_dev(s);
            assert!((sd - 1.0).abs() < 1e-9 || sd == 0.0);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = fish(123);
        let b = fish(123);
        assert_eq!(a.items, b.items);
        let c = fish(124);
        assert_ne!(a.items, c.items);
    }

    #[test]
    fn projectile_points_shape() {
        let ds = projectile_points(100, 251, 5);
        assert!(ds.validate());
        assert_eq!(ds.len(), 100);
        assert_eq!(ds.series_len(), 251);
        assert_eq!(ds.num_classes(), 4);
        // Labels cycle.
        assert_eq!(ds.labels[0], 0);
        assert_eq!(ds.labels[5], 1);
    }

    #[test]
    fn heterogeneous_combines_everything() {
        let ds = heterogeneous(128, 9);
        assert!(ds.validate());
        assert_eq!(ds.series_len(), 128);
        assert!(ds.len() > 4000, "size {}", ds.len());
        assert!(ds.num_classes() > 90, "classes {}", ds.num_classes());
    }

    #[test]
    fn resample_and_subsample() {
        let ds = aircraft(3);
        let r = ds.resampled(32);
        assert_eq!(r.series_len(), 32);
        assert_eq!(r.len(), ds.len());
        let s = ds.subsample(50, 1);
        assert_eq!(s.len(), 50);
        assert!(s.validate());
        // Stratified: all 7 classes present in a 50-item subsample.
        let mut seen = [false; 7];
        for &l in &s.labels {
            seen[l] = true;
        }
        assert!(seen.iter().all(|&x| x));
        // Subsample larger than the set is the identity.
        assert_eq!(ds.subsample(10_000, 1).len(), ds.len());
    }

    #[test]
    fn classes_are_separable_in_principle() {
        // Nearest-centroid (over best rotation alignment is overkill
        // here; use rotation-invariant 1-NN on a small subsample) should
        // beat chance on the easy Aircraft set.
        let ds = aircraft(11).subsample(70, 2);
        let mut correct = 0;
        for i in 0..ds.len() {
            let mut best = (f64::INFINITY, 0usize);
            for j in 0..ds.len() {
                if i == j {
                    continue;
                }
                let d = rotind_ts::rotate::rotated(&ds.items[j], 0)
                    .iter()
                    .zip(&ds.items[i])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>();
                // Cheap proxy: min over a coarse rotation grid.
                let dmin = (0..ds.series_len())
                    .step_by(4)
                    .map(|s| {
                        rotind_ts::rotate::rotated(&ds.items[j], s)
                            .iter()
                            .zip(&ds.items[i])
                            .map(|(a, b)| (a - b) * (a - b))
                            .sum::<f64>()
                    })
                    .fold(d, f64::min);
                if dmin < best.0 {
                    best = (dmin, ds.labels[j]);
                }
            }
            if best.1 == ds.labels[i] {
                correct += 1;
            }
        }
        let accuracy = correct as f64 / ds.len() as f64;
        assert!(
            accuracy > 0.5,
            "aircraft 1-NN accuracy {accuracy} barely beats chance (1/7)"
        );
    }
}
