//! The three workloads and their seeded inputs.
//!
//! A workload fixes the database size, the query shapes, the request
//! types and the number of client connections. Everything else derives
//! from the seed: the database and the base query shapes come from
//! [`projectile_points`], and request `g` of the stream is a pure
//! function of `(seed, g)`, so it never depends on timing. Connection
//! `c` of `C` sends the requests `g = c, c + C, c + 2C, …`.

use crate::oracle::{Expected, Oracle};
use rotind_distance::{DtwParams, Measure};
use rotind_index::{Invariance, QueryKind, QuerySpec};
use rotind_serve::{QueryRequest, Request};
use rotind_shape::dataset::projectile_points;
use rotind_ts::rotated;

/// Names accepted by `--workload`, in report order.
pub const NAMES: [&str; 3] = ["ed-rot-n251", "dtw-knn-n128", "serve-mix-n32"];

/// What a request asks for. A range radius is chosen per query by the
/// oracle, so it is not part of the type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Answer {
    /// 1-NN.
    Nearest,
    /// k-NN.
    KNearest(usize),
    /// Every item within a radius between the query's 3rd- and
    /// 4th-nearest distances.
    Range,
}

/// One request type: admitted rotations, measure and answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Class {
    /// Admitted rotations of the query.
    pub invariance: Invariance,
    /// Distance measure.
    pub measure: Measure,
    /// Kind of answer.
    pub answer: Answer,
}

impl Class {
    /// Whether the expected answer depends on the query's rotation.
    /// Under full invariance, with or without mirroring, every circular
    /// shift of a shape admits the same set of rows, so one oracle
    /// answer per base shape covers all its rotations.
    pub fn shift_sensitive(&self) -> bool {
        matches!(
            self.invariance,
            Invariance::RotationLimited { .. } | Invariance::RotationLimitedMirror { .. }
        )
    }
}

/// A workload definition.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name used by `--workload`.
    pub name: &'static str,
    /// Database size.
    pub m: usize,
    /// Series length.
    pub n: usize,
    /// Number of base query shapes.
    pub bases: usize,
    /// Request types, cycled in order.
    pub classes: Vec<Class>,
    /// Whether each request is a fresh seeded rotation of its base
    /// shape (`false`: exact repeats of the base shapes).
    pub rotate: bool,
    /// Concurrent client connections.
    pub connections: usize,
    /// Each connection reconnects before every request whose number on
    /// that connection is a positive multiple of this.
    pub reconnect_every: Option<u64>,
    /// Requests each connection sends before timing starts.
    pub warmup_per_connection: u64,
    /// Requests the traced pass replays from the start of the stream.
    pub traced_requests: u64,
}

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    let euclid = |invariance, answer| Class {
        invariance,
        measure: Measure::Euclidean,
        answer,
    };
    match name {
        // The repository's reference size, byte-identical repeats.
        "ed-rot-n251" => Some(Workload {
            name: "ed-rot-n251",
            m: 2000,
            n: 251,
            bases: 32,
            classes: vec![euclid(Invariance::Rotation, Answer::Nearest)],
            rotate: false,
            connections: 1,
            reconnect_every: None,
            warmup_per_connection: 32,
            traced_requests: 64,
        }),
        // Scan-heavy: leaf DTW and the bound tiers dominate. 64 shapes,
        // so that the slow-queries percentile is not nearly the slowest
        // shape of the seed.
        "dtw-knn-n128" => Some(Workload {
            name: "dtw-knn-n128",
            m: 2000,
            n: 128,
            bases: 64,
            classes: vec![Class {
                invariance: Invariance::Rotation,
                measure: Measure::Dtw(DtwParams::new(5)),
                answer: Answer::KNearest(5),
            }],
            rotate: true,
            connections: 1,
            reconnect_every: None,
            warmup_per_connection: 16,
            traced_requests: 32,
        }),
        // Short queries, so the serving path is a large share of latency.
        "serve-mix-n32" => Some(Workload {
            name: "serve-mix-n32",
            m: 200,
            n: 32,
            bases: 32,
            classes: vec![
                euclid(Invariance::Rotation, Answer::Nearest),
                euclid(Invariance::RotationMirror, Answer::KNearest(3)),
                euclid(Invariance::RotationLimited { max_shift: 4 }, Answer::Range),
            ],
            rotate: true,
            connections: 2,
            reconnect_every: Some(16),
            warmup_per_connection: 192,
            traced_requests: 960,
        }),
        _ => None,
    }
}

/// Which request `g` of the stream is: its class, base shape and the
/// circular shift applied to that shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Planned {
    /// Index into [`Workload::classes`].
    pub class: usize,
    /// Index of the base shape.
    pub base: usize,
    /// Circular shift applied to the base shape.
    pub shift: usize,
}

impl Workload {
    /// Request `g` of the stream seeded by `seed`. Classes cycle
    /// fastest and base shapes next, so every prefix of the stream is
    /// balanced across both; shifts are drawn per request.
    pub fn plan(&self, seed: u64, g: u64) -> Planned {
        let classes = self.classes.len() as u64;
        let class = (g % classes) as usize;
        let base = ((g / classes) % self.bases as u64) as usize;
        let shift = if self.rotate {
            (splitmix64(seed ^ g.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                % self.n as u64) as usize
        } else {
            0
        };
        Planned { class, base, shift }
    }

    /// The wire request for `planned`. `radius` is the oracle's radius
    /// for range classes and ignored otherwise.
    pub fn request(&self, inputs: &Inputs, planned: Planned, radius: f64) -> Request {
        let class = self.classes[planned.class];
        let kind = match class.answer {
            Answer::Nearest => QueryKind::Nearest,
            Answer::KNearest(k) => QueryKind::KNearest(k),
            Answer::Range => QueryKind::Range(radius),
        };
        Request::Query(QueryRequest {
            spec: QuerySpec {
                series: rotated(&inputs.bases[planned.base], planned.shift),
                invariance: class.invariance,
                measure: class.measure,
                kind,
            },
            max_steps: None,
            deadline: None,
        })
    }
}

/// A workload's request stream for one seed, with its expected answers.
#[derive(Debug, Clone, Copy)]
pub struct Stream<'a> {
    /// The workload.
    pub workload: &'a Workload,
    /// The seed the inputs and shifts derive from.
    pub seed: u64,
    /// The seeded database and base shapes.
    pub inputs: &'a Inputs,
    /// Expected answers for every distinct query.
    pub oracle: &'a Oracle,
}

impl<'a> Stream<'a> {
    /// Request `g`: what it is, its expected answer and its wire form.
    pub fn get(&self, g: u64) -> (Planned, &'a Expected, Request) {
        let planned = self.workload.plan(self.seed, g);
        let expected = self.oracle.expected(self.workload, planned);
        let request = self.workload.request(self.inputs, planned, expected.radius);
        (planned, expected, request)
    }
}

/// The seeded database and base query shapes.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The database the server holds.
    pub db: Vec<Vec<f64>>,
    /// Base query shapes, drawn from the same distribution.
    pub bases: Vec<Vec<f64>>,
}

/// Generate a workload's inputs from `seed`.
pub fn inputs(w: &Workload, seed: u64) -> Inputs {
    let mut db = projectile_points(w.m + w.bases, w.n, seed).items;
    let bases = db.split_off(w.m);
    Inputs { db, bases }
}

/// SplitMix64 finaliser: a well-mixed 64-bit hash of `x`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over bytes, used to fingerprint inputs so two runs can be
/// compared for identical data.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Mix `bytes` into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Mix the bit patterns of `values` into the hash.
    pub fn floats(&mut self, values: &[f64]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded_stream(w: &Workload, inputs: &Inputs, seed: u64, len: u64) -> Vec<Vec<u8>> {
        (0..len)
            .map(|g| rotind_serve::wire::encode_request(&w.request(inputs, w.plan(seed, g), 1.5)))
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_inputs_and_stream() {
        for name in NAMES {
            let mut w = workload(name).unwrap();
            // Shrink the database: determinism does not depend on size.
            w.m = 20;
            let a = inputs(&w, 42);
            let b = inputs(&w, 42);
            assert_eq!(a, b, "{name}: database differs for one seed");
            assert_eq!(
                encoded_stream(&w, &a, 42, 200),
                encoded_stream(&w, &b, 42, 200),
                "{name}: request stream differs for one seed"
            );
        }
    }

    #[test]
    fn another_seed_changes_inputs_and_shifts() {
        let w = workload("dtw-knn-n128").unwrap();
        let shifts = |seed| (0..64).map(|g| w.plan(seed, g).shift).collect::<Vec<_>>();
        assert_ne!(shifts(1), shifts(2));
        let mut small = w.clone();
        small.m = 10;
        assert_ne!(inputs(&small, 1), inputs(&small, 2));
    }

    #[test]
    fn streams_are_balanced_and_repeats_are_exact() {
        let mix = workload("serve-mix-n32").unwrap();
        let period = (mix.classes.len() * mix.bases) as u64;
        let mut seen = std::collections::HashSet::new();
        for g in 0..period {
            let p = mix.plan(9, g);
            assert!(p.shift < mix.n);
            seen.insert((p.class, p.base));
        }
        assert_eq!(
            seen.len() as u64,
            period,
            "every (class, base) pair once per period"
        );

        let ed = workload("ed-rot-n251").unwrap();
        let p = ed.plan(9, 5);
        assert_eq!(
            p,
            ed.plan(9, 5 + ed.bases as u64),
            "ED repeats its pool exactly"
        );
        assert_eq!(p.shift, 0);
    }
}
