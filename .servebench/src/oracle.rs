//! Expected answers from the brute-force scan, and the reply check.
//!
//! The oracle uses only `rotind_distance::rotation` — `search_database`
//! for 1-NN and `test_all_rotations` for k-NN and range — which share
//! no code with the wedge tree or the bound cascade. Answers are
//! computed once per distinct query before any timing starts.

use crate::workload::{Answer, Inputs, Planned, Workload};
use rotind_distance::rotation::{search_database, test_all_rotations};
use rotind_distance::Measure;
use rotind_index::Invariance;
use rotind_serve::{QueryStatus, Response};
use rotind_ts::{rotated, RotationMatrix, StepCounter};
use std::collections::HashMap;

/// The expected answer to one distinct query.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// `(index, distance)` in reply order: ascending distance for 1-NN
    /// and k-NN, ascending index for range.
    pub hits: Vec<(usize, f64)>,
    /// Radius sent with a range query (unused by other answers).
    pub radius: f64,
}

/// Expected answers keyed by `(class, base, shift)`, where the shift is
/// folded to 0 for classes whose answer does not depend on it.
#[derive(Debug)]
pub struct Oracle {
    table: HashMap<(usize, usize, usize), Expected>,
}

impl Oracle {
    /// Compute every distinct query's answer, spread over the available
    /// cores.
    pub fn build(w: &Workload, inputs: &Inputs) -> Result<Oracle, String> {
        let mut keys = Vec::new();
        for (class_idx, class) in w.classes.iter().enumerate() {
            let shifts = if class.shift_sensitive() { w.n } else { 1 };
            for base in 0..w.bases {
                keys.extend((0..shifts).map(|shift| (class_idx, base, shift)));
            }
        }
        let threads = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(keys.len().max(1));
        let parts: Vec<Result<Vec<_>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let keys = &keys;
                    scope.spawn(move || {
                        keys.iter()
                            .skip(t)
                            .step_by(threads)
                            .map(|&(class, base, shift)| {
                                let c = w.classes[class];
                                let series = rotated(&inputs.bases[base], shift);
                                expected(&series, c.invariance, c.measure, c.answer, &inputs.db)
                                    .map(|e| ((class, base, shift), e))
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("oracle thread panicked".into()))
                })
                .collect()
        });
        let mut table = HashMap::with_capacity(keys.len());
        for part in parts {
            table.extend(part?);
        }
        Ok(Oracle { table })
    }

    /// The expected answer for a planned request.
    pub fn expected(&self, w: &Workload, p: Planned) -> &Expected {
        let shift = if w.classes[p.class].shift_sensitive() {
            p.shift
        } else {
            0
        };
        &self.table[&(p.class, p.base, shift)]
    }
}

fn matrix(series: &[f64], invariance: Invariance) -> Result<RotationMatrix, String> {
    match invariance {
        Invariance::Rotation => RotationMatrix::full(series),
        Invariance::RotationMirror => RotationMatrix::with_mirror(series),
        Invariance::RotationLimited { max_shift } => RotationMatrix::limited(series, max_shift),
        Invariance::RotationLimitedMirror { max_shift } => {
            RotationMatrix::limited_with_mirror(series, max_shift)
        }
    }
    .map_err(|e| e.to_string())
}

/// The brute-force answer for one query series.
pub fn expected(
    series: &[f64],
    invariance: Invariance,
    measure: Measure,
    answer: Answer,
    db: &[Vec<f64>],
) -> Result<Expected, String> {
    let rows = matrix(series, invariance)?;
    let mut counter = StepCounter::new();
    match answer {
        Answer::Nearest => {
            let hit = search_database(&rows, db, measure, &mut counter).ok_or("empty database")?;
            Ok(Expected {
                hits: vec![(hit.index, hit.distance)],
                radius: 0.0,
            })
        }
        Answer::KNearest(k) => Ok(Expected {
            hits: k_nearest(&rows, db, k, measure),
            radius: 0.0,
        }),
        Answer::Range => {
            let four = k_nearest(&rows, db, 4, measure);
            let [.., (_, d3), (_, d4)] = four[..] else {
                return Err("range queries need at least four database items".into());
            };
            let radius = d3 + (d4 - d3) / 2.0;
            let hits = db
                .iter()
                .enumerate()
                .filter_map(|(index, item)| {
                    test_all_rotations(item, &rows, radius, measure, &mut counter)
                        .map(|m| (index, m.distance))
                })
                .collect();
            Ok(Expected { hits, radius })
        }
    }
}

/// k-NN by threading the running k-th-best distance through
/// `test_all_rotations`; distance ties keep the lower index.
fn k_nearest(
    rows: &RotationMatrix,
    db: &[Vec<f64>],
    k: usize,
    measure: Measure,
) -> Vec<(usize, f64)> {
    let mut counter = StepCounter::new();
    let mut best: Vec<(usize, f64)> = Vec::with_capacity(k + 1);
    for (index, item) in db.iter().enumerate() {
        let kth = if best.len() == k {
            best.last().map_or(f64::INFINITY, |b| b.1)
        } else {
            f64::INFINITY
        };
        if let Some(m) = test_all_rotations(item, rows, kth, measure, &mut counter) {
            // Admission is inclusive: an item tying the k-th best loses
            // to the lower index already held.
            if best.len() == k && m.distance >= kth {
                continue;
            }
            let at = best.partition_point(|&(_, d)| d <= m.distance);
            best.insert(at, (index, m.distance));
            best.truncate(k);
        }
    }
    best
}

/// Check one reply against its expected answer. Indices must match
/// exactly; distances to a relative 1e-9, the tolerance the exactness
/// suites use, because the engine and the brute-force scan may sum a
/// rotation's terms in different orders.
pub fn check(expected: &Expected, reply: &Response) -> Result<(), String> {
    let q = match reply {
        Response::Query(q) => q,
        Response::Overloaded => return Err("overloaded".into()),
        Response::Error { code, message } => return Err(format!("error {code}: {message}")),
        other => return Err(format!("unexpected reply {other:?}")),
    };
    if q.status != QueryStatus::Complete {
        return Err(format!("status {:?}", q.status));
    }
    if q.hits.len() != expected.hits.len() {
        return Err(format!(
            "{} hits, oracle has {}",
            q.hits.len(),
            expected.hits.len()
        ));
    }
    for (rank, (hit, &(index, distance))) in q.hits.iter().zip(&expected.hits).enumerate() {
        if hit.index != index as u64 {
            return Err(format!("hit {rank}: index {} != oracle {index}", hit.index));
        }
        let scale = hit.distance.abs().max(distance.abs()).max(1.0);
        if (hit.distance - distance).abs() > 1e-9 * scale {
            return Err(format!(
                "hit {rank}: distance {} != oracle {distance}",
                hit.distance
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{inputs, workload};
    use rotind_index::IndexSnapshot;
    use rotind_obs::{NoBudget, NoopObserver};
    use rotind_serve::wire::{Hit, QueryResponse};

    /// Every class of every workload on a small database: the engine's
    /// reply passes the check, and a reply with one index or one
    /// distance altered fails it.
    #[test]
    fn check_accepts_the_engine_and_rejects_altered_replies() {
        for name in crate::workload::NAMES {
            let mut w = workload(name).unwrap();
            w.m = 40;
            w.bases = 3;
            let data = inputs(&w, 11);
            let oracle = Oracle::build(&w, &data).unwrap();
            let snapshot = IndexSnapshot::new(data.db.clone()).unwrap();
            for g in 0..(3 * w.classes.len() as u64) {
                let p = w.plan(11, g);
                let exp = oracle.expected(&w, p);
                let rotind_serve::Request::Query(q) = w.request(&data, p, exp.radius) else {
                    unreachable!()
                };
                let hits: Vec<Hit> = snapshot
                    .execute(
                        &q.spec,
                        &mut StepCounter::new(),
                        &mut NoopObserver,
                        &mut NoBudget,
                        None,
                    )
                    .unwrap()
                    .into_inner()
                    .iter()
                    .map(Hit::from)
                    .collect();
                assert!(!hits.is_empty(), "{name}: empty answer");
                let reply = |hits: Vec<Hit>| {
                    Response::Query(QueryResponse {
                        status: QueryStatus::Complete,
                        steps: 0,
                        hits,
                    })
                };
                assert_eq!(check(exp, &reply(hits.clone())), Ok(()), "{name} {p:?}");

                let mut wrong_index = hits.clone();
                wrong_index[0].index = (wrong_index[0].index + 1) % w.m as u64;
                assert!(check(exp, &reply(wrong_index)).is_err(), "{name}: index");

                let mut wrong_distance = hits.clone();
                wrong_distance[0].distance *= 1.0 + 1e-6;
                wrong_distance[0].distance += 1e-6;
                assert!(
                    check(exp, &reply(wrong_distance)).is_err(),
                    "{name}: distance"
                );

                let mut missing = hits;
                missing.pop();
                assert!(check(exp, &reply(missing)).is_err(), "{name}: length");
                assert!(check(exp, &Response::Overloaded).is_err());
            }
        }
    }

    #[test]
    fn range_radius_sits_between_third_and_fourth_neighbours() {
        let mut w = workload("serve-mix-n32").unwrap();
        w.m = 30;
        let data = inputs(&w, 3);
        let class = w.classes[2];
        let series = rotated(&data.bases[0], 7);
        let four = expected(
            &series,
            class.invariance,
            class.measure,
            Answer::KNearest(4),
            &data.db,
        )
        .unwrap();
        let range = expected(
            &series,
            class.invariance,
            class.measure,
            Answer::Range,
            &data.db,
        )
        .unwrap();
        assert!(four.hits[2].1 <= range.radius && range.radius < four.hits[3].1);
        assert_eq!(range.hits.len(), 3);
    }
}
