//! Quickstart: exact rotation-invariant nearest-neighbour search.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a small database of synthetic shape boundaries (as
//! centroid-distance time series), rotates one of them to act as the
//! query, and retrieves it — exactly — with the wedge-accelerated
//! engine, comparing the step cost against the brute-force scan.

use rotind::index::engine::{Invariance, RotationQuery};
use rotind::index::QueryKind;
use rotind::obs::{NoBudget, NoopObserver};
use rotind::shape::dataset::projectile_points;
use rotind::ts::rotate::rotated;
use rotind::ts::StepCounter;

fn main() {
    // 200 projectile-point outlines, length 128, four morphological
    // classes, each at a random rotation.
    let n = 128;
    let dataset = projectile_points(200, n, 42);
    let mut database = dataset.items.clone();

    // Take one item, rotate it by 100 samples (≈ 281°) and perturb it a
    // little: this is "the same shape photographed at a different
    // orientation".
    let target = 137usize;
    let query: Vec<f64> = rotated(&database[target], 100)
        .iter()
        .enumerate()
        .map(|(i, v)| v + 0.01 * ((i as f64) * 0.7).sin())
        .collect();
    println!("query = item {target} rotated by 100 samples + noise\n");

    // The engine expands the query into all n rotations, clusters them
    // into hierarchical wedges (O(n²) once), then scans.
    let engine = RotationQuery::new(&query, Invariance::Rotation).expect("valid query");
    let mut steps = StepCounter::new();
    let hits = engine
        .search(
            &database,
            QueryKind::Nearest,
            &mut steps,
            &mut NoopObserver,
            &mut NoBudget,
            None,
        )
        .expect("non-empty database")
        .into_inner();
    let hit = hits[0];

    println!("best match : item {}", hit.index);
    println!("distance   : {:.4}", hit.distance);
    println!("rotation   : shift {} of {n}", hit.rotation.shift);
    println!("steps used : {}", steps.steps());

    let brute = rotind::eval::speedup::brute_force_steps(
        database.len(),
        n,
        n,
        rotind::distance::Measure::Euclidean,
    );
    println!(
        "brute force: {brute} steps  ({:.1}x more)\n",
        brute as f64 / steps.steps() as f64
    );
    assert_eq!(hit.index, target);

    // k-NN and range queries come for free.
    let top3 = engine.k_nearest(&database, 3).expect("valid database");
    println!("top-3 neighbours:");
    for nb in &top3 {
        println!(
            "  item {:>3}  class {:<13} distance {:.4}",
            nb.index, dataset.class_names[dataset.labels[nb.index]], nb.distance
        );
    }

    let within = engine
        .range(&database, top3[2].distance)
        .expect("valid database");
    println!("\nitems within {:.4}: {}", top3[2].distance, within.len());

    // Exactness is not probabilistic: delete the planted match and the
    // engine still returns precisely the brute-force answer.
    database.remove(target);
    let oracle = rotind::distance::rotation::search_database(
        &rotind::ts::rotate::RotationMatrix::full(&query).expect("valid"),
        &database,
        rotind::distance::Measure::Euclidean,
        &mut StepCounter::new(),
    )
    .expect("non-empty");
    let hit2 = engine.nearest(&database).expect("non-empty");
    assert_eq!(hit2.index, oracle.index);
    println!(
        "\nafter removing the planted match, engine == brute force: item {} at {:.4}",
        hit2.index, hit2.distance
    );
}
