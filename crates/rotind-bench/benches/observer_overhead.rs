//! Observer overhead, measured: [`RotationQuery::search`] under a
//! [`NoopObserver`] is the plain scan (the no-op callbacks are
//! monomorphized away), and a recording [`QueryTrace`] should add only
//! the cost of bumping a few counters.
//!
//! [`NoopObserver`]: rotind_obs::NoopObserver
//! [`QueryTrace`]: rotind_obs::QueryTrace

use criterion::{criterion_group, criterion_main, Criterion};
use rotind_index::engine::{Invariance, RotationQuery};
use rotind_index::QueryKind;
use rotind_obs::{NoBudget, NoopObserver, Profiler, QueryTrace, SearchObserver};
use rotind_shape::dataset::projectile_points;
use rotind_ts::StepCounter;
use std::hint::black_box;

fn nearest<O: SearchObserver>(engine: &RotationQuery, db: &[Vec<f64>], observer: &mut O) {
    let mut s = StepCounter::new();
    engine
        .search(
            db,
            QueryKind::Nearest,
            &mut s,
            observer,
            &mut NoBudget,
            None,
        )
        .expect("valid");
}

fn bench_observer_overhead(c: &mut Criterion) {
    let n = 128;
    let m = 400;
    let ds = projectile_points(m + 1, n, 9);
    let db: Vec<Vec<f64>> = ds.items[..m].to_vec();
    let query = ds.items[m].clone();
    let engine = RotationQuery::new(&query, Invariance::Rotation).expect("valid");

    let mut group = c.benchmark_group("observer");
    group.sample_size(20);

    group.bench_function("noop_observer", |b| {
        b.iter(|| nearest(&engine, black_box(&db), &mut NoopObserver))
    });
    group.bench_function("query_trace", |b| {
        b.iter(|| nearest(&engine, black_box(&db), &mut QueryTrace::new(n)))
    });
    // The profiler reads the clock at every phase boundary — the
    // costliest observer. This row bounds what `--bin trace`'s second
    // pass pays.
    group.bench_function("profiler", |b| {
        b.iter(|| nearest(&engine, black_box(&db), &mut Profiler::new()))
    });

    group.finish();
}

criterion_group!(benches, bench_observer_overhead);
criterion_main!(benches);
