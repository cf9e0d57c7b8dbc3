//! C1 — polynomial tractability (paper Section 3, "the result database
//! state should be computable in time polynomial in the size of the input
//! database instance", and the Section 4.2 complexity argument).
//!
//! Series: transitive closure over Erdős–Rényi graphs and paths (recursion,
//! no conflicts) and the Section 4.2 irreflexive-graph program (conflict
//! resolution at scale), each swept over |D|.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use park_bench::Session;
use park_engine::EngineOptions;
use park_workloads as wl;
use std::hint::black_box;

fn bench_closure_er(c: &mut Criterion) {
    let mut group = c.benchmark_group("c1_closure_erdos_renyi");
    group.sample_size(10);
    for n in [16usize, 32, 64, 128] {
        // Fixed expected out-degree 4: p = 4/n keeps density constant.
        let facts = wl::erdos_renyi_edges(n, 4.0 / n as f64, 9);
        let session = Session::new(
            &wl::transitive_closure_program(),
            &facts,
            EngineOptions::default(),
        );
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(session.run_inertia().database.len()))
        });
    }
    group.finish();
}

fn bench_closure_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("c1_closure_path");
    group.sample_size(10);
    for n in [16usize, 32, 64] {
        let session = Session::new(
            &wl::transitive_closure_program(),
            &wl::path_edges(n),
            EngineOptions::default(),
        );
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(session.run_inertia().database.len()))
        });
    }
    group.finish();
}

fn bench_closure_parallel(c: &mut Criterion) {
    // Transitive closure at a fixed size, swept over thread counts; thread
    // count 1 is the sequential path (no pool), the baseline for speedup.
    let mut group = c.benchmark_group("c1_closure_parallel");
    group.sample_size(10);
    let n = 128usize;
    let facts = wl::erdos_renyi_edges(n, 4.0 / n as f64, 9);
    for threads in [1usize, 2, 4] {
        let session = Session::new(
            &wl::transitive_closure_program(),
            &facts,
            EngineOptions::default().with_parallelism(if threads == 1 {
                None
            } else {
                Some(threads)
            }),
        );
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| black_box(session.run_inertia().database.len()))
        });
    }
    group.finish();
}

fn bench_irreflexive_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("c1_irreflexive_graph");
    group.sample_size(10);
    for n in [4usize, 8, 12, 16] {
        let session = Session::new(
            &wl::irreflexive_graph_program(),
            &wl::nodes_database(n),
            EngineOptions::default(),
        );
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(session.run_inertia().stats.restarts))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_closure_er,
    bench_closure_path,
    bench_closure_parallel,
    bench_irreflexive_graph
);
criterion_main!(benches);
