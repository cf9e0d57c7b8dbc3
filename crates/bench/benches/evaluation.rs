//! C6 — naive vs compiled (delta-driven) Γ evaluation (an implementation
//! ablation; the two modes are observably identical, see
//! `park_engine::bytecode`), plus the parallel compiled variants at 2 and 4
//! threads (also observably identical — the ordered merge reproduces the
//! sequential stream).
//!
//! Recursive workloads make naive evaluation re-derive the entire closure
//! every step (O(steps × |closure| × joins)); the delta-driven evaluator
//! touches each derivation once.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use park_bench::Session;
use park_engine::{EngineOptions, EvaluationMode};
use park_workloads as wl;
use std::hint::black_box;

fn bench_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("c6_evaluation_mode");
    group.sample_size(10);
    for n in [32usize, 64, 128] {
        let facts = wl::erdos_renyi_edges(n, 4.0 / n as f64, 9);
        let naive = Session::new(
            &wl::transitive_closure_program(),
            &facts,
            EngineOptions::default(),
        );
        let compiled = Session::new(
            &wl::transitive_closure_program(),
            &facts,
            EngineOptions::default().with_evaluation(EvaluationMode::Compiled),
        );
        // The modes must agree before we time them.
        assert!(naive
            .run_inertia()
            .database
            .same_facts(&compiled.run_inertia().database));

        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| black_box(naive.run_inertia().database.len()))
        });
        group.bench_with_input(BenchmarkId::new("compiled", n), &n, |b, _| {
            b.iter(|| black_box(compiled.run_inertia().database.len()))
        });
        for threads in [2usize, 4] {
            let par = Session::new(
                &wl::transitive_closure_program(),
                &facts,
                EngineOptions::default()
                    .with_evaluation(EvaluationMode::Compiled)
                    .with_parallelism(Some(threads)),
            );
            assert!(par
                .run_inertia()
                .database
                .same_facts(&compiled.run_inertia().database));
            group.bench_with_input(
                BenchmarkId::new(format!("compiled_t{threads}"), n),
                &n,
                |b, _| b.iter(|| black_box(par.run_inertia().database.len())),
            );
        }
    }
    group.finish();
}

fn bench_modes_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("c6_evaluation_mode_path");
    group.sample_size(10);
    for n in [32usize, 64] {
        let naive = Session::new(
            &wl::transitive_closure_program(),
            &wl::path_edges(n),
            EngineOptions::default(),
        );
        let compiled = Session::new(
            &wl::transitive_closure_program(),
            &wl::path_edges(n),
            EngineOptions::default().with_evaluation(EvaluationMode::Compiled),
        );
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| black_box(naive.run_inertia().database.len()))
        });
        group.bench_with_input(BenchmarkId::new("compiled", n), &n, |b, _| {
            b.iter(|| black_box(compiled.run_inertia().database.len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_modes, bench_modes_path);
criterion_main!(benches);
