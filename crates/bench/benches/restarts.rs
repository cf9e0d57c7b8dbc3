//! C2 — the Section 4.2 termination/complexity argument: "the above
//! iterative procedure is only executed at most size(P) times … after
//! conflict resolution, at least one rule from P is eliminated."
//!
//! Staggered conflict chains force exactly one restart per conflict;
//! runtime should grow polynomially with the number of chains.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use park_bench::Session;
use park_engine::EngineOptions;
use park_workloads::staggered_conflicts;
use std::hint::black_box;

fn bench_staggered(c: &mut Criterion) {
    let mut group = c.benchmark_group("c2_staggered_restarts");
    group.sample_size(10);
    for k in [2usize, 4, 8, 16, 32] {
        let (rules, facts) = staggered_conflicts(k);
        let session = Session::new(&rules, &facts, EngineOptions::default());
        // Sanity: the restart count equals the conflict count, well under
        // the paper's bound (one per grounding).
        assert_eq!(session.run_inertia().stats.restarts, k as u64);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| black_box(session.run_inertia().stats.restarts))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_staggered);
criterion_main!(benches);
