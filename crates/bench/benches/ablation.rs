//! EB8 — Ablation: restrictor pruning *during* the search (the design
//! DESIGN.md decision 2 mandates, following §5.1) vs. checking restrictors
//! only when a match completes.
//!
//! Both produce identical results (property-tested in
//! `tests/extensions.rs`); the deferred variant explores every walk up to
//! the static cap, which explodes on cyclic graphs — the measurement that
//! justifies in-search pruning.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use gpml_bench::run_query_with;
use gpml_core::eval::EvalOptions;
use gpml_datagen::{cycle, small_mixed};

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("EB8/restrictor_pruning");
    // The deferred variant runs hundreds of milliseconds per iteration;
    // keep sampling light.
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(8));
    let pruned = EvalOptions::default();
    let deferred = EvalOptions {
        defer_restrictors: true,
        ..EvalOptions::default()
    };
    let query = "MATCH TRAIL (a)-[t:Transfer]->+(b)";

    for n in [4usize, 5, 6] {
        let g = cycle(n);
        group.bench_with_input(BenchmarkId::new("pruned/cycle", n), &g, |b, g| {
            b.iter(|| run_query_with(g, query, &pruned).len())
        });
        group.bench_with_input(BenchmarkId::new("deferred/cycle", n), &g, |b, g| {
            b.iter(|| run_query_with(g, query, &deferred).len())
        });
    }

    // Branchy mixed graphs are where deferral explodes: walks are only
    // cut at the static |E| cap instead of at the first repeated edge.
    // (At 12+ edges the deferred variant already exceeds the 10^6-state
    // frontier limit — that cliff is the measurement.)
    let mixed_query = "MATCH TRAIL (a)-[t:T]->+(b)";
    for edges in [7usize, 8, 9] {
        let g = small_mixed(3, 5, edges);
        group.bench_with_input(BenchmarkId::new("pruned/mixed5", edges), &g, |b, g| {
            b.iter(|| run_query_with(g, mixed_query, &pruned).len())
        });
        group.bench_with_input(BenchmarkId::new("deferred/mixed5", edges), &g, |b, g| {
            b.iter(|| run_query_with(g, mixed_query, &deferred).len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
