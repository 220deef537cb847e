//! Criterion end-to-end benchmarks: query B1 under every approach on a
//! small BSBM-like dataset — the per-strategy cost the figure binaries
//! measure, as a tracked regression benchmark.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ntga::prelude::*;
use std::hint::black_box;

fn bench_b1_all_approaches(c: &mut Criterion) {
    let store = datagen::bsbm::generate(&datagen::BsbmConfig::with_products(60));
    let b1 = ntga::testbed::b_series().remove(1);
    let mut group = c.benchmark_group("endtoend_b1");
    group.sample_size(10);
    for approach in [
        Approach::Pig,
        Approach::Hive,
        Approach::NtgaEager,
        Approach::NtgaLazyFull,
        Approach::NtgaAuto(1024),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(approach.label()),
            &approach,
            |b, &approach| {
                b.iter(|| {
                    let engine = ClusterConfig::default().engine_with(&store);
                    black_box(run_query(approach, &engine, &b1.query, "bench", false).unwrap())
                })
            },
        );
    }
    group.finish();
}

fn bench_grouping_cycle(c: &mut Criterion) {
    // Job 1 alone: the all-stars-in-one-cycle grouping that is NTGA's
    // structural advantage.
    let store = datagen::bio2rdf::generate(&datagen::Bio2RdfConfig::with_genes(100));
    let a6 = ntga::testbed::a_series().remove(5);
    let mut group = c.benchmark_group("grouping_cycle_a6");
    group.sample_size(10);
    for (label, eager) in [("lazy", false), ("eager", true)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let engine = ClusterConfig::default().engine_with(&store);
                let job = ntga_core::physical::group_filter_job(
                    "j1",
                    &a6.query,
                    TRIPLES_FILE,
                    vec!["e0".into(), "e1".into()],
                    vec![eager; 2],
                    None,
                );
                black_box(engine.run_job(&job).unwrap())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_b1_all_approaches, bench_grouping_cycle);
criterion_main!(benches);
