//! Ablation A1: IPET (ILP) engine vs. structural tree engine — the cost
//! of the paper's engine against the Heptane-lineage oracle on the same
//! cost model.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pwcet_analysis::classify;
use pwcet_cache::{CacheGeometry, CacheTiming};
use pwcet_core::expand_compiled;
use pwcet_ipet::{ipet_bound, tree_bound, CostModel};

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("engines");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));

    for name in ["fibcall", "crc", "matmult"] {
        let bench = pwcet_benchsuite::by_name(name).expect("benchmark exists");
        let compiled = bench.program.compile(0x0040_0000).expect("compiles");
        let cfg = expand_compiled(&compiled).expect("expands");
        let geometry = CacheGeometry::paper_default();
        let chmc = classify(&cfg, &geometry, geometry.ways());
        let costs = CostModel::from_chmc(&cfg, &chmc, &CacheTiming::paper_default());

        group.bench_with_input(BenchmarkId::new("ipet_ilp", name), &(), |b, ()| {
            b.iter(|| std::hint::black_box(ipet_bound(&cfg, &costs).expect("solves")))
        });
        group.bench_with_input(BenchmarkId::new("tree", name), &(), |b, ()| {
            b.iter(|| std::hint::black_box(tree_bound(&compiled, &cfg, &costs)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
