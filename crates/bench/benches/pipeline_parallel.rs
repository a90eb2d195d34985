//! Pipeline ablation: sequential vs. parallel `analyze_compiled`, and
//! cold vs. warm repeated analysis across every reuse-plane tier.
//!
//! Measures the staged shared-context pipeline of `pwcet-core` in its
//! sequential reference mode and with the fan-out of per-`(set, fault)`
//! delta ILP solves across worker threads, plus three reuse ablations:
//! a `pfail` sweep cold (fresh context and cold fixpoints per point) vs.
//! warm (memory tier + incremental classification), the same sweep over
//! a fresh memory tier backed by a pre-populated **disk tier** (the
//! cross-process cost), and an associativity sweep over the paper's
//! geometry lattice cold vs. **derived** (one fixpoint seeding all
//! narrower way counts). Records everything in `BENCH_pipeline.json` at
//! the workspace root.
//!
//! ```text
//! cargo bench -p pwcet-bench --bench pipeline_parallel
//! ```

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pwcet_bench::{
    bench_json, sweep_geometry_cached, sweep_pfail_cached, sweep_pfail_planed, TARGET_PROBABILITY,
};
use pwcet_cache::GeometryLattice;
use pwcet_core::{
    AnalysisConfig, ClassificationMode, ContextCache, Parallelism, Protection, PwcetAnalyzer,
    ReusePlane,
};

const PROGRAM: &str = "adpcm";
const SWEEP_PROGRAM: &str = "crc";
const SWEEP_PFAILS: [f64; 4] = [1e-6, 1e-5, 1e-4, 1e-3];

/// Scratch directory for the disk-tier rows (wiped per bench process).
fn disk_tier_dir() -> PathBuf {
    std::env::temp_dir().join(format!("pwcet-bench-disk-{}", std::process::id()))
}

fn configs() -> [(&'static str, AnalysisConfig); 2] {
    let base = AnalysisConfig::paper_default();
    [
        ("sequential", base.with_parallelism(Parallelism::Sequential)),
        ("parallel", base.with_parallelism(Parallelism::Auto)),
    ]
}

fn bench_pipeline(c: &mut Criterion) {
    let bench = pwcet_benchsuite::by_name(PROGRAM).expect("benchmark exists");
    let compiled = bench
        .program
        .compile(AnalysisConfig::paper_default().code_base)
        .expect("compiles");

    let mut group = c.benchmark_group("pipeline");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));

    for (label, config) in configs() {
        let analyzer = PwcetAnalyzer::new(config);
        group.bench_with_input(
            BenchmarkId::new("analyze_compiled", label),
            &compiled,
            |b, compiled| {
                b.iter(|| {
                    criterion::black_box(analyzer.analyze_compiled(compiled).expect("analyzes"))
                })
            },
        );
    }
    group.finish();
}

fn bench_batch(c: &mut Criterion) {
    let programs: Vec<_> = ["bs", "crc", "matmult", "fir"]
        .iter()
        .map(|name| {
            pwcet_benchsuite::by_name(name)
                .expect("benchmark exists")
                .program
        })
        .collect();

    let mut group = c.benchmark_group("batch");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));

    for (label, config) in configs() {
        let analyzer = PwcetAnalyzer::new(config);
        group.bench_with_input(
            BenchmarkId::new("analyze_batch_4", label),
            &programs,
            |b, programs| {
                b.iter(|| criterion::black_box(analyzer.analyze_batch(programs).expect("analyzes")))
            },
        );
    }
    group.finish();
}

/// Cold vs. warm sweep: the cold row rebuilds context + cold fixpoints at
/// every `pfail` point; the warm row shares one cached, incrementally
/// classified context across all points.
fn bench_sweep(c: &mut Criterion) {
    let bench = pwcet_benchsuite::by_name(SWEEP_PROGRAM).expect("benchmark exists");
    let cold_config = AnalysisConfig::paper_default()
        .with_classification(ClassificationMode::Cold)
        .with_parallelism(Parallelism::Sequential);
    let warm_config = AnalysisConfig::paper_default().with_parallelism(Parallelism::Sequential);

    let mut group = c.benchmark_group("sweep_pfail");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));

    group.bench_function(BenchmarkId::new("pfail4", "cold"), |b| {
        b.iter(|| {
            // Mirrors one `sweep_pfail` row per point — analysis plus the
            // three protection estimates — but rebuilds the context and
            // re-converges every fixpoint from scratch each time.
            for pfail in SWEEP_PFAILS {
                let config = cold_config.with_pfail(pfail).expect("valid pfail");
                let analysis = PwcetAnalyzer::new(config)
                    .analyze(&bench.program)
                    .expect("analyzes");
                for protection in Protection::all() {
                    criterion::black_box(
                        analysis.estimate(protection).pwcet_at(TARGET_PROBABILITY),
                    );
                }
            }
        })
    });
    // The cache outlives the iterations: after the very first point the
    // steady state is 100% hits, which is exactly the repeated-sweep
    // workload the cache exists for.
    let cache = Arc::new(ContextCache::default());
    group.bench_function(BenchmarkId::new("pfail4", "warm"), |b| {
        b.iter(|| {
            criterion::black_box(
                sweep_pfail_cached(
                    &bench,
                    &warm_config,
                    &SWEEP_PFAILS,
                    TARGET_PROBABILITY,
                    &cache,
                )
                .expect("sweeps"),
            )
        })
    });
    group.finish();
}

/// Geometry sweep over the paper's lattice, in two cuts.
///
/// The **classify** rows isolate the stage derivation accelerates: all
/// CHMC levels and the SRB map of every lattice geometry, per-geometry
/// cold fixpoints vs. one cold fixpoint at 4 ways seeding 3, 2, and 1
/// through the reuse plane. The **end-to-end** rows run the full
/// pipeline per geometry; there the per-geometry delta ILPs dominate
/// (the fault miss map is inherently geometry-dependent — see the
/// ILP-sharding ROADMAP item), so the derived speedup reads ~1 even
/// though the classification work shrank.
fn bench_geometry_sweep(c: &mut Criterion) {
    let bench = pwcet_benchsuite::by_name(SWEEP_PROGRAM).expect("benchmark exists");
    let compiled = bench
        .program
        .compile(AnalysisConfig::paper_default().code_base)
        .expect("compiles");
    let lattice = GeometryLattice::paper_default();
    let cold_config = AnalysisConfig::paper_default()
        .with_classification(ClassificationMode::Cold)
        .with_parallelism(Parallelism::Sequential);
    let warm_config = AnalysisConfig::paper_default().with_parallelism(Parallelism::Sequential);

    let mut group = c.benchmark_group("sweep_geometry");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));

    group.bench_function(BenchmarkId::new("classify4321", "cold"), |b| {
        b.iter(|| {
            for geometry in lattice.members() {
                let context = pwcet_core::AnalysisContext::build_with_mode(
                    &compiled,
                    geometry,
                    ClassificationMode::Cold,
                )
                .expect("builds");
                context.prewarm(Parallelism::Sequential);
                criterion::black_box(context.warmed_levels());
            }
        })
    });
    group.bench_function(BenchmarkId::new("classify4321", "derived"), |b| {
        b.iter(|| {
            // A fresh plane per iteration: one cold fixpoint (the widest
            // geometry) plus three genuine derivations — not memory-tier
            // hits of a warmed plane.
            let plane = Arc::new(ReusePlane::in_memory());
            for geometry in lattice.members() {
                let context = plane
                    .get_or_build(&compiled, geometry, ClassificationMode::Incremental)
                    .expect("builds");
                context.prewarm(Parallelism::Sequential);
                criterion::black_box(context.warmed_levels());
            }
            assert_eq!(plane.stats().derived as usize, lattice.len() - 1);
        })
    });

    // ILP-stage isolation: the fault-free WCET objective of every lattice
    // point, solved per-geometry cold (fresh sparse model + phase 1 each
    // time) vs. warm objective re-solves against the one cross-geometry
    // template the registry shares across siblings. This is the stage the
    // template registry accelerates inside the ways4321 rows above.
    let plane = Arc::new(ReusePlane::in_memory());
    let ilp_points: Vec<_> = lattice
        .members()
        .map(|geometry| {
            let context = plane
                .get_or_build(&compiled, geometry, ClassificationMode::Incremental)
                .expect("builds");
            context.prewarm(Parallelism::Sequential);
            let costs = pwcet_ipet::CostModel::from_chmc(
                context.cfg(),
                context.chmc(geometry.ways()),
                &warm_config.timing,
            );
            // Untimed: build (or hit) the shared template and factor its
            // prototype basis once, so the warm row times only the
            // objective re-solves — the steady state of a sweep.
            let template = context.ipet_template();
            template.bound(&costs).expect("solves");
            (context, costs, template)
        })
        .collect();
    group.bench_function(BenchmarkId::new("ilp4321", "cold"), |b| {
        b.iter(|| {
            for (context, costs, _) in &ilp_points {
                criterion::black_box(pwcet_ipet::ipet_bound(context.cfg(), costs).expect("solves"));
            }
        })
    });
    group.bench_function(BenchmarkId::new("ilp4321", "warm"), |b| {
        b.iter(|| {
            for (_, costs, template) in &ilp_points {
                criterion::black_box(template.bound(costs).expect("solves"));
            }
        })
    });
    drop(ilp_points);

    group.bench_function(BenchmarkId::new("ways4321", "cold"), |b| {
        b.iter(|| {
            for geometry in lattice.members() {
                let mut config = cold_config;
                config.geometry = geometry;
                let analysis = PwcetAnalyzer::new(config)
                    .analyze(&bench.program)
                    .expect("analyzes");
                for protection in Protection::all() {
                    criterion::black_box(
                        analysis.estimate(protection).pwcet_at(TARGET_PROBABILITY),
                    );
                }
            }
        })
    });
    group.bench_function(BenchmarkId::new("ways4321", "derived"), |b| {
        b.iter(|| {
            let plane = Arc::new(ReusePlane::in_memory());
            let rows =
                sweep_geometry_cached(&bench, &warm_config, &lattice, TARGET_PROBABILITY, &plane)
                    .expect("sweeps");
            assert_eq!(plane.stats().derived as usize, lattice.len() - 1);
            criterion::black_box(rows)
        })
    });
    group.finish();
}

/// The cross-process path: every iteration opens a **fresh memory tier**
/// over a pre-populated disk store, so all contexts arrive by decoding —
/// the cost a second process pays. Compare against `sweep_pfail/cold`.
fn bench_disk_tier(c: &mut Criterion) {
    let bench = pwcet_benchsuite::by_name(SWEEP_PROGRAM).expect("benchmark exists");
    let config = AnalysisConfig::paper_default().with_parallelism(Parallelism::Sequential);
    let dir = disk_tier_dir();
    let _ = std::fs::remove_dir_all(&dir);

    // Populate the store once, untimed.
    let writer = Arc::new(
        ReusePlane::in_memory()
            .with_disk_tier(&dir)
            .expect("temp dir is writable"),
    );
    sweep_pfail_planed(&bench, &config, &SWEEP_PFAILS, TARGET_PROBABILITY, &writer)
        .expect("sweeps");
    writer.flush();

    let mut group = c.benchmark_group("sweep_pfail_disk");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    group.bench_function(BenchmarkId::new("pfail4", "disk"), |b| {
        b.iter(|| {
            let reader = Arc::new(
                ReusePlane::in_memory()
                    .with_disk_tier(&dir)
                    .expect("temp dir is writable"),
            );
            let rows =
                sweep_pfail_planed(&bench, &config, &SWEEP_PFAILS, TARGET_PROBABILITY, &reader)
                    .expect("sweeps");
            assert!(
                reader.stats().disk_hits > 0,
                "a fresh memory tier must be answered from disk"
            );
            criterion::black_box(rows)
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Folds the measurements into `BENCH_pipeline.json` at the workspace root.
fn emit_json(c: &mut Criterion) {
    if c.is_test_mode() {
        // One-shot smoke runs (`cargo test` / CI) record 1-iteration
        // noise; never let that overwrite a real measurement.
        return;
    }
    let mean_of = |needle: &str| {
        c.results()
            .iter()
            .find(|r| r.name.contains(needle))
            .map(|r| r.mean_ns)
    };
    let (Some(seq), Some(par)) = (
        mean_of("analyze_compiled/sequential"),
        mean_of("analyze_compiled/parallel"),
    ) else {
        // `cargo test` one-shot mode measures nothing meaningful.
        return;
    };
    let (batch_seq, batch_par) = (
        mean_of("analyze_batch_4/sequential").unwrap_or(0.0),
        mean_of("analyze_batch_4/parallel").unwrap_or(0.0),
    );
    let (sweep_cold, sweep_warm) = (
        mean_of("pfail4/cold").unwrap_or(0.0),
        mean_of("pfail4/warm").unwrap_or(0.0),
    );
    let sweep_disk = mean_of("pfail4/disk").unwrap_or(0.0);
    let (geo_classify_cold, geo_classify_derived) = (
        mean_of("classify4321/cold").unwrap_or(0.0),
        mean_of("classify4321/derived").unwrap_or(0.0),
    );
    let (geo_cold, geo_derived) = (
        mean_of("ways4321/cold").unwrap_or(0.0),
        mean_of("ways4321/derived").unwrap_or(0.0),
    );
    let (geo_ilp_cold, geo_ilp_warm) = (
        mean_of("ilp4321/cold").unwrap_or(0.0),
        mean_of("ilp4321/warm").unwrap_or(0.0),
    );
    let threads = Parallelism::Auto.worker_count(usize::MAX);
    let ratio = |cold: f64, warm: f64| if warm > 0.0 { cold / warm } else { 0.0 };
    let updates: Vec<(&str, String)> = vec![
        ("benchmark", bench_json::json_str("pipeline_parallel")),
        ("program", bench_json::json_str(PROGRAM)),
        ("threads", format!("{threads}")),
        ("analyze_compiled_sequential_ns", format!("{seq:.0}")),
        ("analyze_compiled_parallel_ns", format!("{par:.0}")),
        (
            "analyze_compiled_speedup",
            format!("{:.3}", ratio(seq, par)),
        ),
        ("analyze_batch4_sequential_ns", format!("{batch_seq:.0}")),
        ("analyze_batch4_parallel_ns", format!("{batch_par:.0}")),
        (
            "analyze_batch4_speedup",
            format!("{:.3}", ratio(batch_seq, batch_par)),
        ),
        ("sweep_program", bench_json::json_str(SWEEP_PROGRAM)),
        ("sweep_pfail_points", format!("{}", SWEEP_PFAILS.len())),
        ("sweep_pfail_cold_ns", format!("{sweep_cold:.0}")),
        ("sweep_pfail_warm_ns", format!("{sweep_warm:.0}")),
        (
            "sweep_pfail_warm_speedup",
            format!("{:.3}", ratio(sweep_cold, sweep_warm)),
        ),
        ("sweep_pfail_disk_ns", format!("{sweep_disk:.0}")),
        (
            "sweep_pfail_disk_speedup",
            format!("{:.3}", ratio(sweep_cold, sweep_disk)),
        ),
        (
            "sweep_geometry_points",
            format!("{}", GeometryLattice::paper_default().len()),
        ),
        (
            "sweep_geometry_classify_cold_ns",
            format!("{geo_classify_cold:.0}"),
        ),
        (
            "sweep_geometry_classify_derived_ns",
            format!("{geo_classify_derived:.0}"),
        ),
        (
            "sweep_geometry_classify_derived_speedup",
            format!("{:.3}", ratio(geo_classify_cold, geo_classify_derived)),
        ),
        ("sweep_geometry_cold_ns", format!("{geo_cold:.0}")),
        ("sweep_geometry_derived_ns", format!("{geo_derived:.0}")),
        (
            "sweep_geometry_derived_speedup",
            format!("{:.3}", ratio(geo_cold, geo_derived)),
        ),
        ("sweep_geometry_ilp_cold_ns", format!("{geo_ilp_cold:.0}")),
        ("sweep_geometry_ilp_warm_ns", format!("{geo_ilp_warm:.0}")),
        (
            "sweep_geometry_ilp_warm_speedup",
            format!("{:.3}", ratio(geo_ilp_cold, geo_ilp_warm)),
        ),
        (
            "note",
            bench_json::json_str(
                "parallel speedup scales with available cores (1 on a single-core runner); \
                 the warm/disk speedups are algorithmic and show up on any machine; \
                 cross-geometry derivation accelerates the classification stage (classify rows), \
                 and the sparse warm-started ILP core (ilp_* rows) shrank the per-geometry \
                 ILP stage, so all cold baselines here are ~3x faster than pre-sparse runs \
                 (warm ratios shrink accordingly — the absolute warm times did not regress)",
            ),
        ),
        (
            "command",
            bench_json::json_str("cargo bench -p pwcet-bench --bench pipeline_parallel"),
        ),
    ];
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    // Upsert rather than rewrite: the serve_* rows of the service bench
    // (`serve_bench`) live in the same file and must survive.
    bench_json::upsert(path, &updates).expect("workspace root is writable");
    println!("updated {path}");
}

criterion_group!(
    benches,
    bench_pipeline,
    bench_batch,
    bench_sweep,
    bench_geometry_sweep,
    bench_disk_tier,
    emit_json
);
criterion_main!(benches);
