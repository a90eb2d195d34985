//! Differential suite: the warm paths are bit-identical to the cold ones.
//!
//! Warm-started fixpoints are a classic soundness trap — a seed above the
//! fixpoint silently converges to an imprecise (or, with a buggy domain,
//! unsound) solution. This suite pins the incremental classification and
//! the content-addressed context cache against the cold reference across
//! the modelled benchmark suite:
//!
//! * every CHMC level of every benchmark, warm chain vs. cold fixpoint
//!   (`classification_*` tests — whole suite, classification only);
//! * the full pipeline — FMM, SRB columns, exceedance curves, quantiles —
//!   on a category-spanning subset (always on) and on the complete suite
//!   (`#[ignore]`d, exercised by the nightly CI `--include-ignored` step);
//! * the bit-packed word-parallel classification kernel against the frozen
//!   set-based oracle, level by level, and the full pipeline against the
//!   oracle pipeline of `tests/oracle/mod.rs` (`packed_backend_*` tests —
//!   spanning subset always on, complete suite nightly);
//! * the per-context penalty-distribution memo against plane-less fresh
//!   convolutions (`penalty_memo_*` tests — spanning subset always on,
//!   complete suite nightly).

mod oracle;

use std::sync::Arc;

use fault_aware_pwcet::analysis::{
    classify, classify_level, classify_level_from, classify_srb, reference,
};
use fault_aware_pwcet::benchsuite;
use fault_aware_pwcet::cache::{CacheGeometry, GeometryLattice};
use fault_aware_pwcet::core::{
    expand_compiled, AnalysisConfig, AnalysisContext, ClassificationMode, Parallelism,
    ProgramAnalysis, Protection, PwcetAnalyzer, ReusePlane, ReuseTier,
};
use fault_aware_pwcet::prob::DiscreteDistribution;
use fault_aware_pwcet::progen::CompiledProgram;

const TARGET_PROBABILITIES: [f64; 4] = [1e-3, 1e-9, 1e-15, 1.0];

/// The category-spanning subset the always-on full-pipeline tests use.
const SPAN: [&str; 6] = ["bs", "crc", "fibcall", "fir", "matmult", "ud"];

fn cold_config() -> AnalysisConfig {
    AnalysisConfig::paper_default()
        .with_classification(ClassificationMode::Cold)
        .with_parallelism(Parallelism::Sequential)
}

fn warm_config() -> AnalysisConfig {
    AnalysisConfig::paper_default()
        .with_classification(ClassificationMode::Incremental)
        .with_parallelism(Parallelism::Sequential)
}

/// A fresh plane's cold-built context of `compiled` at `geometry` under
/// the incremental classification.
fn fresh_context(compiled: &CompiledProgram, geometry: CacheGeometry) -> Arc<AnalysisContext> {
    let (context, tier) = ReusePlane::in_memory()
        .get_or_build_traced(compiled, geometry, ClassificationMode::Incremental)
        .unwrap();
    assert_eq!(tier, ReuseTier::Cold);
    context
}

/// Asserts every protection-independent and protection-dependent artifact
/// of two analyses is bit-identical.
fn assert_analyses_identical(name: &str, cold: &ProgramAnalysis, warm: &ProgramAnalysis) {
    assert_eq!(
        cold.fault_free_wcet(),
        warm.fault_free_wcet(),
        "{name}: fault-free WCET"
    );
    assert_eq!(cold.fmm(), warm.fmm(), "{name}: fault miss map");
    assert_eq!(
        cold.srb_last_column(),
        warm.srb_last_column(),
        "{name}: SRB columns"
    );
    for protection in Protection::all() {
        let cold_estimate = cold.estimate(protection);
        let warm_estimate = warm.estimate(protection);
        assert_eq!(
            cold_estimate.exceedance_curve(),
            warm_estimate.exceedance_curve(),
            "{name}/{protection}: exceedance curve"
        );
        for p in TARGET_PROBABILITIES {
            assert_eq!(
                cold_estimate.pwcet_at(p),
                warm_estimate.pwcet_at(p),
                "{name}/{protection}: quantile at {p}"
            );
        }
    }
}

#[test]
fn classification_warm_chain_matches_cold_across_the_suite() {
    // Whole benchmark suite, every associativity level: the warm-started
    // chain must reproduce the cold fixpoint bit for bit. Classification
    // only (no ILP), so the full population stays fast enough for tier 1.
    let config = warm_config();
    for bench in benchsuite::all() {
        let compiled = bench.program.compile(config.code_base).unwrap();
        let context = fresh_context(&compiled, config.geometry);
        context.prewarm(Parallelism::Sequential);
        let cfg = expand_compiled(&compiled).unwrap();
        for assoc in 0..=config.geometry.ways() {
            let cold = classify(&cfg, &config.geometry, assoc);
            assert_eq!(
                context.chmc(assoc),
                &cold,
                "{}: CHMC level {assoc} must be bit-identical",
                bench.name
            );
        }
    }
}

#[test]
fn classification_is_parallelism_invariant_under_warm_start() {
    // The warm chain + SRB pair runs through `par_join`; fan-out must not
    // change a single classification.
    let config = warm_config();
    for name in SPAN {
        let bench = benchsuite::by_name(name).unwrap();
        let compiled = bench.program.compile(config.code_base).unwrap();
        let sequential = fresh_context(&compiled, config.geometry);
        sequential.prewarm(Parallelism::Sequential);
        let parallel = fresh_context(&compiled, config.geometry);
        parallel.prewarm(Parallelism::threads(4));
        for assoc in 0..=config.geometry.ways() {
            assert_eq!(
                sequential.chmc(assoc),
                parallel.chmc(assoc),
                "{name}: level {assoc}"
            );
        }
        assert_eq!(sequential.srb(), parallel.srb(), "{name}: SRB map");
    }
}

#[test]
fn full_pipeline_warm_matches_cold_on_spanning_subset() {
    let plane = Arc::new(ReusePlane::in_memory());
    let cold_analyzer = PwcetAnalyzer::new(cold_config());
    let warm_analyzer = PwcetAnalyzer::new(warm_config()).with_reuse_plane(Arc::clone(&plane));
    for name in SPAN {
        let bench = benchsuite::by_name(name).unwrap();
        let cold = cold_analyzer.analyze(&bench.program).unwrap();
        let warm = warm_analyzer.analyze(&bench.program).unwrap();
        assert_analyses_identical(name, &cold, &warm);
        // Second warm run: answered from the cache, still identical.
        let cached = warm_analyzer.analyze(&bench.program).unwrap();
        assert_analyses_identical(name, &cold, &cached);
    }
    let stats = plane.stats().memory;
    assert_eq!(stats.misses as usize, SPAN.len());
    assert_eq!(stats.hits as usize, SPAN.len(), "re-analyses must hit");
}

#[test]
fn batch_with_cache_matches_cold_individual_analyses() {
    // The batch runs concurrently, one thread per program, through one
    // analyzer over a shared plane, as a server's shards do.
    let programs: Vec<_> = SPAN
        .iter()
        .map(|name| benchsuite::by_name(name).unwrap().program)
        .collect();
    let warm_analyzer =
        PwcetAnalyzer::new(warm_config()).with_reuse_plane(Arc::new(ReusePlane::in_memory()));
    let batch: Vec<ProgramAnalysis> = std::thread::scope(|scope| {
        let analyses: Vec<_> = programs
            .iter()
            .map(|program| scope.spawn(|| warm_analyzer.analyze(program).unwrap()))
            .collect();
        analyses
            .into_iter()
            .map(|analysis| analysis.join().unwrap())
            .collect()
    });
    let cold_analyzer = PwcetAnalyzer::new(cold_config());
    for (program, warm) in programs.iter().zip(&batch) {
        let cold = cold_analyzer.analyze(program).unwrap();
        assert_analyses_identical(warm.name(), &cold, warm);
    }
}

/// Derived-geometry equivalence over one benchmark: every way count of
/// the lattice, resolved through a shared [`ReusePlane`] (so every
/// narrower point is *derived* from the widest, never built cold), must
/// match an independent cold-mode analysis of that geometry — CHMC
/// levels, FMM, SRB columns, exceedance curves, and quantiles.
fn assert_geometry_derivation_matches_cold(name: &str, plane: &Arc<ReusePlane>) {
    let lattice = GeometryLattice::paper_default();
    let bench = benchsuite::by_name(name).unwrap();
    let compiled = bench.program.compile(warm_config().code_base).unwrap();
    for geometry in lattice.members() {
        let mut warm_point = warm_config();
        warm_point.geometry = geometry;
        let derived = PwcetAnalyzer::new(warm_point)
            .with_reuse_plane(Arc::clone(plane))
            .analyze_compiled(&compiled)
            .unwrap()
            .0;

        let mut cold_point = cold_config();
        cold_point.geometry = geometry;
        let cold = PwcetAnalyzer::new(cold_point)
            .analyze_compiled(&compiled)
            .unwrap()
            .0;
        assert_analyses_identical(&format!("{name}@{}ways", geometry.ways()), &cold, &derived);

        // Classification levels of the derived context, against direct
        // cold fixpoints under the narrow geometry.
        let context = plane
            .get_or_build_traced(&compiled, geometry, ClassificationMode::Incremental)
            .unwrap()
            .0;
        let cfg = expand_compiled(&compiled).unwrap();
        for assoc in 0..=geometry.ways() {
            let reference = classify(&cfg, &geometry, assoc);
            assert_eq!(
                context.chmc(assoc),
                &reference,
                "{name}@{}ways: CHMC level {assoc}",
                geometry.ways()
            );
        }
    }
}

#[test]
fn geometry_derivation_matches_cold_on_spanning_subset() {
    let plane = Arc::new(ReusePlane::in_memory());
    for name in SPAN {
        assert_geometry_derivation_matches_cold(name, &plane);
    }
    let stats = plane.stats();
    assert_eq!(
        stats.cold_builds as usize,
        SPAN.len(),
        "one cold build per benchmark — the widest geometry"
    );
    assert_eq!(
        stats.derived as usize,
        SPAN.len() * (GeometryLattice::paper_default().len() - 1),
        "every narrower way count is derived"
    );
}

#[test]
#[ignore = "runs the complete 25-benchmark suite across every lattice way count (~minutes); nightly CI runs it via --include-ignored"]
fn geometry_derivation_matches_cold_across_the_entire_suite() {
    let plane = Arc::new(ReusePlane::in_memory());
    for bench in benchsuite::all() {
        assert_geometry_derivation_matches_cold(bench.name, &plane);
    }
    assert_eq!(plane.stats().cold_builds as usize, benchsuite::all().len());
}

/// Packed-vs-oracle identity of one benchmark: every CHMC level both
/// cold and truncation-warm-started against the set-based oracle, the
/// SRB map, and the full pipeline's bounds against the oracle pipeline.
/// The set-based oracle replays the pre-packing fixpoints, so any
/// packed-kernel bug — a mis-shifted age lane, a stray bit past the
/// interned universe, a wrong prefix-OR in the join — shows up as a diff
/// here.
fn assert_packed_matches_reference(name: &str) {
    let config = warm_config();
    let bench = benchsuite::by_name(name).unwrap();
    let compiled = bench.program.compile(config.code_base).unwrap();
    let cfg = expand_compiled(&compiled).unwrap();
    let geometry = config.geometry;
    let ways = geometry.ways();

    // Classification levels: cold at every associativity, plus the
    // truncation warm starts the incremental chain actually takes.
    let packed_full = classify_level(&cfg, &geometry, ways);
    let reference_full = reference::classify_level(&cfg, &geometry, ways);
    assert_eq!(packed_full, reference_full, "{name}: full level");
    for assoc in 0..ways {
        let packed = classify_level(&cfg, &geometry, assoc);
        let cold_reference = reference::classify_level(&cfg, &geometry, assoc);
        assert_eq!(packed, cold_reference, "{name}: cold level {assoc}");
        let warm_packed = classify_level_from(&cfg, &geometry, &packed_full, assoc);
        let warm_reference =
            reference::classify_level_from(&cfg, &geometry, &reference_full, assoc);
        assert_eq!(warm_packed, warm_reference, "{name}: warm level {assoc}");
        assert_eq!(warm_packed, packed, "{name}: warm level {assoc} vs cold");
    }
    assert_eq!(
        classify_srb(&cfg, &geometry),
        reference::classify_srb(&cfg, &geometry),
        "{name}: SRB map"
    );

    // The full pipeline against the oracle pipeline.
    let (analysis, _) = PwcetAnalyzer::new(config)
        .analyze_compiled(&compiled)
        .unwrap();
    oracle::assert_matches(
        name,
        &analysis,
        &oracle::reference_bounds(&compiled, &config),
    );
}

#[test]
fn packed_backend_matches_reference_on_spanning_subset() {
    for name in SPAN {
        assert_packed_matches_reference(name);
    }
}

#[test]
#[ignore = "replays the set-based oracle and the oracle pipeline across the complete 25-benchmark suite (~minutes); nightly CI runs it via --include-ignored"]
fn packed_backend_matches_reference_across_the_entire_suite() {
    for bench in benchsuite::all() {
        assert_packed_matches_reference(bench.name);
    }
}

#[test]
#[ignore = "runs the complete 25-benchmark suite twice (~minutes); nightly CI runs it via --include-ignored"]
fn full_pipeline_warm_matches_cold_across_the_entire_suite() {
    let plane = Arc::new(ReusePlane::in_memory());
    let cold_analyzer = PwcetAnalyzer::new(cold_config());
    let warm_analyzer = PwcetAnalyzer::new(warm_config()).with_reuse_plane(Arc::clone(&plane));
    for bench in benchsuite::all() {
        let cold = cold_analyzer.analyze(&bench.program).unwrap();
        let warm = warm_analyzer.analyze(&bench.program).unwrap();
        assert_analyses_identical(bench.name, &cold, &warm);
    }
    assert_eq!(
        plane.stats().memory.misses as usize,
        benchsuite::all().len()
    );
}

/// The `pfail` points of the penalty-memo tests.
const MEMO_PFAILS: [f64; 3] = [1e-5, 1e-4, 1e-3];

/// A penalty distribution as exact bits: support values with their
/// probabilities' bit patterns, and the pruning tail's bit pattern.
fn distribution_bits(distribution: &DiscreteDistribution) -> (Vec<(u64, u64)>, u64) {
    (
        distribution
            .points()
            .iter()
            .map(|&(value, p)| (value, p.to_bits()))
            .collect(),
        distribution.tail_mass().to_bits(),
    )
}

/// Serves every `(pfail, protection)` three times through `plane` at
/// `geometry`: the first computation leaves a memo marker, the second
/// stores the distribution, the third is a memo hit. Every answer must
/// match a plane-less fresh analysis bit for bit, and the first request
/// must come from `first_tier`.
fn assert_served_penalties_match_fresh(
    what: &str,
    compiled: &CompiledProgram,
    plane: &Arc<ReusePlane>,
    geometry: CacheGeometry,
    first_tier: ReuseTier,
) {
    let mut tiers = Vec::new();
    for pfail in MEMO_PFAILS {
        let mut config = warm_config().with_pfail(pfail).unwrap();
        config.geometry = geometry;
        let fresh = PwcetAnalyzer::new(config)
            .analyze_compiled(compiled)
            .unwrap()
            .0;
        for protection in Protection::all() {
            let expected = distribution_bits(&fresh.penalty_distribution(protection));
            let served: Vec<_> = (0..3)
                .map(|_| {
                    let (analysis, tier) = PwcetAnalyzer::new(config)
                        .with_reuse_plane(Arc::clone(plane))
                        .analyze_compiled(compiled)
                        .unwrap();
                    tiers.push(tier);
                    assert_eq!(analysis.fault_free_wcet(), fresh.fault_free_wcet());
                    analysis.estimate(protection)
                })
                .collect();
            for (i, estimate) in served.iter().enumerate() {
                assert_eq!(
                    distribution_bits(estimate.penalty_distribution()),
                    expected,
                    "{what}/{protection}/pfail {pfail}: estimate {}",
                    i + 1
                );
            }
            let [first, second, third] = [0, 1, 2].map(|i| served[i].penalty_distribution());
            assert!(
                !std::ptr::eq(first, second) && std::ptr::eq(second, third),
                "{what}/{protection}/pfail {pfail}: the second computation is \
                 stored and the third shares it"
            );
        }
    }
    assert_eq!(tiers[0], first_tier, "{what}: first request's tier");
    assert!(
        tiers[1..].iter().all(|&tier| tier == ReuseTier::Memory),
        "{what}: later requests hit the memory tier"
    );
}

/// Penalty-memo identity of one benchmark on four kinds of context: a
/// cold build, a resident memory-tier context, a disk restore in a second
/// plane over the first plane's store, and a derived narrower sibling.
fn assert_penalty_memo_matches_fresh(name: &str) {
    let bench = benchsuite::by_name(name).unwrap();
    let compiled = bench.program.compile(warm_config().code_base).unwrap();
    let lattice = GeometryLattice::paper_default();
    let wide = lattice.widest();
    let narrow = lattice.members().last().unwrap();
    let warm_plane = |plane: &Arc<ReusePlane>, geometry: CacheGeometry| {
        let mut config = warm_config();
        config.geometry = geometry;
        PwcetAnalyzer::new(config)
            .with_reuse_plane(Arc::clone(plane))
            .analyze_compiled(&compiled)
            .unwrap();
    };

    let cold = Arc::new(ReusePlane::in_memory());
    assert_served_penalties_match_fresh(
        &format!("{name} cold"),
        &compiled,
        &cold,
        wide,
        ReuseTier::Cold,
    );

    let resident = Arc::new(ReusePlane::in_memory());
    warm_plane(&resident, wide);
    assert_served_penalties_match_fresh(
        &format!("{name} memory"),
        &compiled,
        &resident,
        wide,
        ReuseTier::Memory,
    );

    let store =
        std::env::temp_dir().join(format!("pwcet-penalty-memo-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let writer = Arc::new(ReusePlane::in_memory().with_disk_tier(&store).unwrap());
    warm_plane(&writer, wide);
    let restarted = Arc::new(ReusePlane::in_memory().with_disk_tier(&store).unwrap());
    assert_served_penalties_match_fresh(
        &format!("{name} disk"),
        &compiled,
        &restarted,
        wide,
        ReuseTier::Disk,
    );
    let _ = std::fs::remove_dir_all(&store);

    let family = Arc::new(ReusePlane::in_memory());
    warm_plane(&family, wide);
    assert_served_penalties_match_fresh(
        &format!("{name} derived"),
        &compiled,
        &family,
        narrow,
        ReuseTier::Derived,
    );
}

#[test]
fn penalty_memo_matches_fresh_convolution_on_spanning_subset() {
    for name in SPAN {
        assert_penalty_memo_matches_fresh(name);
    }
}

#[test]
#[ignore = "runs the penalty-memo identity across the complete 25-benchmark suite (~minutes); nightly CI runs it via --include-ignored"]
fn penalty_memo_matches_fresh_convolution_across_the_entire_suite() {
    for bench in benchsuite::all() {
        assert_penalty_memo_matches_fresh(bench.name);
    }
}

#[test]
fn penalty_memo_keys_every_component() {
    // One resident context answers four fault models under the three
    // protections in alternation. A memo key that dropped the fault
    // model or the protection would hand one point the distribution
    // stored for another.
    let program = benchsuite::by_name("crc").unwrap().program;
    let settings: Vec<AnalysisConfig> = [1e-6, 1e-5, 1e-4, 1e-3]
        .into_iter()
        .map(|pfail| warm_config().with_pfail(pfail).unwrap())
        .collect();
    let fresh: Vec<_> = settings
        .iter()
        .map(|config| {
            let analysis = PwcetAnalyzer::new(*config).analyze(&program).unwrap();
            Protection::all().map(|p| distribution_bits(&analysis.penalty_distribution(p)))
        })
        .collect();
    let points: Vec<_> = fresh.iter().flatten().collect();
    for (i, a) in points.iter().enumerate() {
        for b in &points[i + 1..] {
            assert_ne!(a, b, "the points must yield distinct distributions");
        }
    }

    let plane = Arc::new(ReusePlane::in_memory());
    for round in 0..3 {
        for (config, expected) in settings.iter().zip(&fresh) {
            let served = PwcetAnalyzer::new(*config)
                .with_reuse_plane(Arc::clone(&plane))
                .analyze(&program)
                .unwrap();
            for (protection, expected) in Protection::all().into_iter().zip(expected) {
                assert_eq!(
                    &distribution_bits(served.estimate(protection).penalty_distribution()),
                    expected,
                    "round {round}, pfail {}, {protection}",
                    config.fault_model.pfail()
                );
            }
        }
    }
    assert_eq!(plane.stats().cold_builds, 1, "one resident context");
}
