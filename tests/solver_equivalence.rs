//! Differential suite: production bounds equal the oracle pipeline's.
//!
//! The production path — packed warm-started classification, the sparse
//! warm-started solver behind the per-context `IpetTemplate` objective
//! fan-out, worker fan-out, and the cross-geometry reuse plane — must
//! reproduce, bit for bit, every bound of a pipeline built only from the
//! frozen oracles (`tests/oracle/mod.rs`: set-based cold fixpoints and
//! one dense tableau per ILP): fault-free WCETs, every fault-miss-map
//! cell, and every SRB column. Each penalty distribution must be sound
//! against the frozen convolution's over the same bounds: its exceedance
//! never below the oracle's. A category-spanning subset and eight small
//! seeded random programs run always on, and so does the composition
//! check over the whole suite (on production bounds); the complete
//! 25-benchmark suite and eight default-size random programs are
//! `#[ignore]`d for the nightly CI `--include-ignored` step.
//! The solver-level random-instance equivalence lives in
//! `crates/ilp/tests/properties.rs`.

mod oracle;

use std::sync::Arc;

use fault_aware_pwcet::benchsuite;
use fault_aware_pwcet::core::{AnalysisConfig, Parallelism, Protection, PwcetAnalyzer, ReusePlane};
use fault_aware_pwcet::progen::{GeneratorConfig, Program, ProgramGenerator};

/// The category-spanning subset the always-on tests use (same population
/// as `incremental_equivalence.rs`).
const SPAN: [&str; 6] = ["bs", "crc", "fibcall", "fir", "matmult", "ud"];

fn config() -> AnalysisConfig {
    AnalysisConfig::paper_default().with_parallelism(Parallelism::Sequential)
}

/// Analyzes `program` under `config` and compares it with the oracle.
fn assert_program_matches_oracle(what: &str, program: &Program, config: AnalysisConfig) {
    let compiled = program.compile(config.code_base).expect("compiles");
    let (analysis, _) = PwcetAnalyzer::new(config)
        .analyze_compiled(&compiled)
        .expect("production analysis");
    oracle::assert_matches(
        what,
        &analysis,
        &oracle::reference_bounds(&compiled, &config),
    );
}

fn assert_benchmark_equivalent(name: &str) {
    let bench = benchsuite::by_name(name).expect("benchmark exists");
    assert_program_matches_oracle(name, &bench.program, config());
}

#[test]
fn sparse_bounds_match_dense_reference_on_spanning_subset() {
    for name in SPAN {
        assert_benchmark_equivalent(name);
    }
}

#[test]
fn parallel_sparse_pipeline_matches_dense_reference() {
    // The fan-out workers share the factored template (pooled warm
    // bases) and the WCET instance may split branch-and-bound subtrees:
    // neither may change a single bound.
    let bench = benchsuite::by_name("crc").expect("benchmark exists");
    let parallel = config().with_parallelism(Parallelism::threads(4));
    assert_program_matches_oracle("crc(parallel)", &bench.program, parallel);
}

#[test]
fn solve_stage_records_template_warm_starts() {
    // The per-(set, fault) fan-out must actually hit the factored
    // basis: one cold start (the first solve binds the template), warm
    // starts for the rest, all observable through the plane the service
    // reports from.
    let plane = Arc::new(ReusePlane::in_memory());
    let analyzer = PwcetAnalyzer::new(config()).with_reuse_plane(Arc::clone(&plane));
    let bench = benchsuite::by_name("crc").expect("benchmark exists");
    analyzer.analyze(&bench.program).expect("analysis");
    let stats = plane.ilp_stats();
    assert!(stats.bb_nodes > 0, "solve stage ran ILPs");
    // One cold start builds the factored basis; branching nodes may add
    // cold vertex probes, so the claim is "warm dominates", not an
    // exact cold count.
    assert!(stats.cold_starts >= 1, "the first solve builds the basis");
    assert!(
        stats.warm_starts > stats.cold_starts,
        "the delta fan-out warm-starts from the template basis \
         (warm {} vs cold {})",
        stats.warm_starts,
        stats.cold_starts
    );

    // A second analysis of the same program reuses the memoized solve
    // artifacts entirely: no new solver work may be recorded.
    analyzer.analyze(&bench.program).expect("memoized analysis");
    assert_eq!(
        plane.ilp_stats(),
        stats,
        "memoized re-request solves nothing"
    );
}

#[test]
fn derived_geometry_sweep_matches_dense_reference_per_point() {
    // A widest-first associativity sweep over one shared plane: every
    // narrower sibling derives its classification from the widest point
    // and re-solves its ILP objectives against the widest point's
    // template, adopted at derivation (warm basis pool, objective
    // memo). Each point's bounds must still equal the oracle
    // pipeline at that geometry — the sibling path may share solver
    // state, never solver answers that differ.
    use fault_aware_pwcet::cache::GeometryLattice;

    let bench = benchsuite::by_name("crc").expect("benchmark exists");
    let compiled = bench.program.compile(config().code_base).expect("compiles");
    let lattice = GeometryLattice::paper_default();
    let plane = Arc::new(ReusePlane::in_memory());
    for geometry in lattice.members() {
        let point = AnalysisConfig {
            geometry,
            ..config()
        };
        let (derived, _) = PwcetAnalyzer::new(point)
            .with_reuse_plane(Arc::clone(&plane))
            .analyze_compiled(&compiled)
            .expect("derived-sweep analysis");
        oracle::assert_matches(
            &format!("crc@{}ways", geometry.ways()),
            &derived,
            &oracle::reference_bounds(&compiled, &point),
        );
    }
    // The comparison must have exercised the shared-template path, not
    // a per-point cold rebuild.
    let stats = plane.stats();
    assert_eq!(
        stats.derived as usize,
        lattice.len() - 1,
        "every narrower point derives from the widest"
    );
    assert!(
        stats.template_hits >= (lattice.len() - 1) as u64,
        "every sibling re-solves against the shared template \
         (got {} hits)",
        stats.template_hits
    );
    assert!(
        stats.objective_hits > 0,
        "coinciding per-set classifications must answer from the \
         objective memo"
    );
}

#[test]
#[ignore = "runs the complete 25-benchmark suite through the oracle pipeline (~minutes); nightly CI runs it via --include-ignored"]
fn sparse_bounds_match_dense_reference_across_the_entire_suite() {
    for bench in benchsuite::all() {
        assert_benchmark_equivalent(bench.name);
    }
}

#[test]
fn suite_penalty_distributions_are_sound_against_the_convolution_oracle() {
    // Production prunes products below ε, the oracle merged points: only
    // mass moved up to the tail tells them apart, and none of the targets
    // the suite answers sits within reach of it.
    let config = config();
    let analyzer = PwcetAnalyzer::new(config);
    for bench in benchsuite::all() {
        let analysis = analyzer.analyze(&bench.program).expect("analyzes");
        let bounds = oracle::Bounds {
            fault_free_wcet: analysis.fault_free_wcet(),
            fmm: analysis.fmm().clone(),
            srb_last_column: analysis.srb_last_column().to_vec(),
        };
        for protection in Protection::all() {
            let what = format!("{}/{protection}", bench.name);
            let estimate = analysis.estimate(protection);
            let oracle = oracle::reference_penalty(&bounds, &config, protection);
            oracle::assert_penalty_sound(&what, estimate.penalty_distribution(), &oracle);
            for target in [1e-9, 1e-12, 1e-15, 1e-18] {
                let quantile = oracle
                    .quantile(target)
                    .expect("the tail is below the target");
                assert_eq!(
                    estimate.pwcet_at(target),
                    bounds.fault_free_wcet + quantile,
                    "{what}: pWCET at {target:e}"
                );
            }
        }
    }
}

/// Seeded random programs of `shape`, each named after its seed.
fn assert_random_programs_match_oracle(shape: GeneratorConfig, seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let program = ProgramGenerator::new(shape, seed).generate(format!("random_{seed}"));
        assert_program_matches_oracle(&format!("seed {seed}"), &program, config());
    }
}

#[test]
fn random_programs_match_the_oracle_pipeline() {
    // Shallow nesting keeps the dense oracle fast: it is the deep loop
    // nests of larger shapes that make its tableaux expensive.
    let small = GeneratorConfig {
        helper_functions: 2,
        max_stmt_depth: 3,
        max_loop_bound: 8,
        max_compute: 40,
        max_seq_len: 3,
    };
    assert_random_programs_match_oracle(small, 0..8);
}

#[test]
#[ignore = "runs default-size random programs through the oracle pipeline (~10 s); nightly CI runs it via --include-ignored"]
fn default_size_random_programs_match_the_oracle_pipeline() {
    assert_random_programs_match_oracle(GeneratorConfig::default(), 0..8);
}
