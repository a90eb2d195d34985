//! Simulation oracle: sampled executions never beat the static bounds.
//!
//! The differential suite proves warm == cold; this layer proves the
//! (warm-path) static analysis is *sound against execution*: for every
//! sampled fault map the simulated run time stays within the analytic
//! per-map bound, and the Monte-Carlo empirical exceedance curve never
//! rises above the analytic one at the sampled levels.
//!
//! The analyses under test run through the incremental classification
//! *and* the context cache — the oracle pins exactly the paths this PR
//! makes fast.

use std::sync::Arc;

use fault_aware_pwcet::benchsuite;
use fault_aware_pwcet::cache::{FaultMap, GeometryLattice};
use fault_aware_pwcet::core::{
    AnalysisConfig, ProgramAnalysis, Protection, PwcetAnalyzer, ReusePlane,
};
use fault_aware_pwcet::sim::{monte_carlo, simulate, validation, FetchTrace, MonteCarloConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fast-to-simulate benchmarks spanning footprints below and above the
/// 1 KB analyzed cache.
const ORACLE_SUBSET: [&str; 4] = ["bs", "fibcall", "fir", "insertsort"];

const FETCH_LIMIT: u64 = 10_000_000;

/// Analysis via the warm path (incremental classification + shared
/// context cache) plus the concrete fetch trace of the same image.
fn analyze_warm(name: &str, config: &AnalysisConfig) -> (ProgramAnalysis, FetchTrace) {
    let bench = benchsuite::by_name(name).expect("benchmark exists");
    let compiled = bench.program.compile(config.code_base).expect("compiles");
    let analysis = PwcetAnalyzer::new(*config)
        .with_reuse_plane(Arc::new(ReusePlane::in_memory()))
        .analyze_compiled(&compiled)
        .expect("analyzes")
        .0;
    let trace = simulate(&compiled, FETCH_LIMIT).expect("simulates");
    (analysis, trace)
}

#[test]
fn sampled_fault_maps_never_exceed_per_map_bounds() {
    let config = AnalysisConfig::paper_default();
    for name in ORACLE_SUBSET {
        let (analysis, trace) = analyze_warm(name, &config);
        let geometry = analysis.config().geometry;
        let mut rng = StdRng::seed_from_u64(0x0DAC_1E00 + name.len() as u64);
        // Exaggerated block-failure probabilities exercise the multi-fault
        // sets a realistic pfail almost never samples.
        for pbf in [0.05, 0.4, 1.0] {
            for _ in 0..25 {
                let faults = FaultMap::sample(&geometry, pbf, &mut rng);
                for protection in Protection::all() {
                    let outcome = validation(&analysis, protection, &trace, &faults);
                    assert!(
                        outcome.holds(),
                        "{name}/{protection} pbf={pbf}: simulated {} > bound {} ({:?})",
                        outcome.simulated,
                        outcome.bound,
                        faults.per_set_counts()
                    );
                }
            }
        }
    }
}

#[test]
fn derived_geometry_bounds_hold_against_simulation() {
    // The cross-geometry derivation path of the reuse plane: analyses of
    // every lattice way count — all but the widest derived by age
    // truncation, never classified cold — must still bound every
    // simulated execution under sampled fault maps. This pins the
    // *soundness* of derivation independently of the warm==cold
    // differential suite.
    let base = AnalysisConfig::paper_default();
    let lattice = GeometryLattice::paper_default();
    let plane = Arc::new(ReusePlane::in_memory());
    for name in ["bs", "fibcall"] {
        let bench = benchsuite::by_name(name).expect("benchmark exists");
        let compiled = bench.program.compile(base.code_base).expect("compiles");
        let trace = simulate(&compiled, FETCH_LIMIT).expect("simulates");
        for geometry in lattice.members() {
            let mut config = base;
            config.geometry = geometry;
            let analysis = PwcetAnalyzer::new(config)
                .with_reuse_plane(Arc::clone(&plane))
                .analyze_compiled(&compiled)
                .expect("analyzes")
                .0;
            let mut rng = StdRng::seed_from_u64(0x0DAC_2E00 + u64::from(geometry.ways()));
            for pbf in [0.1, 0.6] {
                for _ in 0..15 {
                    let faults = FaultMap::sample(&geometry, pbf, &mut rng);
                    for protection in Protection::all() {
                        let outcome = validation(&analysis, protection, &trace, &faults);
                        assert!(
                            outcome.holds(),
                            "{name}@{}ways/{protection} pbf={pbf}: simulated {} > bound {}",
                            geometry.ways(),
                            outcome.simulated,
                            outcome.bound,
                        );
                    }
                }
            }
        }
    }
    let stats = plane.stats();
    assert!(
        stats.derived > 0,
        "the oracle must actually exercise derived contexts"
    );
}

#[test]
fn monte_carlo_exceedance_stays_below_the_analytic_curve() {
    // A high pfail puts real mass in the distribution body, so the
    // sampled exceedance levels are meaningful with moderate sample
    // counts.
    let config = AnalysisConfig::paper_default().with_pfail(1e-3).unwrap();
    for name in ORACLE_SUBSET {
        let (analysis, trace) = analyze_warm(name, &config);
        for protection in Protection::all() {
            let report = monte_carlo(
                &analysis,
                protection,
                &trace,
                &MonteCarloConfig {
                    samples: 300,
                    seed: 0x5EED_0001,
                },
            );
            let wcet = analysis.fault_free_wcet();
            for value in [wcet, wcet + 500, wcet + 5_000, report.max_sample()] {
                assert!(
                    report.analytic_dominates_at(value, 0.05),
                    "{name}/{protection}: empirical {} > analytic {} at {value}",
                    report.empirical_exceedance(value),
                    report.estimate().exceedance_of(value),
                );
            }
        }
    }
}

#[test]
fn worst_case_fault_map_is_bounded_by_the_distribution_maximum() {
    // The absolute analytic worst case (every set fully faulty) bounds
    // every sample — the distribution maximum cannot be out-sampled.
    let config = AnalysisConfig::paper_default().with_pfail(1e-3).unwrap();
    for name in ORACLE_SUBSET {
        let (analysis, trace) = analyze_warm(name, &config);
        let geometry = analysis.config().geometry;
        let worst: u64 = (0..geometry.sets())
            .map(|s| analysis.fmm().get(s, geometry.ways()))
            .sum::<u64>()
            * analysis.config().timing.miss_penalty_cycles()
            + analysis.fault_free_wcet();
        let report = monte_carlo(
            &analysis,
            Protection::None,
            &trace,
            &MonteCarloConfig {
                samples: 200,
                seed: 0x5EED_0002,
            },
        );
        assert!(
            report.max_sample() <= worst,
            "{name}: sample {} beats the analytic maximum {worst}",
            report.max_sample()
        );
    }
}
