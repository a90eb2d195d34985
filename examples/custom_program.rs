//! Analyzing your own program: build a structured task with the DSL, run
//! every analysis stage explicitly, and validate the result against the
//! functional simulator.
//!
//! This walks the full pipeline that `PwcetAnalyzer` packages: compile →
//! reconstruct CFG → classify → IPET → fault miss map → estimate, plus a
//! Monte-Carlo soundness check.
//!
//! ```text
//! cargo run --release --example custom_program
//! ```

use fault_aware_pwcet::analysis::classify;
use fault_aware_pwcet::cache::{CacheGeometry, CacheTiming};
use fault_aware_pwcet::core::{expand_compiled, AnalysisConfig, Protection, PwcetAnalyzer};
use fault_aware_pwcet::ipet::{ipet_bound, tree_bound, CostModel};
use fault_aware_pwcet::progen::{stmt, Program};
use fault_aware_pwcet::sim::{monte_carlo, simulate, MonteCarloConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A control task: sensor filter (hot loop) + mode logic (branchy) +
    // an actuator helper called from both modes.
    let program = Program::new("controller")
        .with_function(
            "main",
            stmt::seq([
                stmt::compute(12),
                stmt::loop_(
                    100,
                    stmt::seq([
                        stmt::loop_(8, stmt::compute(18)), // filter taps
                        stmt::if_else(
                            stmt::seq([stmt::compute(30), stmt::call("actuate")]),
                            stmt::seq([stmt::compute(55), stmt::call("actuate")]),
                        ),
                    ]),
                ),
            ]),
        )
        .with_function(
            "actuate",
            stmt::seq([stmt::compute(25), stmt::loop_(4, stmt::compute(6))]),
        );

    // Stage 1: compile to MIPS machine code.
    let compiled = program.compile(0x0040_0000)?;
    println!(
        "compiled: {} instructions ({} bytes), {} loops",
        compiled.image().len_words(),
        compiled.image().len_bytes(),
        compiled.loop_bounds().len()
    );

    // Stage 2: control-flow reconstruction with virtual inlining.
    let cfg = expand_compiled(&compiled)?;
    println!(
        "expanded CFG: {} nodes, {} contexts, {} loops",
        cfg.nodes().len(),
        cfg.contexts().len(),
        cfg.loops().len()
    );

    // Stage 3: cache classification and both WCET engines.
    let geometry = CacheGeometry::paper_default();
    let chmc = classify(&cfg, &geometry, geometry.ways());
    let stats = chmc.stats();
    println!(
        "classification: {} always-hit, {} first-miss, {} always-miss, {} unclassified",
        stats.always_hit, stats.first_miss, stats.always_miss, stats.not_classified
    );
    let costs = CostModel::from_chmc(&cfg, &chmc, &CacheTiming::paper_default());
    let wcet_ilp = ipet_bound(&cfg, &costs)?;
    let wcet_tree = tree_bound(&compiled, &cfg, &costs);
    println!("fault-free WCET: IPET {wcet_ilp} cycles, tree engine {wcet_tree} cycles");

    // Stage 4: the fault-aware estimate.
    let analyzer = PwcetAnalyzer::new(AnalysisConfig::paper_default());
    let (analysis, _) = analyzer.analyze_compiled(&compiled)?;
    for protection in Protection::all() {
        println!(
            "pWCET@1e-15 [{protection:>13}]: {} cycles",
            analysis.estimate(protection).pwcet_at(1e-15)
        );
    }

    // Stage 5: empirical validation — simulate under sampled fault maps
    // and compare against the analytic exceedance curve.
    let trace = simulate(&compiled, 10_000_000)?;
    println!("simulated fault-free run: {} fetches", trace.len());
    let report = monte_carlo(
        &analysis,
        Protection::SharedReliableBuffer,
        &trace,
        &MonteCarloConfig {
            samples: 500,
            seed: 42,
        },
    );
    let probe = analysis.fault_free_wcet();
    println!(
        "empirical exceedance at WCET_ff: {:.2e} (analytic bound {:.2e})",
        report.empirical_exceedance(probe),
        report.estimate().exceedance_of(probe)
    );
    assert!(report.analytic_dominates_at(probe, 0.05));
    println!("analytic curve dominates the sampled executions — bound validated");
    Ok(())
}
