//! Fault-probability sensitivity: how the pWCET inflates as silicon
//! degrades, and how much of that inflation each mechanism absorbs.
//!
//! Sweeps the per-bit failure probability from today's 10⁻¹³-class rates
//! to the 10⁻³-class rates the resilience roadmap predicts for future
//! nodes (the motivation of the paper's introduction).
//!
//! ```text
//! cargo run --release --example fault_sensitivity
//! ```

use std::sync::Arc;

use fault_aware_pwcet::benchsuite;
use fault_aware_pwcet::core::{AnalysisConfig, Protection, PwcetAnalyzer, ReusePlane};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = benchsuite::by_name("crc").expect("crc is in the suite");
    let target = 1e-15;

    println!("benchmark: {}", bench.name);
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "pfail", "fault-free", "none", "SRB", "RW"
    );
    // The fault model never touches the CFG or the cache classifications,
    // so every point of the sweep is answered from one analysis context in
    // the shared plane's memory tier: the expanded CFG, every CHMC level
    // and the ILP stage are computed exactly once.
    let base = AnalysisConfig::paper_default();
    let plane = Arc::new(ReusePlane::in_memory());
    for pfail in [1e-13, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3] {
        let config = base.with_pfail(pfail)?;
        let analysis = PwcetAnalyzer::new(config)
            .with_reuse_plane(Arc::clone(&plane))
            .analyze(&bench.program)?;
        println!(
            "{:>8.0e} {:>12} {:>12} {:>12} {:>12}",
            pfail,
            analysis.fault_free_wcet(),
            analysis.estimate(Protection::None).pwcet_at(target),
            analysis
                .estimate(Protection::SharedReliableBuffer)
                .pwcet_at(target),
            analysis.estimate(Protection::ReliableWay).pwcet_at(target),
        );
    }

    println!();
    println!("At today's rates faults are invisible at p = 1e-15; as pfail grows");
    println!("the unprotected pWCET inflates steeply (whole sets go faulty) while");
    println!("RW/SRB absorb most of the inflation — the paper's motivation.");
    Ok(())
}
