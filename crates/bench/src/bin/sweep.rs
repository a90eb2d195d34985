//! Sensitivity sweeps (extension of the paper's single-point evaluation,
//! mirroring the sensitivity study of the base paper \[1\]):
//!
//! * pWCET vs. per-bit failure probability `pfail ∈ [10⁻⁶, 10⁻³]`;
//! * pWCET vs. target exceedance probability `p ∈ [10⁻³, 10⁻¹⁸]`;
//! * pWCET vs. cache associativity over the paper's geometry lattice
//!   (one shared reuse plane: only the 4-way point runs a cold
//!   classification, narrower points are derived).

use std::sync::Arc;

use pwcet_bench::{sweep_geometry, sweep_pfail, sweep_target, TARGET_PROBABILITY};
use pwcet_cache::GeometryLattice;
use pwcet_core::{AnalysisConfig, ReusePlane};

const SWEPT_BENCHMARKS: [&str; 5] = ["adpcm", "matmult", "ud", "fft", "nsichneu"];

fn main() {
    let config = AnalysisConfig::paper_default();

    println!("# Sweep A: pWCET at p = 1e-15 vs pfail");
    println!("benchmark\tpfail\tpwcet_none\tpwcet_srb\tpwcet_rw");
    for name in SWEPT_BENCHMARKS {
        let bench = pwcet_benchsuite::by_name(name).expect("benchmark exists");
        let rows = sweep_pfail(
            &bench,
            &config,
            &[1e-6, 1e-5, 1e-4, 1e-3],
            TARGET_PROBABILITY,
            &Arc::new(ReusePlane::in_memory()),
        )
        .expect("analyzes");
        for (pfail, none, srb, rw) in rows {
            println!("{name}\t{pfail:.0e}\t{none}\t{srb}\t{rw}");
        }
    }

    println!();
    println!("# Sweep B: pWCET vs target probability (pfail = 1e-4)");
    println!("benchmark\ttarget_p\tpwcet_none\tpwcet_srb\tpwcet_rw");
    for name in SWEPT_BENCHMARKS {
        let bench = pwcet_benchsuite::by_name(name).expect("benchmark exists");
        let rows = sweep_target(&bench, &config, &[1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-18])
            .expect("analyzes");
        for (p, none, srb, rw) in rows {
            println!("{name}\t{p:.0e}\t{none}\t{srb}\t{rw}");
        }
    }

    println!();
    println!("# Sweep C: pWCET vs associativity (16 sets x 16 B lines, pfail = 1e-4)");
    println!("benchmark\tways\tpwcet_none\tpwcet_srb\tpwcet_rw");
    let lattice = GeometryLattice::paper_default();
    let plane = Arc::new(ReusePlane::in_memory());
    for name in SWEPT_BENCHMARKS {
        let bench = pwcet_benchsuite::by_name(name).expect("benchmark exists");
        let rows = sweep_geometry(&bench, &config, &lattice, TARGET_PROBABILITY, &plane)
            .expect("analyzes");
        for (ways, none, srb, rw) in rows {
            println!("{name}\t{ways}\t{none}\t{srb}\t{rw}");
        }
    }
    let stats = plane.stats();
    eprintln!(
        "# reuse plane: {} cold fixpoint(s), {} derived geometries, {:.0}% reuse",
        stats.cold_builds,
        stats.derived,
        stats.reuse_rate() * 100.0
    );
}
