//! Regenerates **Figure 4**: pWCET estimates at target probability 10⁻¹⁵
//! for a fault-free architecture, the SRB and the RW, normalized against
//! the unprotected pWCET, over the 25 modelled Mälardalen benchmarks —
//! grouped into the four behavior categories of §IV-B.

use std::sync::Arc;

use pwcet_bench::{figure4, run_suite, summary, TARGET_PROBABILITY};
use pwcet_core::{AnalysisConfig, ReusePlane};

fn main() {
    let config = AnalysisConfig::paper_default();
    let plane = Arc::new(ReusePlane::in_memory());
    let results = run_suite(&config, TARGET_PROBABILITY, &plane).expect("suite analyzes");
    let rows = figure4(&results);

    println!("# Figure 4: normalized pWCET at p = 1e-15 (pfail = 1e-4)");
    println!("benchmark\tcategory\tfault_free\tRW\tSRB\tnone");
    let mut category = 0usize;
    for row in &rows {
        if row.category != category {
            category = row.category;
            println!("# --- category {category} ---");
        }
        println!(
            "{}\t{}\t{:.4}\t{:.4}\t{:.4}\t1.0000",
            row.name, row.category, row.fault_free, row.rw, row.srb
        );
    }

    let stats = summary(&results);
    println!("#");
    println!(
        "# average gain RW  vs none: {:.1}%  (paper: 48%)",
        stats.avg_gain_rw * 100.0
    );
    println!(
        "# average gain SRB vs none: {:.1}%  (paper: 40%)",
        stats.avg_gain_srb * 100.0
    );
    println!(
        "# minimum gain RW : {:.1}% on {}  (paper: 26% on fft)",
        stats.min_gain_rw.1 * 100.0,
        stats.min_gain_rw.0
    );
    println!(
        "# minimum gain SRB: {:.1}% on {}  (paper: 25% on ud)",
        stats.min_gain_srb.1 * 100.0,
        stats.min_gain_srb.0
    );
    println!("# category sizes: {:?}", stats.category_counts);
}
