//! Regenerates the in-text summary numbers of §IV-B as tables: per-
//! benchmark absolute pWCETs, gains, categories, and the suite-level
//! min/average gain statistics the paper quotes in its abstract.

use std::sync::Arc;

use pwcet_bench::{run_suite, summary, TARGET_PROBABILITY};
use pwcet_core::{AnalysisConfig, ReusePlane};

fn main() {
    let config = AnalysisConfig::paper_default();
    let plane = Arc::new(ReusePlane::in_memory());
    let results = run_suite(&config, TARGET_PROBABILITY, &plane).expect("suite analyzes");

    println!("# Table A: absolute pWCET estimates at p = 1e-15 (cycles)");
    println!("benchmark\twcet_ff\tpwcet_none\tpwcet_srb\tpwcet_rw\tgain_srb%\tgain_rw%\tcategory");
    for r in &results {
        println!(
            "{}\t{}\t{}\t{}\t{}\t{:.1}\t{:.1}\t{}",
            r.name,
            r.fault_free_wcet,
            r.pwcet_none,
            r.pwcet_srb,
            r.pwcet_rw,
            r.gain_srb() * 100.0,
            r.gain_rw() * 100.0,
            r.category().index()
        );
    }

    let stats = summary(&results);
    println!();
    println!("# Table B: suite summary (paper §IV-B / abstract)");
    println!("metric\treproduced\tpaper");
    println!("avg gain RW\t{:.1}%\t48%", stats.avg_gain_rw * 100.0);
    println!("avg gain SRB\t{:.1}%\t40%", stats.avg_gain_srb * 100.0);
    println!(
        "min gain RW\t{:.1}% ({})\t26% (fft)",
        stats.min_gain_rw.1 * 100.0,
        stats.min_gain_rw.0
    );
    println!(
        "min gain SRB\t{:.1}% ({})\t25% (ud)",
        stats.min_gain_srb.1 * 100.0,
        stats.min_gain_srb.0
    );
    println!(
        "categories 1/2/3/4\t{}/{}/{}/{}\t(grouping of Fig. 4)",
        stats.category_counts[0],
        stats.category_counts[1],
        stats.category_counts[2],
        stats.category_counts[3]
    );
}
