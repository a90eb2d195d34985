//! Reproduction-shape assertions: the qualitative claims of §IV hold on
//! the modelled suite.

use std::sync::Arc;

use fault_aware_pwcet::core::{AnalysisConfig, ReusePlane};
use pwcet_bench::{run_benchmark, run_suite, summary, Category, TARGET_PROBABILITY};

#[test]
fn gains_are_positive_for_representative_benchmarks() {
    // §IV-B: "for all benchmarks, using the SRB or the RW results in
    // significantly lower pWCETs compared to an architecture with no
    // protection" — spot-checked on a category-spanning subset (the full
    // 25-benchmark sweep lives in the fig4 binary).
    let config = AnalysisConfig::paper_default();
    for name in ["adpcm", "bs", "fdct", "nsichneu", "ud"] {
        let bench = pwcet_benchsuite::by_name(name).expect("exists");
        let (_, r) = run_benchmark(&bench, &config, TARGET_PROBABILITY).expect("analyzes");
        assert!(r.gain_srb() > 0.0, "{name}: SRB gain {}", r.gain_srb());
        assert!(r.gain_rw() >= r.gain_srb(), "{name}: RW >= SRB");
    }
}

#[test]
fn streaming_code_is_fully_masked() {
    // §IV-B category 1 via its archetype: nsichneu's cache captures only
    // spatial locality, which both mechanisms preserve entirely.
    let config = AnalysisConfig::paper_default();
    let bench = pwcet_benchsuite::by_name("nsichneu").expect("exists");
    let (_, r) = run_benchmark(&bench, &config, TARGET_PROBABILITY).expect("analyzes");
    assert_eq!(r.category(), Category::FullyMasked, "{r:?}");
}

#[test]
fn tiny_resident_code_is_rw_masked() {
    // §IV-B category 2 via its archetype: fibcall fits in the MRU way.
    let config = AnalysisConfig::paper_default();
    let bench = pwcet_benchsuite::by_name("fibcall").expect("exists");
    let (_, r) = run_benchmark(&bench, &config, TARGET_PROBABILITY).expect("analyzes");
    assert_eq!(r.category(), Category::RwMasked, "{r:?}");
}

#[test]
#[ignore = "runs the full 25-benchmark suite (~minutes); exercised by the fig4 binary"]
fn full_suite_reproduces_figure4_shape() {
    let config = AnalysisConfig::paper_default();
    let plane = Arc::new(ReusePlane::in_memory());
    let results = run_suite(&config, TARGET_PROBABILITY, &plane).expect("suite analyzes");
    assert_eq!(results.len(), 25);
    for r in &results {
        assert!(r.gain_srb() > 0.0, "{}: SRB gain positive", r.name);
        assert!(
            r.gain_rw() >= r.gain_srb() - 1e-9,
            "{}: RW gain >= SRB gain",
            r.name
        );
    }
    let stats = summary(&results);
    // The paper's headline: both mechanisms cut the pWCET substantially
    // on average, with RW ahead of SRB (48% vs 40% in the paper).
    assert!(stats.avg_gain_rw > stats.avg_gain_srb);
    assert!(stats.avg_gain_srb > 0.25);
    // All four behavior categories are populated.
    for (i, count) in stats.category_counts.iter().enumerate() {
        assert!(*count > 0, "category {} is empty", i + 1);
    }
}
