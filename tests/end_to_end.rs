//! Cross-crate integration: the full pipeline on real suite benchmarks.

use fault_aware_pwcet::benchsuite;
use fault_aware_pwcet::core::{AnalysisConfig, Protection, PwcetAnalyzer};

const TARGET: f64 = 1e-15;

/// A fast subset spanning the four behavior categories.
const SPAN: [&str; 6] = ["bs", "crc", "fibcall", "matmult", "ud", "nsichneu"];

#[test]
fn protection_ordering_holds_across_the_suite_subset() {
    let analyzer = PwcetAnalyzer::new(AnalysisConfig::paper_default());
    for name in SPAN {
        let bench = benchsuite::by_name(name).expect("benchmark exists");
        let analysis = analyzer.analyze(&bench.program).expect("analyzes");
        let none = analysis.estimate(Protection::None).pwcet_at(TARGET);
        let srb = analysis
            .estimate(Protection::SharedReliableBuffer)
            .pwcet_at(TARGET);
        let rw = analysis.estimate(Protection::ReliableWay).pwcet_at(TARGET);
        let ff = analysis.fault_free_wcet();
        assert!(ff <= rw, "{name}: fault-free <= RW");
        assert!(rw <= srb, "{name}: RW <= SRB");
        assert!(srb <= none, "{name}: SRB <= none");
        assert!(none > ff, "{name}: faults must hurt the unprotected cache");
    }
}

#[test]
fn exceedance_curves_are_valid_ccdfs() {
    let analyzer = PwcetAnalyzer::new(AnalysisConfig::paper_default());
    let bench = benchsuite::by_name("crc").expect("crc exists");
    let analysis = analyzer.analyze(&bench.program).expect("analyzes");
    for protection in Protection::all() {
        let curve = analysis.estimate(protection).exceedance_curve();
        assert!(!curve.is_empty(), "{protection}");
        for pair in curve.windows(2) {
            assert!(pair[0].value < pair[1].value, "{protection}: values sorted");
            assert!(
                pair[0].exceedance >= pair[1].exceedance,
                "{protection}: exceedance non-increasing"
            );
        }
        let last = curve.last().expect("non-empty");
        // The final exceedance is the conservative pruning tail: far
        // below the target probability, but not exactly zero.
        assert!(
            last.exceedance <= 1e-15,
            "{protection}: tail {} stays below the target probability",
            last.exceedance
        );
    }
}

#[test]
fn fault_free_configuration_collapses_to_deterministic_wcet() {
    let config = AnalysisConfig::paper_default()
        .with_pfail(0.0)
        .expect("valid");
    let analyzer = PwcetAnalyzer::new(config);
    let bench = benchsuite::by_name("fibcall").expect("fibcall exists");
    let analysis = analyzer.analyze(&bench.program).expect("analyzes");
    for protection in Protection::all() {
        let estimate = analysis.estimate(protection);
        assert_eq!(estimate.pwcet_at(1.0), analysis.fault_free_wcet());
        assert_eq!(estimate.pwcet_at(TARGET), analysis.fault_free_wcet());
        assert_eq!(estimate.penalty_distribution().max_value(), Some(0));
    }
}

#[test]
fn facade_reexports_compose() {
    // The doc-comment pipeline of the crate root, exercised as a test.
    use fault_aware_pwcet::core::PwcetAnalyzer;
    let bench = benchsuite::by_name("matmult").expect("matmult exists");
    let analyzer = PwcetAnalyzer::new(AnalysisConfig::paper_default());
    let estimate = analyzer
        .analyze(&bench.program)
        .expect("analyzes")
        .estimate(Protection::ReliableWay);
    assert!(estimate.pwcet_at(TARGET) >= estimate.fault_free_wcet());
}

#[test]
fn fmm_is_consistent_with_estimates() {
    // The all-faulty analytic bound (sum of last FMM columns) upper-bounds
    // the pWCET at any probability.
    let analyzer = PwcetAnalyzer::new(AnalysisConfig::paper_default());
    let bench = benchsuite::by_name("bs").expect("bs exists");
    let analysis = analyzer.analyze(&bench.program).expect("analyzes");
    let geometry = analysis.config().geometry;
    let worst_penalty: u64 = (0..geometry.sets())
        .map(|s| analysis.fmm().get(s, geometry.ways()))
        .sum::<u64>()
        * analysis.config().timing.miss_penalty_cycles();
    let estimate = analysis.estimate(Protection::None);
    // 1e-20 sits below every binomial combination yet above the pruning
    // tail, so the quantile is the distribution maximum.
    assert!(estimate.pwcet_at(1e-20) <= analysis.fault_free_wcet() + worst_penalty);
}
