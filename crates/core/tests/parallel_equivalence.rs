//! Property tests: the parallel pipeline is observationally identical to
//! the sequential reference.
//!
//! The fan-out stages (classification levels, per-`(set, fault)` delta
//! ILPs, SRB columns, convolution tree) place every result by job index,
//! so for a deterministic solver the parallel analysis must be
//! **bit-identical** — same [`FaultMissMap`], same SRB column, same pWCET
//! quantiles — for every thread count.

use proptest::prelude::*;
use pwcet_core::{AnalysisConfig, Parallelism, Protection, PwcetAnalyzer};
use pwcet_progen::{stmt, Program};

/// Strategy: a small structured program with loops, branches, and
/// sequences — enough shape diversity to exercise every CHMC class.
fn arb_program() -> impl Strategy<Value = Program> {
    let leaf = (1u32..60).prop_map(stmt::compute);
    let looped =
        (2u32..12, 1u32..80).prop_map(|(bound, work)| stmt::loop_(bound, stmt::compute(work)));
    let nested = (2u32..6, 2u32..6, 1u32..40).prop_map(|(outer, inner, work)| {
        stmt::loop_(
            outer,
            stmt::seq([stmt::compute(5), stmt::loop_(inner, stmt::compute(work))]),
        )
    });
    proptest::collection::vec(prop_oneof![leaf, looped, nested], 1..4)
        .prop_map(|stmts| Program::new("prop").with_function("main", stmt::seq(stmts)))
}

fn analysis_fingerprint(
    analyzer: &PwcetAnalyzer,
    program: &Program,
) -> (u64, Vec<u64>, Vec<u64>, Vec<u64>) {
    let analysis = analyzer.analyze(program).expect("analyzes");
    let fmm: Vec<u64> = (0..analysis.fmm().sets())
        .flat_map(|s| analysis.fmm().row(s).to_vec())
        .collect();
    let quantiles: Vec<u64> = Protection::all()
        .iter()
        .flat_map(|&p| {
            let estimate = analysis.estimate(p);
            [1.0, 1e-6, 1e-12, 1e-15].map(|target| estimate.pwcet_at(target))
        })
        .collect();
    (
        analysis.fault_free_wcet(),
        fmm,
        analysis.srb_last_column().to_vec(),
        quantiles,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_pipeline_is_bit_identical_to_sequential(program in arb_program()) {
        let base = AnalysisConfig::paper_default();
        let sequential = PwcetAnalyzer::new(base.with_parallelism(Parallelism::Sequential));
        let reference = analysis_fingerprint(&sequential, &program);
        for threads in [2usize, 4, 7] {
            let parallel = PwcetAnalyzer::new(
                base.with_parallelism(Parallelism::threads(threads)),
            );
            let candidate = analysis_fingerprint(&parallel, &program);
            prop_assert_eq!(
                &reference,
                &candidate,
                "{} threads diverged from the sequential reference",
                threads
            );
        }
    }
}

/// Deterministic (non-property) pin on a real benchmark: the benchsuite
/// programs exercise deeper call/loop structure than the generator above.
#[test]
fn benchsuite_program_parallel_equals_sequential() {
    let bench = pwcet_benchsuite::by_name("crc").expect("crc exists");
    let base = AnalysisConfig::paper_default();
    let sequential = PwcetAnalyzer::new(base.with_parallelism(Parallelism::Sequential));
    let parallel = PwcetAnalyzer::new(base.with_parallelism(Parallelism::threads(4)));
    let a = sequential.analyze(&bench.program).expect("analyzes");
    let b = parallel.analyze(&bench.program).expect("analyzes");
    assert_eq!(a.fault_free_wcet(), b.fault_free_wcet());
    assert_eq!(a.fmm(), b.fmm());
    assert_eq!(a.srb_last_column(), b.srb_last_column());
    for protection in Protection::all() {
        assert_eq!(
            a.estimate(protection),
            b.estimate(protection),
            "{protection} estimate diverged"
        );
    }
}
