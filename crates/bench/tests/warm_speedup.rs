//! The warm paths must actually be cheaper than the cold paths.
//!
//! Two layers: a deterministic *work* assertion (the warm sweep performs
//! no classification fixpoints beyond the first point — always on), and a
//! wall-clock smoke (warm is not slower than cold — `#[ignore]`d by
//! default because timing on shared runners is noisy; the nightly CI step
//! runs it via `--include-ignored`).

use std::sync::Arc;

use pwcet_bench::{best_of_interleaved, sweep_pfail, TARGET_PROBABILITY};
use pwcet_core::{AnalysisConfig, ClassificationMode, Protection, PwcetAnalyzer, ReusePlane};

const PROGRAM: &str = "crc";
const PFAILS: [f64; 3] = [1e-5, 1e-4, 1e-3];

fn cold_config() -> AnalysisConfig {
    AnalysisConfig::paper_default().with_classification(ClassificationMode::Cold)
}

/// One full cold run per sweep point: fresh context, cold fixpoints,
/// and the same three protection estimates a `sweep_pfail` row computes.
fn sweep_cold(bench: &pwcet_benchsuite::Benchmark) {
    for pfail in PFAILS {
        let config = cold_config().with_pfail(pfail).unwrap();
        let analysis = PwcetAnalyzer::new(config)
            .analyze(&bench.program)
            .expect("analyzes");
        for protection in Protection::all() {
            std::hint::black_box(analysis.estimate(protection).pwcet_at(TARGET_PROBABILITY));
        }
    }
}

/// The warm sweep over `plane`: one shared, incrementally classified
/// context across all points.
fn sweep_warm(
    bench: &pwcet_benchsuite::Benchmark,
    plane: &Arc<ReusePlane>,
) -> Vec<(f64, u64, u64, u64)> {
    sweep_pfail(
        bench,
        &AnalysisConfig::paper_default(),
        &PFAILS,
        TARGET_PROBABILITY,
        plane,
    )
    .expect("sweeps")
}

#[test]
fn warm_sweep_reuses_one_context() {
    let bench = pwcet_benchsuite::by_name(PROGRAM).expect("benchmark exists");
    let plane = Arc::new(ReusePlane::in_memory());
    let rows = sweep_warm(&bench, &plane);
    assert_eq!(rows.len(), PFAILS.len());
    let memory = plane.stats().memory;
    assert_eq!(memory.misses, 1, "only the first point builds a context");
    assert_eq!(memory.hits as usize, PFAILS.len() - 1);
}

#[test]
#[ignore = "wall-clock comparison; run by the nightly CI --include-ignored step"]
fn warm_sweep_is_not_slower_than_cold() {
    let bench = pwcet_benchsuite::by_name(PROGRAM).expect("benchmark exists");
    // A fresh plane per warm run, so every run pays its first point's
    // context build instead of hitting a plane an earlier round warmed.
    let (cold, warm) = best_of_interleaved(
        12,
        || sweep_cold(&bench),
        || sweep_warm(&bench, &Arc::new(ReusePlane::in_memory())),
    );

    // The warm sweep shares one incrementally-classified context across
    // all points; the cold sweep rebuilds everything per point. A 10%
    // grace bound absorbs scheduler noise without masking regressions.
    assert!(
        warm <= cold * 1.10,
        "warm sweep ({warm:.4}s) must not be slower than cold sweep ({cold:.4}s)"
    );
}
