//! Core-count-aware parallel speedup gate.
//!
//! The ROADMAP's ≥3× parallel-speedup target is only meaningful on a
//! multi-core runner: a single-core container schedules every "worker" on
//! one CPU and measures ~1×. This gate therefore **reports** the measured
//! speedup everywhere but only **fails** on machines with enough physical
//! parallelism for the target to be physically attainable — closing the
//! ROADMAP nit about single-core CI runners.
//!
//! `#[ignore]`d by default (wall-clock measurement); the nightly CI step
//! runs it via `--include-ignored`.

use std::num::NonZeroUsize;

use pwcet_bench::best_of_interleaved;
use pwcet_core::{AnalysisConfig, Parallelism, PwcetAnalyzer};

/// Cores needed before the gate enforces (4 workers leave headroom for
/// the OS while still making ≥2× attainable; the ≥3× aspiration needs
/// even more).
const ENFORCE_AT_CORES: usize = 4;
/// The enforced floor on multi-core runners — deliberately below the
/// aspirational 3× so scheduler noise cannot flake the gate.
const ENFORCED_SPEEDUP: f64 = 1.3;

const PROGRAM: &str = "adpcm";

#[test]
#[ignore = "wall-clock comparison; run by the nightly CI --include-ignored step"]
fn parallel_speedup_meets_the_gate_on_multicore_runners() {
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let bench = pwcet_benchsuite::by_name(PROGRAM).expect("benchmark exists");
    let base = AnalysisConfig::paper_default();
    // Fresh contexts per run: the parallel win is in the classification
    // and ILP fan-out, which caching would hide.
    let analyze = |parallelism| {
        PwcetAnalyzer::new(base.with_parallelism(parallelism))
            .analyze(&bench.program)
            .expect("analyzes")
    };
    let (sequential, parallel) = best_of_interleaved(
        12,
        || analyze(Parallelism::Sequential),
        || analyze(Parallelism::Auto),
    );
    let speedup = sequential / parallel.max(f64::EPSILON);
    println!(
        "cores={cores} sequential={sequential:.3}s parallel={parallel:.3}s speedup={speedup:.2}x"
    );

    if cores < ENFORCE_AT_CORES {
        println!(
            "report-only: {cores} core(s) < {ENFORCE_AT_CORES}; the speedup gate needs a \
             multi-core runner (measured {speedup:.2}x)"
        );
        return;
    }
    assert!(
        speedup >= ENFORCED_SPEEDUP,
        "with {cores} cores the parallel pipeline must reach {ENFORCED_SPEEDUP}x \
         (measured {speedup:.2}x)"
    );
}
