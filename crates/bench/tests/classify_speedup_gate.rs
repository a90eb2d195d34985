//! Classification-kernel speedup gate.
//!
//! The bit-packed word-parallel kernel's advantage over the frozen
//! set-based reference is *algorithmic* — fewer allocations and a
//! constant-factor word-parallel transfer/join — so, like the ILP
//! template warm-start gate, it is enforced on every runner regardless
//! of core count. The floor is deliberately below the measured speedup
//! so scheduler noise cannot flake the gate.
//!
//! `#[ignore]`d by default (wall-clock measurement); the main CI runs
//! it explicitly as the `classify` smoke and the nightly job picks it
//! up via `--include-ignored`.

use std::num::NonZeroUsize;

use pwcet_bench::best_of_interleaved;
use pwcet_bench::classify_workload::{classify_chain, expanded_cfg, reference_chain};
use pwcet_core::AnalysisConfig;

const PROGRAM: &str = "nsichneu";
/// Enforced on all runners; the measured speedup is well above this.
const ENFORCED_PACKED_SPEEDUP: f64 = 2.0;

#[test]
#[ignore = "wall-clock comparison; run by the CI classify smoke and the nightly --include-ignored step"]
fn packed_kernel_meets_the_gate_on_all_runners() {
    let config = AnalysisConfig::paper_default();
    let cfg = expanded_cfg(PROGRAM, &config);
    let geometry = config.geometry;
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);

    // Bit-identity first: a fast kernel that disagrees with the
    // reference gates nothing.
    let packed = classify_chain(&cfg, &geometry);
    let reference = reference_chain(&cfg, &geometry);
    assert_eq!(
        packed.0, reference.0,
        "packed levels must be bit-identical to the reference"
    );
    assert_eq!(
        packed.1, reference.1,
        "packed SRB map must be identical to the reference"
    );

    let (cold_s, fast_s) = best_of_interleaved(
        5,
        || reference_chain(&cfg, &geometry),
        || classify_chain(&cfg, &geometry),
    );

    let speedup = cold_s / fast_s.max(f64::EPSILON);
    println!(
        "{PROGRAM} (cores={cores}): reference {cold_s:.3}s vs packed {fast_s:.3}s = {speedup:.2}x"
    );
    assert!(
        speedup >= ENFORCED_PACKED_SPEEDUP,
        "the packed-kernel speedup is algorithmic and must reach \
         {ENFORCED_PACKED_SPEEDUP}x on any runner (measured {speedup:.2}x)"
    );
}
