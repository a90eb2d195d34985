//! Classification-kernel benchmark: bit-packed word-parallel fixpoints
//! vs. the frozen set-based reference.
//!
//! Reproduces the exact classification workload of one context build on
//! `nsichneu` — the cold full-associativity Must/May fixpoint, every
//! narrower level warm-started from it by age truncation, and the SRB
//! replay — and times it on both kernels:
//!
//! * **cold** — `reference_chain`: per-set `BTreeSet` age slots, the
//!   frozen pre-packing oracle;
//! * **packed** — `classify_chain`: interned dense block indices, one
//!   `u64` bitset lane group per age, shift/AND/OR transfer and join.
//!
//! Both chains are asserted bit-identical before any number is
//! recorded. Results are upserted as `classify_*` rows of
//! `BENCH_pipeline.json`.
//!
//! ```text
//! cargo run --release -p pwcet-bench --bin classify_bench
//! ```

use std::time::Instant;

use pwcet_bench::bench_json::{json_str, upsert};
use pwcet_bench::classify_workload::{classify_chain, expanded_cfg, reference_chain, Chain};
use pwcet_cache::CacheGeometry;
use pwcet_cfg::ExpandedCfg;
use pwcet_core::AnalysisConfig;

const PROGRAM: &str = "nsichneu";
/// Timed repetitions per kernel — the chain is deterministic, repeats
/// only average out scheduler noise.
const REPS: u32 = 3;

fn main() {
    let config = AnalysisConfig::paper_default();
    let cfg = expanded_cfg(PROGRAM, &config);
    let geometry = config.geometry;
    eprintln!(
        "{PROGRAM}: {} nodes, {} sets x {} ways, levels 0..={}",
        cfg.nodes().len(),
        geometry.sets(),
        geometry.ways(),
        geometry.ways(),
    );

    // Untimed warm-up of both kernels (lazy statics, allocator growth)
    // doubling as the bit-identity check: the packed kernel must agree
    // with the reference on every level and the SRB map before its
    // timing means anything.
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

    let time = |run: fn(&ExpandedCfg, &CacheGeometry) -> Chain| -> u64 {
        let start = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(run(&cfg, &geometry));
        }
        start.elapsed().as_nanos() as u64 / u64::from(REPS)
    };
    let cold_ns = time(reference_chain);
    let packed_ns = time(classify_chain);

    let speedup = cold_ns as f64 / packed_ns.max(1) as f64;
    eprintln!(
        "reference {} ms/chain, packed {} ms/chain ({speedup:.2}x)",
        cold_ns / 1_000_000,
        packed_ns / 1_000_000,
    );

    upsert(
        "BENCH_pipeline.json",
        &[
            ("classify_program", json_str(PROGRAM)),
            ("classify_levels", (geometry.ways() + 1).to_string()),
            ("classify_cold_ns", cold_ns.to_string()),
            ("classify_packed_ns", packed_ns.to_string()),
            ("classify_packed_speedup", format!("{speedup:.3}")),
            (
                "classify_note",
                json_str(
                    "full classification chain (cold full-assoc fixpoint + truncation \
                     warm starts + SRB replay); packed = word-parallel u64-bitset kernel, \
                     cold = frozen set-based reference; chains asserted bit-identical \
                     before timing (algorithmic speedup; shows up on any machine)",
                ),
            ),
            (
                "classify_command",
                json_str("cargo run --release -p pwcet-bench --bin classify_bench"),
            ),
        ],
    )
    .expect("BENCH_pipeline.json is writable");
    eprintln!("upserted classify_* rows into BENCH_pipeline.json");
}
