//! Cross-process persistence probe for the reuse plane's disk tier.
//!
//! Runs the full benchmark suite through a [`ReusePlane`] whose disk tier
//! is rooted at the directory given as the first argument, then prints
//! one machine-readable stats line. Run it twice against the same
//! directory from two separate processes: the first run builds cold and
//! persists, the second decodes every context from disk —
//! `disk_hits > 0` and a smaller `elapsed_ms`. The CI `persistence` job
//! asserts exactly that.
//!
//! A second, variant-timing pass solves a **new timing over restored
//! contexts**: the context key excludes the timing model, so the variant
//! pass hits the same contexts but misses their solved-artifact memo and
//! must run its ILPs. The variant timing is configurable (arguments two
//! and three, default `2 120`) because solved artifacts are persisted
//! too: a later process must pick a timing no earlier process solved to
//! force its ILPs to actually run. The restored contexts answer their
//! classification from the entries' tails and build their IPET templates
//! as fresh contexts do, one cold root solve each — `disk_hits = 25`,
//! `cold_builds = 0` and `disk_writes = 25` (each entry gains the new
//! timing) — which the CI `persistence` job asserts by running a third
//! process with a fresh variant timing.
//!
//! ```text
//! cargo run --release -p pwcet-bench --bin persist_probe -- /tmp/pwcet-store
//! cargo run --release -p pwcet-bench --bin persist_probe -- /tmp/pwcet-store 3 150
//! ```

use std::sync::Arc;
use std::time::Instant;

use pwcet_bench::{run_suite, TARGET_PROBABILITY};
use pwcet_cache::CacheTiming;
use pwcet_core::{AnalysisConfig, ReusePlane};

fn main() {
    let mut args = std::env::args().skip(1);
    let dir = args
        .next()
        .expect("usage: persist_probe <cache-dir> [variant-hit-cycles variant-miss-cycles]");
    let variant_hit: u64 = args.next().map_or(2, |a| a.parse().expect("hit cycles"));
    let variant_miss: u64 = args.next().map_or(120, |a| a.parse().expect("miss cycles"));
    let plane = Arc::new(
        ReusePlane::in_memory()
            .with_disk_tier(&dir)
            .expect("cache directory is writable"),
    );
    let config = AnalysisConfig::paper_default();

    let start = Instant::now();
    let results = run_suite(&config, TARGET_PROBABILITY, &plane).expect("suite analyzes");
    let elapsed = start.elapsed();

    // Variant timing: same contexts (the key is timing-blind), fresh
    // solved-artifact memo — the pass that actually runs ILPs in a
    // second process, over the restored classification tails.
    let mut variant = config;
    variant.timing = CacheTiming::new(variant_hit, variant_miss);
    let start = Instant::now();
    run_suite(&variant, TARGET_PROBABILITY, &plane).expect("variant suite analyzes");
    let variant_elapsed = start.elapsed();

    // Belt and braces: capture artifacts warmed after their per-analysis
    // write-through (e.g. lazily-queried estimate products).
    let flushed = plane.flush();

    let stats = plane.stats();
    let ilp = plane.ilp_stats();
    println!(
        "benchmarks={} elapsed_ms={} variant_elapsed_ms={} disk_hits={} disk_misses={} \
         disk_writes={} flushed={} disk_corrupt={} derived={} cold_builds={} \
         template_hits={} ilp_cold_starts={} store_bytes={} store_entries={} store={}",
        results.len(),
        elapsed.as_millis(),
        variant_elapsed.as_millis(),
        stats.disk_hits,
        stats.disk_misses,
        stats.disk_writes,
        flushed,
        stats.disk_corrupt,
        stats.derived,
        stats.cold_builds,
        stats.template_hits,
        ilp.cold_starts,
        plane.disk_store_bytes().unwrap_or(0),
        plane.disk_store_entries().unwrap_or(0),
        dir,
    );
}
