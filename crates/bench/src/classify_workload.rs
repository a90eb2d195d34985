//! The exact classification workload of one benchmark's context build,
//! reproduced for the kernel gate.
//!
//! A context materializes one cold fixpoint at full associativity,
//! warm-starts every narrower level from it by age truncation, and runs
//! the SRB pseudo-geometry replay. This module rebuilds that exact
//! chain twice — on the packed production kernel ([`classify_chain`])
//! and on the frozen set-based oracle ([`reference_chain`]) — so the
//! `classify_speedup_gate` times one against the other on the real
//! workload.

use pwcet_analysis::{
    classify_level, classify_level_from, classify_srb, reference, ClassifiedLevel, SrbMap,
};
use pwcet_cache::CacheGeometry;
use pwcet_cfg::ExpandedCfg;
use pwcet_core::{expand_compiled, AnalysisConfig};

/// The classification levels of one chain (widest first) and its SRB
/// map.
pub type Chain = (Vec<ClassifiedLevel>, SrbMap);

/// The expanded CFG of benchmark `name` under `config`.
///
/// # Panics
///
/// Panics when `name` is not in the benchmark suite or compilation
/// fails.
pub fn expanded_cfg(name: &str, config: &AnalysisConfig) -> ExpandedCfg {
    let bench = pwcet_benchsuite::by_name(name).expect("benchmark exists");
    let compiled = bench.program.compile(config.code_base).expect("compiles");
    expand_compiled(&compiled).expect("CFG builds")
}

/// Runs the full classification chain of one context build on the
/// packed kernel: the cold full-associativity fixpoint, every narrower
/// level (`ways-1` down to `0`) warm-started from it, and the SRB map.
pub fn classify_chain(cfg: &ExpandedCfg, geometry: &CacheGeometry) -> Chain {
    chain(
        cfg,
        geometry,
        classify_level,
        classify_level_from,
        classify_srb,
    )
}

/// [`classify_chain`] on the frozen set-based oracle.
pub fn reference_chain(cfg: &ExpandedCfg, geometry: &CacheGeometry) -> Chain {
    chain(
        cfg,
        geometry,
        reference::classify_level,
        reference::classify_level_from,
        reference::classify_srb,
    )
}

fn chain(
    cfg: &ExpandedCfg,
    geometry: &CacheGeometry,
    level: fn(&ExpandedCfg, &CacheGeometry, u32) -> ClassifiedLevel,
    level_from: fn(&ExpandedCfg, &CacheGeometry, &ClassifiedLevel, u32) -> ClassifiedLevel,
    srb: fn(&ExpandedCfg, &CacheGeometry) -> SrbMap,
) -> Chain {
    let ways = geometry.ways();
    let full = level(cfg, geometry, ways);
    let mut levels = Vec::with_capacity(ways as usize + 1);
    for assoc in (0..ways).rev() {
        levels.push(level_from(cfg, geometry, &full, assoc));
    }
    levels.insert(0, full);
    (levels, srb(cfg, geometry))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_matches_the_reference() {
        let config = AnalysisConfig::paper_default();
        let cfg = expanded_cfg("fibcall", &config);
        let packed = classify_chain(&cfg, &config.geometry);
        let reference = reference_chain(&cfg, &config.geometry);
        assert_eq!(packed.0, reference.0, "levels must be bit-identical");
        assert_eq!(packed.1, reference.1, "SRB maps must be identical");
        assert_eq!(
            packed.0.len(),
            config.geometry.ways() as usize + 1,
            "one level per associativity 0..=W"
        );
    }
}
