//! The frozen set-based classification oracle.
//!
//! Production classification ([`crate::classify_level`] and its
//! siblings) runs the Must/May fixpoints on the bit-packed word-parallel
//! [`PackedAcs`] domain. This module keeps the original `BTreeSet`-based
//! [`Acs`] fixpoints as the oracle the equivalence suites compare that
//! kernel against; nothing in the analysis pipeline calls it. Each
//! function mirrors its production namesake and stores its states
//! packed, so the two compare with `==`.

use std::sync::Arc;

use pwcet_cache::CacheGeometry;
use pwcet_cfg::ExpandedCfg;

use crate::acs::{Acs, AnalysisKind};
use crate::classify::{
    check_warm_start, read_chmc, read_srb, srb_geometry, zero_level, ClassifiedLevel, SrbMap,
};
use crate::fixpoint::{analyze, analyze_seeded};
use crate::packed::{BlockInterner, PackedAcs};

/// [`crate::classify_level`] on the set-based domain: cold Must and May
/// fixpoints at effective associativity `assoc`.
pub fn classify_level(cfg: &ExpandedCfg, geometry: &CacheGeometry, assoc: u32) -> ClassifiedLevel {
    let interner = Arc::new(BlockInterner::build(cfg, geometry));
    if assoc == 0 {
        return zero_level(cfg, interner);
    }
    let must = analyze(cfg, geometry, assoc, AnalysisKind::Must);
    let may = analyze(cfg, geometry, assoc, AnalysisKind::May);
    packed_level(cfg, geometry, assoc, interner, must, may)
}

/// [`crate::classify_level_from`] on the set-based domain: both
/// fixpoints seeded from the age-truncated states of `warmer`.
///
/// # Panics
///
/// As for [`crate::classify_level_from`].
pub fn classify_level_from(
    cfg: &ExpandedCfg,
    geometry: &CacheGeometry,
    warmer: &ClassifiedLevel,
    assoc: u32,
) -> ClassifiedLevel {
    check_warm_start(geometry, warmer, assoc);
    let interner = Arc::clone(warmer.interner());
    if assoc == 0 {
        return zero_level(cfg, interner);
    }
    let truncate_all = |states: &[Option<PackedAcs>]| -> Vec<Option<Acs>> {
        states
            .iter()
            .map(|s| s.as_ref().map(|acs| acs.truncate(assoc).to_acs()))
            .collect()
    };
    let must = analyze_seeded(cfg, geometry, truncate_all(warmer.must_states()));
    let may = analyze_seeded(cfg, geometry, truncate_all(warmer.may_states()));
    packed_level(cfg, geometry, assoc, interner, must, may)
}

/// [`crate::classify_srb`] on the set-based domain.
pub fn classify_srb(cfg: &ExpandedCfg, geometry: &CacheGeometry) -> SrbMap {
    let srb_geometry = srb_geometry(geometry);
    let must = analyze(cfg, &srb_geometry, 1, AnalysisKind::Must);
    read_srb(cfg, &srb_geometry, &must)
}

/// Reads the classification off converged set-based states, then stores
/// the states packed so levels of both domains compare bit for bit.
fn packed_level(
    cfg: &ExpandedCfg,
    geometry: &CacheGeometry,
    assoc: u32,
    interner: Arc<BlockInterner>,
    must: Vec<Option<Acs>>,
    may: Vec<Option<Acs>>,
) -> ClassifiedLevel {
    let chmc = read_chmc(cfg, geometry, assoc, &must, &may);
    let pack_all = |states: Vec<Option<Acs>>| -> Vec<Option<PackedAcs>> {
        states
            .into_iter()
            .map(|s| s.map(|acs| PackedAcs::from_acs(&acs, &interner)))
            .collect()
    };
    let (must, may) = (pack_all(must), pack_all(may));
    ClassifiedLevel::from_parts(assoc, chmc, interner, must, may)
}
