//! CHMC classification: combining Must, May and Persistence.

use std::sync::Arc;

use pwcet_cache::{CacheGeometry, MemBlock};
use pwcet_cfg::{ExpandedCfg, NodeId};

use crate::acs::{Acs, AnalysisKind};
use crate::chmc::{Chmc, ChmcMap, Scope};
use crate::packed::{
    analyze_packed, analyze_packed_seeded, BlockInterner, KernelStatsCell, PackedAcs,
};
use crate::persistence::persistent_scopes;

/// How the per-level CHMC fixpoints of a context are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ClassificationMode {
    /// Every associativity level runs its own cold fixpoint (the
    /// reference mode the differential tests compare against).
    Cold,
    /// Only the full-associativity level runs cold; every lower level is
    /// warm-started from the age-truncated converged states of the
    /// nearest higher level ([`classify_level_from`]). Bit-identical to
    /// [`Cold`](Self::Cold) — `tests/incremental_equivalence.rs` pins the
    /// guarantee across the whole benchmark suite.
    #[default]
    Incremental,
}

/// The converged analysis artifacts of one associativity level: the CHMC
/// classification plus the packed Must/May fixpoint states it was read
/// off, kept so lower levels can be warm-started from them.
///
/// States are stored packed (the set-based oracle of [`crate::reference`]
/// converts on the way out); the interner is deterministic for a given
/// CFG and `(sets, block_bytes)`, so equality of levels is bit-equality
/// of their slot words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassifiedLevel {
    assoc: u32,
    chmc: ChmcMap,
    interner: Arc<BlockInterner>,
    must: Vec<Option<PackedAcs>>,
    may: Vec<Option<PackedAcs>>,
}

impl ClassifiedLevel {
    /// The effective associativity this level was classified at.
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// The classification.
    pub fn chmc(&self) -> &ChmcMap {
        &self.chmc
    }

    /// Consumes the level, keeping only the classification.
    pub fn into_chmc(self) -> ChmcMap {
        self.chmc
    }

    /// The block interner the stored states' dense indices refer to.
    pub fn interner(&self) -> &Arc<BlockInterner> {
        &self.interner
    }

    /// The converged per-node Must states the classification was read
    /// off (`None` for unreachable nodes).
    pub fn must_states(&self) -> &[Option<PackedAcs>] {
        &self.must
    }

    /// The converged per-node May states.
    pub fn may_states(&self) -> &[Option<PackedAcs>] {
        &self.may
    }

    /// Reassembles a level from its parts — the deserialization entry
    /// point of the on-disk context store. Analysis code obtains levels
    /// through [`classify_level`]/[`classify_level_from`] instead.
    ///
    /// # Panics
    ///
    /// Panics when the state vectors disagree in length.
    pub fn from_parts(
        assoc: u32,
        chmc: ChmcMap,
        interner: Arc<BlockInterner>,
        must: Vec<Option<PackedAcs>>,
        may: Vec<Option<PackedAcs>>,
    ) -> Self {
        assert_eq!(
            must.len(),
            may.len(),
            "Must and May must cover the same nodes"
        );
        Self {
            assoc,
            chmc,
            interner,
            must,
            may,
        }
    }
}

/// Classifies every instruction fetch of the expanded graph at the given
/// **effective associativity** (number of usable ways per set).
///
/// Precedence (§II-B1): always-hit (Must) over first-miss (Persistence)
/// over always-miss (May absence) over not-classified. With `assoc == 0`
/// every fetch is always-miss — the behavior of a fully disabled set.
///
/// This is the cold path of the packed kernel; see
/// [`classify_level_from`] for the warm-started incremental variant and
/// [`crate::reference`] for the set-based oracle.
///
/// See the [crate docs](crate) for an end-to-end example.
pub fn classify(cfg: &ExpandedCfg, geometry: &CacheGeometry, assoc: u32) -> ChmcMap {
    classify_level(cfg, geometry, assoc).into_chmc()
}

/// As [`classify`], additionally returning the converged Must/May states
/// so the next-lower level can be warm-started from them.
pub fn classify_level(cfg: &ExpandedCfg, geometry: &CacheGeometry, assoc: u32) -> ClassifiedLevel {
    classify_level_with(cfg, geometry, assoc, None)
}

/// [`classify_level`] recording the kernel's counters into `stats`.
pub fn classify_level_with(
    cfg: &ExpandedCfg,
    geometry: &CacheGeometry,
    assoc: u32,
    stats: Option<&KernelStatsCell>,
) -> ClassifiedLevel {
    let interner = Arc::new(BlockInterner::build(cfg, geometry));
    if assoc == 0 {
        return zero_level(cfg, interner);
    }
    let must = analyze_packed(cfg, geometry, assoc, AnalysisKind::Must, &interner, stats);
    let may = analyze_packed(cfg, geometry, assoc, AnalysisKind::May, &interner, stats);
    ClassifiedLevel {
        assoc,
        chmc: read_chmc(cfg, geometry, assoc, &must, &may),
        interner,
        must,
        may,
    }
}

/// Classifies at `assoc` by **warm-starting** both fixpoints from the
/// age-truncated converged states of `warmer` (a level with strictly
/// larger associativity) instead of from the cold lattice top.
///
/// Because truncation is an exact homomorphism of the abstract domain
/// (see [`Acs::truncate`] / [`PackedAcs::truncate`]), the truncated seed
/// already *is* the fixpoint of the narrower analysis; the worklist loop
/// merely verifies stability, so the result is bit-identical to
/// [`classify_level`] at a fraction of the cost. Were the seed ever to
/// disagree, the chaotic iteration would still converge to a sound
/// solution — warm starting cannot compromise soundness, only
/// (theoretically) precision, and the differential suite pins exactness.
///
/// # Cross-geometry warm starts
///
/// None of the abstract domain depends on the *nominal* way count of the
/// cache — only on the set count, the block size, and the effective
/// associativity of the fixpoint. `warmer` may therefore come from a
/// **different cache geometry** as long as it shares `geometry`'s sets
/// and block size: the converged full-associativity states of a 4-way
/// cache seed the full classification of the 2-way sibling exactly. This
/// is the derivation step of the geometry-sweep reuse plane in
/// `pwcet-core` — one cold fixpoint at the widest associativity serves
/// every narrower-way geometry of the lattice. (The interner only
/// depends on the set count and block size, so it carries over
/// unchanged.)
///
/// # Panics
///
/// Panics when `assoc` is not strictly below the warmer level's
/// associativity, or when the warmer states were computed for an
/// incompatible set count or block size (each state carries both as
/// provenance).
pub fn classify_level_from(
    cfg: &ExpandedCfg,
    geometry: &CacheGeometry,
    warmer: &ClassifiedLevel,
    assoc: u32,
) -> ClassifiedLevel {
    classify_level_from_with(cfg, geometry, warmer, assoc, None)
}

/// [`classify_level_from`] recording the kernel's counters into `stats`.
///
/// # Panics
///
/// As for [`classify_level_from`].
pub fn classify_level_from_with(
    cfg: &ExpandedCfg,
    geometry: &CacheGeometry,
    warmer: &ClassifiedLevel,
    assoc: u32,
    stats: Option<&KernelStatsCell>,
) -> ClassifiedLevel {
    check_warm_start(geometry, warmer, assoc);
    let interner = Arc::clone(&warmer.interner);
    if assoc == 0 {
        return zero_level(cfg, interner);
    }
    let truncate_all = |states: &[Option<PackedAcs>]| -> Vec<Option<PackedAcs>> {
        states
            .iter()
            .map(|s| s.as_ref().map(|acs| acs.truncate(assoc)))
            .collect()
    };
    let must = analyze_packed_seeded(cfg, geometry, truncate_all(&warmer.must), stats);
    let may = analyze_packed_seeded(cfg, geometry, truncate_all(&warmer.may), stats);
    ClassifiedLevel {
        assoc,
        chmc: read_chmc(cfg, geometry, assoc, &must, &may),
        interner,
        must,
        may,
    }
}

/// The preconditions of a warm start from `warmer` to `assoc` under
/// `geometry` (see [`classify_level_from`]).
pub(crate) fn check_warm_start(geometry: &CacheGeometry, warmer: &ClassifiedLevel, assoc: u32) {
    assert!(
        assoc < warmer.assoc,
        "warm start requires a strictly wider source level \
         (have {}, requested {assoc})",
        warmer.assoc
    );
    if let Some(state) = warmer.must.iter().flatten().next() {
        assert_eq!(
            state.sets(),
            geometry.sets(),
            "warm start requires matching set counts"
        );
        assert_eq!(
            state.block_bytes(),
            geometry.block_bytes(),
            "warm start requires matching block sizes"
        );
    }
}

/// The trivial level of a fully disabled set: every fetch always misses.
pub(crate) fn zero_level(cfg: &ExpandedCfg, interner: Arc<BlockInterner>) -> ClassifiedLevel {
    ClassifiedLevel {
        assoc: 0,
        chmc: ChmcMap::new(
            cfg.nodes()
                .iter()
                .map(|n| vec![Chmc::AlwaysMiss; n.addrs().len()])
                .collect(),
        ),
        interner,
        must: vec![None; cfg.nodes().len()],
        may: vec![None; cfg.nodes().len()],
    }
}

/// What the CHMC and SRB readouts need of a converged abstract state —
/// the packed production domain and the set-based oracle alike.
pub(crate) trait CacheState: Clone {
    fn contains(&self, block: MemBlock) -> bool;
    fn update(&mut self, block: MemBlock);
}

impl CacheState for PackedAcs {
    fn contains(&self, block: MemBlock) -> bool {
        PackedAcs::contains(self, block)
    }

    fn update(&mut self, block: MemBlock) {
        PackedAcs::update(self, block);
    }
}

impl CacheState for Acs {
    fn contains(&self, block: MemBlock) -> bool {
        Acs::contains(self, block)
    }

    fn update(&mut self, block: MemBlock) {
        Acs::update(self, block);
    }
}

/// Reads the classification off converged Must/May node-entry states
/// (§II-B1 precedence: Must > Persistence > May-absence >
/// not-classified).
pub(crate) fn read_chmc<S: CacheState>(
    cfg: &ExpandedCfg,
    geometry: &CacheGeometry,
    assoc: u32,
    must: &[Option<S>],
    may: &[Option<S>],
) -> ChmcMap {
    let persistence: Vec<Vec<Option<Scope>>> = persistent_scopes(cfg, geometry, assoc);
    let per_node = cfg
        .nodes()
        .iter()
        .map(|node| {
            let id: NodeId = node.id();
            let (Some(must_state), Some(may_state)) = (&must[id], &may[id]) else {
                // Unreachable node: classify conservatively.
                return vec![Chmc::NotClassified; node.addrs().len()];
            };
            let mut must_state = must_state.clone();
            let mut may_state = may_state.clone();
            node.addrs()
                .iter()
                .enumerate()
                .map(|(i, &addr)| {
                    let block = geometry.block_of(addr);
                    let class = if must_state.contains(block) {
                        Chmc::AlwaysHit
                    } else if let Some(scope) = persistence[id][i] {
                        Chmc::FirstMiss(scope)
                    } else if !may_state.contains(block) {
                        Chmc::AlwaysMiss
                    } else {
                        Chmc::NotClassified
                    };
                    must_state.update(block);
                    may_state.update(block);
                    class
                })
                .collect()
        })
        .collect();
    ChmcMap::new(per_node)
}

/// Which references are guaranteed hits in the Shared Reliable Buffer.
///
/// Indexed like [`ChmcMap`]: `always_hit(node, index)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrbMap {
    per_node: Vec<Vec<bool>>,
}

impl SrbMap {
    /// `true` if reference `index` of `node` is always-hit in the SRB.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn always_hit(&self, node: NodeId, index: usize) -> bool {
        self.per_node[node][index]
    }

    /// Number of always-hit references.
    pub fn hit_count(&self) -> usize {
        self.per_node.iter().flatten().filter(|&&b| b).count()
    }

    /// Total references covered.
    pub fn total(&self) -> usize {
        self.per_node.iter().map(Vec::len).sum()
    }

    /// The per-node hit rows (`rows[node][i]` — reference `i` of `node`).
    /// Exposed for the persistence codec of `pwcet-core`; pair with
    /// [`from_rows`](Self::from_rows).
    pub fn rows(&self) -> &[Vec<bool>] {
        &self.per_node
    }

    /// Rebuilds a map from its rows — the deserialization entry point of
    /// the on-disk context store. Analysis code uses [`classify_srb`].
    pub fn from_rows(per_node: Vec<Vec<bool>>) -> Self {
        Self { per_node }
    }
}

/// The SRB analysis of §III-B2: a Must analysis of a one-block cache
/// through which **every** reference is routed.
///
/// This is the paper's conservative assumption: no information survives in
/// the SRB between distinct series of successive accesses, because any
/// intervening reference to a fully-faulty set may reload it. A reference
/// is SRB-always-hit exactly when every immediately preceding fetch (on
/// all paths) touches the same memory block — the buffer then provably
/// holds the block even if the reference's own set is fully faulty.
pub fn classify_srb(cfg: &ExpandedCfg, geometry: &CacheGeometry) -> SrbMap {
    classify_srb_with(cfg, geometry, None)
}

/// [`classify_srb`] recording the kernel's counters into `stats`.
pub fn classify_srb_with(
    cfg: &ExpandedCfg,
    geometry: &CacheGeometry,
    stats: Option<&KernelStatsCell>,
) -> SrbMap {
    let srb_geometry = srb_geometry(geometry);
    let interner = Arc::new(BlockInterner::build(cfg, &srb_geometry));
    let must = analyze_packed(cfg, &srb_geometry, 1, AnalysisKind::Must, &interner, stats);
    read_srb(cfg, &srb_geometry, &must)
}

/// One set, one way, same block size: the SRB as a cache.
pub(crate) fn srb_geometry(geometry: &CacheGeometry) -> CacheGeometry {
    CacheGeometry::new(1, 1, geometry.block_bytes())
}

/// Reads the SRB hit map off converged Must node-entry states of the
/// SRB pseudo-geometry.
pub(crate) fn read_srb<S: CacheState>(
    cfg: &ExpandedCfg,
    srb_geometry: &CacheGeometry,
    must: &[Option<S>],
) -> SrbMap {
    let per_node = cfg
        .nodes()
        .iter()
        .map(|node| {
            let Some(state) = &must[node.id()] else {
                return vec![false; node.addrs().len()];
            };
            let mut state = state.clone();
            node.addrs()
                .iter()
                .map(|&addr| {
                    let block = srb_geometry.block_of(addr);
                    let hit = state.contains(block);
                    state.update(block);
                    hit
                })
                .collect()
        })
        .collect();
    SrbMap { per_node }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chmc::Scope;
    use crate::reference;
    use pwcet_cfg::FunctionExtent;
    use pwcet_progen::{stmt, Program};

    fn build(program: Program) -> ExpandedCfg {
        let compiled = program.compile(0x0040_0000).expect("compiles");
        let extents: Vec<FunctionExtent> = compiled
            .functions()
            .iter()
            .map(|f| FunctionExtent::new(f.name(), f.entry(), f.end()))
            .collect();
        let bounds: Vec<(u32, u32)> = compiled
            .loop_bounds()
            .iter()
            .map(|lb| (lb.header, lb.bound))
            .collect();
        ExpandedCfg::build(compiled.image(), &extents, &bounds).expect("expands")
    }

    fn geometry() -> CacheGeometry {
        CacheGeometry::paper_default()
    }

    #[test]
    fn straight_line_classifies_block_leaders_as_miss() {
        // 61 instructions straight-line: first fetch of each 16-byte block
        // misses once (program-persistent: the program fits), later
        // fetches of the block always hit.
        let cfg = build(Program::new("s").with_function("main", stmt::compute(60)));
        let chmc = classify(&cfg, &geometry(), 4);
        let stats = chmc.stats();
        // 64 instructions = 16 blocks. Code fits the cache exactly, so
        // block-leader fetches are first-miss (program scope), rest hit.
        assert_eq!(stats.total(), 64);
        assert_eq!(stats.always_hit, 48);
        assert_eq!(stats.first_miss + stats.always_miss, 16);
        assert_eq!(stats.not_classified, 0);
    }

    #[test]
    fn tight_loop_body_hits_after_first_iteration() {
        let cfg = build(Program::new("l").with_function("main", stmt::loop_(50, stmt::compute(8))));
        let chmc = classify(&cfg, &geometry(), 4);
        let l = &cfg.loops()[0];
        // Every in-loop reference is at worst first-miss: the program is
        // tiny, so nothing can be evicted.
        for &node in &l.nodes {
            for (i, &class) in chmc.node(node).iter().enumerate() {
                assert!(
                    matches!(class, Chmc::AlwaysHit | Chmc::FirstMiss(_)),
                    "loop node {node} ref {i} got {class:?}"
                );
            }
        }
        assert_eq!(chmc.stats().not_classified, 0);
    }

    #[test]
    fn zero_associativity_is_all_miss() {
        let cfg = build(Program::new("z").with_function("main", stmt::compute(5)));
        let chmc = classify(&cfg, &geometry(), 0);
        assert_eq!(chmc.stats().always_miss, chmc.stats().total());
    }

    #[test]
    fn lower_associativity_never_improves_classes() {
        let cfg = build(
            Program::new("d")
                .with_function(
                    "main",
                    stmt::loop_(20, stmt::seq([stmt::compute(100), stmt::call("f")])),
                )
                .with_function("f", stmt::compute(120)),
        );
        let g = geometry();
        let mut previous_hits = usize::MAX;
        for assoc in (0..=4).rev() {
            let stats = classify(&cfg, &g, assoc).stats();
            assert!(
                stats.always_hit <= previous_hits,
                "assoc {assoc}: hits must not increase when ways shrink"
            );
            previous_hits = stats.always_hit;
        }
    }

    #[test]
    fn first_miss_scope_is_outermost_possible() {
        // Small program: everything fits ⇒ scopes should be Program, not
        // the loop.
        let cfg = build(Program::new("sc").with_function("main", stmt::loop_(5, stmt::compute(4))));
        let chmc = classify(&cfg, &geometry(), 4);
        for (_, _, class) in chmc.iter() {
            if let Chmc::FirstMiss(scope) = class {
                assert_eq!(scope, Scope::Program);
            }
        }
    }

    #[test]
    fn packed_kernel_matches_the_set_based_oracle() {
        // Unit-level identity: the packed kernel and the set-based oracle
        // agree on every level — CHMC, states, cold and warm.
        let cfg = build(
            Program::new("bk")
                .with_function(
                    "main",
                    stmt::loop_(
                        10,
                        stmt::seq([
                            stmt::compute(90),
                            stmt::call("f"),
                            stmt::if_else(stmt::compute(7), stmt::compute(33)),
                        ]),
                    ),
                )
                .with_function("f", stmt::compute(55)),
        );
        let g = geometry();
        for assoc in 0..=4u32 {
            assert_eq!(
                classify_level(&cfg, &g, assoc),
                reference::classify_level(&cfg, &g, assoc),
                "cold level {assoc}"
            );
        }
        let full = classify_level(&cfg, &g, 4);
        for assoc in 0..4u32 {
            assert_eq!(
                classify_level_from(&cfg, &g, &full, assoc),
                reference::classify_level_from(&cfg, &g, &full, assoc),
                "warm level {assoc}"
            );
        }
        assert_eq!(
            classify_srb(&cfg, &g),
            reference::classify_srb(&cfg, &g),
            "SRB map"
        );
    }

    #[test]
    fn packed_kernel_records_kernel_stats() {
        let cfg =
            build(Program::new("ks").with_function("main", stmt::loop_(8, stmt::compute(40))));
        let g = geometry();
        let cell = KernelStatsCell::default();
        let _ = classify_level_with(&cfg, &g, 4, Some(&cell));
        let snapshot = cell.snapshot();
        assert!(snapshot.passes > 0);
        assert!(snapshot.words_touched > 0);
    }

    #[test]
    fn warm_started_levels_match_cold_classification() {
        // A program with loops, calls, and branches whose working set
        // exceeds the cache — the hard case for the warm-start chain.
        let cfg = build(
            Program::new("warm")
                .with_function(
                    "main",
                    stmt::loop_(
                        15,
                        stmt::seq([
                            stmt::compute(120),
                            stmt::call("f"),
                            stmt::if_else(stmt::compute(9), stmt::loop_(4, stmt::compute(22))),
                        ]),
                    ),
                )
                .with_function("f", stmt::compute(70)),
        );
        let g = geometry();
        let mut warmer = classify_level(&cfg, &g, 4);
        for assoc in (0..4u32).rev() {
            let cold = classify_level(&cfg, &g, assoc);
            let warm = classify_level_from(&cfg, &g, &warmer, assoc);
            assert_eq!(warm, cold, "assoc {assoc} must be bit-identical");
            if assoc > 0 {
                warmer = warm;
            }
        }
    }

    #[test]
    fn warm_start_skipping_levels_matches_cold() {
        // Truncation is transitive: seeding level 1 directly from level 4
        // (not the adjacent level 2) is equally exact.
        let cfg =
            build(Program::new("skip").with_function("main", stmt::loop_(10, stmt::compute(90))));
        let g = geometry();
        let full = classify_level(&cfg, &g, 4);
        let direct = classify_level_from(&cfg, &g, &full, 1);
        assert_eq!(direct, classify_level(&cfg, &g, 1));
    }

    #[test]
    fn cross_geometry_warm_start_matches_narrow_cold_classification() {
        // The derivation step of the geometry sweep: the converged 4-way
        // states classify the 2-way and 1-way sibling geometries exactly.
        let cfg = build(
            Program::new("xgeo")
                .with_function(
                    "main",
                    stmt::loop_(12, stmt::seq([stmt::compute(80), stmt::call("f")])),
                )
                .with_function("f", stmt::if_else(stmt::compute(30), stmt::compute(14))),
        );
        let wide = CacheGeometry::new(16, 4, 16);
        let full = classify_level(&cfg, &wide, wide.ways());
        for ways in [3u32, 2, 1] {
            let narrow = CacheGeometry::new(16, ways, 16);
            let derived = classify_level_from(&cfg, &narrow, &full, ways);
            let cold = classify_level(&cfg, &narrow, ways);
            assert_eq!(derived, cold, "{ways}-way geometry must be derivable");
        }
    }

    #[test]
    #[should_panic(expected = "matching set counts")]
    fn cross_geometry_warm_start_rejects_set_count_mismatch() {
        let cfg = build(Program::new("sm").with_function("main", stmt::compute(12)));
        let full = classify_level(&cfg, &CacheGeometry::new(16, 4, 16), 4);
        let other_sets = CacheGeometry::new(8, 2, 16);
        let _ = classify_level_from(&cfg, &other_sets, &full, 2);
    }

    #[test]
    #[should_panic(expected = "matching block sizes")]
    fn cross_geometry_warm_start_rejects_block_size_mismatch() {
        let cfg = build(Program::new("bm").with_function("main", stmt::compute(12)));
        let full = classify_level(&cfg, &CacheGeometry::new(16, 4, 32), 4);
        let other_blocks = CacheGeometry::new(16, 2, 16);
        let _ = classify_level_from(&cfg, &other_blocks, &full, 2);
    }

    #[test]
    #[should_panic(expected = "strictly wider")]
    fn warm_start_cannot_widen() {
        let cfg = build(Program::new("n").with_function("main", stmt::compute(4)));
        let g = geometry();
        let narrow = classify_level(&cfg, &g, 2);
        let _ = classify_level_from(&cfg, &g, &narrow, 3);
    }

    #[test]
    fn srb_hits_are_intra_block_successors() {
        // Straight-line code: within a 16-byte block, fetches 2..4 follow
        // a fetch to the same block ⇒ SRB-always-hit; block leaders are
        // not.
        let cfg = build(Program::new("srb").with_function("main", stmt::compute(28)));
        let srb = classify_srb(&cfg, &geometry());
        assert_eq!(srb.total(), 32); // 8 blocks
        assert_eq!(srb.hit_count(), 24); // 3 of every 4 fetches
    }

    #[test]
    fn srb_join_requires_agreement_on_all_paths() {
        // A diamond whose sides end in different blocks: the first fetch
        // after the join cannot be SRB-classified as hit unless both
        // predecessors end in its block.
        let cfg = build(Program::new("dj").with_function(
            "main",
            stmt::seq([
                stmt::if_else(stmt::compute(3), stmt::compute(17)),
                stmt::compute(8),
            ]),
        ));
        let srb = classify_srb(&cfg, &geometry());
        // The node after the join: its first fetch follows either the
        // then-side `j` or the last else instruction — different blocks,
        // so no SRB hit.
        let join_node = cfg.preds()[cfg.exit()]
            .first()
            .copied()
            .unwrap_or(cfg.exit());
        let _ = join_node; // The precise node is layout-dependent;
                           // assert the aggregate instead:
        assert!(srb.hit_count() < srb.total());
        assert!(srb.hit_count() > 0);
    }

    #[test]
    fn srb_analysis_is_context_sensitive() {
        // f is called twice; its entry fetch follows different callers'
        // blocks, but *within* f the intra-block runs hit in both
        // contexts.
        let cfg = build(
            Program::new("ctx")
                .with_function("main", stmt::seq([stmt::call("f"), stmt::call("f")]))
                .with_function("f", stmt::compute(6)),
        );
        let srb = classify_srb(&cfg, &geometry());
        let f_nodes: Vec<_> = cfg.nodes().iter().filter(|n| n.function() == "f").collect();
        assert_eq!(f_nodes.len(), 2);
        // The two instances may disagree only on their *entry* fetch
        // (whose predecessor block depends on the caller); every interior
        // fetch has the same (intra-instance) predecessor in both
        // contexts, so interior classifications agree.
        let interior_hits: Vec<Vec<bool>> = f_nodes
            .iter()
            .map(|n| {
                (1..n.addrs().len())
                    .map(|i| srb.always_hit(n.id(), i))
                    .collect()
            })
            .collect();
        assert_eq!(interior_hits[0], interior_hits[1]);
    }
}
