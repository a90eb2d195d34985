//! Bit-packed abstract cache states and the word-parallel fixpoint
//! kernel.
//!
//! The set-based [`Acs`] domain stores each age slot as a
//! `BTreeSet<MemBlock>` and joins with nested per-block probes. For a
//! given program and geometry, though, the universe of memory blocks
//! mapping to each cache set is small and statically known — so
//! [`BlockInterner`] interns it into a dense index space and
//! [`PackedAcs`] represents each age slot as a `u64` bitset (one word
//! *lane* per 64 blocks, the `assoc` slots of a set stored
//! contiguously):
//!
//! ```text
//! words[(set * assoc + age) * lanes .. + lanes]   = blocks at that age
//! block bit = (dense / 64, dense % 64)            dense = interned index
//! ```
//!
//! On this layout the three domain operations lose their per-block
//! probing entirely:
//!
//! * `update` is a shift of the slot words below the renewal boundary
//!   (an OR-merge at the boundary slot) plus one bit clear/set;
//! * `join` is word-parallel AND/OR with age-max (Must) or age-min
//!   (May) resolved by prefix-OR over the slot words —
//!   `res[r] = (a[r] & b≤r) | (b[r] & a≤r)` for Must,
//!   `res[r] = (a[r] & !b<r) | (b[r] & !a<r)` for May;
//! * `truncate` drops trailing slot words per set.
//!
//! Every operation is **bit-identical** to the [`Acs`] oracle — pinned
//! by the unit tests below, the vendored-proptest suite in
//! `tests/packed_equivalence.rs`, and the pipeline-level differential
//! suite in `tests/incremental_equivalence.rs` (the same
//! oracle-plus-proptest pattern that de-risked the sparse simplex).
//!
//! [`analyze_packed`] / [`analyze_packed_seeded`] run the fixpoint with
//! a successor-driven worklist plus per-node *dirty-set* masks, so a
//! node whose inputs changed in only one cache set re-propagates only
//! that set's region; [`KernelStats`] counts the passes, the words
//! touched, and the sets skipped.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use pwcet_cache::{CacheGeometry, MemBlock};
use pwcet_cfg::{ExpandedCfg, NodeId};
use pwcet_obs::{Counter, Registry};

use crate::acs::{Acs, AnalysisKind};

/// The statically-known universe of memory blocks of a program under one
/// cache geometry, interned per set into a dense index space.
///
/// The interner is deterministic — per-set universes are sorted — so two
/// interners built from the same CFG and the same `(sets, block_bytes)`
/// are equal, and equal [`PackedAcs`] values have equal words. The lane
/// count is uniform across sets (sized by the largest universe) so every
/// per-set region has the same shape.
///
/// Associativity does not enter: interners are shared across levels and
/// across the cross-geometry warm starts of the reuse plane (which vary
/// only the way count).
#[derive(Debug, PartialEq, Eq)]
pub struct BlockInterner {
    sets: u32,
    block_bytes: u32,
    lanes: usize,
    /// Per set, the sorted universe of blocks mapping to it; a block's
    /// dense index is its rank here.
    universes: Vec<Vec<MemBlock>>,
}

impl BlockInterner {
    /// Interns every block referenced by `cfg` under `geometry`.
    pub fn build(cfg: &ExpandedCfg, geometry: &CacheGeometry) -> Self {
        Self::from_blocks(
            geometry,
            cfg.nodes()
                .iter()
                .flat_map(|node| node.addrs().iter().map(|&addr| geometry.block_of(addr))),
        )
    }

    /// Interns an explicit block universe (the test entry point; the
    /// pipeline uses [`build`](Self::build)).
    pub fn from_blocks(
        geometry: &CacheGeometry,
        blocks: impl IntoIterator<Item = MemBlock>,
    ) -> Self {
        let sets = geometry.sets();
        let mut universes = vec![BTreeSet::new(); sets as usize];
        for block in blocks {
            universes[(block.0 % sets) as usize].insert(block);
        }
        let universes: Vec<Vec<MemBlock>> = universes
            .into_iter()
            .map(|set| set.into_iter().collect())
            .collect();
        let widest = universes.iter().map(Vec::len).max().unwrap_or(0);
        Self {
            sets,
            block_bytes: geometry.block_bytes(),
            lanes: widest.div_ceil(64).max(1),
            universes,
        }
    }

    /// Number of cache sets.
    pub fn sets(&self) -> u32 {
        self.sets
    }

    /// The block size the interned block ids were computed with.
    pub fn block_bytes(&self) -> u32 {
        self.block_bytes
    }

    /// `u64` lanes per age slot (uniform across sets).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The sorted universe of one set.
    pub fn universe(&self, set: usize) -> &[MemBlock] {
        &self.universes[set]
    }

    /// Total interned blocks over all sets.
    pub fn len(&self) -> usize {
        self.universes.iter().map(Vec::len).sum()
    }

    /// `true` when no block is interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(set, dense index)` of a block, if interned.
    pub fn dense_of(&self, block: MemBlock) -> Option<(usize, usize)> {
        let set = (block.0 % self.sets) as usize;
        self.universes[set]
            .binary_search(&block)
            .ok()
            .map(|dense| (set, dense))
    }
}

/// A bit-packed abstract cache state over an interned block universe.
///
/// Semantically identical to [`Acs`] — same kinds, same update/join/
/// truncate results, same panics — but stored as slot bitsets, so the
/// domain operations are word-parallel. Convert with
/// [`from_acs`](Self::from_acs) / [`to_acs`](Self::to_acs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedAcs {
    kind: AnalysisKind,
    assoc: usize,
    interner: Arc<BlockInterner>,
    /// `words[(set * assoc + age) * lanes ..][..lanes]` = the blocks of
    /// `set` with that (max or min) age, as dense-index bits.
    words: Vec<u64>,
}

impl PackedAcs {
    /// The empty state (cold cache) at the given effective associativity.
    ///
    /// # Panics
    ///
    /// Panics if `assoc == 0`; zero-way analyses have no state.
    pub fn empty(interner: &Arc<BlockInterner>, assoc: u32, kind: AnalysisKind) -> Self {
        assert!(assoc > 0, "zero-way states are meaningless");
        let words = interner.sets() as usize * assoc as usize * interner.lanes();
        Self {
            kind,
            assoc: assoc as usize,
            interner: Arc::clone(interner),
            words: vec![0; words],
        }
    }

    /// The analysis kind of this state.
    pub fn kind(&self) -> AnalysisKind {
        self.kind
    }

    /// The effective associativity.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Number of cache sets the state covers.
    pub fn sets(&self) -> u32 {
        self.interner.sets()
    }

    /// The block size the tracked block ids were computed with.
    pub fn block_bytes(&self) -> u32 {
        self.interner.block_bytes()
    }

    /// The interner this state's dense indices refer to.
    pub fn interner(&self) -> &Arc<BlockInterner> {
        &self.interner
    }

    /// The raw slot words (layout in the type docs) — the persistence
    /// codec's serialization entry point; pair with
    /// [`from_words`](Self::from_words).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a state from raw slot words (the inverse of
    /// [`words`](Self::words)) — the deserialization entry point of the
    /// on-disk context store. The codec validates stray bits and
    /// duplicate ages before calling this.
    ///
    /// # Panics
    ///
    /// Panics when `assoc == 0` or the word vector does not have exactly
    /// `sets × assoc × lanes` entries.
    pub fn from_words(
        kind: AnalysisKind,
        assoc: u32,
        interner: &Arc<BlockInterner>,
        words: Vec<u64>,
    ) -> Self {
        assert!(assoc > 0, "zero-way states are meaningless");
        assert_eq!(
            words.len(),
            interner.sets() as usize * assoc as usize * interner.lanes(),
            "raw state must carry sets x assoc x lanes slot words"
        );
        Self {
            kind,
            assoc: assoc as usize,
            interner: Arc::clone(interner),
            words,
        }
    }

    fn lanes(&self) -> usize {
        self.interner.lanes()
    }

    /// Words per set region (`assoc × lanes`).
    fn region(&self) -> usize {
        self.assoc * self.lanes()
    }

    /// The abstract age of `block`, if present.
    pub fn age_of(&self, block: MemBlock) -> Option<usize> {
        let (set, dense) = self.interner.dense_of(block)?;
        let lanes = self.lanes();
        let base = set * self.region() + dense / 64;
        let bit = 1u64 << (dense % 64);
        (0..self.assoc).find(|&age| self.words[base + age * lanes] & bit != 0)
    }

    /// `true` if `block` is in the state.
    pub fn contains(&self, block: MemBlock) -> bool {
        self.age_of(block).is_some()
    }

    /// Applies one access to `block` — the same LRU update as
    /// [`Acs::update`], as a word shift with an OR-merge at the renewal
    /// boundary plus one bit clear/set.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not in the interned universe (the interner
    /// must be built from the same CFG the accesses come from).
    pub fn update(&mut self, block: MemBlock) {
        let (set, dense) = self
            .interner
            .dense_of(block)
            .expect("block not in the interned universe");
        let (assoc, lanes, region) = (self.assoc, self.lanes(), self.region());
        let base = set * region;
        update_region(
            &mut self.words[base..base + region],
            assoc,
            lanes,
            self.kind,
            dense,
        );
    }

    /// Joins another state into this one at a control-flow merge —
    /// identical to [`Acs::join`], resolved word-parallel by prefix-OR.
    ///
    /// # Panics
    ///
    /// Panics if the states have different shapes, kinds, or interners.
    pub fn join(&mut self, other: &PackedAcs) {
        let _ = self.join_in_place(other);
    }

    /// [`join`](Self::join) that also reports whether `self` changed —
    /// the worklist kernels propagate only on `true`.
    ///
    /// # Panics
    ///
    /// As [`join`](Self::join).
    pub fn join_in_place(&mut self, other: &PackedAcs) -> bool {
        assert_eq!(self.kind, other.kind, "cannot join across kinds");
        assert_eq!(self.assoc, other.assoc, "associativity mismatch");
        assert_eq!(self.sets(), other.sets(), "set-count mismatch");
        assert_eq!(
            self.block_bytes(),
            other.block_bytes(),
            "block-size mismatch"
        );
        assert!(
            Arc::ptr_eq(&self.interner, &other.interner) || self.interner == other.interner,
            "cannot join across interners"
        );
        let (assoc, lanes, region) = (self.assoc, self.lanes(), self.region());
        let mut changed = false;
        for set in 0..self.sets() as usize {
            let base = set * region;
            changed |= join_region_in_place(
                &mut self.words[base..base + region],
                &other.words[base..base + region],
                self.kind,
                assoc,
                lanes,
            );
        }
        changed
    }

    /// Projects this state onto a smaller effective associativity by
    /// dropping each set's trailing slot words — the same exact
    /// homomorphism as [`Acs::truncate`], so warm starts stay
    /// bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is zero or exceeds this state's associativity.
    #[must_use]
    pub fn truncate(&self, assoc: u32) -> PackedAcs {
        assert!(assoc > 0, "zero-way states are meaningless");
        let narrow = assoc as usize;
        assert!(
            narrow <= self.assoc,
            "cannot truncate to a larger associativity"
        );
        let lanes = self.lanes();
        let (wide_region, narrow_region) = (self.region(), narrow * lanes);
        let mut words = Vec::with_capacity(self.sets() as usize * narrow_region);
        for set in 0..self.sets() as usize {
            let base = set * wide_region;
            words.extend_from_slice(&self.words[base..base + narrow_region]);
        }
        Self {
            kind: self.kind,
            assoc: narrow,
            interner: Arc::clone(&self.interner),
            words,
        }
    }

    /// Converts a set-based state into the packed representation.
    ///
    /// # Panics
    ///
    /// Panics when the geometry of `acs` does not match the interner or
    /// a tracked block is outside the interned universe.
    pub fn from_acs(acs: &Acs, interner: &Arc<BlockInterner>) -> Self {
        assert_eq!(acs.sets(), interner.sets(), "set-count mismatch");
        assert_eq!(
            acs.block_bytes(),
            interner.block_bytes(),
            "block-size mismatch"
        );
        let mut packed = Self::empty(interner, acs.assoc() as u32, acs.kind());
        let (lanes, region) = (packed.lanes(), packed.region());
        for (slot, blocks) in acs.age_slots().iter().enumerate() {
            let (set, age) = (slot / acs.assoc(), slot % acs.assoc());
            for &block in blocks {
                let (dense_set, dense) = interner
                    .dense_of(block)
                    .expect("block not in the interned universe");
                debug_assert_eq!(dense_set, set);
                packed.words[set * region + age * lanes + dense / 64] |= 1u64 << (dense % 64);
            }
        }
        packed
    }

    /// Converts back into the set-based representation.
    pub fn to_acs(&self) -> Acs {
        let (lanes, region) = (self.lanes(), self.region());
        let mut ages = vec![BTreeSet::new(); self.sets() as usize * self.assoc];
        for set in 0..self.sets() as usize {
            let universe = self.interner.universe(set);
            for age in 0..self.assoc {
                let slot = &self.words[set * region + age * lanes..][..lanes];
                for (lane, &word) in slot.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let dense = lane * 64 + bits.trailing_zeros() as usize;
                        ages[set * self.assoc + age].insert(universe[dense]);
                        bits &= bits - 1;
                    }
                }
            }
        }
        Acs::from_raw(
            self.kind,
            self.sets(),
            self.block_bytes(),
            self.assoc as u32,
            ages,
        )
    }

    /// Total number of blocks tracked (over all sets and ages).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when no block is tracked.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// [`Acs::update`] over one set's slot words. `region` is
/// `assoc × lanes` words; `dense` the accessed block's dense index.
fn update_region(region: &mut [u64], assoc: usize, lanes: usize, kind: AnalysisKind, dense: usize) {
    let lane = dense / 64;
    let bit = 1u64 << (dense % 64);
    let hit_age = (0..assoc).find(|&age| region[age * lanes + lane] & bit != 0);
    let boundary = match (kind, hit_age) {
        (_, None) => assoc,
        (AnalysisKind::Must, Some(k)) => k,
        (AnalysisKind::May, Some(k)) => k + 1,
    };
    // Ages [0, boundary) shift to [1, boundary]; ages above stay. The
    // boundary slot (the accessed block's old position) merges what it
    // held with the shifted-in younger slot, exactly as the oracle.
    for age in (1..assoc).rev() {
        if age <= boundary {
            let (from, to) = ((age - 1) * lanes, age * lanes);
            if age == boundary {
                for l in 0..lanes {
                    region[to + l] |= region[from + l];
                }
            } else {
                region.copy_within(from..from + lanes, to);
            }
        }
    }
    for age in 1..assoc {
        region[age * lanes + lane] &= !bit;
    }
    region[..lanes].fill(0);
    region[lane] = bit;
}

/// [`Acs::join`] over one set's slot words; returns whether `dst`
/// changed.
///
/// Must resolves age-max by *inclusive* prefix-OR
/// (`res[r] = (a[r] & b≤r) | (b[r] & a≤r)`), May age-min by *strict*
/// prefix-OR (`res[r] = (a[r] & !b<r) | (b[r] & !a<r)`, one-sided
/// blocks kept at their own age).
fn join_region_in_place(
    dst: &mut [u64],
    src: &[u64],
    kind: AnalysisKind,
    assoc: usize,
    lanes: usize,
) -> bool {
    let mut changed = false;
    match kind {
        AnalysisKind::Must => {
            // a_le / b_le accumulate ages ≤ r, including r itself.
            let mut prefixes = vec![0u64; 2 * lanes];
            let (a_le, b_le) = prefixes.split_at_mut(lanes);
            for r in 0..assoc {
                for l in 0..lanes {
                    let (av, bv) = (dst[r * lanes + l], src[r * lanes + l]);
                    a_le[l] |= av;
                    b_le[l] |= bv;
                    let res = (av & b_le[l]) | (bv & a_le[l]);
                    changed |= res != av;
                    dst[r * lanes + l] = res;
                }
            }
        }
        AnalysisKind::May => {
            // a_lt / b_lt accumulate ages strictly below r.
            let mut prefixes = vec![0u64; 2 * lanes];
            let (a_lt, b_lt) = prefixes.split_at_mut(lanes);
            for r in 0..assoc {
                for l in 0..lanes {
                    let (av, bv) = (dst[r * lanes + l], src[r * lanes + l]);
                    let res = (av & !b_lt[l]) | (bv & !a_lt[l]);
                    a_lt[l] |= av;
                    b_lt[l] |= bv;
                    changed |= res != av;
                    dst[r * lanes + l] = res;
                }
            }
        }
    }
    changed
}

// ---------------------------------------------------------------------------
// Kernel counters
// ---------------------------------------------------------------------------

/// Counters describing how a packed fixpoint (or a batch of them)
/// behaved.
///
/// Recorded by [`analyze_packed`] / [`analyze_packed_seeded`] into a
/// [`KernelStatsCell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// Worklist pops — node re-evaluations across all fixpoints.
    pub passes: u64,
    /// `u64` slot words read or written by region transfers and joins.
    pub words_touched: u64,
    /// Per-pass cache sets skipped because their dirty bit was clear.
    pub sets_skipped: u64,
}

impl KernelStats {
    /// The counters accumulated since `earlier` (a previous snapshot of
    /// the same cell; saturating, so a stale snapshot cannot underflow).
    #[must_use]
    pub fn delta_since(&self, earlier: &KernelStats) -> KernelStats {
        KernelStats {
            passes: self.passes.saturating_sub(earlier.passes),
            words_touched: self.words_touched.saturating_sub(earlier.words_touched),
            sets_skipped: self.sets_skipped.saturating_sub(earlier.sets_skipped),
        }
    }
}

/// Thread-safe accumulator of [`KernelStats`] (plain relaxed counters —
/// classification workers record concurrently, readers snapshot). A
/// [`registered`](Self::registered) cell counts straight into a metrics
/// registry's rows.
#[derive(Debug, Default)]
pub struct KernelStatsCell {
    passes: Arc<Counter>,
    words_touched: Arc<Counter>,
    sets_skipped: Arc<Counter>,
}

impl KernelStatsCell {
    /// A cell whose counters are `metrics`' `classify_*` rows, one per
    /// [`KernelStats`] field.
    pub fn registered(metrics: &Registry) -> Self {
        Self {
            passes: metrics.register_counter("classify_passes"),
            words_touched: metrics.register_counter("classify_words_touched"),
            sets_skipped: metrics.register_counter("classify_sets_skipped"),
        }
    }

    /// Adds one fixpoint's counters.
    pub fn record(&self, stats: &KernelStats) {
        self.passes.add(stats.passes);
        self.words_touched.add(stats.words_touched);
        self.sets_skipped.add(stats.sets_skipped);
    }

    /// The accumulated totals.
    pub fn snapshot(&self) -> KernelStats {
        KernelStats {
            passes: self.passes.get(),
            words_touched: self.words_touched.get(),
            sets_skipped: self.sets_skipped.get(),
        }
    }
}

// ---------------------------------------------------------------------------
// Worklist fixpoint
// ---------------------------------------------------------------------------

/// A node's accesses, pre-resolved to interned `(set, dense)` indices.
struct NodeAccesses {
    /// All accesses in program order (for full-state transfers).
    flat: Vec<(u32, u32)>,
    /// The same accesses grouped by set, order preserved within each
    /// (updates to different sets commute, so per-set replay is exact).
    by_set: Vec<(usize, Vec<u32>)>,
}

fn resolve_accesses(
    cfg: &ExpandedCfg,
    geometry: &CacheGeometry,
    interner: &BlockInterner,
) -> Vec<NodeAccesses> {
    cfg.nodes()
        .iter()
        .map(|node| {
            let flat: Vec<(u32, u32)> = node
                .addrs()
                .iter()
                .map(|&addr| {
                    let (set, dense) = interner
                        .dense_of(geometry.block_of(addr))
                        .expect("block not in the interned universe");
                    (set as u32, dense as u32)
                })
                .collect();
            let mut by_set: Vec<(usize, Vec<u32>)> = Vec::new();
            for &(set, dense) in &flat {
                match by_set.iter_mut().find(|(s, _)| *s == set as usize) {
                    Some((_, seq)) => seq.push(dense),
                    None => by_set.push((set as usize, vec![dense])),
                }
            }
            NodeAccesses { flat, by_set }
        })
        .collect()
}

/// Iterates the set indices of a multi-word dirty mask.
fn for_each_set_bit(mask: &[u64], mut f: impl FnMut(usize)) {
    for (word_idx, &word) in mask.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(word_idx * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Runs the packed Must or May fixpoint cold: only the entry node holds
/// a state (the cold cache), every other node's entry state materializes
/// when first reached. Returns per-node entry states (`None` =
/// unreachable), bit-identical to [`crate::fixpoint::analyze`] converted
/// through the interner.
pub fn analyze_packed(
    cfg: &ExpandedCfg,
    geometry: &CacheGeometry,
    assoc: u32,
    kind: AnalysisKind,
    interner: &Arc<BlockInterner>,
    stats: Option<&KernelStatsCell>,
) -> Vec<Option<PackedAcs>> {
    let mut entry_states: Vec<Option<PackedAcs>> = vec![None; cfg.nodes().len()];
    entry_states[cfg.entry()] = Some(PackedAcs::empty(interner, assoc, kind));
    solve_packed(cfg, geometry, kind, interner, entry_states, stats)
}

/// Runs the packed fixpoint from a seed covering every node (a truncated
/// wider-level solution) — bit-identical to
/// [`crate::fixpoint::analyze_seeded`] converted through the interner.
///
/// # Panics
///
/// Panics when the seed does not cover every node.
pub fn analyze_packed_seeded(
    cfg: &ExpandedCfg,
    geometry: &CacheGeometry,
    seed: Vec<Option<PackedAcs>>,
    stats: Option<&KernelStatsCell>,
) -> Vec<Option<PackedAcs>> {
    assert_eq!(
        seed.len(),
        cfg.nodes().len(),
        "seed must cover every node of the graph"
    );
    let entry = seed[cfg.entry()]
        .as_ref()
        .expect("seed must include the entry node");
    let (kind, interner) = (entry.kind(), Arc::clone(entry.interner()));
    solve_packed(cfg, geometry, kind, &interner, seed, stats)
}

/// The worklist engine shared by the cold and seeded entry points.
///
/// Every node carries a *dirty-set* mask. A node's **first** pop always
/// runs with the mask fully set (cold: the entry is seeded all-ones and
/// every materialized successor inherits all-ones; seeded: every node
/// starts all-ones), so every edge propagates every set at least once;
/// after that, a pop re-propagates only the sets whose entry region an
/// incoming join actually changed — stable sets are skipped entirely.
/// Chaotic iteration over the per-set product lattice converges to the
/// unique least fixpoint above the seed, so the worklist order cannot
/// change the result.
fn solve_packed(
    cfg: &ExpandedCfg,
    geometry: &CacheGeometry,
    kind: AnalysisKind,
    interner: &Arc<BlockInterner>,
    mut entry_states: Vec<Option<PackedAcs>>,
    stats: Option<&KernelStatsCell>,
) -> Vec<Option<PackedAcs>> {
    assert_eq!(geometry.sets(), interner.sets(), "set-count mismatch");
    assert_eq!(
        geometry.block_bytes(),
        interner.block_bytes(),
        "block-size mismatch"
    );
    let nodes = cfg.nodes().len();
    let sets = interner.sets() as usize;
    let lanes = interner.lanes();
    let assoc = entry_states[cfg.entry()]
        .as_ref()
        .expect("solver needs a state at the entry node")
        .assoc();
    let region = assoc * lanes;
    let set_words = sets.div_ceil(64);
    let full_mask: Vec<u64> = (0..set_words)
        .map(|w| {
            let bits = (sets - w * 64).min(64);
            if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            }
        })
        .collect();

    let accesses = resolve_accesses(cfg, geometry, interner);
    let mut dirty = vec![0u64; nodes * set_words];
    let mut in_queue = vec![false; nodes];
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    for &node in &cfg.reverse_postorder() {
        if entry_states[node].is_some() {
            dirty[node * set_words..(node + 1) * set_words].copy_from_slice(&full_mask);
            in_queue[node] = true;
            queue.push_back(node);
        }
    }

    let mut counters = KernelStats::default();
    let mut prop = vec![0u64; set_words];
    let mut scratch = vec![0u64; region];
    while let Some(node) = queue.pop_front() {
        in_queue[node] = false;
        let dirty_slot = &mut dirty[node * set_words..(node + 1) * set_words];
        prop.copy_from_slice(dirty_slot);
        dirty_slot.fill(0);
        counters.passes += 1;
        let live: u64 = prop.iter().map(|w| u64::from(w.count_ones())).sum();
        counters.sets_skipped += sets as u64 - live;
        let succs = &cfg.succs()[node];
        if succs.is_empty() {
            continue;
        }

        // Materialize the outgoing regions as owned buffers so the
        // borrow of this node's state ends before successors mutate.
        let acc = &accesses[node];
        let (outs, full_out) = {
            let state = entry_states[node]
                .as_ref()
                .expect("worklist nodes always hold a state");
            let mut outs: Vec<(usize, Vec<u64>)> = Vec::with_capacity(live as usize);
            for_each_set_bit(&prop, |set| {
                let src = &state.words[set * region..(set + 1) * region];
                match acc.by_set.iter().find(|(s, _)| *s == set) {
                    Some((_, seq)) => {
                        scratch.copy_from_slice(src);
                        for &dense in seq {
                            update_region(&mut scratch, assoc, lanes, kind, dense as usize);
                        }
                        counters.words_touched += (region * seq.len()) as u64;
                        outs.push((set, scratch.clone()));
                    }
                    None => outs.push((set, src.to_vec())),
                }
            });
            // A not-yet-reached successor needs the full transfer, all
            // sets — the only per-pop whole-state clone, paid once per
            // materialization.
            let full_out = succs.iter().any(|&s| entry_states[s].is_none()).then(|| {
                let mut out = state.clone();
                for &(set, dense) in &acc.flat {
                    let base = set as usize * region;
                    update_region(
                        &mut out.words[base..base + region],
                        assoc,
                        lanes,
                        kind,
                        dense as usize,
                    );
                }
                counters.words_touched += (region * acc.flat.len()) as u64;
                out
            });
            (outs, full_out)
        };

        for &succ in succs {
            match &mut entry_states[succ] {
                slot @ None => {
                    *slot = Some(full_out.clone().expect("full transfer was materialized"));
                    dirty[succ * set_words..(succ + 1) * set_words].copy_from_slice(&full_mask);
                    if !in_queue[succ] {
                        in_queue[succ] = true;
                        queue.push_back(succ);
                    }
                }
                Some(existing) => {
                    let mut touched = false;
                    for (set, out) in &outs {
                        let base = set * region;
                        let changed = join_region_in_place(
                            &mut existing.words[base..base + region],
                            out,
                            kind,
                            assoc,
                            lanes,
                        );
                        counters.words_touched += region as u64;
                        if changed {
                            dirty[succ * set_words + set / 64] |= 1u64 << (set % 64);
                            touched = true;
                        }
                    }
                    if touched && !in_queue[succ] {
                        in_queue[succ] = true;
                        queue.push_back(succ);
                    }
                }
            }
        }
    }

    if let Some(cell) = stats {
        cell.record(&counters);
    }
    entry_states
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixpoint;

    fn geometry() -> CacheGeometry {
        CacheGeometry::paper_default()
    }

    /// Blocks 0, 16, 32, 48 … all map to set 0 in the 16-set geometry.
    fn b(i: u32) -> MemBlock {
        MemBlock(i * 16)
    }

    fn interner(upto: u32) -> Arc<BlockInterner> {
        Arc::new(BlockInterner::from_blocks(&geometry(), (0..upto).map(b)))
    }

    #[test]
    fn must_update_tracks_max_age() {
        let interner = interner(8);
        let mut acs = PackedAcs::empty(&interner, 4, AnalysisKind::Must);
        for i in 0..4 {
            acs.update(b(i));
        }
        for i in 0..4 {
            assert_eq!(acs.age_of(b(i)), Some(3 - i as usize));
        }
        acs.update(b(4));
        assert!(!acs.contains(b(0)));
        assert_eq!(acs.age_of(b(4)), Some(0));
    }

    #[test]
    fn must_hit_renews_and_ages_younger_only() {
        let interner = interner(8);
        let mut acs = PackedAcs::empty(&interner, 4, AnalysisKind::Must);
        for i in 0..4 {
            acs.update(b(i));
        }
        acs.update(b(2));
        assert_eq!(acs.age_of(b(2)), Some(0));
        assert_eq!(acs.age_of(b(3)), Some(1));
        assert_eq!(acs.age_of(b(1)), Some(2));
        assert_eq!(acs.age_of(b(0)), Some(3));
    }

    #[test]
    fn joins_match_the_oracle() {
        let interner = interner(8);
        for kind in [AnalysisKind::Must, AnalysisKind::May] {
            let mut a = PackedAcs::empty(&interner, 4, kind);
            let mut c = PackedAcs::empty(&interner, 4, kind);
            a.update(b(1));
            a.update(b(2));
            c.update(b(2));
            c.update(b(3));
            let mut oracle_a = a.to_acs();
            let oracle_c = c.to_acs();
            a.join(&c);
            oracle_a.join(&oracle_c);
            assert_eq!(a.to_acs(), oracle_a, "{kind:?}");
            assert_eq!(PackedAcs::from_acs(&oracle_a, &interner), a, "{kind:?}");
        }
    }

    #[test]
    fn join_in_place_reports_change() {
        let interner = interner(4);
        let mut a = PackedAcs::empty(&interner, 4, AnalysisKind::May);
        let mut c = PackedAcs::empty(&interner, 4, AnalysisKind::May);
        c.update(b(1));
        assert!(a.join_in_place(&c));
        assert!(
            !a.join_in_place(&c),
            "idempotent join must report no change"
        );
    }

    #[test]
    fn random_operation_sequences_match_the_oracle() {
        // Deterministic pseudo-random mixes of update/join/truncate over
        // a universe wide enough to exercise a second lane (set 0 holds
        // 80 blocks), against the Acs oracle at every step.
        let wide = Arc::new(BlockInterner::from_blocks(&geometry(), (0..80).map(b)));
        assert_eq!(wide.lanes(), 2, "universe must span two lanes");
        let mut rng = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for kind in [AnalysisKind::Must, AnalysisKind::May] {
            let mut packed = PackedAcs::empty(&wide, 8, kind);
            let mut oracle = Acs::empty(&geometry(), 8, kind);
            let mut other = PackedAcs::empty(&wide, 8, kind);
            let mut other_oracle = Acs::empty(&geometry(), 8, kind);
            for _ in 0..400 {
                match next() % 4 {
                    0 | 1 => {
                        let block = b((next() % 80) as u32);
                        packed.update(block);
                        oracle.update(block);
                    }
                    2 => {
                        let block = b((next() % 80) as u32);
                        other.update(block);
                        other_oracle.update(block);
                    }
                    _ => {
                        packed.join(&other);
                        oracle.join(&other_oracle);
                    }
                }
                assert_eq!(packed.to_acs(), oracle, "{kind:?}");
                let narrow = 1 + (next() % 8) as u32;
                assert_eq!(
                    packed.truncate(narrow).to_acs(),
                    oracle.truncate(narrow),
                    "{kind:?} truncate {narrow}"
                );
            }
        }
    }

    #[test]
    fn conversion_round_trips() {
        let interner = interner(8);
        let mut packed = PackedAcs::empty(&interner, 4, AnalysisKind::Must);
        for i in [0, 3, 1, 5, 3] {
            packed.update(b(i));
        }
        let acs = packed.to_acs();
        assert_eq!(PackedAcs::from_acs(&acs, &interner), packed);
        assert_eq!(acs.len(), packed.len());
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn zero_assoc_panics() {
        let _ = PackedAcs::empty(&interner(4), 0, AnalysisKind::Must);
    }

    #[test]
    #[should_panic(expected = "larger associativity")]
    fn truncate_cannot_widen() {
        let acs = PackedAcs::empty(&interner(4), 2, AnalysisKind::Must);
        let _ = acs.truncate(3);
    }

    #[test]
    #[should_panic(expected = "not in the interned universe")]
    fn unknown_block_panics() {
        let mut acs = PackedAcs::empty(&interner(4), 2, AnalysisKind::Must);
        acs.update(b(99));
    }

    // -- kernel equivalence -------------------------------------------------

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

    fn looped() -> ExpandedCfg {
        build(
            Program::new("packed-kernel")
                .with_function(
                    "main",
                    stmt::seq([
                        stmt::compute(24),
                        stmt::loop_(40, stmt::if_else(stmt::compute(12), stmt::call("leaf"))),
                        stmt::compute(8),
                    ]),
                )
                .with_function("leaf", stmt::compute(16)),
        )
    }

    fn assert_states_match(
        cfg: &ExpandedCfg,
        packed: &[Option<PackedAcs>],
        reference: &[Option<Acs>],
    ) {
        assert_eq!(packed.len(), reference.len());
        for node in 0..packed.len() {
            match (&packed[node], &reference[node]) {
                (None, None) => {}
                (Some(p), Some(r)) => {
                    assert_eq!(&p.to_acs(), r, "node {node} of {}", cfg.nodes().len())
                }
                _ => panic!("node {node}: reachability differs"),
            }
        }
    }

    #[test]
    fn cold_fixpoint_matches_the_reference_solver() {
        let cfg = looped();
        let g = geometry();
        let interner = Arc::new(BlockInterner::build(&cfg, &g));
        for kind in [AnalysisKind::Must, AnalysisKind::May] {
            for assoc in 1..=4 {
                let stats = KernelStatsCell::default();
                let packed = analyze_packed(&cfg, &g, assoc, kind, &interner, Some(&stats));
                let reference = fixpoint::analyze(&cfg, &g, assoc, kind);
                assert_states_match(&cfg, &packed, &reference);
                let snapshot = stats.snapshot();
                assert!(snapshot.passes > 0, "kernel must record passes");
                assert!(snapshot.words_touched > 0);
            }
        }
    }

    #[test]
    fn seeded_fixpoint_matches_the_reference_solver() {
        let cfg = looped();
        let g = geometry();
        let interner = Arc::new(BlockInterner::build(&cfg, &g));
        for kind in [AnalysisKind::Must, AnalysisKind::May] {
            let wide = analyze_packed(&cfg, &g, 4, kind, &interner, None);
            let seed: Vec<Option<PackedAcs>> = wide
                .iter()
                .map(|s| s.as_ref().map(|s| s.truncate(2)))
                .collect();
            let warm = analyze_packed_seeded(&cfg, &g, seed, None);
            let reference = fixpoint::analyze(&cfg, &g, 2, kind);
            assert_states_match(&cfg, &warm, &reference);
        }
    }

    #[test]
    fn dirty_tracking_skips_stable_sets() {
        let cfg = looped();
        let g = geometry();
        let interner = Arc::new(BlockInterner::build(&cfg, &g));
        let stats = KernelStatsCell::default();
        let _ = analyze_packed(&cfg, &g, 4, AnalysisKind::Must, &interner, Some(&stats));
        assert!(
            stats.snapshot().sets_skipped > 0,
            "loop convergence must leave stable sets unpropagated"
        );
    }

    #[test]
    #[should_panic(expected = "cover every node")]
    fn seeded_requires_full_coverage() {
        let cfg = looped();
        let g = geometry();
        let _ = analyze_packed_seeded(&cfg, &g, Vec::new(), None);
    }
}
