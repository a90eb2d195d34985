//! The shared, reusable analysis context of one compiled program.
//!
//! Every stage of the pipeline consumes the same three artifacts: the
//! expanded control-flow graph, the CHMC classification at some effective
//! associativity, and the SRB hit map. The seed pipeline recomputed the
//! classification from scratch for every reduced associativity on every
//! call; [`AnalysisContext`] builds the CFG once and memoizes each
//! classification level behind a [`OnceLock`], so concurrent fan-out
//! stages (and repeated analyses of the same program) share one immutable
//! copy.
//!
//! Under [`ClassificationMode::Incremental`] (the default) only the
//! full-associativity level runs a cold fixpoint: every lower level is
//! **warm-started** from the age-truncated converged states of the
//! nearest already-computed higher level, which is exact for this
//! abstract domain (see [`pwcet_analysis::Acs::truncate`]) and turns the
//! `W + 1` cold fixpoints of a full classification into one cold run plus
//! `W` single-pass verifications. [`ClassificationMode::Cold`] keeps the
//! independent cold fixpoints as the reference mode the differential
//! suite compares against.
//!
//! The context is `Send + Sync`: worker threads of the per-`(set, fault)`
//! ILP fan-out borrow it freely.
//!
//! A context restored from a disk or peer entry starts with its solve
//! memo only. It keeps the program's expander inputs and the entry's
//! classification tail as raw, checksum-verified bytes, and expands the
//! CFG and decodes the tail on first use: a new cache timing, a
//! derivation, a template request. A solved request never pays either.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use pwcet_analysis::{
    classify_level_from_with, classify_level_with, classify_srb_with, Chmc, ChmcMap,
    ClassificationMode, ClassifiedLevel, KernelStats, KernelStatsCell, Scope, SrbMap,
};
use pwcet_cache::{CacheGeometry, CacheTiming};
use pwcet_cfg::{CfgError, ExpandedCfg, NodeId};
use pwcet_ilp::SolveStats;
use pwcet_ipet::{BasisSnapshot, IpetTemplate, TemplateRegistry};
use pwcet_par::{par_for_each_index, par_join, Admission, Memo, Parallelism};
use pwcet_prob::{DiscreteDistribution, FaultModel};
use pwcet_progen::CompiledProgram;

use crate::codec::{
    decode_tail, encode_context, encode_tail, expander_fingerprint, CodecError, Fnv1a, Presence,
    RawTail, SolvedEntries,
};
use crate::error::CoreError;
use crate::estimate::Protection;
use crate::pipeline::{expand_compiled, ExpanderInputs, SolveArtifacts};
use crate::reuse_plane::LateCorruption;

/// Per-set reference buckets: `index[s]` lists the `(node, reference
/// index)` pairs whose address maps to cache set `s`, in graph order
/// (see [`AnalysisContext::set_refs`]).
pub type SetRefIndex = Vec<Vec<(NodeId, usize)>>;

/// Retention cap on one solve entry's penalty memo, counting first-seen
/// markers and stored distributions alike: sixteen fault models under
/// each of the three protections. Repeat traffic touches a few; the cap
/// bounds what a long-lived context keeps when a client sweeps many
/// distinct `pfail` values over it.
const PENALTY_MEMO_CAP: usize = 48;

/// What a penalty distribution depends on beyond its solve entry, which
/// already fixes the geometry, the timing and the fault miss map: the
/// fault model's `pfail` (by bit pattern) and the protection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PenaltyKey {
    pfail: u64,
    protection: Protection,
}

impl PenaltyKey {
    pub(crate) fn new(fault_model: &FaultModel, protection: Protection) -> Self {
        Self {
            pfail: fault_model.pfail().to_bits(),
            protection,
        }
    }
}

/// One memoized solve: the artifacts the disk tier persists and, beside
/// them, the fault-penalty distributions derived from them, in memory
/// only: the disk tier never sees these.
///
/// A penalty key's first computation leaves only a marker; its second
/// stores the distribution. One-shot traffic (a sweep whose every point
/// is new, a restarted server answering each key once) therefore retains
/// nothing, while a repeated request pays the convolution twice and then
/// never again.
#[derive(Debug)]
pub(crate) struct Solved {
    pub(crate) artifacts: SolveArtifacts,
    pub(crate) penalties: Memo<PenaltyKey, Arc<DiscreteDistribution>>,
}

impl Solved {
    fn new(artifacts: SolveArtifacts) -> Self {
        Self {
            artifacts,
            penalties: Memo::new(PENALTY_MEMO_CAP, Admission::SecondSighting),
        }
    }
}

/// A restored entry's classification tail, still undecoded, and where
/// to report it if it fails its decode.
#[derive(Debug)]
struct PendingTail {
    raw: RawTail,
    sink: LateCorruption,
}

/// Immutable per-program analysis state, shared by all pipeline stages.
///
/// # Example
///
/// ```
/// use pwcet_cache::CacheGeometry;
/// use pwcet_core::AnalysisContext;
/// use pwcet_progen::{stmt, Program};
///
/// # fn main() -> Result<(), pwcet_core::CoreError> {
/// let compiled = Program::new("demo")
///     .with_function("main", stmt::loop_(10, stmt::compute(8)))
///     .compile(0x0040_0000)?;
/// let context = AnalysisContext::build(&compiled, CacheGeometry::paper_default())?;
/// // Classification levels are memoized: repeated queries are free.
/// let full = context.chmc(context.geometry().ways());
/// assert_eq!(full.len(), context.chmc(context.geometry().ways()).len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AnalysisContext {
    name: String,
    /// Shared: derived sibling contexts of a geometry lattice reuse one
    /// expanded graph instead of cloning it per associativity. Set at
    /// construction, except in a restored context, which expands it from
    /// [`source`](Self::source) on first use.
    cfg: OnceLock<Arc<ExpandedCfg>>,
    /// What a restored context's graph expands from.
    source: Option<ExpanderInputs>,
    /// The expander fingerprint its disk entries carry (see
    /// [`expander_fingerprint`]): set by builds from a compiled program
    /// and by the reuse plane. A context without one is never persisted.
    fingerprint: OnceLock<u64>,
    /// A restored entry's classification tail, decoded into `full`,
    /// `levels`, `srb` and `pending_basis` before anything reads or
    /// fills them.
    tail: Mutex<Option<PendingTail>>,
    /// Whether `tail` may still hold a tail: the lock-free fast path of
    /// every level read.
    tail_pending: AtomicBool,
    geometry: CacheGeometry,
    mode: ClassificationMode,
    /// `levels[a]` holds the classification at effective associativity
    /// `a`. Only the map is retained per level; the converged Must/May
    /// states live in [`full`](Self::full) alone.
    levels: Vec<OnceLock<ChmcMap>>,
    /// The full-associativity level with its converged Must/May states —
    /// the one warm-start source (truncation is transitive, so seeding
    /// any lower level directly from `W` is as exact as chaining through
    /// adjacent levels). Keeping states for this single level bounds the
    /// context's memory at one fixpoint's worth instead of `W + 1`.
    /// Incremental mode only; cold mode uses `levels[W]`.
    full: OnceLock<ClassifiedLevel>,
    srb: OnceLock<SrbMap>,
    /// Solve-stage products per cache timing — the only configuration
    /// the fault-free WCET, the FMM and the SRB columns depend on beyond
    /// the context itself — each with its penalty memo. A plain linear
    /// scan: real workloads touch one or two timings per context.
    solved: Mutex<Vec<(CacheTiming, Arc<Solved>)>>,
    /// The registry-obtained IPET template — the shared constraint
    /// matrix every `(set, fault)` delta ILP, SRB column ILP, and
    /// fault-free WCET solve of this program reuses (timing only changes
    /// objectives). The template lives in (and is deduplicated by) the
    /// attached [`TemplateRegistry`], so sibling geometries of one CFG
    /// memoize the *same* `Arc`; holding it here is also what keeps it
    /// registered.
    template: OnceLock<Arc<IpetTemplate>>,
    /// The cross-geometry template registry, attached set-once by the
    /// reuse plane (a plane-less context lazily creates a private one).
    registry: OnceLock<Arc<TemplateRegistry>>,
    /// A serialized factored basis restored from a disk/network entry,
    /// waiting for the first [`ipet_template`](Self::ipet_template)
    /// request to seed the template's workspace pool.
    pending_basis: Mutex<Option<BasisSnapshot>>,
    /// Structural fingerprint of `cfg` — the registry key — computed
    /// once on first template request (or inherited by derivation).
    cfg_fp: OnceLock<u64>,
    /// Per-set reference index: for each cache set, the `(node,
    /// reference index)` pairs mapping to it, in graph order. Depends
    /// only on the graph, the set count, and the block size — all shared
    /// across a geometry lattice — so derivation hands the `Arc` to
    /// siblings instead of rebuilding.
    set_refs: OnceLock<Arc<SetRefIndex>>,
    /// Cumulative classification-kernel counters (worklist passes, slot
    /// words touched, dirty-skipped sets) of every fixpoint run over this
    /// context.
    kernel_stats: KernelStatsCell,
}

impl AnalysisContext {
    /// Reconstructs the expanded CFG of `compiled` and wraps it in a fresh
    /// context for `geometry` (no classification is run yet), using the
    /// default incremental classification mode.
    ///
    /// # Errors
    ///
    /// Propagates [`CfgError`] from CFG reconstruction.
    pub fn build(compiled: &CompiledProgram, geometry: CacheGeometry) -> Result<Self, CfgError> {
        Self::build_with_mode(compiled, geometry, ClassificationMode::default())
    }

    /// As [`build`](Self::build) with an explicit classification mode.
    ///
    /// # Errors
    ///
    /// Propagates [`CfgError`] from CFG reconstruction.
    pub fn build_with_mode(
        compiled: &CompiledProgram,
        geometry: CacheGeometry,
        mode: ClassificationMode,
    ) -> Result<Self, CfgError> {
        let cfg = expand_compiled(compiled)?;
        let context = Self::from_shared_cfg(compiled.name(), Arc::new(cfg), geometry, mode);
        context.set_fingerprint(expander_fingerprint(compiled, geometry, mode));
        Ok(context)
    }

    /// A context restored from an entry the reuse plane accepted: the
    /// solve memo is installed, the graph and the classification `tail`
    /// wait for first use, and a tail that then fails to decode is
    /// reported to `sink` and recomputed cold.
    pub(crate) fn restored(
        compiled: &CompiledProgram,
        geometry: CacheGeometry,
        mode: ClassificationMode,
        fingerprint: u64,
        solved: SolvedEntries,
        tail: RawTail,
        sink: LateCorruption,
    ) -> Self {
        let context = Self::empty(
            compiled.name(),
            OnceLock::new(),
            Some(ExpanderInputs::of(compiled)),
            geometry,
            mode,
        );
        context.set_fingerprint(fingerprint);
        context.install_solved(solved);
        *context.tail.lock().expect("tail lock") = Some(PendingTail { raw: tail, sink });
        context.tail_pending.store(true, Ordering::Release);
        context
    }

    /// Wraps an already-expanded, shared graph: a fresh build's, or a
    /// wider sibling's (see [`from_parts`](Self::from_parts)).
    pub(crate) fn from_shared_cfg(
        name: impl Into<String>,
        cfg: Arc<ExpandedCfg>,
        geometry: CacheGeometry,
        mode: ClassificationMode,
    ) -> Self {
        Self::empty(name, OnceLock::from(cfg), None, geometry, mode)
    }

    fn empty(
        name: impl Into<String>,
        cfg: OnceLock<Arc<ExpandedCfg>>,
        source: Option<ExpanderInputs>,
        geometry: CacheGeometry,
        mode: ClassificationMode,
    ) -> Self {
        let levels = geometry.ways() as usize + 1;
        Self {
            name: name.into(),
            cfg,
            source,
            fingerprint: OnceLock::new(),
            tail: Mutex::new(None),
            tail_pending: AtomicBool::new(false),
            geometry,
            mode,
            levels: (0..levels).map(|_| OnceLock::new()).collect(),
            full: OnceLock::new(),
            srb: OnceLock::new(),
            solved: Mutex::new(Vec::new()),
            template: OnceLock::new(),
            registry: OnceLock::new(),
            pending_basis: Mutex::new(None),
            cfg_fp: OnceLock::new(),
            set_refs: OnceLock::new(),
            kernel_stats: KernelStatsCell::default(),
        }
    }

    /// The analyzed program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The expanded control-flow graph — expanded here on first use by a
    /// restored context.
    ///
    /// # Panics
    ///
    /// Panics when a restored context's program does not expand. Its
    /// entry matched the program's expander fingerprint, so the writer
    /// expanded the same inputs; only a forged entry gets here, and the
    /// analyzer turns that into [`CoreError::Cfg`] before any stage asks.
    pub fn cfg(&self) -> &ExpandedCfg {
        self.graph()
            .expect("the program of a restored entry expanded when the entry was written")
    }

    /// The shared expanded graph, expanding a restored context's program
    /// on first use (the expansion records its `cfg_expand` span).
    pub(crate) fn graph(&self) -> Result<&Arc<ExpandedCfg>, CfgError> {
        if let Some(cfg) = self.cfg.get() {
            return Ok(cfg);
        }
        let source = self
            .source
            .as_ref()
            .expect("a context without a graph keeps its expander inputs");
        let expanded = source.expand()?;
        Ok(self.cfg.get_or_init(|| Arc::new(expanded)))
    }

    /// The expander fingerprint this context's entries are written with.
    pub(crate) fn fingerprint(&self) -> Option<u64> {
        self.fingerprint.get().copied()
    }

    /// Sets the expander fingerprint (set-once; later calls are ignored).
    pub(crate) fn set_fingerprint(&self, fingerprint: u64) {
        let _ = self.fingerprint.set(fingerprint);
    }

    /// Decodes a restored context's pending classification tail into the
    /// memo slots — once, before anything reads or fills them, so no
    /// level is recomputed that the tail holds. Other threads wait on the
    /// tail lock until the parts are installed. A tail that fails its
    /// decode (a checksum-consistent forgery) is reported to its sink and
    /// dropped: only the parts it held are then recomputed cold, and the
    /// solve memo stays.
    fn settle_tail(&self) {
        if !self.tail_pending.load(Ordering::Acquire) {
            return;
        }
        let mut slot = self.tail.lock().expect("tail lock");
        if let Some(pending) = slot.take() {
            let decoded = self
                .graph()
                .map_err(|_| CodecError::Malformed("program does not expand"));
            let decoded = decoded.and_then(|cfg| {
                let _span = pwcet_obs::stage_span(pwcet_obs::Stage::CodecDecode);
                decode_tail(&pending.raw, cfg, self.geometry)
            });
            match decoded {
                Ok(parts) => self.install_tail(parts),
                Err(err) => pending.sink.report(&err),
            }
        }
        self.tail_pending.store(false, Ordering::Release);
    }

    /// Reads the presence summary of a tail still waiting for its first
    /// use (`None` once it is decoded, or for a context without one).
    fn pending_presence<T>(&self, read: impl FnOnce(&Presence) -> T) -> Option<T> {
        if !self.tail_pending.load(Ordering::Acquire) {
            return None;
        }
        let slot = self.tail.lock().expect("tail lock");
        slot.as_ref().map(|pending| read(&pending.raw.presence))
    }

    /// The cache geometry the classifications are computed for.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// How classification levels are computed (cold vs. warm-started).
    pub fn mode(&self) -> ClassificationMode {
        self.mode
    }

    /// The full-associativity level — the single cold fixpoint of the
    /// incremental mode, retained with its states as the warm-start
    /// source for every lower level.
    fn full_level(&self) -> &ClassifiedLevel {
        self.settle_tail();
        self.full.get_or_init(|| {
            classify_level_with(
                self.cfg(),
                &self.geometry,
                self.geometry.ways(),
                Some(&self.kernel_stats),
            )
        })
    }

    /// The CHMC classification at effective associativity `assoc`,
    /// computing and caching it on first use (thread-safe).
    ///
    /// # Panics
    ///
    /// Panics when `assoc` exceeds the geometry's associativity.
    pub fn chmc(&self, assoc: u32) -> &ChmcMap {
        self.settle_tail();
        let ways = self.geometry.ways();
        let lock = self
            .levels
            .get(assoc as usize)
            .unwrap_or_else(|| panic!("associativity {assoc} out of range"));
        match self.mode {
            ClassificationMode::Cold => lock.get_or_init(|| {
                classify_level_with(self.cfg(), &self.geometry, assoc, Some(&self.kernel_stats))
                    .into_chmc()
            }),
            // The full level keeps its states; answer from it directly.
            ClassificationMode::Incremental if assoc == ways => self.full_level().chmc(),
            ClassificationMode::Incremental => lock.get_or_init(|| {
                if assoc == 0 {
                    // Trivial: a fully disabled set always misses.
                    classify_level_with(self.cfg(), &self.geometry, 0, Some(&self.kernel_stats))
                        .into_chmc()
                } else {
                    // Warm start straight from level W (materializing it
                    // first if needed — a different OnceLock, so the
                    // nested init cannot deadlock).
                    classify_level_from_with(
                        self.cfg(),
                        &self.geometry,
                        self.full_level(),
                        assoc,
                        Some(&self.kernel_stats),
                    )
                    .into_chmc()
                }
            }),
        }
    }

    /// The SRB hit map (§III-B2), computed and cached on first use.
    pub fn srb(&self) -> &SrbMap {
        self.settle_tail();
        self.srb
            .get_or_init(|| classify_srb_with(self.cfg(), &self.geometry, Some(&self.kernel_stats)))
    }

    /// The per-set reference index, built on first use: `index[s]` lists
    /// the `(node, reference index)` pairs whose address maps to cache
    /// set `s`, in graph order. The per-`(set, fault)` delta fan-out
    /// iterates one bucket instead of scanning every reference of the
    /// graph per job.
    pub fn set_refs(&self) -> &Arc<SetRefIndex> {
        self.set_refs.get_or_init(|| {
            let mut by_set = vec![Vec::new(); self.geometry.sets() as usize];
            for node in self.cfg().nodes() {
                for (i, &addr) in node.addrs().iter().enumerate() {
                    by_set[self.geometry.set_of(addr) as usize].push((node.id(), i));
                }
            }
            Arc::new(by_set)
        })
    }

    /// Eagerly fills every classification level (`0..=W`) and the SRB map.
    ///
    /// In the cold mode the `W + 2` fixpoints are independent jobs fanned
    /// out across worker threads. In the incremental mode level `W` runs
    /// cold and seeds every lower level, which runs as one job alongside
    /// the independent SRB fixpoint via [`par_join`].
    ///
    /// Levels already computed are skipped; the call is idempotent. A
    /// restored context whose undecoded tail holds every level and the
    /// SRB map counts as prewarmed: nothing is decoded.
    pub fn prewarm(&self, parallelism: Parallelism) {
        // One span covers the whole classify stage, recorded on the
        // calling thread (the fixpoint jobs themselves may run on
        // untraced workers).
        let _span = pwcet_obs::stage_span(pwcet_obs::Stage::Classify);
        let covered =
            |presence: &Presence| presence.srb && presence.warmed_levels() >= self.levels.len();
        if self.pending_presence(covered) == Some(true) {
            return;
        }
        match self.mode {
            ClassificationMode::Cold => {
                let levels = self.levels.len();
                par_for_each_index(parallelism, levels + 1, |job| {
                    if job == levels {
                        let _ = self.srb();
                    } else {
                        let _ = self.chmc(job as u32);
                    }
                });
            }
            ClassificationMode::Incremental => {
                par_join(
                    parallelism,
                    || {
                        // Descending: W runs cold, every lower level is
                        // warm-started from its retained states.
                        for assoc in (0..self.levels.len() as u32).rev() {
                            let _ = self.chmc(assoc);
                        }
                    },
                    || {
                        let _ = self.srb();
                    },
                );
            }
        }
    }

    /// Number of classification levels already materialized, counting
    /// those an undecoded restored tail holds (test/debug introspection,
    /// and the reuse plane's write-through gate).
    pub fn warmed_levels(&self) -> usize {
        // In incremental mode level W lives in `full`, not in `levels`;
        // the two stores are disjoint across modes, so the sum is exact.
        // A pending tail's levels are not in the slots yet.
        self.levels
            .iter()
            .filter(|lock| lock.get().is_some())
            .count()
            + usize::from(self.full.get().is_some())
            + self.pending_presence(Presence::warmed_levels).unwrap_or(0)
    }

    /// The memoized solve-stage artifacts for `key` with their penalty
    /// memo, running `compute` on the first request. The (expensive,
    /// ILP-heavy) computation runs outside the lock; when two threads
    /// race on the same key the first insert wins and the loser adopts
    /// it, so every caller observes one shared value. Failures are not
    /// cached.
    ///
    /// `compute` returns its solver counters alongside the artifacts;
    /// they are handed back (`Some`) only when *this* call's computation
    /// was the one installed, so memo hits — and racing losers, whose
    /// work is discarded — record no stats.
    pub(crate) fn solve_artifacts(
        &self,
        key: CacheTiming,
        compute: impl FnOnce() -> Result<(SolveArtifacts, SolveStats), CoreError>,
    ) -> Result<(Arc<Solved>, Option<SolveStats>), CoreError> {
        {
            let solved = self.solved.lock().expect("solve memo lock");
            if let Some((_, entry)) = solved.iter().find(|(k, _)| *k == key) {
                return Ok((Arc::clone(entry), None));
            }
        }
        let (artifacts, stats) = compute()?;
        let entry = Arc::new(Solved::new(artifacts));
        let mut solved = self.solved.lock().expect("solve memo lock");
        if let Some((_, existing)) = solved.iter().find(|(k, _)| *k == key) {
            return Ok((Arc::clone(existing), None));
        }
        solved.push((key, Arc::clone(&entry)));
        Ok((entry, Some(stats)))
    }

    /// Number of distinct cache timings whose solve artifacts are
    /// memoized (test/debug introspection).
    pub fn solved_configurations(&self) -> usize {
        self.solved.lock().expect("solve memo lock").len()
    }

    /// Attaches the cross-geometry [`TemplateRegistry`] templates are
    /// resolved through. Set-once: later calls are ignored, so the
    /// reuse plane can attach unconditionally on every tier path.
    pub fn attach_registry(&self, registry: Arc<TemplateRegistry>) {
        let _ = self.registry.set(registry);
    }

    /// The attached registry, or a lazily created private one for
    /// contexts running without a reuse plane (the template path is
    /// identical either way; a private registry just has no siblings to
    /// share with).
    fn registry(&self) -> &Arc<TemplateRegistry> {
        self.registry
            .get_or_init(|| Arc::new(TemplateRegistry::new()))
    }

    /// A process-stable structural fingerprint of the expanded graph —
    /// the registry key. Derived siblings share the graph `Arc` and
    /// inherit the computed value; a restored context re-expands the
    /// identical graph from the same image, so equal programs always
    /// present equal fingerprints and land on the same registry slot.
    pub(crate) fn cfg_fingerprint(&self) -> u64 {
        *self.cfg_fp.get_or_init(|| {
            let cfg = self.cfg();
            let mut h = Fnv1a::new();
            h.write_u32(cfg.nodes().len() as u32);
            for node in cfg.nodes() {
                h.write_u32(node.addrs().len() as u32);
                for &addr in node.addrs() {
                    h.write_u32(addr);
                }
            }
            h.write_u32(cfg.entry() as u32);
            h.write_u32(cfg.exit() as u32);
            for (from, to) in cfg.edges() {
                h.write_u32(from as u32);
                h.write_u32(to as u32);
            }
            h.write_u32(cfg.loops().len() as u32);
            for l in cfg.loops() {
                h.write_u32(l.header as u32);
                h.write_u32(l.bound);
                h.write_u32(l.back_edges.len() as u32);
                for &(from, to) in &l.back_edges {
                    h.write_u32(from as u32);
                    h.write_u32(to as u32);
                }
            }
            h.finish()
        })
    }

    /// The factored [`IpetTemplate`] of this program, resolved through
    /// the attached [`TemplateRegistry`] on first request and memoized
    /// per context after that. The registry keys by CFG fingerprint, so
    /// every sibling geometry of a lattice sweep — and a restored copy
    /// of this program while another context still holds the template —
    /// shares one template and its factored basis pool. The template
    /// carries the union of first-extra groups over every classification
    /// level `0..=W` of the *widest geometry that asked*, so it can solve
    /// the WCET cost model, every `(set, fault)` delta model, and every
    /// SRB column model of any covered sibling; a lookup needing more
    /// groups triggers a counted merged-union rebuild in the registry,
    /// never a wrong bound.
    ///
    /// Building it materializes every classification level (they define
    /// the group union); under [`prewarm`](Self::prewarm) that work has
    /// already happened.
    pub fn ipet_template(&self) -> Arc<IpetTemplate> {
        if let Some(template) = self.template.get() {
            return Arc::clone(template);
        }
        // A restored tail carries the basis to seed.
        self.settle_tail();
        // Resolved outside any lock (level materialization and model
        // building can be expensive); the registry deduplicates racing
        // builds globally, so racers memoize the same registry-owned
        // template and the first one wins the slot.
        let groups = self.first_extra_group_union();
        let template = self
            .registry()
            .obtain(self.cfg_fingerprint(), self.cfg(), &groups);
        self.seed_pending_basis(&template);
        Arc::clone(self.template.get_or_init(|| template))
    }

    /// Seeds a restored basis into `template`'s workspace pool, counting
    /// the restore or rejection on the registry. A rejected basis leaves
    /// the template cold — it costs one counted factorization on the
    /// first solve, never a wrong bound.
    fn seed_pending_basis(&self, template: &IpetTemplate) {
        let pending = self
            .pending_basis
            .lock()
            .expect("pending basis lock")
            .take();
        if let Some(snapshot) = pending {
            if template.seed_basis(&snapshot) {
                self.registry().record_basis_restore();
            } else {
                self.registry().record_basis_reject();
            }
        }
    }

    /// The factored basis to persist: the memoized template's, or a
    /// restored one still pending because no solve asked for the
    /// template again — dropping it would lose persistence across a
    /// chain of restarts that only prewarm.
    pub(crate) fn export_basis(&self) -> Option<BasisSnapshot> {
        self.template
            .get()
            .and_then(|template| template.export_basis())
            .or_else(|| {
                self.pending_basis
                    .lock()
                    .expect("pending basis lock")
                    .clone()
            })
    }

    /// Whether the context has a basis to persist — presence only, no
    /// snapshot clone (this feeds the reuse plane's per-persist richness
    /// gate). An undecoded restored tail answers from its summary.
    pub(crate) fn has_basis(&self) -> bool {
        self.pending_presence(|presence| presence.basis) == Some(true)
            || self.template.get().is_some_and(|t| t.has_basis())
            || self
                .pending_basis
                .lock()
                .expect("pending basis lock")
                .is_some()
    }

    /// Every `(node, scope)` first-extra group any classification level
    /// of this context can charge: the union over `0..=W` of the
    /// first-miss scopes per reference. Cost models built from these
    /// levels (WCET, per-`(set, fault)` deltas, SRB columns) charge
    /// subsets of it.
    fn first_extra_group_union(&self) -> Vec<(NodeId, Scope)> {
        let mut groups = Vec::new();
        for assoc in 0..=self.geometry.ways() {
            let chmc = self.chmc(assoc);
            for node in self.cfg().nodes() {
                for index in 0..node.addrs().len() {
                    if let Chmc::FirstMiss(scope) = chmc.get(node.id(), index) {
                        groups.push((node.id(), scope));
                    }
                }
            }
        }
        groups
    }

    /// Cumulative classification-kernel counters (worklist passes, slot
    /// words touched, dirty-skipped sets) over every fixpoint run on this
    /// context.
    pub fn kernel_stats(&self) -> KernelStats {
        self.kernel_stats.snapshot()
    }

    /// Whether the SRB map has been materialized, or is held by an
    /// undecoded restored tail.
    pub fn srb_warmed(&self) -> bool {
        self.srb.get().is_some() || self.pending_presence(|presence| presence.srb) == Some(true)
    }

    /// The shared expanded graph handle (test-only: codec round-trips
    /// restore against the original graph without re-expanding).
    #[cfg(test)]
    pub(crate) fn shared_cfg(&self) -> Arc<ExpandedCfg> {
        Arc::clone(self.graph().expect("expands"))
    }

    /// The decoded classification tail: every memoized level, the SRB
    /// map and the basis to persist. Unwarmed slots stay `None`.
    fn tail_parts(&self) -> TailParts {
        TailParts {
            full: self.full.get().cloned(),
            levels: self.levels.iter().map(|l| l.get().cloned()).collect(),
            srb: self.srb.get().cloned(),
            basis: self.export_basis(),
        }
    }

    /// A clone of every memoized artifact, decoding a pending tail first.
    #[cfg(test)]
    pub(crate) fn snapshot_parts(&self) -> ContextParts {
        self.settle_tail();
        ContextParts {
            solved: self
                .solved
                .lock()
                .expect("solve memo lock")
                .iter()
                .map(|(key, entry)| (*key, entry.artifacts.clone()))
                .collect(),
            tail: self.tail_parts(),
        }
    }

    /// This context's disk-tier entry under `key`: the solve memo plus
    /// the classification tail. A tail still waiting for its first use is
    /// spliced in verbatim, so an unchanged restored context re-encodes
    /// byte-identically without expanding or decoding anything. `None`
    /// for a context without an expander fingerprint.
    pub(crate) fn encode_entry(&self, key: u64) -> Option<Vec<u8>> {
        let fingerprint = self.fingerprint()?;
        let solved = self.solved.lock().expect("solve memo lock");
        let solved: Vec<(CacheTiming, &SolveArtifacts)> = solved
            .iter()
            .map(|(timing, entry)| (*timing, &entry.artifacts))
            .collect();
        let pending = self.tail.lock().expect("tail lock");
        Some(match pending.as_ref() {
            Some(pending) => encode_context(key, fingerprint, &solved, &pending.raw),
            None => encode_context(key, fingerprint, &solved, &encode_tail(&self.tail_parts())),
        })
    }

    fn install_solved(&self, solved: SolvedEntries) {
        *self.solved.lock().expect("solve memo lock") = solved
            .into_iter()
            .map(|(key, artifacts)| (key, Arc::new(Solved::new(artifacts))))
            .collect();
    }

    /// Fills the memo slots from decoded tail parts; the basis waits for
    /// the first template request.
    ///
    /// # Panics
    ///
    /// Panics when `parts.levels` does not cover `0..=W` of the geometry.
    fn install_tail(&self, parts: TailParts) {
        assert_eq!(
            parts.levels.len(),
            self.levels.len(),
            "restored parts must cover levels 0..=W"
        );
        if let Some(full) = parts.full {
            let _ = self.full.set(full);
        }
        for (lock, level) in self.levels.iter().zip(parts.levels) {
            if let Some(map) = level {
                let _ = lock.set(map);
            }
        }
        if let Some(srb) = parts.srb {
            let _ = self.srb.set(srb);
        }
        *self.pending_basis.lock().expect("pending basis lock") = parts.basis;
    }

    /// Rebuilds a context around decoded artifacts over an expanded
    /// graph (derivation, and the codec tests). Slots absent from
    /// `parts` stay lazy and are recomputed on demand exactly as in a
    /// fresh context.
    ///
    /// # Panics
    ///
    /// Panics when `parts.tail.levels` does not cover `0..=W` of
    /// `geometry`.
    pub(crate) fn from_parts(
        name: impl Into<String>,
        cfg: Arc<ExpandedCfg>,
        geometry: CacheGeometry,
        mode: ClassificationMode,
        parts: ContextParts,
    ) -> Self {
        let context = Self::from_shared_cfg(name, cfg, geometry, mode);
        context.install_tail(parts.tail);
        context.install_solved(parts.solved);
        context
    }

    /// Derives the context of a **narrower-way sibling geometry** from
    /// this one: the converged full-associativity states are age-truncated
    /// into the sibling's full level ([`classify_level_from`]), so the
    /// sibling never runs a cold fixpoint — its lower levels warm-start
    /// from the derived level as usual, and the SRB map (independent of
    /// the way count) is carried over verbatim. The expanded graph is
    /// shared, not cloned.
    ///
    /// Results are bit-identical to a cold build of the sibling;
    /// `tests/incremental_equivalence.rs` pins it per way count across
    /// the suite.
    ///
    /// # Panics
    ///
    /// Panics unless `geometry` is strictly narrower and derivable from
    /// this context's geometry ([`CacheGeometry::derivable_from`]) and
    /// the context uses [`ClassificationMode::Incremental`].
    pub fn derive_narrower(&self, geometry: CacheGeometry) -> AnalysisContext {
        assert!(
            geometry.derivable_from(&self.geometry) && geometry.ways() < self.geometry.ways(),
            "derivation requires a strictly narrower sibling geometry \
             (have {}, requested {geometry})",
            self.geometry
        );
        assert_eq!(
            self.mode,
            ClassificationMode::Incremental,
            "cold mode is the from-scratch reference; deriving would defeat it"
        );
        let derived_full = classify_level_from_with(
            self.cfg(),
            &geometry,
            self.full_level(),
            geometry.ways(),
            Some(&self.kernel_stats),
        );
        // Lower levels are geometry-portable: a classification at
        // effective associativity `a` depends only on the graph, the set
        // count, and the block size (see `classify_level_from`'s
        // cross-geometry contract), all shared across the lattice. Carry
        // over whatever this context has already materialized below the
        // sibling's full level so the sibling skips those warm fixpoints
        // entirely; unmaterialized slots stay lazy as usual.
        let mut levels = vec![None; geometry.ways() as usize + 1];
        for (assoc, slot) in levels.iter_mut().enumerate().take(geometry.ways() as usize) {
            *slot = self.levels[assoc].get().cloned();
        }
        let sibling = Self::from_parts(
            self.name.clone(),
            Arc::clone(self.graph().expect("expanded for the full level")),
            geometry,
            self.mode,
            ContextParts {
                solved: Vec::new(),
                tail: TailParts {
                    full: Some(derived_full),
                    levels,
                    // The SRB pseudo-geometry (one set, one way) only
                    // depends on the block size, which siblings share.
                    srb: self.srb.get().cloned(),
                    // No pending basis: the sibling shares this context's
                    // registry and fingerprint, so its template request
                    // lands on the already-warm shared pool directly.
                    basis: None,
                },
            },
        );
        // Same graph, same registry: the sibling's template lookups hit
        // the shared factored basis pool instead of refactoring (the
        // plane re-attaches its own registry, which set-once ignores).
        let _ = sibling.registry.set(Arc::clone(self.registry()));
        if let Some(&fp) = self.cfg_fp.get() {
            let _ = sibling.cfg_fp.set(fp);
        }
        // The set mapping ignores the way count; hand the index over.
        if let Some(refs) = self.set_refs.get() {
            let _ = sibling.set_refs.set(Arc::clone(refs));
        }
        sibling
    }
}

/// The classification tail of one context: everything it memoizes
/// beside the solve products.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TailParts {
    pub(crate) full: Option<ClassifiedLevel>,
    pub(crate) levels: Vec<Option<ChmcMap>>,
    pub(crate) srb: Option<SrbMap>,
    /// The serialized factored basis — restored into `pending_basis`,
    /// seeded into the shared template on its first request.
    pub(crate) basis: Option<BasisSnapshot>,
}

/// The decoded artifact slots of one context: the solve memo and the
/// classification tail.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ContextParts {
    pub(crate) solved: SolvedEntries,
    pub(crate) tail: TailParts,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwcet_analysis::classify;
    use pwcet_progen::{stmt, Program};

    fn context() -> AnalysisContext {
        context_with_mode(ClassificationMode::Incremental)
    }

    fn context_with_mode(mode: ClassificationMode) -> AnalysisContext {
        let compiled = Program::new("ctx")
            .with_function("main", stmt::loop_(30, stmt::compute(24)))
            .compile(0x0040_0000)
            .unwrap();
        AnalysisContext::build_with_mode(&compiled, CacheGeometry::paper_default(), mode).unwrap()
    }

    #[test]
    fn memoizes_classification_levels() {
        let ctx = context();
        assert_eq!(ctx.warmed_levels(), 0);
        let first = ctx.chmc(4) as *const ChmcMap;
        let second = ctx.chmc(4) as *const ChmcMap;
        assert_eq!(first, second, "second query must hit the cache");
        assert_eq!(ctx.warmed_levels(), 1);
    }

    #[test]
    fn prewarm_fills_every_level() {
        for mode in [ClassificationMode::Cold, ClassificationMode::Incremental] {
            let ctx = context_with_mode(mode);
            ctx.prewarm(Parallelism::threads(3));
            assert_eq!(ctx.warmed_levels(), 5, "{mode:?}");
            ctx.prewarm(Parallelism::Sequential); // idempotent
            assert_eq!(ctx.warmed_levels(), 5, "{mode:?}");
        }
    }

    #[test]
    fn prewarmed_levels_match_direct_classification() {
        for mode in [ClassificationMode::Cold, ClassificationMode::Incremental] {
            let ctx = context_with_mode(mode);
            ctx.prewarm(Parallelism::threads(2));
            for assoc in 0..=4u32 {
                let direct = classify(ctx.cfg(), ctx.geometry(), assoc);
                let warmed = ctx.chmc(assoc);
                assert_eq!(warmed, &direct, "{mode:?} assoc {assoc}");
            }
        }
    }

    #[test]
    fn lazy_incremental_query_chains_from_full_associativity() {
        let ctx = context();
        // Querying a middle level first must materialize level W (the one
        // cold fixpoint) and chain down — and still be bit-identical.
        let direct = classify(ctx.cfg(), ctx.geometry(), 2);
        assert_eq!(ctx.chmc(2), &direct);
        assert!(
            ctx.warmed_levels() >= 2,
            "the warm chain materializes the full-associativity source too"
        );
    }

    #[test]
    fn derived_sibling_matches_direct_classification() {
        let ctx = context();
        for ways in [2u32, 1] {
            let sibling = ctx.derive_narrower(CacheGeometry::paper_default().with_ways(ways));
            assert_eq!(sibling.geometry().ways(), ways);
            for assoc in 0..=ways {
                let direct = classify(sibling.cfg(), sibling.geometry(), assoc);
                assert_eq!(sibling.chmc(assoc), &direct, "{ways}-way level {assoc}");
            }
        }
    }

    #[test]
    fn derived_sibling_shares_graph_and_srb() {
        let ctx = context();
        let _ = ctx.srb();
        let sibling = ctx.derive_narrower(CacheGeometry::paper_default().with_ways(2));
        assert!(std::ptr::eq(ctx.cfg(), sibling.cfg()), "graph is shared");
        assert_eq!(ctx.srb(), sibling.srb(), "SRB map is way-independent");
    }

    #[test]
    fn restore_round_trips_every_part() {
        let ctx = context();
        ctx.prewarm(Parallelism::Sequential);
        let restored = AnalysisContext::from_parts(
            ctx.name(),
            ctx.shared_cfg(),
            *ctx.geometry(),
            ctx.mode(),
            ctx.snapshot_parts(),
        );
        assert_eq!(restored.warmed_levels(), ctx.warmed_levels());
        for assoc in 0..=4u32 {
            assert_eq!(restored.chmc(assoc), ctx.chmc(assoc), "level {assoc}");
        }
        assert_eq!(restored.srb(), ctx.srb());
    }

    #[test]
    #[should_panic(expected = "narrower sibling")]
    fn derivation_rejects_widening() {
        let ctx = context();
        let _ = ctx.derive_narrower(CacheGeometry::paper_default().with_ways(8));
    }

    #[test]
    #[should_panic(expected = "reference")]
    fn derivation_rejects_cold_mode() {
        let ctx = context_with_mode(ClassificationMode::Cold);
        let _ = ctx.derive_narrower(CacheGeometry::paper_default().with_ways(2));
    }

    #[test]
    fn context_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AnalysisContext>();
    }

    #[test]
    fn template_memo_answers_repeats_without_a_second_build() {
        let ctx = context();
        let registry = Arc::new(TemplateRegistry::new());
        ctx.attach_registry(Arc::clone(&registry));
        let first = ctx.ipet_template();
        let second = ctx.ipet_template();
        assert!(Arc::ptr_eq(&first, &second));
        let counters = registry.counters();
        assert_eq!(
            counters.template_builds, 1,
            "the second request must hit the per-context memo"
        );
        assert_eq!(counters.template_hits, 0);
    }

    #[test]
    fn derived_sibling_shares_the_registry_template() {
        let ctx = context();
        let registry = Arc::new(TemplateRegistry::new());
        ctx.attach_registry(Arc::clone(&registry));
        let wide = ctx.ipet_template();
        let sibling = ctx.derive_narrower(CacheGeometry::paper_default().with_ways(2));
        let narrow = sibling.ipet_template();
        // The narrower sibling's group union is a subset of the wide
        // one's (level `a` is geometry-portable across siblings), so the
        // registry answers with the *same* template — asserted, not
        // assumed: a coverage miss would rebuild and break ptr equality.
        assert!(Arc::ptr_eq(&wide, &narrow));
        let counters = registry.counters();
        assert_eq!(counters.template_builds, 1);
        assert_eq!(counters.template_hits, 1);
    }

    #[test]
    fn restored_bases_answer_the_first_solve_warm() {
        use pwcet_ipet::CostModel;
        let ctx = context();
        let template = ctx.ipet_template();
        let costs = CostModel::uniform(ctx.cfg(), 2);
        let expected = template.bound(&costs).unwrap();
        let parts = ctx.snapshot_parts();
        assert!(parts.tail.basis.is_some(), "the solved template exports");

        // A "restarted process": fresh context, fresh registry, bases
        // restored from the serialized parts.
        let registry = Arc::new(TemplateRegistry::new());
        let restored = AnalysisContext::from_parts(
            ctx.name(),
            ctx.shared_cfg(),
            *ctx.geometry(),
            ctx.mode(),
            parts,
        );
        restored.attach_registry(Arc::clone(&registry));
        let template = restored.ipet_template();
        assert_eq!(registry.counters().basis_restores, 1);
        assert_eq!(template.bound(&costs).unwrap(), expected);
        let stats = template.stats();
        assert_eq!(stats.cold_starts, 0, "restored basis skips phase 1");
        assert!(stats.warm_starts >= 1);
    }

    #[test]
    fn rejected_basis_degrades_to_a_counted_cold_factorization() {
        use pwcet_ipet::CostModel;
        let ctx = context();
        let template = ctx.ipet_template();
        let costs = CostModel::uniform(ctx.cfg(), 2);
        let expected = template.bound(&costs).unwrap();
        let mut parts = ctx.snapshot_parts();
        // Structurally valid, semantically wrong: claim one more basic
        // column than rows — decode would pass, hydration must not.
        let snapshot = parts
            .tail
            .basis
            .as_mut()
            .expect("the solved template exports");
        if let Some(tag) = snapshot.statuses.iter_mut().find(|tag| **tag != 0) {
            *tag = 0;
        }

        let registry = Arc::new(TemplateRegistry::new());
        let restored = AnalysisContext::from_parts(
            ctx.name(),
            ctx.shared_cfg(),
            *ctx.geometry(),
            ctx.mode(),
            parts,
        );
        restored.attach_registry(Arc::clone(&registry));
        let template = restored.ipet_template();
        let counters = registry.counters();
        assert_eq!(counters.basis_rejects, 1);
        assert_eq!(counters.basis_restores, 0);
        // The template still answers — cold, and correctly.
        assert_eq!(template.bound(&costs).unwrap(), expected);
        assert_eq!(template.stats().cold_starts, 1);
    }

    /// The penalty memo of the context's one solve entry: its counters
    /// and occupancy, and how many distributions it stores.
    fn penalty_memo(ctx: &AnalysisContext) -> (pwcet_par::MemoStats, usize) {
        let solved = ctx.solved.lock().unwrap();
        assert_eq!(solved.len(), 1);
        let memo = &solved[0].1.penalties;
        (memo.stats(), memo.snapshot().len())
    }

    #[test]
    fn penalty_memo_admits_a_key_on_its_second_computation() {
        use crate::{AnalysisConfig, Protection, PwcetAnalyzer};
        let ctx = context();
        let analysis = PwcetAnalyzer::new(AnalysisConfig::paper_default())
            .analyze_with_context(&ctx)
            .unwrap();
        let first = analysis.penalty_distribution(Protection::None);
        assert_eq!(
            penalty_memo(&ctx).1,
            0,
            "a key computed once retains nothing"
        );
        let second = analysis.penalty_distribution(Protection::None);
        assert_eq!(penalty_memo(&ctx).1, 1, "the second computation is stored");
        let third = analysis.penalty_distribution(Protection::None);
        assert!(Arc::ptr_eq(&second, &third), "the third request shares it");
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(first, third);
    }

    #[test]
    fn penalty_memo_stays_at_its_cap_under_a_repeated_sweep() {
        use crate::{AnalysisConfig, Protection, PwcetAnalyzer};
        let ctx = context();
        let sweep = |pfails: &[f64]| {
            for &pfail in pfails {
                let config = AnalysisConfig::paper_default().with_pfail(pfail).unwrap();
                let analysis = PwcetAnalyzer::new(config)
                    .analyze_with_context(&ctx)
                    .unwrap();
                for protection in Protection::all() {
                    let _ = analysis.estimate(protection);
                    assert!(penalty_memo(&ctx).0.len <= PENALTY_MEMO_CAP);
                }
            }
        };
        // 64 points × 3 protections: four times the cap, twice over.
        let pfails: Vec<f64> = (1..=64).map(|i| f64::from(i) * 1e-6).collect();
        sweep(&pfails);
        sweep(&pfails);
        // A full memo keeps admitting: a smaller new working set is stored
        // on its second request and hit on its third.
        let hits = penalty_memo(&ctx).0.hits;
        for _ in 0..3 {
            sweep(&[1e-3, 2e-3]);
        }
        assert_eq!(penalty_memo(&ctx).0.hits - hits, 6);
        assert_eq!(penalty_memo(&ctx).1, 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_level_panics() {
        let ctx = context();
        let _ = ctx.chmc(5);
    }
}
