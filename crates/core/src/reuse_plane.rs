//! The unified reuse plane: every way one analysis can avoid redoing
//! another's work, behind one `get_or_build_traced` entry point.
//!
//! Four tiers, probed in order:
//!
//! ```text
//!            ┌──────────────────────────────────────────────┐
//!  lookup ──▶│ 1. memory tier   ContextCache (LRU, in-proc) │─ hit ─▶ Arc<AnalysisContext>
//!            ├──────────────────────────────────────────────┤
//!            │ 2. disk tier     versioned binary entries,   │─ hit ─▶ decode + install
//!            │    keyed by content fingerprint, checksummed │
//!            ├──────────────────────────────────────────────┤
//!            │ 3. derivation    widest lattice sibling in   │─ hit ─▶ truncate-seed
//!            │    the memory tier (same sets/block/mode)    │         full level
//!            ├──────────────────────────────────────────────┤
//!            │ 4. network tier  fetch the serialized entry  │─ hit ─▶ decode + install
//!            │    from a peer process ([`NetworkTier`])     │         + write-through
//!            ├──────────────────────────────────────────────┤
//!            │ 5. cold build                                │
//!            └──────────────────────────────────────────────┘
//! ```
//!
//! Whatever tier answers, the result is filed back into the memory tier,
//! so one process never pays the same cost twice. The disk tier is
//! populated by [`ReusePlane::persist`] (the analyzer calls it after
//! every analysis over the plane) and makes *cross-process* re-runs warm;
//! the derivation tier makes *cross-geometry* sweeps warm — within one
//! lattice (same sets and block size, [`CacheGeometry::derivable_from`])
//! only the widest geometry ever runs a cold classification fixpoint or
//! builds an IPET template: a derived sibling adopts the template of the
//! context it was derived from.
//! The network tier makes *cross-machine* fleets warm: an attached
//! [`NetworkTier`] implementation (the serve layer's peer fleet) fetches
//! the same serialized entry encoding the disk tier uses from whichever
//! peer owns the content key, and freshly built entries are offered back
//! to their owner so the fleet converges on one warm store with no
//! shared filesystem.
//!
//! A disk or peer hit decodes only what a solved answer reads (see the
//! [codec](crate::codec) layout): the restored context expands its CFG
//! and decodes its classification tail on first use.
//!
//! **Failure containment**: any unreadable, truncated, corrupted, or
//! version-skewed disk entry is counted
//! ([`ReusePlaneStats::disk_corrupt`]), logged to stderr, deleted, and
//! answered by the next tier; a fetched peer entry that fails strict
//! decode validation is counted ([`ReusePlaneStats::network_corrupt`])
//! and degrades to a cold build. A tail that passed the checksum but
//! fails its deferred decode is counted the same way, its store file is
//! deleted, and only the parts it held are recomputed cold. A store
//! write that fails — of a persisted, fetched or offered entry — is
//! logged and counted in `disk_corrupt` too; the entry is simply not
//! stored. The disk and network tiers can cost time, never correctness —
//! `crates/core/tests/reuse_plane.rs` pins every corruption class.

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use pwcet_analysis::ClassificationMode;
use pwcet_cache::CacheGeometry;
use pwcet_cfg::CfgError;
use pwcet_ilp::SolveStats;
use pwcet_obs::{Counter, Registry};
use pwcet_par::{Admission, Memo};
use pwcet_progen::CompiledProgram;

use crate::codec::{decode_context, expander_fingerprint, validate_entry, Hit, RawTail};
use crate::context::{AnalysisContext, ContextCounters};
use crate::context_cache::{ContextCache, ContextCacheStats, DEFAULT_CONTEXT_CAPACITY};
use crate::frame::FrameError;

/// Default on-disk budget: far above a full benchmark-suite store (a few
/// hundred KB) while bounding runaway sweeps.
pub const DEFAULT_DISK_CAPACITY_BYTES: u64 = 64 * 1024 * 1024;

/// File extension of disk-tier entries.
const ENTRY_EXT: &str = "pwctx";

/// Cap on raw peer-offered entries staged in memory when no disk tier is
/// attached (entries are tens of KB, so this bounds the staging area to a
/// few MB). Only a repeated offer of a staged key refreshes its recency
/// (nothing looks a staged entry up through a counted `get`), so the
/// memo's LRU eviction drops the least recently offered entry first.
const MAX_STAGED_ENTRIES: usize = 128;

/// The plane's fourth tier: fetch/offer serialized context entries (the
/// same `PWCX` encoding the disk tier stores) from/to peer processes.
///
/// Implemented outside this crate — the serve layer's peer fleet hashes
/// content keys onto a ring of `pwcet-serve` nodes — and attached after
/// construction with [`ReusePlane::set_network_tier`]. The contract
/// mirrors the disk tier's failure containment: a fetch may return
/// garbage (the plane validates strictly and degrades to a cold build),
/// and both calls must swallow transport failures rather than error the
/// analysis.
pub trait NetworkTier: Send + Sync + std::fmt::Debug {
    /// The serialized entry for `key` from a peer, `None` on miss or any
    /// transport failure. Called on the analysis path — implementations
    /// should bound their own timeouts.
    fn fetch(&self, key: u64) -> Option<Vec<u8>>;

    /// Offers a locally built entry to the key's owning peer.
    /// Implementations should return quickly (queue + background send):
    /// this is called after every persisted analysis.
    fn offer(&self, key: u64, bytes: &[u8]);
}

/// Which tier of a [`ReusePlane`] answered one context request — the
/// provenance a service front-end reports per response (`served_from`)
/// without re-querying the plane-wide [`ReusePlaneStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReuseTier {
    /// The in-process LRU context cache.
    Memory,
    /// A persisted entry decoded from the on-disk store.
    Disk,
    /// Derived from a wider lattice sibling by age truncation.
    Derived,
    /// Fetched from a peer process through the attached [`NetworkTier`]
    /// and decoded like a disk entry.
    Network,
    /// No tier could answer; the context was built from scratch.
    Cold,
}

impl ReuseTier {
    /// Stable lower-case label (`memory` / `disk` / `derived` /
    /// `network` / `cold`).
    pub fn label(self) -> &'static str {
        match self {
            ReuseTier::Memory => "memory",
            ReuseTier::Disk => "disk",
            ReuseTier::Derived => "derived",
            ReuseTier::Network => "network",
            ReuseTier::Cold => "cold",
        }
    }
}

impl std::fmt::Display for ReuseTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Counters of a [`ReusePlane`], aggregated over all tiers. Each field
/// is read from the counter behind the node's metrics row of the same
/// name (the memory tier's under a `memory_` prefix), so the two cannot
/// drift.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReusePlaneStats {
    /// Memory-tier (LRU context cache) counters.
    pub memory: ContextCacheStats,
    /// Lookups answered by decoding a disk entry.
    pub disk_hits: u64,
    /// Lookups that probed the disk tier and found no (usable) entry.
    pub disk_misses: u64,
    /// Entries written (or rewritten richer) to the disk tier.
    pub disk_writes: u64,
    /// Disk-tier failures: corrupt or unreadable entries that fell back
    /// to a lower tier, and failed writes (the entry is not stored; the
    /// answer is unaffected).
    pub disk_corrupt: u64,
    /// Disk entries removed by the size-capped GC.
    pub disk_gc_evictions: u64,
    /// Contexts derived from a wider lattice sibling instead of built
    /// cold.
    pub derived: u64,
    /// Lookups answered by decoding an entry fetched from a peer.
    pub network_hits: u64,
    /// Lookups that probed the network tier and got no usable entry.
    pub network_misses: u64,
    /// Fetched or offered peer entries rejected by validation or decode
    /// (each degrades to the next tier, never corrupts a result).
    pub network_corrupt: u64,
    /// Freshly built entries offered to their owning peer.
    pub network_offers: u64,
    /// Contexts built cold (no tier could answer).
    pub cold_builds: u64,
    /// IPET template requests answered by adopting the template of the
    /// wider context a sibling geometry was derived from — one factored
    /// basis pool per geometry sweep.
    pub template_hits: u64,
    /// IPET templates built by the context that asked for one.
    pub template_builds: u64,
    /// ILP bounds answered from a template's objective→bound memo — an
    /// identical cost model was already solved, typically by a sibling
    /// geometry of the same sweep whose classifications coincide on the
    /// queried set.
    pub objective_hits: u64,
}

impl ReusePlaneStats {
    /// Fraction of non-memory-tier builds avoided by the disk,
    /// derivation, and network tiers (0 when nothing was requested).
    pub fn reuse_rate(&self) -> f64 {
        let avoided = self.disk_hits + self.derived + self.network_hits;
        let total = avoided + self.cold_builds;
        if total == 0 {
            return 0.0;
        }
        avoided as f64 / total as f64
    }
}

/// The tier counters of a [`ReusePlane`], each the row of the same name
/// in the plane's metrics registry ([`ReusePlaneStats`] documents them).
#[derive(Debug)]
struct TierCounters {
    disk_hits: Arc<Counter>,
    disk_misses: Arc<Counter>,
    disk_writes: Arc<Counter>,
    disk_corrupt: Arc<Counter>,
    disk_gc_evictions: Arc<Counter>,
    derived: Arc<Counter>,
    network_hits: Arc<Counter>,
    network_misses: Arc<Counter>,
    network_corrupt: Arc<Counter>,
    network_offers: Arc<Counter>,
    cold_builds: Arc<Counter>,
}

impl TierCounters {
    fn registered(metrics: &Registry) -> Self {
        Self {
            disk_hits: metrics.register_counter("disk_hits"),
            disk_misses: metrics.register_counter("disk_misses"),
            disk_writes: metrics.register_counter("disk_writes"),
            disk_corrupt: metrics.register_counter("disk_corrupt"),
            disk_gc_evictions: metrics.register_counter("disk_gc_evictions"),
            derived: metrics.register_counter("derived"),
            network_hits: metrics.register_counter("network_hits"),
            network_misses: metrics.register_counter("network_misses"),
            network_corrupt: metrics.register_counter("network_corrupt"),
            network_offers: metrics.register_counter("network_offers"),
            cold_builds: metrics.register_counter("cold_builds"),
        }
    }

    /// The counter a corrupt entry from `tier` counts in: `disk_corrupt`
    /// for the store, `network_corrupt` for a fetched or staged peer
    /// entry.
    fn corrupt(&self, tier: ReuseTier) -> &Arc<Counter> {
        match tier {
            ReuseTier::Disk => &self.disk_corrupt,
            _ => &self.network_corrupt,
        }
    }
}

/// How much of a context a disk entry captures — used to decide whether a
/// rewrite would add anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
struct Richness {
    levels: usize,
    solved: usize,
    srb: bool,
}

impl Richness {
    /// Presence counts only — deliberately free of the deep artifact
    /// clones `snapshot_parts` makes, since this runs after *every*
    /// analysis over a disk-tier plane.
    fn of(context: &AnalysisContext) -> Self {
        Self {
            levels: context.warmed_levels(),
            solved: context.solved_configurations(),
            srb: context.srb_warmed(),
        }
    }
}

/// Raw serialized entries offered by peers before a local decode proved
/// them useful — the memory-only stand-in for the disk tier's store
/// directory.
type StagedEntries = Arc<Memo<u64, Arc<Vec<u8>>>>;

/// The disk tier's write-through index: what this process knows to be
/// on disk, by key.
type WriteIndex = Arc<Mutex<HashMap<u64, Richness>>>;

#[derive(Debug)]
struct DiskTier {
    dir: PathBuf,
    max_bytes: u64,
    /// What this process knows to be on disk, by key: skip rewrites that
    /// would not add artifacts. Kept coherent with the GC, which removes
    /// the keys of the entries it evicts, and with late corruption, which
    /// removes the key of the entry it deletes.
    written: WriteIndex,
}

impl DiskTier {
    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("ctx-{key:016x}.{ENTRY_EXT}"))
    }
}

/// A file of the store directory that the plane wrote: the sizing and
/// the GC touch these only, and leave every other file alone.
enum StoreFile {
    /// `ctx-<key:016x>.pwctx`: the stored entry of `key`.
    Entry(u64),
    /// `ctx-<key:016x>.<pid>-<seq>.tmp`: the temp file of a write in
    /// flight, or one a crashed writer orphaned ([`write_atomically`]).
    Temp,
}

impl StoreFile {
    /// What the file at `path` is, from its name alone (`None` for a
    /// foreign file). Allocates nothing: the GC asks it of every file in
    /// the directory after each write.
    fn of(path: &Path) -> Option<Self> {
        let name = path.file_name()?.to_str()?;
        let (hex, suffix) = name.strip_prefix("ctx-")?.split_at_checked(16)?;
        if !hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return None;
        }
        let suffix = suffix.strip_prefix('.')?;
        if suffix == ENTRY_EXT {
            return u64::from_str_radix(hex, 16).ok().map(StoreFile::Entry);
        }
        let (pid, seq) = suffix.strip_suffix(".tmp")?.split_once('-')?;
        let decimal = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        (decimal(pid) && decimal(seq)).then_some(StoreFile::Temp)
    }
}

/// The tiered reuse store of analysis contexts:
/// [`get_or_build_traced`](Self::get_or_build_traced) probes the memory
/// tier, the disk tier and staged peer offers, derivation from a wider
/// sibling, and the network tier, and builds cold only when none
/// answers. A corrupt entry costs a rebuild, never a result.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pwcet_core::{AnalysisConfig, PwcetAnalyzer, ReusePlane};
/// use pwcet_progen::{stmt, Program};
///
/// # fn main() -> Result<(), pwcet_core::CoreError> {
/// let plane = Arc::new(ReusePlane::in_memory());
/// let analyzer =
///     PwcetAnalyzer::new(AnalysisConfig::paper_default()).with_reuse_plane(Arc::clone(&plane));
/// let program = Program::new("p").with_function("main", stmt::loop_(10, stmt::compute(8)));
/// analyzer.analyze(&program)?;
/// analyzer.analyze(&program)?; // memory-tier hit
/// assert_eq!(plane.stats().memory.hits, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ReusePlane {
    /// The memory tier, built by the plane at
    /// [`DEFAULT_CONTEXT_CAPACITY`] contexts and owned by it alone: every
    /// resident context counts its work into this plane's rows.
    memory: ContextCache,
    disk: Option<DiskTier>,
    /// The peer-fetch tier, attached set-once after construction (the
    /// service builds the plane first and the peer layer — which needs
    /// the plane's address space — second).
    network: OnceLock<Arc<dyn NetworkTier>>,
    /// Raw peer-offered entries staged in memory when no disk tier is
    /// attached, consulted by the local-entry probe exactly like a disk
    /// file. Capped at [`MAX_STAGED_ENTRIES`].
    staged: StagedEntries,
    /// Richness the network tier already holds per key: skip re-offers
    /// that would not add artifacts, mirroring the disk tier's
    /// write-through index. Written only while a network tier is
    /// attached, and capped at the memory tier's capacity,
    /// [`DEFAULT_CONTEXT_CAPACITY`]: a forgotten key costs one offer its
    /// owner refuses.
    offered: Memo<u64, Richness>,
    /// See [`metrics`](Self::metrics).
    metrics: Registry,
    tiers: TierCounters,
    /// What every context this plane hands out (whatever tier
    /// answered) counts into: its template events and the `classify_*`
    /// and `ilp_*` totals of its fixpoints and solves. They survive
    /// context eviction.
    counters: Arc<ContextCounters>,
}

impl ReusePlane {
    /// A memory-only plane (LRU tier of [`DEFAULT_CONTEXT_CAPACITY`]
    /// contexts plus the derivation tier; no persistence).
    pub fn in_memory() -> Self {
        let metrics = Registry::new();
        Self {
            memory: ContextCache::new(DEFAULT_CONTEXT_CAPACITY),
            disk: None,
            network: OnceLock::new(),
            staged: Arc::new(Memo::new(MAX_STAGED_ENTRIES, Admission::FirstSighting)),
            offered: Memo::new(DEFAULT_CONTEXT_CAPACITY, Admission::FirstSighting),
            tiers: TierCounters::registered(&metrics),
            counters: Arc::new(ContextCounters::registered(&metrics)),
            metrics,
        }
    }

    /// The plane's metrics registry, a service node's one registry. Every
    /// counter a node's metrics table reports is registered here by the
    /// code that increments it: the plane's tier counters, its contexts'
    /// template events and `classify_*` and `ilp_*` totals, and the
    /// server, compile-memo and peer-fleet counters of the service above
    /// it.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Attaches the network tier. Set-once: later calls are ignored, so
    /// a racing double-attach cannot swap fleets mid-flight.
    pub fn set_network_tier(&self, tier: Arc<dyn NetworkTier>) {
        let _ = self.network.set(tier);
    }

    /// Whether a network tier is attached.
    pub(crate) fn has_network_tier(&self) -> bool {
        self.network.get().is_some()
    }

    /// Cumulative solver counters (pivots, branch-and-bound nodes,
    /// warm-start hits…) of every solve run on a context this plane
    /// handed out: the `ilp_*` rows. They survive cache eviction, so a
    /// long-lived service reports totals, not residue.
    pub fn ilp_stats(&self) -> SolveStats {
        self.counters.ilp.snapshot()
    }

    /// Total size in bytes of the on-disk store (`None` without a disk
    /// tier): the sum over the `ctx-*.pwctx` entries currently present.
    /// Unreadable entries count zero — sizing is diagnostics, not
    /// correctness.
    pub fn disk_store_bytes(&self) -> Option<u64> {
        self.disk_store_footprint().map(|(bytes, _)| bytes)
    }

    /// Number of `ctx-*.pwctx` entries currently in the on-disk store
    /// (`None` without a disk tier).
    pub fn disk_store_entries(&self) -> Option<u64> {
        self.disk_store_footprint().map(|(_, entries)| entries)
    }

    /// One directory scan behind [`disk_store_bytes`](Self::disk_store_bytes)
    /// and [`disk_store_entries`](Self::disk_store_entries): `(bytes,
    /// entries)` over store entries only ([`StoreFile::Entry`]), so
    /// foreign files in the directory do not pollute the metric.
    fn disk_store_footprint(&self) -> Option<(u64, u64)> {
        let disk = self.disk.as_ref()?;
        let entries = match fs::read_dir(&disk.dir) {
            Ok(entries) => entries,
            Err(_) => return Some((0, 0)),
        };
        Some(
            entries
                .flatten()
                .filter(|e| matches!(StoreFile::of(&e.path()), Some(StoreFile::Entry(_))))
                .fold((0, 0), |(bytes, count), e| {
                    (bytes + e.metadata().map_or(0, |m| m.len()), count + 1)
                }),
        )
    }

    /// Attaches the on-disk tier rooted at `dir` (created if missing)
    /// with the [default size cap](DEFAULT_DISK_CAPACITY_BYTES).
    ///
    /// # Errors
    ///
    /// Propagates the directory-creation failure.
    pub fn with_disk_tier(self, dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        self.with_disk_tier_capped(dir, DEFAULT_DISK_CAPACITY_BYTES)
    }

    /// As [`with_disk_tier`](Self::with_disk_tier) with an explicit byte
    /// budget for the store (the GC keeps total entry size at or below
    /// it, evicting oldest-modified entries first).
    ///
    /// # Errors
    ///
    /// Propagates the directory-creation failure.
    ///
    /// # Panics
    ///
    /// Panics when `max_bytes` is zero.
    pub fn with_disk_tier_capped(
        mut self,
        dir: impl Into<PathBuf>,
        max_bytes: u64,
    ) -> std::io::Result<Self> {
        assert!(max_bytes > 0, "a zero-byte disk tier can never hit");
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        self.disk = Some(DiskTier {
            dir,
            max_bytes,
            written: Arc::new(Mutex::new(HashMap::new())),
        });
        Ok(self)
    }

    /// The disk-tier directory, when one is attached.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk.as_ref().map(|d| d.dir.as_path())
    }

    /// Aggregated counters over all tiers.
    pub fn stats(&self) -> ReusePlaneStats {
        let (tiers, counters) = (&self.tiers, &self.counters);
        ReusePlaneStats {
            memory: self.memory.stats(),
            disk_hits: tiers.disk_hits.get(),
            disk_misses: tiers.disk_misses.get(),
            disk_writes: tiers.disk_writes.get(),
            disk_corrupt: tiers.disk_corrupt.get(),
            disk_gc_evictions: tiers.disk_gc_evictions.get(),
            derived: tiers.derived.get(),
            network_hits: tiers.network_hits.get(),
            network_misses: tiers.network_misses.get(),
            network_corrupt: tiers.network_corrupt.get(),
            network_offers: tiers.network_offers.get(),
            cold_builds: tiers.cold_builds.get(),
            template_hits: counters.template_hits.get(),
            template_builds: counters.template_builds.get(),
            objective_hits: counters.objective_hits.get(),
        }
    }

    /// The one way to a context: the context for `(compiled, geometry,
    /// mode)`, answered by the cheapest tier that can — memory, disk,
    /// derivation from a wider lattice sibling, network, cold build — and
    /// filed back into the memory tier, with **which tier answered**: the
    /// per-request provenance a service front-end forwards to its clients
    /// as `served_from`.
    ///
    /// # Errors
    ///
    /// Propagates [`CfgError`] from CFG reconstruction (nothing is cached
    /// on failure). Disk-tier failures are *not* errors; they degrade to
    /// the next tier and are counted in [`stats`](Self::stats).
    pub fn get_or_build_traced(
        &self,
        compiled: &CompiledProgram,
        geometry: CacheGeometry,
        mode: ClassificationMode,
    ) -> Result<(Arc<AnalysisContext>, ReuseTier), CfgError> {
        // One pass over the image keys every tier: the content key, and
        // the family the derivation tier matches and the memory tier files.
        let (key, family) = ContextCache::keys_of(compiled, geometry, mode);
        // Every resident context entered the plane before it was filed.
        if let Some(context) = self.memory.lookup(key) {
            return Ok((context, ReuseTier::Memory));
        }

        // Every tier below the memory tier files or checks entries under
        // a second fingerprint of the expander inputs.
        let at = Lookup {
            compiled,
            key,
            fingerprint: expander_fingerprint(compiled, geometry, mode),
            geometry,
            mode,
        };
        let (context, tier) = match self.load_local(&at) {
            Some((restored, local_tier)) => (Arc::new(restored), local_tier),
            None => match self.derive_from_family(family, geometry, mode) {
                Some(derived) => {
                    derived.set_fingerprint(at.fingerprint);
                    (derived, ReuseTier::Derived)
                }
                None => match self.fetch_from_network(&at) {
                    Some(fetched) => (Arc::new(fetched), ReuseTier::Network),
                    None => {
                        let built = AnalysisContext::build_with_mode(
                            compiled,
                            geometry,
                            mode,
                            at.fingerprint,
                        )?;
                        self.tiers.cold_builds.inc();
                        (Arc::new(built), ReuseTier::Cold)
                    }
                },
            },
        };

        // Whatever tier answered, the context carries its key and counts
        // its work in the plane's registry.
        context.enter_plane(key, &self.counters);
        Ok((self.memory.file(key, family, context), tier))
    }

    /// Writes `context`'s artifacts through to the disk tier (no-op
    /// without one, or when the stored entry is already as rich) and
    /// offers them to the network tier's owning peer (same richness
    /// gate, tracked separately). Returns whether a disk entry was
    /// written. IO failures are logged and counted, never raised —
    /// persistence is an optimization. A context this plane handed out
    /// is written under the key it is filed under; `compiled` is hashed
    /// only for a context built elsewhere.
    pub fn persist(&self, compiled: &CompiledProgram, context: &AnalysisContext) -> bool {
        // Checked before keying: a plane that cannot write must not hash
        // the image on every analysis.
        if !self.can_persist() {
            return false;
        }
        let key = context
            .key()
            .unwrap_or_else(|| ContextCache::key_of(compiled, *context.geometry(), context.mode()));
        self.persist_keyed(key, context)
    }

    /// Writes every memory-tier context through to the disk tier,
    /// returning how many entries were (re)written. Call at the end of a
    /// sweep to capture lazily-warmed artifacts the per-analysis
    /// write-through may have missed.
    pub fn flush(&self) -> usize {
        if !self.can_persist() {
            return 0;
        }
        self.memory
            .entries_snapshot()
            .into_iter()
            .filter(|(key, context)| self.persist_keyed(*key, context))
            .count()
    }

    /// Derivation tier: the widest resident sibling of `family` that is
    /// strictly wider than `geometry`, if any.
    fn derive_from_family(
        &self,
        family: u64,
        geometry: CacheGeometry,
        mode: ClassificationMode,
    ) -> Option<Arc<AnalysisContext>> {
        // Cold mode is the from-scratch reference; deriving would defeat
        // its purpose.
        if mode != ClassificationMode::Incremental {
            return None;
        }
        // A restored sibling expands its graph here; one whose program
        // does not expand (a forged entry) cannot derive.
        let source = self
            .memory
            .wider_siblings(family, geometry)
            .into_iter()
            .find(|wider| wider.graph().is_ok())?;
        let derived = Arc::new(source.derive_narrower(geometry));
        self.tiers.derived.inc();
        Some(derived)
    }

    /// Records that the network tier holds `key`'s entry at `richness`
    /// (an insert keeps the first value, so a new richness replaces the
    /// old by removal first).
    fn record_offer(&self, key: u64, richness: Richness) {
        self.offered.remove(&key);
        self.offered.insert(key, richness);
    }

    /// Restores a context from serialized entry bytes: the hit path of
    /// [`decode_context`] — envelope, both fingerprints, the presence
    /// summary and the solve section — with the classification tail left
    /// in `bytes` for first use. A tail that later fails its decode is
    /// reported as corruption of `tier`'s bytes.
    fn restore(
        &self,
        at: &Lookup<'_>,
        bytes: Vec<u8>,
        tier: ReuseTier,
    ) -> Result<AnalysisContext, FrameError> {
        let _span = pwcet_obs::stage_span(pwcet_obs::Stage::CodecDecode);
        let Hit {
            solved,
            presence,
            tail_at,
        } = decode_context(&bytes, at.key, at.fingerprint, at.geometry)?;
        let key = at.key;
        let sink = LateCorruption {
            key,
            corrupt: Arc::clone(self.tiers.corrupt(tier)),
            staged: Arc::clone(&self.staged),
            disk: self
                .disk
                .as_ref()
                .map(|disk| (disk.entry_path(key), Arc::clone(&disk.written))),
        };
        Ok(AnalysisContext::restored(
            at.compiled,
            at.geometry,
            at.mode,
            at.fingerprint,
            solved,
            RawTail::in_entry(bytes, presence, tail_at),
            sink,
        ))
    }

    /// Local-entry probe — the disk tier plus the staged peer offers:
    /// decode, validate against the live CFG, and restore, reporting
    /// whether the bytes came from the store ([`ReuseTier::Disk`]) or a
    /// staged peer offer ([`ReuseTier::Network`]). Every failure degrades
    /// to `None` with a counted stat; a corrupt store file is
    /// additionally deleted so it cannot fail again.
    fn load_local(&self, at: &Lookup<'_>) -> Option<(AnalysisContext, ReuseTier)> {
        let key = at.key;
        let disk_bytes = self
            .disk
            .as_ref()
            .and_then(|disk| fs::read(disk.entry_path(key)).ok());
        #[cfg(feature = "chaos")]
        let disk_bytes = disk_bytes.map(|mut bytes| {
            // A flipped bit on the read path models silent media
            // corruption: strict decode validation catches it, the
            // entry is deleted and rebuilt cold (`disk_corrupt`).
            if let Some(entropy) = pwcet_chaos::roll(pwcet_chaos::FaultPoint::DiskBitFlip) {
                if !bytes.is_empty() {
                    let at = (entropy as usize) % bytes.len();
                    bytes[at] ^= 1 << ((entropy >> 32) % 8);
                }
            }
            bytes
        });
        let (bytes, tier) = match disk_bytes {
            Some(bytes) => (bytes, ReuseTier::Disk),
            None => {
                if self.disk.is_some() {
                    // Absent (or unreadable) entry: a plain disk miss.
                    self.tiers.disk_misses.inc();
                }
                let staged = self.staged.remove(&key)?;
                (Arc::unwrap_or_clone(staged), ReuseTier::Network)
            }
        };
        match self.restore(at, bytes, tier) {
            Ok(context) => {
                let richness = Richness::of(&context);
                if tier == ReuseTier::Disk {
                    let disk = self.disk.as_ref().expect("disk bytes imply a disk tier");
                    disk.written
                        .lock()
                        .expect("disk tier index")
                        .insert(key, richness);
                }
                // A restored entry is as rich as its bytes: offering it
                // back to the fleet would hand the owner what it (or a
                // peer) already holds.
                if self.has_network_tier() {
                    self.record_offer(key, richness);
                }
                match tier {
                    ReuseTier::Disk => self.tiers.disk_hits.inc(),
                    _ => self.tiers.network_hits.inc(),
                }
                Some((context, tier))
            }
            Err(err) => {
                self.tiers.corrupt(tier).inc();
                if tier == ReuseTier::Disk {
                    let disk = self.disk.as_ref().expect("disk bytes imply a disk tier");
                    let path = disk.entry_path(key);
                    eprintln!(
                        "pwcet-core: discarding corrupt context entry {} ({err}); rebuilding cold",
                        path.display()
                    );
                    let _ = fs::remove_file(&path);
                    self.tiers.disk_misses.inc();
                } else {
                    eprintln!(
                        "pwcet-core: discarding corrupt staged peer entry for key {key:016x} \
                         ({err}); rebuilding cold"
                    );
                }
                None
            }
        }
    }

    /// Network tier probe: fetch the serialized entry from the attached
    /// [`NetworkTier`], decode it with the same strict validation a disk
    /// entry gets, and write it through to the local store so a restart
    /// stays warm without re-fetching. An undecodable fetch is counted
    /// ([`ReusePlaneStats::network_corrupt`]) and degrades to a cold
    /// build — a bad peer costs time, never correctness.
    fn fetch_from_network(&self, at: &Lookup<'_>) -> Option<AnalysisContext> {
        let key = at.key;
        let network = self.network.get()?;
        let fetched = {
            let _span = pwcet_obs::stage_span(pwcet_obs::Stage::PeerFetch);
            network.fetch(key)
        };
        let Some(bytes) = fetched else {
            self.tiers.network_misses.inc();
            return None;
        };
        // The restored context keeps its own copy: the fetched bytes are
        // also written through as they came.
        match self.restore(at, bytes.clone(), ReuseTier::Network) {
            Ok(context) => {
                let richness = Richness::of(&context);
                self.store_entry_bytes(key, &bytes, richness);
                // Never offer a fetched entry back: its owner just
                // served it to us.
                self.record_offer(key, richness);
                self.tiers.network_hits.inc();
                Some(context)
            }
            Err(err) => {
                eprintln!(
                    "pwcet-core: discarding corrupt peer entry for key {key:016x} ({err}); \
                     rebuilding cold"
                );
                self.tiers.network_corrupt.inc();
                self.tiers.network_misses.inc();
                None
            }
        }
    }

    /// Files already-serialized entry bytes into the local store: the
    /// disk tier when one is attached, the bounded staging area
    /// otherwise.
    fn store_entry_bytes(&self, key: u64, bytes: &[u8], richness: Richness) {
        match self.disk.as_ref() {
            Some(disk) => {
                self.write_entry(disk, key, bytes, Some(richness));
            }
            None => {
                self.staged.insert(key, Arc::new(bytes.to_vec()));
            }
        }
    }

    /// The serialized entry for `key`, if this plane can produce one —
    /// encoded fresh from the memory tier, read back from the disk
    /// store, or taken from the staged peer offers. Store bytes are
    /// envelope-validated before serving so a locally corrupt file is
    /// never propagated to a peer. This is what a service node answers a
    /// peer's `FetchEntry` with.
    pub fn export_entry(&self, key: u64) -> Option<Vec<u8>> {
        if let Some(context) = self.memory.peek(key) {
            if Richness::of(&context) != Richness::default() {
                if let Some(bytes) = context.encode_entry(key) {
                    return Some(bytes);
                }
            }
        }
        if let Some(disk) = self.disk.as_ref() {
            if let Ok(bytes) = fs::read(disk.entry_path(key)) {
                if validate_entry(&bytes, key).is_ok() {
                    return Some(bytes);
                }
            }
        }
        self.staged.peek(&key).map(|bytes| bytes.to_vec())
    }

    /// Installs a serialized entry offered by a peer. The envelope
    /// (magic, version, length, checksum, embedded key) is validated up
    /// front — full semantic validation happens at decode time against
    /// the live CFG, so a malicious peer can waste store bytes, never
    /// corrupt a result. Returns whether the entry was stored; an entry
    /// this plane already holds is refused (the local copy may be
    /// richer, and decode re-validates anyway).
    pub fn import_entry(&self, key: u64, bytes: Vec<u8>) -> bool {
        if let Err(err) = validate_entry(&bytes, key) {
            eprintln!("pwcet-core: refusing offered peer entry for key {key:016x} ({err})");
            self.tiers.network_corrupt.inc();
            return false;
        }
        match self.disk.as_ref() {
            Some(disk) => {
                if disk.entry_path(key).exists() {
                    return false;
                }
                self.write_entry(disk, key, &bytes, None)
            }
            None => {
                if self.memory.peek(key).is_some() {
                    return false;
                }
                // One insert checks and stores: of two peers offering the
                // same key at once, only the stored one reports `true`.
                let bytes = Arc::new(bytes);
                Arc::ptr_eq(&self.staged.insert(key, Arc::clone(&bytes)), &bytes)
            }
        }
    }

    /// Whether a disk or a network tier can take an entry:
    /// [`persist`](Self::persist) and [`flush`](Self::flush) check it
    /// before any keying or encoding.
    fn can_persist(&self) -> bool {
        self.disk.is_some() || self.network.get().is_some()
    }

    fn persist_keyed(&self, key: u64, context: &AnalysisContext) -> bool {
        let network = self.network.get();
        let richness = Richness::of(context);
        if richness == Richness::default() {
            return false; // nothing worth storing yet
        }
        let disk_wants = self.disk.as_ref().is_some_and(|disk| {
            let written = disk.written.lock().expect("disk tier index");
            written.get(&key).is_none_or(|have| *have < richness)
        });
        let net_wants =
            network.is_some() && self.offered.get(&key).is_none_or(|have| have < richness);
        if !disk_wants && !net_wants {
            return false;
        }
        let Some(bytes) = context.encode_entry(key) else {
            return false; // no expander fingerprint to file it under
        };
        if net_wants {
            let network = network.expect("net_wants implies a network tier");
            network.offer(key, &bytes);
            self.record_offer(key, richness);
            self.tiers.network_offers.inc();
        }
        if !disk_wants {
            return false;
        }
        let disk = self.disk.as_ref().expect("disk_wants implies a disk tier");
        self.write_entry(disk, key, &bytes, Some(richness))
    }

    /// The disk tier's one write path, for a persisted context, a fetched
    /// peer entry and an offered one alike. A written entry is indexed at
    /// `richness` when the caller knows it, counts in `disk_writes` and
    /// runs the GC; a failed write is logged and counts in
    /// `disk_corrupt`. Returns whether the entry was written.
    fn write_entry(
        &self,
        disk: &DiskTier,
        key: u64,
        bytes: &[u8],
        richness: Option<Richness>,
    ) -> bool {
        let path = disk.entry_path(key);
        if let Err(err) = write_atomically(&path, bytes) {
            eprintln!(
                "pwcet-core: failed to write store entry {} ({err}); the entry is not stored",
                path.display()
            );
            self.tiers.disk_corrupt.inc();
            return false;
        }
        if let Some(richness) = richness {
            disk.written
                .lock()
                .expect("disk tier index")
                .insert(key, richness);
        }
        self.tiers.disk_writes.inc();
        self.collect_garbage(disk, &path);
        true
    }

    /// Size-capped GC over the files the plane wrote ([`StoreFile`]):
    /// while the store entries exceed the budget, evict the
    /// oldest-modified ones — except the one just written, so a single
    /// oversized store still makes forward progress. Evicted keys are
    /// dropped from the write-through index, so a later [`persist`]
    /// (or [`flush`](Self::flush)) re-persists them instead of believing
    /// they are still on disk. Also sweeps temp files orphaned by a
    /// crashed writer. Foreign files are neither counted nor removed.
    ///
    /// [`persist`]: Self::persist
    fn collect_garbage(&self, disk: &DiskTier, just_written: &Path) {
        let Ok(entries) = fs::read_dir(&disk.dir) else {
            return;
        };
        let now = std::time::SystemTime::now();
        let mut files: Vec<(PathBuf, u64, u64, std::time::SystemTime)> = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(kind) = StoreFile::of(&path) else {
                continue;
            };
            let Ok(meta) = entry.metadata() else { continue };
            let Ok(mtime) = meta.modified() else { continue };
            match kind {
                StoreFile::Entry(key) => files.push((path, key, meta.len(), mtime)),
                // A temp file this old cannot belong to a live write (a
                // write lasts milliseconds): a crashed writer orphaned it.
                StoreFile::Temp
                    if now
                        .duration_since(mtime)
                        .is_ok_and(|age| age.as_secs() >= STALE_TMP_SECS) =>
                {
                    let _ = fs::remove_file(&path);
                }
                StoreFile::Temp => {}
            }
        }
        let mut total: u64 = files.iter().map(|(_, _, len, _)| len).sum();
        if total <= disk.max_bytes {
            return;
        }
        files.sort_by_key(|(_, _, _, mtime)| *mtime);
        let mut evicted = 0;
        let mut written = disk.written.lock().expect("disk tier index");
        for (path, key, len, _) in files {
            if total <= disk.max_bytes {
                break;
            }
            if path == just_written {
                continue;
            }
            if fs::remove_file(&path).is_ok() {
                written.remove(&key);
                total -= len;
                evicted += 1;
            }
        }
        drop(written);
        self.tiers.disk_gc_evictions.add(evicted);
    }
}

/// One request's identity below the memory tier: the program, the
/// content key and expander fingerprint its entries are filed and checked
/// under, and the geometry and mode it is analyzed for.
struct Lookup<'a> {
    compiled: &'a CompiledProgram,
    key: u64,
    fingerprint: u64,
    geometry: CacheGeometry,
    mode: ClassificationMode,
}

/// Where a restored context reports a classification tail that passed
/// the checksum at read but failed its deferred decode: the plane's
/// corruption counter of the tier the bytes came from and the stores
/// holding them. The entry is discarded — store file, write-through
/// index entry, staged copy — so the next persist writes a healthy one.
#[derive(Debug)]
pub(crate) struct LateCorruption {
    key: u64,
    /// `disk_corrupt` for a store entry, `network_corrupt` for a fetched
    /// or staged peer entry.
    corrupt: Arc<Counter>,
    staged: StagedEntries,
    /// The store file of the key and the disk tier's write-through index,
    /// when a disk tier is attached (a fetched entry is written through
    /// to it too).
    disk: Option<(PathBuf, WriteIndex)>,
}

impl LateCorruption {
    pub(crate) fn report(&self, err: &FrameError) {
        eprintln!(
            "pwcet-core: discarding context entry {:016x} whose classification tail failed \
             at first use ({err}); recomputing it cold",
            self.key
        );
        if let Some((path, written)) = &self.disk {
            let _ = fs::remove_file(path);
            written.lock().expect("disk tier index").remove(&self.key);
        }
        self.staged.remove(&self.key);
        self.corrupt.inc();
    }
}

/// Temp files older than this are crashed-writer orphans the GC removes.
const STALE_TMP_SECS: u64 = 60;

/// Writes via a uniquely-named sibling temp file + rename, so readers
/// never observe a half-written entry and concurrent writers of the same
/// key never interleave into one buffer (last rename wins; both buffers
/// are complete entries). A crash between create and rename leaves only
/// an orphaned temp file, which the GC sweeps.
fn write_atomically(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    #[cfg(feature = "chaos")]
    if pwcet_chaos::should_fire(pwcet_chaos::FaultPoint::DiskWriteError) {
        // An ENOSPC-style refusal before any byte lands: the entry
        // simply is not persisted and the caller counts the failure.
        return Err(std::io::Error::other("chaos: injected disk write error"));
    }
    #[cfg(feature = "chaos")]
    let bytes = match pwcet_chaos::roll(pwcet_chaos::FaultPoint::DiskShortWrite) {
        // A short write that still gets renamed into place: the
        // truncated entry reads back, fails strict decode validation,
        // and is deleted and rebuilt cold — never trusted.
        Some(entropy) if !bytes.is_empty() => &bytes[..(entropy as usize) % bytes.len()],
        _ => bytes,
    };
    static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = WRITE_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("{}-{seq}.tmp", std::process::id()));
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwcet_progen::{stmt, Program};

    fn compiled(name: &str, iterations: u32) -> CompiledProgram {
        Program::new(name)
            .with_function("main", stmt::loop_(iterations, stmt::compute(12)))
            .compile(0x0040_0000)
            .unwrap()
    }

    fn geometry() -> CacheGeometry {
        CacheGeometry::paper_default()
    }

    const MODE: ClassificationMode = ClassificationMode::Incremental;

    fn get(
        plane: &ReusePlane,
        program: &CompiledProgram,
        geometry: CacheGeometry,
    ) -> Arc<AnalysisContext> {
        plane
            .get_or_build_traced(program, geometry, MODE)
            .unwrap()
            .0
    }

    #[test]
    fn memory_tier_answers_repeats() {
        let plane = ReusePlane::in_memory();
        let program = compiled("p", 10);
        let a = get(&plane, &program, geometry());
        let b = get(&plane, &program, geometry());
        assert!(Arc::ptr_eq(&a, &b));
        let stats = plane.stats();
        assert_eq!((stats.memory.hits, stats.memory.misses), (1, 1));
        assert_eq!(stats.cold_builds, 1);
        assert_eq!(stats.derived, 0);
    }

    #[test]
    fn narrower_sibling_is_derived_not_built() {
        let plane = ReusePlane::in_memory();
        let program = compiled("p", 10);
        let wide = get(&plane, &program, geometry());
        wide.prewarm(pwcet_par::Parallelism::Sequential);
        for ways in [2u32, 1] {
            let narrow = get(&plane, &program, geometry().with_ways(ways));
            assert_eq!(narrow.geometry().ways(), ways);
        }
        let stats = plane.stats();
        assert_eq!(stats.cold_builds, 1, "only the widest builds cold");
        assert_eq!(stats.derived, 2);
    }

    #[test]
    fn cold_mode_never_derives() {
        let plane = ReusePlane::in_memory();
        let program = compiled("p", 10);
        plane
            .get_or_build_traced(&program, geometry(), ClassificationMode::Cold)
            .unwrap();
        plane
            .get_or_build_traced(&program, geometry().with_ways(2), ClassificationMode::Cold)
            .unwrap();
        let stats = plane.stats();
        assert_eq!(stats.derived, 0);
        assert_eq!(stats.cold_builds, 2);
    }

    #[test]
    fn derivation_never_widens_or_crosses_families() {
        let plane = ReusePlane::in_memory();
        let program = compiled("p", 10);
        // Narrow first: the wide sibling must NOT be derived from it.
        get(&plane, &program, geometry().with_ways(2));
        get(&plane, &program, geometry());
        // A different set count is a different family.
        get(&plane, &program, CacheGeometry::new(8, 2, 16));
        let stats = plane.stats();
        assert_eq!(stats.derived, 0);
        assert_eq!(stats.cold_builds, 3);
    }

    #[test]
    fn traced_lookups_report_the_answering_tier() {
        let dir = std::env::temp_dir().join(format!("pwcet-traced-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plane = ReusePlane::in_memory().with_disk_tier(&dir).unwrap();
        let program = compiled("p", 10);

        let (context, tier) = plane
            .get_or_build_traced(&program, geometry(), MODE)
            .unwrap();
        assert_eq!(tier, ReuseTier::Cold);
        context.prewarm(pwcet_par::Parallelism::Sequential);
        let (_, tier) = plane
            .get_or_build_traced(&program, geometry(), MODE)
            .unwrap();
        assert_eq!(tier, ReuseTier::Memory);
        let (_, tier) = plane
            .get_or_build_traced(&program, geometry().with_ways(2), MODE)
            .unwrap();
        assert_eq!(tier, ReuseTier::Derived);

        // A fresh plane over the same store answers from disk.
        plane.persist(&program, &context);
        let fresh = ReusePlane::in_memory().with_disk_tier(&dir).unwrap();
        let (_, tier) = fresh
            .get_or_build_traced(&program, geometry(), MODE)
            .unwrap();
        assert_eq!(tier, ReuseTier::Disk);
        assert_eq!(tier.label(), "disk");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// In-process stand-in for the serve layer's peer fleet: a shared
    /// map of serialized entries.
    #[derive(Debug, Default)]
    struct FakeNetwork {
        entries: Mutex<HashMap<u64, Vec<u8>>>,
        offers: Mutex<Vec<u64>>,
    }

    impl NetworkTier for FakeNetwork {
        fn fetch(&self, key: u64) -> Option<Vec<u8>> {
            self.entries.lock().unwrap().get(&key).cloned()
        }

        fn offer(&self, key: u64, bytes: &[u8]) {
            self.offers.lock().unwrap().push(key);
            self.entries.lock().unwrap().insert(key, bytes.to_vec());
        }
    }

    #[test]
    fn network_tier_answers_what_a_peer_offered() {
        let network = Arc::new(FakeNetwork::default());
        let program = compiled("p", 10);

        // Plane A builds cold, prewarms, and offers the entry on persist.
        let a = ReusePlane::in_memory();
        a.set_network_tier(Arc::clone(&network) as Arc<dyn NetworkTier>);
        let (context, tier) = a.get_or_build_traced(&program, geometry(), MODE).unwrap();
        assert_eq!(tier, ReuseTier::Cold);
        context.prewarm(pwcet_par::Parallelism::Sequential);
        a.persist(&program, &context);
        assert_eq!(a.stats().network_offers, 1);
        // Same richness again: the offer index suppresses the re-offer.
        a.persist(&program, &context);
        assert_eq!(a.stats().network_offers, 1);

        // A fresh plane over the same fleet fetches instead of building.
        let b = ReusePlane::in_memory();
        b.set_network_tier(Arc::clone(&network) as Arc<dyn NetworkTier>);
        let (fetched, tier) = b.get_or_build_traced(&program, geometry(), MODE).unwrap();
        assert_eq!(tier, ReuseTier::Network);
        let stats = b.stats();
        assert_eq!((stats.network_hits, stats.cold_builds), (1, 0));
        // A fetched entry is never offered back to its owner.
        b.persist(&program, &fetched);
        assert_eq!(network.offers.lock().unwrap().len(), 1);
    }

    #[test]
    fn corrupt_network_entry_degrades_to_counted_cold_build() {
        let network = Arc::new(FakeNetwork::default());
        let program = compiled("p", 10);
        let key = ContextCache::key_of(&program, geometry(), MODE);
        network.entries.lock().unwrap().insert(key, vec![0xAB; 64]);

        let plane = ReusePlane::in_memory();
        plane.set_network_tier(Arc::clone(&network) as Arc<dyn NetworkTier>);
        let (_, tier) = plane
            .get_or_build_traced(&program, geometry(), MODE)
            .unwrap();
        assert_eq!(tier, ReuseTier::Cold);
        let stats = plane.stats();
        assert_eq!((stats.network_corrupt, stats.cold_builds), (1, 1));
    }

    #[test]
    fn export_import_round_trips_an_entry() {
        let plane = ReusePlane::in_memory();
        let program = compiled("p", 10);
        let key = ContextCache::key_of(&program, geometry(), MODE);
        assert!(plane.export_entry(key).is_none(), "nothing to export yet");
        let context = get(&plane, &program, geometry());
        context.prewarm(pwcet_par::Parallelism::Sequential);
        let bytes = plane.export_entry(key).expect("warm context exports");

        let other = ReusePlane::in_memory();
        assert!(!other.import_entry(key, vec![1, 2, 3]), "garbage refused");
        assert_eq!(other.stats().network_corrupt, 1);
        assert!(other.import_entry(key, bytes));
        let (_, tier) = other
            .get_or_build_traced(&program, geometry(), MODE)
            .unwrap();
        assert_eq!(tier, ReuseTier::Network);
        assert_eq!(other.stats().cold_builds, 0);
    }

    #[test]
    fn an_offer_of_a_staged_key_is_refused() {
        let plane = ReusePlane::in_memory();
        let (_, context) = warm(10);
        let bytes = context.encode_entry(7).unwrap();
        assert!(plane.import_entry(7, bytes.clone()));
        assert!(!plane.import_entry(7, bytes), "one copy is kept");
        assert_eq!(plane.staged.stats().len, 1);
    }

    /// A prewarmed context of `compiled("p", iterations)`, built as the
    /// cold tier builds it but filed under no key.
    fn warm(iterations: u32) -> (CompiledProgram, AnalysisContext) {
        let program = compiled("p", iterations);
        let fingerprint = expander_fingerprint(&program, geometry(), MODE);
        let context =
            AnalysisContext::build_with_mode(&program, geometry(), MODE, fingerprint).unwrap();
        context.prewarm(pwcet_par::Parallelism::Sequential);
        (program, context)
    }

    #[test]
    fn a_disk_only_plane_records_no_offers() {
        let dir = std::env::temp_dir().join(format!("pwcet-no-offers-{}", std::process::id()));
        let writer = ReusePlane::in_memory().with_disk_tier(&dir).unwrap();
        let reader = ReusePlane::in_memory().with_disk_tier(&dir).unwrap();
        for (program, context) in (1..=100).map(warm) {
            assert!(writer.persist(&program, &context));
            let (_, tier) = reader
                .get_or_build_traced(&program, geometry(), MODE)
                .unwrap();
            assert_eq!(tier, ReuseTier::Disk);
        }
        assert_eq!(reader.offered.stats().len, 0, "no network tier reads it");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn offer_index_stays_at_the_memory_capacity_and_keeps_admitting() {
        let cap = DEFAULT_CONTEXT_CAPACITY;
        let plane = ReusePlane::in_memory();
        plane.set_network_tier(Arc::new(FakeNetwork::default()));
        let offers = |contexts: &[(CompiledProgram, AnalysisContext)], rounds| {
            let before = plane.stats().network_offers;
            for (program, context) in (0..rounds).flat_map(|_| contexts) {
                plane.persist(program, context);
                assert!(plane.offered.stats().len <= cap);
            }
            plane.stats().network_offers - before
        };
        let sweep: Vec<_> = (1..=cap as u32 + 8).map(warm).collect();
        let forgotten = offers(&sweep, 2);
        assert_eq!(
            forgotten,
            2 * sweep.len() as u64,
            "a forgotten key is offered again"
        );
        let working_set: Vec<_> = (100..102).map(warm).collect();
        assert_eq!(offers(&working_set, 3), 2, "recorded at once, then known");
    }

    #[test]
    fn staged_entries_stay_at_their_cap_and_keep_admitting() {
        let plane = ReusePlane::in_memory();
        let (_, context) = warm(10);
        let entry = |key| context.encode_entry(key).unwrap();
        let sweep = 0..MAX_STAGED_ENTRIES as u64 + 8;
        for key in sweep.clone().chain(sweep) {
            plane.import_entry(key, entry(key));
            assert!(plane.staged.stats().len <= MAX_STAGED_ENTRIES);
        }
        let working_set = 1000..1000 + MAX_STAGED_ENTRIES as u64 / 2;
        for key in working_set.clone() {
            assert!(plane.import_entry(key, entry(key)), "admitted when full");
        }
        for key in working_set.clone().chain(working_set) {
            assert_eq!(plane.export_entry(key), Some(entry(key)));
        }
    }

    #[test]
    fn reuse_rate_aggregates_tiers() {
        let mut stats = ReusePlaneStats::default();
        assert_eq!(stats.reuse_rate(), 0.0);
        stats.disk_hits = 2;
        stats.derived = 1;
        stats.cold_builds = 1;
        assert!((stats.reuse_rate() - 0.75).abs() < 1e-12);
    }
}
