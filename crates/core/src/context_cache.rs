//! Content-addressed cache of [`AnalysisContext`]s.
//!
//! Sweeps and batch runs repeatedly analyze the same program images:
//! every `pfail` point of a sensitivity sweep, every protection level of
//! a comparison, and every re-run of the suite rebuilds an identical
//! CFG and re-converges identical classification fixpoints. The
//! [`ContextCache`] makes those repeats nearly free: contexts are keyed
//! by a **content fingerprint** of everything that determines the CFG
//! and the CHMC classification — the program image (base address and
//! machine words), the function extents and loop bounds the CFG expander
//! consumes, the cache geometry, and the classification mode — and are
//! shared as [`Arc`]s, so a hit also reuses every classification level
//! already memoized inside the context.
//!
//! Knobs that *don't* affect the CFG or the classification — the fault
//! model (`pfail`), protection level, cache timing, parallelism — are
//! deliberately **excluded** from the key: analyses
//! that only vary those share one entry, which is the entire point.
//! `crates/core/tests/context_cache.rs` pins both directions (distinct
//! keys for geometry changes, shared keys across `pfail`).
//!
//! The cache is a [`Memo`]: least-recently-used eviction at a fixed
//! capacity, hit/miss/eviction counters via [`ContextCache::stats`]. Each
//! entry also carries its family fingerprint (the key without the way
//! count), which the reuse plane's derivation tier matches wider
//! siblings by.

use std::sync::Arc;

use pwcet_analysis::ClassificationMode;
use pwcet_cache::CacheGeometry;
use pwcet_par::{Admission, Memo, MemoStats};
use pwcet_progen::CompiledProgram;

use crate::codec::Fnv1a;
use crate::context::AnalysisContext;

/// Default number of cached contexts — comfortably above the benchmark
/// suite size, so a full-suite sweep never thrashes.
pub const DEFAULT_CONTEXT_CAPACITY: usize = 64;

/// Counters and occupancy of a [`ContextCache`].
pub type ContextCacheStats = MemoStats;

/// A cached context and the family fingerprint it was filed under.
#[derive(Debug, Clone)]
struct Resident {
    context: Arc<AnalysisContext>,
    family: u64,
}

/// A thread-safe, content-addressed, LRU-evicting store of shared
/// [`AnalysisContext`]s.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pwcet_core::{AnalysisConfig, ContextCache, PwcetAnalyzer, ReusePlane};
/// use pwcet_progen::{stmt, Program};
///
/// # fn main() -> Result<(), pwcet_core::CoreError> {
/// let cache = Arc::new(ContextCache::new(8));
/// let plane = Arc::new(ReusePlane::with_memory(Arc::clone(&cache)));
/// let analyzer = PwcetAnalyzer::new(AnalysisConfig::paper_default()).with_reuse_plane(plane);
/// let program = Program::new("p").with_function("main", stmt::loop_(10, stmt::compute(8)));
/// analyzer.analyze(&program)?;
/// analyzer.analyze(&program)?; // context (CFG + classifications) reused
/// let stats = cache.stats();
/// assert_eq!((stats.misses, stats.hits), (1, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ContextCache {
    /// Keyed by [`key_of`](Self::key_of).
    memo: Memo<u64, Resident>,
}

impl Default for ContextCache {
    fn default() -> Self {
        Self::new(DEFAULT_CONTEXT_CAPACITY)
    }
}

impl ContextCache {
    /// An empty cache holding at most `capacity` contexts.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self {
            memo: Memo::new(capacity, Admission::FirstSighting),
        }
    }

    /// The content fingerprint a `(program, geometry, mode)` triple is
    /// filed under: an FNV-1a hash of the image base and words, the
    /// function extents, the loop bounds, the cache geometry, and the
    /// classification mode — everything that shapes the CFG and the
    /// CHMC, and nothing that doesn't.
    pub fn key_of(
        compiled: &CompiledProgram,
        geometry: CacheGeometry,
        mode: ClassificationMode,
    ) -> u64 {
        Self::keys_of(compiled, geometry, mode).0
    }

    /// The content key and the **family fingerprint**, from one pass
    /// over the image. The family hashes everything
    /// [`key_of`](Self::key_of) hashes *except* the way count:
    /// geometries that differ only in associativity share a family — the
    /// grouping the reuse plane's cross-geometry derivation matches
    /// siblings by.
    pub(crate) fn keys_of(
        compiled: &CompiledProgram,
        geometry: CacheGeometry,
        mode: ClassificationMode,
    ) -> (u64, u64) {
        let mut hash = Fnv1a::new();
        hash.write_u32(compiled.image().base());
        for &word in compiled.image().words() {
            hash.write_u32(word);
        }
        // The CFG expander consumes extents and loop bounds alongside the
        // raw image; two images with identical bytes but different
        // metadata classify differently.
        for function in compiled.functions() {
            hash.write_bytes(function.name().as_bytes());
            hash.write_u32(function.entry());
            hash.write_u32(function.end());
        }
        for bound in compiled.loop_bounds() {
            hash.write_u32(bound.header);
            hash.write_u32(bound.bound);
        }
        hash.write_u32(geometry.sets());
        hash.write_u32(geometry.block_bytes());
        hash.write_u32(match mode {
            ClassificationMode::Cold => 0,
            ClassificationMode::Incremental => 1,
        });
        let family = hash.finish();
        hash.write_u32(geometry.ways());
        (hash.finish(), family)
    }

    /// Looks `key` up, counting a hit or a miss. The [`ReusePlane`]
    /// probes this tier first and, on a miss, fills it through
    /// [`file`](Self::file) from whichever lower tier answered.
    ///
    /// [`ReusePlane`]: crate::ReusePlane
    pub(crate) fn lookup(&self, key: u64) -> Option<Arc<AnalysisContext>> {
        self.memo.get(&key).map(|resident| resident.context)
    }

    /// Looks `key` up **without** touching recency or the counters — for
    /// serving and refusing peer entries, where a probe must not distort
    /// the stats or keep an otherwise-dead entry alive.
    pub(crate) fn peek(&self, key: u64) -> Option<Arc<AnalysisContext>> {
        self.memo.peek(&key).map(|resident| resident.context)
    }

    /// Files `context` under its content key and its family (both from
    /// [`keys_of`](Self::keys_of)). The expensive build runs outside any
    /// lock, so two threads may race on one key: the first insert wins,
    /// and the loser gets the winner's (possibly already warmed) context
    /// back.
    pub(crate) fn file(
        &self,
        key: u64,
        family: u64,
        context: Arc<AnalysisContext>,
    ) -> Arc<AnalysisContext> {
        self.memo.insert(key, Resident { context, family }).context
    }

    /// The resident contexts of `family` that are strictly wider than
    /// `geometry`, widest first: the derivation tier's candidate
    /// sources. Neither counts nor recency change.
    pub(crate) fn wider_siblings(
        &self,
        family: u64,
        geometry: CacheGeometry,
    ) -> Vec<Arc<AnalysisContext>> {
        let mut wider: Vec<Arc<AnalysisContext>> = self
            .memo
            .snapshot()
            .into_iter()
            .map(|(_, resident)| resident)
            .filter(|resident| {
                resident.family == family && resident.context.geometry().ways() > geometry.ways()
            })
            .map(|resident| resident.context)
            .collect();
        wider.sort_by_key(|context| std::cmp::Reverse(context.geometry().ways()));
        wider
    }

    /// A snapshot of every `(key, context)` pair — what a
    /// [`ReusePlane::flush`](crate::ReusePlane::flush) walks when writing
    /// the memory tier through to disk.
    pub(crate) fn entries_snapshot(&self) -> Vec<(u64, Arc<AnalysisContext>)> {
        self.memo
            .snapshot()
            .into_iter()
            .map(|(key, resident)| (key, resident.context))
            .collect()
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> ContextCacheStats {
        self.memo.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReusePlane;
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

    /// A plane over a fresh cache of `capacity`: the one lookup path,
    /// which files what it builds into the cache.
    fn plane(capacity: usize) -> (Arc<ContextCache>, ReusePlane) {
        let cache = Arc::new(ContextCache::new(capacity));
        (Arc::clone(&cache), ReusePlane::with_memory(cache))
    }

    fn get(plane: &ReusePlane, program: &CompiledProgram) -> Arc<AnalysisContext> {
        let mode = ClassificationMode::Incremental;
        plane
            .get_or_build_traced(program, geometry(), mode)
            .unwrap()
            .0
    }

    #[test]
    fn hit_returns_the_same_context() {
        let (cache, plane) = plane(4);
        let program = compiled("p", 10);
        let a = get(&plane, &program);
        let b = get(&plane, &program);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the context");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
    }

    #[test]
    fn hit_preserves_memoized_levels() {
        let (_, plane) = plane(4);
        let program = compiled("p", 10);
        let first = get(&plane, &program);
        first.prewarm(pwcet_par::Parallelism::Sequential);
        let second = get(&plane, &program);
        assert_eq!(second.warmed_levels(), 5, "warm levels survive the hit");
    }

    #[test]
    fn different_content_gets_different_entries() {
        let (cache, plane) = plane(8);
        get(&plane, &compiled("a", 10));
        get(&plane, &compiled("b", 11));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (0, 2, 2));
    }

    #[test]
    fn peek_does_not_touch_stats_or_recency() {
        let (cache, plane) = plane(4);
        let program = compiled("p", 10);
        let key = ContextCache::key_of(&program, geometry(), ClassificationMode::Incremental);
        assert!(cache.peek(key).is_none());
        let built = get(&plane, &program);
        let peeked = cache.peek(key).unwrap();
        assert!(Arc::ptr_eq(&built, &peeked));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1), "peeks are uncounted");
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let (cache, plane) = plane(2);
        let a = compiled("a", 5);
        let b = compiled("b", 6);
        let c = compiled("c", 7);
        get(&plane, &a);
        get(&plane, &b);
        // Touch `a` so `b` is the LRU entry.
        get(&plane, &a);
        get(&plane, &c);
        assert_eq!(cache.stats().len, 2);
        assert_eq!(cache.stats().evictions, 1);
        // `a` survives (hit), `b` was evicted (miss).
        get(&plane, &a);
        get(&plane, &b);
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 4);
    }

    #[test]
    fn a_second_filing_adopts_the_first_context() {
        let (cache, plane) = plane(4);
        let (mode, program) = (ClassificationMode::Incremental, compiled("p", 10));
        let build =
            || Arc::new(AnalysisContext::build_with_mode(&program, geometry(), mode).unwrap());
        let (key, family) = ContextCache::keys_of(&program, geometry(), mode);
        let first = cache.file(key, family, build());
        let second = cache.file(key, family, build());
        assert!(Arc::ptr_eq(&first, &second), "a racing loser adopts it");
        let hit = get(&plane, &program);
        assert!(Arc::ptr_eq(&first, &hit));
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_panics() {
        let _ = ContextCache::new(0);
    }

    #[test]
    fn concurrent_lookups_share_one_context() {
        let (cache, plane) = plane(4);
        let program = compiled("p", 20);
        let contexts: Vec<Arc<AnalysisContext>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| get(&plane, &program)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // All callers end up with the same entry, whatever the race.
        assert_eq!(cache.stats().len, 1);
        for context in &contexts[1..] {
            assert!(Arc::ptr_eq(&contexts[0], context));
        }
    }

    #[test]
    fn name_alone_does_not_change_the_key() {
        // Content-addressed: two identically-shaped programs with
        // different names share one image, hence one context.
        let mode = ClassificationMode::Incremental;
        let a = compiled("first", 10);
        let b = compiled("second", 10);
        assert_eq!(
            ContextCache::key_of(&a, geometry(), mode),
            ContextCache::key_of(&b, geometry(), mode)
        );
    }

    #[test]
    fn family_key_ignores_the_way_count_only() {
        let mode = ClassificationMode::Incremental;
        let program = compiled("p", 10);
        let family = |geometry, mode| ContextCache::keys_of(&program, geometry, mode).1;
        let wide = geometry();
        let narrow = wide.with_ways(2);
        assert_ne!(
            ContextCache::key_of(&program, wide, mode),
            ContextCache::key_of(&program, narrow, mode),
            "full keys separate per-geometry entries"
        );
        assert_eq!(
            family(wide, mode),
            family(narrow, mode),
            "siblings share a family"
        );
        assert_ne!(
            family(wide, mode),
            family(CacheGeometry::new(8, 4, 16), mode),
            "a different set count is a different family"
        );
        assert_ne!(
            family(wide, mode),
            family(wide, ClassificationMode::Cold),
            "the classification mode stays part of the family"
        );
    }

    #[test]
    fn adversarial_keys_stay_at_the_cap_and_a_new_working_set_hits() {
        let cap = 4;
        let (cache, plane) = plane(cap);
        let sweep = 1..=cap as u32 + 8;
        for iterations in sweep.clone().chain(sweep) {
            get(&plane, &compiled("p", iterations));
            assert!(cache.stats().len <= cap);
        }
        assert_eq!(cache.stats().hits, 0, "each key was evicted first");
        for iterations in (0..3).flat_map(|_| 100..102) {
            get(&plane, &compiled("p", iterations));
        }
        assert_eq!(cache.stats().hits, 4, "admitted at once, then hit");
    }
}
