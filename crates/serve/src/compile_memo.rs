//! The server's compile memo: a repeated request reuses its program's
//! compiled image and content key instead of compiling and
//! fingerprinting the DSL again on the connection thread.

use std::sync::Arc;
use std::time::Instant;

use pwcet_core::{AnalysisConfig, ContextCache, DEFAULT_CONTEXT_CAPACITY};
use pwcet_obs::{Counter, Histogram, Registry};
use pwcet_par::{Admission, Memo};
use pwcet_progen::{CompiledProgram, ProgenError, Program};

/// A compiled program, shared with the shard that analyzes it, and its
/// content key under the server's analysis geometry.
pub(crate) type Prepared = (Arc<CompiledProgram>, u64);

/// Compiled programs of repeated requests, for the server's lifetime.
///
/// A hit needs full [`Program`] equality (the server's code base,
/// geometry and classification mode are fixed, so the program alone
/// decides the image and key). A program's first compile leaves only a
/// marker; its second stores the image and key, so one-shot traffic
/// (a sweep over never-seen programs, a restarted server answering each
/// program once) retains markers only. A program that does not compile
/// leaves nothing.
///
/// Markers and entries together are capped at
/// [`DEFAULT_CONTEXT_CAPACITY`], the memory tier's size; when full, the
/// least recently used slot makes room, so a new working set is always
/// admitted.
pub(crate) struct CompileMemo {
    config: AnalysisConfig,
    memo: Memo<Program, Prepared>,
    /// Connection-thread time to obtain a program's image and key, hit
    /// or build.
    compile_us: Arc<Histogram>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl CompileMemo {
    /// An empty memo compiling at `config`'s code base and keying by its
    /// geometry and classification mode, with its instruments in
    /// `registry`.
    pub(crate) fn new(config: AnalysisConfig, registry: &Registry) -> Self {
        Self {
            config,
            memo: Memo::new(DEFAULT_CONTEXT_CAPACITY, Admission::SecondSighting),
            compile_us: registry.register_histogram("compile_us"),
            hits: registry.register_counter("compile_memo_hits"),
            misses: registry.register_counter("compile_memo_misses"),
        }
    }

    /// `program`'s compiled image and content key: the stored ones, or a
    /// fresh compile. The compile runs outside the lock; when two threads
    /// race on a second sighting, the first to store wins and the other
    /// adopts its image.
    ///
    /// # Errors
    ///
    /// The [`ProgenError`] of a program that does not compile.
    pub(crate) fn get(&self, program: &Program) -> Result<Prepared, ProgenError> {
        let started = Instant::now();
        let prepared = self.get_or_compile(program);
        self.compile_us.record(started.elapsed().as_micros() as u64);
        prepared
    }

    fn get_or_compile(&self, program: &Program) -> Result<Prepared, ProgenError> {
        if let Some(prepared) = self.memo.get(program) {
            self.hits.inc();
            return Ok(prepared);
        }
        self.misses.inc();
        let compiled = Arc::new(program.compile(self.config.code_base)?);
        let key = ContextCache::key_of(&compiled, self.config.geometry, self.config.classification);
        Ok(self.memo.insert(program.clone(), (compiled, key)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwcet_progen::stmt;

    /// Distinct programs under one name: only the loop bound differs.
    fn program(bound: u32) -> Program {
        Program::new("p").with_function("main", stmt::loop_(bound, stmt::compute(3)))
    }

    /// `(markers, stored entries)` currently held.
    fn occupancy(memo: &CompileMemo) -> (usize, usize) {
        let stored = memo.memo.snapshot().len();
        (memo.memo.stats().len - stored, stored)
    }

    fn memo() -> (CompileMemo, Registry) {
        let registry = Registry::new();
        let memo = CompileMemo::new(AnalysisConfig::paper_default(), &registry);
        (memo, registry)
    }

    #[test]
    fn second_sighting_admits_and_third_hits_the_same_image() {
        let (memo, registry) = memo();
        let (first, key) = memo.get(&program(4)).expect("compiles");
        assert_eq!(
            occupancy(&memo),
            (1, 0),
            "the first sighting leaves a marker"
        );
        let (second, _) = memo.get(&program(4)).expect("compiles");
        assert_eq!(occupancy(&memo), (0, 1));
        assert!(!Arc::ptr_eq(&first, &second));
        let (third, third_key) = memo.get(&program(4)).expect("compiles");
        assert!(
            Arc::ptr_eq(&second, &third),
            "a hit shares the stored image"
        );
        assert_eq!(third_key, key);
        assert_eq!(registry.counter("compile_memo_misses").get(), 2);
        assert_eq!(registry.counter("compile_memo_hits").get(), 1);
        assert_eq!(registry.histogram("compile_us").snapshot().count, 3);
    }

    #[test]
    fn full_memo_evicts_the_least_recently_used_and_keeps_admitting() {
        let (memo, registry) = memo();
        let sweep = 1..=DEFAULT_CONTEXT_CAPACITY as u32 + 8;
        for bound in sweep.clone().chain(sweep) {
            memo.get(&program(bound)).expect("compiles");
            assert!(memo.memo.stats().len <= DEFAULT_CONTEXT_CAPACITY);
        }
        let hits = || registry.counter("compile_memo_hits").get();
        assert_eq!(hits(), 0, "each marker was evicted before its repeat");
        // A full memo keeps admitting: a new working set is stored on its
        // second request and hit on its third.
        let working_set = 1000..1000 + DEFAULT_CONTEXT_CAPACITY as u32 / 2;
        for bound in (0..3).flat_map(|_| working_set.clone()) {
            memo.get(&program(bound)).expect("compiles");
        }
        assert_eq!(hits(), working_set.len() as u64);
    }

    #[test]
    fn compile_failures_leave_nothing() {
        let (memo, registry) = memo();
        let broken = Program::new("p").with_function("helper", stmt::compute(1));
        for _ in 0..3 {
            assert_eq!(memo.get(&broken).unwrap_err(), ProgenError::MissingMain);
        }
        assert_eq!(occupancy(&memo), (0, 0));
        assert_eq!(registry.counter("compile_memo_hits").get(), 0);
        assert_eq!(registry.counter("compile_memo_misses").get(), 3);
    }
}
