//! Regression tests for [`ContextCache`] key construction.
//!
//! The cache key must separate every knob that alters the CFG or the
//! CHMC classification (geometry — including the number of usable ways —
//! image content, CFG metadata, classification mode) while *sharing*
//! entries across knobs that don't (the fault model / `pfail`, the
//! protection level read off the finished analysis, parallelism).

use std::sync::Arc;

use pwcet_analysis::ClassificationMode;
use pwcet_cache::CacheGeometry;
use pwcet_core::{AnalysisConfig, ContextCache, Protection, PwcetAnalyzer, ReusePlane};
use pwcet_progen::{stmt, CompiledProgram, Program};

fn program() -> Program {
    Program::new("keys").with_function("main", stmt::loop_(25, stmt::compute(30)))
}

fn compiled() -> CompiledProgram {
    program().compile(0x0040_0000).unwrap()
}

#[test]
fn reliable_way_count_changes_the_key() {
    // The regression this file exists for: protecting ways changes the
    // number of *usable* ways and with it every CHMC input. Two
    // geometries that differ only in the way count — same sets, same
    // block size, same image — must never share a context.
    let compiled = compiled();
    let mode = ClassificationMode::Incremental;
    let four_way = CacheGeometry::new(16, 4, 16);
    let three_way = CacheGeometry::new(16, 3, 16);
    let two_way = CacheGeometry::new(16, 2, 16);
    let keys = [
        ContextCache::key_of(&compiled, four_way, mode),
        ContextCache::key_of(&compiled, three_way, mode),
        ContextCache::key_of(&compiled, two_way, mode),
    ];
    assert_ne!(keys[0], keys[1]);
    assert_ne!(keys[0], keys[2]);
    assert_ne!(keys[1], keys[2]);

    let plane = ReusePlane::in_memory();
    plane
        .get_or_build_traced(&compiled, four_way, mode)
        .unwrap();
    plane.get_or_build_traced(&compiled, two_way, mode).unwrap();
    let stats = plane.stats().memory;
    assert_eq!(
        (stats.hits, stats.misses, stats.len),
        (0, 2, 2),
        "distinct way counts must occupy distinct entries"
    );
}

#[test]
fn geometry_sets_and_block_size_change_the_key() {
    let compiled = compiled();
    let mode = ClassificationMode::Incremental;
    let base = CacheGeometry::new(16, 4, 16);
    let more_sets = CacheGeometry::new(32, 4, 16);
    let bigger_blocks = CacheGeometry::new(16, 4, 32);
    assert_ne!(
        ContextCache::key_of(&compiled, base, mode),
        ContextCache::key_of(&compiled, more_sets, mode)
    );
    assert_ne!(
        ContextCache::key_of(&compiled, base, mode),
        ContextCache::key_of(&compiled, bigger_blocks, mode)
    );
}

#[test]
fn classification_mode_changes_the_key() {
    let compiled = compiled();
    let geometry = CacheGeometry::paper_default();
    assert_ne!(
        ContextCache::key_of(&compiled, geometry, ClassificationMode::Cold),
        ContextCache::key_of(&compiled, geometry, ClassificationMode::Incremental)
    );
}

#[test]
fn pfail_sweep_shares_one_entry() {
    // The fault model feeds the penalty distributions, not the CFG or
    // the CHMC — a pfail sweep must be answered by a single cached
    // context.
    let plane = Arc::new(ReusePlane::in_memory());
    let program = program();
    let base = AnalysisConfig::paper_default();
    let mut quantiles = Vec::new();
    for pfail in [1e-6, 1e-5, 1e-4, 1e-3] {
        let config = base.with_pfail(pfail).unwrap();
        let analyzer = PwcetAnalyzer::new(config).with_reuse_plane(Arc::clone(&plane));
        let analysis = analyzer.analyze(&program).unwrap();
        quantiles.push(analysis.estimate(Protection::None).pwcet_at(1e-15));
    }
    let stats = plane.stats().memory;
    assert_eq!(
        (stats.hits, stats.misses, stats.len),
        (3, 1, 1),
        "four pfail points must share one context"
    );
    // Sanity: the shared context did not collapse the sweep itself.
    assert!(quantiles.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn cache_hit_reports_the_callers_program_name() {
    // Content addressing is name-blind, so two identically-shaped
    // programs share one context — but each analysis must still carry
    // its own program's name.
    let plane = Arc::new(ReusePlane::in_memory());
    let analyzer =
        PwcetAnalyzer::new(AnalysisConfig::paper_default()).with_reuse_plane(Arc::clone(&plane));
    let shape = stmt::loop_(25, stmt::compute(30));
    let first = Program::new("first").with_function("main", shape.clone());
    let second = Program::new("second").with_function("main", shape);
    let a = analyzer.analyze(&first).unwrap();
    let b = analyzer.analyze(&second).unwrap();
    assert_eq!(plane.stats().memory.hits, 1, "the second analysis must hit");
    assert_eq!(a.name(), "first");
    assert_eq!(b.name(), "second");
}

#[test]
fn different_images_get_different_entries() {
    let plane = ReusePlane::in_memory();
    let mode = ClassificationMode::Incremental;
    let geometry = CacheGeometry::paper_default();
    let a = compiled();
    let b = Program::new("keys")
        .with_function("main", stmt::loop_(26, stmt::compute(30)))
        .compile(0x0040_0000)
        .unwrap();
    let c = program().compile(0x0050_0000).unwrap(); // same code, new base
    plane.get_or_build_traced(&a, geometry, mode).unwrap();
    plane.get_or_build_traced(&b, geometry, mode).unwrap();
    plane.get_or_build_traced(&c, geometry, mode).unwrap();
    let stats = plane.stats().memory;
    assert_eq!((stats.hits, stats.misses, stats.len), (0, 3, 3));
}
