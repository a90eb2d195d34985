//! Disk-tier integration tests: persistence across plane instances (the
//! in-process equivalent of separate processes — same encode/decode
//! path), corruption robustness, and the size-capped GC — plus the
//! template registry's release of programs the memory tier evicted.
//!
//! The acceptance bar for the corruption suite: a damaged entry may cost
//! a cold rebuild, but it must never panic, never error the analysis,
//! and never change a result. Every case asserts all three.

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Weak};

use pwcet_core::{
    AnalysisConfig, ContextCache, IpetTemplate, ProgramAnalysis, Protection, PwcetAnalyzer,
    ReusePlane,
};
use pwcet_progen::{stmt, Program};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pwcet-reuse-test-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn program() -> Program {
    Program::new("persisted").with_function("main", stmt::loop_(40, stmt::compute(28)))
}

fn analyzer(plane: &Arc<ReusePlane>) -> PwcetAnalyzer {
    analyzer_with(AnalysisConfig::paper_default(), plane)
}

fn analyzer_with(config: AnalysisConfig, plane: &Arc<ReusePlane>) -> PwcetAnalyzer {
    PwcetAnalyzer::new(config).with_reuse_plane(Arc::clone(plane))
}

fn assert_same_results(a: &ProgramAnalysis, b: &ProgramAnalysis) {
    assert_eq!(a.fault_free_wcet(), b.fault_free_wcet());
    assert_eq!(a.fmm(), b.fmm());
    assert_eq!(a.srb_last_column(), b.srb_last_column());
    for protection in Protection::all() {
        assert_eq!(
            a.estimate(protection).pwcet_at(1e-15),
            b.estimate(protection).pwcet_at(1e-15)
        );
    }
}

/// Analyzes once against a fresh store and returns the reference result
/// plus the store directory (left populated).
fn populate(tag: &str) -> (ProgramAnalysis, PathBuf) {
    let dir = scratch_dir(tag);
    let plane = Arc::new(ReusePlane::in_memory().with_disk_tier(&dir).unwrap());
    let reference = analyzer(&plane).analyze(&program()).unwrap();
    let stats = plane.stats();
    assert_eq!(stats.cold_builds, 1);
    assert!(stats.disk_writes >= 1, "analysis must write through");
    (reference, dir)
}

fn entry_paths(dir: &PathBuf) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("pwctx"))
        .collect();
    paths.sort();
    paths
}

#[test]
fn second_plane_instance_reads_the_store() {
    // Two plane instances over one directory — exactly what two separate
    // processes exercise (the CI `persistence` job runs the real
    // two-process variant via the `persist_probe` binary).
    let (reference, dir) = populate("second-instance");
    let fresh = Arc::new(ReusePlane::in_memory().with_disk_tier(&dir).unwrap());
    let warm = analyzer(&fresh).analyze(&program()).unwrap();
    assert_same_results(&reference, &warm);
    let stats = fresh.stats();
    assert_eq!(stats.disk_hits, 1, "the fresh plane must decode, not build");
    assert_eq!(stats.cold_builds, 0);
    // The disk-restored solve artifacts make the ILP stage unnecessary;
    // a second analysis over the same plane stays in memory.
    let again = analyzer(&fresh).analyze(&program()).unwrap();
    assert_same_results(&reference, &again);
    assert_eq!(fresh.stats().memory.hits, 1);
    let _ = fs::remove_dir_all(&dir);
}

/// Every corruption flavor must degrade to a counted cold rebuild with
/// bit-identical results — never a panic, an error, or a wrong answer.
fn assert_falls_back_cold(tag: &str, corrupt: impl FnOnce(&PathBuf)) {
    let (reference, dir) = populate(tag);
    let entries = entry_paths(&dir);
    assert_eq!(entries.len(), 1, "one program, one entry");
    corrupt(&entries[0]);

    let fresh = Arc::new(ReusePlane::in_memory().with_disk_tier(&dir).unwrap());
    let rebuilt = analyzer(&fresh).analyze(&program()).unwrap();
    assert_same_results(&reference, &rebuilt);
    let stats = fresh.stats();
    assert_eq!(stats.disk_hits, 0, "{tag}: corrupt entries must not hit");
    assert_eq!(stats.disk_corrupt, 1, "{tag}: the fallback is counted");
    assert_eq!(stats.cold_builds, 1, "{tag}: rebuilt cold");
    // The poisoned file is discarded and the rebuild re-persisted at the
    // current version: a third instance is warm again.
    let entries = entry_paths(&dir);
    assert_eq!(entries.len(), 1, "{tag}: the rebuild replaced the entry");
    let rewritten = fs::read(&entries[0]).unwrap();
    assert_eq!(
        u32::from_le_bytes(rewritten[4..8].try_into().unwrap()),
        4,
        "{tag}: the rebuild is written at the current version"
    );
    let healed = Arc::new(ReusePlane::in_memory().with_disk_tier(&dir).unwrap());
    let warm = analyzer(&healed).analyze(&program()).unwrap();
    assert_same_results(&reference, &warm);
    assert_eq!(healed.stats().disk_hits, 1, "{tag}: store self-heals");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_entry_falls_back_cold() {
    assert_falls_back_cold("truncated", |path| {
        let bytes = fs::read(path).unwrap();
        fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
    });
}

#[test]
fn bad_magic_falls_back_cold() {
    assert_falls_back_cold("bad-magic", |path| {
        let mut bytes = fs::read(path).unwrap();
        bytes[0] = b'X';
        fs::write(path, bytes).unwrap();
    });
}

#[test]
fn wrong_version_falls_back_cold() {
    // An unknown future version, and the retired versions 2 and 3
    // stamped on a current entry. The checksum covers the payload only,
    // so each entry is refused for its version alone.
    for version in [0xfe_u32, 2, 3] {
        assert_falls_back_cold(&format!("version-{version}"), |path| {
            let mut bytes = fs::read(path).unwrap();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            fs::write(path, bytes).unwrap();
        });
    }
}

#[test]
fn flipped_payload_byte_falls_back_cold() {
    assert_falls_back_cold("flipped-byte", |path| {
        let mut bytes = fs::read(path).unwrap();
        let mid = 24 + (bytes.len() - 24) / 2; // a payload byte
        bytes[mid] ^= 0x40;
        fs::write(path, bytes).unwrap();
    });
}

#[test]
fn flipped_checksum_byte_falls_back_cold() {
    assert_falls_back_cold("flipped-checksum", |path| {
        let mut bytes = fs::read(path).unwrap();
        bytes[16] ^= 0x01; // checksum field at offset 16..24
        fs::write(path, bytes).unwrap();
    });
}

#[test]
fn garbage_file_falls_back_cold() {
    assert_falls_back_cold("garbage", |path| {
        fs::write(path, b"not a context entry at all").unwrap();
    });
}

/// A timing model nothing else in this suite solves under: analyses
/// using it miss the persisted solved-artifact memo and must actually
/// run their ILPs (the pass that exercises restored solver state).
fn variant_config() -> AnalysisConfig {
    let mut config = AnalysisConfig::paper_default();
    config.timing = pwcet_cache::CacheTiming::new(3, 150);
    config
}

#[test]
fn restart_restores_factored_bases_warm() {
    // A restarted process (fresh plane, same store) whose request misses
    // the solved-artifact memo must still never cold-factorize: the v3
    // entry carries the factored basis, which seeds the template pool on
    // the disk hit.
    let (_, dir) = populate("basis-restore");
    let reference = PwcetAnalyzer::new(variant_config())
        .analyze(&program())
        .unwrap();

    let fresh = Arc::new(ReusePlane::in_memory().with_disk_tier(&dir).unwrap());
    let restored = PwcetAnalyzer::new(variant_config())
        .with_reuse_plane(Arc::clone(&fresh))
        .analyze(&program())
        .unwrap();
    assert_same_results(&reference, &restored);
    let stats = fresh.stats();
    assert_eq!(stats.disk_hits, 1, "the context must come off disk");
    assert_eq!(stats.cold_builds, 0);
    assert!(
        stats.basis_restores >= 1,
        "the persisted basis must seed the template pool"
    );
    assert_eq!(stats.basis_rejects, 0, "a faithful snapshot never rejects");
    let ilp = fresh.ilp_stats();
    assert!(ilp.warm_starts > 0, "the variant pass must solve ILPs");
    assert_eq!(
        ilp.cold_starts, 0,
        "every solve starts from the restored factored basis"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checksum_consistent_basis_flip_never_changes_a_bound() {
    // Flip a byte inside the trailing solver-state section and *repair
    // the envelope checksum*, so corruption reaches the strict basis
    // validation itself rather than the checksum gate. Whatever tier the
    // entry then lands in — rejected snapshot, corrupt entry, or even a
    // surviving-but-different warm basis — the bounds must be
    // bit-identical to a plane-less analysis: warm starts change where
    // the simplex starts, never where it ends.
    let (_, dir) = populate("basis-flip");
    let reference = PwcetAnalyzer::new(variant_config())
        .analyze(&program())
        .unwrap();

    let path = &entry_paths(&dir)[0];
    let mut bytes = fs::read(path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x20;
    let checksum = pwcet_core::fnv1a_checksum(&bytes[24..]);
    bytes[16..24].copy_from_slice(&checksum.to_le_bytes());
    fs::write(path, bytes).unwrap();

    let fresh = Arc::new(ReusePlane::in_memory().with_disk_tier(&dir).unwrap());
    let analyzed = PwcetAnalyzer::new(variant_config())
        .with_reuse_plane(Arc::clone(&fresh))
        .analyze(&program())
        .unwrap();
    assert_same_results(&reference, &analyzed);
    let stats = fresh.stats();
    assert_eq!(
        stats.disk_hits + stats.disk_corrupt,
        1,
        "the entry is either decoded or counted corrupt, never dropped \
         silently"
    );
    let _ = fs::remove_dir_all(&dir);
}

fn gc_program(i: u32) -> Program {
    Program::new(format!("gc-{i}")).with_function("main", stmt::loop_(10 + i, stmt::compute(20)))
}

#[test]
fn size_capped_gc_evicts_oldest_entries() {
    // Measure one entry so the budget fits exactly one: every further
    // write must then evict its predecessor.
    let probe_dir = scratch_dir("gc-probe");
    let probe = Arc::new(ReusePlane::in_memory().with_disk_tier(&probe_dir).unwrap());
    analyzer(&probe).analyze(&gc_program(0)).unwrap();
    let entry_size = fs::metadata(&entry_paths(&probe_dir)[0]).unwrap().len();
    let _ = fs::remove_dir_all(&probe_dir);

    let dir = scratch_dir("gc");
    let budget = entry_size + entry_size / 4;
    let plane = Arc::new(
        ReusePlane::in_memory()
            .with_disk_tier_capped(&dir, budget)
            .unwrap(),
    );
    let analyzer = analyzer(&plane);
    for i in 0..4 {
        analyzer.analyze(&gc_program(i)).unwrap();
    }
    let stats = plane.stats();
    assert_eq!(stats.disk_writes, 4);
    assert_eq!(
        stats.disk_gc_evictions, 3,
        "each write beyond the first must push its predecessor out"
    );
    let remaining = entry_paths(&dir);
    assert_eq!(remaining.len(), 1, "only the newest entry survives");

    // GC must also forget the evicted keys in the write-through index:
    // the evicted contexts still live in the memory tier, so a flush can
    // (and must) re-persist them rather than believing they are on disk.
    let flushed = plane.flush();
    assert!(
        flushed >= 3,
        "evicted entries must be re-persistable after GC (flushed {flushed})"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn analysis_survives_an_unwritable_store() {
    // Persistence is an optimization: a store whose directory vanishes
    // out from under the plane (here: replaced by a plain file, which
    // defeats even a root test runner) must not affect results.
    let dir = scratch_dir("unwritable");
    let plane = Arc::new(ReusePlane::in_memory().with_disk_tier(&dir).unwrap());
    fs::remove_dir_all(&dir).unwrap();
    fs::write(&dir, b"now a file, not a directory").unwrap();

    let analysis = analyzer(&plane).analyze(&program()).unwrap();
    assert!(analysis.fault_free_wcet() > 0);
    let stats = plane.stats();
    assert_eq!(stats.disk_writes, 0, "nothing could be written");
    assert!(
        stats.disk_corrupt >= 1,
        "the failed write is counted, not raised"
    );

    let _ = fs::remove_file(&dir);
}

#[test]
fn evicted_programs_release_their_ipet_templates() {
    // A long-lived plane must not keep every program's IPET template
    // (model, workspace pool, objective memo) after its memory tier has
    // evicted the program: with one resident context, at most that
    // context's template may survive the suite.
    let plane = Arc::new(ReusePlane::with_memory(Arc::new(ContextCache::new(1))));
    let config = AnalysisConfig::paper_default();
    let templates: Vec<Weak<IpetTemplate>> = pwcet_benchsuite::all()
        .into_iter()
        .map(|bench| {
            let compiled = bench.program.compile(config.code_base).unwrap();
            let context = plane
                .get_or_build(&compiled, config.geometry, config.classification)
                .unwrap();
            analyzer(&plane).analyze_with_context(&context).unwrap();
            Arc::downgrade(&context.ipet_template())
        })
        .collect();
    let live = templates.iter().filter(|t| t.upgrade().is_some()).count();
    assert!(
        live <= 1,
        "{live} of {} templates outlived their evicted programs",
        templates.len()
    );
}
