//! Disk-tier integration tests: persistence across plane instances (the
//! in-process equivalent of separate processes — same encode/decode
//! path), corruption robustness, and the size-capped GC — plus the
//! release of the IPET templates of programs the memory tier evicted.
//!
//! The acceptance bar for the corruption suite: a damaged entry may cost
//! a cold rebuild, but it must never panic, never error the analysis,
//! and never change a result. Every case asserts all three.
//!
//! A hit decodes only the solve section, so the suite also pins the
//! laziness — a solved answer expands no CFG and decodes no tail — and
//! the late path: a tail that passes the checksum but fails its decode
//! at first use is counted, discarded and recomputed cold.
//!
//! The node's `classify_*` rows count every fixpoint run on a context
//! the plane handed out, wherever it runs: in a derivation, or in a
//! prewarm before the analysis.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, SystemTime};

use pwcet_core::{
    entry_checksum, AnalysisConfig, ContextCache, IpetTemplate, NetworkTier, ProgramAnalysis,
    Protection, PwcetAnalyzer, ReusePlane, ReuseTier, DEFAULT_CONTEXT_CAPACITY,
};
use pwcet_obs::{trace_scope, Stage, TraceId, Tracer};
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
        6,
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
    // An unknown future version, and the retired versions 2 to 5 stamped
    // on a current entry. The checksum covers the payload only, so each
    // entry is refused for its version alone.
    for version in [0xfe_u32, 2, 3, 4, 5] {
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
/// run their ILPs over the restored context.
fn variant_config() -> AnalysisConfig {
    let mut config = AnalysisConfig::paper_default();
    config.timing = pwcet_cache::CacheTiming::new(3, 150);
    config
}

#[test]
fn a_restarted_plane_solves_a_new_timing_from_its_restored_tail() {
    // A restarted process (fresh plane, same store) whose request misses
    // the solved-artifact memo keeps the restored context: its tail
    // answers the classification, and the new timing's ILPs run on a
    // template built as a fresh context builds one, with one cold root
    // solve and a warm fan-out.
    let (_, dir) = populate("new-timing");
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
    assert_eq!(stats.template_builds, 1);
    let ilp = fresh.ilp_stats();
    assert_eq!(ilp.cold_starts, 1, "one cold root solve per template");
    assert!(
        ilp.warm_starts > 0,
        "the fan-out starts from the root's basis"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn derived_siblings_of_a_restored_widest_point_adopt_its_template() {
    // A restarted node's widest lattice point answers from its restored
    // solve memo, so no solve asks for its template. Each narrower point
    // of a sweep is derived from it, and derivation builds that one
    // template for every sibling to adopt: one build, three adoptions,
    // and one cold root solve for the whole family.
    let (_, dir) = populate("restored-sweep");
    let fresh = Arc::new(ReusePlane::in_memory().with_disk_tier(&dir).unwrap());
    for ways in [4, 3, 2, 1] {
        let mut config = AnalysisConfig::paper_default();
        config.geometry = config.geometry.with_ways(ways);
        let reference = PwcetAnalyzer::new(config).analyze(&program()).unwrap();
        let swept = analyzer_with(config, &fresh).analyze(&program()).unwrap();
        assert_same_results(&reference, &swept);
    }
    let stats = fresh.stats();
    assert_eq!((stats.disk_hits, stats.derived), (1, 3));
    assert_eq!((stats.template_builds, stats.template_hits), (1, 3));
    assert_eq!(
        fresh.ilp_stats().cold_starts,
        1,
        "the first sibling's root solve factors the shared template once"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Flips `mask` into the last byte of a stored entry — the last flag of
/// the classification tail's SRB map — and re-seals the payload with the
/// entry checksum, so the forgery passes every read-time check and
/// reaches the tail's own validation, which refuses a flag other than 0
/// or 1.
fn forge_tail(path: &Path, mask: u8) {
    let mut bytes = fs::read(path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= mask;
    let checksum = entry_checksum(&bytes[24..]);
    bytes[16..24].copy_from_slice(&checksum.to_le_bytes());
    fs::write(path, bytes).unwrap();
}

#[test]
fn checksum_consistent_tail_flip_never_changes_a_bound() {
    // Flip a byte of the classification tail and *repair the envelope
    // checksum*, so corruption reaches the tail's strict decode itself
    // rather than the checksum gate. The hit reads the solve section
    // only, so the entry always hits; the variant timing then decodes
    // the tail, which fails: one counted late corruption, and the levels
    // recomputed cold. The bounds must be bit-identical to a plane-less
    // analysis.
    let (_, dir) = populate("tail-flip");
    let reference = PwcetAnalyzer::new(variant_config())
        .analyze(&program())
        .unwrap();
    forge_tail(&entry_paths(&dir)[0], 0x20);

    let fresh = Arc::new(ReusePlane::in_memory().with_disk_tier(&dir).unwrap());
    let analyzed = PwcetAnalyzer::new(variant_config())
        .with_reuse_plane(Arc::clone(&fresh))
        .analyze(&program())
        .unwrap();
    assert_same_results(&reference, &analyzed);
    let stats = fresh.stats();
    assert_eq!(stats.disk_hits, 1, "the checksum-consistent entry hits");
    assert_eq!(
        stats.disk_corrupt, 1,
        "a tail that fails at first use is counted once"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn late_tail_corruption_is_counted_discarded_and_recomputed_cold() {
    // An SRB flag byte that is neither 0 nor 1: the read passes, the
    // tail decode at first use fails.
    let (solved_reference, dir) = populate("late-corrupt");
    let reference = PwcetAnalyzer::new(variant_config())
        .analyze(&program())
        .unwrap();
    let path = entry_paths(&dir)[0].clone();
    forge_tail(&path, 0x80);
    let forged = fs::read(&path).unwrap();

    // A solved request never decodes the tail, so nothing is noticed.
    let solved_only = Arc::new(ReusePlane::in_memory().with_disk_tier(&dir).unwrap());
    let answer = analyzer(&solved_only).analyze(&program()).unwrap();
    assert_same_results(&solved_reference, &answer);
    let stats = solved_only.stats();
    assert_eq!((stats.disk_hits, stats.disk_corrupt), (1, 0));
    assert_eq!(stats.disk_writes, 0);

    // A template request decodes it: one counted corruption, and the
    // file and its write-through index entry dropped — so a persist that
    // adds nothing new (no solve ran) still writes the entry back.
    let config = AnalysisConfig::paper_default();
    let compiled = program().compile(config.code_base).unwrap();
    let fresh = Arc::new(ReusePlane::in_memory().with_disk_tier(&dir).unwrap());
    let context = fresh
        .get_or_build_traced(&compiled, config.geometry, config.classification)
        .unwrap()
        .0;
    let _ = context.ipet_template();
    let stats = fresh.stats();
    assert_eq!((stats.disk_hits, stats.disk_corrupt), (1, 1));
    assert!(!path.exists(), "the forged entry is deleted");
    assert!(fresh.persist(&compiled, &context), "the entry is rewritten");
    assert_eq!(fresh.stats().disk_writes, 1);

    // The classification is recomputed cold; the solve section stays in
    // use, and a new timing over the same context matches a plane-less
    // analysis.
    let analyzed = PwcetAnalyzer::new(variant_config())
        .with_reuse_plane(Arc::clone(&fresh))
        .analyze_with_context(&context)
        .unwrap();
    assert_same_results(&reference, &analyzed);
    let stats = fresh.stats();
    assert_eq!(stats.disk_corrupt, 1, "the late failure is counted once");
    assert_eq!(stats.cold_builds, 0, "the solve section stays in use");
    assert!(context.kernel_stats().passes > 0, "the levels ran cold");
    fresh.flush();
    assert_ne!(fs::read(&path).unwrap(), forged);

    // The rewritten entry is healthy: both timings hit and decode.
    let healed = Arc::new(ReusePlane::in_memory().with_disk_tier(&dir).unwrap());
    let again = PwcetAnalyzer::new(variant_config())
        .with_reuse_plane(Arc::clone(&healed))
        .analyze(&program())
        .unwrap();
    assert_same_results(&reference, &again);
    let stats = healed.stats();
    assert_eq!((stats.disk_hits, stats.disk_corrupt), (1, 0));

    // The same forgery offered by a peer is counted as network
    // corruption when its tail fails.
    let key = ContextCache::key_of(&compiled, config.geometry, config.classification);
    let staged = Arc::new(ReusePlane::in_memory());
    assert!(staged.import_entry(key, forged), "the envelope is valid");
    let (analysis, tier) = PwcetAnalyzer::new(variant_config())
        .with_reuse_plane(Arc::clone(&staged))
        .analyze_compiled(&compiled)
        .unwrap();
    assert_eq!(tier, ReuseTier::Network);
    assert_same_results(&reference, &analysis);
    let stats = staged.stats();
    assert_eq!((stats.network_hits, stats.network_corrupt), (1, 1));
    let _ = fs::remove_dir_all(&dir);
}

/// In-process stand-in for a peer fleet: a shared map of entries.
#[derive(Debug, Default)]
struct FakeNetwork {
    entries: Mutex<HashMap<u64, Vec<u8>>>,
}

impl NetworkTier for FakeNetwork {
    fn fetch(&self, key: u64) -> Option<Vec<u8>> {
        self.entries.lock().unwrap().get(&key).cloned()
    }

    fn offer(&self, key: u64, bytes: &[u8]) {
        self.entries.lock().unwrap().insert(key, bytes.to_vec());
    }
}

/// Serves one solved request the way a server shard and the benchmark's
/// traced replay do — lookup, prewarm, analyze, persist, flush — inside
/// a trace scope, and returns the tier and how many `cfg_expand` and
/// `codec_decode` spans it recorded.
fn traced_request(plane: &Arc<ReusePlane>) -> (ReuseTier, usize, usize) {
    let config = AnalysisConfig::paper_default();
    let compiled = program().compile(config.code_base).unwrap();
    let tracer = Arc::new(Tracer::new(64));
    let (tier, spans) = trace_scope(&tracer, TraceId::NONE, || {
        let (context, tier) = plane
            .get_or_build_traced(&compiled, config.geometry, config.classification)
            .unwrap();
        context.prewarm(config.parallelism);
        analyzer(plane).analyze_with_context(&context).unwrap();
        plane.persist(&compiled, &context);
        plane.flush();
        tier
    });
    let count = |stage| spans.iter().filter(|(s, _)| *s == stage).count();
    (tier, count(Stage::CfgExpand), count(Stage::CodecDecode))
}

#[test]
fn solved_hits_expand_no_cfg_and_decode_no_tail() {
    // One `codec_decode` span is the hit itself; a tail decode would
    // record a second, and an expansion a `cfg_expand` span.
    let (_, dir) = populate("lazy");
    let entry = fs::read(&entry_paths(&dir)[0]).unwrap();
    let config = AnalysisConfig::paper_default();
    let compiled = program().compile(config.code_base).unwrap();
    let key = ContextCache::key_of(&compiled, config.geometry, config.classification);

    let disk = Arc::new(ReusePlane::in_memory().with_disk_tier(&dir).unwrap());
    assert_eq!(traced_request(&disk), (ReuseTier::Disk, 0, 1));
    assert_eq!(disk.stats().disk_writes, 0, "nothing new to write");

    let staged = Arc::new(ReusePlane::in_memory());
    assert!(staged.import_entry(key, entry.clone()));
    assert_eq!(traced_request(&staged), (ReuseTier::Network, 0, 1));

    let network = Arc::new(FakeNetwork::default());
    network.entries.lock().unwrap().insert(key, entry);
    let fetched = Arc::new(ReusePlane::in_memory());
    fetched.set_network_tier(Arc::clone(&network) as Arc<dyn NetworkTier>);
    assert_eq!(traced_request(&fetched), (ReuseTier::Network, 0, 1));
    assert_eq!(fetched.stats().network_offers, 0, "never offered back");

    // An unchanged restored context re-exports its entry byte for byte.
    let store = fs::read(&entry_paths(&dir)[0]).unwrap();
    assert_eq!(disk.export_entry(key), Some(store));
    let _ = fs::remove_dir_all(&dir);
}

fn gc_program(i: u32) -> Program {
    Program::new(format!("gc-{i}")).with_function("main", stmt::loop_(10 + i, stmt::compute(20)))
}

/// A store budget that fits exactly one entry of the `gc_program`s,
/// measured on one written under `tag`.
fn one_entry_budget(tag: &str) -> u64 {
    let dir = scratch_dir(tag);
    let probe = Arc::new(ReusePlane::in_memory().with_disk_tier(&dir).unwrap());
    analyzer(&probe).analyze(&gc_program(0)).unwrap();
    let entry_size = fs::metadata(&entry_paths(&dir)[0]).unwrap().len();
    let _ = fs::remove_dir_all(&dir);
    entry_size + entry_size / 4
}

#[test]
fn size_capped_gc_evicts_oldest_entries() {
    // The budget fits exactly one entry: every further write must then
    // evict its predecessor.
    let budget = one_entry_budget("gc-probe");
    let dir = scratch_dir("gc");
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

/// Backdates `path`'s modification time by `secs` seconds.
fn age(path: &Path, secs: u64) {
    let file = fs::File::options().write(true).open(path).unwrap();
    file.set_modified(SystemTime::now() - Duration::from_secs(secs))
        .unwrap();
}

#[test]
fn gc_leaves_foreign_files_alone_and_sweeps_its_own_orphans() {
    // A store directory may hold other programs' files: the GC counts,
    // evicts and sweeps only the names the plane writes, the
    // `ctx-<key>.pwctx` entries and the `ctx-<key>.<pid>-<seq>.tmp`
    // temp files of its writes.
    let budget = one_entry_budget("gc-foreign-probe");
    let dir = scratch_dir("gc-foreign");
    fs::create_dir_all(&dir).unwrap();
    let notes = dir.join("notes.pwctx");
    let scratch = dir.join("scratch.tmp");
    let orphan = dir.join("ctx-0123456789abcdef.4242-7.tmp");
    let in_flight = dir.join("ctx-0123456789abcdef.4242-8.tmp");
    for path in [&notes, &scratch, &orphan, &in_flight] {
        fs::write(path, b"scratch bytes").unwrap();
    }
    // The foreign entry is the oldest file in the store; the foreign and
    // the orphaned temp file are past the orphan age, the in-flight one
    // is not.
    age(&notes, 3_600);
    age(&scratch, 120);
    age(&orphan, 120);

    let plane = Arc::new(
        ReusePlane::in_memory()
            .with_disk_tier_capped(&dir, budget)
            .unwrap(),
    );
    let analyzer = analyzer(&plane);
    for i in 0..2 {
        analyzer.analyze(&gc_program(i)).unwrap();
    }
    let stats = plane.stats();
    assert_eq!(stats.disk_writes, 2);
    assert_eq!(
        stats.disk_gc_evictions, 1,
        "only the first store entry is evicted"
    );
    assert!(
        notes.exists(),
        "a foreign .pwctx is neither counted nor evicted"
    );
    assert!(scratch.exists(), "a foreign .tmp is never swept");
    assert!(
        !orphan.exists(),
        "an aged orphan of the plane's writes is swept"
    );
    assert!(in_flight.exists(), "a young temp file may be a live write");
    assert_eq!(plane.disk_store_entries(), Some(1));
    let _ = fs::remove_dir_all(&dir);
}

/// A disk-backed plane whose store directory has vanished out from
/// under it — replaced by a plain file, which defeats even a root test
/// runner — so every store write fails. Remove the file when done.
fn unwritable_plane(tag: &str) -> (Arc<ReusePlane>, PathBuf) {
    let dir = scratch_dir(tag);
    let plane = Arc::new(ReusePlane::in_memory().with_disk_tier(&dir).unwrap());
    fs::remove_dir_all(&dir).unwrap();
    fs::write(&dir, b"now a file, not a directory").unwrap();
    (plane, dir)
}

/// A stored entry of `program()` and its content key.
fn stored_entry(tag: &str) -> (u64, Vec<u8>) {
    let (_, dir) = populate(tag);
    let entry = fs::read(&entry_paths(&dir)[0]).unwrap();
    let _ = fs::remove_dir_all(&dir);
    let config = AnalysisConfig::paper_default();
    let compiled = program().compile(config.code_base).unwrap();
    let key = ContextCache::key_of(&compiled, config.geometry, config.classification);
    (key, entry)
}

#[test]
fn a_failed_write_of_an_offered_entry_is_counted() {
    let (key, entry) = stored_entry("offer-source");
    let (plane, dir) = unwritable_plane("offer-unwritable");
    assert!(!plane.import_entry(key, entry), "nothing could be stored");
    let stats = plane.stats();
    assert_eq!((stats.disk_writes, stats.disk_corrupt), (0, 1));
    let _ = fs::remove_file(&dir);
}

#[test]
fn a_failed_write_through_of_a_fetched_entry_is_counted() {
    // The lookup alone writes the fetched entry through; no persist
    // follows to count a failure of its own.
    let (key, entry) = stored_entry("fetch-source");
    let network = Arc::new(FakeNetwork::default());
    network.entries.lock().unwrap().insert(key, entry);
    let (plane, dir) = unwritable_plane("fetch-unwritable");
    plane.set_network_tier(network as Arc<dyn NetworkTier>);
    let config = AnalysisConfig::paper_default();
    let compiled = program().compile(config.code_base).unwrap();
    let (_, tier) = plane
        .get_or_build_traced(&compiled, config.geometry, config.classification)
        .unwrap();
    assert_eq!(tier, ReuseTier::Network);
    let stats = plane.stats();
    assert_eq!((stats.disk_writes, stats.disk_corrupt), (0, 1));
    let _ = fs::remove_file(&dir);
}

#[test]
fn analysis_survives_an_unwritable_store() {
    // Persistence is an optimization: a store that cannot be written
    // must not affect results.
    let (plane, dir) = unwritable_plane("unwritable");

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
    // evicted the program: driving 8 programs past the tier's capacity
    // releases exactly the templates of the 8 least recently used, and
    // every resident context keeps its own.
    let plane = Arc::new(ReusePlane::in_memory());
    let config = AnalysisConfig::paper_default();
    let overflow = 8;
    let templates: Vec<Weak<IpetTemplate>> = (0..(DEFAULT_CONTEXT_CAPACITY + overflow) as u32)
        .map(|i| {
            let compiled = gc_program(i).compile(config.code_base).unwrap();
            let context = plane
                .get_or_build_traced(&compiled, config.geometry, config.classification)
                .unwrap()
                .0;
            analyzer(&plane).analyze_with_context(&context).unwrap();
            Arc::downgrade(&context.ipet_template())
        })
        .collect();
    let live: Vec<bool> = templates.iter().map(|t| t.upgrade().is_some()).collect();
    let evicted = &live[..overflow];
    assert!(
        evicted.iter().all(|live| !live),
        "templates outlived their evicted programs: {evicted:?}"
    );
    assert!(live[overflow..].iter().all(|live| *live));
    assert_eq!(plane.stats().memory.evictions, overflow as u64);
}

#[test]
fn a_derivation_counts_its_fixpoint_in_the_nodes_classify_rows() {
    // Deriving a 2-way sibling runs one warm fixpoint on its 4-way
    // parent. It counts in the node's rows although the sibling's own
    // analysis then runs none.
    let config = AnalysisConfig::paper_default();
    let mut narrow = config;
    narrow.geometry = config.geometry.with_ways(2);
    let compiled = program().compile(config.code_base).unwrap();
    let plane = Arc::new(ReusePlane::in_memory());
    let passes = plane.metrics().counter("classify_passes");
    analyzer(&plane).analyze_compiled(&compiled).unwrap();
    let widest = passes.get();
    assert!(widest > 0, "the widest point ran its fixpoints");
    let (_, tier) = analyzer_with(narrow, &plane)
        .analyze_compiled(&compiled)
        .unwrap();
    assert_eq!(tier, ReuseTier::Derived);

    // The reference count, from a second plane: the derivation alone,
    // before the sibling's analysis, already moves that node's row.
    let reference = Arc::new(ReusePlane::in_memory());
    let reference_passes = reference.metrics().counter("classify_passes");
    analyzer(&reference).analyze_compiled(&compiled).unwrap();
    let before = reference_passes.get();
    let (sibling, tier) = reference
        .get_or_build_traced(&compiled, narrow.geometry, narrow.classification)
        .unwrap();
    assert_eq!(tier, ReuseTier::Derived);
    assert!(
        reference_passes.get() > before,
        "the derivation ran a fixpoint"
    );
    analyzer_with(narrow, &reference)
        .analyze_with_context(&sibling)
        .unwrap();
    assert_eq!(passes.get() - widest, reference_passes.get() - before);
}

#[test]
fn a_prewarm_before_the_analysis_counts_in_the_nodes_classify_rows() {
    // The traced benchmark replay prewarms a context the plane handed
    // out before it analyzes it; every fixpoint of that prewarm counts.
    let config = AnalysisConfig::paper_default();
    let compiled = program().compile(config.code_base).unwrap();
    let plane = Arc::new(ReusePlane::in_memory());
    let (context, tier) = plane
        .get_or_build_traced(&compiled, config.geometry, config.classification)
        .unwrap();
    assert_eq!(tier, ReuseTier::Cold);
    context.prewarm(config.parallelism);
    analyzer(&plane).analyze_with_context(&context).unwrap();
    let passes = plane.metrics().counter("classify_passes").get();
    assert!(passes > 0, "the prewarm ran the fixpoints");
    assert_eq!(passes, context.kernel_stats().passes);
}
