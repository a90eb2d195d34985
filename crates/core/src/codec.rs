//! Hand-rolled versioned binary codec for the on-disk context tier.
//!
//! The build image is offline, so no serde: every artifact of an
//! [`AnalysisContext`](crate::AnalysisContext) — the memoized solve
//! products, the classified CHMC levels, the converged full-associativity
//! Must/May states and the SRB map — is written with the
//! [frame](crate::frame) module's writer and read back with its bounded
//! reader, behind its 24-byte header under the [`PWCX`] parameters: magic
//! `"PWCX"`, version 6, the lane checksum ([`entry_checksum`]) and no
//! payload cap. Solver state is not persisted: a restored context that
//! needs a new solve builds its IPET template as a fresh context does.
//!
//! The payload carries, in this order:
//!
//! ```text
//! content key            u64   the cache key the entry is filed under
//! expander fingerprint   u64   a second, independent hash of the CFG
//!                              expander inputs (image, extents, loop
//!                              bounds, geometry, mode)
//! presence summary             full-level flag, one flag per CHMC level
//!                              0..=W, SRB flag
//! solve section                per cache timing: WCET_ff, the fault miss
//!                              map and the SRB column
//! tail length            u64   then the classification tail: full level
//!                              (CHMC + Must/May states), the flagged
//!                              CHMC levels and the SRB map
//! ```
//!
//! A solved answer reads only the solve section — a few hundred bytes of
//! a ~35 KB entry whose tail is mostly Must/May states. So a hit
//! ([`decode_context`]) verifies the checksum over every payload byte,
//! checks both fingerprints, and decodes the presence summary and the
//! solve section; the tail stays raw, verified bytes until the restored
//! context first needs it ([`decode_tail`]).
//!
//! Decoding is **paranoid by construction**: every length is bounds-checked
//! against the remaining bytes before any allocation, every enum tag is
//! validated, and every shape (node counts, per-node reference counts,
//! abstract-state dimensions, FMM dimensions) is cross-checked against the
//! requested geometry and, for the tail, the live CFG. Any mismatch —
//! truncation, bit flips, stale versions, or a content-hash collision —
//! surfaces as a [`FrameError`], which the reuse plane treats as a cache
//! miss at read, or as a counted late corruption when a tail fails at
//! first use: both recompute cold. A corrupted file can cost time, never
//! correctness.
//!
//! The CFG itself is *not* serialized: entries are keyed by the content
//! fingerprint of the program image and CFG metadata, and a restored
//! context keeps the expander inputs and expands the graph only when
//! something needs it — a new cache timing, a derivation, a template
//! request. Expansion costs more than the rest of a solved hit, so the hit
//! path never pays it; the expander fingerprint takes over from the CFG
//! shape checks as the guard against a content-key collision there, and
//! the tail is still cross-checked against the live graph when decoded.

use std::sync::Arc;

use pwcet_analysis::{
    AnalysisKind, BlockInterner, Chmc, ChmcMap, ClassificationMode, ClassifiedLevel, PackedAcs,
    Scope, SrbMap,
};
use pwcet_cache::{CacheGeometry, CacheTiming};
use pwcet_cfg::ExpandedCfg;
use pwcet_progen::CompiledProgram;

use crate::context::TailParts;
use crate::fmm::FaultMissMap;
use crate::frame::{Envelope, FrameError, Reader, Writer, HEADER_LEN};
use crate::pipeline::SolveArtifacts;

/// The `PWCX` envelope (pWCET context): the lane checksum
/// ([`entry_checksum`]) and no payload cap beyond the file itself. Bump
/// the version on any layout change; entries at any other version decode
/// to [`FrameError::UnsupportedVersion`] and are rebuilt cold.
///
/// History: 1 = set-based abstract states (one `u64` length plus one
/// `u32` block id per occupied age-slot entry); 2 = bit-packed states
/// serialized as raw slot words (`sets × assoc × lanes` `u64`s straight
/// from the kernel representation — no per-block overhead, and decoding
/// is a bounds-checked `memcpy` instead of `BTreeSet` rebuilds); 3 = v2
/// plus a trailing solver-state section (one compact factored-basis
/// snapshot per solved IPET configuration — basic-variable index set and
/// nonbasic bound statuses; the `m × m` inverse is refactored on load,
/// never shipped); 4 = one IPET configuration: solved entries are keyed
/// by cache timing alone (no IPET flag byte) and the solver-state
/// section is one optional snapshot; 5 = a word-wise lane checksum
/// instead of byte-serial FNV-1a, an expander fingerprint instead of the
/// name, geometry and mode fields, and a presence summary plus the solve
/// section ahead of a length-prefixed classification tail that is
/// decoded on first use; 6 = v5 without solver state: no basis flag in
/// the presence summary and no basis section, so the tail ends with the
/// SRB map.
pub(crate) const PWCX: Envelope = Envelope {
    magic: *b"PWCX",
    version: 6,
    max_payload: u64::MAX,
    checksum: entry_checksum,
};

/// Minimal 64-bit FNV-1a — deterministic across platforms and processes,
/// unlike `DefaultHasher`, which randomizes per process. Used for the
/// content keys of the context cache.
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Hashes raw bytes with a length prefix, keeping concatenated
    /// variable-length fields unambiguous.
    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u32(bytes.len() as u32);
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    pub(crate) fn write_u32(&mut self, value: u32) {
        for b in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot 64-bit FNV-1a of a raw buffer (no length prefix). The `PWCQ`
/// service protocol checksums its frames with it and the peer ring
/// places nodes and keys with it; `PWCX` entries use
/// [`entry_checksum`] instead.
pub fn fnv1a_checksum(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::OFFSET;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(Fnv1a::PRIME);
    }
    h
}

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// Seeds of the two hashes built on [`LaneHash`], so the payload
/// checksum and the expander fingerprint never coincide by construction.
const CHECKSUM_SEED: u64 = 0x5057_4358_0000_0005;
const FINGERPRINT_SEED: u64 = 0x5057_4358_4650_0005;

/// One lane step: `acc ← rotl(acc + word·P2, 31)·P1`. For a fixed `acc`
/// it is a bijection of `word`, and for a fixed `word` a bijection of
/// `acc`.
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// A word-wise 64-bit hash with four independent lanes: word `i` feeds
/// lane `i mod 4`, so the four multiply chains run in parallel instead
/// of one byte-serial chain.
///
/// Every step — each [`round`], each lane's fold into the result and the
/// final avalanche — is a bijection of the value that changed, so two
/// inputs of equal word count that differ in one word always hash
/// differently. A single-bit flip anywhere in a payload is therefore
/// always detected.
struct LaneHash {
    lanes: [u64; 4],
    words: u64,
}

impl LaneHash {
    fn new(seed: u64) -> Self {
        Self {
            lanes: [
                seed.wrapping_add(P1).wrapping_add(P2),
                seed.wrapping_add(P2),
                seed,
                seed.wrapping_sub(P1),
            ],
            words: 0,
        }
    }

    fn write_u64(&mut self, word: u64) {
        let lane = (self.words % 4) as usize;
        self.lanes[lane] = round(self.lanes[lane], word);
        self.words += 1;
    }

    /// Absorbs `bytes` as little-endian words, the last one zero-padded
    /// (callers hash the length separately). Whole 32-byte stripes run
    /// with the four lanes in registers when the hash is at lane 0.
    fn write_bytes(&mut self, bytes: &[u8]) {
        let word = |chunk: &[u8]| u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let mut rest = bytes;
        if self.words.is_multiple_of(4) {
            let stripes = bytes.chunks_exact(32);
            rest = stripes.remainder();
            let [mut a, mut b, mut c, mut d] = self.lanes;
            for stripe in stripes {
                a = round(a, word(&stripe[0..8]));
                b = round(b, word(&stripe[8..16]));
                c = round(c, word(&stripe[16..24]));
                d = round(d, word(&stripe[24..32]));
            }
            self.lanes = [a, b, c, d];
            self.words += (bytes.len() / 32 * 4) as u64;
        }
        let mut words = rest.chunks_exact(8);
        for chunk in &mut words {
            self.write_u64(word(chunk));
        }
        let last = words.remainder();
        if !last.is_empty() {
            let mut padded = [0u8; 8];
            padded[..last.len()].copy_from_slice(last);
            self.write_u64(u64::from_le_bytes(padded));
        }
    }

    fn finish(&self) -> u64 {
        let mut h = self.words.wrapping_mul(P5);
        for &lane in &self.lanes {
            h = (h ^ round(0, lane)).rotate_left(27).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// The payload checksum of `PWCX` entries: a four-lane word-wise hash
/// of the payload and its length. Every single-bit flip
/// of a payload changes it. Exported so tests can re-seal a tampered
/// entry and reach the structural decoder behind the checksum gate.
pub fn entry_checksum(payload: &[u8]) -> u64 {
    let mut h = LaneHash::new(CHECKSUM_SEED);
    h.write_bytes(payload);
    h.write_u64(payload.len() as u64);
    h.finish()
}

/// The second fingerprint of a `(program, geometry, mode)` triple: the
/// same expander inputs [`ContextCache::key_of`](crate::ContextCache::key_of)
/// hashes — image base and words, function extents, loop bounds, the
/// geometry and the classification mode — through an independent hash
/// ([`LaneHash`], not FNV-1a). An entry must match both the content key
/// and this fingerprint to be restored, which guards the hit path
/// against a content-key collision without expanding the CFG.
pub(crate) fn expander_fingerprint(
    compiled: &CompiledProgram,
    geometry: CacheGeometry,
    mode: ClassificationMode,
) -> u64 {
    let mut h = LaneHash::new(FINGERPRINT_SEED);
    let image = compiled.image();
    h.write_u64(u64::from(image.base()));
    h.write_u64(image.words().len() as u64);
    for pair in image.words().chunks(2) {
        let high = pair.get(1).copied().unwrap_or(0);
        h.write_u64(u64::from(pair[0]) | (u64::from(high) << 32));
    }
    h.write_u64(compiled.functions().len() as u64);
    for function in compiled.functions() {
        h.write_u64(function.name().len() as u64);
        h.write_bytes(function.name().as_bytes());
        h.write_u64(u64::from(function.entry()) | (u64::from(function.end()) << 32));
    }
    h.write_u64(compiled.loop_bounds().len() as u64);
    for bound in compiled.loop_bounds() {
        h.write_u64(u64::from(bound.header) | (u64::from(bound.bound) << 32));
    }
    h.write_u64(u64::from(geometry.sets()) | (u64::from(geometry.ways()) << 32));
    h.write_u64(u64::from(geometry.block_bytes()));
    h.write_u64(mode_tag(mode));
    h.finish()
}

fn mode_tag(mode: ClassificationMode) -> u64 {
    match mode {
        ClassificationMode::Cold => 0,
        ClassificationMode::Incremental => 1,
    }
}

/// Validates the *envelope* of a serialized entry — magic, version,
/// declared length, payload checksum, and the embedded content key —
/// without decoding anything. This is the gate a service node applies to
/// entries arriving over the network before storing or relaying them:
/// cheap and sufficient to reject corrupt or mis-keyed entries at the
/// door. The fingerprint and the sections are checked when a lookup
/// restores the entry.
///
/// # Errors
///
/// The same envelope-level [`FrameError`]s [`decode_context`] would
/// raise, plus a key mismatch for an entry stored under the wrong
/// fingerprint.
pub(crate) fn validate_entry(bytes: &[u8], expected_key: u64) -> Result<(), FrameError> {
    let mut dec = Reader::new(PWCX.open(bytes)?);
    if dec.u64()? != expected_key {
        return Err(FrameError::Malformed("content key mismatch"));
    }
    Ok(())
}

/// Which artifacts an entry's classification tail holds — what the
/// reuse plane's write-through gate reads, available without decoding
/// the tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Presence {
    pub(crate) full: bool,
    /// One flag per CHMC level `0..=W`.
    pub(crate) levels: Vec<bool>,
    pub(crate) srb: bool,
}

impl Presence {
    /// Classification levels the tail holds, counted as
    /// [`AnalysisContext::warmed_levels`](crate::AnalysisContext::warmed_levels)
    /// counts them.
    pub(crate) fn warmed_levels(&self) -> usize {
        usize::from(self.full) + self.levels.iter().filter(|&&present| present).count()
    }
}

/// A classification tail as an entry carries it: its presence summary
/// and its encoded bytes — checksum-verified, not decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RawTail {
    pub(crate) presence: Presence,
    /// The buffer holding the tail: the whole entry on a hit (no copy),
    /// the tail alone when freshly encoded.
    buf: Vec<u8>,
    start: usize,
}

impl RawTail {
    /// The tail of an entry that [`decode_context`] accepted, left in
    /// the entry's own buffer.
    pub(crate) fn in_entry(entry: Vec<u8>, presence: Presence, tail_at: usize) -> Self {
        Self {
            presence,
            buf: entry,
            start: tail_at,
        }
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[self.start..]
    }
}

/// The memoized solve products of one entry, per cache timing.
pub(crate) type SolvedEntries = Vec<(CacheTiming, SolveArtifacts)>;

/// What a hit decodes: the solve section, the presence summary, and
/// where the raw tail starts in the entry.
#[derive(Debug)]
pub(crate) struct Hit {
    pub(crate) solved: SolvedEntries,
    pub(crate) presence: Presence,
    pub(crate) tail_at: usize,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn encode_chmc(enc: &mut Writer, map: &ChmcMap) {
    enc.u64(map.len() as u64);
    for node in 0..map.len() {
        let row = map.node(node);
        enc.u64(row.len() as u64);
        for &class in row {
            match class {
                Chmc::AlwaysHit => enc.u8(0),
                Chmc::FirstMiss(Scope::Program) => enc.u8(1),
                Chmc::FirstMiss(Scope::Loop(id)) => {
                    enc.u8(2);
                    enc.u64(id as u64);
                }
                Chmc::AlwaysMiss => enc.u8(3),
                Chmc::NotClassified => enc.u8(4),
            }
        }
    }
}

/// Serializes one packed state as its raw slot words. The interner is
/// *not* serialized: it is a deterministic function of the CFG and the
/// `(sets, block_bytes)` of the geometry, so the decoder rebuilds it and
/// only the fixpoint's actual bits ride on disk.
fn encode_packed(enc: &mut Writer, acs: &PackedAcs) {
    enc.u8(match acs.kind() {
        AnalysisKind::Must => 0,
        AnalysisKind::May => 1,
    });
    enc.u32(acs.sets());
    enc.u32(acs.block_bytes());
    enc.u32(acs.assoc() as u32);
    enc.u32(acs.interner().lanes() as u32);
    for &word in acs.words() {
        enc.u64(word);
    }
}

fn encode_states(enc: &mut Writer, states: &[Option<PackedAcs>]) {
    enc.u64(states.len() as u64);
    for state in states {
        enc.opt(state.as_ref(), encode_packed);
    }
}

fn encode_level(enc: &mut Writer, level: &ClassifiedLevel) {
    enc.u32(level.assoc());
    encode_chmc(enc, level.chmc());
    encode_states(enc, level.must_states());
    encode_states(enc, level.may_states());
}

fn encode_srb(enc: &mut Writer, srb: &SrbMap) {
    let rows = srb.rows();
    enc.u64(rows.len() as u64);
    for row in rows {
        enc.u64(row.len() as u64);
        for &hit in row {
            enc.u8(u8::from(hit));
        }
    }
}

fn encode_artifacts(enc: &mut Writer, artifacts: &SolveArtifacts) {
    enc.u64(artifacts.fault_free_wcet);
    let fmm = &artifacts.fmm;
    enc.u32(fmm.sets());
    enc.u32(fmm.ways());
    for s in 0..fmm.sets() {
        for f in 1..=fmm.ways() {
            enc.u64(fmm.get(s, f));
        }
    }
    enc.u64(artifacts.srb_last_column.len() as u64);
    for &bound in &artifacts.srb_last_column {
        enc.u64(bound);
    }
}

/// Encodes a context's decoded classification tail. Absent parts are
/// recorded in the presence summary only.
pub(crate) fn encode_tail(parts: &TailParts) -> RawTail {
    let mut enc = Writer::new();
    if let Some(full) = &parts.full {
        encode_level(&mut enc, full);
    }
    for map in parts.levels.iter().flatten() {
        encode_chmc(&mut enc, map);
    }
    if let Some(srb) = &parts.srb {
        encode_srb(&mut enc, srb);
    }
    RawTail {
        presence: Presence {
            full: parts.full.is_some(),
            levels: parts.levels.iter().map(Option::is_some).collect(),
            srb: parts.srb.is_some(),
        },
        buf: enc.into_bytes(),
        start: 0,
    }
}

/// Serializes one context entry (header + payload) for the disk tier.
pub(crate) fn encode_context(
    key: u64,
    fingerprint: u64,
    solved: &[(CacheTiming, &SolveArtifacts)],
    tail: &RawTail,
) -> Vec<u8> {
    let mut enc = Writer::new();
    enc.u64(key);
    enc.u64(fingerprint);
    let presence = &tail.presence;
    enc.flag(presence.full);
    enc.u64(presence.levels.len() as u64);
    for &level in &presence.levels {
        enc.flag(level);
    }
    enc.flag(presence.srb);
    enc.u64(solved.len() as u64);
    for (timing, artifacts) in solved {
        enc.u64(timing.hit_cycles());
        enc.u64(timing.miss_penalty_cycles());
        encode_artifacts(&mut enc, artifacts);
    }
    enc.bytes(tail.bytes());
    PWCX.seal(&enc.into_bytes())
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Per-node reference counts of the live CFG — the shape every decoded
/// per-reference table must match.
fn ref_shape(cfg: &ExpandedCfg) -> Vec<usize> {
    cfg.nodes().iter().map(|n| n.addrs().len()).collect()
}

fn decode_chmc(dec: &mut Reader<'_>, shape: &[usize]) -> Result<ChmcMap, FrameError> {
    let nodes = dec.seq_len(8)?;
    if nodes != shape.len() {
        return Err(FrameError::Malformed("CHMC node count"));
    }
    let mut rows = Vec::with_capacity(nodes);
    for &expected_refs in shape {
        let refs = dec.seq_len(1)?;
        if refs != expected_refs {
            return Err(FrameError::Malformed("CHMC reference count"));
        }
        let mut row = Vec::with_capacity(refs);
        for _ in 0..refs {
            row.push(match dec.u8()? {
                0 => Chmc::AlwaysHit,
                1 => Chmc::FirstMiss(Scope::Program),
                2 => {
                    let id = usize::try_from(dec.u64()?)
                        .map_err(|_| FrameError::Malformed("loop id"))?;
                    Chmc::FirstMiss(Scope::Loop(id))
                }
                3 => Chmc::AlwaysMiss,
                4 => Chmc::NotClassified,
                _ => return Err(FrameError::Malformed("CHMC tag")),
            });
        }
        rows.push(row);
    }
    Ok(ChmcMap::from_rows(rows))
}

/// Decodes one packed state against the interner rebuilt from the live
/// CFG. Beyond the usual shape checks, the raw words are validated
/// semantically: no bit may lie beyond the set's interned universe, and
/// no block may appear at two ages of one set — both are states no
/// fixpoint can produce, so they mark corruption that happens to pass the
/// checksum, or a hash-collision entry of a different program.
fn decode_packed(
    dec: &mut Reader<'_>,
    geometry: CacheGeometry,
    interner: &Arc<BlockInterner>,
) -> Result<PackedAcs, FrameError> {
    let kind = match dec.u8()? {
        0 => AnalysisKind::Must,
        1 => AnalysisKind::May,
        _ => return Err(FrameError::Malformed("analysis kind")),
    };
    let sets = dec.u32()?;
    if sets != geometry.sets() {
        return Err(FrameError::Malformed("abstract state set count"));
    }
    let block_bytes = dec.u32()?;
    if block_bytes != geometry.block_bytes() {
        return Err(FrameError::Malformed("abstract state block size"));
    }
    let assoc = dec.u32()?;
    if assoc == 0 || assoc > geometry.ways() {
        return Err(FrameError::Malformed("abstract state associativity"));
    }
    let lanes = dec.u32()? as usize;
    if lanes != interner.lanes() {
        return Err(FrameError::Malformed("abstract state lane count"));
    }
    let word_count = (sets * assoc) as usize * lanes;
    if dec.remaining() < word_count.saturating_mul(8) {
        return Err(FrameError::Truncated);
    }
    let mut words = Vec::with_capacity(word_count);
    for _ in 0..word_count {
        words.push(dec.u64()?);
    }
    for set in 0..sets as usize {
        let universe = interner.universe(set).len();
        let mut seen = vec![0u64; lanes];
        for age in 0..assoc as usize {
            for lane in 0..lanes {
                let bits = universe.saturating_sub(lane * 64).min(64);
                let allowed = if bits == 0 {
                    0
                } else if bits == 64 {
                    u64::MAX
                } else {
                    (1u64 << bits) - 1
                };
                let word = words[((set * assoc as usize) + age) * lanes + lane];
                if word & !allowed != 0 {
                    return Err(FrameError::Malformed("bit beyond the interned universe"));
                }
                if word & seen[lane] != 0 {
                    return Err(FrameError::Malformed("block at two ages"));
                }
                seen[lane] |= word;
            }
        }
    }
    Ok(PackedAcs::from_words(kind, assoc, interner, words))
}

fn decode_states(
    dec: &mut Reader<'_>,
    geometry: CacheGeometry,
    interner: &Arc<BlockInterner>,
    nodes: usize,
) -> Result<Vec<Option<PackedAcs>>, FrameError> {
    let count = dec.seq_len(1)?;
    if count != nodes {
        return Err(FrameError::Malformed("state node count"));
    }
    let mut states = Vec::with_capacity(count);
    for _ in 0..count {
        states.push(dec.opt("presence flag", |dec| {
            decode_packed(dec, geometry, interner)
        })?);
    }
    Ok(states)
}

fn decode_level(
    dec: &mut Reader<'_>,
    geometry: CacheGeometry,
    interner: &Arc<BlockInterner>,
    shape: &[usize],
) -> Result<ClassifiedLevel, FrameError> {
    let assoc = dec.u32()?;
    if assoc != geometry.ways() {
        return Err(FrameError::Malformed("full level associativity"));
    }
    let chmc = decode_chmc(dec, shape)?;
    let must = decode_states(dec, geometry, interner, shape.len())?;
    let may = decode_states(dec, geometry, interner, shape.len())?;
    Ok(ClassifiedLevel::from_parts(
        assoc,
        chmc,
        Arc::clone(interner),
        must,
        may,
    ))
}

fn decode_srb(dec: &mut Reader<'_>, shape: &[usize]) -> Result<SrbMap, FrameError> {
    let nodes = dec.seq_len(8)?;
    if nodes != shape.len() {
        return Err(FrameError::Malformed("SRB node count"));
    }
    let mut rows = Vec::with_capacity(nodes);
    for &expected_refs in shape {
        let refs = dec.seq_len(1)?;
        if refs != expected_refs {
            return Err(FrameError::Malformed("SRB reference count"));
        }
        let mut row = Vec::with_capacity(refs);
        for _ in 0..refs {
            row.push(dec.flag("SRB flag")?);
        }
        rows.push(row);
    }
    Ok(SrbMap::from_rows(rows))
}

fn decode_artifacts(
    dec: &mut Reader<'_>,
    geometry: CacheGeometry,
) -> Result<SolveArtifacts, FrameError> {
    let fault_free_wcet = dec.u64()?;
    let sets = dec.u32()?;
    let ways = dec.u32()?;
    if sets != geometry.sets() || ways != geometry.ways() {
        return Err(FrameError::Malformed("FMM dimensions"));
    }
    if (sets as usize)
        .saturating_mul(ways as usize)
        .saturating_mul(8)
        > dec.remaining()
    {
        return Err(FrameError::Truncated);
    }
    let mut fmm = FaultMissMap::new(sets, ways);
    for s in 0..sets {
        for f in 1..=ways {
            let bound = dec.u64()?;
            if bound > 0 {
                fmm.set(s, f, bound);
            }
        }
    }
    let cols = dec.seq_len(8)?;
    if cols != sets as usize {
        return Err(FrameError::Malformed("SRB column count"));
    }
    let mut srb_last_column = Vec::with_capacity(cols);
    for _ in 0..cols {
        srb_last_column.push(dec.u64()?);
    }
    Ok(SolveArtifacts {
        fault_free_wcet,
        fmm,
        srb_last_column,
    })
}

/// The hit path: checks the envelope (every payload byte is covered by
/// the checksum), the content `key` and the expander `fingerprint` the
/// caller computed from its own program, then decodes the presence
/// summary and the solve section against the requested `geometry`. The
/// classification tail is only located, never decoded: hand the entry
/// and the returned [`Hit`]'s summary and offset to [`RawTail::in_entry`],
/// and the tail to [`decode_tail`] on first use.
///
/// # Errors
///
/// Any envelope, fingerprint or structural failure of the read part —
/// the caller falls back to the next tier.
pub(crate) fn decode_context(
    bytes: &[u8],
    key: u64,
    fingerprint: u64,
    geometry: CacheGeometry,
) -> Result<Hit, FrameError> {
    let mut dec = Reader::new(PWCX.open(bytes)?);
    if dec.u64()? != key {
        return Err(FrameError::Malformed("content key mismatch"));
    }
    if dec.u64()? != fingerprint {
        return Err(FrameError::Malformed("expander fingerprint mismatch"));
    }
    let full = dec.flag("presence flag")?;
    let level_count = dec.seq_len(1)?;
    if level_count != geometry.ways() as usize + 1 {
        return Err(FrameError::Malformed("level count"));
    }
    let levels = (0..level_count)
        .map(|_| dec.flag("presence flag"))
        .collect::<Result<Vec<_>, _>>()?;
    let presence = Presence {
        full,
        levels,
        srb: dec.flag("presence flag")?,
    };
    let solved_count = dec.seq_len(16)?;
    let mut solved = Vec::with_capacity(solved_count);
    for _ in 0..solved_count {
        let timing = CacheTiming::new(dec.u64()?, dec.u64()?);
        solved.push((timing, decode_artifacts(&mut dec, geometry)?));
    }
    if dec.seq_len(1)? != dec.remaining() {
        return Err(FrameError::Malformed("tail length"));
    }
    Ok(Hit {
        solved,
        presence,
        tail_at: HEADER_LEN + dec.position(),
    })
}

/// Decodes a classification tail against the live `cfg` and `geometry`:
/// the deferred half of a hit, run when the restored context first needs
/// a level or the SRB map. The tail passed the checksum at read, so a
/// failure here means a checksum-consistent forgery (or a collision the
/// expander fingerprint missed).
///
/// # Errors
///
/// Any structural or cross-check failure against the live CFG.
pub(crate) fn decode_tail(
    tail: &RawTail,
    cfg: &ExpandedCfg,
    geometry: CacheGeometry,
) -> Result<TailParts, FrameError> {
    let presence = &tail.presence;
    let mut dec = Reader::new(tail.bytes());
    let shape = ref_shape(cfg);
    let full = if presence.full {
        // One interner serves every state of the level: it is a
        // deterministic function of the live CFG and the geometry's
        // (sets, block size).
        let interner = Arc::new(BlockInterner::build(cfg, &geometry));
        Some(decode_level(&mut dec, geometry, &interner, &shape)?)
    } else {
        None
    };
    let mut levels = Vec::with_capacity(presence.levels.len());
    for &present in &presence.levels {
        levels.push(if present {
            Some(decode_chmc(&mut dec, &shape)?)
        } else {
            None
        });
    }
    let srb = if presence.srb {
        Some(decode_srb(&mut dec, &shape)?)
    } else {
        None
    };
    dec.finish()?;
    Ok(TailParts { full, levels, srb })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{AnalysisContext, ContextParts};
    use crate::context_cache::ContextCache;
    use crate::{AnalysisConfig, PwcetAnalyzer};
    use pwcet_par::Parallelism;
    use pwcet_progen::{stmt, Program};

    /// The content key and expander fingerprint of one entry, and the
    /// geometry it is read under.
    #[derive(Clone, Copy)]
    struct Ids {
        key: u64,
        fingerprint: u64,
        geometry: CacheGeometry,
    }

    /// A cold context of `compiled`, filed under its expander
    /// fingerprint as the reuse plane's cold tier files it.
    fn build(
        compiled: &CompiledProgram,
        geometry: CacheGeometry,
        mode: ClassificationMode,
    ) -> AnalysisContext {
        let fingerprint = expander_fingerprint(compiled, geometry, mode);
        AnalysisContext::build_with_mode(compiled, geometry, mode, fingerprint).unwrap()
    }

    fn warmed_entry() -> (Ids, AnalysisContext) {
        let compiled = Program::new("codec")
            .with_function("main", stmt::loop_(25, stmt::compute(30)))
            .compile(0x0040_0000)
            .unwrap();
        let geometry = CacheGeometry::paper_default();
        let mode = ClassificationMode::Incremental;
        let context = build(&compiled, geometry, mode);
        context.prewarm(Parallelism::Sequential);
        let ids = Ids {
            key: ContextCache::key_of(&compiled, geometry, mode),
            fingerprint: expander_fingerprint(&compiled, geometry, mode),
            geometry,
        };
        (ids, context)
    }

    /// A context the analyzer has solved once, so its parts carry every
    /// section: levels, SRB map and solve artifacts.
    fn solved_entry() -> (Ids, AnalysisContext) {
        let (ids, context) = warmed_entry();
        let config = AnalysisConfig::paper_default().with_parallelism(Parallelism::Sequential);
        PwcetAnalyzer::new(config)
            .analyze_with_context(&context)
            .unwrap();
        (ids, context)
    }

    fn encode_parts(ids: Ids, parts: &ContextParts) -> Vec<u8> {
        let solved: Vec<(CacheTiming, &SolveArtifacts)> =
            parts.solved.iter().map(|(t, a)| (*t, a)).collect();
        encode_context(ids.key, ids.fingerprint, &solved, &encode_tail(&parts.tail))
    }

    /// Reads an entry as a hit and then its first use do: the solve
    /// section, then the tail against `cfg`.
    fn read_fully(bytes: &[u8], ids: Ids, cfg: &ExpandedCfg) -> Result<ContextParts, FrameError> {
        let hit = decode_context(bytes, ids.key, ids.fingerprint, ids.geometry)?;
        let tail = RawTail::in_entry(bytes.to_vec(), hit.presence, hit.tail_at);
        Ok(ContextParts {
            solved: hit.solved,
            tail: decode_tail(&tail, cfg, ids.geometry)?,
        })
    }

    #[test]
    fn round_trip_restores_every_artifact() {
        let (ids, context) = solved_entry();
        let parts = context.snapshot_parts();
        let bytes = encode_parts(ids, &parts);
        // The hit alone yields the solve section and the tail's summary.
        let hit = decode_context(&bytes, ids.key, ids.fingerprint, ids.geometry).unwrap();
        assert_eq!(hit.solved, parts.solved);
        assert_eq!(hit.presence, encode_tail(&parts.tail).presence);
        let restored = read_fully(&bytes, ids, context.cfg()).unwrap();
        assert_eq!(restored, parts);
        let restored = AnalysisContext::from_parts(
            "codec",
            context.shared_cfg(),
            ids.geometry,
            context.mode(),
            restored,
        );
        assert_eq!(restored.warmed_levels(), context.warmed_levels());
        for assoc in 0..=ids.geometry.ways() {
            assert_eq!(restored.chmc(assoc), context.chmc(assoc), "level {assoc}");
        }
        assert_eq!(restored.srb(), context.srb());
        assert_eq!(
            restored.solved_configurations(),
            context.solved_configurations()
        );
        // A context re-encodes its own entry byte for byte.
        assert_eq!(context.encode_entry(ids.key).unwrap(), bytes);
    }

    #[test]
    fn packed_states_shrink_the_entry_versus_the_legacy_format() {
        // The v1 format spent one u64 length per age slot plus one u32
        // per stored block; v2 writes the raw slot words. Recompute the
        // v1 size of the full level's states inline and pin the shrink.
        let (_, context) = warmed_entry();
        let parts = context.snapshot_parts();
        let full = parts.tail.full.as_ref().expect("prewarmed");
        let mut legacy = 0usize;
        let mut packed = 0usize;
        for state in full.must_states().iter().chain(full.may_states()) {
            let Some(state) = state else { continue };
            // v1: kind + sets + block_bytes + assoc, then per slot a u64
            // length and a u32 per block.
            let acs = state.to_acs();
            legacy += 1 + 4 + 4 + 4;
            for slot in acs.age_slots() {
                legacy += 8 + 4 * slot.len();
            }
            // v2: same header plus a lane count, then raw words.
            packed += 1 + 4 + 4 + 4 + 4 + 8 * state.words().len();
        }
        assert!(
            packed < legacy,
            "packed states must be strictly smaller: {packed} vs {legacy} bytes"
        );
    }

    #[test]
    fn unwarmed_entry_round_trips_to_lazy_slots() {
        let (ids, _) = warmed_entry();
        let compiled = Program::new("lazy")
            .with_function("main", stmt::compute(10))
            .compile(0x0040_0000)
            .unwrap();
        let cold = build(&compiled, ids.geometry, ClassificationMode::Incremental);
        let bytes = encode_parts(ids, &cold.snapshot_parts());
        let hit = decode_context(&bytes, ids.key, ids.fingerprint, ids.geometry).unwrap();
        assert!(hit.solved.is_empty());
        assert_eq!(hit.presence.warmed_levels(), 0);
        assert!(!hit.presence.srb);
        let parts = read_fully(&bytes, ids, cold.cfg()).unwrap();
        assert!(parts.tail.full.is_none());
        assert!(parts.tail.srb.is_none());
        assert!(parts.tail.levels.iter().all(Option::is_none));
    }

    #[test]
    fn resealed_mutations_fail_or_decode_canonically() {
        // Every truncation and every byte XOR 0x01/0x80/0xff of a full
        // entry's payload, re-sealed with a correct length and checksum
        // so the mutation reaches the structural decoders. Every lazy
        // part is materialized: each mutation must be refused at read,
        // refused when its tail is decoded against the live CFG, or
        // decode to parts that re-encode to the same bytes; none may
        // panic.
        let (ids, context) = solved_entry();
        let bytes = encode_parts(ids, &context.snapshot_parts());
        let payload = &bytes[HEADER_LEN..];
        let cfg = context.cfg();
        let (mut canonical, mut refused_late) = (0usize, 0usize);
        let mut check = |label: &str, mutated: &[u8]| {
            let entry = PWCX.seal(mutated);
            let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let hit = decode_context(&entry, ids.key, ids.fingerprint, ids.geometry)?;
                let tail = RawTail::in_entry(entry.clone(), hit.presence, hit.tail_at);
                Ok((hit.solved, decode_tail(&tail, cfg, ids.geometry)))
            }))
            .unwrap_or_else(|_| panic!("{label}: the decoder panicked"));
            match read {
                Err::<_, FrameError>(_) => {}
                Ok((_, Err(_))) => refused_late += 1,
                Ok((solved, Ok(tail))) => {
                    assert_eq!(
                        encode_parts(ids, &ContextParts { solved, tail }),
                        entry,
                        "{label}: a decoded entry must re-encode to its own bytes"
                    );
                    canonical += 1;
                }
            }
        };
        check("unmutated", payload);
        for len in 0..payload.len() {
            check(&format!("truncated to {len}"), &payload[..len]);
        }
        let mut mutated = payload.to_vec();
        for pos in 0..payload.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                mutated[pos] ^= mask;
                check(&format!("byte {pos} ^ {mask:#04x}"), &mutated);
                mutated[pos] ^= mask;
            }
        }
        assert!(
            canonical > 1,
            "some flips (timing, bounds) decode to another valid entry"
        );
        assert!(
            refused_late > 0,
            "some tail flips pass the hit and fail at materialization"
        );
    }

    #[test]
    fn header_corruptions_are_detected() {
        let (ids, context) = warmed_entry();
        let bytes = encode_parts(ids, &context.snapshot_parts());
        let read = |bytes: &[u8]| {
            decode_context(bytes, ids.key, ids.fingerprint, ids.geometry).map(|_| ())
        };

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(read(&bad_magic), Err(FrameError::BadMagic));

        // Version 5 is the retired layout; no shim reads it.
        for version in [PWCX.version - 1, 99] {
            let mut skewed = bytes.clone();
            skewed[4..8].copy_from_slice(&version.to_le_bytes());
            assert_eq!(read(&skewed), Err(FrameError::UnsupportedVersion(version)));
        }

        assert_eq!(read(&bytes[..bytes.len() / 2]), Err(FrameError::Truncated));
        assert_eq!(read(&bytes[..10]), Err(FrameError::Truncated));
    }

    #[test]
    fn payload_bit_flips_fail_the_checksum() {
        let (ids, context) = warmed_entry();
        let bytes = encode_parts(ids, &context.snapshot_parts());
        let read = |bytes: &[u8]| {
            decode_context(bytes, ids.key, ids.fingerprint, ids.geometry).map(|_| ())
        };
        for pos in [HEADER_LEN, HEADER_LEN + 7, bytes.len() / 2, bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x01;
            assert_eq!(
                read(&flipped),
                Err(FrameError::ChecksumMismatch),
                "flip at {pos}"
            );
        }
        // Flipping a checksum byte itself must also be caught.
        let mut bad_sum = bytes.clone();
        bad_sum[16] ^= 0x01;
        assert_eq!(read(&bad_sum), Err(FrameError::ChecksumMismatch));
    }

    #[test]
    fn every_single_bit_flip_of_a_suite_entry_fails_the_checksum() {
        // A real suite entry, solved once: levels, states, SRB map and
        // solve section. Every one of its payload bits, flipped alone,
        // must change the checksum — and every header bit must be refused
        // by the envelope too.
        let bench = pwcet_benchsuite::all()
            .into_iter()
            .find(|bench| bench.name == "crc")
            .expect("crc is in the suite");
        let config = AnalysisConfig::paper_default().with_parallelism(Parallelism::Sequential);
        let compiled = bench.program.compile(config.code_base).unwrap();
        let context = build(&compiled, config.geometry, config.classification);
        PwcetAnalyzer::new(config)
            .analyze_with_context(&context)
            .unwrap();
        let mut entry = context.encode_entry(1).unwrap();
        assert!(entry.len() > 4_000, "a full entry ({} bytes)", entry.len());
        for bit in 0..entry.len() * 8 {
            let (byte, mask) = (bit / 8, 1u8 << (bit % 8));
            entry[byte] ^= mask;
            let refused = PWCX.open(&entry);
            if byte >= HEADER_LEN || (16..24).contains(&byte) {
                assert_eq!(refused, Err(FrameError::ChecksumMismatch), "bit {bit}");
            } else {
                assert!(refused.is_err(), "header bit {bit}");
            }
            entry[byte] ^= mask;
        }
        assert!(PWCX.open(&entry).is_ok());
    }

    #[test]
    fn expectation_mismatches_are_rejected() {
        let (ids, context) = warmed_entry();
        let bytes = encode_parts(ids, &context.snapshot_parts());
        let read = |key: u64, fingerprint: u64, geometry: CacheGeometry| {
            decode_context(&bytes, key, fingerprint, geometry).map(|_| ())
        };
        assert_eq!(
            read(ids.key ^ 1, ids.fingerprint, ids.geometry),
            Err(FrameError::Malformed("content key mismatch"))
        );
        assert_eq!(
            read(ids.key, ids.fingerprint ^ 1, ids.geometry),
            Err(FrameError::Malformed("expander fingerprint mismatch"))
        );
        assert_eq!(
            read(ids.key, ids.fingerprint, ids.geometry.with_ways(2)),
            Err(FrameError::Malformed("level count"))
        );
        // The fingerprint covers the geometry and the mode as well as the
        // program's expander inputs.
        let compiled = Program::new("codec")
            .with_function("main", stmt::loop_(25, stmt::compute(30)))
            .compile(0x0040_0000)
            .unwrap();
        for (geometry, mode) in [
            (ids.geometry.with_ways(2), ClassificationMode::Incremental),
            (ids.geometry, ClassificationMode::Cold),
        ] {
            assert_ne!(
                expander_fingerprint(&compiled, geometry, mode),
                ids.fingerprint
            );
        }
        // A program of a different CFG shape under a colliding content
        // key: the hit path refuses it on the expander fingerprint, and
        // its tail never decodes against the other graph either.
        let other = Program::new("other")
            .with_function("main", stmt::compute(5))
            .compile(0x0040_0000)
            .unwrap();
        let other_fingerprint =
            expander_fingerprint(&other, ids.geometry, ClassificationMode::Incremental);
        assert_eq!(
            read(ids.key, other_fingerprint, ids.geometry),
            Err(FrameError::Malformed("expander fingerprint mismatch"))
        );
        let other_ctx = build(&other, ids.geometry, ClassificationMode::Incremental);
        assert!(matches!(
            read_fully(&bytes, ids, other_ctx.cfg()),
            Err(FrameError::Malformed(_) | FrameError::Truncated)
        ));
    }

    #[test]
    fn lane_hash_detects_every_word_change_at_any_length() {
        // Lengths around the 32-byte stripe and the 8-byte word, so the
        // stripe loop, the word tail and the padded last word all run.
        for len in [0usize, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100] {
            let base: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let sum = entry_checksum(&base);
            for byte in 0..len {
                let mut flipped = base.clone();
                flipped[byte] ^= 0x80;
                assert_ne!(entry_checksum(&flipped), sum, "len {len} byte {byte}");
            }
            // Appending a zero byte is a different payload.
            let mut longer = base.clone();
            longer.push(0);
            assert_ne!(entry_checksum(&longer), sum, "len {len} padded");
        }
    }
}
