//! Hand-rolled versioned binary codec for the on-disk context tier.
//!
//! The build image is offline, so no serde: every artifact of an
//! [`AnalysisContext`](crate::AnalysisContext) — the classified CHMC
//! levels, the converged full-associativity Must/May states, the SRB map,
//! and the memoized solve products — is written with explicit
//! little-endian fields behind a fixed header:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "PWCX"
//! 4       4     format version (u32, currently 4)
//! 8       8     payload length in bytes (u64)
//! 16      8     FNV-1a checksum of the payload (u64)
//! 24      …     payload
//! ```
//!
//! Decoding is **paranoid by construction**: every length is bounds-checked
//! against the remaining bytes before any allocation, every enum tag is
//! validated, and every shape (node counts, per-node reference counts,
//! abstract-state dimensions, FMM dimensions) is cross-checked against the
//! live CFG and requested geometry. Any mismatch — truncation, bit flips,
//! stale versions, or a content-hash collision — surfaces as a
//! [`CodecError`], which the reuse plane treats as a cache miss: it falls
//! back to a cold build and counts the event. A corrupted file can cost
//! time, never correctness.
//!
//! The CFG itself is *not* serialized: entries are keyed by the content
//! fingerprint of the program image and CFG metadata, so the loader
//! re-expands the graph from the compiled program it already holds and
//! only the converged artifacts ride on disk. Re-expansion is not free —
//! on a disk hit it costs a sizable share of the lookup, beside the file
//! read and the decode — but it keeps entries small and gives every
//! decoded table a live graph to be cross-checked against.

use std::fmt;
use std::sync::Arc;

use pwcet_analysis::{
    AnalysisKind, BlockInterner, Chmc, ChmcMap, ClassificationMode, ClassifiedLevel, PackedAcs,
    Scope, SrbMap,
};
use pwcet_cache::{CacheGeometry, CacheTiming};
use pwcet_cfg::ExpandedCfg;
use pwcet_ipet::BasisSnapshot;

use crate::context::ContextParts;
use crate::fmm::FaultMissMap;
use crate::pipeline::SolveArtifacts;

/// File magic: "PWCX" (pWCET context).
pub(crate) const MAGIC: [u8; 4] = *b"PWCX";
/// The on-disk format version. Bump on any layout change; entries at
/// any other version decode to [`CodecError::UnsupportedVersion`] and
/// are rebuilt cold.
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
/// section is one optional snapshot.
pub(crate) const VERSION: u32 = 4;
/// Header bytes before the payload.
pub(crate) const HEADER_LEN: usize = 24;

/// Why a stored entry could not be decoded. All variants are recoverable:
/// the caller rebuilds the context cold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the declared (or minimal) structure needs.
    Truncated,
    /// The file does not start with the `PWCX` magic.
    BadMagic,
    /// A format version this build does not understand.
    UnsupportedVersion(u32),
    /// The payload checksum does not match the header.
    ChecksumMismatch,
    /// Structurally invalid or inconsistent with the live CFG/geometry.
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "entry is truncated"),
            CodecError::BadMagic => write!(f, "bad magic (not a context entry)"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            CodecError::Malformed(what) => write!(f, "malformed entry: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Minimal 64-bit FNV-1a — deterministic across platforms and processes,
/// unlike `DefaultHasher`, which randomizes per process. Used both for
/// content fingerprints and for the payload checksum.
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

    /// One-shot checksum of a raw buffer (no length prefix — the length
    /// is covered by the header field).
    fn checksum(bytes: &[u8]) -> u64 {
        let mut h = Self::OFFSET;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
        h
    }
}

/// One-shot 64-bit FNV-1a of a raw buffer — the exact payload checksum
/// of the `PWCX` disk-tier entries, exported so sibling wire codecs
/// (e.g. the `PWCQ` service protocol) cannot drift from it.
pub fn fnv1a_checksum(bytes: &[u8]) -> u64 {
    Fnv1a::checksum(bytes)
}

/// Validates the *envelope* of a serialized entry — magic, version,
/// declared length, payload checksum, and the embedded content key —
/// without decoding the artifacts (which needs the live CFG). This is
/// the gate a service node applies to entries arriving over the network
/// before storing or relaying them: cheap and sufficient to reject
/// corrupt or mis-keyed entries at the door. Full semantic validation
/// still happens at decode time, against the CFG.
///
/// # Errors
///
/// The same header-level [`CodecError`]s `decode_context` would raise,
/// plus a key mismatch for an entry stored under the wrong fingerprint.
pub(crate) fn validate_entry(bytes: &[u8], expected_key: u64) -> Result<(), CodecError> {
    if bytes.len() < HEADER_LEN {
        return Err(CodecError::Truncated);
    }
    if bytes[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let payload = &bytes[HEADER_LEN..];
    if payload_len != payload.len() as u64 || payload.len() < 8 {
        return Err(CodecError::Truncated);
    }
    if Fnv1a::checksum(payload) != checksum {
        return Err(CodecError::ChecksumMismatch);
    }
    let key = u64::from_le_bytes(payload[..8].try_into().unwrap());
    if key != expected_key {
        return Err(CodecError::Malformed("content key mismatch"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Self { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn opt<T>(&mut self, value: Option<T>, mut write: impl FnMut(&mut Self, T)) {
        match value {
            Some(v) => {
                self.u8(1);
                write(self, v);
            }
            None => self.u8(0),
        }
    }
}

fn encode_chmc(enc: &mut Enc, map: &ChmcMap) {
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
fn encode_packed(enc: &mut Enc, acs: &PackedAcs) {
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

fn encode_states(enc: &mut Enc, states: &[Option<PackedAcs>]) {
    enc.u64(states.len() as u64);
    for state in states {
        enc.opt(state.as_ref(), encode_packed);
    }
}

fn encode_level(enc: &mut Enc, level: &ClassifiedLevel) {
    enc.u32(level.assoc());
    encode_chmc(enc, level.chmc());
    encode_states(enc, level.must_states());
    encode_states(enc, level.may_states());
}

fn encode_srb(enc: &mut Enc, srb: &SrbMap) {
    let rows = srb.rows();
    enc.u64(rows.len() as u64);
    for row in rows {
        enc.u64(row.len() as u64);
        for &hit in row {
            enc.u8(u8::from(hit));
        }
    }
}

fn encode_artifacts(enc: &mut Enc, artifacts: &SolveArtifacts) {
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

/// Serializes one factored-basis snapshot: the basic-variable index set
/// and the nonbasic bound statuses only — the `m × m` basis inverse is
/// refactored from them on load, so it never rides on disk or the wire.
fn encode_basis(enc: &mut Enc, snapshot: &BasisSnapshot) {
    enc.u32(snapshot.n_struct);
    enc.u32(snapshot.m);
    enc.u64(snapshot.statuses.len() as u64);
    enc.buf.extend_from_slice(&snapshot.statuses);
    enc.u64(snapshot.basis.len() as u64);
    for &entry in &snapshot.basis {
        enc.u32(entry);
    }
}

/// Serializes one context entry (header + payload) for the disk tier.
pub(crate) fn encode_context(
    key: u64,
    name: &str,
    geometry: CacheGeometry,
    mode: ClassificationMode,
    parts: &ContextParts,
) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u64(key);
    enc.str(name);
    enc.u32(geometry.sets());
    enc.u32(geometry.ways());
    enc.u32(geometry.block_bytes());
    enc.u8(mode_tag(mode));
    enc.opt(parts.full.as_ref(), encode_level);
    enc.u64(parts.levels.len() as u64);
    for level in &parts.levels {
        enc.opt(level.as_ref(), encode_chmc);
    }
    enc.opt(parts.srb.as_ref(), encode_srb);
    enc.u64(parts.solved.len() as u64);
    for (timing, artifacts) in &parts.solved {
        enc.u64(timing.hit_cycles());
        enc.u64(timing.miss_penalty_cycles());
        encode_artifacts(&mut enc, artifacts);
    }
    enc.opt(parts.basis.as_ref(), encode_basis);
    seal(&enc.buf)
}

/// Puts `payload` behind the entry header: magic, version, length and
/// checksum.
fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&Fnv1a::checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn mode_tag(mode: ClassificationMode) -> u8 {
    match mode {
        ClassificationMode::Cold => 0,
        ClassificationMode::Incremental => 1,
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a sequence length and guards it against allocation bombs:
    /// each element occupies at least `min_elem_bytes`, so a length the
    /// remaining bytes cannot possibly hold is corruption, not data.
    fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| CodecError::Truncated)?;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    fn present(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed("presence flag")),
        }
    }
}

/// Per-node reference counts of the live CFG — the shape every decoded
/// per-reference table must match.
fn ref_shape(cfg: &ExpandedCfg) -> Vec<usize> {
    cfg.nodes().iter().map(|n| n.addrs().len()).collect()
}

fn decode_chmc(dec: &mut Dec<'_>, shape: &[usize]) -> Result<ChmcMap, CodecError> {
    let nodes = dec.seq_len(8)?;
    if nodes != shape.len() {
        return Err(CodecError::Malformed("CHMC node count"));
    }
    let mut rows = Vec::with_capacity(nodes);
    for &expected_refs in shape {
        let refs = dec.seq_len(1)?;
        if refs != expected_refs {
            return Err(CodecError::Malformed("CHMC reference count"));
        }
        let mut row = Vec::with_capacity(refs);
        for _ in 0..refs {
            row.push(match dec.u8()? {
                0 => Chmc::AlwaysHit,
                1 => Chmc::FirstMiss(Scope::Program),
                2 => {
                    let id = usize::try_from(dec.u64()?)
                        .map_err(|_| CodecError::Malformed("loop id"))?;
                    Chmc::FirstMiss(Scope::Loop(id))
                }
                3 => Chmc::AlwaysMiss,
                4 => Chmc::NotClassified,
                _ => return Err(CodecError::Malformed("CHMC tag")),
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
    dec: &mut Dec<'_>,
    geometry: CacheGeometry,
    interner: &Arc<BlockInterner>,
) -> Result<PackedAcs, CodecError> {
    let kind = match dec.u8()? {
        0 => AnalysisKind::Must,
        1 => AnalysisKind::May,
        _ => return Err(CodecError::Malformed("analysis kind")),
    };
    let sets = dec.u32()?;
    if sets != geometry.sets() {
        return Err(CodecError::Malformed("abstract state set count"));
    }
    let block_bytes = dec.u32()?;
    if block_bytes != geometry.block_bytes() {
        return Err(CodecError::Malformed("abstract state block size"));
    }
    let assoc = dec.u32()?;
    if assoc == 0 || assoc > geometry.ways() {
        return Err(CodecError::Malformed("abstract state associativity"));
    }
    let lanes = dec.u32()? as usize;
    if lanes != interner.lanes() {
        return Err(CodecError::Malformed("abstract state lane count"));
    }
    let word_count = (sets * assoc) as usize * lanes;
    if dec.remaining() < word_count.saturating_mul(8) {
        return Err(CodecError::Truncated);
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
                    return Err(CodecError::Malformed("bit beyond the interned universe"));
                }
                if word & seen[lane] != 0 {
                    return Err(CodecError::Malformed("block at two ages"));
                }
                seen[lane] |= word;
            }
        }
    }
    Ok(PackedAcs::from_words(kind, assoc, interner, words))
}

fn decode_states(
    dec: &mut Dec<'_>,
    geometry: CacheGeometry,
    interner: &Arc<BlockInterner>,
    nodes: usize,
) -> Result<Vec<Option<PackedAcs>>, CodecError> {
    let count = dec.seq_len(1)?;
    if count != nodes {
        return Err(CodecError::Malformed("state node count"));
    }
    let mut states = Vec::with_capacity(count);
    for _ in 0..count {
        states.push(if dec.present()? {
            Some(decode_packed(dec, geometry, interner)?)
        } else {
            None
        });
    }
    Ok(states)
}

fn decode_level(
    dec: &mut Dec<'_>,
    geometry: CacheGeometry,
    interner: &Arc<BlockInterner>,
    shape: &[usize],
) -> Result<ClassifiedLevel, CodecError> {
    let assoc = dec.u32()?;
    if assoc != geometry.ways() {
        return Err(CodecError::Malformed("full level associativity"));
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

fn decode_srb(dec: &mut Dec<'_>, shape: &[usize]) -> Result<SrbMap, CodecError> {
    let nodes = dec.seq_len(8)?;
    if nodes != shape.len() {
        return Err(CodecError::Malformed("SRB node count"));
    }
    let mut rows = Vec::with_capacity(nodes);
    for &expected_refs in shape {
        let refs = dec.seq_len(1)?;
        if refs != expected_refs {
            return Err(CodecError::Malformed("SRB reference count"));
        }
        let mut row = Vec::with_capacity(refs);
        for _ in 0..refs {
            row.push(match dec.u8()? {
                0 => false,
                1 => true,
                _ => return Err(CodecError::Malformed("SRB flag")),
            });
        }
        rows.push(row);
    }
    Ok(SrbMap::from_rows(rows))
}

fn decode_artifacts(
    dec: &mut Dec<'_>,
    geometry: CacheGeometry,
) -> Result<SolveArtifacts, CodecError> {
    let fault_free_wcet = dec.u64()?;
    let sets = dec.u32()?;
    let ways = dec.u32()?;
    if sets != geometry.sets() || ways != geometry.ways() {
        return Err(CodecError::Malformed("FMM dimensions"));
    }
    if (sets as usize)
        .saturating_mul(ways as usize)
        .saturating_mul(8)
        > dec.remaining()
    {
        return Err(CodecError::Truncated);
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
        return Err(CodecError::Malformed("SRB column count"));
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

/// Decodes and validates one entry against the caller's expectations: the
/// content `key` the entry was filed under, the live `cfg` rebuilt from
/// the same compiled program, and the requested `geometry`/`mode`.
/// Returns the stored program name and the restored artifact parts.
///
/// # Errors
///
/// Any header, checksum, structural, or cross-check failure — the caller
/// falls back to a cold build.
pub(crate) fn decode_context(
    bytes: &[u8],
    cfg: &ExpandedCfg,
    key: u64,
    geometry: CacheGeometry,
    mode: ClassificationMode,
) -> Result<(String, ContextParts), CodecError> {
    if bytes.len() < HEADER_LEN {
        return Err(CodecError::Truncated);
    }
    if bytes[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let payload = &bytes[HEADER_LEN..];
    if payload_len != payload.len() as u64 {
        return Err(CodecError::Truncated);
    }
    if Fnv1a::checksum(payload) != checksum {
        return Err(CodecError::ChecksumMismatch);
    }

    let mut dec = Dec::new(payload);
    if dec.u64()? != key {
        return Err(CodecError::Malformed("content key mismatch"));
    }
    let name_len = dec.seq_len(1)?;
    let name = String::from_utf8(dec.take(name_len)?.to_vec())
        .map_err(|_| CodecError::Malformed("program name"))?;
    let (sets, ways, block_bytes) = (dec.u32()?, dec.u32()?, dec.u32()?);
    if (sets, ways, block_bytes) != (geometry.sets(), geometry.ways(), geometry.block_bytes()) {
        return Err(CodecError::Malformed("geometry mismatch"));
    }
    if dec.u8()? != mode_tag(mode) {
        return Err(CodecError::Malformed("classification mode mismatch"));
    }

    let shape = ref_shape(cfg);
    // One interner serves every state of the entry: it is a deterministic
    // function of the live CFG and the geometry's (sets, block size).
    let interner = Arc::new(BlockInterner::build(cfg, &geometry));
    let full = if dec.present()? {
        Some(decode_level(&mut dec, geometry, &interner, &shape)?)
    } else {
        None
    };
    let level_count = dec.seq_len(1)?;
    if level_count != geometry.ways() as usize + 1 {
        return Err(CodecError::Malformed("level count"));
    }
    let mut levels = Vec::with_capacity(level_count);
    for _ in 0..level_count {
        levels.push(if dec.present()? {
            Some(decode_chmc(&mut dec, &shape)?)
        } else {
            None
        });
    }
    let srb = if dec.present()? {
        Some(decode_srb(&mut dec, &shape)?)
    } else {
        None
    };
    let solved_count = dec.seq_len(16)?;
    let mut solved = Vec::with_capacity(solved_count);
    for _ in 0..solved_count {
        let timing = CacheTiming::new(dec.u64()?, dec.u64()?);
        solved.push((timing, decode_artifacts(&mut dec, geometry)?));
    }
    let basis = if dec.present()? {
        Some(decode_basis(&mut dec)?)
    } else {
        None
    };
    if dec.remaining() != 0 {
        return Err(CodecError::Malformed("trailing bytes"));
    }
    Ok((
        name,
        ContextParts {
            full,
            levels,
            srb,
            solved,
            basis,
        },
    ))
}

/// Decodes one factored-basis snapshot, validating its internal shape:
/// status bytes cover exactly the structural and slack columns, status
/// tags are in range, the basic set has exactly `m` entries, and every
/// entry is either a real column index or the retired-artificial
/// sentinel. Cross-validation against the live IPET model happens at
/// seed time ([`pwcet_ipet::IpetTemplate::seed_basis`]); a snapshot that
/// fails there degrades to a counted cold factorization, never a wrong
/// bound.
fn decode_basis(dec: &mut Dec<'_>) -> Result<BasisSnapshot, CodecError> {
    let n_struct = dec.u32()?;
    let m = dec.u32()?;
    let statuses_len = dec.seq_len(1)?;
    if statuses_len != (n_struct as usize) + (m as usize) {
        return Err(CodecError::Malformed("basis status count"));
    }
    let statuses = dec.take(statuses_len)?.to_vec();
    if statuses.iter().any(|&tag| tag > 2) {
        return Err(CodecError::Malformed("basis status tag"));
    }
    let basis_len = dec.seq_len(4)?;
    if basis_len != m as usize {
        return Err(CodecError::Malformed("basis size"));
    }
    let mut basis = Vec::with_capacity(basis_len);
    for _ in 0..basis_len {
        let entry = dec.u32()?;
        if entry != BasisSnapshot::ARTIFICIAL && entry as usize >= statuses_len {
            return Err(CodecError::Malformed("basis entry"));
        }
        basis.push(entry);
    }
    Ok(BasisSnapshot {
        n_struct,
        m,
        statuses,
        basis,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalysisContext;
    use crate::context_cache::ContextCache;
    use pwcet_par::Parallelism;
    use pwcet_progen::{stmt, Program};

    fn warmed_entry() -> (u64, CacheGeometry, ClassificationMode, AnalysisContext) {
        let compiled = Program::new("codec")
            .with_function("main", stmt::loop_(25, stmt::compute(30)))
            .compile(0x0040_0000)
            .unwrap();
        let geometry = CacheGeometry::paper_default();
        let mode = ClassificationMode::Incremental;
        let context = AnalysisContext::build_with_mode(&compiled, geometry, mode).unwrap();
        context.prewarm(Parallelism::Sequential);
        let key = ContextCache::key_of(&compiled, geometry, mode);
        (key, geometry, mode, context)
    }

    fn assert_identical(context: &AnalysisContext, restored: &AnalysisContext) {
        assert_eq!(restored.warmed_levels(), context.warmed_levels());
        for assoc in 0..=context.geometry().ways() {
            assert_eq!(restored.chmc(assoc), context.chmc(assoc), "level {assoc}");
        }
        assert_eq!(restored.srb(), context.srb());
        assert_eq!(
            restored.solved_configurations(),
            context.solved_configurations()
        );
    }

    #[test]
    fn round_trip_restores_every_artifact() {
        let (key, geometry, mode, context) = warmed_entry();
        let bytes = encode_context(
            key,
            context.name(),
            geometry,
            mode,
            &context.snapshot_parts(),
        );
        let (name, parts) = decode_context(&bytes, context.cfg(), key, geometry, mode).unwrap();
        assert_eq!(name, "codec");
        let restored =
            AnalysisContext::from_parts(name, context.shared_cfg(), geometry, mode, parts);
        assert_identical(&context, &restored);
    }

    #[test]
    fn packed_states_shrink_the_entry_versus_the_legacy_format() {
        // The v1 format spent one u64 length per age slot plus one u32
        // per stored block; v2 writes the raw slot words. Recompute the
        // v1 size of the full level's states inline and pin the shrink.
        let (_, _, _, context) = warmed_entry();
        let parts = context.snapshot_parts();
        let full = parts.full.as_ref().expect("prewarmed");
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
        let (key, geometry, mode, _) = warmed_entry();
        let compiled = Program::new("lazy")
            .with_function("main", stmt::compute(10))
            .compile(0x0040_0000)
            .unwrap();
        let cold = AnalysisContext::build_with_mode(&compiled, geometry, mode).unwrap();
        let bytes = encode_context(key, "lazy", geometry, mode, &cold.snapshot_parts());
        let (_, parts) = decode_context(&bytes, cold.cfg(), key, geometry, mode).unwrap();
        assert!(parts.full.is_none());
        assert!(parts.srb.is_none());
        assert!(parts.levels.iter().all(Option::is_none));
        assert!(parts.solved.is_empty());
        assert!(parts.basis.is_none());
    }

    /// A context the analyzer has solved once, so `snapshot_parts`
    /// carries every section: levels, SRB map, solve artifacts and a
    /// factored basis.
    fn solved_entry() -> (u64, CacheGeometry, ClassificationMode, AnalysisContext) {
        use crate::{AnalysisConfig, PwcetAnalyzer};
        let (key, geometry, mode, context) = warmed_entry();
        let config = AnalysisConfig::paper_default().with_parallelism(Parallelism::Sequential);
        PwcetAnalyzer::new(config)
            .analyze_with_context(&context)
            .unwrap();
        (key, geometry, mode, context)
    }

    #[test]
    fn basis_round_trips_bit_identically() {
        let (key, geometry, mode, context) = solved_entry();
        let parts = context.snapshot_parts();
        assert!(parts.basis.is_some(), "the solved template exports");
        let bytes = encode_context(key, "codec", geometry, mode, &parts);
        let (_, restored) = decode_context(&bytes, context.cfg(), key, geometry, mode).unwrap();
        assert_eq!(restored, parts);
    }

    #[test]
    fn malformed_basis_sections_are_rejected() {
        let (key, geometry, mode, context) = solved_entry();
        let parts = context.snapshot_parts();
        let cfg = context.cfg();
        let check = |tamper: fn(&mut BasisSnapshot), expect: &'static str| {
            let mut parts = parts.clone();
            tamper(parts.basis.as_mut().expect("the solved template exports"));
            let bytes = encode_context(key, "codec", geometry, mode, &parts);
            assert_eq!(
                decode_context(&bytes, cfg, key, geometry, mode),
                Err(CodecError::Malformed(expect))
            );
        };
        check(
            |snapshot| {
                snapshot.statuses.pop();
            },
            "basis status count",
        );
        check(|snapshot| snapshot.statuses[0] = 9, "basis status tag");
        check(
            |snapshot| {
                snapshot.basis.pop();
            },
            "basis size",
        );
        check(
            |snapshot| snapshot.basis[0] = BasisSnapshot::ARTIFICIAL - 1,
            "basis entry",
        );
    }

    #[test]
    fn resealed_mutations_fail_or_decode_canonically() {
        // Every truncation and every byte XOR 0x01/0x80/0xff of a full
        // entry's payload, re-sealed with a correct length and checksum
        // so the mutation reaches the structural decoder. Each must be
        // refused, or decode to parts that re-encode to the same bytes;
        // none may panic.
        let (key, geometry, mode, context) = solved_entry();
        let bytes = encode_context(key, "codec", geometry, mode, &context.snapshot_parts());
        let payload = &bytes[HEADER_LEN..];
        let cfg = context.cfg();
        let mut canonical = 0usize;
        let mut check = |label: &str, mutated: &[u8]| {
            let entry = seal(mutated);
            let decoded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                decode_context(&entry, cfg, key, geometry, mode)
            }))
            .unwrap_or_else(|_| panic!("{label}: the decoder panicked"));
            if let Ok((name, parts)) = decoded {
                assert_eq!(
                    encode_context(key, &name, geometry, mode, &parts),
                    entry,
                    "{label}: a decoded entry must re-encode to its own bytes"
                );
                canonical += 1;
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
            "some flips (name, timing, bounds) decode to another valid entry"
        );
    }

    #[test]
    fn header_corruptions_are_detected() {
        let (key, geometry, mode, context) = warmed_entry();
        let bytes = encode_context(key, "codec", geometry, mode, &context.snapshot_parts());
        let cfg = context.cfg();

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(
            decode_context(&bad_magic, cfg, key, geometry, mode),
            Err(CodecError::BadMagic)
        );

        for version in [VERSION - 1, 99] {
            let mut skewed = bytes.clone();
            skewed[4..8].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                decode_context(&skewed, cfg, key, geometry, mode),
                Err(CodecError::UnsupportedVersion(version))
            );
        }

        assert_eq!(
            decode_context(&bytes[..bytes.len() / 2], cfg, key, geometry, mode),
            Err(CodecError::Truncated)
        );
        assert_eq!(
            decode_context(&bytes[..10], cfg, key, geometry, mode),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn payload_bit_flips_fail_the_checksum() {
        let (key, geometry, mode, context) = warmed_entry();
        let bytes = encode_context(key, "codec", geometry, mode, &context.snapshot_parts());
        // Flip one bit in every byte position of the payload in turn is
        // excessive; a spread of positions catches offset-dependent bugs.
        for pos in [HEADER_LEN, HEADER_LEN + 7, bytes.len() / 2, bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x01;
            assert_eq!(
                decode_context(&flipped, context.cfg(), key, geometry, mode),
                Err(CodecError::ChecksumMismatch),
                "flip at {pos}"
            );
        }
        // Flipping a checksum byte itself must also be caught.
        let mut bad_sum = bytes.clone();
        bad_sum[16] ^= 0x01;
        assert_eq!(
            decode_context(&bad_sum, context.cfg(), key, geometry, mode),
            Err(CodecError::ChecksumMismatch)
        );
    }

    #[test]
    fn expectation_mismatches_are_rejected() {
        let (key, geometry, mode, context) = warmed_entry();
        let bytes = encode_context(key, "codec", geometry, mode, &context.snapshot_parts());
        let cfg = context.cfg();
        assert_eq!(
            decode_context(&bytes, cfg, key ^ 1, geometry, mode),
            Err(CodecError::Malformed("content key mismatch"))
        );
        assert_eq!(
            decode_context(&bytes, cfg, key, geometry.with_ways(2), mode),
            Err(CodecError::Malformed("geometry mismatch"))
        );
        assert_eq!(
            decode_context(&bytes, cfg, key, geometry, ClassificationMode::Cold),
            Err(CodecError::Malformed("classification mode mismatch"))
        );
        // A CFG of a different shape (hash collision scenario) is refused.
        let other = Program::new("other")
            .with_function("main", stmt::compute(5))
            .compile(0x0040_0000)
            .unwrap();
        let other_ctx = AnalysisContext::build_with_mode(&other, geometry, mode).unwrap();
        assert!(matches!(
            decode_context(&bytes, other_ctx.cfg(), key, geometry, mode),
            Err(CodecError::Malformed(_) | CodecError::Truncated)
        ));
    }
}
