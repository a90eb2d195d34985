//! The `PWCQ` wire protocol of the analysis service.
//!
//! Every message — request or response — travels as one frame of
//! `pwcet-core`'s [`frame`] codec, the one the reuse plane's `PWCX`
//! entries use, under the [`PWCQ`] parameters: magic `"PWCQ"`, version
//! [`VERSION`], an FNV-1a checksum and a payload cap of
//! [`MAX_PAYLOAD_BYTES`]. The payload is a tag byte and the message body.
//!
//! Decoding is **paranoid by construction**: the length prefix is bounded
//! before any allocation, every sequence length is checked against the
//! remaining bytes, every enum tag is validated, and statement nesting is
//! depth-limited, so a corrupted or adversarial frame surfaces as a
//! [`FrameError`] the server answers with a clean
//! [`Response::Error`] — never a panic, hang, or unbounded allocation.
//! `tests/protocol_robustness.rs` drives every corruption class against a
//! live server; the round-trip property
//! (`decode(encode(m)) == m` for every message variant) is pinned by
//! `tests/protocol_roundtrip.rs`, and `tests/protocol_mutations.rs`
//! re-seals every truncation and byte flip of every variant's payload.
//!
//! Programs ride the wire as their structured-DSL form (name, functions,
//! statement trees), not as machine code: the server compiles them with
//! its own code base, which keeps requests small and the server's
//! content-addressed shard hashing authoritative.

use std::fmt;
use std::io::{Read, Write};

use pwcet_core::frame::{self, Envelope, FrameError, Reader, Writer};
use pwcet_core::{fnv1a_checksum, ReuseTier};
use pwcet_obs::Stage;
use pwcet_progen::{Program, Stmt};

/// Frame magic: "PWCQ" (pWCET query).
pub const MAGIC: [u8; 4] = *b"PWCQ";
/// The protocol version. Bump on any layout change; a frame at any
/// other version fails cleanly with [`FrameError::UnsupportedVersion`].
/// Version history: 1 = initial; 2, 3 and 5 = counters appended to the
/// since-retired stats response; 4 = fleet verbs ([`Request::FetchEntry`]
/// / [`Request::OfferEntry`], the `network` served-from tier); 6 =
/// telemetry — a client-minted trace ID on every work-carrying request
/// (and on [`Request::FetchEntry`], so fleet peer hops join the
/// originating trace), per-response stage-timing breakdowns
/// ([`StageTiming`]), and the [`Request::Metrics`] verb answering a
/// self-describing name→value table ([`Response::Metrics`]); 7 = a
/// structured `retry_after_ms` hint on [`Response::Error`]; 8 = the
/// stats verb (tag 5) retired in favour of [`Request::Metrics`], and the
/// retry hint carried as a presence-flagged field.
pub const VERSION: u32 = 8;
/// Header bytes before the payload.
pub const HEADER_LEN: usize = frame::HEADER_LEN;
/// Upper bound on a frame payload. Far above any real request (a whole
/// 25-benchmark batch is a few hundred KB) while keeping a corrupted
/// length prefix from provoking a multi-gigabyte allocation.
pub const MAX_PAYLOAD_BYTES: u64 = 16 * 1024 * 1024;
/// Maximum statement-tree nesting a decoded program may carry. The
/// progen DSL itself allows far less (`MAX_LOOP_DEPTH`); this bound only
/// protects the decoder's stack from adversarial frames.
pub const MAX_STMT_DEPTH: usize = 64;

/// The `PWCQ` envelope: [`MAGIC`], [`VERSION`], [`MAX_PAYLOAD_BYTES`]
/// and an FNV-1a payload checksum.
pub const PWCQ: Envelope = Envelope {
    magic: MAGIC,
    version: VERSION,
    max_payload: MAX_PAYLOAD_BYTES,
    checksum: fnv1a_checksum,
};

/// A frame-level failure while reading from or writing to a stream.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (including mid-frame disconnects).
    Io(std::io::Error),
    /// The bytes arrived but do not form a valid frame.
    Protocol(FrameError),
    /// The peer did not answer within the configured deadline. The
    /// connection may merely be slow, but callers treat it as
    /// unavailable — the peer layer marks the node unhealthy instead of
    /// erroring the request.
    Timeout,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Protocol(e) => write!(f, "protocol error: {e}"),
            WireError::Timeout => write!(f, "peer did not answer within the deadline"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        WireError::Protocol(e)
    }
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Analyze one program under all three protection levels.
    Analyze {
        /// The structured program (compiled server-side).
        program: Program,
        /// Per-bit permanent-fault probability of the fault model.
        pfail: f64,
        /// Exceedance probability the pWCETs are quoted at.
        target_p: f64,
        /// Client-minted trace ID (0 = untraced); echoed on the
        /// response and stamped on every span the request causes,
        /// including fleet peer hops.
        trace: u64,
    },
    /// Analyze a batch; the server fans the programs out across its
    /// shards and answers in request order.
    Batch {
        /// The programs, answered in this order.
        programs: Vec<Program>,
        /// Per-bit permanent-fault probability of the fault model.
        pfail: f64,
        /// Exceedance probability the pWCETs are quoted at.
        target_p: f64,
        /// Client-minted trace ID (0 = untraced) shared by every
        /// program of the batch.
        trace: u64,
    },
    /// Sweep the fault probability over one program (one shared context;
    /// every point after the first skips straight to the estimate).
    SweepPfail {
        /// The swept program.
        program: Program,
        /// The `pfail` points, answered in this order.
        pfails: Vec<f64>,
        /// Exceedance probability the pWCETs are quoted at.
        target_p: f64,
        /// Client-minted trace ID (0 = untraced).
        trace: u64,
    },
    /// Sweep cache associativity at fixed sets and block size (the
    /// server's derivation tier turns every narrower point into a warm
    /// start of the widest).
    SweepGeometry {
        /// The swept program.
        program: Program,
        /// Number of cache sets of every lattice point.
        sets: u32,
        /// Block size in bytes of every lattice point.
        block_bytes: u32,
        /// The way counts to sweep (visited widest-first).
        way_counts: Vec<u32>,
        /// Exceedance probability the pWCETs are quoted at.
        target_p: f64,
        /// Client-minted trace ID (0 = untraced).
        trace: u64,
    },
    /// Ask the server to stop accepting work, drain its queues, and exit.
    Shutdown,
    /// Fleet verb: fetch the serialized reuse-plane entry for one
    /// content key (`ContextCache::key_of`). The answer's payload is the
    /// same `PWCX` encoding the disk tier stores. Served inline on the
    /// connection thread — a fetch never queues behind analyses and
    /// never triggers a nested fetch, so two nodes fetching from each
    /// other cannot deadlock.
    FetchEntry {
        /// Content fingerprint of the wanted entry.
        key: u64,
        /// The originating request's trace ID (0 = untraced): the
        /// serving node records its `peer_serve` span under the same
        /// trace, so one ID covers both ends of the hop.
        trace: u64,
    },
    /// Fleet verb: offer a freshly built serialized entry to this node
    /// (the key's ring owner). The receiver validates the envelope
    /// before storing; a corrupt offer is refused, never installed.
    OfferEntry {
        /// Content fingerprint the entry was encoded under.
        key: u64,
        /// Complete `PWCX` entry bytes (header + payload).
        entry: Vec<u8>,
    },
    /// Telemetry scrape: every service, reuse-plane, solver and
    /// classifier counter plus the latency histograms, as a
    /// self-describing name→value table with histogram quantiles
    /// computed exactly from the buckets. Served inline on the
    /// connection thread.
    Metrics,
}

/// Where the server's reuse plane answered a request from, as reported
/// per response (`served_from`).
///
/// This is [`ReuseTier`] on the wire; re-exported here so protocol users
/// need only this module.
pub type ServedFrom = ReuseTier;

/// One aggregated stage of a response's timing breakdown: every span
/// the request's trace recorded for `stage`, folded to a total duration
/// and an occurrence count. The leaf stages (`cfg_expand`, `classify`,
/// `ilp_solve`, `convolve`, `codec_decode`, `peer_fetch`) plus
/// `queue_wait` are disjoint in time, so their durations sum to at most
/// the response's `micros`; `service` is their parent and overlaps
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTiming {
    /// Which stage (wire tag = [`Stage::tag`]).
    pub stage: Stage,
    /// Total microseconds across all spans of this stage.
    pub micros: u64,
    /// How many spans were folded in.
    pub count: u32,
}

/// The per-program analysis row of [`Response::Analysis`] and
/// [`Response::Batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisRow {
    /// The program name (as submitted).
    pub name: String,
    /// Deterministic fault-free WCET in cycles.
    pub fault_free_wcet: u64,
    /// pWCET at the requested probability, no protection.
    pub pwcet_none: u64,
    /// pWCET with the Shared Reliable Buffer.
    pub pwcet_srb: u64,
    /// pWCET with the Reliable Way.
    pub pwcet_rw: u64,
    /// Which reuse-plane tier provided the analysis context.
    pub served_from: ServedFrom,
}

/// One point of a [`Response::PfailSweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct PfailRow {
    /// The per-bit fault probability of this point.
    pub pfail: f64,
    /// pWCET without protection.
    pub pwcet_none: u64,
    /// pWCET with the Shared Reliable Buffer.
    pub pwcet_srb: u64,
    /// pWCET with the Reliable Way.
    pub pwcet_rw: u64,
}

/// One point of a [`Response::GeometrySweep`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeometryRow {
    /// The associativity of this point.
    pub ways: u32,
    /// pWCET without protection.
    pub pwcet_none: u64,
    /// pWCET with the Shared Reliable Buffer.
    pub pwcet_srb: u64,
    /// pWCET with the Reliable Way.
    pub pwcet_rw: u64,
}

/// Why the server rejected a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame or payload could not be decoded.
    Malformed,
    /// The frame decoded but the request is semantically invalid
    /// (unbuildable program, bad probability, empty sweep…).
    InvalidRequest,
    /// The target shard's queue is full — retry later. The connection
    /// stays open.
    Overloaded,
    /// The analysis itself failed (ILP/CFG error).
    Analysis,
    /// The server is draining and accepts no new work.
    ShuttingDown,
}

impl ErrorCode {
    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::InvalidRequest => "invalid-request",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Analysis => "analysis",
            ErrorCode::ShuttingDown => "shutting-down",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Analyze`].
    Analysis {
        /// The analysis row.
        row: AnalysisRow,
        /// Server-side latency (queue wait + compute) in microseconds.
        micros: u64,
        /// The request's trace ID, echoed back (0 = untraced).
        trace: u64,
        /// Per-stage timing breakdown of this request, aggregated from
        /// its spans.
        stages: Vec<StageTiming>,
    },
    /// Answer to [`Request::Batch`], rows in request order.
    Batch {
        /// One row per submitted program.
        rows: Vec<AnalysisRow>,
        /// Server-side latency of the whole batch in microseconds.
        micros: u64,
        /// The request's trace ID, echoed back (0 = untraced).
        trace: u64,
        /// Stage timings aggregated across every program of the batch
        /// (jobs run concurrently on different shards, so stage sums
        /// may exceed the batch's wall-clock `micros`).
        stages: Vec<StageTiming>,
    },
    /// Answer to [`Request::SweepPfail`].
    PfailSweep {
        /// The program name.
        name: String,
        /// Tier that provided the shared context (first point).
        served_from: ServedFrom,
        /// One row per valid `pfail` point, in request order.
        rows: Vec<PfailRow>,
        /// Server-side latency in microseconds.
        micros: u64,
        /// The request's trace ID, echoed back (0 = untraced).
        trace: u64,
        /// Per-stage timing breakdown of this request.
        stages: Vec<StageTiming>,
    },
    /// Answer to [`Request::SweepGeometry`].
    GeometrySweep {
        /// The program name.
        name: String,
        /// Tier that provided the widest point's context.
        served_from: ServedFrom,
        /// One row per way count, widest first.
        rows: Vec<GeometryRow>,
        /// Server-side latency in microseconds.
        micros: u64,
        /// The request's trace ID, echoed back (0 = untraced).
        trace: u64,
        /// Per-stage timing breakdown of this request.
        stages: Vec<StageTiming>,
    },
    /// The request was rejected; see the code for whether a retry can
    /// succeed.
    Error {
        /// Machine-readable rejection class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// Structured backoff hint: how long the client should wait
        /// before retrying. Set on `Overloaded` refusals, derived from
        /// the refusing shard's queue depth.
        retry_after_ms: Option<u64>,
    },
    /// Answer to [`Request::Shutdown`]: the server stopped accepting
    /// work and is draining.
    ShutdownStarted,
    /// Answer to [`Request::FetchEntry`].
    Entry {
        /// The requested content key, echoed back.
        key: u64,
        /// The serialized entry, or `None` when this node holds nothing
        /// for the key — an authoritative miss; the caller builds cold.
        entry: Option<Vec<u8>>,
    },
    /// Answer to [`Request::OfferEntry`]: whether the entry was stored
    /// (a duplicate or invalid offer is acknowledged but not stored).
    OfferAck {
        /// Whether the offered entry was installed in the local store.
        stored: bool,
    },
    /// Answer to [`Request::Metrics`]: the registry snapshot as a flat,
    /// self-describing name→value table. Histograms arrive expanded to
    /// `_count` / `_sum` / `_mean` / `_p50` / `_p95` / `_p99` / `_max`
    /// rows with quantiles computed exactly from the buckets. New
    /// instruments add rows — the layout never changes again.
    Metrics {
        /// `(name, value)` rows, sorted by name.
        entries: Vec<(String, u64)>,
    },
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn encode_stmt(enc: &mut Writer, stmt: &Stmt) {
    match stmt {
        Stmt::Compute(count) => {
            enc.u8(0);
            enc.u32(*count);
        }
        Stmt::Seq(items) => {
            enc.u8(1);
            enc.u64(items.len() as u64);
            for item in items {
                encode_stmt(enc, item);
            }
        }
        Stmt::Loop { bound, body } => {
            enc.u8(2);
            enc.u32(*bound);
            encode_stmt(enc, body);
        }
        Stmt::IfElse {
            then_branch,
            else_branch,
        } => {
            enc.u8(3);
            encode_stmt(enc, then_branch);
            encode_stmt(enc, else_branch);
        }
        Stmt::Call(name) => {
            enc.u8(4);
            enc.str(name);
        }
    }
}

fn encode_program(enc: &mut Writer, program: &Program) {
    enc.str(program.name());
    enc.u64(program.functions().len() as u64);
    for function in program.functions() {
        enc.str(function.name());
        encode_stmt(enc, function.body());
    }
}

fn tier_tag(tier: ServedFrom) -> u8 {
    match tier {
        ReuseTier::Memory => 0,
        ReuseTier::Disk => 1,
        ReuseTier::Derived => 2,
        ReuseTier::Cold => 3,
        ReuseTier::Network => 4,
    }
}

fn error_code_tag(code: ErrorCode) -> u8 {
    match code {
        ErrorCode::Malformed => 0,
        ErrorCode::InvalidRequest => 1,
        ErrorCode::Overloaded => 2,
        ErrorCode::Analysis => 3,
        ErrorCode::ShuttingDown => 4,
    }
}

fn encode_stage_timings(enc: &mut Writer, stages: &[StageTiming]) {
    enc.u64(stages.len() as u64);
    for timing in stages {
        enc.u8(timing.stage.tag());
        enc.u64(timing.micros);
        enc.u32(timing.count);
    }
}

fn encode_analysis_row(enc: &mut Writer, row: &AnalysisRow) {
    enc.str(&row.name);
    enc.u64(row.fault_free_wcet);
    enc.u64(row.pwcet_none);
    enc.u64(row.pwcet_srb);
    enc.u64(row.pwcet_rw);
    enc.u8(tier_tag(row.served_from));
}

/// Serializes one request as a complete frame (header + payload).
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut enc = Writer::new();
    match request {
        Request::Analyze {
            program,
            pfail,
            target_p,
            trace,
        } => {
            enc.u8(1);
            encode_program(&mut enc, program);
            enc.f64(*pfail);
            enc.f64(*target_p);
            enc.u64(*trace);
        }
        Request::Batch {
            programs,
            pfail,
            target_p,
            trace,
        } => {
            enc.u8(2);
            enc.u64(programs.len() as u64);
            for program in programs {
                encode_program(&mut enc, program);
            }
            enc.f64(*pfail);
            enc.f64(*target_p);
            enc.u64(*trace);
        }
        Request::SweepPfail {
            program,
            pfails,
            target_p,
            trace,
        } => {
            enc.u8(3);
            encode_program(&mut enc, program);
            enc.u64(pfails.len() as u64);
            for &pfail in pfails {
                enc.f64(pfail);
            }
            enc.f64(*target_p);
            enc.u64(*trace);
        }
        Request::SweepGeometry {
            program,
            sets,
            block_bytes,
            way_counts,
            target_p,
            trace,
        } => {
            enc.u8(4);
            encode_program(&mut enc, program);
            enc.u32(*sets);
            enc.u32(*block_bytes);
            enc.u64(way_counts.len() as u64);
            for &ways in way_counts {
                enc.u32(ways);
            }
            enc.f64(*target_p);
            enc.u64(*trace);
        }
        Request::Shutdown => enc.u8(6),
        Request::FetchEntry { key, trace } => {
            enc.u8(7);
            enc.u64(*key);
            enc.u64(*trace);
        }
        Request::OfferEntry { key, entry } => {
            enc.u8(8);
            enc.u64(*key);
            enc.bytes(entry);
        }
        Request::Metrics => enc.u8(9),
    }
    PWCQ.seal(&enc.into_bytes())
}

/// Serializes one response as a complete frame (header + payload).
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut enc = Writer::new();
    match response {
        Response::Analysis {
            row,
            micros,
            trace,
            stages,
        } => {
            enc.u8(1);
            encode_analysis_row(&mut enc, row);
            enc.u64(*micros);
            enc.u64(*trace);
            encode_stage_timings(&mut enc, stages);
        }
        Response::Batch {
            rows,
            micros,
            trace,
            stages,
        } => {
            enc.u8(2);
            enc.u64(rows.len() as u64);
            for row in rows {
                encode_analysis_row(&mut enc, row);
            }
            enc.u64(*micros);
            enc.u64(*trace);
            encode_stage_timings(&mut enc, stages);
        }
        Response::PfailSweep {
            name,
            served_from,
            rows,
            micros,
            trace,
            stages,
        } => {
            enc.u8(3);
            enc.str(name);
            enc.u8(tier_tag(*served_from));
            enc.u64(rows.len() as u64);
            for row in rows {
                enc.f64(row.pfail);
                enc.u64(row.pwcet_none);
                enc.u64(row.pwcet_srb);
                enc.u64(row.pwcet_rw);
            }
            enc.u64(*micros);
            enc.u64(*trace);
            encode_stage_timings(&mut enc, stages);
        }
        Response::GeometrySweep {
            name,
            served_from,
            rows,
            micros,
            trace,
            stages,
        } => {
            enc.u8(4);
            enc.str(name);
            enc.u8(tier_tag(*served_from));
            enc.u64(rows.len() as u64);
            for row in rows {
                enc.u32(row.ways);
                enc.u64(row.pwcet_none);
                enc.u64(row.pwcet_srb);
                enc.u64(row.pwcet_rw);
            }
            enc.u64(*micros);
            enc.u64(*trace);
            encode_stage_timings(&mut enc, stages);
        }
        Response::Error {
            code,
            message,
            retry_after_ms,
        } => {
            enc.u8(6);
            enc.u8(error_code_tag(*code));
            enc.str(message);
            enc.opt(*retry_after_ms, Writer::u64);
        }
        Response::ShutdownStarted => enc.u8(7),
        Response::Entry { key, entry } => {
            enc.u8(8);
            enc.u64(*key);
            enc.opt(entry.as_deref(), Writer::bytes);
        }
        Response::OfferAck { stored } => {
            enc.u8(9);
            enc.flag(*stored);
        }
        Response::Metrics { entries } => {
            enc.u8(10);
            enc.u64(entries.len() as u64);
            for (name, value) in entries {
                enc.str(name);
                enc.u64(*value);
            }
        }
    }
    PWCQ.seal(&enc.into_bytes())
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn decode_stmt(dec: &mut Reader<'_>, depth: usize) -> Result<Stmt, FrameError> {
    if depth > MAX_STMT_DEPTH {
        return Err(FrameError::Malformed("statement nesting too deep"));
    }
    Ok(match dec.u8()? {
        0 => Stmt::Compute(dec.u32()?),
        1 => {
            let count = dec.seq_len(1)?;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(decode_stmt(dec, depth + 1)?);
            }
            Stmt::Seq(items)
        }
        2 => {
            let bound = dec.u32()?;
            Stmt::Loop {
                bound,
                body: Box::new(decode_stmt(dec, depth + 1)?),
            }
        }
        3 => Stmt::IfElse {
            then_branch: Box::new(decode_stmt(dec, depth + 1)?),
            else_branch: Box::new(decode_stmt(dec, depth + 1)?),
        },
        4 => Stmt::Call(dec.str()?),
        _ => return Err(FrameError::Malformed("statement tag")),
    })
}

fn decode_program(dec: &mut Reader<'_>) -> Result<Program, FrameError> {
    let name = dec.str()?;
    let functions = dec.seq_len(9)?; // name length prefix + stmt tag
    let mut program = Program::new(name);
    for _ in 0..functions {
        let fn_name = dec.str()?;
        let body = decode_stmt(dec, 0)?;
        program = program.with_function(fn_name, body);
    }
    Ok(program)
}

fn decode_tier(dec: &mut Reader<'_>) -> Result<ServedFrom, FrameError> {
    Ok(match dec.u8()? {
        0 => ReuseTier::Memory,
        1 => ReuseTier::Disk,
        2 => ReuseTier::Derived,
        3 => ReuseTier::Cold,
        4 => ReuseTier::Network,
        _ => return Err(FrameError::Malformed("tier tag")),
    })
}

fn decode_error_code(dec: &mut Reader<'_>) -> Result<ErrorCode, FrameError> {
    Ok(match dec.u8()? {
        0 => ErrorCode::Malformed,
        1 => ErrorCode::InvalidRequest,
        2 => ErrorCode::Overloaded,
        3 => ErrorCode::Analysis,
        4 => ErrorCode::ShuttingDown,
        _ => return Err(FrameError::Malformed("error code tag")),
    })
}

fn decode_stage_timings(dec: &mut Reader<'_>) -> Result<Vec<StageTiming>, FrameError> {
    let count = dec.seq_len(13)?; // stage tag + micros + count
    let mut stages = Vec::with_capacity(count);
    for _ in 0..count {
        let stage = Stage::from_tag(dec.u8()?).ok_or(FrameError::Malformed("stage timing tag"))?;
        stages.push(StageTiming {
            stage,
            micros: dec.u64()?,
            count: dec.u32()?,
        });
    }
    Ok(stages)
}

fn decode_analysis_row(dec: &mut Reader<'_>) -> Result<AnalysisRow, FrameError> {
    Ok(AnalysisRow {
        name: dec.str()?,
        fault_free_wcet: dec.u64()?,
        pwcet_none: dec.u64()?,
        pwcet_srb: dec.u64()?,
        pwcet_rw: dec.u64()?,
        served_from: decode_tier(dec)?,
    })
}

/// Decodes a request from a validated payload (the body after the
/// header, as returned by [`read_frame`]).
///
/// # Errors
///
/// [`FrameError`] on any structural fault.
pub fn decode_request_payload(payload: &[u8]) -> Result<Request, FrameError> {
    let mut dec = Reader::new(payload);
    let request = match dec.u8()? {
        1 => Request::Analyze {
            program: decode_program(&mut dec)?,
            pfail: dec.f64()?,
            target_p: dec.f64()?,
            trace: dec.u64()?,
        },
        2 => {
            let count = dec.seq_len(9)?;
            let mut programs = Vec::with_capacity(count);
            for _ in 0..count {
                programs.push(decode_program(&mut dec)?);
            }
            Request::Batch {
                programs,
                pfail: dec.f64()?,
                target_p: dec.f64()?,
                trace: dec.u64()?,
            }
        }
        3 => {
            let program = decode_program(&mut dec)?;
            let count = dec.seq_len(8)?;
            let mut pfails = Vec::with_capacity(count);
            for _ in 0..count {
                pfails.push(dec.f64()?);
            }
            Request::SweepPfail {
                program,
                pfails,
                target_p: dec.f64()?,
                trace: dec.u64()?,
            }
        }
        4 => {
            let program = decode_program(&mut dec)?;
            let sets = dec.u32()?;
            let block_bytes = dec.u32()?;
            let count = dec.seq_len(4)?;
            let mut way_counts = Vec::with_capacity(count);
            for _ in 0..count {
                way_counts.push(dec.u32()?);
            }
            Request::SweepGeometry {
                program,
                sets,
                block_bytes,
                way_counts,
                target_p: dec.f64()?,
                trace: dec.u64()?,
            }
        }
        6 => Request::Shutdown,
        7 => Request::FetchEntry {
            key: dec.u64()?,
            trace: dec.u64()?,
        },
        8 => Request::OfferEntry {
            key: dec.u64()?,
            entry: dec.bytes()?,
        },
        9 => Request::Metrics,
        _ => return Err(FrameError::Malformed("request tag")),
    };
    dec.finish()?;
    Ok(request)
}

/// Decodes a response from a validated payload.
///
/// # Errors
///
/// [`FrameError`] on any structural fault.
pub fn decode_response_payload(payload: &[u8]) -> Result<Response, FrameError> {
    let mut dec = Reader::new(payload);
    let response = match dec.u8()? {
        1 => Response::Analysis {
            row: decode_analysis_row(&mut dec)?,
            micros: dec.u64()?,
            trace: dec.u64()?,
            stages: decode_stage_timings(&mut dec)?,
        },
        2 => {
            let count = dec.seq_len(13)?;
            let mut rows = Vec::with_capacity(count);
            for _ in 0..count {
                rows.push(decode_analysis_row(&mut dec)?);
            }
            Response::Batch {
                rows,
                micros: dec.u64()?,
                trace: dec.u64()?,
                stages: decode_stage_timings(&mut dec)?,
            }
        }
        3 => {
            let name = dec.str()?;
            let served_from = decode_tier(&mut dec)?;
            let count = dec.seq_len(32)?;
            let mut rows = Vec::with_capacity(count);
            for _ in 0..count {
                rows.push(PfailRow {
                    pfail: dec.f64()?,
                    pwcet_none: dec.u64()?,
                    pwcet_srb: dec.u64()?,
                    pwcet_rw: dec.u64()?,
                });
            }
            Response::PfailSweep {
                name,
                served_from,
                rows,
                micros: dec.u64()?,
                trace: dec.u64()?,
                stages: decode_stage_timings(&mut dec)?,
            }
        }
        4 => {
            let name = dec.str()?;
            let served_from = decode_tier(&mut dec)?;
            let count = dec.seq_len(28)?;
            let mut rows = Vec::with_capacity(count);
            for _ in 0..count {
                rows.push(GeometryRow {
                    ways: dec.u32()?,
                    pwcet_none: dec.u64()?,
                    pwcet_srb: dec.u64()?,
                    pwcet_rw: dec.u64()?,
                });
            }
            Response::GeometrySweep {
                name,
                served_from,
                rows,
                micros: dec.u64()?,
                trace: dec.u64()?,
                stages: decode_stage_timings(&mut dec)?,
            }
        }
        6 => Response::Error {
            code: decode_error_code(&mut dec)?,
            message: dec.str()?,
            retry_after_ms: dec.opt("retry hint presence flag", Reader::u64)?,
        },
        7 => Response::ShutdownStarted,
        8 => Response::Entry {
            key: dec.u64()?,
            entry: dec.opt("entry presence flag", Reader::bytes)?,
        },
        9 => Response::OfferAck {
            stored: dec.flag("offer ack flag")?,
        },
        10 => {
            let count = dec.seq_len(16)?; // name length prefix + value
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let name = dec.str()?;
                entries.push((name, dec.u64()?));
            }
            Response::Metrics { entries }
        }
        _ => return Err(FrameError::Malformed("response tag")),
    };
    dec.finish()?;
    Ok(response)
}

/// Decodes a complete request frame (header + payload), e.g. one stored
/// in a file by `pwcet-client export`.
///
/// # Errors
///
/// [`FrameError`] on any header, checksum, or structural fault.
pub fn decode_request(bytes: &[u8]) -> Result<Request, FrameError> {
    decode_request_payload(PWCQ.open(bytes)?)
}

/// Decodes a complete response frame (header + payload).
///
/// # Errors
///
/// [`FrameError`] on any header, checksum, or structural fault.
pub fn decode_response(bytes: &[u8]) -> Result<Response, FrameError> {
    decode_response_payload(PWCQ.open(bytes)?)
}

// ---------------------------------------------------------------------------
// Stream IO
// ---------------------------------------------------------------------------

/// Reads one frame from a blocking stream and returns its validated
/// payload; `Ok(None)` on a clean end-of-stream before the first header
/// byte.
///
/// # Errors
///
/// [`WireError::Io`] on socket failure (including a disconnect
/// mid-frame, surfaced as `UnexpectedEof`), [`WireError::Protocol`] on
/// bad magic, version skew, an oversized length prefix, or a checksum
/// mismatch.
pub fn read_frame(reader: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish "peer closed between frames" (clean) from "peer closed
    // mid-header" (truncation).
    let mut filled = 0;
    while filled < HEADER_LEN {
        match reader.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => return Err(FrameError::Truncated.into()),
            n => filled += n,
        }
    }
    let (payload_len, sum) = PWCQ.parse_header(&header)?;
    let mut payload = vec![0u8; payload_len as usize];
    reader.read_exact(&mut payload)?;
    PWCQ.verify(&payload, sum)?;
    Ok(Some(payload))
}

/// Writes one already-encoded frame and flushes.
///
/// # Errors
///
/// Propagates the socket error.
pub fn write_frame(writer: &mut impl Write, frame: &[u8]) -> std::io::Result<()> {
    writer.write_all(frame)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwcet_progen::stmt;

    fn sample_program() -> Program {
        Program::new("sample")
            .with_function(
                "main",
                stmt::seq([
                    stmt::compute(8),
                    stmt::loop_(40, stmt::if_else(stmt::compute(4), stmt::call("leaf"))),
                ]),
            )
            .with_function("leaf", stmt::compute(12))
    }

    fn sample_request() -> Request {
        Request::Analyze {
            program: sample_program(),
            pfail: 1e-4,
            target_p: 1e-15,
            trace: 0x1234_5678_9abc_def0,
        }
    }

    #[test]
    fn request_variants_round_trip() {
        let requests = [
            sample_request(),
            Request::Batch {
                programs: vec![sample_program(), Program::new("empty")],
                pfail: 1e-5,
                target_p: 1e-12,
                trace: 7,
            },
            Request::SweepPfail {
                program: sample_program(),
                pfails: vec![1e-6, 1e-4, 1e-3],
                target_p: 1e-15,
                trace: 0,
            },
            Request::SweepGeometry {
                program: sample_program(),
                sets: 16,
                block_bytes: 16,
                way_counts: vec![4, 2, 1],
                target_p: 1e-15,
                trace: u64::MAX,
            },
            Request::Shutdown,
            Request::Metrics,
            Request::FetchEntry {
                key: 0xdead_beef_cafe_f00d,
                trace: 99,
            },
            Request::OfferEntry {
                key: 42,
                entry: vec![0x50, 0x57, 0x43, 0x58, 0x00, 0xff],
            },
            Request::OfferEntry {
                key: 7,
                entry: Vec::new(),
            },
        ];
        for request in requests {
            let bytes = encode_request(&request);
            assert_eq!(decode_request(&bytes).unwrap(), request);
        }
    }

    #[test]
    fn response_variants_round_trip() {
        let row = AnalysisRow {
            name: "crc".into(),
            fault_free_wcet: 1000,
            pwcet_none: 2000,
            pwcet_srb: 1500,
            pwcet_rw: 1100,
            served_from: ReuseTier::Memory,
        };
        let stages = vec![
            StageTiming {
                stage: Stage::QueueWait,
                micros: 12,
                count: 1,
            },
            StageTiming {
                stage: Stage::Classify,
                micros: 300,
                count: 1,
            },
            StageTiming {
                stage: Stage::IlpSolve,
                micros: 88,
                count: 1,
            },
            StageTiming {
                stage: Stage::Convolve,
                micros: 9,
                count: 3,
            },
        ];
        let responses = [
            Response::Analysis {
                row: row.clone(),
                micros: 412,
                trace: 0xfeed_beef,
                stages: stages.clone(),
            },
            Response::Batch {
                rows: vec![row.clone(), row],
                micros: 999,
                trace: 0,
                stages: Vec::new(),
            },
            Response::PfailSweep {
                name: "crc".into(),
                served_from: ReuseTier::Disk,
                rows: vec![PfailRow {
                    pfail: 1e-4,
                    pwcet_none: 2000,
                    pwcet_srb: 1500,
                    pwcet_rw: 1100,
                }],
                micros: 10,
                trace: 3,
                stages: stages.clone(),
            },
            Response::GeometrySweep {
                name: "crc".into(),
                served_from: ReuseTier::Derived,
                rows: vec![GeometryRow {
                    ways: 4,
                    pwcet_none: 2000,
                    pwcet_srb: 1500,
                    pwcet_rw: 1100,
                }],
                micros: 10,
                trace: 4,
                stages,
            },
            Response::Error {
                code: ErrorCode::Overloaded,
                message: "shard 2 queue full (depth 64)".into(),
                retry_after_ms: Some(320),
            },
            Response::Error {
                code: ErrorCode::Malformed,
                message: "bad tag".into(),
                retry_after_ms: None,
            },
            Response::ShutdownStarted,
            Response::Entry {
                key: 0x0123_4567_89ab_cdef,
                entry: Some(vec![1, 2, 3, 4]),
            },
            Response::Entry {
                key: 99,
                entry: None,
            },
            Response::OfferAck { stored: true },
            Response::OfferAck { stored: false },
            Response::Metrics {
                entries: vec![
                    ("request_latency_us_p50".to_string(), 412),
                    ("request_latency_us_p99".to_string(), 2800),
                    ("served".to_string(), 100),
                ],
            },
            Response::Metrics {
                entries: Vec::new(),
            },
        ];
        for response in responses {
            let bytes = encode_response(&response);
            assert_eq!(decode_response(&bytes).unwrap(), response);
        }
    }

    #[test]
    fn header_corruptions_are_detected() {
        let bytes = encode_request(&sample_request());

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(decode_request(&bad_magic), Err(FrameError::BadMagic));

        for version in [VERSION - 1, 99] {
            let mut skewed = bytes.clone();
            skewed[4..8].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                decode_request(&skewed),
                Err(FrameError::UnsupportedVersion(version))
            );
        }

        let mut oversized = bytes.clone();
        oversized[8..16].copy_from_slice(&(MAX_PAYLOAD_BYTES + 1).to_le_bytes());
        assert_eq!(
            decode_request(&oversized),
            Err(FrameError::Oversized(MAX_PAYLOAD_BYTES + 1))
        );

        assert_eq!(
            decode_request(&bytes[..bytes.len() - 3]),
            Err(FrameError::Truncated)
        );
        assert_eq!(decode_request(&bytes[..7]), Err(FrameError::Truncated));
    }

    #[test]
    fn payload_bit_flips_fail_the_checksum() {
        let bytes = encode_request(&sample_request());
        for pos in [HEADER_LEN, HEADER_LEN + 9, bytes.len() / 2, bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x01;
            assert_eq!(
                decode_request(&flipped),
                Err(FrameError::ChecksumMismatch),
                "flip at {pos}"
            );
        }
    }

    #[test]
    fn unknown_tags_are_malformed() {
        let mut enc = Writer::new();
        enc.u8(200);
        let framed = PWCQ.seal(&enc.into_bytes());
        assert!(matches!(
            decode_request(&framed),
            Err(FrameError::Malformed("request tag"))
        ));
        let mut enc = Writer::new();
        enc.u8(200);
        let framed = PWCQ.seal(&enc.into_bytes());
        assert!(matches!(
            decode_response(&framed),
            Err(FrameError::Malformed("response tag"))
        ));
    }

    #[test]
    fn statement_nesting_is_depth_limited() {
        let mut deep = stmt::compute(1);
        for _ in 0..(MAX_STMT_DEPTH + 2) {
            deep = stmt::loop_(2, deep);
        }
        let request = Request::Analyze {
            program: Program::new("deep").with_function("main", deep),
            pfail: 1e-4,
            target_p: 1e-15,
            trace: 0,
        };
        // Encoding succeeds (the DSL's own depth cap is the server's
        // problem at validate time); the decoder must refuse the nesting
        // rather than recurse unboundedly.
        let bytes = encode_request(&request);
        assert_eq!(
            decode_request(&bytes),
            Err(FrameError::Malformed("statement nesting too deep"))
        );
    }

    #[test]
    fn absurd_sequence_lengths_are_truncation_not_allocation() {
        // A batch claiming 2^60 programs in a 40-byte payload must fail
        // fast without attempting the allocation.
        let mut enc = Writer::new();
        enc.u8(2);
        enc.u64(1u64 << 60);
        let framed = PWCQ.seal(&enc.into_bytes());
        assert_eq!(decode_request(&framed), Err(FrameError::Truncated));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut enc = Writer::new();
        enc.u8(9);
        enc.u8(0xaa);
        let framed = PWCQ.seal(&enc.into_bytes());
        assert_eq!(
            decode_request(&framed),
            Err(FrameError::Malformed("trailing bytes"))
        );
    }

    #[test]
    fn read_frame_distinguishes_clean_eof_from_truncation() {
        let bytes = encode_request(&Request::Metrics);
        let mut cursor = std::io::Cursor::new(bytes.clone());
        let payload = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(decode_request_payload(&payload).unwrap(), Request::Metrics);
        // Clean EOF: no bytes at all.
        assert!(matches!(read_frame(&mut cursor), Ok(None)));
        // Truncation: a few header bytes then EOF.
        let mut partial = std::io::Cursor::new(bytes[..10].to_vec());
        assert!(matches!(
            read_frame(&mut partial),
            Err(WireError::Protocol(FrameError::Truncated))
        ));
        // Mid-payload EOF surfaces as an IO error (a Metrics frame's
        // payload is a single byte, so use a request with a real body).
        let long = encode_request(&sample_request());
        let mut mid = std::io::Cursor::new(long[..long.len() - 2].to_vec());
        assert!(matches!(read_frame(&mut mid), Err(WireError::Io(_))));
    }
}
