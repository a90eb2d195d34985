//! Stage spans with wire-propagated trace IDs.
//!
//! A trace is minted once at the client ([`TraceId::mint`]), carried
//! inside `PWCQ` frames across shard hand-offs and fleet peer hops,
//! and every pipeline stage it touches records a [`SpanRecord`] under
//! it. Recording is scoped: the shard worker wraps a job in
//! [`trace_scope`], which installs the `(tracer, trace)` pair in a
//! thread-local; [`stage_span`] guards anywhere below (core pipeline,
//! reuse plane, peer layer) then cost one TLS read when tracing is
//! off and one `Instant` pair when it is on — cheap enough to leave
//! compiled into the hot path unconditionally.
//!
//! Spans land in a bounded in-memory ring (newest win; overflow is
//! counted, never blocking) and, when configured, an append-only JSONL
//! sink (`--trace-out`), one object per span.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A per-request trace identifier, minted at the client and carried
/// verbatim across every hop the request causes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// A trace ID that traces nothing (wire value 0): spans under it
    /// are still timed but tooling treats it as "untraced".
    pub const NONE: TraceId = TraceId(0);

    /// Mints a fresh, never-zero ID: wall-clock nanoseconds mixed with
    /// a process-wide counter through a splitmix64 finalizer, so
    /// concurrent clients collide only if they mint the same nanosecond
    /// *and* sequence number.
    pub fn mint() -> TraceId {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let mut z = nanos ^ seq.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        TraceId(z.max(1))
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The fixed span taxonomy. Tags are wire-stable: they appear in `PWCQ`
/// stage-timing breakdowns and in JSONL sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Stage {
    /// Compiled-program → analysis CFG expansion (context build).
    CfgExpand = 1,
    /// CHMC classification fixpoints (context prewarm).
    Classify = 2,
    /// IPET ILP solves: fault-free WCET, per-(set,fault) deltas, SRB.
    IlpSolve = 3,
    /// Penalty-distribution convolution.
    Convolve = 4,
    /// PWCX entry decode (disk or network tier).
    CodecDecode = 5,
    /// Read-through fetch from a fleet peer (requesting side).
    PeerFetch = 6,
    /// Time a job sat in its shard queue before a worker picked it up.
    QueueWait = 7,
    /// Worker-side service time of a job (parent of the pipeline stages).
    Service = 8,
    /// Serving a peer's `FetchEntry` under the peer's trace (remote side).
    PeerServe = 9,
}

impl Stage {
    /// Every stage, in tag order.
    pub const ALL: [Stage; 9] = [
        Stage::CfgExpand,
        Stage::Classify,
        Stage::IlpSolve,
        Stage::Convolve,
        Stage::CodecDecode,
        Stage::PeerFetch,
        Stage::QueueWait,
        Stage::Service,
        Stage::PeerServe,
    ];

    /// The wire tag.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`tag`](Self::tag).
    pub fn from_tag(tag: u8) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.tag() == tag)
    }

    /// The snake_case label used in JSONL sinks and metric names.
    pub fn label(self) -> &'static str {
        match self {
            Stage::CfgExpand => "cfg_expand",
            Stage::Classify => "classify",
            Stage::IlpSolve => "ilp_solve",
            Stage::Convolve => "convolve",
            Stage::CodecDecode => "codec_decode",
            Stage::PeerFetch => "peer_fetch",
            Stage::QueueWait => "queue_wait",
            Stage::Service => "service",
            Stage::PeerServe => "peer_serve",
        }
    }
}

/// One completed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// Which stage ran.
    pub stage: Stage,
    /// Start offset in microseconds since the tracer's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

struct Ring {
    spans: VecDeque<SpanRecord>,
    capacity: usize,
}

/// The process-wide span collector: a bounded ring plus an optional
/// JSONL sink. Cheap to share (`Arc`) between the server, its shard
/// workers, and the peer layer.
pub struct Tracer {
    epoch: Instant,
    ring: Mutex<Ring>,
    dropped: AtomicU64,
    sink: Option<Mutex<BufWriter<File>>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .field("sink", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

/// Default ring capacity: at ~10 spans per request this retains the
/// last few hundred requests.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

impl Default for Tracer {
    fn default() -> Self {
        Self::new(DEFAULT_RING_CAPACITY)
    }
}

impl Tracer {
    /// A tracer with a ring of `capacity` spans and no sink.
    pub fn new(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            ring: Mutex::new(Ring {
                spans: VecDeque::with_capacity(capacity.min(DEFAULT_RING_CAPACITY)),
                capacity: capacity.max(1),
            }),
            dropped: AtomicU64::new(0),
            sink: None,
        }
    }

    /// Attaches an append-mode JSONL sink at `path` (created if
    /// absent). Every span becomes one line:
    /// `{"trace":"<16 hex>","stage":"classify","start_us":N,"dur_us":N}`.
    ///
    /// # Errors
    ///
    /// Propagates the open error.
    pub fn with_sink(capacity: usize, path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let mut tracer = Self::new(capacity);
        tracer.sink = Some(Mutex::new(BufWriter::new(file)));
        Ok(tracer)
    }

    /// Microseconds since this tracer was created.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Records a completed span into the ring (oldest evicted and
    /// counted when full) and the sink when one is attached.
    pub fn record(&self, span: SpanRecord) {
        {
            let mut ring = self.ring.lock().unwrap();
            if ring.spans.len() == ring.capacity {
                ring.spans.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            ring.spans.push_back(span);
        }
        if let Some(sink) = &self.sink {
            let line = format!(
                "{{\"trace\":\"{}\",\"stage\":\"{}\",\"start_us\":{},\"dur_us\":{}}}\n",
                span.trace,
                span.stage.label(),
                span.start_us,
                span.dur_us
            );
            let mut w = sink.lock().unwrap();
            let _ = w.write_all(line.as_bytes());
        }
    }

    /// Appends one pre-formatted JSON object line to the sink, if any —
    /// used for non-span records such as a drained server's final
    /// metrics table. The line must not contain newlines.
    pub fn sink_line(&self, json_object: &str) {
        if let Some(sink) = &self.sink {
            let mut w = sink.lock().unwrap();
            let _ = w.write_all(json_object.as_bytes());
            let _ = w.write_all(b"\n");
        }
    }

    /// Flushes the sink (no-op without one).
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            let _ = sink.lock().unwrap().flush();
        }
    }

    /// The ring's current contents, oldest first.
    pub fn ring_snapshot(&self) -> Vec<SpanRecord> {
        self.ring.lock().unwrap().spans.iter().copied().collect()
    }

    /// Spans evicted from the ring because it was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

struct ActiveTrace {
    tracer: Arc<Tracer>,
    trace: TraceId,
    /// `(stage, dur_us)` of every span completed under this scope, in
    /// completion order.
    spans: Vec<(Stage, u64)>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// Runs `f` with `(tracer, trace)` installed as the thread's active
/// trace: every [`stage_span`] completed inside lands in the tracer's
/// ring/sink and in the returned `(stage, dur_us)` list. Scopes nest
/// (the previous scope is restored on exit). The per-scope span list is
/// what response stage-timing breakdowns are built from.
pub fn trace_scope<R>(
    tracer: &Arc<Tracer>,
    trace: TraceId,
    f: impl FnOnce() -> R,
) -> (R, Vec<(Stage, u64)>) {
    let previous = ACTIVE.with(|a| {
        a.borrow_mut().replace(ActiveTrace {
            tracer: Arc::clone(tracer),
            trace,
            spans: Vec::new(),
        })
    });
    let result = f();
    let finished = ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        let finished = slot.take();
        *slot = previous;
        finished
    });
    (result, finished.map(|t| t.spans).unwrap_or_default())
}

/// The thread's active trace ID, if a [`trace_scope`] is installed —
/// how the peer layer stamps outgoing `FetchEntry` hops without
/// threading the ID through every signature.
pub fn current_trace() -> Option<TraceId> {
    ACTIVE.with(|a| a.borrow().as_ref().map(|t| t.trace))
}

/// An RAII stage span: times from construction to drop. Inert (a single
/// TLS read) when no [`trace_scope`] is active on this thread.
#[must_use = "a span measures the scope it is alive for"]
pub struct StageSpan {
    stage: Stage,
    started: Option<Instant>,
}

/// Opens a span for `stage` on the thread's active trace.
#[inline]
pub fn stage_span(stage: Stage) -> StageSpan {
    let armed = ACTIVE.with(|a| a.borrow().is_some());
    StageSpan {
        stage,
        started: armed.then(Instant::now),
    }
}

impl Drop for StageSpan {
    fn drop(&mut self) {
        let Some(started) = self.started else { return };
        let dur_us = started.elapsed().as_micros() as u64;
        ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            if let Some(active) = slot.as_mut() {
                active.spans.push((self.stage, dur_us));
                let start_us = active
                    .tracer
                    .now_us()
                    .saturating_sub(started.elapsed().as_micros() as u64);
                active.tracer.record(SpanRecord {
                    trace: active.trace,
                    stage: self.stage,
                    start_us,
                    dur_us,
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_inside_a_scope_land_in_ring_and_scope_list() {
        let tracer = Arc::new(Tracer::new(16));
        let trace = TraceId::mint();
        let ((), spans) = trace_scope(&tracer, trace, || {
            let _s = stage_span(Stage::Classify);
        });
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].0, Stage::Classify);
        let ring = tracer.ring_snapshot();
        assert_eq!(ring.len(), 1);
        assert_eq!((ring[0].trace, ring[0].stage), (trace, Stage::Classify));
    }

    #[test]
    fn spans_without_a_scope_are_inert() {
        {
            let _s = stage_span(Stage::IlpSolve);
        }
        assert_eq!(current_trace(), None);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let tracer = Arc::new(Tracer::new(16));
        let outer = TraceId(11);
        let inner = TraceId(22);
        let ((), outer_spans) = trace_scope(&tracer, outer, || {
            assert_eq!(current_trace(), Some(outer));
            let ((), inner_spans) = trace_scope(&tracer, inner, || {
                let _s = stage_span(Stage::Convolve);
            });
            assert_eq!(inner_spans.len(), 1);
            assert_eq!(current_trace(), Some(outer));
            let _s = stage_span(Stage::IlpSolve);
        });
        assert_eq!(outer_spans.len(), 1);
        assert_eq!(outer_spans[0].0, Stage::IlpSolve);
    }

    #[test]
    fn ring_overflow_evicts_oldest_and_counts() {
        let tracer = Tracer::new(4);
        for i in 0..10u64 {
            tracer.record(SpanRecord {
                trace: TraceId(i + 1),
                stage: Stage::Service,
                start_us: i,
                dur_us: 1,
            });
        }
        let ring = tracer.ring_snapshot();
        assert_eq!(ring.len(), 4);
        assert_eq!(tracer.dropped(), 6);
        // Newest four survive, oldest first.
        let traces: Vec<u64> = ring.iter().map(|s| s.trace.0).collect();
        assert_eq!(traces, vec![7, 8, 9, 10]);
    }

    #[test]
    fn stage_tags_roundtrip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_tag(stage.tag()), Some(stage));
        }
        assert_eq!(Stage::from_tag(0), None);
        assert_eq!(Stage::from_tag(200), None);
    }

    #[test]
    fn minted_ids_are_nonzero_and_distinct() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert_ne!(a.0, 0);
        assert_ne!(b.0, 0);
        assert_ne!(a, b);
    }
}
