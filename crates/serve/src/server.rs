//! The long-lived analysis server.
//!
//! ```text
//!                        ┌───────────────────────────────────────────┐
//!  TCP accept loop ────▶ │ connection threads (frame decode/encode)  │
//!                        │ + compile memo: Arc<CompiledProgram>, key │
//!                        └───────┬───────────────────────────────────┘
//!                                │ submit(key = content fingerprint)
//!                        ┌───────▼───────────────────────────────────┐
//!                        │ ShardPool: key % N shards, one worker and │
//!                        │ a bounded queue each (overload ⇒ refusal) │
//!                        └───────┬───────────────────────────────────┘
//!                                │ analyze_compiled, once per point
//!                        ┌───────▼───────────────────────────────────┐
//!                        │ shared Arc<ReusePlane>: memory / disk /   │
//!                        │ derivation tiers + write-through persist  │
//!                        └───────────────────────────────────────────┘
//! ```
//!
//! **Shard hashing rule**: analysis work is routed by
//! [`ContextCache::key_of`] — the content fingerprint of the compiled
//! image, CFG metadata, cache geometry, and classification mode (for
//! geometry sweeps, the widest requested geometry). Identical programs
//! therefore always land on the same single-worker shard and are
//! serialized: the first request runs the cold fixpoint, every queued
//! duplicate is answered from the plane's memory tier. Distinct programs
//! hash across shards and proceed concurrently, each worker using its
//! slice of the machine's threads for the intra-analysis fan-out.
//!
//! **Compile memo**: the connection thread takes a request's compiled
//! program and content key from the server's compile memo, keyed by
//! the decoded [`Program`] itself. A program seen twice is compiled and
//! fingerprinted twice, then never again while it stays among the
//! memo's most recently used; the shard receives the shared
//! `Arc<CompiledProgram>`.
//!
//! **One job path**: the connection thread validates each analysis verb
//! and turns it into jobs of points, one [`AnalysisConfig`] each: one
//! job of one point for `Analyze` and for each `Batch` program, one job
//! of one point per `pfail` or per lattice geometry (widest first) for
//! the sweeps. One submit path queues them, one worker loop
//! (`Engine::execute`) answers every point with its tier and bounds, and
//! the connection thread shapes the verb's response from the points.
//!
//! **Backpressure**: queues are bounded; a submission to a full shard is
//! answered immediately with [`ErrorCode::Overloaded`] (connection stays
//! open — retry later) instead of queueing unboundedly or blocking the
//! accept path.
//!
//! **Shutdown** drains: after [`Request::Shutdown`] (or
//! [`Server::shutdown`]) no new work is accepted, every queued job still
//! runs to completion and its response is delivered, then workers,
//! connections, and the accept loop are joined and the reuse plane is
//! flushed to its disk tier.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pwcet_cache::GeometryLattice;
use pwcet_core::{
    AnalysisConfig, ContextCache, NetworkTier, Parallelism, ProgramAnalysis, Protection,
    PwcetAnalyzer, ReusePlane, ReuseTier,
};
use pwcet_obs::{
    trace_scope, Counter, Histogram, Registry, SpanRecord, Stage, TraceId, Tracer,
    DEFAULT_RING_CAPACITY,
};
use pwcet_progen::{CompiledProgram, Program};

use crate::compile_memo::{CompileMemo, Prepared};
use crate::peer::{FleetConfig, PeerFleet};
use crate::protocol::{
    self, AnalysisRow, ErrorCode, GeometryRow, PfailRow, ProtocolError, Request, Response,
    StageTiming, WireError,
};
use crate::shard::{ShardPool, SubmitError};

/// Default bound on how long a started frame may take to arrive
/// completely before the connection is dropped — keeps a stalled or
/// malicious half-frame from pinning a connection thread forever.
/// Configurable per server via [`ServerConfig::frame_deadline`]; the
/// client's [`ClientConfig`](crate::ClientConfig) defaults mirror it.
pub const FRAME_DEADLINE: Duration = Duration::from_secs(30);

/// Service-side bounds on sweep requests (a request beyond them is
/// refused as invalid, not attempted).
const MAX_SWEEP_POINTS: usize = 64;
const MAX_WAYS: u32 = 64;
const MAX_SETS: u32 = 4096;
const MAX_BLOCK_BYTES: u32 = 1024;
const MAX_BATCH_PROGRAMS: usize = 256;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The analysis configuration every request runs under (requests
    /// override the fault model per call; geometry sweeps override the
    /// geometry).
    pub analysis: AnalysisConfig,
    /// Worker shard count; `0` picks `min(available cores, 4)`.
    pub shards: usize,
    /// Bounded queue capacity per shard.
    pub queue_capacity: usize,
    /// Disk tier directory of the reuse plane; `None` keeps the plane
    /// memory-only (no cross-restart warmth).
    pub disk_dir: Option<PathBuf>,
    /// Poll interval of the accept loop and idle connections — bounds
    /// how fast a shutdown is observed.
    pub poll: Duration,
    /// Bound on how long a started frame may take to arrive completely
    /// before the connection is dropped ([`FRAME_DEADLINE`] by default;
    /// liveness tests shrink it to exercise the cutoff quickly).
    pub frame_deadline: Duration,
    /// Fleet membership for the reuse plane's network tier; `None` (or
    /// an empty peer list) runs single-node.
    pub fleet: Option<FleetConfig>,
    /// Append-only JSONL span sink (`--trace-out`); every completed
    /// stage span becomes one line, and the drained server's final
    /// metrics table is appended as a last `"final_metrics"` record.
    /// `None` keeps spans in the in-memory ring only.
    pub trace_out: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            analysis: AnalysisConfig::paper_default(),
            shards: 0,
            queue_capacity: 64,
            disk_dir: None,
            poll: Duration::from_millis(25),
            frame_deadline: FRAME_DEADLINE,
            fleet: None,
            trace_out: None,
        }
    }
}

impl ServerConfig {
    /// The same configuration with a disk-backed reuse plane rooted at
    /// `dir` — a restarted server then answers from the disk tier.
    #[must_use]
    pub fn with_disk_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.disk_dir = Some(dir.into());
        self
    }

    fn effective_shards(&self) -> usize {
        if self.shards > 0 {
            return self.shards;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(4)
    }
}

/// The server's own counters and gauges, as returned by
/// [`Server::stats`] and [`Server::shutdown`]. Reuse-plane and solver
/// counters live with their owners ([`ReusePlane::stats`],
/// [`ReusePlane::ilp_stats`]); the metrics table carries them all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Number of worker shards.
    pub shards: u32,
    /// Bounded queue capacity per shard.
    pub queue_capacity: u32,
    /// Jobs currently queued across all shards.
    pub queued: u64,
    /// Connections accepted since start.
    pub connections: u64,
    /// Jobs completed since start.
    pub served: u64,
    /// Submissions rejected with an overload response.
    pub overloads: u64,
    /// Frames rejected as malformed/corrupt.
    pub protocol_errors: u64,
    /// Responses served from the memory tier.
    pub served_memory: u64,
    /// Responses served from the disk tier.
    pub served_disk: u64,
    /// Responses served by cross-geometry derivation.
    pub served_derived: u64,
    /// Responses served from the network tier (a peer's entry).
    pub served_network: u64,
    /// Responses that required a cold build.
    pub served_cold: u64,
    /// `FetchEntry` requests this node answered with an entry.
    pub peer_fetches_served: u64,
    /// `OfferEntry` requests this node accepted and stored.
    pub peer_offers_stored: u64,
    /// Configured fleet peers (0 = single-node).
    pub peers: u32,
    /// Fleet peers currently in failure backoff.
    pub peers_unhealthy: u32,
    /// Total bytes of the on-disk context store (0 without a disk tier).
    pub store_bytes: u64,
    /// Entries the reuse plane wrote to its disk tier. Read after the
    /// drain's final flush in [`Server::shutdown`], whose caller no
    /// longer holds the plane.
    pub disk_writes: u64,
}

/// What a shard worker executes: one compiled program analyzed at each
/// of its points. The compiled program is shared with the compile memo,
/// so finishing a job drops a reference, not an image.
struct Work {
    compiled: Arc<CompiledProgram>,
    points: Vec<AnalysisConfig>,
    target_p: f64,
}

/// One analyzed point: its configuration, the reuse tier that answered
/// it, and `[wcet_ff, pwcet_none, pwcet_srb, pwcet_rw]` with the pWCETs
/// at the job's `target_p`.
type Point = (AnalysisConfig, ReuseTier, [u64; 4]);

/// What a shard worker sends back: the job's points plus the `(stage,
/// dur_us)` spans its trace scope collected (queue wait and service
/// time included), from which the connection thread builds the
/// response's stage-timing breakdown.
type Reply = (Result<Vec<Point>, String>, Vec<(Stage, u64)>);

struct Job {
    work: Work,
    /// Client-minted trace ID carried from the request frame.
    trace: TraceId,
    /// When the connection thread enqueued the job — the worker turns
    /// this into the `queue_wait` span and histogram sample.
    submitted: Instant,
    reply: mpsc::Sender<Reply>,
}

/// The server's telemetry plane: the span collector shared with every
/// layer below (core pipeline, reuse plane, peer fleet) plus the
/// server-owned instruments, registered once in the node's metrics
/// registry ([`ReusePlane::metrics`]).
struct Telemetry {
    tracer: Arc<Tracer>,
    requests: Arc<Counter>,
    request_latency_us: Arc<Histogram>,
    queue_wait_us: Arc<Histogram>,
    service_us: Arc<Histogram>,
    /// Analysis jobs whose worker panicked and was caught — the job
    /// answers an error response and the shard keeps serving.
    worker_panics: Arc<Counter>,
    /// Responses whose frame write failed (peer gone, kernel buffer
    /// stalled past the deadline, or an injected disconnect) — the
    /// work was done but the answer never made it out.
    response_write_failures: Arc<Counter>,
    connections: Arc<Counter>,
    /// Jobs completed by the shard workers.
    served: Arc<Counter>,
    overloads: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    served_memory: Arc<Counter>,
    served_disk: Arc<Counter>,
    served_derived: Arc<Counter>,
    served_network: Arc<Counter>,
    served_cold: Arc<Counter>,
    /// `FetchEntry` requests this node answered with an entry.
    peer_fetches_served: Arc<Counter>,
    /// `OfferEntry` requests this node accepted and stored.
    peer_offers_stored: Arc<Counter>,
}

impl Telemetry {
    fn new(trace_out: Option<&PathBuf>, registry: &Registry) -> std::io::Result<Self> {
        let tracer = Arc::new(match trace_out {
            Some(path) => Tracer::with_sink(DEFAULT_RING_CAPACITY, path)?,
            None => Tracer::new(DEFAULT_RING_CAPACITY),
        });
        Ok(Self {
            requests: registry.register_counter("requests"),
            request_latency_us: registry.register_histogram("request_latency_us"),
            queue_wait_us: registry.register_histogram("queue_wait_us"),
            service_us: registry.register_histogram("service_us"),
            worker_panics: registry.register_counter("worker_panics"),
            response_write_failures: registry.register_counter("response_write_failures"),
            connections: registry.register_counter("connections"),
            served: registry.register_counter("served"),
            overloads: registry.register_counter("overloads"),
            protocol_errors: registry.register_counter("protocol_errors"),
            served_memory: registry.register_counter("served_memory"),
            served_disk: registry.register_counter("served_disk"),
            served_derived: registry.register_counter("served_derived"),
            served_network: registry.register_counter("served_network"),
            served_cold: registry.register_counter("served_cold"),
            peer_fetches_served: registry.register_counter("peer_fetches_served"),
            peer_offers_stored: registry.register_counter("peer_offers_stored"),
            tracer,
        })
    }

    /// The `served_{tier}` counter of a completed job's tier.
    fn served_from(&self, tier: ReuseTier) -> &Counter {
        match tier {
            ReuseTier::Memory => &self.served_memory,
            ReuseTier::Disk => &self.served_disk,
            ReuseTier::Derived => &self.served_derived,
            ReuseTier::Network => &self.served_network,
            ReuseTier::Cold => &self.served_cold,
        }
    }

    /// Records a span that was timed outside any [`trace_scope`] (queue
    /// wait, worker service time, peer serves) straight into the ring
    /// and sink.
    fn record_span(&self, trace: TraceId, stage: Stage, dur_us: u64) {
        self.tracer.record(SpanRecord {
            trace,
            stage,
            start_us: self.tracer.now_us().saturating_sub(dur_us),
            dur_us,
        });
        // `service` and `peer_serve` are the last spans of their
        // request, so flushing here keeps the JSONL sink live — a
        // tailing reader sees each request's spans as it completes
        // rather than at drain.
        self.tracer.flush();
    }
}

/// The shared plane every point is analyzed through, and the per-shard
/// analysis configuration the connection thread derives points from.
struct Engine {
    plane: Arc<ReusePlane>,
    config: AnalysisConfig,
}

impl Engine {
    /// Analyzes `work`'s program at each of its points, in order; the
    /// first failing point fails the job.
    fn execute(&self, work: Work) -> Result<Vec<Point>, String> {
        work.points
            .into_iter()
            .map(|config| {
                let (analysis, tier) = PwcetAnalyzer::new(config)
                    .with_reuse_plane(Arc::clone(&self.plane))
                    .analyze_compiled(&work.compiled)
                    .map_err(|e| e.to_string())?;
                let pwcet = |protection| pwcet_at(&analysis, protection, work.target_p);
                let bounds = [
                    analysis.fault_free_wcet(),
                    pwcet(Protection::None)?,
                    pwcet(Protection::SharedReliableBuffer)?,
                    pwcet(Protection::ReliableWay)?,
                ];
                Ok((config, tier, bounds))
            })
            .collect()
    }
}

/// The pWCET at `target_p`, or an error when the convolution's pruning
/// tail alone exceeds `target_p`: the quantile is then unbounded, and the
/// request's probability is valid, so this is an analysis refusal rather
/// than a malformed request.
fn pwcet_at(
    analysis: &ProgramAnalysis,
    protection: Protection,
    target_p: f64,
) -> Result<u64, String> {
    let estimate = analysis.estimate(protection);
    estimate.try_pwcet_at(target_p).ok_or_else(|| {
        format!(
            "target_p {target_p:e} is below the pruning tail mass {:e} of the \
             penalty distribution ({protection}): the pWCET at target_p is unbounded",
            estimate.penalty_distribution().tail_mass()
        )
    })
}

struct Shared {
    pool: ShardPool<Job>,
    engine: Arc<Engine>,
    programs: CompileMemo,
    stop: AtomicBool,
    connections: Mutex<Vec<JoinHandle<()>>>,
    poll: Duration,
    queue_capacity: usize,
    deadline: Duration,
    fleet: Option<Arc<PeerFleet>>,
    telemetry: Arc<Telemetry>,
}

impl Shared {
    fn stats(&self) -> ServiceStats {
        let t = &self.telemetry;
        ServiceStats {
            shards: self.pool.shard_count() as u32,
            queue_capacity: self.queue_capacity as u32,
            queued: self.pool.queued() as u64,
            connections: t.connections.get(),
            served: t.served.get(),
            overloads: t.overloads.get(),
            protocol_errors: t.protocol_errors.get(),
            served_memory: t.served_memory.get(),
            served_disk: t.served_disk.get(),
            served_derived: t.served_derived.get(),
            served_network: t.served_network.get(),
            served_cold: t.served_cold.get(),
            peer_fetches_served: t.peer_fetches_served.get(),
            peer_offers_stored: t.peer_offers_stored.get(),
            peers: self.fleet.as_ref().map_or(0, |f| f.peer_count() as u32),
            peers_unhealthy: self
                .fleet
                .as_ref()
                .map_or(0, |f| f.unhealthy_count() as u32),
            store_bytes: self.engine.plane.disk_store_bytes().unwrap_or(0),
            disk_writes: self.engine.plane.stats().disk_writes,
        }
    }

    /// The full self-describing metrics table answered by
    /// [`Request::Metrics`], sorted by name: the node registry's
    /// snapshot (histograms expanded to exact
    /// `_count/_sum/_mean/_p50/_p95/_p99/_max` rows), the values read at
    /// scrape time below, and the chaos counters when present.
    fn metrics_table(&self) -> Vec<(String, u64)> {
        let plane = &self.engine.plane;
        let (stats, memory) = (self.stats(), plane.stats().memory);
        let mut table = plane.metrics().snapshot().table();
        // Live state rather than counted events: the service gauges, the
        // memory tier (its memo counts under its own lock) and tracer
        // health.
        table.extend(
            [
                ("shards", u64::from(stats.shards)),
                ("queue_capacity", u64::from(stats.queue_capacity)),
                ("queued", stats.queued),
                ("peers", u64::from(stats.peers)),
                ("peers_unhealthy", u64::from(stats.peers_unhealthy)),
                ("store_bytes", stats.store_bytes),
                ("memory_hits", memory.hits),
                ("memory_misses", memory.misses),
                ("memory_evictions", memory.evictions),
                ("memory_len", memory.len as u64),
                ("memory_capacity", memory.capacity as u64),
                ("trace_spans_dropped", self.telemetry.tracer.dropped()),
            ]
            .map(|(name, value)| (name.to_string(), value)),
        );
        // The active fault plan's per-point fired counters
        // (`chaos_fired_*`), so chaos tests reconcile injected faults
        // against the degradation counters above over one scrape.
        #[cfg(feature = "chaos")]
        if let Some(plan) = pwcet_chaos::active() {
            table.extend(plan.entries());
        }
        table.sort_unstable();
        debug_assert!(
            table.windows(2).all(|pair| pair[0].0 != pair[1].0),
            "a metric name is written twice"
        );
        table
    }
}

/// A running analysis server. Dropping it performs the same graceful
/// drain as [`shutdown`](Self::shutdown) (minus the returned stats), so
/// an early-return error path never leaks the accept thread or the
/// bound port.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections.
    ///
    /// # Errors
    ///
    /// Propagates socket-bind and disk-tier-creation failures.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Self> {
        // The accept loop blocks (zero accept latency — a sleep-polled
        // loop taxed every new connection, and the fleet's peer fetches
        // with it); `drain_and_join` wakes it with a dummy connection.
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;

        let plane = match &config.disk_dir {
            Some(dir) if dir.as_os_str().is_empty() => {
                // An empty path "succeeds" at create_dir_all and then
                // scatters store files into the CWD — refuse it instead
                // (the classic cause is an unset shell variable).
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "disk tier directory must not be empty",
                ));
            }
            Some(dir) => Arc::new(ReusePlane::in_memory().with_disk_tier(dir)?),
            None => Arc::new(ReusePlane::in_memory()),
        };
        let shards = config.effective_shards();
        // Each shard's worker gets an equal slice of the machine for the
        // intra-analysis fan-out; an explicit (non-Auto) parallelism in
        // the analysis config is honored as-is.
        let mut shard_analysis = config.analysis;
        if shard_analysis.parallelism == Parallelism::Auto {
            let total = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            shard_analysis.parallelism = Parallelism::threads((total / shards).max(1));
        }
        let telemetry = Arc::new(Telemetry::new(config.trace_out.as_ref(), plane.metrics())?);
        let engine = Arc::new(Engine {
            plane,
            config: shard_analysis,
        });
        let worker_engine = Arc::clone(&engine);
        let worker_telemetry = Arc::clone(&telemetry);
        let pool = ShardPool::new(shards, config.queue_capacity, move |_, job: Job| {
            let Job {
                work,
                trace,
                submitted,
                reply,
            } = job;
            // Queue wait ends the moment the worker picks the job up;
            // it is disjoint from every span the trace scope collects.
            let queue_us = submitted.elapsed().as_micros() as u64;
            worker_telemetry.queue_wait_us.record(queue_us);
            worker_telemetry.record_span(trace, Stage::QueueWait, queue_us);
            let service_started = Instant::now();
            // The scope collects the pipeline's stage spans (classify,
            // ILP, convolution, decode, peer fetch) recorded on this
            // thread and arms `current_trace()` for the peer layer.
            let (result, mut spans) = trace_scope(&worker_telemetry.tracer, trace, || {
                catch_unwind(AssertUnwindSafe(|| {
                    // Chaos shard fault: blow up inside the job exactly
                    // where a pipeline bug would, upstream of the
                    // catch_unwind recovery below.
                    #[cfg(feature = "chaos")]
                    if pwcet_chaos::should_fire(pwcet_chaos::FaultPoint::ShardPanic) {
                        panic!("chaos: injected shard panic");
                    }
                    worker_engine.execute(work)
                }))
                .unwrap_or_else(|_| {
                    worker_telemetry.worker_panics.inc();
                    Err("internal panic during analysis".to_string())
                })
            });
            let service_us = service_started.elapsed().as_micros() as u64;
            worker_telemetry.service_us.record(service_us);
            worker_telemetry.record_span(trace, Stage::Service, service_us);
            spans.insert(0, (Stage::QueueWait, queue_us));
            spans.push((Stage::Service, service_us));
            // A job counts once, under its first point's tier.
            if let Some((_, tier, _)) = result.as_ref().ok().and_then(|points| points.first()) {
                worker_telemetry.served_from(*tier).inc();
            }
            worker_telemetry.served.inc();
            // The requester may have given up (connection died); a failed
            // send is not an error.
            let _ = reply.send((result, spans));
        });

        // The fleet is attached after the plane exists (it needs the
        // plane only implicitly, through offers enqueued by persists)
        // and before any connection can run, so every request sees the
        // network tier or none do.
        let fleet = match &config.fleet {
            Some(fleet_config) if fleet_config.has_peers() => {
                let fleet = Arc::new(PeerFleet::start(
                    fleet_config.clone(),
                    engine.plane.metrics(),
                ));
                engine
                    .plane
                    .set_network_tier(Arc::clone(&fleet) as Arc<dyn NetworkTier>);
                Some(fleet)
            }
            _ => None,
        };

        let shared = Arc::new(Shared {
            pool,
            programs: CompileMemo::new(engine.config, engine.plane.metrics()),
            engine,
            stop: AtomicBool::new(false),
            connections: Mutex::new(Vec::new()),
            poll: config.poll,
            queue_capacity: config.queue_capacity,
            deadline: config.frame_deadline,
            fleet,
            telemetry,
        });

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(Self {
            shared,
            accept: Some(accept),
            addr,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared reuse plane behind all shards.
    pub fn reuse_plane(&self) -> &Arc<ReusePlane> {
        &self.shared.engine.plane
    }

    /// Current service counters and gauges.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats()
    }

    /// The full self-describing metrics table (what [`Request::Metrics`]
    /// answers): every service, reuse-plane, solver and classifier
    /// counter by its stable name, histograms expanded to exact
    /// quantile rows.
    pub fn metrics_table(&self) -> Vec<(String, u64)> {
        self.shared.metrics_table()
    }

    /// The span collector: ring snapshots for tests and tooling.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.shared.telemetry.tracer
    }

    /// Whether a shutdown was requested (locally or by a client).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.stop.load(Ordering::Relaxed)
    }

    /// Blocks until some client sends [`Request::Shutdown`] (or
    /// [`request_shutdown`](Self::request_shutdown) is called), polling
    /// at the configured interval.
    pub fn wait_for_shutdown_request(&self) {
        while !self.shutdown_requested() {
            std::thread::sleep(self.shared.poll);
        }
    }

    /// Marks the server as draining without blocking (what a client's
    /// [`Request::Shutdown`] does). Call [`shutdown`](Self::shutdown) to
    /// actually drain and join.
    pub fn request_shutdown(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
    }

    /// Gracefully stops the server: no new connections or submissions,
    /// every queued job drains and answers, then all threads are joined
    /// and the reuse plane is flushed through to its disk tier. Returns
    /// the final counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.drain_and_join();
        self.shared.stats()
    }

    /// The drain sequence shared by [`shutdown`](Self::shutdown) and
    /// drop; idempotent (the taken accept handle gates the
    /// once-per-server steps).
    fn drain_and_join(&mut self) {
        self.request_shutdown();
        let first_drain = self.accept.is_some();
        if let Some(accept) = self.accept.take() {
            // Wake the blocking accept so it observes the stop flag.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
            let _ = accept.join();
        }
        // Join connections while the workers are still alive, so every
        // already-submitted job still gets its reply delivered.
        let connections = std::mem::take(&mut *self.shared.connections.lock().expect("conn list"));
        for connection in connections {
            let _ = connection.join();
        }
        self.shared.pool.shutdown();
        // Flush before the fleet stops: the flush's persists may enqueue
        // final offers, and the fleet drains its offer queue on shutdown.
        self.shared.engine.plane.flush();
        if let Some(fleet) = &self.shared.fleet {
            fleet.shutdown();
        }
        if first_drain {
            // The final table survives the process: one JSONL record in
            // the span sink (when configured) and a log line, not only
            // the value returned to whoever called `shutdown`.
            let table = self.shared.metrics_table();
            let mut json = String::from("{\"record\":\"final_metrics\"");
            for (name, value) in &table {
                use std::fmt::Write as _;
                let _ = write!(json, ",\"{name}\":{value}");
            }
            json.push('}');
            self.shared.telemetry.tracer.sink_line(&json);
            self.shared.telemetry.tracer.flush();
            let stats = self.shared.stats();
            eprintln!(
                "pwcet-serve: drained; served={} overloads={} protocol_errors={} \
                 cold_builds={} store_bytes={}",
                stats.served,
                stats.overloads,
                stats.protocol_errors,
                self.shared.engine.plane.stats().cold_builds,
                stats.store_bytes
            );
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain_and_join();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                // A connection arriving during the drain (including the
                // wake-up dummy from `drain_and_join`) is dropped, same
                // as a refused submission.
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                shared.telemetry.connections.inc();
                let conn_shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || serve_connection(stream, &conn_shared));
                let mut connections = shared.connections.lock().expect("conn list");
                // Reap finished handles so a long-lived server does not
                // accumulate one join handle per past connection.
                connections.retain(|h| !h.is_finished());
                connections.push(handle);
            }
            Err(_) => {
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(shared.poll);
            }
        }
    }
}

/// What one polled frame read produced.
enum PolledRead {
    /// A complete, checksum-verified payload.
    Payload(Vec<u8>),
    /// The peer closed cleanly between frames.
    CleanEof,
    /// The server is draining; no (complete) frame will follow.
    Stopped,
}

fn is_poll_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads one frame with a poll-based timeout so the connection notices a
/// server shutdown, a half-frame stall, or a mid-frame disconnect
/// without ever hanging.
///
/// The deadline is checked on the successful-read path too, not only
/// when a poll times out: a slow-loris client dripping one byte per
/// poll interval keeps every `read` returning `Ok(1)` and would
/// otherwise never hit the timeout arm, pinning the connection thread
/// for as long as it cares to drip.
fn read_frame_polled(stream: &mut TcpStream, shared: &Shared) -> Result<PolledRead, WireError> {
    let mut header = [0u8; protocol::HEADER_LEN];
    let mut filled = 0usize;
    let mut deadline: Option<Instant> = None;
    while filled < protocol::HEADER_LEN {
        match stream.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(PolledRead::CleanEof),
            Ok(0) => return Err(ProtocolError::Truncated.into()),
            Ok(n) => {
                filled += n;
                let deadline = *deadline.get_or_insert_with(|| Instant::now() + shared.deadline);
                if filled < protocol::HEADER_LEN && Instant::now() > deadline {
                    return Err(ProtocolError::Truncated.into());
                }
            }
            Err(e) if is_poll_timeout(&e) => {
                if shared.stop.load(Ordering::Relaxed) {
                    return Ok(PolledRead::Stopped);
                }
                if deadline.is_some_and(|d| Instant::now() > d) {
                    return Err(ProtocolError::Truncated.into());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    // Chaos wire fault: the stream tears after the header — exactly
    // what a peer dying mid-frame produces (the `Ok(0)` path below).
    // Degrades like any truncation: one counted protocol error, a
    // clean error response, and the connection is dropped.
    #[cfg(feature = "chaos")]
    if pwcet_chaos::should_fire(pwcet_chaos::FaultPoint::WireTornRead) {
        return Err(ProtocolError::Truncated.into());
    }
    let (payload_len, sum) = protocol::parse_header(&header)?;
    let mut payload = vec![0u8; payload_len as usize];
    let mut filled = 0usize;
    let deadline = Instant::now() + shared.deadline;
    while filled < payload.len() {
        match stream.read(&mut payload[filled..]) {
            Ok(0) => return Err(ProtocolError::Truncated.into()),
            Ok(n) => {
                filled += n;
                if filled < payload.len() && Instant::now() > deadline {
                    return Err(ProtocolError::Truncated.into());
                }
            }
            Err(e) if is_poll_timeout(&e) => {
                // Even during a shutdown the started frame gets its
                // deadline; an idle half-frame is cut off either way.
                if Instant::now() > deadline || shared.stop.load(Ordering::Relaxed) {
                    return Err(ProtocolError::Truncated.into());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    protocol::verify_payload(&payload, sum)?;
    Ok(PolledRead::Payload(payload))
}

fn respond(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    // Chaos wire faults on the write side: a delayed response (latency
    // fault — the client's read timeout and retry policy absorb it) or
    // a connection dropped before the response bytes go out (the
    // requester must fail over / retry; counted by the caller as a
    // response write failure).
    #[cfg(feature = "chaos")]
    {
        use pwcet_chaos::FaultPoint;
        if let Some(entropy) = pwcet_chaos::roll(FaultPoint::WireDelayedWrite) {
            std::thread::sleep(Duration::from_millis(5 + entropy % 45));
        }
        if pwcet_chaos::should_fire(FaultPoint::WireDisconnect) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "chaos: injected mid-response disconnect",
            ));
        }
    }
    protocol::write_frame(stream, &protocol::encode_response(response))
}

fn error_response(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
        retry_after_ms: None,
    }
}

/// How long an `Overloaded` refusal tells the client to back off: a
/// rough drain estimate from the refusing shard's queue depth, floored
/// so a hint is never zero and capped so a deep queue cannot park
/// clients for ages. Carried as the structured `retry_after_ms` field
/// of the error payload.
fn retry_after_hint(depth: usize) -> u64 {
    (depth as u64).saturating_mul(50).clamp(50, 5_000)
}

fn overloaded_response(message: impl Into<String>, depth: usize) -> Response {
    Response::Error {
        code: ErrorCode::Overloaded,
        message: message.into(),
        retry_after_ms: Some(retry_after_hint(depth)),
    }
}

fn serve_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    if stream.set_read_timeout(Some(shared.poll)).is_err() {
        return;
    }
    // Writes need a deadline too: a client that stops *reading* would
    // otherwise block this thread in `respond` once the kernel send
    // buffer fills, and a blocked writer would hang the draining
    // shutdown's connection join. A write that stalls past the frame
    // deadline errors out and drops the connection instead.
    if stream.set_write_timeout(Some(shared.deadline)).is_err() {
        return;
    }
    loop {
        match read_frame_polled(&mut stream, shared) {
            Ok(PolledRead::Payload(payload)) => {
                let request = match protocol::decode_request_payload(&payload) {
                    Ok(request) => request,
                    Err(e) => {
                        refuse_malformed(&mut stream, shared, e.to_string());
                        return;
                    }
                };
                match dispatch(&mut stream, shared, request) {
                    Ok(true) => {}
                    Ok(false) => return,
                    Err(_) => {
                        // The response could not be written — the peer
                        // is gone or the write stalled out. The work
                        // (if any) already ran; only delivery failed.
                        shared.telemetry.response_write_failures.inc();
                        return;
                    }
                }
            }
            Ok(PolledRead::CleanEof) | Ok(PolledRead::Stopped) => return,
            Err(WireError::Protocol(e)) => {
                // Bad magic, version skew, oversized prefix, checksum
                // mismatch, truncation: answer once, then drop the
                // connection — resynchronizing a corrupt stream is not
                // worth guessing at frame boundaries.
                refuse_malformed(&mut stream, shared, e.to_string());
                return;
            }
            // `read_frame_polled` reports stalls as `Truncated`;
            // `Timeout` is the client-side classification and cannot
            // reach here, but the drop is right for it regardless.
            Err(WireError::Io(_)) | Err(WireError::Timeout) => return,
        }
    }
}

/// Answers an undecodable frame or payload with a `Malformed` error,
/// counting the protocol error and, when the answer cannot be written,
/// the write failure (as `dispatch`'s failed writes are counted).
fn refuse_malformed(stream: &mut TcpStream, shared: &Shared, message: String) {
    shared.telemetry.protocol_errors.inc();
    if respond(stream, &error_response(ErrorCode::Malformed, message)).is_err() {
        shared.telemetry.response_write_failures.inc();
    }
}

/// A submitted program's compiled image and content key from the compile
/// memo, mapping a build failure to an invalid-request response.
fn compile(shared: &Shared, program: &Program) -> Result<Prepared, Box<Response>> {
    shared.programs.get(program).map_err(|e| {
        Box::new(error_response(
            ErrorCode::InvalidRequest,
            format!("program {:?} does not build: {e}", program.name()),
        ))
    })
}

fn validate_probability(value: f64, what: &str) -> Result<(), Box<Response>> {
    if !(value.is_finite() && 0.0 < value && value <= 1.0) {
        return Err(Box::new(error_response(
            ErrorCode::InvalidRequest,
            format!("{what} must be a probability in (0, 1], got {value}"),
        )));
    }
    Ok(())
}

/// The server's analysis configuration at `pfail`: one point of an
/// `Analyze`, `Batch` or `SweepPfail`, or the refusal of a `pfail`
/// outside [0, 1].
fn pfail_point(shared: &Shared, pfail: f64) -> Result<AnalysisConfig, Box<Response>> {
    shared.engine.config.with_pfail(pfail).map_err(|_| {
        Box::new(error_response(
            ErrorCode::InvalidRequest,
            format!("pfail must be a probability in [0, 1], got {pfail}"),
        ))
    })
}

/// Runs one decoded request to completion, writing exactly one response.
/// Returns whether the connection should stay open.
///
/// Every analysis verb becomes jobs of points: one job of one point for
/// `Analyze`, one such job per program for `Batch`, one job of one point
/// per `pfail` or per lattice geometry (widest first) for the sweeps.
/// [`run_jobs`] runs them; the verb's response is shaped from the points.
fn dispatch(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    request: Request,
) -> std::io::Result<bool> {
    let started = Instant::now();
    let response = match request {
        Request::Metrics => Ok(Response::Metrics {
            entries: shared.metrics_table(),
        }),
        Request::Shutdown => {
            shared.stop.store(true, Ordering::Relaxed);
            respond(stream, &Response::ShutdownStarted)?;
            return Ok(false);
        }
        // Fleet verbs are answered inline on the connection thread —
        // never through the shards (they carry no analysis work) and
        // never by fetching from *our* peers in turn (export/import only
        // touch local tiers), so two nodes fetching from each other can
        // not deadlock or loop.
        Request::FetchEntry { key, trace } => {
            // The serving side of a peer hop: the export is recorded as
            // a `peer_serve` span under the *requester's* trace, so one
            // trace ID stitches both nodes' rings together.
            let entry = shared.engine.plane.export_entry(key);
            shared.telemetry.record_span(
                TraceId(trace),
                Stage::PeerServe,
                started.elapsed().as_micros() as u64,
            );
            if entry.is_some() {
                shared.telemetry.peer_fetches_served.inc();
            }
            Ok(Response::Entry { key, entry })
        }
        Request::OfferEntry { key, entry } => {
            let stored = shared.engine.plane.import_entry(key, entry);
            if stored {
                shared.telemetry.peer_offers_stored.inc();
            }
            Ok(Response::OfferAck { stored })
        }
        Request::Analyze {
            program,
            pfail,
            target_p,
            trace,
        } => {
            let job = prepare_analyze(shared, &program, pfail, target_p);
            run_jobs(shared, [job], trace, started, false).map(|(points, micros, stages)| {
                Response::Analysis {
                    row: analysis_row(&program, &points[0]),
                    micros,
                    trace,
                    stages,
                }
            })
        }
        Request::Batch {
            programs,
            pfail,
            target_p,
            trace,
        } => {
            if programs.len() > MAX_BATCH_PROGRAMS {
                Err(Box::new(error_response(
                    ErrorCode::InvalidRequest,
                    format!(
                        "batch is capped at {MAX_BATCH_PROGRAMS} programs, got {}",
                        programs.len()
                    ),
                )))
            } else {
                // Each program is prepared just before its submission, so
                // a refusal stops the batch where it occurs.
                let jobs = programs
                    .iter()
                    .map(|program| prepare_analyze(shared, program, pfail, target_p));
                run_jobs(shared, jobs, trace, started, true).map(|(points, micros, stages)| {
                    Response::Batch {
                        rows: programs
                            .iter()
                            .zip(&points)
                            .map(|(p, point)| analysis_row(p, point))
                            .collect(),
                        micros,
                        trace,
                        stages,
                    }
                })
            }
        }
        Request::SweepPfail {
            program,
            pfails,
            target_p,
            trace,
        } => {
            let job = prepare_pfail_sweep(shared, &program, &pfails, target_p);
            run_jobs(shared, [job], trace, started, false).map(|(points, micros, stages)| {
                Response::PfailSweep {
                    name: program.name().to_string(),
                    served_from: points[0].1,
                    rows: points
                        .iter()
                        .map(
                            |&(config, _, [_, pwcet_none, pwcet_srb, pwcet_rw])| PfailRow {
                                pfail: config.fault_model.pfail(),
                                pwcet_none,
                                pwcet_srb,
                                pwcet_rw,
                            },
                        )
                        .collect(),
                    micros,
                    trace,
                    stages,
                }
            })
        }
        Request::SweepGeometry {
            program,
            sets,
            block_bytes,
            way_counts,
            target_p,
            trace,
        } => {
            let job =
                prepare_geometry_sweep(shared, &program, sets, block_bytes, &way_counts, target_p);
            run_jobs(shared, [job], trace, started, false).map(|(points, micros, stages)| {
                Response::GeometrySweep {
                    name: program.name().to_string(),
                    served_from: points[0].1,
                    rows: points
                        .iter()
                        .map(
                            |&(config, _, [_, pwcet_none, pwcet_srb, pwcet_rw])| GeometryRow {
                                ways: config.geometry.ways(),
                                pwcet_none,
                                pwcet_srb,
                                pwcet_rw,
                            },
                        )
                        .collect(),
                    micros,
                    trace,
                    stages,
                }
            })
        }
    };
    respond(stream, &response.unwrap_or_else(|refusal| *refusal))?;
    Ok(true)
}

/// The wire row of an `Analyze` or `Batch` program's one point.
fn analysis_row(
    program: &Program,
    &(_, served_from, [fault_free_wcet, pwcet_none, pwcet_srb, pwcet_rw]): &Point,
) -> AnalysisRow {
    AnalysisRow {
        name: program.name().to_string(),
        fault_free_wcet,
        pwcet_none,
        pwcet_srb,
        pwcet_rw,
        served_from,
    }
}

/// Collapses a scope's span list into the wire breakdown: one
/// [`StageTiming`] per stage in tag order, durations summed and
/// occurrences counted.
fn aggregate_stages(spans: &[(Stage, u64)]) -> Vec<StageTiming> {
    let mut timings: Vec<StageTiming> = Vec::new();
    for stage in Stage::ALL {
        let mut micros = 0u64;
        let mut count = 0u32;
        for &(s, dur) in spans {
            if s == stage {
                micros = micros.saturating_add(dur);
                count += 1;
            }
        }
        if count > 0 {
            timings.push(StageTiming {
                stage,
                micros,
                count,
            });
        }
    }
    timings
}

fn prepare_analyze(
    shared: &Shared,
    program: &Program,
    pfail: f64,
    target_p: f64,
) -> Result<(u64, Work), Box<Response>> {
    let point = pfail_point(shared, pfail)?;
    validate_probability(target_p, "target_p")?;
    let (compiled, key) = compile(shared, program)?;
    Ok((
        key,
        Work {
            compiled,
            points: vec![point],
            target_p,
        },
    ))
}

fn prepare_pfail_sweep(
    shared: &Shared,
    program: &Program,
    pfails: &[f64],
    target_p: f64,
) -> Result<(u64, Work), Box<Response>> {
    if pfails.is_empty() || pfails.len() > MAX_SWEEP_POINTS {
        return Err(Box::new(error_response(
            ErrorCode::InvalidRequest,
            format!(
                "sweep needs 1..={MAX_SWEEP_POINTS} pfail points, got {}",
                pfails.len()
            ),
        )));
    }
    let points = pfails
        .iter()
        .map(|&pfail| pfail_point(shared, pfail))
        .collect::<Result<_, _>>()?;
    validate_probability(target_p, "target_p")?;
    let (compiled, key) = compile(shared, program)?;
    Ok((
        key,
        Work {
            compiled,
            points,
            target_p,
        },
    ))
}

fn prepare_geometry_sweep(
    shared: &Shared,
    program: &Program,
    sets: u32,
    block_bytes: u32,
    way_counts: &[u32],
    target_p: f64,
) -> Result<(u64, Work), Box<Response>> {
    validate_probability(target_p, "target_p")?;
    if way_counts.is_empty() || way_counts.len() > MAX_SWEEP_POINTS {
        return Err(Box::new(error_response(
            ErrorCode::InvalidRequest,
            format!(
                "sweep needs 1..={MAX_SWEEP_POINTS} way counts, got {}",
                way_counts.len()
            ),
        )));
    }
    if !(sets.is_power_of_two() && sets <= MAX_SETS) {
        return Err(Box::new(error_response(
            ErrorCode::InvalidRequest,
            format!("sets must be a power of two ≤ {MAX_SETS}, got {sets}"),
        )));
    }
    if !(block_bytes.is_power_of_two() && (4..=MAX_BLOCK_BYTES).contains(&block_bytes)) {
        return Err(Box::new(error_response(
            ErrorCode::InvalidRequest,
            format!(
                "block_bytes must be a power of two in 4..={MAX_BLOCK_BYTES}, got {block_bytes}"
            ),
        )));
    }
    if way_counts.iter().any(|&w| w == 0 || w > MAX_WAYS) {
        return Err(Box::new(error_response(
            ErrorCode::InvalidRequest,
            format!("way counts must be in 1..={MAX_WAYS}, got {way_counts:?}"),
        )));
    }
    let lattice = GeometryLattice::new(sets, block_bytes, way_counts);
    let (compiled, _) = compile(shared, program)?;
    let config = shared.engine.config;
    // Route by the widest requested geometry, so every request over one
    // program-and-lattice family serializes onto one shard.
    let key = ContextCache::key_of(&compiled, lattice.widest(), config.classification);
    Ok((
        key,
        Work {
            compiled,
            points: lattice
                .members()
                .map(|geometry| AnalysisConfig { geometry, ..config })
                .collect(),
            target_p,
        },
    ))
}

/// The one submit path of every analysis verb: submits each prepared job
/// in order (a batch spreads its programs across the shards), then blocks
/// for every reply. Returns all jobs' points in submission order, the
/// request's latency and its stage breakdown, or the response that
/// answers the request instead: a preparation refusal, an overload or
/// drain refusal, or the first failed job's error. `batch` only words the
/// overload refusal.
fn run_jobs(
    shared: &Shared,
    jobs: impl IntoIterator<Item = Result<(u64, Work), Box<Response>>>,
    trace: u64,
    started: Instant,
    batch: bool,
) -> Result<(Vec<Point>, u64, Vec<StageTiming>), Box<Response>> {
    let mut replies = Vec::new();
    for job in jobs {
        let (key, work) = job?;
        let (reply, reply_rx) = mpsc::channel();
        let job = Job {
            work,
            trace: TraceId(trace),
            submitted: Instant::now(),
            reply,
        };
        match shared.pool.submit(key, job) {
            Ok(_) => replies.push(reply_rx),
            Err(SubmitError::Overloaded { shard, depth, .. }) => {
                // Jobs already submitted still run (and warm the plane);
                // their replies are dropped with the receivers.
                shared.telemetry.overloads.inc();
                let at = if batch {
                    format!(" at batch item {}", replies.len())
                } else {
                    String::new()
                };
                return Err(Box::new(overloaded_response(
                    format!("shard {shard} queue full (depth {depth}){at}; retry later"),
                    depth,
                )));
            }
            Err(SubmitError::ShuttingDown { .. }) => {
                return Err(Box::new(error_response(
                    ErrorCode::ShuttingDown,
                    "server is draining",
                )));
            }
        }
    }
    let mut points = Vec::new();
    // Stage durations are summed across every job of a batch; since the
    // jobs run on concurrent shards, the sums may exceed the batch's
    // wall-clock `micros` (documented on the wire struct).
    let mut spans = Vec::new();
    for reply_rx in replies {
        let (result, job_spans) = reply_rx.recv().map_err(|_| {
            Box::new(error_response(
                ErrorCode::Analysis,
                "worker dropped the request",
            ))
        })?;
        points.extend(
            result.map_err(|message| Box::new(error_response(ErrorCode::Analysis, message)))?,
        );
        spans.extend(job_spans);
    }
    let micros = started.elapsed().as_micros() as u64;
    shared.telemetry.requests.inc();
    shared.telemetry.request_latency_us.record(micros);
    Ok((points, micros, aggregate_stages(&spans)))
}
