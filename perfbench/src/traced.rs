//! The traced replay: the timed run's set-up and request sequence,
//! served in-process through the public calls the server makes, with a
//! benchmark timer around each call. Per-layer times are means per
//! request, so the summed layers add up to the traced total; counts are
//! per pass and must repeat exactly from pass to pass.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pwcet_cache::GeometryLattice;
use pwcet_core::{
    expand_compiled, AnalysisConfig, ContextCache, Parallelism, Protection, PwcetAnalyzer,
    ReusePlane, ReusePlaneStats, ReuseTier, SolveStats,
};
use pwcet_obs::{trace_scope, Stage, TraceId, Tracer, DEFAULT_RING_CAPACITY};
use pwcet_progen::CompiledProgram;
use pwcet_serve::protocol;
use pwcet_serve::{AnalysisRow, GeometryRow, Request, Response, StageTiming};

use crate::golden::Golden;
use crate::timed::Run;
use crate::{pass_order, Metric, Stores, Suite, Tally, Workload};

/// Accumulated time per layer over every traced request.
#[derive(Debug, Default)]
struct Layers {
    request_codec: Duration,
    compile: Duration,
    key_of: Duration,
    lookup: Duration,
    classify: Duration,
    solve: Duration,
    convolve: Duration,
    persist: Duration,
    response_codec: Duration,
    /// CFG expansion of the disk and cold lookups, timed by a separate
    /// call beside the lookup that already contains it: reported, never
    /// summed.
    expand: Duration,
}

impl Layers {
    /// The summed layers, in request-path order.
    fn summed(&self) -> [(&'static str, Duration); 9] {
        [
            ("serve.request_codec_us", self.request_codec),
            ("progen.compile_us", self.compile),
            ("core.key_of_us", self.key_of),
            ("core.lookup_us", self.lookup),
            ("analysis.classify_us", self.classify),
            ("ilp.solve_us", self.solve),
            ("prob.convolve_us", self.convolve),
            ("core.persist_us", self.persist),
            ("serve.response_codec_us", self.response_codec),
        ]
    }
}

/// Work counted over one pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    memory_hits: u64,
    disk_hits: u64,
    disk_writes: u64,
    store_bytes: u64,
    derived: u64,
    cold_builds: u64,
    classify_passes: u64,
    words_touched: u64,
    sets_skipped: u64,
    pivots: u64,
    dual_pivots: u64,
    bb_nodes: u64,
    warm_starts: u64,
    cold_starts: u64,
    template_hits: u64,
    support_points: u64,
    request_bytes: u64,
    response_bytes: u64,
}

impl Counts {
    /// Fills the plane-wide counters with their change since `before`.
    fn plane_since(&mut self, plane: &ReusePlane, before: &(ReusePlaneStats, SolveStats)) {
        let (stats, ilp) = (plane.stats(), plane.ilp_stats());
        let (was, ilp_was) = before;
        self.memory_hits = stats.memory.hits - was.memory.hits;
        self.disk_hits = stats.disk_hits - was.disk_hits;
        self.disk_writes = stats.disk_writes - was.disk_writes;
        self.derived = stats.derived - was.derived;
        self.cold_builds = stats.cold_builds - was.cold_builds;
        self.template_hits = stats.template_hits - was.template_hits;
        self.pivots = ilp.pivots - ilp_was.pivots;
        self.dual_pivots = ilp.dual_pivots - ilp_was.dual_pivots;
        self.bb_nodes = ilp.bb_nodes - ilp_was.bb_nodes;
        self.warm_starts = ilp.warm_starts - ilp_was.warm_starts;
        self.cold_starts = ilp.cold_starts - ilp_was.cold_starts;
        self.store_bytes = plane.disk_store_bytes().unwrap_or(0);
    }

    fn rows(&self) -> [(&'static str, u64, &'static str); 18] {
        [
            ("serve.request_bytes", self.request_bytes, "bytes"),
            ("serve.response_bytes", self.response_bytes, "bytes"),
            ("core.memory_hits", self.memory_hits, "count"),
            ("core.disk_hits", self.disk_hits, "count"),
            ("core.disk_writes", self.disk_writes, "count"),
            ("core.store_bytes", self.store_bytes, "bytes"),
            ("core.derived", self.derived, "count"),
            ("core.cold_builds", self.cold_builds, "count"),
            ("analysis.passes", self.classify_passes, "count"),
            ("analysis.words_touched", self.words_touched, "count"),
            ("analysis.sets_skipped", self.sets_skipped, "count"),
            ("ilp.pivots", self.pivots, "count"),
            ("ilp.dual_pivots", self.dual_pivots, "count"),
            ("ilp.bb_nodes", self.bb_nodes, "count"),
            ("ilp.warm_starts", self.warm_starts, "count"),
            ("ilp.cold_starts", self.cold_starts, "count"),
            ("ipet.template_hits", self.template_hits, "count"),
            ("prob.support_points", self.support_points, "count"),
        ]
    }
}

fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *slot += started.elapsed();
    out
}

/// The parallelism each shard of a `ServerConfig::default()` server
/// gives its analyses: `min(cores, 4)` shards share the machine.
fn shard_parallelism() -> Parallelism {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Parallelism::threads((cores / cores.min(4)).max(1))
}

/// One plane configured like a server's, plus the span ring the server
/// records every job's spans into.
struct Replay {
    config: AnalysisConfig,
    plane: Arc<ReusePlane>,
    tracer: Arc<Tracer>,
}

impl Replay {
    fn new(disk: Option<&Path>) -> Result<Self, String> {
        let plane = match disk {
            Some(dir) => ReusePlane::in_memory()
                .with_disk_tier(dir)
                .map_err(|e| format!("disk tier: {e}"))?,
            None => ReusePlane::in_memory(),
        };
        Ok(Self {
            config: AnalysisConfig::paper_default().with_parallelism(shard_parallelism()),
            plane: Arc::new(plane),
            tracer: Arc::new(Tracer::new(DEFAULT_RING_CAPACITY)),
        })
    }

    fn snapshot(&self) -> (ReusePlaneStats, SolveStats) {
        (self.plane.stats(), self.plane.ilp_stats())
    }

    /// One request, from its frame to the decoded response, through the
    /// calls the connection thread and the shard worker make.
    fn serve(
        &self,
        request: &Request,
        layers: &mut Layers,
        counts: &mut Counts,
    ) -> Result<Response, String> {
        let (frame, decoded) = timed(&mut layers.request_codec, || {
            let frame = protocol::encode_request(request);
            let decoded = protocol::decode_request(&frame);
            (frame, decoded)
        });
        counts.request_bytes += frame.len() as u64;
        let started = Instant::now();
        let (program, config, lattice, target_p) =
            match decoded.map_err(|e| format!("request decode: {e}"))? {
                Request::Analyze {
                    program,
                    pfail,
                    target_p,
                    ..
                } => {
                    let config = self.config.with_pfail(pfail).map_err(|e| e.to_string())?;
                    (program, config, None, target_p)
                }
                Request::SweepGeometry {
                    program,
                    sets,
                    block_bytes,
                    way_counts,
                    target_p,
                    ..
                } => {
                    let lattice = GeometryLattice::new(sets, block_bytes, &way_counts);
                    let config = AnalysisConfig {
                        geometry: lattice.widest(),
                        ..self.config
                    };
                    (program, config, Some(lattice), target_p)
                }
                _ => return Err("the benchmark replays only Analyze and SweepGeometry".into()),
            };
        let compiled = timed(&mut layers.compile, || program.compile(config.code_base))
            .map_err(|e| format!("{}: {e}", program.name()))?;
        timed(&mut layers.key_of, || {
            ContextCache::key_of(&compiled, config.geometry, config.classification)
        });
        let geometries: Vec<_> = match &lattice {
            Some(lattice) => lattice.members().collect(),
            None => vec![config.geometry],
        };
        // The worker's span scope: the program's own stage spans are
        // recorded into the ring as they are on the server.
        let (points, spans) = trace_scope(&self.tracer, TraceId::NONE, || {
            geometries
                .iter()
                .map(|&geometry| {
                    let config = AnalysisConfig { geometry, ..config };
                    self.point(&compiled, &config, target_p, layers, counts)
                })
                .collect::<Result<Vec<_>, String>>()
        });
        let points = points?;
        for (tier, _) in &points {
            if matches!(tier, ReuseTier::Disk | ReuseTier::Cold) {
                timed(&mut layers.expand, || expand_compiled(&compiled))
                    .map_err(|e| format!("{}: {e}", compiled.name()))?;
            }
        }
        let micros = started.elapsed().as_micros() as u64;
        let stages = stage_timings(&spans, micros);
        let name = compiled.name().to_string();
        let served_from = points[0].0;
        let response = match lattice {
            None => {
                let [wcet, none, srb, rw] = points[0].1;
                Response::Analysis {
                    row: AnalysisRow {
                        name,
                        fault_free_wcet: wcet,
                        pwcet_none: none,
                        pwcet_srb: srb,
                        pwcet_rw: rw,
                        served_from,
                    },
                    micros,
                    trace: 0,
                    stages,
                }
            }
            Some(_) => Response::GeometrySweep {
                name,
                served_from,
                rows: geometries
                    .iter()
                    .zip(&points)
                    .map(|(geometry, (_, [_, none, srb, rw]))| GeometryRow {
                        ways: geometry.ways(),
                        pwcet_none: *none,
                        pwcet_srb: *srb,
                        pwcet_rw: *rw,
                    })
                    .collect(),
                micros,
                trace: 0,
                stages,
            },
        };
        let (bytes, back) = timed(&mut layers.response_codec, || {
            let bytes = protocol::encode_response(&response);
            let back = protocol::decode_response(&bytes);
            (bytes, back)
        });
        counts.response_bytes += bytes.len() as u64;
        back.map_err(|e| format!("response decode: {e}"))
    }

    /// One answered point: lookup, classification, solve, the three
    /// estimates, write-through. Returns the tier and `(wcet_ff, none,
    /// srb, rw)`.
    fn point(
        &self,
        compiled: &CompiledProgram,
        config: &AnalysisConfig,
        target_p: f64,
        layers: &mut Layers,
        counts: &mut Counts,
    ) -> Result<(ReuseTier, [u64; 4]), String> {
        let (context, tier) = timed(&mut layers.lookup, || {
            self.plane
                .get_or_build_traced(compiled, config.geometry, config.classification)
        })
        .map_err(|e| format!("{}: {e}", compiled.name()))?;
        let kernel_before = context.kernel_stats();
        timed(&mut layers.classify, || context.prewarm(config.parallelism));
        let analysis = timed(&mut layers.solve, || {
            PwcetAnalyzer::new(*config)
                .with_reuse_plane(Arc::clone(&self.plane))
                .analyze_with_context(&context)
        })
        .map_err(|e| format!("{}: {e}", compiled.name()))?;
        let kernel = context.kernel_stats().delta_since(&kernel_before);
        counts.classify_passes += kernel.passes;
        counts.words_touched += kernel.words_touched;
        counts.sets_skipped += kernel.sets_skipped;
        let bounds = timed(&mut layers.convolve, || {
            [
                Protection::None,
                Protection::SharedReliableBuffer,
                Protection::ReliableWay,
            ]
            .map(|protection| {
                let estimate = analysis.estimate(protection);
                (
                    estimate.pwcet_at(target_p),
                    estimate.penalty_distribution().points().len() as u64,
                )
            })
        });
        timed(&mut layers.persist, || {
            self.plane.persist(compiled, &context)
        });
        counts.support_points += bounds.iter().map(|(_, points)| points).sum::<u64>();
        let [none, srb, rw] = bounds.map(|(bound, _)| bound);
        Ok((tier, [analysis.fault_free_wcet(), none, srb, rw]))
    }
}

/// The response's stage breakdown as the server builds it: spans folded
/// per stage, plus the queue wait (none in-process) and service time.
fn stage_timings(spans: &[(Stage, u64)], service_us: u64) -> Vec<StageTiming> {
    let mut spans = spans.to_vec();
    spans.push((Stage::QueueWait, 0));
    spans.push((Stage::Service, service_us));
    Stage::ALL
        .iter()
        .filter_map(|&stage| {
            let of_stage = spans.iter().filter(|(s, _)| *s == stage);
            let count = of_stage.clone().count() as u32;
            (count > 0).then(|| StageTiming {
                stage,
                micros: of_stage.map(|(_, us)| us).sum(),
                count,
            })
        })
        .collect()
}

/// What the traced replay measured.
pub struct Traced {
    layers: Layers,
    counts: Counts,
    requests: u64,
    passes: u64,
}

struct Driver<'a> {
    suite: &'a Suite,
    golden: &'a Golden,
    tally: &'a mut Tally,
    seed: u64,
    requests: Vec<Request>,
    layers: Layers,
    first: Option<Counts>,
    timed_requests: u64,
    passes: u64,
    elapsed: Duration,
}

impl Driver<'_> {
    /// Set-up traffic: served and checked; its timers are discarded.
    fn untimed(
        &mut self,
        replay: &Replay,
        order: impl IntoIterator<Item = usize>,
        tier: ReuseTier,
    ) {
        for i in order {
            let outcome = replay.serve(
                &self.requests[i],
                &mut Layers::default(),
                &mut Counts::default(),
            );
            let checked = outcome.and_then(|r| self.golden.check(self.suite.names[i], tier, &r));
            self.tally.record(checked);
        }
    }

    /// One traced pass. Its counts must equal the first pass's.
    fn pass(&mut self, replay: &Replay, pass: u64, tier: ReuseTier) {
        let order = pass_order(self.seed, pass, self.suite.names.len());
        let before = replay.snapshot();
        let mut counts = Counts::default();
        let started = Instant::now();
        for &i in &order {
            let outcome = replay.serve(&self.requests[i], &mut self.layers, &mut counts);
            let checked = outcome.and_then(|r| self.golden.check(self.suite.names[i], tier, &r));
            self.tally.record(checked);
        }
        self.elapsed += started.elapsed();
        self.timed_requests += order.len() as u64;
        self.passes += 1;
        counts.plane_since(&replay.plane, &before);
        match self.first {
            None => self.first = Some(counts),
            Some(first) if first != counts => self.tally.fail(
                order.len() as u64,
                format!("traced pass {pass} counted {counts:?}, the first pass {first:?}"),
            ),
            Some(_) => {}
        }
    }

    /// At least two passes, so the counts can be compared.
    fn done(&self, budget: Duration) -> bool {
        self.passes >= 2 && self.elapsed >= budget
    }

    /// A flushed plane of `restart_read` must have written nothing.
    fn check_no_writes(&mut self, replay: &Replay) {
        replay.plane.flush();
        let writes = replay.plane.stats().disk_writes;
        if writes != 0 {
            self.tally.fail(
                self.suite.names.len() as u64,
                format!("traced restart_read plane wrote {writes} entries"),
            );
        }
    }
}

pub fn run(
    workload: Workload,
    suite: &Suite,
    golden: &Golden,
    stores: &Stores,
    seed: u64,
    budget: Duration,
    tally: &mut Tally,
) -> Result<Traced, String> {
    let n = suite.names.len();
    let mut d = Driver {
        suite,
        golden,
        tally,
        seed,
        requests: (0..n).map(|i| suite.request(workload, i)).collect(),
        layers: Layers::default(),
        first: None,
        timed_requests: 0,
        passes: 0,
        elapsed: Duration::ZERO,
    };
    let tier = workload.tier();
    match workload {
        Workload::WarmRepeat => {
            let replay = Replay::new(None)?;
            d.untimed(&replay, 0..n, ReuseTier::Cold);
            d.untimed(&replay, pass_order(seed, 0, n), tier);
            for pass in 1.. {
                d.pass(&replay, pass, tier);
                if d.done(budget) {
                    break;
                }
            }
        }
        Workload::ColdSweep => {
            for pass in 0.. {
                let dir = stores.fresh_dir();
                let replay = Replay::new(Some(&dir))?;
                if pass == 0 {
                    d.untimed(&replay, pass_order(seed, 0, n), tier);
                } else {
                    d.pass(&replay, pass, tier);
                }
                drop(replay);
                let _ = std::fs::remove_dir_all(&dir);
                if d.done(budget) {
                    break;
                }
            }
        }
        Workload::RestartRead => {
            let dir = stores.fresh_dir();
            let build = Replay::new(Some(&dir))?;
            d.untimed(&build, 0..n, ReuseTier::Cold);
            build.plane.flush();
            drop(build);
            let replay = Replay::new(Some(&dir))?;
            d.untimed(&replay, pass_order(seed, 0, n), tier);
            d.check_no_writes(&replay);
            for pass in 1.. {
                let replay = Replay::new(Some(&dir))?;
                d.pass(&replay, pass, tier);
                d.check_no_writes(&replay);
                if d.done(budget) {
                    break;
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    Ok(Traced {
        layers: d.layers,
        counts: d.first.unwrap_or_default(),
        requests: d.timed_requests,
        passes: d.passes,
    })
}

impl Traced {
    fn per_request_us(&self, d: Duration) -> f64 {
        d.as_secs_f64() * 1e6 / self.requests as f64
    }

    fn total_us(&self) -> f64 {
        self.layers
            .summed()
            .iter()
            .map(|&(_, d)| self.per_request_us(d))
            .sum()
    }

    /// The timed run's client mean split by the server's own histograms:
    /// `(wire, dispatch, queue_wait, service)`, each per request.
    fn serve_split(run: &Run) -> (f64, f64, f64, f64) {
        let s = run.server;
        let per = |us: u64| us as f64 / s.requests.max(1) as f64;
        let server = per(s.latency_us);
        let (queue_wait, service) = (per(s.queue_wait_us), per(s.service_us));
        (
            run.client_mean_us() - server,
            server - queue_wait - service,
            queue_wait,
            service,
        )
    }

    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub fn per_layer(&self, run: &Run) -> Vec<Metric> {
        let (wire, dispatch, queue_wait, service) = Self::serve_split(run);
        let client = run.client_mean_us();
        let total = self.total_us();
        let us = |name, value| Metric {
            name,
            value,
            unit: "us",
        };
        let mut metrics = vec![
            us("serve.client_mean_us", client),
            us("serve.wire_us", wire),
            us("serve.dispatch_us", dispatch),
            us("serve.queue_wait_us", queue_wait),
            us("serve.service_us", service),
            us("serve.traced_total_us", total),
            us("serve.residual_us", client - total),
            us("cfg.expand_us", self.per_request_us(self.layers.expand)),
        ];
        for (name, d) in self.layers.summed() {
            metrics.push(us(name, self.per_request_us(d)));
        }
        for (name, value, unit) in self.counts.rows() {
            metrics.push(Metric {
                name,
                value: value as f64,
                unit,
            });
        }
        metrics
    }

    /// The attribution report: nothing on the request path is left
    /// unattributed.
    pub fn report(&self, run: &Run) {
        let (wire, dispatch, queue_wait, service) = Self::serve_split(run);
        eprintln!(
            "  traced replay: {} requests in {} passes",
            self.requests, self.passes
        );
        eprintln!(
            "  client mean {:.1} us = wire {wire:.1} + dispatch {dispatch:.1} + queue_wait {queue_wait:.1} + service {service:.1}",
            run.client_mean_us()
        );
        let parts: Vec<String> = self
            .layers
            .summed()
            .iter()
            .map(|&(name, d)| format!("{name} {:.1}", self.per_request_us(d)))
            .collect();
        eprintln!(
            "  traced total {:.1} us = {}",
            self.total_us(),
            parts.join(" + ")
        );
        eprintln!(
            "  beside (not summed): cfg.expand_us {:.1}",
            self.per_request_us(self.layers.expand)
        );
        eprintln!(
            "  serve.residual_us {:.1} (timed-run client mean − traced total)",
            run.client_mean_us() - self.total_us()
        );
        let counts: Vec<String> = self
            .counts
            .rows()
            .iter()
            .map(|(name, value, _)| format!("{name}={value}"))
            .collect();
        eprintln!("  per pass: {}", counts.join(" "));
    }
}
