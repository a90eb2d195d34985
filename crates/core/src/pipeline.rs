//! The end-to-end analysis pipeline.
//!
//! The pipeline is staged around one shared [`AnalysisContext`]:
//!
//! 1. **Context** — expand the CFG once ([`expand_compiled`]);
//! 2. **Classify** — fill the memoized CHMC levels `0..=W` and the SRB
//!    map, fanning the independent fixpoints across workers;
//! 3. **Solve** — fan the per-`(set, fault)` delta ILPs (§II-C) and the
//!    per-set SRB column ILPs (§III-B2) out across workers;
//! 4. **Convolve** — combine per-set penalty distributions with the
//!    balanced reduction tree of [`DiscreteDistribution::convolve_all`],
//!    on the calling thread, under the default
//!    [`ConvolutionParams`](pwcet_prob::ConvolutionParams). The result is
//!    memoized beside the solve artifacts per (fault model, protection)
//!    from that key's second computation on.
//!
//! The sequential mode ([`Parallelism::Sequential`]) runs the identical
//! stages on the calling thread and produces bit-identical results — the
//! property tests in `crates/core/tests/parallel_equivalence.rs` pin that
//! guarantee down.

use std::sync::Arc;

use pwcet_analysis::{Chmc, ChmcMap, SrbMap};
use pwcet_cfg::{CfgError, ExpandedCfg, FunctionExtent};
use pwcet_ilp::SolveStats;
use pwcet_ipet::{CostModel, RefCost};
use pwcet_mips::BinaryImage;
use pwcet_par::{par_map, Parallelism};
use pwcet_prob::{ConvolutionParams, DiscreteDistribution};
use pwcet_progen::{CompiledProgram, Program};

use crate::config::AnalysisConfig;
use crate::context::{AnalysisContext, PenaltyKey, Solved};
use crate::error::CoreError;
use crate::estimate::{Protection, PwcetEstimate};
use crate::fmm::FaultMissMap;
use crate::reuse_plane::{ReusePlane, ReuseTier};

/// Builds the expanded control-flow graph of a compiled program (function
/// extents and loop bounds are taken from the compilation metadata).
///
/// # Errors
///
/// Propagates [`CfgError`] from reconstruction.
pub fn expand_compiled(compiled: &CompiledProgram) -> Result<ExpandedCfg, CfgError> {
    let (extents, bounds) = expander_metadata(compiled);
    expand(compiled.image(), &extents, &bounds)
}

/// The function extents and loop bounds the CFG expander reads beside
/// the image.
fn expander_metadata(compiled: &CompiledProgram) -> (Vec<FunctionExtent>, Vec<(u32, u32)>) {
    let extents = compiled
        .functions()
        .iter()
        .map(|f| FunctionExtent::new(f.name(), f.entry(), f.end()))
        .collect();
    let bounds = compiled
        .loop_bounds()
        .iter()
        .map(|lb| (lb.header, lb.bound))
        .collect();
    (extents, bounds)
}

fn expand(
    image: &BinaryImage,
    extents: &[FunctionExtent],
    bounds: &[(u32, u32)],
) -> Result<ExpandedCfg, CfgError> {
    let _span = pwcet_obs::stage_span(pwcet_obs::Stage::CfgExpand);
    ExpandedCfg::build(image, extents, bounds)
}

/// What the CFG expander reads from a compiled program: the image, the
/// function extents and the loop bounds. A restored context keeps these
/// instead of the whole program and expands its graph on first use.
#[derive(Debug, Clone)]
pub(crate) struct ExpanderInputs {
    image: BinaryImage,
    extents: Vec<FunctionExtent>,
    bounds: Vec<(u32, u32)>,
}

impl ExpanderInputs {
    pub(crate) fn of(compiled: &CompiledProgram) -> Self {
        let (extents, bounds) = expander_metadata(compiled);
        Self {
            image: compiled.image().clone(),
            extents,
            bounds,
        }
    }

    /// Expands the graph, recording a `cfg_expand` span.
    pub(crate) fn expand(&self) -> Result<ExpandedCfg, CfgError> {
        expand(&self.image, &self.extents, &self.bounds)
    }
}

/// The fault-aware pWCET analyzer (the paper's tool).
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct PwcetAnalyzer {
    config: AnalysisConfig,
    reuse: Option<Arc<ReusePlane>>,
}

impl PwcetAnalyzer {
    /// Creates an analyzer with the given configuration (no reuse plane;
    /// every analysis builds a fresh context).
    pub fn new(config: AnalysisConfig) -> Self {
        Self {
            config,
            reuse: None,
        }
    }

    /// Attaches a [`ReusePlane`]: every analysis resolves its context
    /// through the plane's tiers (memory, disk, cross-geometry
    /// derivation) and writes newly computed artifacts through to the
    /// disk tier when one is attached. A memory-only plane over a
    /// caller-owned [`ContextCache`](crate::ContextCache) is
    /// `ReusePlane::with_memory(cache)`.
    #[must_use]
    pub fn with_reuse_plane(mut self, plane: Arc<ReusePlane>) -> Self {
        self.reuse = Some(plane);
        self
    }

    /// The attached reuse plane, if any.
    pub fn reuse_plane(&self) -> Option<&Arc<ReusePlane>> {
        self.reuse.as_ref()
    }

    /// The configuration in use.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Compiles and analyzes a structured program: fault-free WCET plus
    /// the full fault miss map (all protection-independent work).
    ///
    /// # Errors
    ///
    /// [`CoreError`] wrapping compilation, reconstruction, or ILP
    /// failures.
    pub fn analyze(&self, program: &Program) -> Result<ProgramAnalysis, CoreError> {
        let compiled = program.compile(self.config.code_base)?;
        Ok(self.analyze_compiled(&compiled)?.0)
    }

    /// As [`analyze`](Self::analyze) for an already-compiled program,
    /// additionally reporting the [`ReuseTier`] that provided the
    /// context. Analyzers without a plane always build (and report)
    /// `Cold`; with one, the tier is exactly what
    /// [`ReusePlane::get_or_build_traced`] observed for this request, so
    /// a service can answer `served_from` per response without
    /// re-deriving it from plane-wide stats.
    ///
    /// # Errors
    ///
    /// [`CoreError`] wrapping reconstruction or ILP failures.
    pub fn analyze_compiled(
        &self,
        compiled: &CompiledProgram,
    ) -> Result<(ProgramAnalysis, ReuseTier), CoreError> {
        match &self.reuse {
            Some(plane) => {
                let (context, tier) = plane.get_or_build_traced(
                    compiled,
                    self.config.geometry,
                    self.config.classification,
                )?;
                let mut analysis = self.analyze_with_context(&context)?;
                // The plane key is content-addressed and name-blind: a hit
                // may hand back a context built for an identically-shaped
                // program with another name. Report the caller's name.
                analysis.name = compiled.name().to_string();
                // Write the (now warmed) artifacts through to the disk
                // tier so the next process starts warm. No-op without a
                // disk tier; IO failures degrade to a counted stat.
                plane.persist(compiled, &context);
                Ok((analysis, tier))
            }
            None => {
                let context = AnalysisContext::build_with_mode(
                    compiled,
                    self.config.geometry,
                    self.config.classification,
                )?;
                Ok((self.analyze_with_context(&context)?, ReuseTier::Cold))
            }
        }
    }

    /// As [`analyze_compiled`](Self::analyze_compiled) over a prebuilt
    /// (and possibly already warmed) shared context. Repeated analyses of
    /// the same program — e.g. configuration sweeps that only vary the
    /// fault model — reuse every memoized classification level **and**
    /// the protection-independent solve artifacts (fault-free WCET, FMM,
    /// SRB columns), which the context memoizes per cache timing: a
    /// `pfail` sweep pays the ILP stage exactly once.
    ///
    /// # Errors
    ///
    /// [`CoreError`] wrapping ILP failures.
    ///
    /// # Panics
    ///
    /// Panics when the context was built for a different cache geometry.
    pub fn analyze_with_context(
        &self,
        context: &AnalysisContext,
    ) -> Result<ProgramAnalysis, CoreError> {
        assert_eq!(
            *context.geometry(),
            self.config.geometry,
            "context geometry must match the analyzer configuration"
        );
        let kernel_before = context.kernel_stats();
        let (solved, stats) = context.solve_artifacts(self.config.timing, || {
            solve_protection_independent(context, &self.config)
        })?;
        // Solver behavior is observable per plane (the service metrics
        // table). Stats come back only for the computation that was
        // actually installed, so memoized re-requests — and discarded
        // racing duplicates — record nothing.
        if let (Some(stats), Some(plane)) = (stats, &self.reuse) {
            plane.record_ilp_stats(&stats);
            // Classification fixpoints recorded onto the context during
            // this solve (the kernel counters accrue there as levels
            // materialize); forward only the delta so a re-analyzed warm
            // context is not double-counted.
            plane.record_kernel_stats(&context.kernel_stats().delta_since(&kernel_before));
        }
        Ok(ProgramAnalysis {
            config: self.config,
            name: context.name().to_string(),
            solved,
        })
    }

    /// Analyzes a batch of programs, parallelizing **across** programs.
    ///
    /// Without an attached [`ReusePlane`] each program gets an
    /// independent context and nothing but the configuration is shared;
    /// with one ([`with_reuse_plane`](Self::with_reuse_plane)) the worker
    /// threads share it, so duplicate images inside the batch — and
    /// across repeated batch runs — reuse one context. With more than
    /// one program the inner per-program fan-out runs sequentially so
    /// the workers are not oversubscribed; the per-program results are
    /// bit-identical to one-by-one [`analyze`](Self::analyze) calls
    /// either way.
    ///
    /// # Errors
    ///
    /// The first [`CoreError`] in program order, if any analysis fails.
    pub fn analyze_batch(&self, programs: &[Program]) -> Result<Vec<ProgramAnalysis>, CoreError> {
        let inner = if programs.len() > 1 {
            Parallelism::Sequential
        } else {
            self.config.parallelism
        };
        let mut program_analyzer = Self::new(self.config.with_parallelism(inner));
        program_analyzer.reuse = self.reuse.clone();
        par_map(self.config.parallelism, programs, |program| {
            program_analyzer.analyze(program)
        })
        .into_iter()
        .map(|result| {
            result.map(|mut analysis| {
                // The sequential override is batch-internal scheduling; the
                // analysis must carry (and later estimate with) the
                // caller's configuration.
                analysis.config = self.config;
                analysis
            })
        })
        .collect()
    }
}

/// The protection-independent products of the ILP solve stage: everything
/// an estimate needs that does not depend on the fault model. Memoized
/// inside [`AnalysisContext`] per cache timing, beside
/// the penalty memo derived from them, and shared by every
/// [`ProgramAnalysis`] derived from the same context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SolveArtifacts {
    pub(crate) fault_free_wcet: u64,
    pub(crate) fmm: FaultMissMap,
    pub(crate) srb_last_column: Vec<u64>,
}

/// Stages 2–3 over a shared context: classification prewarm, fault-free
/// WCET, the per-`(set, fault)` delta ILPs of the fault miss map, and the
/// per-set SRB column ILPs.
///
/// Every ILP of the stage — one big WCET instance plus `S×W + S` small
/// delta instances — is an objective-only variant of the context's
/// factored [`IpetTemplate`](pwcet_ipet::IpetTemplate): the constraint
/// matrix is built and factored once, the fan-out re-solves against
/// pooled warm bases, and the WCET instance may split its
/// branch-and-bound subtrees across the stage's workers.
fn solve_protection_independent(
    context: &AnalysisContext,
    config: &AnalysisConfig,
) -> Result<(SolveArtifacts, SolveStats), CoreError> {
    let parallelism = config.parallelism;
    // A restored context expands its graph here, on its first solve; the
    // error is the one a cold build of the same program would raise.
    let cfg = context.graph()?;
    let geometry = config.geometry;
    let ways = geometry.ways();
    let sets = geometry.sets();

    // Stage 2 (classify): all CHMC levels and the SRB map (cold mode fans
    // the independent fixpoints out; incremental mode chains them).
    // `prewarm` records the stage's `classify` span itself.
    context.prewarm(parallelism);

    // Everything below is ILP work: template (re)use, the fault-free
    // WCET instance, the per-(set,fault) delta fan-out, and the SRB
    // columns — one span covering the whole solve stage.
    let _ilp_span = pwcet_obs::stage_span(pwcet_obs::Stage::IlpSolve);

    let template = context.ipet_template();
    // Cap the warm-workspace pool at the configured solve parallelism:
    // more pooled bases than workers can never be checked out
    // concurrently, they would only hold memory.
    template.set_pool_cap(parallelism.worker_count(usize::MAX).max(1));
    let mut stats = SolveStats::default();

    // Fault-free WCET (§II-B): the one big instance of the stage — the
    // only ILP that may split branch-and-bound subtrees across workers
    // (the fan-outs below keep the workers busy with whole jobs).
    let chmc_full = context.chmc(ways);
    let wcet_costs = CostModel::from_chmc(cfg, chmc_full, &config.timing);
    let (fault_free_wcet, wcet_stats) =
        template.bound_with_workers(&wcet_costs, parallelism.worker_count(usize::MAX))?;
    stats.merge(&wcet_stats);

    // Stage 3 (solve): fault miss map (§II-C). Every `(set, fault)`
    // delta ILP is independent; fan them out and fold the results back
    // in job order, which keeps the outcome bit-identical to the
    // sequential reference.
    let set_refs = context.set_refs();
    let jobs: Vec<(u32, u32)> = (1..=ways)
        .flat_map(|f| (0..sets).map(move |s| (s, f)))
        .collect();
    let bounds = par_map(
        parallelism,
        &jobs,
        |&(s, f)| -> Result<(u64, SolveStats), CoreError> {
            let (costs, has_delta) = delta_cost_model_indexed(
                cfg,
                &set_refs[s as usize],
                chmc_full,
                context.chmc(ways - f),
                None,
            );
            if has_delta {
                Ok(template.bound_with_workers(&costs, 1)?)
            } else {
                Ok((0, SolveStats::default()))
            }
        },
    );
    let mut fmm = FaultMissMap::new(sets, ways);
    for (&(s, f), outcome) in jobs.iter().zip(bounds) {
        let (bound, job_stats) = outcome?;
        stats.merge(&job_stats);
        if bound > 0 {
            fmm.set(s, f, bound);
        }
    }
    // LRU associativity monotonicity: a set with more faults can never
    // miss less, so each row may be monotonized. This keeps rows
    // sound (the max of two upper bounds bounds the larger case) and
    // makes the RW's stochastic dominance provable.
    for s in 0..sets {
        for f in 2..=ways {
            let prev = fmm.get(s, f - 1);
            if fmm.get(s, f) < prev {
                fmm.set(s, f, prev);
            }
        }
    }

    // SRB column (§III-B2): recompute `f = W` after removing
    // references that provably hit in the shared reliable buffer.
    // One independent ILP per set — same fan-out shape as stage 3.
    let srb_map = context.srb();
    let chmc_zero = context.chmc(0);
    let srb_jobs: Vec<u32> = (0..sets).collect();
    let srb_bounds = par_map(
        parallelism,
        &srb_jobs,
        |&s| -> Result<(u64, SolveStats), CoreError> {
            let (costs, has_delta) = delta_cost_model_indexed(
                cfg,
                &set_refs[s as usize],
                chmc_full,
                chmc_zero,
                Some(srb_map),
            );
            if has_delta {
                Ok(template.bound_with_workers(&costs, 1)?)
            } else {
                Ok((0, SolveStats::default()))
            }
        },
    );
    let mut srb_last_column = vec![0u64; sets as usize];
    for (s, outcome) in srb_bounds.into_iter().enumerate() {
        let (bound, job_stats) = outcome?;
        stats.merge(&job_stats);
        // The SRB never outperforms a surviving way (an SRB hit is a
        // guaranteed hit at associativity 1 too), so the column
        // dominates the f = W − 1 column; enforce it defensively.
        srb_last_column[s] = bound.max(fmm.get(s as u32, ways - 1));
    }

    Ok((
        SolveArtifacts {
            fault_free_wcet,
            fmm,
            srb_last_column,
        },
        stats,
    ))
}

/// The protection-independent analysis results of one program, from which
/// estimates for every protection level are assembled cheaply.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    config: AnalysisConfig,
    name: String,
    solved: Arc<Solved>,
}

impl ProgramAnalysis {
    /// The analyzed program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The deterministic fault-free WCET in cycles.
    pub fn fault_free_wcet(&self) -> u64 {
        self.solved.artifacts.fault_free_wcet
    }

    /// The fault miss map (unprotected columns `f = 1..=W`).
    pub fn fmm(&self) -> &FaultMissMap {
        &self.solved.artifacts.fmm
    }

    /// The recomputed `f = W` column under the SRB, per set.
    pub fn srb_last_column(&self) -> &[u64] {
        &self.solved.artifacts.srb_last_column
    }

    /// The configuration the analysis ran with.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// The fault-penalty distribution (in cycles) for one protection
    /// level: per-set binomial mixtures over the fault miss map, convolved
    /// across independent sets (§II-C) and scaled by the miss penalty.
    ///
    /// The context memoizes the result per (fault model, protection): a
    /// key's first computation leaves a marker, its second stores the
    /// distribution, and later requests on the same resident context
    /// share that copy instead of convolving.
    pub fn penalty_distribution(&self, protection: Protection) -> Arc<DiscreteDistribution> {
        // Memo hits stay inside the span, so the stage breakdown still
        // reports the convolve stage of every estimate.
        let _span = pwcet_obs::stage_span(pwcet_obs::Stage::Convolve);
        let key = PenaltyKey::new(&self.config.fault_model, protection);
        let penalties = &self.solved.penalties;
        if let Some(stored) = penalties.get(&key) {
            return stored;
        }
        // The convolution runs outside the memo's lock; a racing thread's
        // stored copy wins.
        penalties.insert(key, Arc::new(self.convolve(protection)))
    }

    /// Computes [`penalty_distribution`](Self::penalty_distribution):
    /// the per-set distributions are combined by the balanced reduction
    /// tree of [`DiscreteDistribution::convolve_all`] — `O(n log n)`
    /// support growth instead of the quadratic left fold.
    fn convolve(&self, protection: Protection) -> DiscreteDistribution {
        let geometry = self.config.geometry;
        let ways = geometry.ways();
        let pbf = self
            .config
            .fault_model
            .block_failure_probability(geometry.block_bits());

        // The way-fault weights depend only on the geometry and the fault
        // model — compute them once, not per set.
        let pwf = match protection {
            // Eq. 3: under the RW only W − 1 ways can fail; the all-faulty
            // point disappears.
            Protection::ReliableWay => self
                .config
                .fault_model
                .reliable_way_fault_distribution(ways, pbf),
            Protection::None | Protection::SharedReliableBuffer => {
                self.config.fault_model.way_fault_distribution(ways, pbf)
            }
        };
        let per_set: Vec<DiscreteDistribution> = (0..geometry.sets())
            .map(|s| {
                let points: Vec<(u64, f64)> = match protection {
                    Protection::None => (0..=ways)
                        .map(|f| (self.fmm().get(s, f), pwf[f as usize]))
                        .collect(),
                    Protection::ReliableWay => (0..ways)
                        .map(|f| (self.fmm().get(s, f), pwf[f as usize]))
                        .collect(),
                    Protection::SharedReliableBuffer => (0..=ways)
                        .map(|f| {
                            let misses = if f == ways {
                                self.srb_last_column()[s as usize]
                            } else {
                                self.fmm().get(s, f)
                            };
                            (misses, pwf[f as usize])
                        })
                        .collect(),
                };
                DiscreteDistribution::from_points(points)
                    .expect("binomial weights form a distribution")
            })
            .collect();

        DiscreteDistribution::convolve_all(&per_set, &ConvolutionParams::default())
            .scale_values(self.config.timing.miss_penalty_cycles())
    }

    /// Assembles the pWCET estimate for one protection level.
    pub fn estimate(&self, protection: Protection) -> PwcetEstimate {
        PwcetEstimate::new(
            protection,
            self.fault_free_wcet(),
            self.penalty_distribution(protection),
        )
    }
}

/// Builds the fault-miss-map objective for one set: the per-reference
/// *extra-miss* deltas between the fault-free charging model and the
/// reduced-associativity (or SRB) charging model.
///
/// Charged misses per model: always-hit → 0; first-miss(scope) → 1 per
/// scope entry; always-miss / not-classified → 1 per execution (§IV-A
/// merges NC into AM). The delta of each reference is clamped at 0, which
/// keeps the ILP objective non-negative and remains sound.
///
/// Returns the cost model and whether any delta is positive (callers skip
/// the ILP when not). Public so benchmarks and the solver gate can
/// reproduce the exact per-`(set, fault)` fan-out workload of the
/// pipeline's solve stage.
pub fn delta_cost_model(
    cfg: &ExpandedCfg,
    geometry: &pwcet_cache::CacheGeometry,
    set: u32,
    old: &ChmcMap,
    new: &ChmcMap,
    srb: Option<&SrbMap>,
) -> (CostModel, bool) {
    let mut costs = CostModel::zero(cfg);
    let mut has_delta = false;
    for node in cfg.nodes() {
        for (i, &addr) in node.addrs().iter().enumerate() {
            if geometry.set_of(addr) != set {
                continue;
            }
            apply_ref_delta(&mut costs, &mut has_delta, node.id(), i, old, new, srb);
        }
    }
    (costs, has_delta)
}

/// [`delta_cost_model`] over a precomputed per-set reference bucket
/// ([`AnalysisContext::set_refs`]): identical output — the bucket lists
/// the same references in the same graph order the full scan visits —
/// without touching the other sets' references on every job of the
/// `(set, fault)` fan-out.
fn delta_cost_model_indexed(
    cfg: &ExpandedCfg,
    refs: &[(pwcet_cfg::NodeId, usize)],
    old: &ChmcMap,
    new: &ChmcMap,
    srb: Option<&SrbMap>,
) -> (CostModel, bool) {
    let mut costs = CostModel::zero(cfg);
    let mut has_delta = false;
    for &(node, i) in refs {
        apply_ref_delta(&mut costs, &mut has_delta, node, i, old, new, srb);
    }
    (costs, has_delta)
}

/// One reference of the §II-C delta charging model (shared by the full
/// scan and the indexed fan-out — the tables of both must stay
/// bit-identical).
fn apply_ref_delta(
    costs: &mut CostModel,
    has_delta: &mut bool,
    node: pwcet_cfg::NodeId,
    i: usize,
    old: &ChmcMap,
    new: &ChmcMap,
    srb: Option<&SrbMap>,
) {
    // Under the SRB, a reference that provably hits the buffer is
    // effectively always-hit even with a fully faulty set.
    let new_class = match srb {
        Some(srb_map) if srb_map.always_hit(node, i) => Chmc::AlwaysHit,
        _ => new.get(node, i),
    };
    let cost = match (old.get(node, i), new_class) {
        // The new model charges nothing extra.
        (_, Chmc::AlwaysHit) => RefCost::default(),
        // Old charged per execution (AM and NC both charge every
        // execution), new charges at most once per scope entry.
        (Chmc::AlwaysMiss | Chmc::NotClassified, Chmc::FirstMiss(_)) => RefCost::default(),
        // Same scope: identical charge on every path.
        (Chmc::FirstMiss(old_scope), Chmc::FirstMiss(new_scope)) if old_scope == new_scope => {
            RefCost::default()
        }
        // One extra miss per entry of the new scope.
        (_, Chmc::FirstMiss(new_scope)) => RefCost::with_first_extra(0, 1, new_scope),
        // Old already charged every execution.
        (Chmc::AlwaysMiss | Chmc::NotClassified, Chmc::AlwaysMiss | Chmc::NotClassified) => {
            RefCost::default()
        }
        // Hit (or once-per-entry) becomes a miss on every
        // execution.
        (_, Chmc::AlwaysMiss | Chmc::NotClassified) => RefCost::per_execution(1),
    };
    if cost.per_execution > 0 || cost.first_extra > 0 {
        *has_delta = true;
        costs.set(node, i, cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwcet_progen::stmt;

    fn analyzer() -> PwcetAnalyzer {
        PwcetAnalyzer::new(AnalysisConfig::paper_default())
    }

    /// A loop working set that fits the cache: spatial locality only.
    fn small_loop() -> Program {
        Program::new("small_loop").with_function("main", stmt::loop_(50, stmt::compute(20)))
    }

    /// Straight-line code much larger than the cache.
    fn streaming() -> Program {
        Program::new("streaming").with_function("main", stmt::compute(1500))
    }

    #[test]
    fn fault_free_model_yields_zero_penalty() {
        let config = AnalysisConfig::paper_default().with_pfail(0.0).unwrap();
        let analysis = PwcetAnalyzer::new(config).analyze(&small_loop()).unwrap();
        for protection in Protection::all() {
            let estimate = analysis.estimate(protection);
            assert_eq!(estimate.pwcet_at(1e-15), analysis.fault_free_wcet());
            assert_eq!(estimate.pwcet_at(1.0), analysis.fault_free_wcet());
        }
    }

    #[test]
    fn fmm_rows_are_monotone() {
        let analysis = analyzer().analyze(&small_loop()).unwrap();
        let fmm = analysis.fmm();
        for s in 0..fmm.sets() {
            for f in 1..=fmm.ways() {
                assert!(
                    fmm.get(s, f) >= fmm.get(s, f - 1),
                    "row {s} must be monotone in the fault count"
                );
            }
        }
    }

    #[test]
    fn srb_column_dominates_one_way_column() {
        let analysis = analyzer().analyze(&small_loop()).unwrap();
        for s in 0..analysis.fmm().sets() {
            assert!(
                analysis.srb_last_column()[s as usize]
                    >= analysis.fmm().get(s, analysis.fmm().ways() - 1)
            );
        }
    }

    #[test]
    fn srb_column_never_exceeds_unprotected_column() {
        let analysis = analyzer().analyze(&small_loop()).unwrap();
        let ways = analysis.fmm().ways();
        for s in 0..analysis.fmm().sets() {
            assert!(
                analysis.srb_last_column()[s as usize] <= analysis.fmm().get(s, ways),
                "the SRB can only remove misses from the all-faulty column"
            );
        }
    }

    #[test]
    fn protection_ordering_at_target_probability() {
        for program in [small_loop(), streaming()] {
            let analysis = analyzer().analyze(&program).unwrap();
            let none = analysis.estimate(Protection::None);
            let srb = analysis.estimate(Protection::SharedReliableBuffer);
            let rw = analysis.estimate(Protection::ReliableWay);
            let p = 1e-15;
            assert!(
                rw.pwcet_at(p) <= srb.pwcet_at(p),
                "{}: RW must dominate SRB",
                analysis.name()
            );
            assert!(
                srb.pwcet_at(p) <= none.pwcet_at(p),
                "{}: SRB must dominate no protection",
                analysis.name()
            );
            assert!(none.pwcet_at(p) >= analysis.fault_free_wcet());
            assert!(rw.pwcet_at(p) >= analysis.fault_free_wcet());
        }
    }

    #[test]
    fn spatial_only_program_fully_protected() {
        // Streaming code has no temporal locality: every block is fetched
        // once per traversal, so both mechanisms recover the fault-free
        // WCET (category 1 of Figure 4): the only extra misses come from
        // losing spatial locality within a block, which both preserve.
        let analysis = analyzer().analyze(&streaming()).unwrap();
        let rw = analysis.estimate(Protection::ReliableWay);
        let p = 1e-15;
        assert_eq!(rw.pwcet_at(p), analysis.fault_free_wcet());
    }

    #[test]
    fn pwcet_grows_as_probability_shrinks() {
        let analysis = analyzer().analyze(&small_loop()).unwrap();
        let estimate = analysis.estimate(Protection::None);
        let mut last = 0;
        for p in [1.0, 1e-3, 1e-6, 1e-9, 1e-12, 1e-15] {
            let value = estimate.pwcet_at(p);
            assert!(value >= last, "pWCET must grow as p shrinks");
            last = value;
        }
    }

    #[test]
    fn higher_pfail_means_higher_pwcet() {
        let program = small_loop();
        let mut last = 0;
        for pfail in [1e-6, 1e-5, 1e-4, 1e-3] {
            let config = AnalysisConfig::paper_default().with_pfail(pfail).unwrap();
            let analysis = PwcetAnalyzer::new(config).analyze(&program).unwrap();
            let value = analysis.estimate(Protection::None).pwcet_at(1e-15);
            assert!(value >= last, "pfail {pfail}: pWCET must not decrease");
            last = value;
        }
    }

    #[test]
    fn shared_context_reuse_matches_fresh_analysis() {
        let program = small_loop();
        let compiled = program.compile(0x0040_0000).unwrap();
        let config = AnalysisConfig::paper_default();
        let context = AnalysisContext::build(&compiled, config.geometry).unwrap();

        // Two sweeps over the fault model reuse one context.
        for pfail in [1e-5, 1e-4] {
            let swept = config.with_pfail(pfail).unwrap();
            let via_context = PwcetAnalyzer::new(swept)
                .analyze_with_context(&context)
                .unwrap();
            let fresh = PwcetAnalyzer::new(swept).analyze(&program).unwrap();
            assert_eq!(via_context.fmm(), fresh.fmm());
            assert_eq!(via_context.srb_last_column(), fresh.srb_last_column());
            assert_eq!(via_context.fault_free_wcet(), fresh.fault_free_wcet());
        }
    }

    #[test]
    fn sweep_over_one_context_solves_the_ilp_stage_once() {
        let compiled = small_loop().compile(0x0040_0000).unwrap();
        let config = AnalysisConfig::paper_default();
        let context = AnalysisContext::build(&compiled, config.geometry).unwrap();
        let mut analyses = Vec::new();
        for pfail in [1e-5, 1e-4, 1e-3] {
            let swept = config.with_pfail(pfail).unwrap();
            analyses.push(
                PwcetAnalyzer::new(swept)
                    .analyze_with_context(&context)
                    .unwrap(),
            );
        }
        assert_eq!(
            context.solved_configurations(),
            1,
            "the fault model must not re-trigger the solve stage"
        );
        // The memoized artifacts are shared, and the estimates still
        // reflect each point's own fault model.
        assert_eq!(analyses[0].fmm(), analyses[2].fmm());
        let p = 1e-15;
        assert!(
            analyses[0].estimate(Protection::None).pwcet_at(p)
                <= analyses[2].estimate(Protection::None).pwcet_at(p)
        );
    }

    #[test]
    fn distinct_timings_get_distinct_solve_artifacts() {
        let compiled = small_loop().compile(0x0040_0000).unwrap();
        let config = AnalysisConfig::paper_default();
        let context = AnalysisContext::build(&compiled, config.geometry).unwrap();
        PwcetAnalyzer::new(config)
            .analyze_with_context(&context)
            .unwrap();
        let mut slower = config;
        slower.timing = pwcet_cache::CacheTiming::new(1, 200);
        let fast = PwcetAnalyzer::new(config)
            .analyze_with_context(&context)
            .unwrap();
        let slow = PwcetAnalyzer::new(slower)
            .analyze_with_context(&context)
            .unwrap();
        assert_eq!(context.solved_configurations(), 2);
        assert!(slow.fault_free_wcet() > fast.fault_free_wcet());
    }

    #[test]
    fn analyze_batch_matches_individual_analyses() {
        let programs = [small_loop(), streaming()];
        let analyzer = analyzer();
        let batch = analyzer.analyze_batch(&programs).unwrap();
        assert_eq!(batch.len(), 2);
        for (program, batched) in programs.iter().zip(&batch) {
            let single = analyzer.analyze(program).unwrap();
            assert_eq!(batched.name(), single.name());
            assert_eq!(batched.fault_free_wcet(), single.fault_free_wcet());
            assert_eq!(batched.fmm(), single.fmm());
            assert_eq!(batched.srb_last_column(), single.srb_last_column());
        }
    }

    #[test]
    fn analyze_batch_preserves_caller_config() {
        let config = AnalysisConfig::paper_default().with_parallelism(Parallelism::threads(3));
        let batch = PwcetAnalyzer::new(config)
            .analyze_batch(&[small_loop(), streaming()])
            .unwrap();
        for analysis in &batch {
            // The batch-internal sequential override must not leak into
            // the returned analyses.
            assert_eq!(analysis.config().parallelism, Parallelism::threads(3));
        }
    }

    #[test]
    fn compiled_analyses_report_tier_provenance() {
        let compiled = small_loop().compile(0x0040_0000).unwrap();
        let plane = Arc::new(crate::ReusePlane::in_memory());
        let planed = analyzer().with_reuse_plane(Arc::clone(&plane));
        let (first, tier) = planed.analyze_compiled(&compiled).unwrap();
        assert_eq!(tier, ReuseTier::Cold);
        let (second, tier) = planed.analyze_compiled(&compiled).unwrap();
        assert_eq!(tier, ReuseTier::Memory);
        assert_eq!(first.fmm(), second.fmm(), "tier must not change results");

        // Without a plane every analysis is (and reports) a cold build.
        let (_, tier) = analyzer().analyze_compiled(&compiled).unwrap();
        assert_eq!(tier, ReuseTier::Cold);

        // A later batch over the shared plane is answered from memory
        // for the program it already holds, bit-identically.
        let batch = planed.analyze_batch(&[small_loop(), streaming()]).unwrap();
        assert_eq!(batch[0].fmm(), first.fmm());
        assert_eq!(plane.stats().memory.hits, 2);
        assert_eq!(plane.stats().cold_builds, 2);
    }

    #[test]
    fn analyze_batch_of_empty_and_single() {
        let analyzer = analyzer();
        assert!(analyzer.analyze_batch(&[]).unwrap().is_empty());
        let single = analyzer.analyze_batch(&[small_loop()]).unwrap();
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].name(), "small_loop");
    }

    #[test]
    #[should_panic(expected = "geometry must match")]
    fn mismatched_context_geometry_panics() {
        let compiled = small_loop().compile(0x0040_0000).unwrap();
        let other_geometry = pwcet_cache::CacheGeometry::new(8, 2, 16);
        let context = AnalysisContext::build(&compiled, other_geometry).unwrap();
        let _ = analyzer().analyze_with_context(&context);
    }
}
