//! Solver benchmark: cold vs. template-warm per-`(set, fault)` fan-out,
//! plus the parallel branch-and-bound probe.
//!
//! Reproduces the exact ILP workload of the solve stage on an
//! `nsichneu`-class instance and times three ways of solving it:
//!
//! * **dense** — the frozen reference: a fresh dense tableau per job
//!   (what the pipeline did before the sparse solver);
//! * **cold** — a fresh sparse model + phase 1 per job (the sparse
//!   solver without reuse);
//! * **warm** — the `IpetTemplate` path the pipeline uses: one factored
//!   constraint matrix, every job an objective-only re-solve.
//!
//! A second probe times a branching-heavy synthetic ILP with 1 worker
//! vs. all cores (the parallel subtree exploration of the ROADMAP's
//! ILP-sharding item); its speedup tracks core count and is ~1 on a
//! single-core container.
//!
//! Results are upserted as `ilp_*` rows of `BENCH_pipeline.json`.
//!
//! ```text
//! cargo run --release -p pwcet-bench --bin ilp_bench
//! ```

use std::num::NonZeroUsize;
use std::time::Instant;

use pwcet_bench::bench_json::{json_str, upsert};
use pwcet_bench::ilp_workload::{hard_knapsack, solve_stage_models};
use pwcet_core::AnalysisConfig;
use pwcet_ilp::BranchAndBoundOptions;
use pwcet_ipet::{ipet_bound, ipet_bound_reference};

const PROGRAM: &str = "nsichneu";

fn main() {
    let config = AnalysisConfig::paper_default();
    let (context, models) = solve_stage_models(PROGRAM, &config);
    let jobs = models.len();
    eprintln!("{PROGRAM}: {jobs} solve-stage ILPs");

    // Dense reference: fresh tableau per job.
    let start = Instant::now();
    let dense_bounds: Vec<u64> = models
        .iter()
        .map(|m| ipet_bound_reference(context.cfg(), m).expect("dense solves"))
        .collect();
    let dense_ns = start.elapsed().as_nanos() as u64;

    // Sparse cold: fresh sparse model + phase 1 per job.
    let start = Instant::now();
    let cold_bounds: Vec<u64> = models
        .iter()
        .map(|m| ipet_bound(context.cfg(), m).expect("cold solves"))
        .collect();
    let cold_ns = start.elapsed().as_nanos() as u64;

    // Template warm: one factored matrix, objective-only re-solves
    // (template construction included — it is part of the warm path).
    let start = Instant::now();
    let template = context.ipet_template();
    let warm_bounds: Vec<u64> = models
        .iter()
        .map(|m| template.bound(m).expect("warm solves"))
        .collect();
    let warm_ns = start.elapsed().as_nanos() as u64;

    assert_eq!(dense_bounds, cold_bounds, "bounds must be solver-invariant");
    assert_eq!(dense_bounds, warm_bounds, "bounds must be solver-invariant");
    let stats = template.stats();

    let per_job = |total: u64| total / jobs.max(1) as u64;
    let speedup = |slow: u64, fast: u64| slow as f64 / fast.max(1) as f64;
    eprintln!(
        "dense {} µs/job, cold {} µs/job, warm {} µs/job \
         (warm speedup {:.2}x vs cold, {:.2}x vs dense)",
        per_job(dense_ns) / 1_000,
        per_job(cold_ns) / 1_000,
        per_job(warm_ns) / 1_000,
        speedup(cold_ns, warm_ns),
        speedup(dense_ns, warm_ns),
    );

    // Parallel branch-and-bound probe: a correlated 0/1 knapsack whose
    // tree is deep enough to keep several workers busy.
    let model = hard_knapsack(26);
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let sequential = BranchAndBoundOptions {
        max_nodes: usize::MAX,
        ..Default::default()
    };
    let parallel = BranchAndBoundOptions {
        workers: cores,
        ..sequential
    };
    let start = Instant::now();
    let seq_solution = model.solve_ilp_with(&sequential).expect("solves");
    let bb_seq_ns = start.elapsed().as_nanos() as u64;
    let start = Instant::now();
    let par_solution = model.solve_ilp_with(&parallel).expect("solves");
    let bb_par_ns = start.elapsed().as_nanos() as u64;
    assert!(
        (seq_solution.objective - par_solution.objective).abs() < 1e-6,
        "parallel subtree exploration must not change the optimum"
    );
    eprintln!(
        "parallel B&B ({cores} cores): sequential {} ms, parallel {} ms ({:.2}x)",
        bb_seq_ns / 1_000_000,
        bb_par_ns / 1_000_000,
        speedup(bb_seq_ns, bb_par_ns),
    );

    upsert(
        "BENCH_pipeline.json",
        &[
            ("ilp_program", json_str(PROGRAM)),
            ("ilp_jobs", jobs.to_string()),
            ("ilp_dense_fanout_ns", dense_ns.to_string()),
            ("ilp_cold_fanout_ns", cold_ns.to_string()),
            ("ilp_warm_fanout_ns", warm_ns.to_string()),
            (
                "ilp_warm_speedup",
                format!("{:.3}", speedup(cold_ns, warm_ns)),
            ),
            (
                "ilp_warm_speedup_vs_dense",
                format!("{:.3}", speedup(dense_ns, warm_ns)),
            ),
            ("ilp_warm_pivots", stats.pivots.to_string()),
            ("ilp_warm_dual_pivots", stats.dual_pivots.to_string()),
            ("ilp_warm_bb_nodes", stats.bb_nodes.to_string()),
            ("ilp_warm_starts", stats.warm_starts.to_string()),
            ("ilp_bb_cores", cores.to_string()),
            ("ilp_bb_seq_ns", bb_seq_ns.to_string()),
            ("ilp_bb_par_ns", bb_par_ns.to_string()),
            (
                "ilp_bb_par_speedup",
                format!("{:.3}", speedup(bb_seq_ns, bb_par_ns)),
            ),
            (
                "ilp_note",
                json_str(
                    "warm = IpetTemplate objective-only re-solves off one factored basis \
                     (algorithmic; shows up on any machine); dense = pre-sparse reference \
                     tableau; the parallel-B&B row tracks core count (~1 on a single-core \
                     runner)",
                ),
            ),
            (
                "ilp_command",
                json_str("cargo run --release -p pwcet-bench --bin ilp_bench"),
            ),
        ],
    )
    .expect("BENCH_pipeline.json is writable");
    eprintln!("upserted ilp_* rows into BENCH_pipeline.json");
}
