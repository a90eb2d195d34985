//! Core-count-aware ILP warm-start and parallel-B&B gates, plus a
//! wall-clock budget for a deep call chain.
//!
//! Three claims ride on the solver, with different portability:
//!
//! * **Template warm-start speedup** (factored basis + objective-only
//!   re-solves vs. a fresh sparse model + phase 1 per job) is
//!   *algorithmic*: it shows up on any machine, so it is enforced on
//!   every runner. The floor is deliberately below the measured 6–10×
//!   so scheduler noise cannot flake the gate.
//! * **Parallel branch-and-bound speedup** needs physical cores, so —
//!   exactly like `parallel_speedup_gate.rs` — it is reported
//!   everywhere but only enforced on runners with ≥ 4 cores.
//! * **A deep call chain stays off the cubic curve**: its IPET model has
//!   thousands of rows (a 250-deep chain has 1,002), and the simplex's
//!   pivot update and basic-value recompute walk only the basis
//!   inverse's nonzeros, so the chain analyzes in about a second where
//!   sweeping the whole inverse took ~30 s. The budget is enforced on
//!   every runner: it sits ~8× above the measured time, in release and
//!   in the optimized test profile.
//!
//! `#[ignore]`d by default (wall-clock measurement); the main CI runs it
//! explicitly as the `ilp` smoke and the nightly job picks it up via
//! `--include-ignored`.

use std::num::NonZeroUsize;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use pwcet_bench::best_of_interleaved;
use pwcet_bench::ilp_workload::{hard_knapsack, solve_stage_models};
use pwcet_core::{AnalysisConfig, PwcetAnalyzer};
use pwcet_ilp::BranchAndBoundOptions;
use pwcet_ipet::ipet_bound;
use pwcet_progen::stmt::{call, compute};
use pwcet_progen::Program;

const PROGRAM: &str = "nsichneu";
/// Enforced on all runners; the measured algorithmic speedup is 6–10×.
const ENFORCED_WARM_SPEEDUP: f64 = 2.0;
/// Cores needed before the parallel-B&B half of the gate enforces.
const ENFORCE_BB_AT_CORES: usize = 4;
/// Enforced parallel-B&B floor on multi-core runners — far below ideal
/// scaling so scheduler noise cannot flake it.
const ENFORCED_BB_SPEEDUP: f64 = 1.2;
/// Functions in the gated call chain, each calling the next once.
const CHAIN_DEPTH: usize = 1_000;
/// Wall-clock budget for analyzing the chain (~1.2 s measured on a
/// 2-core box; ~32 s before the simplex skipped the inverse's zeros).
const CHAIN_BUDGET_S: f64 = 10.0;

/// The gates read wall clocks, so they take turns: the test harness would
/// otherwise run them on parallel threads, each slowing the others' timed
/// side (the call chain alone keeps both cores of a 2-core box busy).
static WALL_CLOCK: Mutex<()> = Mutex::new(());

/// This test's turn on the wall clock. A gate that failed while holding
/// the turn guarded no data, so its poisoned lock is taken over as is.
fn wall_clock_turn() -> MutexGuard<'static, ()> {
    WALL_CLOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
#[ignore = "wall-clock comparison; run by the CI ilp smoke and the nightly --include-ignored step"]
fn template_warm_start_meets_the_gate_on_all_runners() {
    let _turn = wall_clock_turn();
    let config = AnalysisConfig::paper_default();
    let (context, models) = solve_stage_models(PROGRAM, &config);

    // Untimed warm-up (lazy statics, allocator growth).
    let _ = ipet_bound(context.cfg(), &models[0]).expect("solves");

    // Single pass: the template's objective→bound memo would answer every repeated round.
    let start = Instant::now();
    let cold: Vec<u64> = models
        .iter()
        .map(|m| ipet_bound(context.cfg(), m).expect("cold solves"))
        .collect();
    let cold_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let template = context.ipet_template();
    let warm: Vec<u64> = models
        .iter()
        .map(|m| template.bound(m).expect("warm solves"))
        .collect();
    let warm_s = start.elapsed().as_secs_f64();

    assert_eq!(cold, warm, "warm bounds must be bit-identical to cold");
    let speedup = cold_s / warm_s.max(f64::EPSILON);
    println!(
        "{PROGRAM}: {} jobs, cold {cold_s:.3}s vs template-warm {warm_s:.3}s = {speedup:.2}x",
        models.len()
    );
    assert!(
        speedup >= ENFORCED_WARM_SPEEDUP,
        "the template warm-start speedup is algorithmic and must reach \
         {ENFORCED_WARM_SPEEDUP}x on any runner (measured {speedup:.2}x)"
    );
}

#[test]
#[ignore = "wall-clock comparison; run by the CI ilp smoke and the nightly --include-ignored step"]
fn parallel_bb_meets_the_gate_on_multicore_runners() {
    let _turn = wall_clock_turn();
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let model = hard_knapsack(26);
    let sequential_options = BranchAndBoundOptions {
        max_nodes: usize::MAX,
        ..Default::default()
    };
    let parallel_options = BranchAndBoundOptions {
        workers: cores,
        ..sequential_options
    };

    let sequential = model.solve_ilp_with(&sequential_options).expect("solves");
    let parallel = model.solve_ilp_with(&parallel_options).expect("solves");
    assert!(
        (sequential.objective - parallel.objective).abs() < 1e-6,
        "parallel subtree exploration must not change the optimum"
    );
    let (seq_s, par_s) = best_of_interleaved(
        5,
        || model.solve_ilp_with(&sequential_options).expect("solves"),
        || model.solve_ilp_with(&parallel_options).expect("solves"),
    );
    let speedup = seq_s / par_s.max(f64::EPSILON);
    println!("cores={cores} sequential={seq_s:.3}s parallel={par_s:.3}s speedup={speedup:.2}x");

    if cores < ENFORCE_BB_AT_CORES {
        println!(
            "report-only: {cores} core(s) < {ENFORCE_BB_AT_CORES}; the parallel-B&B gate \
             needs a multi-core runner (measured {speedup:.2}x)"
        );
        return;
    }
    assert!(
        speedup >= ENFORCED_BB_SPEEDUP,
        "with {cores} cores parallel branch and bound must reach \
         {ENFORCED_BB_SPEEDUP}x (measured {speedup:.2}x)"
    );
}

#[test]
#[ignore = "wall-clock budget; run by the CI ilp smoke and the nightly --include-ignored step"]
fn deep_call_chain_analyzes_within_its_budget() {
    let _turn = wall_clock_turn();
    let mut program = Program::new("chain").with_function("main", call("f0"));
    for i in 0..CHAIN_DEPTH {
        program = program.with_function(format!("f{i}"), call(format!("f{}", i + 1)));
    }
    let program = program.with_function(format!("f{CHAIN_DEPTH}"), compute(1));
    let analyzer = PwcetAnalyzer::new(AnalysisConfig::paper_default());

    let start = Instant::now();
    let analysis = analyzer.analyze(&program).expect("the chain analyzes");
    let elapsed_s = start.elapsed().as_secs_f64();

    println!(
        "{CHAIN_DEPTH}-deep call chain: WCET_ff {} in {elapsed_s:.2}s (budget {CHAIN_BUDGET_S}s)",
        analysis.fault_free_wcet()
    );
    assert_eq!(analysis.fault_free_wcet(), 300_111);
    assert!(
        elapsed_s <= CHAIN_BUDGET_S,
        "a {CHAIN_DEPTH}-deep call chain must analyze within {CHAIN_BUDGET_S}s \
         (measured {elapsed_s:.2}s)"
    );
}
