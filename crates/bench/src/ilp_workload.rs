//! The exact ILP workload of one benchmark's solve stage, reproduced
//! for the solver gates.
//!
//! The pipeline's stage 3 solves one fault-free WCET instance plus one
//! delta instance per `(set, fault)` pair and per SRB set — all
//! objective-only variants of one constraint matrix. This module
//! rebuilds that exact list of cost models so the `ilp_speedup_gate`
//! measures the real workload, not a synthetic proxy.

use std::sync::Arc;

use pwcet_core::{delta_cost_model, AnalysisConfig, AnalysisContext, ReusePlane};
use pwcet_ilp::{ConstraintOp, Model};
use pwcet_ipet::CostModel;
use pwcet_par::Parallelism;

/// The solve-stage cost models of `name` under `config`: the WCET model
/// first, then every `(set, fault)` delta model with a positive delta
/// (fault counts ascending, sets ascending), then every charged SRB
/// column model. The returned context, built cold by a fresh in-memory
/// plane, is prewarmed (all classification levels and the SRB map are
/// materialized).
///
/// # Panics
///
/// Panics when `name` is not in the benchmark suite or compilation
/// fails.
pub fn solve_stage_models(
    name: &str,
    config: &AnalysisConfig,
) -> (Arc<AnalysisContext>, Vec<CostModel>) {
    let bench = pwcet_benchsuite::by_name(name).expect("benchmark exists");
    let compiled = bench.program.compile(config.code_base).expect("compiles");
    let (context, _) = ReusePlane::in_memory()
        .get_or_build_traced(&compiled, config.geometry, config.classification)
        .expect("context builds");
    context.prewarm(Parallelism::Sequential);

    let geometry = config.geometry;
    let ways = geometry.ways();
    let mut models = Vec::new();
    {
        let chmc_full = context.chmc(ways);
        models.push(CostModel::from_chmc(
            context.cfg(),
            chmc_full,
            &config.timing,
        ));
        for f in 1..=ways {
            let chmc_low = context.chmc(ways - f);
            for s in 0..geometry.sets() {
                let (model, has_delta) =
                    delta_cost_model(context.cfg(), &geometry, s, chmc_full, chmc_low, None);
                if has_delta {
                    models.push(model);
                }
            }
        }
        let srb = context.srb();
        let chmc_zero = context.chmc(0);
        for s in 0..geometry.sets() {
            let (model, has_delta) =
                delta_cost_model(context.cfg(), &geometry, s, chmc_full, chmc_zero, Some(srb));
            if has_delta {
                models.push(model);
            }
        }
    }
    (context, models)
}

/// A 0/1 knapsack with correlated weights and values — fractional at
/// almost every node, so branch and bound genuinely explores a tree.
/// The instance family of the `ilp_speedup_gate` parallel-B&B half.
pub fn hard_knapsack(items: usize) -> Model {
    let mut model = Model::new();
    let mut capacity = 0.0;
    let vars: Vec<_> = (0..items)
        .map(|i| {
            // Deterministic pseudo-random weights, strongly correlated
            // with values (the classically hard configuration).
            let weight = (17 + (i * 7919 + 13) % 23) as f64;
            let value = weight + 2.0 + ((i * 104_729) % 5) as f64;
            capacity += weight;
            let var = model.add_var(format!("x{i}"), value);
            model.set_upper(var, 1.0);
            model.mark_integer(var);
            (var, weight)
        })
        .collect();
    model.add_constraint(
        vars.iter().map(|&(v, w)| (v, w)),
        ConstraintOp::Le,
        (capacity / 2.0).floor() + 0.5,
    );
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwcet_ipet::ipet_bound;

    #[test]
    fn workload_matches_the_template_path() {
        let config = AnalysisConfig::paper_default();
        let (context, models) = solve_stage_models("fibcall", &config);
        assert!(models.len() > 1, "WCET model plus at least one delta");
        let template = context.ipet_template();
        for (i, model) in models.iter().enumerate() {
            assert_eq!(
                template.bound(model).expect("warm solve"),
                ipet_bound(context.cfg(), model).expect("cold solve"),
                "model {i}"
            );
        }
    }
}
