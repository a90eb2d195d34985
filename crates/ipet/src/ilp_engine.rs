//! The IPET engine: worst-case path analysis as an integer linear program.

use std::collections::HashMap;

use pwcet_analysis::Scope;
use pwcet_cfg::{ExpandedCfg, NodeId};
use pwcet_ilp::{BranchAndBoundOptions, ConstraintOp, IlpError, Model, Solution, VarId};

use crate::cost::CostModel;

/// The structural IPET model of one CFG: variables and constraints
/// without an objective. Shared by the one-shot [`ipet_bound`] and the
/// reusable [`IpetTemplate`](crate::IpetTemplate), so the two always
/// agree on the constraint matrix.
#[derive(Debug)]
pub(crate) struct IpetModel {
    pub(crate) model: Model,
    /// One variable per node, indexed by node id.
    pub(crate) node_vars: Vec<VarId>,
    /// One variable per first-extra `(node, scope)` group, sorted.
    pub(crate) group_vars: Vec<((NodeId, Scope), VarId)>,
}

/// Builds the structural model: flow conservation, loop bounds, and one
/// bounded group variable per `(node, scope)` in `groups` (sorted and
/// deduplicated by the caller via [`sort_groups`]). Every variable is an
/// integral execution count.
pub(crate) fn build_ipet_model(cfg: &ExpandedCfg, groups: &[(NodeId, Scope)]) -> IpetModel {
    let mut model = Model::new();

    // Node variables (objective coefficients are set per cost model).
    let node_vars: Vec<VarId> = cfg
        .nodes()
        .iter()
        .map(|n| {
            let var = model.add_var(format!("x_n{}", n.id()), 0.0);
            model.mark_integer(var);
            var
        })
        .collect();

    // Edge variables.
    let edges = cfg.edges();
    let mut edge_vars: HashMap<(NodeId, NodeId), VarId> = HashMap::new();
    for &(u, v) in &edges {
        let var = model.add_var(format!("x_e{u}_{v}"), 0.0);
        model.mark_integer(var);
        edge_vars.insert((u, v), var);
    }

    // Flow conservation. The entry node receives one unit of virtual
    // inflow; the exit node emits one unit of virtual outflow.
    for node in cfg.nodes() {
        let id = node.id();
        let mut inflow: Vec<(VarId, f64)> = cfg.preds()[id]
            .iter()
            .map(|&p| (edge_vars[&(p, id)], 1.0))
            .collect();
        inflow.push((node_vars[id], -1.0));
        let virtual_in = if id == cfg.entry() { -1.0 } else { 0.0 };
        model.add_constraint(inflow, ConstraintOp::Eq, virtual_in);

        let mut outflow: Vec<(VarId, f64)> = cfg.succs()[id]
            .iter()
            .map(|&s| (edge_vars[&(id, s)], 1.0))
            .collect();
        outflow.push((node_vars[id], -1.0));
        let virtual_out = if id == cfg.exit() { -1.0 } else { 0.0 };
        model.add_constraint(outflow, ConstraintOp::Eq, virtual_out);
    }

    // Loop bounds: back edges ≤ (bound − 1) × entry edges.
    for l in cfg.loops() {
        let mut coeffs: Vec<(VarId, f64)> = l
            .back_edges
            .iter()
            .map(|&(u, v)| (edge_vars[&(u, v)], 1.0))
            .collect();
        for &(u, v) in &l.entry_edges {
            coeffs.push((edge_vars[&(u, v)], -(f64::from(l.bound) - 1.0)));
        }
        model.add_constraint(coeffs, ConstraintOp::Le, 0.0);
    }

    // First-extra groups: one y per (node, scope), `y ≤ x_node` and
    // `y ≤ entries(scope)`.
    let mut group_vars = Vec::with_capacity(groups.len());
    for &(node, scope) in groups {
        let y = model.add_var(format!("y_n{node}"), 0.0);
        model.mark_integer(y);
        model.add_constraint([(y, 1.0), (node_vars[node], -1.0)], ConstraintOp::Le, 0.0);
        match scope {
            Scope::Program => {
                model.set_upper(y, 1.0);
            }
            Scope::Loop(l) => {
                let mut coeffs = vec![(y, 1.0)];
                for &(u, v) in &cfg.loops()[l].entry_edges {
                    coeffs.push((edge_vars[&(u, v)], -1.0));
                }
                model.add_constraint(coeffs, ConstraintOp::Le, 0.0);
            }
        }
        group_vars.push(((node, scope), y));
    }

    IpetModel {
        model,
        node_vars,
        group_vars,
    }
}

/// Canonical group order: by node, then by scope (loops before the
/// program scope) — the order the model builder materializes variables
/// in, kept deterministic so repeated builds are identical.
pub(crate) fn sort_groups(groups: &mut Vec<(NodeId, Scope)>) {
    groups.sort_by_key(group_key);
    groups.dedup();
}

/// The key of a group's place in canonical order.
pub(crate) fn group_key(&(node, scope): &(NodeId, Scope)) -> (NodeId, usize) {
    (node, scope_key(scope))
}

/// The first-extra groups a cost model charges, in canonical order.
pub(crate) fn groups_of(costs: &CostModel) -> Vec<(NodeId, Scope)> {
    let mut groups: Vec<(NodeId, Scope)> = costs
        .first_extra_refs()
        .map(|(node, _, cost)| {
            let scope = cost
                .scope
                .expect("first_extra > 0 requires a scope by construction");
            (node, scope)
        })
        .collect();
    sort_groups(&mut groups);
    groups
}

/// The objective vector of `costs` over a structural model:
/// per-execution totals on node variables, summed first-extra deltas on
/// group variables.
///
/// # Panics
///
/// Panics when `costs` charges a first-extra group the model has no
/// variable for — the template builder must be given a superset of
/// every cost model it will solve.
pub(crate) fn objective_for(ipet: &IpetModel, costs: &CostModel) -> Vec<f64> {
    let mut objective = vec![0.0; ipet.model.num_vars()];
    for (node, var) in ipet.node_vars.iter().enumerate() {
        objective[var.index()] = costs.node_per_execution_total(node) as f64;
    }
    let mut totals: HashMap<(NodeId, Scope), u64> = HashMap::new();
    for (node, _, cost) in costs.first_extra_refs() {
        let scope = cost
            .scope
            .expect("first_extra > 0 requires a scope by construction");
        *totals.entry((node, scope)).or_insert(0) += cost.first_extra;
    }
    // Indexed lookup: this runs once per solve of the hot fan-out, so
    // a per-group linear scan over group_vars would be quadratic.
    let group_index: HashMap<(NodeId, Scope), VarId> = ipet.group_vars.iter().copied().collect();
    for (key, delta) in totals {
        let var = group_index.get(&key).copied().unwrap_or_else(|| {
            panic!(
                "cost model charges first-extra group (node {}, {:?}) \
                 absent from the IPET model — template builders must be \
                 given the union of every group their cost models charge",
                key.0, key.1
            )
        });
        objective[var.index()] = delta as f64;
    }
    objective
}

/// Computes the maximum total cost over all structurally feasible paths —
/// the IPET bound of §II-B2.
///
/// The ILP has one variable per node and per edge (execution counts), plus
/// one variable per `(node, scope)` group of first-extra references.
/// Constraints:
///
/// * flow conservation per node, with the entry/exit node executing once;
/// * per loop: `Σ back-edge counts ≤ (bound − 1) · Σ entry-edge counts`;
/// * per first-extra group `g` in node `n` with scope `s`:
///   `y_g ≤ x_n` and `y_g ≤ entries(s)`.
///
/// The objective maximizes
/// `Σ_n per_execution(n)·x_n + Σ_g first_extra(g)·y_g`.
///
/// Every call builds and cold-solves one model; sweeping many cost
/// models over one CFG is what [`IpetTemplate`](crate::IpetTemplate)
/// warm-starts.
///
/// # Errors
///
/// Propagates [`IlpError`] from the solver. Structurally valid graphs with
/// finite loop bounds are always feasible and bounded.
pub fn ipet_bound(cfg: &ExpandedCfg, costs: &CostModel) -> Result<u64, IlpError> {
    // Costs are u64 and every variable is integer-marked, so the
    // objective is integral at integral points — branch and bound may
    // prune against floored relaxations.
    let solution = one_shot_model(cfg, costs).solve_ilp_with(&BranchAndBoundOptions {
        integral_objective: true,
        ..Default::default()
    })?;
    Ok(integral_bound(&solution))
}

/// [`ipet_bound`] on the frozen dense tableau and clone-per-node branch
/// and bound ([`Model::solve_ilp_reference`]) — the oracle the
/// equivalence suites compare the production solver against, over the
/// identical model.
///
/// # Errors
///
/// As for [`ipet_bound`].
pub fn ipet_bound_reference(cfg: &ExpandedCfg, costs: &CostModel) -> Result<u64, IlpError> {
    Ok(integral_bound(
        &one_shot_model(cfg, costs).solve_ilp_reference()?,
    ))
}

/// The structural model of `cfg` with exactly the groups `costs`
/// charges, its objective set to `costs`.
fn one_shot_model(cfg: &ExpandedCfg, costs: &CostModel) -> Model {
    let groups = groups_of(costs);
    let mut ipet = build_ipet_model(cfg, &groups);
    let objective = objective_for(&ipet, costs);
    ipet.model.set_objective_vector(&objective);
    ipet.model
}

/// Costs are integral, so the optimum is integral up to float noise.
pub(crate) fn integral_bound(solution: &Solution) -> u64 {
    solution.objective.round().max(0.0) as u64
}

fn scope_key(scope: Scope) -> usize {
    match scope {
        Scope::Program => usize::MAX,
        Scope::Loop(l) => l,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, RefCost};
    use pwcet_cfg::FunctionExtent;
    use pwcet_progen::{stmt, CompiledProgram, Program};

    fn build(program: Program) -> (CompiledProgram, ExpandedCfg) {
        let compiled = program.compile(0x0040_0000).expect("compiles");
        let extents: Vec<FunctionExtent> = compiled
            .functions()
            .iter()
            .map(|f| FunctionExtent::new(f.name(), f.entry(), f.end()))
            .collect();
        let bounds: Vec<(u32, u32)> = compiled
            .loop_bounds()
            .iter()
            .map(|lb| (lb.header, lb.bound))
            .collect();
        let cfg = ExpandedCfg::build(compiled.image(), &extents, &bounds).expect("expands");
        (compiled, cfg)
    }

    #[test]
    fn straight_line_counts_every_fetch() {
        let (compiled, cfg) = build(Program::new("s").with_function("main", stmt::compute(7)));
        let unit = CostModel::uniform(&cfg, 1);
        let bound = ipet_bound(&cfg, &unit).unwrap();
        assert_eq!(bound, compiled.max_fetches());
        assert_eq!(bound, 11); // 3 prologue + 7 compute + 1 break
    }

    #[test]
    fn loop_multiplies_body() {
        let (compiled, cfg) =
            build(Program::new("l").with_function("main", stmt::loop_(10, stmt::compute(2))));
        let unit = CostModel::uniform(&cfg, 1);
        let bound = ipet_bound(&cfg, &unit).unwrap();
        assert_eq!(bound, compiled.max_fetches());
    }

    #[test]
    fn if_else_takes_heavier_branch() {
        let (_, cfg) = build(
            Program::new("b")
                .with_function("main", stmt::if_else(stmt::compute(2), stmt::compute(10))),
        );
        let unit = CostModel::uniform(&cfg, 1);
        let bound = ipet_bound(&cfg, &unit).unwrap();
        // prologue 3 + xori + beq + else(10) + break = 16: else branch
        // (10 + 0) beats then (2 + 1 jump).
        assert_eq!(bound, 16);
    }

    #[test]
    fn nested_loops_multiply() {
        let (compiled, cfg) = build(
            Program::new("n")
                .with_function("main", stmt::loop_(4, stmt::loop_(6, stmt::compute(1)))),
        );
        let unit = CostModel::uniform(&cfg, 1);
        let bound = ipet_bound(&cfg, &unit).unwrap();
        assert_eq!(bound, compiled.max_fetches());
    }

    #[test]
    fn calls_are_counted_per_context() {
        let (compiled, cfg) = build(
            Program::new("c")
                .with_function(
                    "main",
                    stmt::seq([stmt::call("f"), stmt::loop_(5, stmt::call("f"))]),
                )
                .with_function("f", stmt::compute(3)),
        );
        let unit = CostModel::uniform(&cfg, 1);
        let bound = ipet_bound(&cfg, &unit).unwrap();
        assert_eq!(bound, compiled.max_fetches());
    }

    #[test]
    fn first_extra_charged_once_per_loop_entry() {
        // Loop of 10 iterations; one body reference has first_extra 100
        // with the loop as scope: contributes 100, not 1000.
        let (_, cfg) =
            build(Program::new("fm").with_function("main", stmt::loop_(10, stmt::compute(2))));
        let l = &cfg.loops()[0];
        let mut costs = CostModel::zero(&cfg);
        costs.set(
            l.header,
            0,
            RefCost::with_first_extra(1, 100, Scope::Loop(l.id)),
        );
        let bound = ipet_bound(&cfg, &costs).unwrap();
        // 10 executions × 1 + 100 once.
        assert_eq!(bound, 110);
    }

    #[test]
    fn first_extra_with_program_scope_charged_once() {
        let (_, cfg) =
            build(Program::new("fp").with_function("main", stmt::loop_(10, stmt::compute(2))));
        let l = &cfg.loops()[0];
        let mut costs = CostModel::zero(&cfg);
        costs.set(l.header, 0, RefCost::with_first_extra(0, 7, Scope::Program));
        let bound = ipet_bound(&cfg, &costs).unwrap();
        assert_eq!(bound, 7);
    }

    #[test]
    fn first_extra_in_nested_loop_charged_per_outer_entry() {
        // Outer 3×, inner 4×: a ref persistent in the *inner* loop is
        // charged once per inner-loop entry = 3 times.
        let (_, cfg) = build(
            Program::new("nest")
                .with_function("main", stmt::loop_(3, stmt::loop_(4, stmt::compute(2)))),
        );
        let inner = cfg.loops().iter().find(|l| l.bound == 4).unwrap();
        let mut costs = CostModel::zero(&cfg);
        costs.set(
            inner.header,
            0,
            RefCost::with_first_extra(0, 10, Scope::Loop(inner.id)),
        );
        let bound = ipet_bound(&cfg, &costs).unwrap();
        assert_eq!(bound, 30);
    }

    #[test]
    fn dense_reference_matches_ipet_bound() {
        let (_, cfg) = build(Program::new("eq").with_function(
            "main",
            stmt::loop_(9, stmt::if_else(stmt::compute(6), stmt::compute(3))),
        ));
        let l = &cfg.loops()[0];
        let mut costs = CostModel::uniform(&cfg, 1);
        costs.set(
            l.header,
            0,
            RefCost::with_first_extra(1, 50, Scope::Loop(l.id)),
        );
        assert_eq!(
            ipet_bound(&cfg, &costs).unwrap(),
            ipet_bound_reference(&cfg, &costs).unwrap()
        );
    }
}
