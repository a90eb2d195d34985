//! The structural tree engine (Heptane's timing-schema lineage).
//!
//! Evaluates a [`CostModel`] bottom-up over the structure tree emitted by
//! the code generator. The engine is an independent oracle for the IPET
//! engine: it never under-approximates it on structured programs, and with
//! uniform costs the two coincide.

use std::collections::HashMap;

use pwcet_analysis::Scope;
use pwcet_cfg::{ContextId, ExpandedCfg, LoopId};
use pwcet_progen::{CompiledProgram, StructureNode};

use crate::cost::CostModel;

/// Computes the tree-engine bound of the total cost of one program run.
///
/// Composition rules:
///
/// * straight runs add their per-execution costs;
/// * `loop(bound)` multiplies its body by `bound` and then charges the
///   `first_extra` of references whose persistence scope *is* this loop —
///   once per entry, which in tree terms is once per evaluation;
/// * `if/else` takes the maximum of the branch costs but the *sum* of
///   their pending first-extra charges (over repeated iterations both
///   sides execute, so both pay their first miss);
/// * calls inline the callee tree under the extended call-string context,
///   so costs are fully context-sensitive.
///
/// # Panics
///
/// Panics if `compiled` and `cfg` disagree (they must come from the same
/// program).
pub fn tree_bound(compiled: &CompiledProgram, cfg: &ExpandedCfg, costs: &CostModel) -> u64 {
    // (context, address) → cost.
    let mut cost_of: HashMap<(ContextId, u32), crate::cost::RefCost> = HashMap::new();
    for node in cfg.nodes() {
        for (i, &addr) in node.addrs().iter().enumerate() {
            cost_of.insert((node.context(), addr), costs.get(node.id(), i));
        }
    }
    // call string → context id.
    let context_of: HashMap<&[u32], ContextId> = cfg
        .contexts()
        .iter()
        .enumerate()
        .map(|(id, c)| (c.call_string(), id))
        .collect();
    // (context, header address) → loop id.
    let mut loop_of: HashMap<(ContextId, u32), LoopId> = HashMap::new();
    for l in cfg.loops() {
        let header = cfg.node(l.header);
        loop_of.insert((header.context(), header.addrs()[0]), l.id);
    }

    let evaluator = Evaluator {
        compiled,
        cost_of,
        context_of,
        loop_of,
    };
    let main_tree = compiled.tree("main").expect("programs have main");
    let (cycles, pending) = evaluator.eval(main_tree, &mut Vec::new());
    // Remaining charges (program scope, and defensively anything left)
    // are paid exactly once.
    cycles + pending.values().sum::<u64>()
}

struct Evaluator<'a> {
    compiled: &'a CompiledProgram,
    cost_of: HashMap<(ContextId, u32), crate::cost::RefCost>,
    context_of: HashMap<&'a [u32], ContextId>,
    loop_of: HashMap<(ContextId, u32), LoopId>,
}

impl Evaluator<'_> {
    fn context_id(&self, call_string: &[u32]) -> ContextId {
        *self
            .context_of
            .get(call_string)
            .expect("tree call string exists as an expanded context")
    }

    fn eval(&self, node: &StructureNode, call_string: &mut Vec<u32>) -> (u64, HashMap<Scope, u64>) {
        match node {
            StructureNode::Straight(addrs) => {
                let ctx = self.context_id(call_string);
                let mut cycles = 0u64;
                let mut pending: HashMap<Scope, u64> = HashMap::new();
                for &addr in addrs {
                    let cost = self.cost_of.get(&(ctx, addr)).copied().unwrap_or_default();
                    cycles += cost.per_execution;
                    if cost.first_extra > 0 {
                        let scope = cost.scope.expect("first_extra requires scope");
                        *pending.entry(scope).or_insert(0) += cost.first_extra;
                    }
                }
                (cycles, pending)
            }
            StructureNode::Seq(children) => {
                let mut cycles = 0u64;
                let mut pending: HashMap<Scope, u64> = HashMap::new();
                for child in children {
                    let (c, p) = self.eval(child, call_string);
                    cycles += c;
                    merge(&mut pending, p);
                }
                (cycles, pending)
            }
            StructureNode::Loop {
                header,
                bound,
                body,
            } => {
                let ctx = self.context_id(call_string);
                let (body_cycles, mut pending) = self.eval(body, call_string);
                let mut cycles = u64::from(*bound) * body_cycles;
                if let Some(&loop_id) = self.loop_of.get(&(ctx, *header)) {
                    if let Some(own) = pending.remove(&Scope::Loop(loop_id)) {
                        cycles += own;
                    }
                }
                (cycles, pending)
            }
            StructureNode::IfElse {
                then_branch,
                else_branch,
            } => {
                let (then_cycles, then_pending) = self.eval(then_branch, call_string);
                let (else_cycles, else_pending) = self.eval(else_branch, call_string);
                let mut pending = then_pending;
                merge(&mut pending, else_pending);
                (then_cycles.max(else_cycles), pending)
            }
            StructureNode::Call { site, callee } => {
                let ctx = self.context_id(call_string);
                let jal_cost = self.cost_of.get(&(ctx, *site)).copied().unwrap_or_default();
                let mut cycles = jal_cost.per_execution;
                let mut pending: HashMap<Scope, u64> = HashMap::new();
                if jal_cost.first_extra > 0 {
                    let scope = jal_cost.scope.expect("first_extra requires scope");
                    *pending.entry(scope).or_insert(0) += jal_cost.first_extra;
                }
                let callee_tree = self
                    .compiled
                    .tree(callee)
                    .expect("validated program: callee exists");
                call_string.push(*site);
                let (callee_cycles, callee_pending) = self.eval(callee_tree, call_string);
                call_string.pop();
                cycles += callee_cycles;
                merge(&mut pending, callee_pending);
                (cycles, pending)
            }
        }
    }
}

fn merge(into: &mut HashMap<Scope, u64>, from: HashMap<Scope, u64>) {
    for (scope, delta) in from {
        *into.entry(scope).or_insert(0) += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, RefCost};
    use crate::ilp_engine::ipet_bound;
    use pwcet_cfg::FunctionExtent;
    use pwcet_progen::{stmt, GeneratorConfig, Program, ProgramGenerator};

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
    fn unit_cost_matches_max_fetches() {
        let (compiled, cfg) = build(
            Program::new("m")
                .with_function(
                    "main",
                    stmt::seq([
                        stmt::loop_(3, stmt::if_else(stmt::compute(4), stmt::call("f"))),
                        stmt::compute(2),
                    ]),
                )
                .with_function("f", stmt::loop_(2, stmt::compute(1))),
        );
        let unit = CostModel::uniform(&cfg, 1);
        assert_eq!(tree_bound(&compiled, &cfg, &unit), compiled.max_fetches());
    }

    #[test]
    fn first_extra_scope_loop_charged_once() {
        let (compiled, cfg) =
            build(Program::new("fe").with_function("main", stmt::loop_(10, stmt::compute(2))));
        let l = &cfg.loops()[0];
        let mut costs = CostModel::zero(&cfg);
        costs.set(
            l.header,
            0,
            RefCost::with_first_extra(1, 100, Scope::Loop(l.id)),
        );
        assert_eq!(tree_bound(&compiled, &cfg, &costs), 110);
    }

    #[test]
    fn program_scope_charged_once_at_top() {
        let (compiled, cfg) =
            build(Program::new("pg").with_function("main", stmt::loop_(10, stmt::compute(2))));
        let l = &cfg.loops()[0];
        let mut costs = CostModel::zero(&cfg);
        costs.set(l.header, 0, RefCost::with_first_extra(0, 9, Scope::Program));
        assert_eq!(tree_bound(&compiled, &cfg, &costs), 9);
    }

    #[test]
    fn if_else_sums_pending_but_maxes_cycles() {
        let (compiled, cfg) = build(Program::new("ie").with_function(
            "main",
            stmt::loop_(4, stmt::if_else(stmt::compute(6), stmt::compute(2))),
        ));
        // Give a first-extra to the first ref of both branch sides with
        // the loop as scope.
        let l = &cfg.loops()[0];
        let mut costs = CostModel::uniform(&cfg, 1);
        // Find two distinct in-loop nodes besides the header: branch sides.
        let branch_nodes: Vec<_> = l
            .nodes
            .iter()
            .copied()
            .filter(|&n| n != l.header && !cfg.node(n).addrs().is_empty())
            .collect();
        assert!(branch_nodes.len() >= 2);
        for &n in branch_nodes.iter().take(2) {
            costs.set(n, 0, RefCost::with_first_extra(1, 50, Scope::Loop(l.id)));
        }
        let tree = tree_bound(&compiled, &cfg, &costs);
        let ilp = ipet_bound(&cfg, &costs).unwrap();
        // Both engines charge both 50s once (both branches run at least
        // once over 4 iterations in the worst case).
        assert!(tree >= ilp);
        assert!(tree >= 100, "tree charges both branch extras: {tree}");
    }

    #[test]
    fn engines_agree_on_unit_costs_for_random_programs() {
        let config = GeneratorConfig::default();
        for seed in 0..15 {
            let mut generator = ProgramGenerator::new(config, seed);
            let program = generator.generate(format!("rand_{seed}"));
            let (compiled, cfg) = build(program);
            let unit = CostModel::uniform(&cfg, 1);
            let tree = tree_bound(&compiled, &cfg, &unit);
            let ilp = ipet_bound(&cfg, &unit).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(
                tree, ilp,
                "seed {seed}: unit-cost engines must agree (tree={tree} ilp={ilp})"
            );
            assert_eq!(tree, compiled.max_fetches(), "seed {seed}");
        }
    }

    #[test]
    fn tree_dominates_ilp_on_random_chmc_costs() {
        use pwcet_analysis::classify;
        use pwcet_cache::{CacheGeometry, CacheTiming};
        let config = GeneratorConfig {
            helper_functions: 2,
            max_stmt_depth: 4,
            max_loop_bound: 6,
            max_compute: 30,
            max_seq_len: 3,
        };
        for seed in 0..10 {
            let mut generator = ProgramGenerator::new(config, seed);
            let program = generator.generate(format!("chmc_{seed}"));
            let (compiled, cfg) = build(program);
            let geometry = CacheGeometry::paper_default();
            let chmc = classify(&cfg, &geometry, geometry.ways());
            let costs = CostModel::from_chmc(&cfg, &chmc, &CacheTiming::paper_default());
            let tree = tree_bound(&compiled, &cfg, &costs);
            let ilp = ipet_bound(&cfg, &costs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(
                tree >= ilp,
                "seed {seed}: tree ({tree}) must dominate IPET ({ilp})"
            );
        }
    }
}
