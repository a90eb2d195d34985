//! Per-reference cost assignments.

use pwcet_analysis::{Chmc, ChmcMap, Scope};
use pwcet_cache::CacheTiming;
use pwcet_cfg::{ExpandedCfg, NodeId};

/// The cost of one instruction fetch reference.
///
/// `per_execution` is charged on every execution; `first_extra` is charged
/// at most once per entry of `scope` (the first-miss budget of §II-B1).
/// The unit is caller-defined: cycles for WCET objectives, extra misses for
/// fault-miss-map objectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RefCost {
    /// Cost charged on every execution of the reference.
    pub per_execution: u64,
    /// Extra cost charged once per entry of `scope`.
    pub first_extra: u64,
    /// The scope bounding `first_extra` (required when `first_extra > 0`).
    pub scope: Option<Scope>,
}

impl RefCost {
    /// A cost charged identically on every execution.
    pub fn per_execution(cost: u64) -> Self {
        Self {
            per_execution: cost,
            first_extra: 0,
            scope: None,
        }
    }

    /// A cost with a once-per-scope-entry surcharge.
    pub fn with_first_extra(per_execution: u64, first_extra: u64, scope: Scope) -> Self {
        Self {
            per_execution,
            first_extra,
            scope: Some(scope),
        }
    }
}

/// A cost for every reference of an expanded graph.
///
/// Indexed like the graph: `(node, reference index)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    per_node: Vec<Vec<RefCost>>,
}

impl CostModel {
    /// All-zero costs, shaped after `cfg`.
    pub fn zero(cfg: &ExpandedCfg) -> Self {
        Self {
            per_node: cfg
                .nodes()
                .iter()
                .map(|n| vec![RefCost::default(); n.addrs().len()])
                .collect(),
        }
    }

    /// Uniform cost per fetch (unit costs give pure fetch counting).
    pub fn uniform(cfg: &ExpandedCfg, cost: u64) -> Self {
        Self {
            per_node: cfg
                .nodes()
                .iter()
                .map(|n| vec![RefCost::per_execution(cost); n.addrs().len()])
                .collect(),
        }
    }

    /// The WCET cost model of §II-B: always-hit fetches cost the cache
    /// latency, always-miss (and not-classified, per §IV-A) fetches add
    /// the memory penalty every time, first-miss fetches add it once per
    /// scope entry.
    pub fn from_chmc(cfg: &ExpandedCfg, chmc: &ChmcMap, timing: &CacheTiming) -> Self {
        let hit = timing.hit_cycles();
        let penalty = timing.miss_penalty_cycles();
        Self {
            per_node: cfg
                .nodes()
                .iter()
                .map(|n| {
                    (0..n.addrs().len())
                        .map(|i| match chmc.get(n.id(), i) {
                            Chmc::AlwaysHit => RefCost::per_execution(hit),
                            Chmc::AlwaysMiss | Chmc::NotClassified => {
                                RefCost::per_execution(hit + penalty)
                            }
                            Chmc::FirstMiss(scope) => {
                                RefCost::with_first_extra(hit, penalty, scope)
                            }
                        })
                        .collect()
                })
                .collect(),
        }
    }

    /// The cost of reference `index` of `node`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, node: NodeId, index: usize) -> RefCost {
        self.per_node[node][index]
    }

    /// Overwrites the cost of one reference.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, node: NodeId, index: usize, cost: RefCost) {
        self.per_node[node][index] = cost;
    }

    /// All costs of one node in fetch order.
    pub fn node(&self, node: NodeId) -> &[RefCost] {
        &self.per_node[node]
    }

    /// Sum of `per_execution` over a node's references (the node's IPET
    /// objective coefficient).
    pub fn node_per_execution_total(&self, node: NodeId) -> u64 {
        self.per_node[node].iter().map(|c| c.per_execution).sum()
    }

    /// The charged references as `(node, index, cost)`, in graph order:
    /// every reference with a nonzero `per_execution` or `first_extra`.
    /// Uncharged references add nothing to an IPET objective, so over one
    /// graph these entries determine the bound. Delta cost models charge
    /// a handful of references out of hundreds, which makes this the
    /// compact key of a memoized bound.
    pub fn charged(&self) -> Box<[(NodeId, usize, RefCost)]> {
        self.refs()
            .filter(|(_, _, c)| c.per_execution != 0 || c.first_extra != 0)
            .collect()
    }

    /// Iterates `(node, index, cost)` over references with a positive
    /// `first_extra`.
    pub fn first_extra_refs(&self) -> impl Iterator<Item = (NodeId, usize, RefCost)> + '_ {
        self.refs().filter(|(_, _, c)| c.first_extra > 0)
    }

    /// Every `(node, index, cost)` in graph order.
    fn refs(&self) -> impl Iterator<Item = (NodeId, usize, RefCost)> + '_ {
        self.per_node
            .iter()
            .enumerate()
            .flat_map(|(n, costs)| costs.iter().enumerate().map(move |(i, &c)| (n, i, c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwcet_cfg::FunctionExtent;
    use pwcet_progen::{stmt, Program};

    fn build(program: Program) -> ExpandedCfg {
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
        ExpandedCfg::build(compiled.image(), &extents, &bounds).expect("expands")
    }

    #[test]
    fn uniform_and_zero_shapes() {
        let cfg = build(Program::new("u").with_function("main", stmt::compute(5)));
        let zero = CostModel::zero(&cfg);
        let unit = CostModel::uniform(&cfg, 1);
        assert_eq!(zero.node(cfg.entry()).len(), 9);
        assert_eq!(zero.node_per_execution_total(cfg.entry()), 0);
        assert_eq!(unit.node_per_execution_total(cfg.entry()), 9);
    }

    #[test]
    fn from_chmc_charges_penalties() {
        use pwcet_analysis::classify;
        use pwcet_cache::CacheGeometry;
        let cfg = build(Program::new("c").with_function("main", stmt::compute(5)));
        let g = CacheGeometry::paper_default();
        let chmc = classify(&cfg, &g, 4);
        let costs = CostModel::from_chmc(&cfg, &chmc, &CacheTiming::paper_default());
        // 9 instructions in 3 blocks: 3 block-leader fetches are first-miss
        // (program persistent), 6 always hit.
        let total = costs.node_per_execution_total(cfg.entry());
        assert_eq!(total, 9); // per-execution part is all hits
        let extras: Vec<_> = costs.first_extra_refs().collect();
        assert_eq!(extras.len(), 3);
        assert!(extras.iter().all(|&(_, _, c)| c.first_extra == 100));
    }

    #[test]
    fn set_and_get_round_trip() {
        let cfg = build(Program::new("s").with_function("main", stmt::compute(1)));
        let mut costs = CostModel::zero(&cfg);
        let cost = RefCost::with_first_extra(2, 7, Scope::Program);
        costs.set(cfg.entry(), 1, cost);
        assert_eq!(costs.get(cfg.entry(), 1), cost);
        assert_eq!(costs.first_extra_refs().count(), 1);
    }

    /// The parallel fault-miss-map fan-out shares cost models across
    /// worker threads; keep them `Send + Sync` by construction.
    #[test]
    fn cost_model_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CostModel>();
        assert_send_sync::<RefCost>();
    }
}
