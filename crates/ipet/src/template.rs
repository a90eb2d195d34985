//! Reusable IPET solve state: one factored constraint matrix, many
//! objectives.
//!
//! Every `(set, fault)` delta ILP of one program — and the fault-free
//! WCET and per-set SRB ILPs — shares the same constraint matrix: flow
//! conservation, loop bounds, and the first-extra group structure are
//! properties of the CFG, not of the cost model. Only the objective
//! differs. [`IpetTemplate`] factors that shared matrix out of
//! [`ipet_bound`](crate::ipet_bound): it is built once per CFG with the
//! *union* of every first-extra group any cost model may charge (groups
//! a particular objective leaves at zero cannot change the optimum),
//! and each [`bound`](IpetTemplate::bound) call solves one
//! objective-only variant warm-started from a pooled factored basis —
//! no model rebuild, no phase 1, typically a handful of primal pivots.
//!
//! Ownership: the analysis context that builds a template owns it. A
//! narrower sibling geometry derived from that context adopts the same
//! template when it [`covers`](IpetTemplate::covers) the sibling's
//! groups, so a geometry sweep factors its matrix once. No map keeps a
//! template alive: it is dropped with the last context holding it.
//!
//! Thread behavior: `bound` is `&self` and safe to call from the
//! per-`(set, fault)` fan-out workers. Each call checks a workspace out
//! of an internal pool (falling back to a clone of the first solved
//! basis, then to a cold build), so concurrent solves never contend on
//! one basis.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use pwcet_analysis::Scope;
use pwcet_cfg::{ExpandedCfg, NodeId};
use pwcet_ilp::{BranchAndBoundOptions, IlpError, LpWorkspace, SolveStatsCell};
use pwcet_obs::Counter;
use pwcet_par::{Admission, Memo};

use crate::cost::{CostModel, RefCost};
use crate::ilp_engine::{
    build_ipet_model, group_key, integral_bound, objective_for, sort_groups, IpetModel,
};

/// A factored IPET instance answering many cost models over one CFG.
#[derive(Debug)]
pub struct IpetTemplate {
    ipet: IpetModel,
    /// The `(node, scope)` group union the template was built with, in
    /// canonical sorted order — the coverage contract of
    /// [`covers`](Self::covers).
    groups: Vec<(NodeId, Scope)>,
    /// Warm workspaces, checked out per solve.
    pool: Mutex<Vec<LpWorkspace>>,
    /// The first solved workspace, cloned when the pool runs dry so
    /// every worker starts from a factored basis.
    proto: Mutex<Option<LpWorkspace>>,
    /// Retention cap on `pool`: check-ins beyond it are dropped so the
    /// pool never outgrows the configured solve parallelism.
    pool_cap: AtomicUsize,
    /// Solved bounds keyed by a cost model's [charged
    /// entries](CostModel::charged). Identical CFG + objective determine
    /// the bound, so a repeat — common in geometry sweeps, where a
    /// sibling's `(assoc, assoc − f)` delta model coincides with an
    /// already-solved pair whenever the classifications agree on the set
    /// — is answered without touching the solver at all. Capped at
    /// [`MEMO_CAP`].
    memo: Memo<ChargedEntries, u64>,
    /// Counts the `bound` calls the memo answers; in a reuse plane, the
    /// node's `objective_hits` row, which all of its templates share.
    objective_hits: Arc<Counter>,
    /// Where every solve records its counters; in a reuse plane, the
    /// node's `ilp_*` rows.
    stats: SolveStatsCell,
}

/// The objective memo's key: a cost model's charged `(node, index,
/// cost)` entries.
type ChargedEntries = Box<[(NodeId, usize, RefCost)]>;

/// Retention cap on the objective→bound memo: one sweep solves a few
/// hundred distinct objectives, so this covers many programs per
/// template while bounding a long-lived (serve-fleet) template's memory.
const MEMO_CAP: usize = 8192;

impl IpetTemplate {
    /// Builds the shared model of `cfg` with group variables for every
    /// `(node, scope)` in `groups` — the union over every cost model
    /// this template will solve. Groups are deduplicated and put in
    /// canonical order internally. Each `bound` call the objective memo
    /// answers increments `objective_hits`; each call the solver answers
    /// records its counters into `stats`.
    pub fn new(
        cfg: &ExpandedCfg,
        groups: impl IntoIterator<Item = (NodeId, Scope)>,
        objective_hits: Arc<Counter>,
        stats: SolveStatsCell,
    ) -> Self {
        let mut groups: Vec<(NodeId, Scope)> = groups.into_iter().collect();
        sort_groups(&mut groups);
        let ipet = build_ipet_model(cfg, &groups);
        Self {
            ipet,
            groups,
            pool: Mutex::new(Vec::new()),
            proto: Mutex::new(None),
            pool_cap: AtomicUsize::new(usize::MAX),
            memo: Memo::new(MEMO_CAP, Admission::FirstSighting),
            objective_hits,
            stats,
        }
    }

    /// As [`new`](Self::new) for cost models with no first-extra
    /// charges (or callers that will only use such models), counting
    /// objective hits and solves privately.
    pub fn without_groups(cfg: &ExpandedCfg) -> Self {
        Self::new(
            cfg,
            std::iter::empty(),
            Arc::default(),
            SolveStatsCell::default(),
        )
    }

    /// The `(node, scope)` group union the template was built with, in
    /// canonical sorted order.
    pub fn groups(&self) -> &[(NodeId, Scope)] {
        &self.groups
    }

    /// Whether every group in `groups` (in any order, repeats allowed)
    /// has a variable in this template, i.e. whether this template can
    /// solve any cost model charging only those groups.
    pub fn covers(&self, groups: &[(NodeId, Scope)]) -> bool {
        groups.iter().all(|needed| {
            self.groups
                .binary_search_by_key(&group_key(needed), group_key)
                .is_ok()
        })
    }

    /// Caps the warm-workspace pool at `cap` (at least 1): check-ins
    /// beyond the cap are dropped, so the pool cannot grow one
    /// workspace per historical concurrent solve and never shrink.
    pub fn set_pool_cap(&self, cap: usize) {
        self.pool_cap.store(cap.max(1), Ordering::Relaxed);
        let mut pool = self.pool.lock().expect("template pool");
        pool.truncate(cap.max(1));
    }

    /// The number of warm workspaces currently pooled (observability;
    /// bounded by [`set_pool_cap`](Self::set_pool_cap)).
    pub fn pool_len(&self) -> usize {
        self.pool.lock().expect("template pool").len()
    }

    /// The IPET bound of `costs` — identical to
    /// [`ipet_bound`](crate::ipet_bound) on the same CFG, but
    /// warm-started from the template's factored basis.
    ///
    /// # Errors
    ///
    /// Propagates [`IlpError`] from the solver.
    ///
    /// # Panics
    ///
    /// Panics when `costs` charges a first-extra group the template was
    /// not built with (the builder must be given the union).
    pub fn bound(&self, costs: &CostModel) -> Result<u64, IlpError> {
        self.bound_with_workers(costs, 1)
    }

    /// As [`bound`](Self::bound) with `workers` parallel
    /// branch-and-bound subtree explorers (useful for the one big
    /// fault-free WCET instance; the per-`(set, fault)` fan-out is
    /// already parallel across jobs and should pass 1).
    ///
    /// # Errors
    ///
    /// Propagates [`IlpError`] from the solver.
    ///
    /// # Panics
    ///
    /// As for [`bound`](Self::bound).
    pub fn bound_with_workers(&self, costs: &CostModel, workers: usize) -> Result<u64, IlpError> {
        // An identical objective has an identical optimum: answer
        // repeats from the memo without solving (or even assembling the
        // objective). Nothing was solved, so no solver counter moves.
        let key = costs.charged();
        if let Some(bound) = self.memo.get(&key) {
            self.objective_hits.inc();
            return Ok(bound);
        }
        // An unknown first-extra group panics inside `objective_for`
        // (a wrong bound is never produced).
        let objective = objective_for(&self.ipet, costs);
        let mut ws = self.checkout();
        let bb = BranchAndBoundOptions {
            workers: workers.max(1),
            // IPET objectives are u64 costs over integer-marked
            // variables: integral at every integral point.
            integral_objective: true,
            ..Default::default()
        };
        // A failed workspace may hold inconsistent state; drop it
        // rather than filing it back into the pool.
        let (solution, stats) = self
            .ipet
            .model
            .solve_ilp_in(Some(&objective), &mut ws, &bb)?;
        self.stats.record(&stats);
        self.checkin(ws);
        Ok(self.memo.insert(key, integral_bound(&solution)))
    }

    fn checkout(&self) -> LpWorkspace {
        if let Some(ws) = self.pool.lock().expect("template pool").pop() {
            return ws;
        }
        if let Some(proto) = self.proto.lock().expect("template proto").clone() {
            return proto;
        }
        LpWorkspace::new()
    }

    fn checkin(&self, ws: LpWorkspace) {
        {
            let mut proto = self.proto.lock().expect("template proto");
            if proto.is_none() {
                *proto = Some(ws.clone());
            }
        }
        let mut pool = self.pool.lock().expect("template pool");
        if pool.len() < self.pool_cap.load(Ordering::Relaxed) {
            pool.push(ws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipet_bound;
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

    fn looped_cfg() -> ExpandedCfg {
        build(Program::new("t").with_function(
            "main",
            stmt::loop_(8, stmt::if_else(stmt::compute(5), stmt::compute(2))),
        ))
    }

    #[test]
    fn template_matches_one_shot_bounds_across_objectives() {
        let cfg = looped_cfg();
        let l = &cfg.loops()[0];
        // Union: one loop-scoped group and one program-scoped group.
        let stats = SolveStatsCell::default();
        let template = IpetTemplate::new(
            &cfg,
            [(cfg.entry(), Scope::Program), (l.header, Scope::Loop(l.id))],
            Arc::default(),
            stats.clone(),
        );
        // Coverage is order-free and exact.
        assert!(template.covers(&[(l.header, Scope::Loop(l.id)), (cfg.entry(), Scope::Program)]));
        assert!(!template.covers(&[(cfg.entry(), Scope::Loop(l.id))]));
        let mut variants = Vec::new();
        // Plain unit costs (no groups charged).
        variants.push(CostModel::uniform(&cfg, 1));
        // Heavier execution costs plus a loop-scoped surcharge.
        let mut with_loop_group = CostModel::uniform(&cfg, 3);
        with_loop_group.set(
            l.header,
            0,
            RefCost::with_first_extra(3, 40, Scope::Loop(l.id)),
        );
        variants.push(with_loop_group);
        // Program-scoped surcharge on the entry node.
        let mut with_program_group = CostModel::zero(&cfg);
        with_program_group.set(
            cfg.entry(),
            0,
            RefCost::with_first_extra(2, 7, Scope::Program),
        );
        variants.push(with_program_group);

        for (i, costs) in variants.iter().enumerate() {
            let warm = template.bound(costs).unwrap();
            let cold = ipet_bound(&cfg, costs).unwrap();
            assert_eq!(warm, cold, "variant {i}");
        }
        let stats = stats.snapshot();
        assert_eq!(stats.cold_starts, 1, "one factored basis serves all");
        assert!(stats.warm_starts >= 2, "later variants are warm");
    }

    #[test]
    fn parallel_workers_agree_with_sequential_bound() {
        let cfg = looped_cfg();
        let template = IpetTemplate::without_groups(&cfg);
        let costs = CostModel::uniform(&cfg, 2);
        let sequential = template.bound_with_workers(&costs, 1).unwrap();
        let parallel = template.bound_with_workers(&costs, 4).unwrap();
        assert_eq!(sequential, parallel);
    }

    #[test]
    #[should_panic(expected = "absent from the IPET model")]
    fn unknown_group_is_rejected_loudly() {
        let cfg = looped_cfg();
        let template = IpetTemplate::without_groups(&cfg);
        let l = &cfg.loops()[0];
        let mut costs = CostModel::zero(&cfg);
        costs.set(
            l.header,
            0,
            RefCost::with_first_extra(0, 5, Scope::Loop(l.id)),
        );
        let _ = template.bound(&costs);
    }

    #[test]
    fn objective_memo_stays_at_its_cap_and_keeps_admitting() {
        let cfg = looped_cfg();
        let template = IpetTemplate::without_groups(&cfg);
        let sweep = 1..=MEMO_CAP as u64 + 8;
        for cost in sweep.clone().chain(sweep) {
            template.bound(&CostModel::uniform(&cfg, cost)).unwrap();
            assert!(template.memo.stats().len <= MEMO_CAP);
        }
        let hits = template.objective_hits.get();
        for cost in (0..3).flat_map(|_| 100_000..100_004) {
            let costs = CostModel::uniform(&cfg, cost);
            let cold = ipet_bound(&cfg, &costs).unwrap();
            assert_eq!(template.bound(&costs).unwrap(), cold);
        }
        assert_eq!(template.objective_hits.get() - hits, 8, "stored, then hit");
    }

    #[test]
    fn pool_cap_bounds_checkins() {
        let cfg = looped_cfg();
        let template = IpetTemplate::without_groups(&cfg);
        template.set_pool_cap(1);
        let costs = CostModel::uniform(&cfg, 1);
        for _ in 0..4 {
            template.bound(&costs).unwrap();
        }
        // Cap 1: at most one pooled workspace survives all check-ins.
        assert!(template.pool_len() <= 1);
    }

    #[test]
    fn template_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IpetTemplate>();
    }
}
