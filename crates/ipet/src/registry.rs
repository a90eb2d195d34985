//! Cross-geometry template registry: one factored IPET basis pool per
//! CFG, shared by every cache geometry that analyzes it.
//!
//! The IPET constraint matrix — flow conservation, loop bounds, and the
//! first-extra group structure — depends only on the CFG, never on the
//! cache geometry or the cost model. Keying templates per analysis
//! context therefore rebuilds and refactors the *same* matrix once per
//! way count in a geometry sweep. A [`TemplateRegistry`] instead keys by
//! CFG fingerprint and hands every sibling geometry the same
//! [`IpetTemplate`], so each sweep point re-solves objectives against an
//! already-factored basis.
//!
//! The group dimension is handled by *coverage*, not equality: a lookup
//! whose groups are a subset of the registered template's union is a hit
//! (group variables an objective leaves at zero cannot change the
//! optimum — the first-extra deltas are nonnegative and `y` is
//! maximized, so an uncharged `y` contributes exactly zero). A lookup
//! needing groups the template lacks triggers a counted rebuild with the
//! merged union — asserted by construction, never assumed — replacing
//! the registered template so both old and new cost models stay covered.
//!
//! The registry shares templates; it does not keep them alive. Each
//! [`obtain`](TemplateRegistry::obtain) first drops every template that
//! nothing outside the registry holds any more (every context that
//! memoized it is gone), so a long-lived process keeps one template per
//! resident program rather than one per program it ever analyzed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use pwcet_analysis::Scope;
use pwcet_cfg::{ExpandedCfg, NodeId};
use pwcet_obs::{Counter, Registry};

use crate::ilp_engine::sort_groups;
use crate::template::IpetTemplate;

/// Monotonic counters of a [`TemplateRegistry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TemplateCounters {
    /// Lookups answered by an already-registered covering template.
    pub template_hits: u64,
    /// Templates built (first builds and coverage-miss rebuilds).
    pub template_builds: u64,
    /// Serialized bases successfully restored into a template's pool.
    pub basis_restores: u64,
    /// Serialized bases rejected by validation/refactorization (each
    /// costs one cold factorization, never a wrong bound).
    pub basis_rejects: u64,
    /// `bound` calls answered from a registered template's
    /// objective→bound memo — an identical cost model was already
    /// solved, typically by a sibling geometry of the same sweep.
    pub objective_hits: u64,
}

/// The registered templates, guarded by one lock.
#[derive(Debug, Default)]
struct Slots {
    by_fingerprint: HashMap<u64, Arc<IpetTemplate>>,
    /// Objective-memo hits of templates that have left the registry
    /// (dropped or replaced), up to the moment they left — so the
    /// reported total never goes down.
    retired_objective_hits: u64,
}

impl Slots {
    /// Drops every template only the registry still holds. The caller
    /// holds the registry lock, so no other holder can appear while the
    /// count is read: an `Arc` at count 1 can only be cloned through
    /// this map.
    fn prune(&mut self) {
        let mut retired = 0;
        self.by_fingerprint.retain(|_, template| {
            let orphaned = Arc::strong_count(template) == 1;
            if orphaned {
                retired += template.objective_hits();
            }
            !orphaned
        });
        self.retired_objective_hits += retired;
    }
}

/// A registry of [`IpetTemplate`]s keyed by CFG fingerprint, with
/// restore/reject accounting for persisted bases.
#[derive(Debug, Default)]
pub struct TemplateRegistry {
    slots: Mutex<Slots>,
    /// Pool cap applied to every template built through this registry.
    pool_cap: AtomicUsize,
    template_hits: Arc<Counter>,
    template_builds: Arc<Counter>,
    basis_restores: Arc<Counter>,
    basis_rejects: Arc<Counter>,
}

impl TemplateRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            pool_cap: AtomicUsize::new(usize::MAX),
            ..Self::default()
        }
    }

    /// An empty registry whose event counters are `metrics`' rows of the
    /// same names.
    pub fn registered(metrics: &Registry) -> Self {
        Self {
            template_hits: metrics.register_counter("template_hits"),
            template_builds: metrics.register_counter("template_builds"),
            basis_restores: metrics.register_counter("basis_restores"),
            basis_rejects: metrics.register_counter("basis_rejects"),
            ..Self::new()
        }
    }

    /// Caps the workspace pool of every template (current and future)
    /// at `cap` — callers pass the configured solve parallelism.
    pub fn set_pool_cap(&self, cap: usize) {
        self.pool_cap.store(cap.max(1), Ordering::Relaxed);
        let slots = self.slots.lock().expect("template registry");
        for template in slots.by_fingerprint.values() {
            template.set_pool_cap(cap);
        }
    }

    /// Returns the registered template for `cfg_fingerprint` covering
    /// `groups`, building (or rebuilding with the merged group union)
    /// when none does. `cfg_fingerprint` must be a collision-free
    /// identity for `cfg`'s structure — callers derive it from the CFG
    /// itself, and every sibling geometry of one program presents the
    /// same fingerprint, which is exactly what makes a sweep share one
    /// factored basis pool.
    ///
    /// The caller keeps the template alive by holding the returned
    /// `Arc`; once every holder has dropped it, a later `obtain` drops
    /// it from the registry too.
    pub fn obtain(
        &self,
        cfg_fingerprint: u64,
        cfg: &ExpandedCfg,
        groups: &[(NodeId, Scope)],
    ) -> Arc<IpetTemplate> {
        let mut needed = groups.to_vec();
        sort_groups(&mut needed);
        let existing = {
            let mut slots = self.slots.lock().expect("template registry");
            slots.prune();
            slots.by_fingerprint.get(&cfg_fingerprint).map(Arc::clone)
        };
        if let Some(template) = existing.as_ref() {
            if template.covers(&needed) {
                self.template_hits.inc();
                return Arc::clone(template);
            }
        }
        // Coverage miss (or first sight): build outside the lock with
        // the union of everything registered and everything needed, so
        // the replacement answers past and present cost models alike.
        let mut union = needed.clone();
        if let Some(template) = existing.as_ref() {
            union.extend(template.groups().iter().copied());
            sort_groups(&mut union);
        }
        let built = Arc::new(IpetTemplate::new(cfg, union));
        built.set_pool_cap(self.pool_cap.load(Ordering::Relaxed));
        let mut slots = self.slots.lock().expect("template registry");
        // Another thread may have raced a covering build in meanwhile.
        if let Some(raced) = slots.by_fingerprint.get(&cfg_fingerprint) {
            if raced.covers(&needed) {
                self.template_hits.inc();
                return Arc::clone(raced);
            }
        }
        self.template_builds.inc();
        if let Some(replaced) = slots
            .by_fingerprint
            .insert(cfg_fingerprint, Arc::clone(&built))
        {
            slots.retired_objective_hits += replaced.objective_hits();
        }
        built
    }

    /// Counts one successful basis restore.
    pub fn record_basis_restore(&self) {
        self.basis_restores.inc();
    }

    /// Counts one rejected (invalid/singular) serialized basis.
    pub fn record_basis_reject(&self) {
        self.basis_rejects.inc();
    }

    /// A snapshot of the registry's counters. `objective_hits` sums over
    /// the registered templates plus those that have left the registry:
    /// each template's objective memo counts its own hits, so the total
    /// is read, not registered.
    pub fn counters(&self) -> TemplateCounters {
        let objective_hits = {
            let slots = self.slots.lock().expect("template registry");
            slots.retired_objective_hits
                + slots
                    .by_fingerprint
                    .values()
                    .map(|t| t.objective_hits())
                    .sum::<u64>()
        };
        TemplateCounters {
            template_hits: self.template_hits.get(),
            template_builds: self.template_builds.get(),
            basis_restores: self.basis_restores.get(),
            basis_rejects: self.basis_rejects.get(),
            objective_hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, RefCost};
    use crate::ipet_bound;
    use pwcet_cfg::FunctionExtent;
    use pwcet_progen::{stmt, Program};

    fn looped_cfg() -> ExpandedCfg {
        let program = Program::new("t").with_function(
            "main",
            stmt::loop_(8, stmt::if_else(stmt::compute(5), stmt::compute(2))),
        );
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
    fn same_key_covering_lookup_is_a_hit() {
        let cfg = looped_cfg();
        let l = &cfg.loops()[0];
        let registry = TemplateRegistry::new();
        let wide = registry.obtain(7, &cfg, &[(l.header, Scope::Loop(l.id))]);
        // A sibling needing a subset (here: nothing) shares the template.
        let narrow = registry.obtain(7, &cfg, &[]);
        assert!(Arc::ptr_eq(&wide, &narrow));
        let counters = registry.counters();
        assert_eq!(counters.template_builds, 1);
        assert_eq!(counters.template_hits, 1);
    }

    #[test]
    fn coverage_miss_rebuilds_with_merged_union() {
        let cfg = looped_cfg();
        let l = &cfg.loops()[0];
        let registry = TemplateRegistry::new();
        let first = registry.obtain(7, &cfg, &[(l.header, Scope::Loop(l.id))]);
        let second = registry.obtain(7, &cfg, &[(cfg.entry(), Scope::Program)]);
        assert!(!Arc::ptr_eq(&first, &second), "coverage miss rebuilds");
        // The replacement covers both requirements.
        assert!(second.covers(&[(l.header, Scope::Loop(l.id))]));
        assert!(second.covers(&[(cfg.entry(), Scope::Program)]));
        assert_eq!(registry.counters().template_builds, 2);
        // And a bound through it still matches the cold one-shot path.
        let mut costs = CostModel::uniform(&cfg, 1);
        costs.set(
            l.header,
            0,
            RefCost::with_first_extra(1, 40, Scope::Loop(l.id)),
        );
        assert_eq!(
            second.bound(&costs).unwrap(),
            ipet_bound(&cfg, &costs).unwrap()
        );
    }

    #[test]
    fn different_fingerprints_do_not_share() {
        let cfg = looped_cfg();
        let registry = TemplateRegistry::new();
        let a = registry.obtain(1, &cfg, &[]);
        let b = registry.obtain(2, &cfg, &[]);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(registry.counters().template_builds, 2);
    }

    #[test]
    fn templates_no_one_holds_are_dropped_on_the_next_obtain() {
        let cfg = looped_cfg();
        let registry = TemplateRegistry::new();
        let held = registry.obtain(1, &cfg, &[]);
        let released = Arc::downgrade(&registry.obtain(2, &cfg, &[]));
        assert!(released.upgrade().is_some(), "kept until the next obtain");
        let _ = registry.obtain(3, &cfg, &[]);
        assert!(
            released.upgrade().is_none(),
            "an unheld template is dropped"
        );
        // A held template survives, and a repeat lookup still shares it.
        assert!(Arc::ptr_eq(&held, &registry.obtain(1, &cfg, &[])));
    }

    #[test]
    fn objective_hits_outlive_dropped_templates() {
        let cfg = looped_cfg();
        let registry = TemplateRegistry::new();
        let template = registry.obtain(1, &cfg, &[]);
        let costs = CostModel::uniform(&cfg, 2);
        template.bound(&costs).unwrap();
        template.bound(&costs).unwrap();
        assert_eq!(registry.counters().objective_hits, 1);
        drop(template);
        let _ = registry.obtain(2, &cfg, &[]);
        assert_eq!(
            registry.counters().objective_hits,
            1,
            "a dropped template's hits stay counted"
        );
    }

    #[test]
    fn basis_round_trips_through_snapshot_into_a_fresh_registry() {
        let cfg = looped_cfg();
        let registry = TemplateRegistry::new();
        let template = registry.obtain(7, &cfg, &[]);
        let costs = CostModel::uniform(&cfg, 3);
        let expected = template.bound(&costs).unwrap();
        let basis = template.export_basis().expect("solved template exports");

        // A "restarted process": fresh registry, fresh template, seeded
        // from the serialized basis — the first solve is warm.
        let restarted = TemplateRegistry::new();
        let template2 = restarted.obtain(7, &cfg, &[]);
        assert!(template2.seed_basis(&basis), "snapshot hydrates");
        assert_eq!(template2.bound(&costs).unwrap(), expected);
        let stats = template2.stats();
        assert_eq!(stats.cold_starts, 0, "restored basis skips phase 1");
        assert!(stats.warm_starts >= 1);
    }

    #[test]
    fn corrupt_snapshot_is_rejected_and_degrades_to_cold() {
        let cfg = looped_cfg();
        let registry = TemplateRegistry::new();
        let template = registry.obtain(7, &cfg, &[]);
        let costs = CostModel::uniform(&cfg, 3);
        let expected = template.bound(&costs).unwrap();
        let good = template.export_basis().expect("solved template exports");

        let mut wrong_shape = good.clone();
        wrong_shape.m += 1;
        let mut bad_tag = good.clone();
        bad_tag.statuses[0] = 9;
        let mut dup = good.clone();
        dup.basis[0] = dup.basis[dup.basis.len() - 1];
        let mut truncated = good.clone();
        truncated.statuses.pop();
        for (label, bad) in [
            ("shape", wrong_shape),
            ("tag", bad_tag),
            ("duplicate", dup),
            ("truncated", truncated),
        ] {
            let fresh = registry.obtain(100, &cfg, &[]);
            assert!(!fresh.seed_basis(&bad), "{label} snapshot must be rejected");
            // The template still answers — cold, and correctly.
            assert_eq!(fresh.bound(&costs).unwrap(), expected, "{label}");
        }
    }

    #[test]
    fn pool_cap_bounds_checkins() {
        let cfg = looped_cfg();
        let registry = TemplateRegistry::new();
        registry.set_pool_cap(1);
        let template = registry.obtain(7, &cfg, &[]);
        let costs = CostModel::uniform(&cfg, 1);
        for _ in 0..4 {
            template.bound(&costs).unwrap();
        }
        // Cap 1: at most one pooled workspace survives all check-ins.
        assert!(template.pool_len() <= 1);
    }
}
