//! The oracle pipeline the differential suites compare production
//! bounds against, built only from frozen oracles:
//!
//! * one cold fixpoint per associativity on the set-based domain
//!   (`analysis::reference`) — no packed kernel, no warm start, no
//!   geometry derivation;
//! * one dense-tableau ILP per bound (`ipet_bound_reference`), over the
//!   public `delta_cost_model` — no template, no warm basis, no memo;
//! * the two documented post-passes: §II-C row monotonization of the
//!   fault miss map, and each SRB column raised to at least its
//!   `f = W − 1` column (§III-B2).

use fault_aware_pwcet::analysis::{reference, ChmcMap};
use fault_aware_pwcet::core::{
    delta_cost_model, expand_compiled, AnalysisConfig, FaultMissMap, ProgramAnalysis,
};
use fault_aware_pwcet::ipet::{ipet_bound_reference, CostModel};
use fault_aware_pwcet::progen::CompiledProgram;

/// The protection-independent bounds every estimate is assembled from.
#[derive(Debug, PartialEq, Eq)]
pub struct Bounds {
    pub fault_free_wcet: u64,
    pub fmm: FaultMissMap,
    pub srb_last_column: Vec<u64>,
}

/// Asserts the production `analysis` carries exactly the `oracle`'s
/// bounds.
pub fn assert_matches(what: &str, analysis: &ProgramAnalysis, oracle: &Bounds) {
    assert_eq!(
        analysis.fault_free_wcet(),
        oracle.fault_free_wcet,
        "{what}: fault-free WCET"
    );
    assert_eq!(analysis.fmm(), &oracle.fmm, "{what}: fault miss map");
    assert_eq!(
        analysis.srb_last_column(),
        oracle.srb_last_column.as_slice(),
        "{what}: SRB columns"
    );
}

/// The oracle pipeline's bounds for `compiled` under `config`'s geometry
/// and timing.
pub fn reference_bounds(compiled: &CompiledProgram, config: &AnalysisConfig) -> Bounds {
    let cfg = expand_compiled(compiled).expect("CFG builds");
    let geometry = config.geometry;
    let (sets, ways) = (geometry.sets(), geometry.ways());
    let levels: Vec<ChmcMap> = (0..=ways)
        .map(|assoc| reference::classify_level(&cfg, &geometry, assoc).into_chmc())
        .collect();
    let srb = reference::classify_srb(&cfg, &geometry);
    let bound =
        |costs: &CostModel| ipet_bound_reference(&cfg, costs).expect("dense tableau solves");
    let full = &levels[ways as usize];

    let fault_free_wcet = bound(&CostModel::from_chmc(&cfg, full, &config.timing));
    let mut fmm = FaultMissMap::new(sets, ways);
    for s in 0..sets {
        for f in 1..=ways {
            let narrowed = &levels[(ways - f) as usize];
            let (costs, has_delta) = delta_cost_model(&cfg, &geometry, s, full, narrowed, None);
            if has_delta {
                fmm.set(s, f, bound(&costs));
            }
        }
        // A set with more faulty ways never misses less.
        for f in 2..=ways {
            let fewer = fmm.get(s, f - 1);
            if fmm.get(s, f) < fewer {
                fmm.set(s, f, fewer);
            }
        }
    }
    let srb_last_column = (0..sets)
        .map(|s| {
            let (costs, has_delta) =
                delta_cost_model(&cfg, &geometry, s, full, &levels[0], Some(&srb));
            let column = if has_delta { bound(&costs) } else { 0 };
            column.max(fmm.get(s, ways - 1))
        })
        .collect();
    Bounds {
        fault_free_wcet,
        fmm,
        srb_last_column,
    }
}
