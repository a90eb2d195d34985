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
//!   `f = W − 1` column (§III-B2);
//! * the per-set penalty distributions over those bounds composed by the
//!   frozen pairwise convolution (`prob::reference`), which forms every
//!   product and prunes merged points — in the production tree's shape,
//!   so the two differ only in which mass each moves to the tail.

use fault_aware_pwcet::analysis::{reference, ChmcMap};
use fault_aware_pwcet::core::{
    delta_cost_model, expand_compiled, AnalysisConfig, FaultMissMap, ProgramAnalysis, Protection,
};
use fault_aware_pwcet::ipet::{ipet_bound_reference, CostModel};
use fault_aware_pwcet::prob::{self, ConvolutionParams, DiscreteDistribution};
use fault_aware_pwcet::progen::CompiledProgram;

/// Relative round-off allowed when production's exceedance is compared
/// with the oracle's: the two kernels add the same surviving products in
/// different orders, and production folds each cut row's mass as one
/// product with the rest of the row's mass.
const PENALTY_ROUND_OFF: f64 = 1e-12;

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
    for protection in Protection::all() {
        assert_penalty_sound(
            &format!("{what}/{protection}"),
            &analysis.penalty_distribution(protection),
            &reference_penalty(oracle, analysis.config(), protection),
        );
    }
}

/// Asserts `production`'s exceedance is at least `oracle`'s, up to
/// [`PENALTY_ROUND_OFF`], at every support value of either: pruning may
/// move mass up to the tail, never down.
pub fn assert_penalty_sound(
    what: &str,
    production: &DiscreteDistribution,
    oracle: &DiscreteDistribution,
) {
    for &(value, _) in production.points().iter().chain(oracle.points()) {
        let (got, floor) = (production.exceedance(value), oracle.exceedance(value));
        assert!(
            got >= floor * (1.0 - PENALTY_ROUND_OFF),
            "{what}: exceedance at {value} is {got:e}, below the oracle's {floor:e}"
        );
    }
}

/// The oracle's penalty distribution for `protection`, in cycles: the
/// per-set binomial mixtures over `bounds` (§II-C, Eqs. 2–3) composed by
/// `prob::reference::convolve_all`.
pub fn reference_penalty(
    bounds: &Bounds,
    config: &AnalysisConfig,
    protection: Protection,
) -> DiscreteDistribution {
    let geometry = config.geometry;
    let ways = geometry.ways();
    let model = config.fault_model;
    let pbf = model.block_failure_probability(geometry.block_bits());
    // Under the RW only W − 1 ways can fail (Eq. 3): the weights stop at
    // `f = W − 1`.
    let pwf = match protection {
        Protection::ReliableWay => model.reliable_way_fault_distribution(ways, pbf),
        Protection::None | Protection::SharedReliableBuffer => {
            model.way_fault_distribution(ways, pbf)
        }
    };
    let per_set: Vec<DiscreteDistribution> = (0..geometry.sets())
        .map(|s| {
            let misses = |f: u32| match protection {
                Protection::SharedReliableBuffer if f == ways => bounds.srb_last_column[s as usize],
                _ => bounds.fmm.get(s, f),
            };
            DiscreteDistribution::from_points((0..).zip(&pwf).map(|(f, &p)| (misses(f), p)))
                .expect("binomial weights form a distribution")
        })
        .collect();
    prob::reference::convolve_all(&per_set, &ConvolutionParams::default())
        .scale_values(config.timing.miss_penalty_cycles())
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
