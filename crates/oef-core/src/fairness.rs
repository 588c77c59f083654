//! Fairness-property checkers (§2.3.1 and §5 of the paper).
//!
//! These are *evaluation* utilities: given an allocation (from any policy) they verify
//! envy-freeness, sharing-incentive, pareto-efficiency, distance from optimal resource
//! efficiency, and probe strategy-proofness by re-running a policy with inflated
//! speedup reports.  [`PROMISES`] states which of those properties each OEF mechanism
//! guarantees (Table 1); the test-suite checks it, and the theorems of §5, with them.

use crate::policy::AllocationPolicy;
use crate::{Allocation, ClusterSpec, Result, SpeedupMatrix};
use oef_lp::{ConstraintOp, Problem, Sense, SolverContext};
use serde::{Deserialize, Serialize};

/// Default numerical tolerance for property checks.
pub const DEFAULT_TOLERANCE: f64 = 1e-6;

/// Result of checking envy-freeness for one allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnvyReport {
    /// Whether no user prefers another user's allocation (up to the tolerance).
    pub envy_free: bool,
    /// The largest envy found: `max_{l,i} (W_l·x_i − W_l·x_l)`, clamped at 0.
    pub max_envy: f64,
    /// The pair `(l, i)` achieving the maximum envy, if any envy exists.
    pub worst_pair: Option<(usize, usize)>,
    /// Full cross-efficiency matrix: entry `(l, i)` is `W_l · x_i` (Fig. 6 of the paper).
    pub cross_efficiency: Vec<Vec<f64>>,
}

/// Result of checking sharing-incentive for one allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SharingIncentiveReport {
    /// Whether every user does at least as well as with an equal 1/n split.
    pub sharing_incentive: bool,
    /// Per-user ratio of achieved throughput to equal-split throughput.
    pub ratios: Vec<f64>,
    /// The smallest ratio (below 1 means a violation).
    pub min_ratio: f64,
}

/// Result of checking pareto-efficiency for one allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParetoReport {
    /// Whether no user's throughput can be raised without lowering someone else's.
    pub pareto_efficient: bool,
    /// How much total throughput could still be gained while keeping every user at
    /// least as well off (0 for pareto-efficient allocations).
    pub improvable_by: f64,
}

/// Result of a strategy-proofness probe against a policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyProofnessReport {
    /// Whether none of the probes managed to increase the cheater's true throughput.
    pub strategy_proof: bool,
    /// The largest relative gain a cheater achieved across all probes
    /// (`> 0` means a profitable lie was found).
    pub max_relative_gain: f64,
    /// The probing user and inflation factor that achieved the largest gain.
    pub worst_case: Option<(usize, f64)>,
}

/// Summary of all fairness properties for one policy on one instance (Table 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FairnessSummary {
    /// Name of the evaluated policy.
    pub policy: String,
    /// Envy-freeness report.
    pub envy: EnvyReport,
    /// Sharing-incentive report.
    pub sharing: SharingIncentiveReport,
    /// Pareto-efficiency report.
    pub pareto: ParetoReport,
    /// Strategy-proofness report.
    pub strategy: StrategyProofnessReport,
    /// Achieved total efficiency divided by the unconstrained optimum of Eq. (4).
    pub efficiency_ratio: f64,
}

/// One fairness property of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Property {
    /// Pareto efficiency (PE).
    ParetoEfficient,
    /// Envy-freeness (EF).
    EnvyFree,
    /// Sharing incentive (SI).
    SharingIncentive,
    /// Strategy-proofness (SP).
    StrategyProof,
}

impl Property {
    /// The four columns of Table 1, in the paper's order.
    pub const ALL: [Property; 4] = [
        Property::ParetoEfficient,
        Property::EnvyFree,
        Property::SharingIncentive,
        Property::StrategyProof,
    ];

    /// The paper's abbreviation (`PE`, `EF`, `SI`, `SP`).
    pub fn abbreviation(self) -> &'static str {
        match self {
            Property::ParetoEfficient => "PE",
            Property::EnvyFree => "EF",
            Property::SharingIncentive => "SI",
            Property::StrategyProof => "SP",
        }
    }
}

/// Table 1 as this workspace's mechanisms promise it: policy name → the properties it
/// guarantees on every instance.
///
/// Non-cooperative OEF equalises normalised throughput at the largest feasible level,
/// which is Pareto-efficient and strategy-proof (Theorems 5.3, 5.4) but neither
/// envy-free nor sharing-incentive in general.  Cooperative OEF maximises efficiency
/// *among envy-free allocations* (problem (10)); that is envy-free and
/// sharing-incentive, and is not always Pareto-efficient or strategy-proof.  A
/// property missing from a row is not promised, and `crates/bench/tests/paper_claims.rs`
/// records an instance on which it fails.
pub const PROMISES: &[(&str, &[Property])] = &[
    (
        "oef-noncooperative",
        &[Property::ParetoEfficient, Property::StrategyProof],
    ),
    (
        "oef-cooperative",
        &[Property::EnvyFree, Property::SharingIncentive],
    ),
];

impl FairnessSummary {
    /// Whether the evaluated allocation has `property`.
    pub fn holds(&self, property: Property) -> bool {
        match property {
            Property::ParetoEfficient => self.pareto.pareto_efficient,
            Property::EnvyFree => self.envy.envy_free,
            Property::SharingIncentive => self.sharing.sharing_incentive,
            Property::StrategyProof => self.strategy.strategy_proof,
        }
    }
}

/// Checks envy-freeness of an allocation.
pub fn check_envy_freeness(
    allocation: &Allocation,
    speedups: &SpeedupMatrix,
    tolerance: f64,
) -> EnvyReport {
    let n = allocation.num_users();
    let mut cross = vec![vec![0.0; n]; n];
    let mut max_envy: f64 = 0.0;
    let mut worst = None;
    for l in 0..n {
        for i in 0..n {
            cross[l][i] = allocation.cross_efficiency(l, i, speedups);
        }
    }
    for l in 0..n {
        for i in 0..n {
            let envy = cross[l][i] - cross[l][l];
            if envy > max_envy {
                max_envy = envy;
                worst = Some((l, i));
            }
        }
    }
    EnvyReport {
        envy_free: max_envy <= tolerance,
        max_envy,
        worst_pair: worst,
        cross_efficiency: cross,
    }
}

/// Checks sharing-incentive: every user should do at least as well as with `m/n`.
pub fn check_sharing_incentive(
    allocation: &Allocation,
    speedups: &SpeedupMatrix,
    cluster: &ClusterSpec,
    tolerance: f64,
) -> SharingIncentiveReport {
    let n = allocation.num_users();
    let share = cluster.equal_share(n);
    let mut ratios = Vec::with_capacity(n);
    for l in 0..n {
        let achieved = allocation.user_efficiency(l, speedups);
        let baseline = speedups.user(l).dot(&share);
        ratios.push(if baseline > 0.0 {
            achieved / baseline
        } else {
            f64::INFINITY
        });
    }
    let min_ratio = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    SharingIncentiveReport {
        sharing_incentive: min_ratio >= 1.0 - tolerance,
        ratios,
        min_ratio,
    }
}

/// Checks pareto-efficiency by solving an auxiliary LP: maximise total throughput while
/// keeping every user at least at its current throughput.  If the optimum exceeds the
/// current total the allocation is not pareto-efficient (some user could be improved
/// without hurting anyone).
///
/// # Errors
///
/// Propagates LP solver failures.
pub fn check_pareto_efficiency(
    allocation: &Allocation,
    speedups: &SpeedupMatrix,
    cluster: &ClusterSpec,
    tolerance: f64,
) -> Result<ParetoReport> {
    let n = allocation.num_users();
    let k = cluster.num_gpu_types();
    let mut problem = Problem::new(Sense::Maximize);
    let vars: Vec<Vec<oef_lp::Variable>> = (0..n)
        .map(|l| {
            (0..k)
                .map(|j| problem.add_variable(format!("x_{l}_{j}")))
                .collect()
        })
        .collect();
    for l in 0..n {
        for j in 0..k {
            problem.set_objective_coefficient(vars[l][j], speedups.speedup(l, j));
        }
    }
    for j in 0..k {
        let terms: Vec<_> = (0..n).map(|l| (vars[l][j], 1.0)).collect();
        problem.add_constraint(&terms, ConstraintOp::Le, cluster.capacity(j));
    }
    for l in 0..n {
        let terms: Vec<_> = (0..k)
            .map(|j| (vars[l][j], speedups.speedup(l, j)))
            .collect();
        problem.add_constraint(
            &terms,
            ConstraintOp::Ge,
            allocation.user_efficiency(l, speedups),
        );
    }
    let best = SolverContext::new().solve(&problem)?.objective_value();
    let current = allocation.total_efficiency(speedups);
    let improvable_by = (best - current).max(0.0);
    Ok(ParetoReport {
        pareto_efficient: improvable_by <= tolerance.max(1e-6 * current.abs()),
        improvable_by,
    })
}

/// The unconstrained optimal resource efficiency of Eq. (4): assign each GPU type to
/// the user with the largest speedup on it.
pub fn max_total_efficiency(cluster: &ClusterSpec, speedups: &SpeedupMatrix) -> f64 {
    (0..cluster.num_gpu_types())
        .map(|j| {
            let best = (0..speedups.num_users())
                .map(|l| speedups.speedup(l, j))
                .fold(f64::NEG_INFINITY, f64::max);
            best * cluster.capacity(j)
        })
        .sum()
}

/// Probes strategy-proofness of a policy: for each user and each inflation factor, the
/// user reports a speedup vector inflated on the faster GPU types and we measure the
/// change of its *true* throughput.  Returns the worst (largest) relative gain found.
///
/// A positive `max_relative_gain` demonstrates a profitable lie, i.e. a
/// strategy-proofness violation; the paper shows Gavel and Gandiva_fair admit such lies
/// while non-cooperative OEF does not (Theorem 5.4).
///
/// Every probe re-solves the policy's LP with one speedup row replaced — the
/// shape never changes — so an LP-backed policy serves the whole
/// `users x inflation_factors` sweep warm from its internal solver context
/// after the first (honest) solve.
///
/// # Errors
///
/// Propagates allocation failures from the probed policy.
pub fn probe_strategy_proofness<P: AllocationPolicy + ?Sized>(
    policy: &P,
    cluster: &ClusterSpec,
    speedups: &SpeedupMatrix,
    inflation_factors: &[f64],
    tolerance: f64,
) -> Result<StrategyProofnessReport> {
    let honest = policy.allocate(cluster, speedups)?;
    let n = speedups.num_users();
    let k = speedups.num_gpu_types();
    let mut max_gain: f64 = 0.0;
    let mut worst = None;

    for user in 0..n {
        let honest_eff = honest.user_efficiency(user, speedups);
        for &factor in inflation_factors {
            // Inflate every non-slowest GPU type's speedup by `factor`; the slowest
            // entry stays 1 by re-normalisation inside `inflate`.
            let mut factors = vec![1.0; k];
            for f in factors.iter_mut().skip(1) {
                *f = factor;
            }
            let fake_row = speedups.user(user).inflate(&factors)?;
            let fake_matrix = speedups.with_replaced_row(user, fake_row)?;
            let allocation = policy.allocate(cluster, &fake_matrix)?;
            // Evaluate the cheating user's share with its TRUE speedups.
            let cheating_eff = speedups.user(user).dot(allocation.user_row(user));
            if honest_eff > tolerance {
                let gain = (cheating_eff - honest_eff) / honest_eff;
                if gain > max_gain {
                    max_gain = gain;
                    worst = Some((user, factor));
                }
            }
        }
    }

    Ok(StrategyProofnessReport {
        strategy_proof: max_gain <= tolerance.max(1e-4),
        max_relative_gain: max_gain,
        worst_case: worst,
    })
}

/// Runs every fairness check against a policy on one instance and summarises the
/// result (one row of Table 1).
///
/// # Errors
///
/// Propagates allocation and LP failures.
pub fn evaluate_policy<P: AllocationPolicy + ?Sized>(
    policy: &P,
    cluster: &ClusterSpec,
    speedups: &SpeedupMatrix,
    inflation_factors: &[f64],
) -> Result<FairnessSummary> {
    let allocation = policy.allocate(cluster, speedups)?;
    let envy = check_envy_freeness(&allocation, speedups, DEFAULT_TOLERANCE);
    let sharing = check_sharing_incentive(&allocation, speedups, cluster, DEFAULT_TOLERANCE);
    // Pareto efficiency is judged with a 0.1%-of-total tolerance so that degenerate
    // simplex vertices (which can sit a hair inside the optimal face) are not reported
    // as violations.  The policies that are efficient sit far inside it (slack at most
    // 1e-15 of the total for non-cooperative OEF and Gavel on random instances); what
    // it reports is an allocation that pays for another property in efficiency, such
    // as Max-Min's equal split or, on some instances, cooperative OEF's envy rows.
    let pareto_tolerance = 1e-3 * allocation.total_efficiency(speedups).abs() + 1e-6;
    let pareto = check_pareto_efficiency(&allocation, speedups, cluster, pareto_tolerance)?;
    let strategy = probe_strategy_proofness(
        policy,
        cluster,
        speedups,
        inflation_factors,
        DEFAULT_TOLERANCE,
    )?;
    let optimum = max_total_efficiency(cluster, speedups);
    let efficiency_ratio = if optimum > 0.0 {
        allocation.total_efficiency(speedups) / optimum
    } else {
        1.0
    };
    Ok(FairnessSummary {
        policy: policy.name().to_string(),
        envy,
        sharing,
        pareto,
        strategy,
        efficiency_ratio,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CooperativeOef, NonCooperativeOef};

    fn two_type_cluster() -> ClusterSpec {
        ClusterSpec::homogeneous_counts(&["slow", "fast"], &[1.0, 1.0]).unwrap()
    }

    fn paper_three_user_matrix() -> SpeedupMatrix {
        SpeedupMatrix::from_rows(vec![vec![1.0, 2.0], vec![1.0, 3.0], vec![1.0, 4.0]]).unwrap()
    }

    #[test]
    fn envy_detection_on_gandiva_example() {
        // Expression (1): under Gandiva_fair's allocation, u3 prefers u2's allocation.
        let w = paper_three_user_matrix();
        let x = Allocation::new(vec![vec![1.0, 0.09], vec![0.0, 0.47], vec![0.0, 0.44]]).unwrap();
        let report = check_envy_freeness(&x, &w, DEFAULT_TOLERANCE);
        assert!(!report.envy_free);
        assert_eq!(report.worst_pair, Some((2, 1)));
        assert!(report.max_envy > 0.1);
        assert_eq!(report.cross_efficiency.len(), 3);
    }

    #[test]
    fn envy_free_allocation_passes() {
        // Expression (2): X* = [1 0; 0 0.5; 0 0.5] is envy-free.
        let w = paper_three_user_matrix();
        let x = Allocation::new(vec![vec![1.0, 0.0], vec![0.0, 0.5], vec![0.0, 0.5]]).unwrap();
        let report = check_envy_freeness(&x, &w, DEFAULT_TOLERANCE);
        assert!(report.envy_free, "max envy {}", report.max_envy);
        assert_eq!(report.worst_pair, None);
    }

    #[test]
    fn sharing_incentive_on_equal_split() {
        let w = paper_three_user_matrix();
        let cluster = two_type_cluster();
        let equal = Allocation::new(vec![
            vec![1.0 / 3.0, 1.0 / 3.0],
            vec![1.0 / 3.0, 1.0 / 3.0],
            vec![1.0 / 3.0, 1.0 / 3.0],
        ])
        .unwrap();
        let report = check_sharing_incentive(&equal, &w, &cluster, DEFAULT_TOLERANCE);
        assert!(report.sharing_incentive);
        for r in &report.ratios {
            assert!((r - 1.0).abs() < 1e-9);
        }

        // Starving user 0 entirely violates sharing incentive.
        let starving =
            Allocation::new(vec![vec![0.0, 0.0], vec![1.0, 0.5], vec![0.0, 0.5]]).unwrap();
        let report = check_sharing_incentive(&starving, &w, &cluster, DEFAULT_TOLERANCE);
        assert!(!report.sharing_incentive);
        assert!(report.min_ratio < 0.1);
    }

    #[test]
    fn pareto_efficiency_detects_wasted_resources() {
        let w = paper_three_user_matrix();
        let cluster = two_type_cluster();
        // Leaving the fast GPU half idle is clearly not pareto-efficient.
        let wasteful =
            Allocation::new(vec![vec![1.0, 0.0], vec![0.0, 0.25], vec![0.0, 0.25]]).unwrap();
        let report = check_pareto_efficiency(&wasteful, &w, &cluster, 1e-6).unwrap();
        assert!(!report.pareto_efficient);
        assert!(report.improvable_by > 1.0);

        // The efficient allocation of Expression (2) cannot be improved.
        let efficient =
            Allocation::new(vec![vec![1.0, 0.0], vec![0.0, 0.5], vec![0.0, 0.5]]).unwrap();
        let report = check_pareto_efficiency(&efficient, &w, &cluster, 1e-6).unwrap();
        assert!(
            report.pareto_efficient,
            "improvable by {}",
            report.improvable_by
        );
    }

    #[test]
    fn max_total_efficiency_matches_eq4() {
        let w = paper_three_user_matrix();
        let cluster = two_type_cluster();
        // Best assignment: slow GPU to anyone (speedup 1), fast GPU to user 3 (speedup 4).
        assert!((max_total_efficiency(&cluster, &w) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn noncoop_oef_is_strategy_proof_on_paper_example() {
        let cluster = two_type_cluster();
        let w = paper_three_user_matrix();
        let policy = NonCooperativeOef::default();
        let report =
            probe_strategy_proofness(&policy, &cluster, &w, &[1.1, 1.4, 2.0], 1e-6).unwrap();
        assert!(
            report.strategy_proof,
            "non-cooperative OEF should be strategy-proof, worst case {:?} gain {}",
            report.worst_case, report.max_relative_gain
        );
    }

    #[test]
    fn coop_oef_summary_has_ef_si_pe() {
        let cluster = two_type_cluster();
        let w = paper_three_user_matrix();
        let policy = CooperativeOef::default();
        let summary = evaluate_policy(&policy, &cluster, &w, &[1.2]).unwrap();
        assert!(summary.envy.envy_free);
        assert!(summary.sharing.sharing_incentive);
        assert!(summary.pareto.pareto_efficient);
        assert!(summary.efficiency_ratio > 0.85);
        assert_eq!(summary.policy, "oef-cooperative");
    }
}
