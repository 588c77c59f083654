//! Integration tests replaying the worked examples of the paper's text end-to-end
//! through the public facade crate (`oef`).

use oef::core::{
    fairness, AllocationPolicy, ClusterSpec, CooperativeOef, NonCooperativeOef, SpeedupMatrix,
};
use oef::schedulers::{GandivaFair, Gavel, MaxEfficiency};

fn two_gpu_cluster() -> ClusterSpec {
    ClusterSpec::homogeneous_counts(&["gpu1", "gpu2"], &[1.0, 1.0]).unwrap()
}

fn expression_1_matrix() -> SpeedupMatrix {
    SpeedupMatrix::from_rows(vec![vec![1.0, 2.0], vec![1.0, 3.0], vec![1.0, 4.0]]).unwrap()
}

#[test]
fn section_24_gandiva_fair_matches_expression_1() {
    // Gandiva_fair's trading yields roughly X = [1 0.09; 0 0.47; 0 0.44] with
    // efficiencies <1.18, 1.41, 1.76>.
    let allocation = GandivaFair::default()
        .allocate(&two_gpu_cluster(), &expression_1_matrix())
        .unwrap();
    let eff = allocation.user_efficiencies(&expression_1_matrix());
    assert!((eff[0] - 1.18).abs() < 0.02);
    assert!((eff[1] - 1.41).abs() < 0.02);
    assert!((eff[2] - 1.76).abs() < 0.03);
}

#[test]
fn section_24_gavel_matches_expression_3_shape() {
    // Gavel equalises throughput-to-fair-share ratios (~1.08-1.10 for all users) and,
    // like Gandiva_fair, ends below the envy-free optimum in total efficiency.
    let w = expression_1_matrix();
    let cluster = two_gpu_cluster();
    let gavel = Gavel::default().allocate(&cluster, &w).unwrap();
    let gandiva = GandivaFair::default().allocate(&cluster, &w).unwrap();
    let coop = CooperativeOef::default().allocate(&cluster, &w).unwrap();
    let fair: Vec<f64> = (0..3)
        .map(|l| w.user(l).dot(&cluster.equal_share(3)))
        .collect();
    let ratios: Vec<f64> = (0..3)
        .map(|l| gavel.user_efficiency(l, &w) / fair[l])
        .collect();
    for r in &ratios {
        assert!(
            (r - ratios[0]).abs() < 0.05,
            "Gavel ratios not equalised: {ratios:?}"
        );
        assert!(
            *r >= 1.0 - 1e-6,
            "Gavel is sharing-incentive by construction"
        );
    }
    // Both heterogeneity-aware baselines land within a few percent of each other
    // (4.3-4.45 in total efficiency here) and both stay clearly below the envy-free
    // optimum of 4.5 that cooperative OEF attains (Expression (2) vs (3)).
    assert!((gavel.total_efficiency(&w) - gandiva.total_efficiency(&w)).abs() < 0.15);
    assert!(gavel.total_efficiency(&w) < coop.total_efficiency(&w) - 0.05);
    assert!(gandiva.total_efficiency(&w) < coop.total_efficiency(&w) - 0.05);
}

#[test]
fn section_31_expression_2_is_the_cooperative_oef_outcome() {
    // The envy-free, sharing-incentive allocation with optimal efficiency is
    // X* = [1 0; 0 0.5; 0 0.5] with efficiencies <1, 1.5, 2> (total 4.5).
    let w = expression_1_matrix();
    let cluster = two_gpu_cluster();
    let allocation = CooperativeOef::default().allocate(&cluster, &w).unwrap();
    assert!((allocation.total_efficiency(&w) - 4.5).abs() < 1e-6);
    let envy = fairness::check_envy_freeness(&allocation, &w, 1e-6);
    assert!(envy.envy_free);
    let si = fairness::check_sharing_incentive(&allocation, &w, &cluster, 1e-6);
    assert!(si.sharing_incentive);
    let pe = fairness::check_pareto_efficiency(&allocation, &w, &cluster, 1e-4).unwrap();
    assert!(pe.pareto_efficient);
}

#[test]
fn section_311_expression_5_pure_efficiency_is_unfair() {
    // Pure efficiency maximisation gives GPU2 entirely to the user with speedup 4 and
    // starves user 2: neither envy-free nor sharing-incentive.
    let w = expression_1_matrix();
    let cluster = two_gpu_cluster();
    let allocation = MaxEfficiency::default().allocate(&cluster, &w).unwrap();
    assert!(
        (allocation.total_efficiency(&w) - fairness::max_total_efficiency(&cluster, &w)).abs()
            < 1e-9
    );
    assert!(!fairness::check_envy_freeness(&allocation, &w, 1e-9).envy_free);
    assert!(!fairness::check_sharing_incentive(&allocation, &w, &cluster, 1e-9).sharing_incentive);
}

#[test]
fn section_311_expression_6_cooperative_oef_two_users() {
    // Two users with speedups (1,2) and (1,5): the envy-free optimum is
    // X = [1 0.25; 0 0.75] with total efficiency 5.25.
    let cluster = two_gpu_cluster();
    let w = SpeedupMatrix::from_rows(vec![vec![1.0, 2.0], vec![1.0, 5.0]]).unwrap();
    let allocation = CooperativeOef::default().allocate(&cluster, &w).unwrap();
    assert!((allocation.share(0, 0) - 1.0).abs() < 1e-6);
    assert!((allocation.share(0, 1) - 0.25).abs() < 1e-6);
    assert!((allocation.share(1, 1) - 0.75).abs() < 1e-6);
    assert!((allocation.total_efficiency(&w) - 5.25).abs() < 1e-6);
}

#[test]
fn theorem_52_adjacent_gpu_types_across_policies_and_instances() {
    // OEF allocations only assign adjacent GPU types to each user (Theorem 5.2).
    let cluster =
        ClusterSpec::homogeneous_counts(&["a", "b", "c", "d"], &[3.0, 3.0, 3.0, 3.0]).unwrap();
    let w = SpeedupMatrix::from_rows(vec![
        vec![1.0, 1.1, 1.2, 1.3],
        vec![1.0, 1.4, 1.9, 2.4],
        vec![1.0, 1.2, 1.5, 1.9],
        vec![1.0, 1.8, 2.8, 4.0],
        vec![1.0, 1.05, 1.1, 1.15],
    ])
    .unwrap();
    for policy in [
        &NonCooperativeOef::default() as &dyn AllocationPolicy,
        &CooperativeOef::default(),
    ] {
        let allocation = policy.allocate(&cluster, &w).unwrap();
        assert!(
            allocation.uses_adjacent_types_only(),
            "{} produced a non-adjacent allocation: {allocation:?}",
            policy.name()
        );
        assert!(allocation.is_feasible(&cluster));
    }
}
