//! Crate-level tests validating the theorems of §5 of the paper on structured
//! instances (beyond the worked examples covered in the unit tests).

use oef_core::{
    fairness, AllocationPolicy, ClusterSpec, CooperativeOef, NonCooperativeOef, OefMode,
    SpeedupMatrix, SpeedupVector, WeightedOef,
};

/// A mid-sized, clearly non-degenerate instance: five tenants with distinct, strictly
/// increasing speedup profiles over four GPU generations.
fn instance() -> (ClusterSpec, SpeedupMatrix) {
    let cluster =
        ClusterSpec::homogeneous_counts(&["k80", "p100", "v100", "a100"], &[6.0, 6.0, 4.0, 4.0])
            .unwrap();
    let speedups = SpeedupMatrix::from_rows(vec![
        vec![1.0, 1.08, 1.15, 1.22],
        vec![1.0, 1.35, 1.80, 2.30],
        vec![1.0, 1.20, 1.45, 1.75],
        vec![1.0, 1.60, 2.40, 3.50],
        vec![1.0, 1.10, 1.30, 1.50],
    ])
    .unwrap();
    (cluster, speedups)
}

#[test]
fn theorem_51_cooperative_oef_is_ef_si_and_best_under_those_constraints() {
    let (cluster, speedups) = instance();
    let allocation = CooperativeOef::default()
        .allocate(&cluster, &speedups)
        .unwrap();

    let envy = fairness::check_envy_freeness(&allocation, &speedups, 1e-6);
    assert!(envy.envy_free, "max envy {}", envy.max_envy);
    let si = fairness::check_sharing_incentive(&allocation, &speedups, &cluster, 1e-6);
    assert!(si.sharing_incentive, "min SI ratio {}", si.min_ratio);

    // Optimality under the EF constraints: no other envy-free allocation we can easily
    // construct (max-min, or OEF with one user's EF constraint relaxed... here we use
    // max-min as the canonical envy-free competitor) beats its total efficiency.
    let equal_rows = vec![cluster.equal_share(speedups.num_users()); speedups.num_users()];
    let max_min = oef_core::Allocation::new(equal_rows).unwrap();
    assert!(allocation.total_efficiency(&speedups) >= max_min.total_efficiency(&speedups) - 1e-6);
}

#[test]
fn theorem_52_adjacency_and_extreme_point_bound_noncoop() {
    let (cluster, speedups) = instance();
    let allocation = NonCooperativeOef::default()
        .allocate(&cluster, &speedups)
        .unwrap();
    assert!(
        allocation.uses_adjacent_types_only(),
        "allocation {allocation:?}"
    );
    // Extreme-point argument of §4.4: at most n + m − 1 nonzero entries, so with five
    // tenants and four GPU types most tenants sit on a single GPU type.
    assert!(
        allocation.nonzero_entries() < speedups.num_users() + cluster.num_gpu_types(),
        "too many nonzero entries: {}",
        allocation.nonzero_entries()
    );
    let single_type_tenants = (0..speedups.num_users())
        .filter(|l| allocation.gpu_types_used_by(*l) <= 1)
        .count();
    assert!(
        single_type_tenants >= 2,
        "most tenants should use a single GPU type"
    );
}

#[test]
fn theorem_53_noncooperative_oef_is_pareto_efficient() {
    // Cooperative OEF maximises efficiency among envy-free allocations, which is not
    // always Pareto-efficient; its counterexample lives in the bench crate's
    // `tests/paper_claims.rs`.
    let (cluster, speedups) = instance();
    let allocation = NonCooperativeOef::default()
        .allocate(&cluster, &speedups)
        .unwrap();
    let report = fairness::check_pareto_efficiency(
        &allocation,
        &speedups,
        &cluster,
        fairness::DEFAULT_TOLERANCE,
    )
    .unwrap();
    assert!(
        report.pareto_efficient,
        "improvable by {}",
        report.improvable_by
    );
}

#[test]
fn theorem_54_strategy_proofness_under_many_inflation_patterns() {
    let (cluster, speedups) = instance();
    let policy = NonCooperativeOef::default();
    let honest = policy.allocate(&cluster, &speedups).unwrap();

    // Try per-type (not just uniform) inflations for every tenant: none may raise the
    // cheater's true throughput.
    for user in 0..speedups.num_users() {
        let honest_eff = honest.user_efficiency(user, &speedups);
        for pattern in [
            vec![1.0, 1.3, 1.0, 1.0],
            vec![1.0, 1.0, 1.4, 1.0],
            vec![1.0, 1.0, 1.0, 1.5],
            vec![1.0, 1.1, 1.2, 1.3],
            vec![1.0, 2.0, 2.0, 2.0],
        ] {
            let fake_row = speedups.user(user).inflate(&pattern).unwrap();
            let fake = speedups.with_replaced_row(user, fake_row).unwrap();
            let allocation = policy.allocate(&cluster, &fake).unwrap();
            let cheating_eff = speedups.user(user).dot(allocation.user_row(user));
            assert!(
                cheating_eff <= honest_eff + 1e-5,
                "user {user} gains {:.6} -> {:.6} with pattern {pattern:?}",
                honest_eff,
                cheating_eff
            );
        }
    }
}

#[test]
fn weighted_oef_preserves_fairness_properties_of_the_wrapped_mechanism() {
    let (cluster, speedups) = instance();
    let weights = [1u32, 2, 1, 3, 1];

    // Cooperative weighted OEF: per-unit-of-weight envy-freeness — a tenant's
    // per-weight throughput is at least what it would get from any other tenant's
    // per-weight share (checked by scaling rows back to unit weight).
    let allocation = WeightedOef::new(OefMode::Cooperative)
        .allocate_weighted(&cluster, &speedups, &weights)
        .unwrap();
    assert!(allocation.is_feasible(&cluster));
    for l in 0..speedups.num_users() {
        for i in 0..speedups.num_users() {
            let own: f64 = speedups.user(l).dot(allocation.user_row(l)) / weights[l] as f64;
            let other: f64 = speedups.user(l).dot(allocation.user_row(i)) / weights[i] as f64;
            assert!(
                own >= other - 1e-5,
                "tenant {l} envies tenant {i} per unit weight: {own} < {other}"
            );
        }
    }

    // Non-cooperative weighted OEF: throughput proportional to weights.
    let allocation = WeightedOef::new(OefMode::NonCooperative)
        .allocate_weighted(&cluster, &speedups, &weights)
        .unwrap();
    let eff = allocation.user_efficiencies(&speedups);
    let per_weight: Vec<f64> = eff
        .iter()
        .zip(weights.iter())
        .map(|(e, w)| e / *w as f64)
        .collect();
    for v in &per_weight {
        assert!(
            (v - per_weight[0]).abs() < 1e-5,
            "per-weight throughput not equalised: {per_weight:?}"
        );
    }
}

#[test]
fn lemma_31_slowest_user_fills_from_the_left() {
    // The slowest user's allocation under efficiency-maximising OEF fills GPU types
    // from the slowest end (Lemma 3.1): its rightmost nonzero may be fractional but
    // everything to the left of it is saturated or zero-capacity for others.
    let (cluster, speedups) = instance();
    let allocation = NonCooperativeOef::default()
        .allocate(&cluster, &speedups)
        .unwrap();
    // User 0 has the (weakly) lowest speedup on every type in this instance.
    let row = allocation.user_row(0);
    let last_nonzero = row.iter().rposition(|v| *v > 1e-6).unwrap_or(0);
    for j in 0..last_nonzero {
        // Every type strictly left of the rightmost nonzero is fully consumed by user 0
        // or fully allocated across users (no slack left unused on slow types).
        let total: f64 = (0..speedups.num_users())
            .map(|l| allocation.share(l, j))
            .sum();
        assert!(
            total >= cluster.capacity(j) - 1e-6 || row[j] >= cluster.capacity(j) - 1e-6,
            "slow GPU type {j} left partially idle while user 0 extends to type {last_nonzero}"
        );
    }
}

#[test]
fn speedup_vector_invariants_used_by_the_theorems() {
    let v = SpeedupVector::from_raw_throughputs(&[40.0, 52.0, 68.0]).unwrap();
    assert_eq!(v.speedup(0), 1.0);
    assert!(v.speedup(2) > v.speedup(1));
    let inflated = v.inflate(&[1.0, 1.2, 1.2]).unwrap();
    assert!(inflated.dominates(&v));
    assert!(!v.dominates(&inflated));
}
