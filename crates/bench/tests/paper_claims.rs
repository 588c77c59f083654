//! The paper's claims, executable.
//!
//! The paper makes two kinds of claim, and this file pins both.
//!
//! **Table 1** — which of PE / EF / SI / SP each mechanism guarantees.  What the two OEF
//! mechanisms promise is written once, in `oef_core::fairness::PROMISES`; the four
//! comparators get observed rows here.  Every cell is checked on the §2.4 worked
//! example, the four-tenant mix of §6.2 and 256 seeded random instances.  A promised
//! (or observed) cell must hold on all of them, and every other cell names a random
//! instance on which it fails, so a checker that goes vacuous fails the test.  The
//! matrix is printed (`cargo test -p oef-bench --test paper_claims -- --nocapture`);
//! a failing cell prints the instance that broke it.
//!
//! **The evaluation figures** — ordinal claims (OEF vs Max-Min, Gavel, Gandiva_fair)
//! asserted as orderings, never as pinned values: Fig. 1(b), Fig. 4, Fig. 5(a)/(b),
//! Fig. 8 (estimated), the rounding ablation of §4.3 and the straggler study of §6.3.3.
//! Fig. 6 (cooperative OEF is envy-free on the four-tenant mix) is the four-tenant
//! instance's EF cell of Table 1.
//!
//! **Retired claims.** These do not reproduce on this workspace's simulator.  They are
//! recorded with the numbers a release build gives, and not asserted; re-seeding,
//! resizing or re-mixing a workload until one passes would not make it true.
//!
//! | claim | OEF | Gandiva_fair | Gavel |
//! |---|---|---|---|
//! | Fig. 7: non-cooperative OEF has the highest estimated throughput | 36.004 | 36.236 | 36.289 |
//! | Fig. 7: … and the highest actual throughput | 30.547 | 30.537 | 30.614 |
//! | Fig. 8: cooperative OEF has the highest actual throughput | 30.337 | 30.537 | 30.614 |
//! | Fig. 9: cooperative OEF has the lowest mean JCT (s) | 40 112 | 39 617 | 39 995 |
//!
//! Figs. 7 and 8 ran `compare_policies` on `twenty_tenant_profiles(7)` with 3 jobs per
//! tenant for `DEFAULT_ROUNDS`.  Fig. 9 ran a 24-tenant, 8-jobs-each Philly-like trace
//! (seed 11, contention 1.2, one day of arrivals) in 10-minute rounds to completion.
//!
//! Fig. 4, "every honest user gains when user 1 cheats": user 3's actual throughput
//! over the first 40 minutes goes 8.906 → 8.137 (9.691 → 8.619 over the whole run).

use oef_bench::{
    compare_policies, four_tenant_profiles, matrix_from_profiles, print_table,
    twenty_tenant_profiles, DEFAULT_ROUNDS,
};
use oef_cluster::{DevicePlacer, RoundingPlacer};
use oef_core::fairness::{self, FairnessSummary, Property};
use oef_core::{
    Allocation, AllocationPolicy, BoxedPolicy, ClusterSpec, CooperativeOef, MultiJobOef,
    NonCooperativeOef, OefMode, SpeedupMatrix, SpeedupVector, TenantWorkload,
};
use oef_lp::{ConstraintOp, Problem, Sense};
use oef_schedulers::{all_policies, GandivaFair, Gavel, MaxMin};
use oef_sim::{Scenario, SimulationConfig, SimulationEngine, SimulationReport};
use oef_workloads::ModelCatalog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use Property::{
    EnvyFree as EF, ParetoEfficient as PE, SharingIncentive as SI, StrategyProof as SP,
};

/// Seeded random instances checked besides the two fixed ones.
const RANDOM_INSTANCES: usize = 256;
/// Speedup inflation factors of the strategy-proofness probe.
const PROBES: [f64; 3] = [1.2, 1.5, 2.0];
/// The random instance on which cooperative OEF is not Pareto-efficient: n = 5, k = 3.
const COOP_PE_COUNTEREXAMPLE: usize = 4;

/// Table 1's failing cells: per policy, each property it lacks and a random instance
/// on which it fails.  Every other cell holds on every instance — for the OEF rows,
/// exactly the cells `fairness::PROMISES` lists; for the comparators, what this
/// workspace's implementations are observed to do.
const COUNTEREXAMPLES: &[(&str, &[(Property, usize)])] = &[
    ("oef-noncooperative", &[(EF, 0), (SI, 0)]),
    ("oef-cooperative", &[(PE, COOP_PE_COUNTEREXAMPLE), (SP, 0)]),
    ("gavel", &[(EF, 0), (SP, 1)]),
    ("gandiva-fair", &[(PE, 3), (EF, 0), (SP, 1)]),
    ("max-min", &[(PE, 0)]),
    ("max-efficiency", &[(EF, 0), (SI, 0), (SP, 0)]),
];

struct Instance {
    label: String,
    cluster: ClusterSpec,
    speedups: SpeedupMatrix,
}

fn random_instance(rng: &mut StdRng) -> (ClusterSpec, SpeedupMatrix) {
    let k = rng.gen_range(2..=3);
    let n = rng.gen_range(2..=5);
    let capacities: Vec<f64> = (0..k).map(|_| rng.gen_range(1..=4) as f64).collect();
    let names: Vec<String> = (0..k).map(|j| format!("type{j}")).collect();
    let cluster = ClusterSpec::new(names.into_iter().zip(capacities).collect()).unwrap();
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            let mut row = vec![1.0];
            let mut last = 1.0;
            for _ in 1..k {
                last *= rng.gen_range(1.05..2.5);
                row.push(last);
            }
            row
        })
        .collect();
    (cluster, SpeedupMatrix::from_rows(rows).unwrap())
}

/// Instances before the random ones: counterexample `i` is `instances()[FIXED + i]`.
const FIXED: usize = 2;

/// The §2.4 worked example (Expression (1)), the four-tenant mix, then `random[0..256]`.
fn instances() -> Vec<Instance> {
    let worked_example = (
        ClusterSpec::homogeneous_counts(&["g1", "g2"], &[1.0, 1.0]).unwrap(),
        SpeedupMatrix::from_rows(vec![vec![1.0, 2.0], vec![1.0, 3.0], vec![1.0, 4.0]]).unwrap(),
    );
    let four_tenant_mix = (
        ClusterSpec::paper_evaluation_cluster(),
        matrix_from_profiles(&four_tenant_profiles()),
    );
    let mut rng = StdRng::seed_from_u64(2024);
    let random: Vec<_> = (0..RANDOM_INSTANCES)
        .map(|i| (format!("random[{i}]"), random_instance(&mut rng)))
        .collect();
    [
        ("§2.4 worked example".to_string(), worked_example),
        ("four-tenant mix".to_string(), four_tenant_mix),
    ]
    .into_iter()
    .chain(random)
    .map(|(label, (cluster, speedups))| Instance {
        label,
        cluster,
        speedups,
    })
    .collect()
}

/// Optimal value of problem (10) with every envy row present, from the dense
/// reference solver.
fn eager_problem_10_optimum(cluster: &ClusterSpec, speedups: &SpeedupMatrix) -> f64 {
    let n = speedups.num_users();
    let k = cluster.num_gpu_types();
    let mut problem = Problem::new(Sense::Maximize);
    let vars = problem.add_variables("x", n * k);
    for l in 0..n {
        for j in 0..k {
            problem.set_objective_coefficient(vars[l * k + j], speedups.speedup(l, j));
        }
    }
    for j in 0..k {
        let terms: Vec<_> = (0..n).map(|l| (vars[l * k + j], 1.0)).collect();
        problem.add_constraint(&terms, ConstraintOp::Le, cluster.capacity(j));
    }
    for l in 0..n {
        for i in (0..n).filter(|&i| i != l) {
            let mut terms: Vec<_> = (0..k)
                .map(|j| (vars[l * k + j], speedups.speedup(l, j)))
                .collect();
            terms.extend((0..k).map(|j| (vars[i * k + j], -speedups.speedup(l, j))));
            problem.add_constraint(&terms, ConstraintOp::Ge, 0.0);
        }
    }
    problem
        .solve()
        .expect("problem (10) is feasible")
        .objective_value()
}

#[test]
fn table_1() {
    let instances = instances();
    let mut printed = Vec::new();
    let mut broken = Vec::new();
    for policy in all_policies() {
        let name = policy.name();
        let fails = COUNTEREXAMPLES
            .iter()
            .find(|(row, _)| *row == name)
            .map(|(_, fails)| *fails)
            .expect("every policy has a Table 1 row");
        let summaries: Vec<FairnessSummary> = instances
            .iter()
            .map(|i| fairness::evaluate_policy(policy.as_ref(), &i.cluster, &i.speedups, &PROBES))
            .collect::<Result<_, _>>()
            .expect("policy evaluation succeeds");
        let mut cells = vec![name.to_string()];
        for property in Property::ALL {
            let counterexample = fails.iter().find(|(p, _)| *p == property).map(|f| f.1);
            if let Some((_, promised)) = fairness::PROMISES.iter().find(|(row, _)| *row == name) {
                assert_eq!(
                    promised.contains(&property),
                    counterexample.is_none(),
                    "{name} {}: PROMISES and the recorded counterexamples disagree",
                    property.abbreviation()
                );
            }
            let failures: Vec<usize> = (0..instances.len())
                .filter(|&i| !summaries[i].holds(property))
                .collect();
            cells.push(match failures.first() {
                None => "yes".to_string(),
                Some(&first) => format!("no ({}, {})", failures.len(), instances[first].label),
            });
            let wrong = match counterexample {
                None => failures.first().copied(),
                Some(index) => Some(FIXED + index).filter(|&i| summaries[i].holds(property)),
            };
            if let Some(i) = wrong {
                broken.push(format!(
                    "{name} {} {} {} {:?} {:?}\n  {:?}",
                    property.abbreviation(),
                    match counterexample {
                        None => "fails on",
                        Some(_) => "holds on its recorded counterexample",
                    },
                    instances[i].label,
                    instances[i].cluster,
                    instances[i].speedups,
                    summaries[i]
                ));
            }
        }
        printed.push(cells);
    }
    print_table(
        "Table 1 (yes = holds on all 258 instances; no = failure count, first failure)",
        &["policy", "PE", "EF", "SI", "SP"],
        &printed,
    );
    assert!(broken.is_empty(), "Table 1 broken:\n{}", broken.join("\n"));
}

#[test]
fn cooperative_pe_counterexample_is_the_problem_10_optimum() {
    // The counterexample is the formulation's, not the lazy row generation's: with
    // every envy row present the eager solve reaches the same total, so problem (10)
    // promises maximal efficiency among envy-free allocations, not Pareto efficiency.
    let instance = &instances()[FIXED + COOP_PE_COUNTEREXAMPLE];
    let (cluster, speedups) = (&instance.cluster, &instance.speedups);
    assert_eq!((speedups.num_users(), cluster.num_gpu_types()), (5, 3));
    let allocation = CooperativeOef::default()
        .allocate(cluster, speedups)
        .unwrap();
    let lazy = allocation.total_efficiency(speedups);
    let eager = eager_problem_10_optimum(cluster, speedups);
    println!("coop PE counterexample: lazy {lazy:.6}, eager problem (10) {eager:.6}");
    assert!(
        (lazy - eager).abs() <= 1e-9 * eager,
        "lazy {lazy} vs eager {eager}"
    );
    let pareto = fairness::check_pareto_efficiency(
        &allocation,
        speedups,
        cluster,
        fairness::DEFAULT_TOLERANCE,
    )
    .unwrap();
    assert!(pareto.improvable_by > 1e-3 * lazy, "{pareto:?}");
}

#[test]
fn noncooperative_oef_equalises_normalised_throughput() {
    for instance in instances() {
        let allocation = NonCooperativeOef::default()
            .allocate(&instance.cluster, &instance.speedups)
            .unwrap();
        let eff = allocation.user_efficiencies(&instance.speedups);
        let top = eff.iter().copied().fold(0.0, f64::max);
        for e in &eff {
            assert!(
                (e - eff[0]).abs() <= 1e-6 * top,
                "{}: unequal throughput {eff:?}",
                instance.label
            );
        }
    }
}

#[test]
fn cooperative_total_is_at_least_max_min() {
    for instance in instances() {
        let total = |policy: &dyn AllocationPolicy| {
            policy
                .allocate(&instance.cluster, &instance.speedups)
                .unwrap()
                .total_efficiency(&instance.speedups)
        };
        let (coop, max_min) = (total(&CooperativeOef::default()), total(&MaxMin::default()));
        assert!(
            coop >= max_min - 1e-9 * max_min,
            "{}: cooperative {coop} < max-min {max_min}",
            instance.label
        );
    }
}

#[test]
fn fig_1b_oef_beats_max_min_for_every_user() {
    let catalog = ModelCatalog::paper_catalog();
    let fastest = |name: &str| catalog.by_name(name).unwrap().base_speedup[2];
    let cluster = ClusterSpec::homogeneous_counts(&["rtx3070", "rtx3090"], &[1.0, 1.0]).unwrap();
    let speedups = SpeedupMatrix::from_rows(vec![
        vec![1.0, fastest("vgg16")],
        vec![1.0, fastest("lstm")],
    ])
    .unwrap();
    let max_min = MaxMin::default()
        .allocate(&cluster, &speedups)
        .unwrap()
        .user_efficiencies(&speedups);
    let oef = CooperativeOef::default()
        .allocate(&cluster, &speedups)
        .unwrap()
        .user_efficiencies(&speedups);
    let (mm_total, oef_total) = (max_min.iter().sum::<f64>(), oef.iter().sum::<f64>());
    println!("Fig. 1(b): max-min {max_min:?} = {mm_total:.3}, OEF {oef:?} = {oef_total:.3}");
    assert!(oef_total > mm_total);
    for (o, m) in oef.iter().zip(&max_min) {
        assert!(o >= &(m - 1e-9), "OEF {oef:?} vs max-min {max_min:?}");
    }
}

/// The four-tenant mix on the paper cluster, four 2-worker jobs each (Figs. 4, 5(a)).
fn four_tenant_engine() -> SimulationEngine {
    let mut scenario = Scenario::on_paper_cluster();
    for (name, speedup) in four_tenant_profiles() {
        scenario = scenario.with_tenant(name, speedup, 4, 2, 1e12);
    }
    SimulationEngine::new(scenario.build(), SimulationConfig::default())
}

/// Fig. 4's run: non-cooperative OEF for 16 five-minute rounds, user 4 leaving after
/// round 8, user 1 optionally inflating its reports.
fn fig_4_run(cheating_factor: Option<f64>) -> SimulationReport {
    let mut engine = four_tenant_engine();
    if let Some(factor) = cheating_factor {
        engine.state_mut().tenant_mut(0).cheat_with_factor(factor);
    }
    let policy = NonCooperativeOef::default();
    for round in 0..16 {
        if round == 8 {
            engine.state_mut().tenant_mut(3).departed = true;
        }
        engine.run_round(&policy).unwrap();
    }
    engine.report(policy.name())
}

#[test]
fn fig_4_cheating_lowers_the_cheater_and_the_cluster() {
    let honest = fig_4_run(None);
    let cheating = fig_4_run(Some(1.5));
    let user = |report: &SimulationReport| {
        (0..4)
            .map(|t| report.avg_tenant_actual(t))
            .collect::<Vec<_>>()
    };
    println!(
        "Fig. 4: per-user actual {:?} -> {:?}; total {:.2} -> {:.2}",
        user(&honest),
        user(&cheating),
        honest.avg_total_actual(),
        cheating.avg_total_actual()
    );
    assert!(cheating.avg_tenant_actual(0) < honest.avg_tenant_actual(0));
    assert!(cheating.avg_total_actual() < honest.avg_total_actual());
}

#[test]
fn fig_5a_cooperative_oef_gives_every_user_at_least_max_min() {
    let max_min = four_tenant_engine().run(&MaxMin::default(), 16).unwrap();
    let oef = four_tenant_engine()
        .run(&CooperativeOef::default(), 16)
        .unwrap();
    for tenant in 0..4 {
        let baseline = max_min.avg_tenant_estimated(tenant);
        let estimated = oef.avg_tenant_estimated(tenant) / baseline;
        let actual = oef.avg_tenant_actual(tenant) / baseline;
        println!(
            "Fig. 5(a): user {} estimated {estimated:.3}x actual {actual:.3}x",
            tenant + 1
        );
        assert!(estimated >= 1.0 && actual >= 1.0, "user {}", tenant + 1);
    }
}

#[test]
fn fig_5b_a_second_job_type_splits_its_tenant_evenly() {
    let cluster = ClusterSpec::paper_evaluation_cluster();
    let profiles = four_tenant_profiles();
    let before: Vec<TenantWorkload> = profiles
        .iter()
        .map(|(_, s)| TenantWorkload::single(s.clone()))
        .collect();
    let mut after = before.clone();
    after[0] = TenantWorkload::with_jobs(vec![
        profiles[0].1.clone(),
        SpeedupVector::new(vec![1.0, 1.6, 2.3]).unwrap(),
    ]);
    let solver = MultiJobOef::new(OefMode::NonCooperative);
    for workloads in [&before, &after] {
        let allocation = solver.allocate(&cluster, workloads).unwrap();
        let tenants: Vec<f64> = (0..4)
            .map(|t| allocation.tenant_efficiency(workloads, t))
            .collect();
        let user_1: Vec<f64> = (0..workloads[0].job_types.len())
            .map(|p| allocation.job_efficiency(workloads, 0, p))
            .collect();
        println!("Fig. 5(b): tenants {tenants:?}, user 1's job types {user_1:?}");
        for equal in [&tenants, &user_1] {
            for v in equal {
                assert!((v - equal[0]).abs() <= 1e-6 * equal[0], "{equal:?}");
            }
        }
    }
}

#[test]
fn fig_8_cooperative_oef_has_the_highest_estimated_throughput() {
    let policies: Vec<BoxedPolicy> = vec![
        Box::new(CooperativeOef::default()),
        Box::new(Gavel::default()),
        Box::new(GandivaFair::default()),
    ];
    let results = compare_policies(&policies, &twenty_tenant_profiles(7), 3, DEFAULT_ROUNDS);
    for r in &results {
        println!("Fig. 8: {} estimated {:.3}", r.policy, r.estimated);
    }
    for baseline in &results[1..] {
        assert!(
            results[0].estimated >= baseline.estimated,
            "cooperative OEF {:.6} below {} {:.6}",
            results[0].estimated,
            baseline.policy,
            baseline.estimated
        );
    }
}

#[test]
fn deviation_rounding_tracks_the_ideal_share_floor_rounding_does_not() {
    // Five tenants with an ideal 1.6 devices each of 8, over 48 rounds.
    const ROUNDS: usize = 48;
    let ideal = Allocation::new(vec![vec![1.6]; 5]).unwrap();
    let mut placer = RoundingPlacer::new(5, 1);
    let mut deviation = [0usize; 5];
    let mut floor = [0usize; 5];
    for _ in 0..ROUNDS {
        let counts = placer.round_shares(&ideal, &[8], &[1; 5]);
        for l in 0..5 {
            deviation[l] += counts[l][0];
            // Floor rounding without memory: 1 device a round (5 of 8 fit).
            floor[l] += ideal.share(l, 0).floor() as usize;
        }
    }
    let worst_gap = |totals: &[usize]| {
        totals
            .iter()
            .map(|&t| (1.6 * ROUNDS as f64 - t as f64).abs())
            .fold(0.0, f64::max)
    };
    let (deviation_gap, floor_gap) = (worst_gap(&deviation), worst_gap(&floor));
    println!("rounding: worst gap {deviation_gap:.1} (deviation) vs {floor_gap:.1} (floor)");
    assert!(deviation_gap < floor_gap);
}

/// §6.3.3's run: six tenants of 4-worker jobs on the paper cluster for the steady-state
/// horizon, returning (cross-type placements, straggler-affected workers, actual).
fn straggler_run(policy: &dyn AllocationPolicy, placer: DevicePlacer) -> (u64, u64, f64) {
    let catalog = ModelCatalog::paper_catalog();
    let mut scenario = Scenario::on_paper_cluster();
    for name in "vgg16 lstm resnet50 transformer rnn densenet121".split(' ') {
        let speedup = catalog.by_name(name).unwrap().speedup().unwrap();
        scenario = scenario.with_tenant(name, speedup, 3, 4, 1e12);
    }
    let config = SimulationConfig {
        placer,
        ..SimulationConfig::default()
    };
    let report = SimulationEngine::new(scenario.build(), config)
        .run(policy, DEFAULT_ROUNDS)
        .unwrap();
    (
        report.straggler.cross_type_placements,
        report.straggler.affected_workers,
        report.avg_total_actual(),
    )
}

#[test]
fn section_633_oef_has_the_fewest_stragglers_and_its_placer_helps() {
    let oef = straggler_run(&CooperativeOef::default(), DevicePlacer::new());
    for baseline in [
        &GandivaFair::default() as &dyn AllocationPolicy,
        &Gavel::default(),
    ] {
        let other = straggler_run(baseline, DevicePlacer::new());
        println!("§6.3.3: OEF {oef:?} vs {} {other:?}", baseline.name());
        assert!(oef.0 < other.0 && oef.1 < other.1, "{}", baseline.name());
    }
    let naive = straggler_run(&CooperativeOef::default(), DevicePlacer::naive());
    println!("§6.3.3: OEF placer {oef:?} vs naive placer {naive:?}");
    assert!(oef.0 < naive.0 && oef.1 < naive.1 && oef.2 > naive.2);
}
