//! Cross-crate integration tests: trace generation → scenario → simulation → metrics,
//! for every scheduler, exercising the whole stack through the facade crate.

use oef::cluster::ClusterTopology;
use oef::core::{AllocationPolicy, CooperativeOef, NonCooperativeOef};
use oef::schedulers::{all_policies, MaxMin};
use oef::sim::{Scenario, SimulationConfig, SimulationEngine};
use oef::workloads::{ModelCatalog, PhillyTraceGenerator, TraceConfig};

fn small_trace_config() -> TraceConfig {
    TraceConfig {
        num_tenants: 6,
        jobs_per_tenant: 3,
        duration_secs: 4.0 * 3600.0,
        contention: 0.8,
        cluster_devices: 24,
        speedup_jitter: 0.05,
        multi_model_fraction: 0.2,
        seed: 17,
    }
}

#[test]
fn every_policy_survives_a_trace_replay() {
    let trace = PhillyTraceGenerator::new(small_trace_config()).generate();
    for policy in all_policies() {
        let state = Scenario::from_trace(ClusterTopology::paper_cluster(), &trace);
        let config = SimulationConfig {
            round_secs: 600.0,
            ..Default::default()
        };
        let mut engine = SimulationEngine::new(state, config);
        let report = engine
            .run(policy.as_ref(), 12)
            .expect("simulation must not fail");
        assert_eq!(report.rounds.len(), 12);
        assert!(
            report.avg_total_actual() > 0.0,
            "{} produced zero throughput",
            policy.name()
        );
        // Throughput can never exceed what the whole cluster could deliver if every
        // device ran the fastest profile in the catalogue.
        let max_speedup = ModelCatalog::paper_catalog()
            .models()
            .iter()
            .flat_map(|m| m.base_speedup.iter().copied())
            .fold(0.0f64, f64::max);
        assert!(report.avg_total_actual() <= 24.0 * max_speedup * 1.1);
    }
}

#[test]
fn strategy_proofness_shows_up_in_the_simulator() {
    // Fig. 4(b) shape: under non-cooperative OEF, a tenant that inflates its reported
    // speedups ends up with *less* true throughput than when reporting honestly.
    let catalog = ModelCatalog::paper_catalog();
    let build = || {
        let mut scenario = Scenario::on_paper_cluster();
        for (i, name) in ["vgg16", "lstm", "resnet50", "transformer"]
            .iter()
            .enumerate()
        {
            let speedup = catalog.by_name(name).unwrap().speedup().unwrap();
            scenario = scenario.with_tenant(format!("tenant-{i}"), speedup, 3, 2, 1e12);
        }
        scenario.build()
    };

    let policy = NonCooperativeOef::default();

    let mut honest_engine = SimulationEngine::new(build(), SimulationConfig::default());
    let honest = honest_engine.run(&policy, 10).unwrap();

    let mut cheating_engine = SimulationEngine::new(build(), SimulationConfig::default());
    cheating_engine
        .state_mut()
        .tenant_mut(0)
        .cheat_with_factor(1.6);
    let cheating = cheating_engine.run(&policy, 10).unwrap();

    let honest_tput = honest.avg_tenant_estimated(0);
    let cheating_tput = cheating.avg_tenant_estimated(0);
    assert!(
        cheating_tput <= honest_tput + 1e-6,
        "cheating should not pay under non-cooperative OEF: {honest_tput} -> {cheating_tput}"
    );
}

#[test]
fn departures_rebalance_throughput() {
    // Fig. 4(a): when a tenant leaves, the remaining tenants' equalised throughput
    // increases (they split the freed resources).
    let catalog = ModelCatalog::paper_catalog();
    let mut scenario = Scenario::on_paper_cluster();
    for (i, name) in ["vgg16", "lstm", "resnet50", "transformer"]
        .iter()
        .enumerate()
    {
        let speedup = catalog.by_name(name).unwrap().speedup().unwrap();
        scenario = scenario.with_tenant(format!("tenant-{i}"), speedup, 3, 2, 1e12);
    }
    let mut engine = SimulationEngine::new(scenario.build(), SimulationConfig::default());
    let policy = NonCooperativeOef::default();
    for _ in 0..4 {
        engine.run_round(&policy).unwrap();
    }
    let before = engine.report(policy.name()).avg_tenant_estimated(0);
    engine.state_mut().tenant_mut(3).departed = true;
    for _ in 0..4 {
        engine.run_round(&policy).unwrap();
    }
    let report = engine.report(policy.name());
    let after_series = report.tenant_timeseries(0);
    let after: f64 = after_series
        .iter()
        .rev()
        .take(4)
        .map(|(_, v)| *v)
        .sum::<f64>()
        / 4.0;
    // Estimated throughput comparison needs the estimated series; use averages instead:
    // the last-4-round actual average should exceed the first-4-round estimated average
    // is too placement-noisy, so compare estimated directly.
    let est_before = before;
    let est_after: f64 = {
        let rounds = &report.rounds[4..];
        let vals: Vec<f64> = rounds
            .iter()
            .filter_map(|r| r.tenant(0).map(|t| t.estimated_throughput))
            .collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    };
    assert!(
        est_after > est_before * 1.05,
        "tenant 0 should speed up after a departure: {est_before} -> {est_after}"
    );
    let _ = after;
}

#[test]
fn max_min_is_the_floor_for_every_tenant_under_coop_oef() {
    // Sharing incentive at system level: each tenant's estimated throughput under
    // cooperative OEF is at least its Max-Min throughput.
    let catalog = ModelCatalog::paper_catalog();
    let mut scenario = Scenario::on_paper_cluster();
    for (i, name) in ["vgg16", "lstm", "rnn", "transformer"].iter().enumerate() {
        let speedup = catalog.by_name(name).unwrap().speedup().unwrap();
        scenario = scenario.with_tenant(format!("tenant-{i}"), speedup, 2, 2, 1e12);
    }

    let mut oef_engine = SimulationEngine::new(scenario.build(), SimulationConfig::default());
    let oef_report = oef_engine.run(&CooperativeOef::default(), 8).unwrap();
    let mut mm_engine = SimulationEngine::new(scenario.build(), SimulationConfig::default());
    let mm_report = mm_engine.run(&MaxMin::default(), 8).unwrap();

    for tenant in 0..4 {
        let oef_tput = oef_report.avg_tenant_estimated(tenant);
        let mm_tput = mm_report.avg_tenant_estimated(tenant);
        assert!(
            oef_tput >= mm_tput - 1e-6,
            "tenant {tenant}: OEF {oef_tput} below Max-Min {mm_tput}"
        );
    }
}
