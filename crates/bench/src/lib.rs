//! # oef-bench — shared helpers for the experiment harness
//!
//! The paper's evaluation setups, shared by `tests/paper_claims.rs` (Table 1 and the
//! ordinal results of the evaluation figures, as assertions), the `fig10_overhead`
//! binary and the criterion benches: the standard tenant mixes, steady-state policy
//! comparisons through the simulator, and aligned tables plus machine-readable
//! `JSON {...}` lines for printed results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use oef_cluster::ClusterTopology;
use oef_core::{AllocationPolicy, BoxedPolicy, SpeedupMatrix, SpeedupVector};
use oef_sim::{Scenario, SimulationConfig, SimulationEngine, SimulationReport};
use oef_workloads::ModelCatalog;
use serde::Serialize;

/// Number of scheduling rounds used by the steady-state throughput comparisons.
pub const DEFAULT_ROUNDS: usize = 24;

/// The four-tenant mix used by the paper's small-scale fairness experiments (§6.2):
/// one VGG-like, one LSTM-like, one ResNet-like and one Transformer-like tenant.
pub fn four_tenant_profiles() -> Vec<(String, SpeedupVector)> {
    let catalog = ModelCatalog::paper_catalog();
    ["vgg16", "lstm", "resnet50", "transformer"]
        .iter()
        .map(|name| {
            let model = catalog.by_name(name).expect("catalogue model");
            (name.to_string(), model.speedup().expect("valid profile"))
        })
        .collect()
}

/// Builds the 20-tenant mix of §6.3.1: each tenant owns jobs of a single model family
/// with small hyper-parameter jitter.
pub fn twenty_tenant_profiles(seed: u64) -> Vec<(String, SpeedupVector)> {
    let catalog = ModelCatalog::paper_catalog();
    (0..20)
        .map(|t| {
            let model = catalog.pick(seed.wrapping_add(t * 31));
            let speedup = model
                .speedup_with_jitter(0.05, seed ^ (t << 8))
                .expect("valid jittered profile");
            (format!("{}-{t}", model.name), speedup)
        })
        .collect()
}

/// Builds a speedup matrix from named profiles.
pub fn matrix_from_profiles(profiles: &[(String, SpeedupVector)]) -> SpeedupMatrix {
    SpeedupMatrix::new(profiles.iter().map(|(_, s)| s.clone()).collect())
        .expect("profiles share the GPU-type count")
}

/// Number of workers per job in the steady-state throughput comparisons.  Multi-worker
/// jobs are what make placement quality (host packing, single-GPU-type placement)
/// visible in the "actual" throughput numbers, as in the paper's distributed-training
/// workload.
pub const STEADY_STATE_WORKERS: usize = 4;

/// Runs one policy over a freshly built scenario of long-running jobs and returns its
/// report.  Every tenant gets `jobs_per_tenant` jobs with effectively infinite work so
/// the comparison measures steady-state throughput.
pub fn run_steady_state(
    policy: &dyn AllocationPolicy,
    profiles: &[(String, SpeedupVector)],
    jobs_per_tenant: usize,
    rounds: usize,
    config: SimulationConfig,
) -> SimulationReport {
    let mut scenario = Scenario::new(ClusterTopology::paper_cluster());
    for (name, speedup) in profiles {
        scenario = scenario.with_tenant(
            name.clone(),
            speedup.clone(),
            jobs_per_tenant,
            STEADY_STATE_WORKERS,
            1e12,
        );
    }
    let state = scenario.build();
    let mut engine = SimulationEngine::new(state, config);
    engine
        .run(policy, rounds)
        .expect("steady-state simulation must not fail")
}

/// One row of a policy-comparison table.
#[derive(Debug, Clone)]
pub struct PolicyThroughput {
    /// Policy name.
    pub policy: String,
    /// Average total estimated throughput.
    pub estimated: f64,
    /// Average total actual throughput.
    pub actual: f64,
}

/// Placement configuration a policy runs with in end-to-end comparisons: the OEF
/// mechanisms use the paper's placer (§4.3), while the baselines — which have no
/// placement optimisation of their own — use the naive placer, mirroring the paper's
/// "actual throughput" comparison in Fig. 7/8.
pub fn placer_for(policy_name: &str) -> oef_cluster::DevicePlacer {
    if policy_name.starts_with("oef") {
        oef_cluster::DevicePlacer::new()
    } else {
        oef_cluster::DevicePlacer::naive()
    }
}

/// Runs the steady-state comparison for several policies.  OEF policies use the OEF
/// placer; baselines use the naive placer (see [`placer_for`]).
pub fn compare_policies(
    policies: &[BoxedPolicy],
    profiles: &[(String, SpeedupVector)],
    jobs_per_tenant: usize,
    rounds: usize,
) -> Vec<PolicyThroughput> {
    policies
        .iter()
        .map(|policy| {
            let config = SimulationConfig {
                placer: placer_for(policy.name()),
                ..SimulationConfig::default()
            };
            let report =
                run_steady_state(policy.as_ref(), profiles, jobs_per_tenant, rounds, config);
            PolicyThroughput {
                policy: policy.name().to_string(),
                estimated: report.avg_total_estimated(),
                actual: report.avg_total_actual(),
            }
        })
        .collect()
}

/// Prints an aligned table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:width$}", h, width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Prints a machine-readable `JSON {...}` record of one experiment's results.
pub fn print_json_record<T: Serialize>(experiment: &str, payload: &T) {
    let value = serde_json::json!({ "experiment": experiment, "data": payload });
    println!("JSON {value}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use oef_core::NonCooperativeOef;

    #[test]
    fn profile_builders_are_consistent() {
        let four = four_tenant_profiles();
        assert_eq!(four.len(), 4);
        let twenty = twenty_tenant_profiles(1);
        assert_eq!(twenty.len(), 20);
        let m = matrix_from_profiles(&twenty);
        assert_eq!(m.num_users(), 20);
        assert_eq!(m.num_gpu_types(), 3);
    }

    #[test]
    fn steady_state_run_produces_throughput() {
        let profiles = four_tenant_profiles();
        let report = run_steady_state(
            &NonCooperativeOef::default(),
            &profiles,
            2,
            4,
            SimulationConfig::default(),
        );
        assert_eq!(report.rounds.len(), 4);
        assert!(report.avg_total_actual() > 0.0);
    }
}
