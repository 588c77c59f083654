//! Figure 10 — scheduler overhead and sensitivity to profiling error.
//!
//! (a) Wall-clock time to solve the OEF allocation program as the number of users
//!     grows, with ten GPU types (the paper sweeps 100-300 users).  The cooperative
//!     program has O(n²) envy rows; the policy generates them lazily, which carries
//!     its sweep through 50 users in well under a second a point and to 100 in about
//!     one (150 takes ~7 s — the shape, cooperative growing much faster than
//!     non-cooperative, is the paper's).
//!     Every OEF policy keeps a warm-start `oef_lp::SolverContext` behind
//!     `allocate`, so the harness measures what a *deployed* scheduler pays: one
//!     cold solve when the tenant mix first appears, then warm re-solves round
//!     after round as the reported speedups drift — here *every* tenant's whole
//!     profile each round, the worst case for the cooperative working set.  Both
//!     numbers are reported per size.
//! (b) Deviation between the throughput OEF promises based on (noisy) reported
//!     profiles and the throughput achieved with the true profiles, as the profiling
//!     error grows to ±20%.

use oef_bench::{print_json_record, print_table};
use oef_cluster::Profiler;
use oef_core::{
    AllocationPolicy, ClusterSpec, CooperativeOef, NonCooperativeOef, SpeedupMatrix, SpeedupVector,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const NUM_GPU_TYPES: usize = 10;

fn random_cluster_and_users(num_users: usize, seed: u64) -> (ClusterSpec, SpeedupMatrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let names: Vec<String> = (0..NUM_GPU_TYPES).map(|j| format!("gpu{j}")).collect();
    let capacities: Vec<f64> = (0..NUM_GPU_TYPES)
        .map(|_| rng.gen_range(4..=16) as f64)
        .collect();
    let cluster = ClusterSpec::new(names.into_iter().zip(capacities).collect()).unwrap();
    let rows: Vec<Vec<f64>> = (0..num_users)
        .map(|_| {
            let mut row = vec![1.0];
            let mut last = 1.0;
            for _ in 1..NUM_GPU_TYPES {
                last *= rng.gen_range(1.02..1.35);
                row.push(last);
            }
            row
        })
        .collect();
    (cluster, SpeedupMatrix::from_rows(rows).unwrap())
}

fn time_solve(policy: &dyn AllocationPolicy, cluster: &ClusterSpec, users: &SpeedupMatrix) -> f64 {
    let start = Instant::now();
    policy
        .allocate(cluster, users)
        .expect("allocation must succeed");
    start.elapsed().as_secs_f64()
}

/// Rounds of the steady-state sequence each size is measured over (first
/// round cold, remainder warm-started from the cached basis).
const ROUNDS: usize = 6;

/// Jitters every non-slowest speedup entry by a few percent, emulating the
/// round-to-round drift of reported profiles without changing the LP shape.
fn drift(users: &SpeedupMatrix, round: usize, seed: u64) -> SpeedupMatrix {
    let mut rng = StdRng::seed_from_u64(seed ^ (round as u64).wrapping_mul(0x9e37_79b9));
    let rows: Vec<Vec<f64>> = (0..users.num_users())
        .map(|l| {
            let row = users.user(l).as_slice();
            row.iter()
                .enumerate()
                .map(|(j, &s)| {
                    if j == 0 {
                        1.0
                    } else {
                        (s * rng.gen_range(0.98..1.02)).max(1.0)
                    }
                })
                .collect()
        })
        .collect();
    SpeedupMatrix::from_rows(rows).expect("jittered rows stay valid")
}

/// Measures one policy instance over a round sequence: returns the cold
/// first-solve time and the mean warm re-solve time.
fn time_rounds(
    policy: &dyn AllocationPolicy,
    cluster: &ClusterSpec,
    users: &SpeedupMatrix,
    seed: u64,
) -> (f64, f64) {
    let cold = time_solve(policy, cluster, users);
    let mut warm_total = 0.0;
    for round in 1..ROUNDS {
        let drifted = drift(users, round, seed);
        warm_total += time_solve(policy, cluster, &drifted);
    }
    (cold, warm_total / (ROUNDS - 1) as f64)
}

fn fig10a() {
    let noncoop_sizes = [50usize, 100, 150, 200, 300];
    let coop_sizes = [10usize, 20, 30, 40, 50, 100];

    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut measure = |mode: &str, n: usize, policy: &dyn AllocationPolicy, seed: u64| {
        let (cluster, users) = random_cluster_and_users(n, seed);
        let (cold, warm) = time_rounds(policy, &cluster, &users, seed);
        rows.push(vec![
            mode.to_string(),
            n.to_string(),
            format!("{cold:.3}"),
            format!("{warm:.4}"),
            format!("{:.1}x", cold / warm.max(1e-12)),
        ]);
        json.push(serde_json::json!({
            "mode": mode, "users": n, "cold_seconds": cold, "warm_seconds": warm,
        }));
    };
    for &n in &noncoop_sizes {
        measure("noncoop", n, &NonCooperativeOef::default(), 100 + n as u64);
    }
    for &n in &coop_sizes {
        measure("coop", n, &CooperativeOef::default(), 200 + n as u64);
    }
    print_table(
        "Fig. 10(a): fair-share evaluator overhead (10 GPU types, warm-started rounds)",
        &[
            "mode",
            "users",
            "cold solve (s)",
            "warm re-solve (s)",
            "speedup",
        ],
        &rows,
    );
    print_json_record("fig10a", &json);
}

fn fig10b() {
    // Deviation between the throughput promised under noisy profiles and the throughput
    // those same allocations deliver under the true profiles.
    let error_rates = [-0.2f64, -0.1, 0.0, 0.1, 0.2];
    let (cluster, truth) = {
        let profiles = oef_bench::twenty_tenant_profiles(3);
        (
            ClusterSpec::paper_evaluation_cluster(),
            oef_bench::matrix_from_profiles(&profiles),
        )
    };
    let policy = CooperativeOef::default();

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for &error in &error_rates {
        let profiler = Profiler::new(error.abs(), 42);
        let noisy_rows: Vec<SpeedupVector> = (0..truth.num_users())
            .map(|l| profiler.profile(truth.user(l), l as u64).unwrap())
            .collect();
        let noisy = SpeedupMatrix::new(noisy_rows).unwrap();
        let allocation = policy.allocate(&cluster, &noisy).unwrap();

        let promised: f64 = (0..truth.num_users())
            .map(|l| noisy.user(l).dot(allocation.user_row(l)))
            .sum();
        let achieved: f64 = allocation.total_efficiency(&truth);
        let deviation = (promised - achieved).abs() / achieved;
        rows.push(vec![
            format!("{:+.0}%", error * 100.0),
            format!("{promised:.2}"),
            format!("{achieved:.2}"),
            format!("{:.2}%", deviation * 100.0),
        ]);
        json.push(serde_json::json!({
            "error_rate": error, "promised": promised, "achieved": achieved,
            "deviation": deviation,
        }));
    }
    print_table(
        "Fig. 10(b): throughput deviation vs profiling error (cooperative OEF, 20 tenants)",
        &["profiling error", "promised", "achieved", "deviation"],
        &rows,
    );
    print_json_record("fig10b", &json);
}

fn main() {
    fig10a();
    fig10b();
}
