//! Output oracle: every workload ends by checking what the daemon *served*
//! against an independent cold solve.  A failed check counts into
//! `ops_failed` — a faster daemon that hands out a worse or unfair
//! allocation fails the benchmark.

use crate::daemon::Driver;
use crate::layers::Spans;
use crate::script::Spec;
use oef_core::{fairness, Allocation, ClusterSpec, SpeedupMatrix};
use oef_service::{policy_from_name, RoundSummary};

/// Relative tolerance on objectives and per-tenant throughputs.
const TOL: f64 = 1e-6;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * a.abs().max(b.abs()).max(1.0)
}

/// Checks the last served round, shard by shard, against a fresh policy's
/// cold `allocate_mut` on the `(ClusterSpec, SpeedupMatrix)` reconstructed
/// from what the client sent: same objective to 1e-6, equal normalised
/// throughput (non-cooperative) or envy-freeness + sharing incentive
/// (cooperative) on the *served* shares.  Returns the cold solve times in ms
/// (`policy.allocate_cold_ms`); the traced run records each as an
/// `allocate_mut` span.
pub fn check_final_round(
    spec: &Spec,
    driver: &mut Driver,
    mut spans: Option<&mut Spans>,
) -> Vec<f64> {
    let Some(summary) = driver.last_round.take() else {
        driver.fail("no round was served".to_string());
        return Vec::new();
    };
    let mut cold_ms = Vec::new();
    for shard in 0..driver.shards() {
        let inputs = driver.shard_inputs(shard, &summary);
        if inputs.served.is_empty() {
            continue;
        }
        let Some(rows) = inputs.rows.into_iter().collect::<Option<Vec<_>>>() else {
            driver.fail(format!(
                "shard {shard}: served a handle the client never held"
            ));
            continue;
        };
        let built = ClusterSpec::new(inputs.capacity)
            .and_then(|c| SpeedupMatrix::from_rows(rows).map(|s| (c, s)))
            .and_then(|(c, s)| {
                let shares = inputs.served.iter().map(|t| t.gpu_shares.clone()).collect();
                Allocation::new(shares).map(|a| (c, s, a))
            });
        let (cluster, speedups, served) = match built {
            Ok(built) => built,
            Err(e) => {
                driver.fail(format!(
                    "shard {shard}: served round is not an allocation: {e}"
                ));
                continue;
            }
        };

        // The promise in the reply must be the value of the shares in it.
        for (l, t) in inputs.served.iter().enumerate() {
            if !close(t.estimated_throughput, served.user_efficiency(l, &speedups)) {
                driver.fail(format!(
                    "shard {shard}: tenant {} promised {} but its shares are worth {}",
                    t.tenant,
                    t.estimated_throughput,
                    served.user_efficiency(l, &speedups)
                ));
                break;
            }
        }

        let mut policy = policy_from_name(spec.policy).expect("workload policies are built in");
        let (cold, t) = Spans::timed(spans.as_deref_mut(), "allocate_mut", shard as u64, || {
            policy.allocate_mut(&cluster, &speedups)
        });
        cold_ms.push(t * 1e3);
        match cold {
            Ok(cold) => {
                let (got, want) = (
                    served.total_efficiency(&speedups),
                    cold.total_efficiency(&speedups),
                );
                if !close(got, want) {
                    driver.fail(format!(
                        "shard {shard}: served objective {got} vs cold optimum {want}"
                    ));
                }
            }
            Err(e) => driver.fail(format!("shard {shard}: cold solve failed: {e}")),
        }

        if spec.policy == "oef-cooperative" {
            let envy = fairness::check_envy_freeness(&served, &speedups, TOL);
            if !envy.envy_free {
                driver.fail(format!("shard {shard}: served envy {}", envy.max_envy));
            }
            let si = fairness::check_sharing_incentive(&served, &speedups, &cluster, TOL);
            if !si.sharing_incentive {
                driver.fail(format!("shard {shard}: sharing incentive {}", si.min_ratio));
            }
        } else {
            let eff = served.user_efficiencies(&speedups);
            let (lo, hi) = eff.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &e| {
                (lo.min(e), hi.max(e))
            });
            if !close(lo, hi) {
                driver.fail(format!(
                    "shard {shard}: normalised throughput spans {lo}..{hi}"
                ));
            }
        }
    }
    cold_ms
}

/// The recovered daemon's next round must be the uninterrupted twin's: same
/// tenants, same promised throughput and fractional shares to 1e-6.  Whole
/// devices held are *not* compared: the rounding placer breaks ties between
/// equal shares on their last bits, and a recovered solver (re-warmed from
/// the snapshot) reproduces the shares to ~1e-13, not bit for bit.
pub fn check_same_round(driver: &mut Driver, recovered: &RoundSummary, twin: &RoundSummary) {
    let same = recovered.round == twin.round
        && recovered.tenants.len() == twin.tenants.len()
        && recovered.tenants.iter().zip(&twin.tenants).all(|(r, t)| {
            r.tenant == t.tenant
                && close(r.estimated_throughput, t.estimated_throughput)
                && r.gpu_shares.len() == t.gpu_shares.len()
                && r.gpu_shares
                    .iter()
                    .zip(&t.gpu_shares)
                    .all(|(a, b)| close(*a, *b))
        });
    if !same {
        driver.fail(format!(
            "recovered daemon diverged from its twin at round {}",
            twin.round
        ));
    }
}
