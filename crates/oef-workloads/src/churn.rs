//! Live command streams: a batch [`Trace`] replayed as tenant churn.
//!
//! The online service consumes *events over time* — tenants joining with a
//! profile, submitting jobs as they arrive, occasionally re-profiling, and
//! leaving once their work is done — rather than a scenario built up front.
//! [`ChurnTrace::from_trace`] derives exactly that stream from a Philly-like
//! trace: each trace tenant joins one round before its first job arrives,
//! jobs become `SubmitJob` events at their arrival rounds, every
//! `reprofile_every_rounds` rounds the tenant re-reports a jittered profile,
//! and the tenant leaves `linger_rounds` after its last arrival.  With
//! `host_churn_every_rounds` set, transient hosts also join and leave on a
//! fixed cadence so the stream exercises topology churn against the stable
//! host-handle layer.  The driver (`rebalance_e2e`) walks rounds
//! `0..rounds`, applies the events due at each round, then ticks.

use crate::trace::Trace;
use serde::{Deserialize, Serialize};

/// Job payload of a churn event (the service assigns ids and speedups).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnJob {
    /// Model name.
    pub model: String,
    /// Worker demand.
    pub workers: usize,
    /// Total work in slow-GPU seconds.
    pub total_work: f64,
}

/// What happens to one tenant at one round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChurnEventKind {
    /// The tenant registers with the service.
    Join {
        /// Priority weight.
        weight: u32,
        /// Reported speedup profile.
        speedup: Vec<f64>,
    },
    /// The tenant deregisters.
    Leave,
    /// The tenant re-reports its profile.
    UpdateSpeedups {
        /// New reported profile.
        speedup: Vec<f64>,
    },
    /// The tenant submits a job.
    SubmitJob(ChurnJob),
    /// A host joins the cluster.  The event's `subject` is the host *tag*:
    /// the driver maps tags to the stable host handles the service mints.
    AddHost {
        /// GPU type index (slowest first).
        gpu_type: usize,
        /// Devices on the new host.
        num_gpus: usize,
    },
    /// The host tagged by the event's `subject` leaves the cluster.
    RemoveHost,
}

/// One event of the stream: a subject (tenant by trace name, or host by tag)
/// does something at a round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// Round index the event is due at.
    pub round: usize,
    /// Trace tenant name for tenant events, host tag for host events (the
    /// driver maps either to the service handles it receives).
    pub subject: String,
    /// The event.
    pub kind: ChurnEventKind,
}

/// Knobs of the trace-to-stream derivation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Seconds per scheduling round (Philly arrival times are bucketed by
    /// this).
    pub round_secs: f64,
    /// Rounds a tenant lingers after its last job arrival before leaving.
    pub linger_rounds: usize,
    /// Every this many rounds after joining, a tenant re-reports a slightly
    /// jittered profile (0 disables re-profiling).
    pub reprofile_every_rounds: usize,
    /// Relative jitter applied on each re-profile.
    pub reprofile_jitter: f64,
    /// Zipf-ish skew of per-tenant job weight (0 disables, leaving every
    /// tenant its trace-given jobs).  With skew `s`, the tenant at rank `r`
    /// (trace order) carries weight `(r + 1)^-s` of the total job budget:
    /// a few head tenants hold most of the jobs and stay active (and
    /// registered) for the whole horizon, while tail tenants run one small
    /// job and leave early.  Under least-loaded placement — which balances
    /// *registered* counts at join time and never looks again — that is
    /// exactly the uneven churn that strands load on whichever shards the
    /// head tenants landed on, which is what the rebalancer exists to fix.
    pub skew: f64,
    /// Every this many rounds a transient host joins the cluster, cycling
    /// through the GPU types (0 disables topology churn).  Only hosts the
    /// stream itself added are ever removed, so the base topology keeps every
    /// GPU type backed by capacity.
    pub host_churn_every_rounds: usize,
    /// Rounds a churned host stays before its `RemoveHost` event (a host
    /// whose removal would fall past the horizon simply stays).
    pub host_churn_linger_rounds: usize,
    /// Devices on each churned host.
    pub host_churn_gpus: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self {
            round_secs: 300.0,
            linger_rounds: 12,
            reprofile_every_rounds: 24,
            reprofile_jitter: 0.03,
            skew: 0.0,
            host_churn_every_rounds: 0,
            host_churn_linger_rounds: 30,
            host_churn_gpus: 4,
        }
    }
}

/// A round-indexed event stream plus its horizon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnTrace {
    /// Events sorted by round (stable by construction order within a round:
    /// joins precede submissions precede profile updates precede leaves).
    pub events: Vec<ChurnEvent>,
    /// One past the last round that has an event.
    pub rounds: usize,
}

impl ChurnTrace {
    /// Derives a churn stream from a batch trace.
    pub fn from_trace(trace: &Trace, config: &ChurnConfig) -> Self {
        let round_of = |secs: f64| (secs / config.round_secs).floor().max(0.0) as usize;
        let mut events = Vec::new();
        // Per-tenant job multiplicity.  Without skew every tenant submits
        // exactly its trace jobs; with skew the total job budget is
        // redistributed zipf-ishly by tenant rank — head tenants replay
        // their job list several times over, tail tenants keep only the
        // first job or two (and therefore leave early).
        let job_counts: Vec<usize> = if config.skew > 0.0 {
            let total_jobs: usize = trace.tenants.iter().map(|t| t.jobs.len()).sum();
            let weights: Vec<f64> = trace
                .tenants
                .iter()
                .enumerate()
                .map(|(rank, t)| {
                    if t.jobs.is_empty() {
                        0.0
                    } else {
                        1.0 / ((rank + 1) as f64).powf(config.skew)
                    }
                })
                .collect();
            let weight_sum: f64 = weights.iter().sum();
            weights
                .iter()
                .map(|&w| {
                    if w == 0.0 || weight_sum == 0.0 {
                        0
                    } else {
                        ((total_jobs as f64 * w / weight_sum).round() as usize).max(1)
                    }
                })
                .collect()
        } else {
            trace.tenants.iter().map(|t| t.jobs.len()).collect()
        };
        for (rank, tenant) in trace.tenants.iter().enumerate() {
            let Some(first) = tenant.jobs.first() else {
                continue;
            };
            let join_round = round_of(first.arrival_time).saturating_sub(1);
            let profile = first.speedup.as_slice().to_vec();
            events.push(ChurnEvent {
                round: join_round,
                subject: tenant.name.clone(),
                kind: ChurnEventKind::Join {
                    weight: tenant.weight,
                    speedup: profile.clone(),
                },
            });

            let mut last_round = join_round;
            // Cycling the tenant's own job list keeps arrival rounds, model
            // mix and sizes realistic while hitting the (possibly skewed)
            // job count: a head tenant re-submits its recurring jobs, a tail
            // tenant keeps only its earliest ones.
            for i in 0..job_counts[rank] {
                let job = &tenant.jobs[i % tenant.jobs.len()];
                let round = round_of(job.arrival_time).max(join_round);
                last_round = last_round.max(round);
                events.push(ChurnEvent {
                    round,
                    subject: tenant.name.clone(),
                    kind: ChurnEventKind::SubmitJob(ChurnJob {
                        model: job.model.clone(),
                        workers: job.workers,
                        total_work: job.total_work,
                    }),
                });
            }

            let leave_round = last_round + config.linger_rounds.max(1);
            if config.reprofile_every_rounds > 0 {
                let mut round = join_round + config.reprofile_every_rounds;
                let mut flip = 1.0f64;
                while round < leave_round {
                    // Deterministic ±jitter alternation keeps the stream
                    // reproducible without a second RNG.
                    let factor = 1.0 + config.reprofile_jitter * flip;
                    flip = -flip;
                    let jittered: Vec<f64> = profile
                        .iter()
                        .enumerate()
                        .map(|(j, &s)| if j == 0 { 1.0 } else { (s * factor).max(1.0) })
                        .collect();
                    events.push(ChurnEvent {
                        round,
                        subject: tenant.name.clone(),
                        kind: ChurnEventKind::UpdateSpeedups { speedup: jittered },
                    });
                    round += config.reprofile_every_rounds;
                }
            }
            events.push(ChurnEvent {
                round: leave_round,
                subject: tenant.name.clone(),
                kind: ChurnEventKind::Leave,
            });
        }
        // Topology churn: transient hosts join on a fixed cadence (cycling
        // through the GPU types) and leave after their linger window, so soak
        // traces exercise host add/remove against live tenants.  Hosts are
        // only ever removed if the stream added them, leaving the base
        // topology's capacity untouched.
        let tenant_horizon = events.iter().map(|e| e.round + 1).max().unwrap_or(0);
        if config.host_churn_every_rounds > 0 && tenant_horizon > 0 {
            let num_gpu_types = trace
                .tenants
                .iter()
                .find_map(|t| t.jobs.first())
                .map(|j| j.speedup.as_slice().len())
                .unwrap_or(0);
            let mut add_round = config.host_churn_every_rounds;
            let mut index = 0usize;
            while add_round < tenant_horizon && num_gpu_types > 0 {
                let tag = format!("churn-host-{index}");
                events.push(ChurnEvent {
                    round: add_round,
                    subject: tag.clone(),
                    kind: ChurnEventKind::AddHost {
                        gpu_type: index % num_gpu_types,
                        num_gpus: config.host_churn_gpus.max(1),
                    },
                });
                let remove_round = add_round + config.host_churn_linger_rounds.max(1);
                if remove_round < tenant_horizon {
                    events.push(ChurnEvent {
                        round: remove_round,
                        subject: tag,
                        kind: ChurnEventKind::RemoveHost,
                    });
                }
                add_round += config.host_churn_every_rounds;
                index += 1;
            }
        }
        // Stable sort keeps the per-subject causal order within a round.
        events.sort_by_key(|e| e.round);
        let rounds = events.iter().map(|e| e.round + 1).max().unwrap_or(0);
        Self { events, rounds }
    }

    /// Events due at `round`, in causal order.
    pub fn events_at(&self, round: usize) -> impl Iterator<Item = &ChurnEvent> {
        // Events are sorted by round; a binary search bounds the slice.
        let start = self.events.partition_point(|e| e.round < round);
        let end = self.events.partition_point(|e| e.round <= round);
        self.events[start..end].iter()
    }

    /// Total number of events.
    pub fn num_events(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::philly::{PhillyTraceGenerator, TraceConfig};

    fn small_churn() -> ChurnTrace {
        let trace = PhillyTraceGenerator::new(TraceConfig {
            num_tenants: 6,
            jobs_per_tenant: 4,
            duration_secs: 6.0 * 3600.0,
            ..TraceConfig::default()
        })
        .generate();
        ChurnTrace::from_trace(&trace, &ChurnConfig::default())
    }

    #[test]
    fn every_tenant_joins_before_submitting_and_eventually_leaves() {
        let churn = small_churn();
        for name in (0..6).map(|t| format!("tenant-{t}")) {
            let events: Vec<&ChurnEvent> =
                churn.events.iter().filter(|e| e.subject == name).collect();
            assert!(
                matches!(
                    events.first().map(|e| &e.kind),
                    Some(ChurnEventKind::Join { .. })
                ),
                "{name} must join first"
            );
            assert!(
                matches!(events.last().map(|e| &e.kind), Some(ChurnEventKind::Leave)),
                "{name} must leave last"
            );
            let join_round = events[0].round;
            let leave_round = events.last().unwrap().round;
            for event in &events {
                assert!((join_round..=leave_round).contains(&event.round));
            }
            assert!(
                events
                    .iter()
                    .filter(|e| matches!(e.kind, ChurnEventKind::SubmitJob(_)))
                    .count()
                    >= 1
            );
        }
    }

    #[test]
    fn events_at_covers_the_whole_stream_in_order() {
        let churn = small_churn();
        let mut seen = 0;
        for round in 0..churn.rounds {
            for event in churn.events_at(round) {
                assert_eq!(event.round, round);
                seen += 1;
            }
        }
        assert_eq!(seen, churn.num_events());
        assert_eq!(churn.events_at(churn.rounds).count(), 0);
    }

    #[test]
    fn reprofile_events_keep_valid_profiles() {
        let churn = small_churn();
        let mut reprofiles = 0;
        for event in &churn.events {
            if let ChurnEventKind::UpdateSpeedups { speedup } = &event.kind {
                reprofiles += 1;
                assert_eq!(speedup[0], 1.0, "slowest-GPU entry stays normalised");
                assert!(speedup.iter().all(|&s| s >= 1.0));
            }
        }
        assert!(reprofiles > 0, "default config produces re-profiles");
    }

    #[test]
    fn derivation_is_deterministic_and_serializable() {
        let a = small_churn();
        let b = small_churn();
        assert_eq!(a, b);
        let json = serde_json::to_string(&a).unwrap();
        let back: ChurnTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn skew_redistributes_jobs_toward_head_tenants() {
        let trace = PhillyTraceGenerator::new(TraceConfig {
            num_tenants: 8,
            jobs_per_tenant: 6,
            duration_secs: 6.0 * 3600.0,
            ..TraceConfig::default()
        })
        .generate();
        let uniform = ChurnTrace::from_trace(&trace, &ChurnConfig::default());
        let skewed = ChurnTrace::from_trace(
            &trace,
            &ChurnConfig {
                skew: 1.2,
                ..ChurnConfig::default()
            },
        );
        let jobs_of = |churn: &ChurnTrace, name: &str| {
            churn
                .events
                .iter()
                .filter(|e| e.subject == name && matches!(e.kind, ChurnEventKind::SubmitJob(_)))
                .count()
        };
        let head = jobs_of(&skewed, "tenant-0");
        let tail = jobs_of(&skewed, "tenant-7");
        assert!(
            head > jobs_of(&uniform, "tenant-0"),
            "head tenant gains jobs: {head}"
        );
        assert!(tail >= 1, "every tenant keeps at least one job");
        assert!(
            head >= 4 * tail,
            "zipf weight must concentrate jobs: head {head} vs tail {tail}"
        );
        // The total budget is approximately preserved (rounding aside).
        let total_uniform: usize = (0..8)
            .map(|t| jobs_of(&uniform, &format!("tenant-{t}")))
            .sum();
        let total_skewed: usize = (0..8)
            .map(|t| jobs_of(&skewed, &format!("tenant-{t}")))
            .sum();
        assert!(
            (total_skewed as i64 - total_uniform as i64).unsigned_abs() as usize
                <= trace.tenants.len(),
            "budget drifted: {total_uniform} -> {total_skewed}"
        );
        // Tail tenants leave earlier than in the uniform stream (their last
        // arrival moved up), which is what lets shards drift imbalanced.
        let leave_of = |churn: &ChurnTrace, name: &str| {
            churn
                .events
                .iter()
                .find(|e| e.subject == name && matches!(e.kind, ChurnEventKind::Leave))
                .map(|e| e.round)
                .unwrap()
        };
        assert!(leave_of(&skewed, "tenant-7") <= leave_of(&uniform, "tenant-7"));
        // Zero skew is bit-for-bit the original derivation.
        let zero = ChurnTrace::from_trace(
            &trace,
            &ChurnConfig {
                skew: 0.0,
                ..ChurnConfig::default()
            },
        );
        assert_eq!(zero, uniform);
    }

    #[test]
    fn default_config_leaves_topology_untouched() {
        let churn = small_churn();
        assert!(churn.events.iter().all(|e| !matches!(
            e.kind,
            ChurnEventKind::AddHost { .. } | ChurnEventKind::RemoveHost
        )));
    }

    #[test]
    fn host_churn_adds_before_removing_and_cycles_gpu_types() {
        let trace = PhillyTraceGenerator::new(TraceConfig {
            num_tenants: 6,
            jobs_per_tenant: 4,
            duration_secs: 6.0 * 3600.0,
            ..TraceConfig::default()
        })
        .generate();
        let churn = ChurnTrace::from_trace(
            &trace,
            &ChurnConfig {
                host_churn_every_rounds: 8,
                host_churn_linger_rounds: 10,
                host_churn_gpus: 2,
                ..ChurnConfig::default()
            },
        );
        let mut adds = 0usize;
        let mut removes = 0usize;
        let mut gpu_types = Vec::new();
        let mut add_round: std::collections::HashMap<&str, usize> = Default::default();
        for event in &churn.events {
            match &event.kind {
                ChurnEventKind::AddHost { gpu_type, num_gpus } => {
                    adds += 1;
                    gpu_types.push(*gpu_type);
                    assert_eq!(*num_gpus, 2);
                    add_round.insert(event.subject.as_str(), event.round);
                }
                ChurnEventKind::RemoveHost => {
                    removes += 1;
                    let added = add_round
                        .get(event.subject.as_str())
                        .expect("only added hosts are removed");
                    assert!(event.round > *added, "remove follows its add");
                }
                _ => {}
            }
        }
        assert!(
            adds >= 2,
            "cadence 8 over the horizon produces several adds"
        );
        assert!(removes >= 1 && removes <= adds);
        let k = trace.tenants[0].jobs[0].speedup.as_slice().len();
        assert!(
            (0..k).all(|t| gpu_types.contains(&t)) || adds < k,
            "adds cycle through the GPU types: {gpu_types:?}"
        );
    }
}
