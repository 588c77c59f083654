//! # oef-core — the OEF allocation framework
//!
//! This crate implements the core contribution of *"Optimal Resource Efficiency with
//! Fairness in Heterogeneous GPU Clusters"* (Middleware '24): a family of fair-share
//! evaluators that maximise overall training throughput in a heterogeneous GPU cluster
//! while guaranteeing strong fairness properties.
//!
//! * [`NonCooperativeOef`] — strategy-proof OEF for non-cooperative environments
//!   (optimisation problem (9): maximise total efficiency under equal per-user
//!   normalised throughput).
//! * [`CooperativeOef`] — envy-free, sharing-incentive OEF for cooperative
//!   environments (optimisation problem (10): maximise total efficiency under pairwise
//!   envy-freeness constraints).
//! * [`WeightedOef`] — tenant priorities by speedup-row replication (§4.2.3).
//! * [`MultiJobOef`] — tenants training several DL job types at once (§4.2.4).
//! * [`fairness`] — property checkers for envy-freeness, sharing-incentive,
//!   pareto-efficiency, strategy-proofness and the optimal-efficiency gap.
//!
//! The crate is purely algorithmic: it knows nothing about hosts, devices, placement or
//! time.  Those live in `oef-cluster` and `oef-sim`.
//!
//! ```
//! use oef_core::{AllocationPolicy, ClusterSpec, NonCooperativeOef, SpeedupMatrix};
//!
//! let cluster = ClusterSpec::paper_evaluation_cluster();
//! let speedups = SpeedupMatrix::from_rows(vec![
//!     vec![1.0, 1.15, 1.39], // VGG-like profile
//!     vec![1.0, 1.60, 2.15], // LSTM-like profile
//!     vec![1.0, 1.30, 1.80],
//!     vec![1.0, 1.10, 1.25],
//! ]).unwrap();
//!
//! let allocation = NonCooperativeOef::default().allocate(&cluster, &speedups).unwrap();
//! let efficiencies = allocation.user_efficiencies(&speedups);
//! // Every tenant makes the same normalised progress — the key to strategy-proofness.
//! for e in &efficiencies {
//!     assert!((e - efficiencies[0]).abs() < 1e-6);
//! }
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocation;
mod cluster_spec;
mod coop;
mod error;
pub mod fairness;
mod handle_map;
mod multi_job;
mod noncoop;
mod policy;
mod program_cache;
pub mod sharded;
mod speedup;
mod tenant_index;
mod weighted;

pub use allocation::Allocation;
pub use cluster_spec::ClusterSpec;
pub use coop::CooperativeOef;
pub use error::OefError;
pub use fairness::{
    EnvyReport, FairnessSummary, ParetoReport, Property, SharingIncentiveReport,
    StrategyProofnessReport,
};
pub use handle_map::HandleMap;
pub use multi_job::{MultiJobAllocation, MultiJobOef, TenantWorkload};
pub use noncoop::NonCooperativeOef;
pub use policy::{AllocationPolicy, BoxedPolicy};
pub use speedup::{SpeedupMatrix, SpeedupVector};
pub use tenant_index::TenantIndexMap;
pub use weighted::{OefMode, VirtualUserExpansion, WeightedOef};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, OefError>;
