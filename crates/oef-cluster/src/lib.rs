//! # oef-cluster — cluster, placement and runtime models for the OEF reproduction
//!
//! The OEF paper evaluates its allocation framework on a physical 24-GPU cluster.  This
//! crate provides the simulated equivalent of that substrate:
//!
//! * [`GpuType`], [`Host`], [`ClusterTopology`] — the hardware model (hosts with four
//!   co-located GPUs of one type each, as in §6.1.1).
//! * [`Job`], [`Tenant`], [`ClusterState`] — the workload model, including cheating
//!   tenants that misreport their speedups and tenants that depart mid-experiment.
//! * [`Profiler`] — the profiling agent of §4.1, with configurable measurement error.
//! * [`RoundingPlacer`], [`DevicePlacer`] — the placer of §4.3: deviation-tracked
//!   rounding of fractional shares plus contention-aware device packing.
//! * [`ContentionModel`], [`StragglerModel`] — the runtime penalties (§4.3, §4.4) that
//!   separate "estimated" from "actual" throughput in the paper's figures.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod contention;
mod gpu;
mod host;
mod job;
mod placer;
mod profiler;
mod state;
mod straggler;
mod tenant;

pub use contention::ContentionModel;
pub use gpu::{DeviceId, GpuDevice, GpuType, HostHandle};
pub use host::{ClusterTopology, Host};
pub use job::{Job, JobId, JobState};
pub use placer::{
    distinct_hosts, DevicePlacer, JobPlacement, PlacementPlan, PlacerScratch, RoundingPlacer,
};
pub use profiler::Profiler;
pub use state::ClusterState;
pub use straggler::{StragglerModel, StragglerStats};
pub use tenant::Tenant;
