//! # oef-service — online multi-tenant scheduling daemon
//!
//! The batch crates (`oef-sim`, `bench`) construct a full scenario up front
//! and run it to completion.  This crate is the *middleware* face of the same
//! machinery: a long-lived daemon that sits between tenants and the GPU
//! cluster, re-solving fair allocations round after round as tenants join,
//! leave, re-profile and submit jobs.
//!
//! * [`Command`] / [`Response`] — the line-delimited JSON wire protocol
//!   (documented in this crate's `README.md`).
//! * [`SchedulerService`] — the single-threaded core: cluster state, a boxed
//!   [`oef_core::AllocationPolicy`] whose solver context warm-starts every
//!   round, stable tenant handles, admission control and metrics.
//! * [`BoundedQueue`] — the bounded command queue whose backpressure becomes
//!   `Busy` replies at the wire.
//! * [`Server`] / [`ServiceClient`] — threaded std-TCP listener and blocking
//!   client.  The server is generic over [`CommandHandler`], the seam the
//!   `oef-shard` federation coordinator plugs into; the `oef-serviced` /
//!   `oef-servicectl` binaries are built from that crate.
//! * [`ServiceSnapshot`] — JSON snapshot/restore so a restarted daemon
//!   resumes mid-trace with identical allocations.
//!
//! ```
//! use oef_service::{SchedulerService, ServiceConfig, Server, ServiceClient};
//! use oef_cluster::ClusterTopology;
//!
//! let service =
//!     SchedulerService::new(ClusterTopology::paper_cluster(), ServiceConfig::default()).unwrap();
//! let server = Server::spawn(service, "127.0.0.1:0").unwrap();
//!
//! let mut client = ServiceClient::connect(server.local_addr()).unwrap();
//! let tenant = client.join("alice", 1, &[1.0, 1.2, 1.4]).unwrap();
//! client.submit_job(tenant, "vgg16", 2, 1e6).unwrap();
//! let round = client.tick().unwrap();
//! assert_eq!(round.tenants.len(), 1);
//! client.shutdown().unwrap();
//! server.join();
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod command;
mod metrics;
mod queue;
mod server;
mod service;
mod snapshot;

pub use client::{ClientConfig, ClientError, ClientResult, ServiceClient};
pub use command::{
    Command, ErrorCode, ExecutedMigration, HostStatusEntry, MetricsReport, RebalanceReport, Reply,
    Request, Response, RoundSummary, ShardStatusEntry, StatusReport, TenantRoundSummary,
    WireTraceContext, PROTOCOL_MINOR, PROTOCOL_VERSION,
};
pub use metrics::ServiceMetrics;
pub use queue::{BoundedQueue, PushError};
pub use server::{CommandHandler, Server};
pub use service::{
    policy_from_name, CommandError, SchedulerService, ServiceConfig, ServiceError, ServiceLimits,
    TenantExtract,
};
pub use snapshot::{ServiceSnapshot, ServiceSnapshotRef, SNAPSHOT_VERSION};
