//! # oef-shard — sharded cluster federation for the scheduling middleware
//!
//! One `SchedulerService` re-solves a fair-share LP whose cost grows
//! superlinearly with the tenant count.  This crate scales the middleware
//! *out* instead of up: a [`ShardCoordinator`] owns N independent scheduler
//! shards — each with its own cluster state, policy and warm-started solver
//! context — and speaks the existing v2 wire protocol unchanged on the
//! front, so clients cannot tell a federation from a single daemon.
//!
//! * **Shard-aware handles** — every handle a shard mints is tagged with the
//!   shard index in its top 8 bits ([`oef_core::sharded`]); routing decodes
//!   those bits, so the coordinator needs no lookup tables.  Shard 0 is the
//!   identity encoding: existing handles, snapshots and clients stay valid.
//! * **Parallel solves** — `Tick` fans out over `std::thread::scope`, so the
//!   federation's round latency is the slowest shard, not the sum, and each
//!   shard's tenant count stays in the warm-start sweet spot.
//! * **Pluggable placement** — [`ShardPlacement`] decides where tenants and
//!   hosts without a handle land ([`LeastLoaded`], [`RoundRobin`]).
//! * **Live migration + rebalancing** — `MigrateTenant` moves a tenant's
//!   complete state (profile, jobs, rounding deviations) to another shard
//!   via [`oef_rebalance::TenantMigrator`], re-minting its handle there; a
//!   persistent **forwarding table** (old handle → live handle, compressed
//!   on lookup) keeps every handle a client ever held working across any
//!   number of moves.  `Rebalance` runs the online
//!   [`oef_rebalance::Rebalancer`] over per-shard load and executes the plan.
//! * **Federated snapshots** — the v5 envelope, the one durable format of
//!   a daemon, carries one `ServiceSnapshot` per shard plus the router's own
//!   state: placement cursor, forwarding table, rebalancer config, journal
//!   epoch ([`FederatedSnapshot`]).
//! * **Write-ahead journal + crash recovery** — [`Journaled`] wraps the
//!   coordinator with an `oef-journal` command log: mutating commands are
//!   appended (group-committed per [`JournalOptions`]) before they apply,
//!   checkpoints atomically rewrite `snapshot.json` and compact the log, and
//!   [`Journaled::recover`] restores snapshot + deterministic tail replay
//!   after a crash — torn tails are detected by checksum and cleanly
//!   truncated.  Scripted [`oef_journal::CrashPoint`]s drive the
//!   fault-injection e2e suite.
//!
//! The `oef-serviced` / `oef-servicectl` binaries are built from this crate
//! (the daemon always serves a coordinator — one shard unless `--shards`
//! says otherwise — optionally wrapped in [`Journaled`]).
//!
//! ```
//! use oef_cluster::ClusterTopology;
//! use oef_service::{Server, ServiceClient, ServiceConfig};
//! use oef_shard::{placement_from_name, ShardCoordinator};
//!
//! let coordinator = ShardCoordinator::new(
//!     vec![ClusterTopology::paper_cluster(), ClusterTopology::paper_cluster()],
//!     ServiceConfig::default(),
//!     placement_from_name("least-loaded").unwrap(),
//! )
//! .unwrap();
//! let server = Server::spawn(coordinator, "127.0.0.1:0").unwrap();
//!
//! // Same protocol, same client — the federation is transparent.
//! let mut client = ServiceClient::connect(server.local_addr()).unwrap();
//! let alice = client.join("alice", 1, &[1.0, 1.2, 1.4]).unwrap();
//! let bob = client.join("bob", 1, &[1.0, 1.6, 2.2]).unwrap();
//! assert_ne!(oef_core::sharded::shard_of(alice), oef_core::sharded::shard_of(bob));
//! client.shutdown().unwrap();
//! server.join();
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coordinator;
mod journaled;
mod placement;
mod snapshot;

pub use coordinator::ShardCoordinator;
pub use journaled::{Crashed, JournalOptions, Journaled, RecoverySummary};
pub use placement::{placement_from_name, LeastLoaded, RoundRobin, ShardLoad, ShardPlacement};
pub use snapshot::{
    FederatedSnapshot, ForwardingEntry, PlacementState, FEDERATED_SNAPSHOT_VERSION,
};
