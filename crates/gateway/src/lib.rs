//! `rtec-gateway`: an off-bus event-channel gateway for the live
//! cluster.
//!
//! The paper's event channel model ends at the CAN bus: consumers are
//! nodes. Real deployments also have *off-bus* consumers — monitoring
//! dashboards, loggers, bridge processes — that want the bus's events
//! without a seat on the bus. This crate adds that tier: a gateway
//! process joins the cluster as one ordinary node (same transport,
//! same turn protocol, same audited trace) and re-publishes delivered
//! events to many external clients over stream sockets, preserving the
//! per-class semantics of §2 off the bus:
//!
//! * **HRT** events are released to clients at their delivery deadline
//!   (the calendar slot boundary, §3.2), never early and never shed;
//! * **SRT** events carry a re-anchored validity window and are
//!   *dropped when stale* rather than queued past their expiration
//!   (§2.2.2);
//! * **NRT** events are batched, and bulk payloads are fragment-
//!   streamed (§2.2.3), always yielding to the real-time classes.
//!
//! Fanout is sharded by client across worker threads ([`gateway`]):
//! each client has one lane on one worker, so its class order holds
//! across its whole stream. Every lane has a bounded queue, and a
//! pluggable [`SlowConsumerPolicy`] decides what happens when a client cannot
//! keep up: disconnect it, shed its NRT backlog first, or coalesce
//! queued events to the latest per subject. All worker threads go
//! through the `rtec_live::sync` facade, so the loom model checker and
//! the C1–C6 source lints cover this crate like the rest of the
//! runtime, and same-seed runs with simulated clients yield equal
//! [`GatewayReport`]s ([`SimClientSink`] digests included). The crate
//! takes no wall-clock timestamps; what the gateway costs is measured
//! from outside, at the client sinks, by `benchmark/` (see
//! `benchmark/README.md`).

pub mod client;
pub mod egress;
pub mod gateway;
pub mod net;
pub mod reconnect;
pub mod session;
pub mod wire;

pub use client::{ClientSink, ClientSinkSpec, SimClientSink, SinkDigest, SinkStatus};
pub use egress::{EgressQueue, LaneStats, SlowConsumerPolicy};
pub use gateway::{
    Gateway, GatewayConfig, GatewayReport, GatewayStats, LaneReport, ShardStats, WmSource,
};
pub use net::{Acceptor, GatewayClient};
pub use reconnect::{ReconnectPolicy, ReconnectStats, ReconnectingClient, Target};
pub use session::SessionStats;
pub use wire::{ClassWatermarks, Reason, ResumeReq, ResumeVerdict, SessionInfo};
