//! `rtec-live`: a multi-threaded live runtime for the event-channel
//! model — real threads, real IPC, the same protocol as the simulator.
//!
//! Each node of the cluster runs as its own thread hosting the
//! channel-class machine the simulator also hosts
//! (`rtec_core::machine::NodeMachine`: hard, soft and non real-time
//! channels) on top of a [`transport::NodeTransport`]. A central broker
//! thread hosts the CAN bus model the simulator also hosts
//! (`rtec_can::CanBus`: bitwise-priority arbitration, non-preemptive
//! transmission, error frames, fault confinement), paced by a
//! configurable bit-clock ([`clock::BitClock`]), and carries its
//! broadcast-with-acknowledgement to the nodes so hard real-time
//! publishers can skip redundant retransmissions (§3.2 of the paper).
//!
//! Two transports ship with the crate: an in-process loopback
//! ([`transport::loopback`], deterministic, used by tests and
//! benchmarks) and UDP ([`udp`], one datagram socket per endpoint, for
//! spreading a cluster across processes).
//!
//! The runtime emits the same structured trace records as the
//! simulator, so the `rtec-conformance` auditor (invariants T1–T9) runs
//! unmodified on live traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broker;
pub mod chaos;
pub mod clock;
pub mod cluster;
pub mod node;
pub mod sync;
pub mod transport;
pub mod udp;
pub mod wire;

pub use broker::{Broker, BrokerConfig, FaultPlan, NodeSupervisor, SupEvent, SupKind};
pub use chaos::{ChaosPlan, ChaosReport, ChaosVerdict, LinkChaos, LinkFault, LinkPlan, LinkStats};
pub use clock::{BitClock, Pace};
pub use cluster::{Cluster, ClusterConfig, LiveReport, SupervisionReport};
pub use node::{
    Behavior, DeliveryRecord, LiveNode, NodeConfig, NodeCtx, NodeSnapshot, NodeStats, SharedConfig,
};
pub use transport::{loopback, BrokerTransport, NodeTransport, Relink, TransportError};
pub use wire::{ToBroker, ToNode, WireError};

use rtec_analysis::admission::AdmissionError;

/// Errors surfaced by the live runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LiveError {
    /// `publish` was refused because the node's bounded queue is full
    /// and the newcomer (or an in-flight message) would be the drop
    /// victim. Carries the subject uid.
    Backpressure(u64),
    /// A subject has no etag binding in the cluster configuration.
    UnboundSubject(u64),
    /// An event payload does not fit the channel's frame budget.
    PayloadTooLong {
        /// Offered payload length in bytes.
        len: usize,
        /// The channel's maximum.
        max: usize,
    },
    /// The transport failed (timeout, disconnect, malformed datagram).
    Transport(TransportError),
    /// The HRT calendar rejected the cluster's slot requests.
    Admission(AdmissionError),
    /// A configuration error caught while building the cluster.
    Config(String),
    /// A node thread panicked or exited abnormally.
    NodeFailed(u8),
    /// A node kept the broker's turn alive past the reply budget —
    /// it never returned to `Idle` (protocol bug or wedged thread).
    /// Terminal only under [`broker::BrokerConfig::strict`]; otherwise
    /// the supervisor quarantines the node and the cluster keeps
    /// running.
    ProtocolStall {
        /// The node whose turn exceeded the budget.
        node: u8,
        /// How many replies the broker drained before giving up.
        replies: usize,
    },
    /// A node exhausted its restart budget and was declared off, the
    /// live analogue of CAN bus-off without auto-recovery (§3.5).
    /// Non-terminal when supervised: recorded in the
    /// [`cluster::SupervisionReport`] while the cluster keeps running.
    NodeOff {
        /// The node that was declared off.
        node: u8,
    },
    /// A supervised restart could not be carried out (the transport
    /// cannot relink, or the node has no behavior factory to respawn
    /// from).
    RestartUnsupported {
        /// The node that could not be restarted.
        node: u8,
    },
}

impl core::fmt::Display for LiveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LiveError::Backpressure(uid) => {
                write!(f, "backpressure on subject {uid:#x}: queue full")
            }
            LiveError::UnboundSubject(uid) => {
                write!(f, "subject {uid:#x} has no etag binding")
            }
            LiveError::PayloadTooLong { len, max } => {
                write!(f, "payload of {len} bytes exceeds channel maximum {max}")
            }
            LiveError::Transport(e) => write!(f, "transport failure: {e}"),
            LiveError::Admission(e) => write!(f, "calendar admission failed: {e}"),
            LiveError::Config(msg) => write!(f, "configuration error: {msg}"),
            LiveError::NodeFailed(n) => write!(f, "node {n} thread failed"),
            LiveError::ProtocolStall { node, replies } => write!(
                f,
                "node {node} stalled the turn protocol: {replies} replies without Idle"
            ),
            LiveError::NodeOff { node } => {
                write!(f, "node {node} exhausted its restart budget (bus-off)")
            }
            LiveError::RestartUnsupported { node } => {
                write!(f, "node {node} cannot be restarted on this cluster")
            }
        }
    }
}

impl std::error::Error for LiveError {}

impl From<TransportError> for LiveError {
    fn from(e: TransportError) -> Self {
        LiveError::Transport(e)
    }
}

impl From<AdmissionError> for LiveError {
    fn from(e: AdmissionError) -> Self {
        LiveError::Admission(e)
    }
}
