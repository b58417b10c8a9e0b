//! # rtec-core — real-time event channels over CAN
//!
//! This crate is the paper's contribution: a publisher/subscriber
//! middleware whose *event channels* come in three timeliness classes
//! (§2.2), mapped onto the CAN bus by exploiting its priority
//! arbitration (§3):
//!
//! | class | guarantee | mechanism |
//! |---|---|---|
//! | **HRTEC** | bounded latency & jitter under a stated omission-fault assumption | calendar slot reservation + LST priority raise to the reserved top priority + time-redundant transmission with early stop + delivery at the slot deadline |
//! | **SRTEC** | EDF best-effort with miss/expiry awareness | deadline → priority-slot mapping on the 8-bit priority field, dynamic promotion (or a per-channel fixed/dual priority, [`SrtPriority`]), local deadline/expiration exceptions |
//! | **NRTEC** | none (background) | fixed low priority, fragmentation for bulk payloads |
//!
//! ## Entry points
//!
//! Everything runs inside a deterministic simulation world,
//! [`Network`]: build one with [`NetworkBuilder`], create channels and
//! publish through [`NetApi`] (obtained from [`Network::api`] or inside
//! scheduled application closures), then run simulated time forward.
//!
//! ```
//! use rtec_core::prelude::*;
//!
//! let mut net = Network::builder().nodes(3).build();
//! let speed = Subject::new(0x100);
//! {
//!     let mut api = net.api();
//!     api.announce(NodeId(0), speed, ChannelSpec::srt(SrtSpec::default()))
//!         .unwrap();
//!     let _q = api
//!         .subscribe(NodeId(1), speed, SubscribeSpec::default())
//!         .unwrap();
//! }
//! net.run_for(Duration::from_ms(1));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod binding;
pub mod channel;
pub mod event;
pub mod frag;
pub mod machine;
pub mod network;
pub mod node;
pub mod policy;
pub mod stats;
pub mod topology;

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::api::NetApi;
    pub use crate::channel::{
        ChannelClass, ChannelException, ChannelSpec, HrtSpec, NrtSpec, SrtPriority, SrtSpec,
        SubscribeSpec,
    };
    pub use crate::event::{Event, EventQueue, Subject};
    pub use crate::network::{ClockSyncConfig, Network, NetworkBuilder, NetworkConfig};
    pub use rtec_can::NodeId;
    pub use rtec_sim::{Duration, Time};
}

pub use api::NetApi;
pub use channel::{
    ChannelClass, ChannelException, ChannelSpec, HrtSpec, NrtSpec, SrtPriority, SrtSpec,
    SubscribeSpec,
};
pub use event::{Event, EventQueue, Subject};
pub use network::{ClockSyncConfig, Network, NetworkBuilder, NetworkConfig};
pub use policy::{EdfOrder, EdfQueue};
pub use stats::{ChannelStats, NetStats};
