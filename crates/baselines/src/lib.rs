//! # rtec-baselines — the comparator protocols of §4
//!
//! The paper positions its event-channel mapping against two families
//! of CAN scheduling approaches:
//!
//! * **fixed-priority schemes** (CanOpen/SDS/DeviceNet-style static
//!   identifiers; deadline-monotonic assignment per Tindell & Burns)
//!   and the more flexible **dual-priority** scheme of Davis — each a
//!   [`policy`] assigning every stream a per-channel SRT priority of
//!   the middleware's own node machine; [`testbed`] runs *identical
//!   workloads* under each policy on the simulator's `Network`, one
//!   SRT channel per stream;
//! * **time-triggered schemes** (TTCAN, TTP-like): [`ttcan`] models a
//!   TTCAN-style system matrix of exclusive and arbitrating windows —
//!   exclusive windows are wasted when unused, redundant transmissions
//!   always fill their reserved windows, and background traffic is
//!   confined to arbitrating windows. These are exactly the behaviours
//!   the paper's slot-reclaiming/early-stop design improves on (§3.2,
//!   §4).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod policy;
pub mod testbed;
pub mod ttcan;
pub mod ttpa;

pub use testbed::{run_testbed, without_expiry, StreamStats, TestbedStats};
pub use ttcan::{run_ttcan, TtcanConfig, TtcanStats, Window, WindowKind};
pub use ttpa::{round_wire_time, run_ttpa, TtpaConfig, TtpaStats};
