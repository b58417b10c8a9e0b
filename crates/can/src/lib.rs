//! # rtec-can — a bit-level CAN 2.0B bus simulator
//!
//! This crate models the properties of the Controller Area Network that
//! the event-channel protocol of Kaiser/Brudna/Mitidieri (IPPS 2003)
//! exploits:
//!
//! * **Bitwise priority arbitration** — when the bus becomes idle, the
//!   pending frame with the numerically lowest 29-bit identifier wins
//!   (dominant bits win, and `0` is dominant). The identifier is thus a
//!   distributed priority: the protocol layers a `priority | TxNode |
//!   etag` structure on top of it ([`id::CanId`]).
//! * **Non-preemptible frames** — an ongoing transmission can never be
//!   interrupted; a higher-priority frame waits at most one maximal
//!   frame length (`ΔT_wait`, see [`bits`]).
//! * **Acknowledgement / consistency** — a successfully transmitted
//!   frame is seen by all operational nodes; the sender can detect
//!   whether that happened ([`bus::Notification::TxCompleted`]'s
//!   `all_received` flag), which the HRT channel uses to *stop*
//!   redundant retransmissions early.
//! * **Error signalling with automatic retransmission** — a corrupted
//!   frame is destroyed globally by an error frame and retransmitted
//!   automatically (unless single-shot), re-entering arbitration.
//!
//! Frame timings are exact: a frame's length is counted over its on-wire
//! bit pattern including bit stuffing and CRC-15 ([`bits`]), so bandwidth
//! and blocking-time measurements reflect the real protocol overheads.
//!
//! Faults are injected by [`fault::FaultInjector`]: i.i.d. or bursty
//! corruption (error frames), and omission faults (a subset of receivers
//! misses an otherwise valid frame) — the fault class the paper's time
//! redundancy is designed to mask.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bits;
pub mod bus;
pub mod codec;
pub mod controller;
pub mod fault;
pub mod frame;
pub mod id;

pub use bits::{exact_frame_bits, worst_case_frame_bits, BitTiming};
pub use bus::{BusConfig, BusStats, CanBus, CanEvent, CanScheduler, MapScheduler, Notification};
pub use codec::{CodecError, CODEC_VERSION};
pub use controller::{AcceptanceFilter, Controller, ErrorState, FilterMode, TxHandle, TxRequest};
pub use fault::{FaultDecision, FaultInjector, FaultModel, OmissionScope};
pub use frame::{Frame, FrameError};
pub use id::{
    CanId, IdError, NodeId, PRIO_HRT, PRIO_NRT_MAX, PRIO_NRT_MIN, PRIO_SRT_MAX, PRIO_SRT_MIN,
};
