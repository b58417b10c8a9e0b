//! # rtec-clock — drifting local clocks
//!
//! The HRT reservation scheme of the paper rests on a *global time base*
//! (§3.2): every node must agree, to within a known precision Π, on when
//! a time slot starts. The paper adopts the standard CAN clock
//! synchronization of Gergeleit & Streich [9] and assumes a conservative
//! inter-slot gap `ΔG_min = 40 µs` derived from the quality and
//! frequency of synchronization.
//!
//! This crate supplies the oscillator, [`LocalClock`]: a node's clock
//! with a constant drift rate (ppm) and an adjustable offset. Reading it
//! converts *true* (simulation) time into the node's estimate of global
//! time, the inverse lets a node schedule an action at a *global*
//! instant using its imperfect local clock, and [`LocalClock::slew`] is
//! the correction a synchronization round applies. The protocol itself
//! — SYNC, FOLLOW-UP, latch and slew over the bus — is
//! `rtec_core::network`'s in-network service (`ClockSyncConfig`), and
//! experiment E9 measures its precision Π.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod local;

pub use local::{ClockParams, LocalClock};
