//! Conformance checking for the event-channel protocol: a static
//! configuration linter and a trace-invariant auditor.
//!
//! The paper's guarantees rest on configuration invariants (disjoint
//! slot reservations with a `ΔT_wait` setup margin, the priority
//! partition `0 = P_HRT < P_SRT < P_NRT`, collision-free identifier
//! encodings, consistent `Δt_p`/`ΔH` parameters) and on runtime
//! behaviour (arbitration follows identifier order, HRT frames stay in
//! their slots, deferred delivery removes jitter, expired SRT events are
//! dropped, fragment streams reassemble). This crate checks both:
//!
//! * **[`lint`]** — rules `S1`..`S8` run *before* a simulation, over a
//!   [`LintInput`] describing the calendar, channels and priority
//!   parameters.
//! * **[`audit`]** — rules `T1`..`T9` run over the structured trace
//!   records a run emits, as one streaming [`Monitor`]: inside the
//!   emitter through a tapped [`rtec_sim::TraceSink`], or over a
//!   recorded trace afterwards.
//! * **[`srclint`]** — rules `C1`..`C6` run over the live runtime's
//!   *source code*, rejecting concurrency-hygiene violations (sync
//!   primitives bypassing the `rtec_live::sync` facade, unbounded
//!   channels, swallowed lock/recv errors), `C7` keeps the
//!   channel-class machine (`rtec_core::machine`) sans-IO, `C8`
//!   keeps the live broker a host of the `rtec-can` bus model rather
//!   than a second copy of it, `C9` keeps the broker and gateway
//!   protocols on the one wire kernel of `rtec_can::codec`, `C10`
//!   keeps locks, atomics, channels, threads and I/O out of the
//!   gateway lane's single-owner state, `C11` keeps SipHash off
//!   the simulated frame path, and `C12` keeps the clock-sync
//!   protocol in `rtec_core::network` alone. The `rtec-verify` binary
//!   drives this pass in CI.
//!
//! Both return a [`Report`] of [`Diagnostic`]s — rule ID, severity,
//! message and fix hint — and never panic on broken input. The
//! [`check_network`] helper derives both inputs straight from a live
//! [`rtec_core::Network`].

#![forbid(unsafe_code)]

pub mod audit;
pub mod diag;
pub mod lint;
pub mod net;
pub mod srclint;

pub use audit::{audit, handshake_anomalies, AuditContext, Monitor};
pub use diag::{Diagnostic, Report, RuleId, Severity};
pub use lint::{lint, ChannelDecl, LintInput};
pub use net::{
    audit_context, audit_network, check_network, lint_input, lint_network, monitor_network,
};
pub use srclint::{lint_sources, lint_workspace, SrcFile};
