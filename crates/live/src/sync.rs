//! The crate's synchronization facade — a re-export of the
//! workspace-wide one.
//!
//! Every sync primitive the live runtime uses — mutexes, condition
//! variables, channels, atomics, thread spawns — is imported from
//! here, never from `std::sync`/`std::thread` directly (lint C1 in
//! `rtec-conformance` enforces this). The facade itself now lives in [`rtec_sim::sync`]
//! so the parallel simulation driver (`rtec_sim::parallel`) and this
//! runtime share one switch point: normally it resolves straight to
//! `std`; compiled with `--cfg loom` (the ci.sh model-check job) it
//! resolves to the vendored `loom` stand-in, whose scheduler explores
//! thread interleavings exhaustively up to a preemption bound.
//!
//! The deliberate narrowings versus `std` (bounded-only channels,
//! named `Builder` spawns) are documented on [`rtec_sim::sync`].

pub use rtec_sim::sync::*;
