//! The workspace-wide synchronization facade.
//!
//! Every sync primitive the concurrent runtimes use — mutexes,
//! condition variables, channels, atomics, thread spawns — is imported
//! from here (or from
//! `rtec_live::sync`, which re-exports this module), never from
//! `std::sync`/`std::thread` directly (lint C1 in `rtec-conformance`
//! enforces this for the scanned sources). Normally the facade
//! resolves straight to `std`; compiled with `--cfg loom` (the ci.sh
//! model-check job) it resolves to the vendored `loom` stand-in, whose
//! scheduler explores thread interleavings exhaustively up to a
//! preemption bound. That swap is what lets one set of protocol
//! invariants — the live broker's lock-step turns *and* the parallel
//! simulation's window-barrier handshake — be checked both by ordinary
//! tests and by model checking without touching runtime code.
//!
//! Two deliberate narrowings versus `std`:
//!
//! * channels are **bounded only** ([`mpsc::bounded`]): concurrent hot
//!   paths must exert backpressure rather than buffer without limit
//!   (lint C2). A queue built by hand on [`Mutex`] + [`Condvar`] (the
//!   live loopback link) keeps the same rule: it holds at most
//!   [`DEFAULT_DEPTH`] entries and a push waits for room;
//! * threads are spawned through [`thread::Builder`] so every runtime
//!   thread carries a name (lint C6).

#[cfg(loom)]
pub use loom::sync::{Arc, Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
pub use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Default depth for bounded runtime queues: the facade's channels
/// and the live loopback link. Lock-step protocols keep at most a
/// handful of messages in flight per endpoint, so this bound is never
/// approached in a healthy system; it exists to turn a runaway producer
/// into visible backpressure instead of unbounded memory growth.
pub const DEFAULT_DEPTH: usize = 1024;

pub mod atomic {
    //! Atomic types (sequentially consistent under the loom stand-in,
    //! which serializes every access).
    #[cfg(loom)]
    pub use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    #[cfg(not(loom))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

pub mod mpsc {
    //! Bounded channels. The unbounded `channel()` constructor is
    //! intentionally not re-exported — see lint C2.
    #[cfg(loom)]
    use loom::sync::mpsc as imp;
    #[cfg(not(loom))]
    use std::sync::mpsc as imp;

    pub use super::DEFAULT_DEPTH;
    pub use imp::{Receiver, RecvTimeoutError, SendError, SyncSender};

    /// A bounded FIFO channel of the given depth.
    pub fn bounded<T>(depth: usize) -> (SyncSender<T>, Receiver<T>) {
        imp::sync_channel(depth)
    }
}

pub mod thread {
    //! Thread spawning and parking.
    #[cfg(loom)]
    pub use loom::thread::{sleep, spawn, yield_now, Builder, JoinHandle};
    #[cfg(not(loom))]
    pub use std::thread::{sleep, spawn, yield_now, Builder, JoinHandle};
}
