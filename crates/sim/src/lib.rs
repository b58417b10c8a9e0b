//! # rtec-sim — deterministic discrete-event simulation engine
//!
//! The whole `rtec` stack (CAN bus, clock synchronization, event-channel
//! middleware) runs on top of this small engine. The engine is
//! deliberately minimal: a model type handles typed events, and a
//! [`Ctx`] lets handlers schedule further events at absolute or relative
//! simulated times. Simulated time is counted in **nanoseconds** (at the
//! CAN bit rates of interest, 1 bit = 1000 ns @ 1 Mbit/s), which gives a
//! simulation horizon of ~584 years in a `u64` — far beyond any run.
//!
//! Determinism: events firing at the same instant are delivered in the
//! order they were scheduled (a monotonically increasing sequence number
//! breaks ties), and all randomness comes from [`rng`] streams seeded
//! from a single run seed. Two runs with the same seed produce identical
//! traces.
//!
//! ```
//! use rtec_sim::{Engine, Model, Ctx, Time, Duration};
//!
//! struct Counter { fired: Vec<u32> }
//! impl Model for Counter {
//!     type Event = u32;
//!     fn handle(&mut self, ctx: &mut Ctx<u32>, ev: u32) {
//!         self.fired.push(ev);
//!         if ev < 3 {
//!             ctx.after(Duration::from_us(10), ev + 1);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Counter { fired: vec![] });
//! engine.schedule_at(Time::ZERO, 0);
//! engine.run();
//! assert_eq!(engine.model.fired, vec![0, 1, 2, 3]);
//! assert_eq!(engine.now(), Time::from_us(30));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod parallel;
pub mod reference;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod telemetry;
pub mod time;
pub mod trace;
mod wheel;

pub use engine::{Ctx, Engine, Model, TimerId};
pub use reference::HeapScheduler;
pub use rng::{Rng, RngStreams};
pub use stats::{Histogram, OnlineStats};
pub use telemetry::EngineTelemetry;
pub use time::{Duration, Time};
pub use trace::{Emit, SharedTraceSink, SourceId, TraceEvent, TraceSink};
