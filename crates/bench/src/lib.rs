//! # rtec-bench — the experiment harness
//!
//! One module per experiment of `DESIGN.md`'s index (E1–E11); each
//! regenerates its table(s) from a fresh simulation. Run them through
//! the `experiments` binary:
//!
//! ```text
//! cargo run --release -p rtec-bench --bin experiments -- all
//! cargo run --release -p rtec-bench --bin experiments -- e3 --quick
//! ```
//!
//! Every experiment is deterministic for a given seed (printed with its
//! output) and scales its simulated horizon down under `--quick`.
//!
//! The crate also hosts the two chaos gates ([`chaos_exp`],
//! [`gw_chaos_exp`]). It measures no performance: that is `benchmark/`
//! (see `benchmark/README.md`), which imports [`experiments`], [`json`]
//! and [`RunOpts`] from here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos_exp;
pub mod experiments;
pub mod gw_chaos_exp;
pub mod json;
pub mod parallel_perf;
pub mod table;

pub use table::Table;

/// Harness-wide run options.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Shrink simulated horizons for smoke runs.
    pub quick: bool,
    /// Base seed for all experiments.
    pub seed: u64,
    /// Record traces and run the conformance linter + auditor over every
    /// simulation; any error-severity finding aborts the experiment.
    pub conformance: bool,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            quick: false,
            seed: 42,
            conformance: true,
        }
    }
}

impl RunOpts {
    /// Scale a horizon down in quick mode.
    pub fn horizon(&self, full: rtec_sim::Duration) -> rtec_sim::Duration {
        if self.quick {
            full / 10
        } else {
            full
        }
    }
}
