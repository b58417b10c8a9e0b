//! `rtec-benchmark`: six seeded workloads from the simulator to a
//! gateway client, every layer measured from outside.
//!
//! ```text
//! rtec-benchmark --workload NAME --seed S --seconds T --trace 0|1 [--quick]
//! rtec-benchmark all --seed S [--seconds T] [--quick]
//! rtec-benchmark manifest
//! ```
//!
//! The first form runs one workload in this process and prints its
//! result as one JSON object on the last line of stdout (everything
//! else goes to stderr). `all` spawns one child per workload and pass,
//! so each has its own peak-RSS mark. See `README.md` beside this
//! package for the metric glossary.

mod inputs;
mod kernels;
mod metrics;
mod proc;
mod runner;
mod spans;
mod stats;
mod traffic;
mod workloads;

/// Where traces, results and the socket file go, relative to the
/// working directory (the repository root).
pub const OUT_DIR: &str = "benchmark/out";

fn main() {
    std::process::exit(runner::main());
}
