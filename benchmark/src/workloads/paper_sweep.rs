//! `paper-sweep`: `rtec_bench::experiments::all()` in full mode with
//! conformance on, serially, in this process — what a reader of the
//! paper runs. It exercises sim, can, core, baselines, clock, analysis
//! and conformance with faults, overload, bulk transfers, tracing and
//! auditing all on, and never touches the live runtime or the gateway.

use super::{Rep, RepCfg};
use crate::kernels::Kernels;
use crate::metrics::Metrics;
use crate::proc::Usage;
use crate::stats::Fnv;
use rtec_bench::experiments::{self, Experiment};
use rtec_bench::RunOpts;
use rtec_sim::telemetry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// `(id, wall-time metric, span name)` of each experiment, in registry
/// order.
const EXPERIMENTS: [(&str, &str, &str); 11] = [
    ("e1", "bench.e1_s", "Experiment::run e1"),
    ("e2", "bench.e2_s", "Experiment::run e2"),
    ("e3", "bench.e3_s", "Experiment::run e3"),
    ("e4", "bench.e4_s", "Experiment::run e4"),
    ("e5", "bench.e5_s", "Experiment::run e5"),
    ("e6", "bench.e6_s", "Experiment::run e6"),
    ("e7", "bench.e7_s", "Experiment::run e7"),
    ("e8", "bench.e8_s", "Experiment::run e8"),
    ("e9", "bench.e9_s", "Experiment::run e9"),
    ("e10", "bench.e10_s", "Experiment::run e10"),
    ("e11", "bench.e11_s", "Experiment::run e11"),
];

/// E5 (three scheduling policies swept into overload) always runs the
/// seed the published tables were made with. Its wall time is chaotic
/// in the seed — 3.67 s to 4.53 s over seeds 100..103 for the same
/// 3.7 M events, while it is 80 % of the sweep — so seeded from
/// `--seed` it alone spread the sweep's throughput by 14 % over ten
/// seeds, wider than any bound that still catches a regression. The
/// other ten experiments take the run's seed.
const E5_SEED: u64 = 42;

/// Run one experiment; `Err` when its conformance check (an assert
/// inside the experiment) or anything else panicked.
fn run_one(e: &Experiment, opts: &RunOpts) -> Result<String, ()> {
    catch_unwind(AssertUnwindSafe(|| {
        (e.run)(opts)
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    }))
    .map_err(|_| ())
}

fn sweep(cfg: &RepCfg, conformance: bool) -> Rep {
    let registry = experiments::all();
    assert!(
        registry
            .iter()
            .map(|e| e.id)
            .eq(EXPERIMENTS.iter().map(|x| x.0)),
        "the registry is E1..E11 in order"
    );
    let mut out = Rep::default();
    let mut digest = Fnv::new();
    let before = Usage::now();
    let wall = Instant::now();
    for (e, (id, metric, span)) in registry.iter().zip(EXPERIMENTS) {
        let opts = RunOpts {
            quick: cfg.quick,
            seed: if id == "e5" { E5_SEED } else { cfg.seed },
            conformance,
        };
        telemetry::reset();
        let started = Instant::now();
        let tables = match cfg.probe {
            Some(p) => p.tracer.span(span, p.parent, |_| run_one(e, &opts)),
            None => run_one(e, &opts),
        };
        let secs = started.elapsed().as_secs_f64();
        let events = telemetry::snapshot().dispatched;
        match tables {
            Ok(text) => digest.bytes(text.as_bytes()),
            Err(()) => out.fail(format!("{id} panicked (conformance or assertion)")),
        }
        digest.word(events);
        out.ops += events;
        out.layer.set(metric, secs);
        if id == "e5" {
            out.layer.set("bench.e5_events_per_s", events as f64 / secs);
        }
    }
    out.wall_s = wall.elapsed().as_secs_f64();
    out.usage = Usage::now().since(&before);
    out.digest = digest.0;
    out.layer.set("sim.events", out.ops as f64);
    out
}

/// One repetition: the whole sweep, conformance on.
pub fn rep(cfg: &RepCfg) -> Rep {
    sweep(cfg, true)
}

/// Trace + audit inside the experiments cannot be timed from outside
/// call by call; the difference between `base` (conformance on) and a
/// sweep with it off is their cost. Plus the two kernels of the layers
/// the sweep leans on hardest.
pub fn extras(cfg: &RepCfg, base: &Rep, kernels: &Kernels, out: &mut Metrics) -> Vec<String> {
    let probe = cfg.probe.expect("extras only run traced");
    let plain = RepCfg {
        probe: None,
        ..*cfg
    };
    let off = probe
        .tracer
        .span("sweep, conformance off", probe.parent, |_| {
            sweep(&plain, false)
        });
    out.set("conformance.audit_s", (base.wall_s - off.wall_s).max(0.0));
    out.set(
        "proc.trace_overhead_pct",
        (base.wall_s - off.wall_s) / off.wall_s * 100.0,
    );
    out.set("sim.trace_record_ns", kernels.sim_trace_record_ns());
    out.set("sim.dispatch_ns", kernels.sim_dispatch_ns(64));
    off.notes
}
