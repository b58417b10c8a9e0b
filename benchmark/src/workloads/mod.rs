//! The six workloads. Each is one function from a [`RepCfg`] to a
//! [`Rep`]: generate the inputs from the seed, construct the system,
//! run it for a fixed span of *bus* time (closed loop: the bus never
//! waits for wall time), and check what came out.

pub mod gateway;
pub mod live;
pub mod paper_sweep;
pub mod sim_stack;

use crate::kernels::Kernels;
use crate::metrics::Metrics;
use crate::proc::Usage;
use crate::spans::Probe;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// E1–E11 as a reader of the paper runs them.
    PaperSweep,
    /// The paper's mechanism in clean steady state on the simulator.
    SimStack,
    /// Live runtime, few threads, high per-node traffic.
    LiveNarrow,
    /// Live runtime, the same offered load over 32 nodes.
    LiveWide,
    /// Gateway fanout to 10 000 in-process clients.
    GwFanout,
    /// Gateway sessions severed and resumed in waves.
    GwResume,
}

/// Every workload, in the order `all` runs them.
pub const ALL: [Workload; 6] = [
    Workload::PaperSweep,
    Workload::SimStack,
    Workload::LiveNarrow,
    Workload::LiveWide,
    Workload::GwFanout,
    Workload::GwResume,
];

/// How one repetition is to be run.
#[derive(Clone, Copy)]
pub struct RepCfg {
    /// Seed of every generated input.
    pub seed: u64,
    /// Run a tenth of the horizon (`--quick`, and the set-up passes).
    pub quick: bool,
    /// Traced repetition: the program's own tracing is on and audited,
    /// and spans are recorded under the probe's parent.
    pub probe: Option<Probe>,
}

impl RepCfg {
    /// The bus time to run for: `full`, or a tenth of it when quick.
    pub fn horizon(&self, full: rtec_sim::Duration) -> rtec_sim::Duration {
        if self.quick {
            full / 10
        } else {
            full
        }
    }
}

/// What one repetition produced.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall seconds of the timed phase (construction excluded).
    pub wall_s: f64,
    /// Units of work completed in the timed phase; the unit is the
    /// workload's own (see [`Workload::op`]).
    pub ops: u64,
    /// Failed checks, each described in `notes`.
    pub failed: u64,
    /// Digest of everything stated in bus time; equal seeds give equal
    /// digests, on every repetition.
    pub digest: u64,
    /// Process counters over the timed phase.
    pub usage: Usage,
    /// Counts and bus-time metrics of this repetition.
    pub layer: Metrics,
    /// One line per failed check.
    pub notes: Vec<String>,
}

impl Rep {
    /// Record a failed check.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }
}

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::SimStack => "sim-stack",
            Workload::LiveNarrow => "live-narrow",
            Workload::LiveWide => "live-wide",
            Workload::GwFanout => "gw-fanout",
            Workload::GwResume => "gw-resume",
        }
    }

    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line, for `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperSweep => "E1-E11 in full mode with faults, overload, bulk, trace and audit on: what a reader of the paper runs; sim+can+core+baselines+analysis+conformance, no live or gateway thread",
            Workload::SimStack => "core::Network in clean steady state on a 92% loaded wire, trace off: the same layers as paper-sweep used differently, so a gain bought with a slower fault or trace path shows there",
            Workload::LiveNarrow => "live::Cluster with 4 nodes and one 200 us SRT source: few threads and high per-node traffic, so the node middleware dominates and the broker turn is short",
            Workload::LiveWide => "the same offered load spread over 32 nodes: the broker's O(nodes) turn dominates, the case the roadmap calls 4x slower",
            Workload::GwFanout => "10000 in-process clients x 2 seeded subjects, every 5th slow, shed-NRT-first: fanout of 2.8k lanes per event makes the gateway, not the cluster, the cost",
            Workload::GwResume => "2000 session clients severed and resumed in 4 waves with seeded lost tails: session accounting, parked lanes, replay rings and Gap notices, which gw-fanout bypasses",
        }
    }

    /// The unit of work `ops_per_s` counts on this workload.
    pub fn op(self) -> &'static str {
        match self {
            Workload::PaperSweep | Workload::SimStack => "engine events",
            Workload::LiveNarrow | Workload::LiveWide => "deliveries at the subscriber",
            Workload::GwFanout | Workload::GwResume => "(event, lane) fanout pushes",
        }
    }

    /// Whether the process is confined to one CPU before anything is
    /// spawned. The lock-step live cluster hands one baton between its
    /// threads: spread over two vCPUs of a shared guest, the same
    /// repetition took 0.75 s, 1.5 s or 3.1 s depending on where
    /// wake-ups landed; on one CPU it repeats within a few percent.
    /// The gateway workloads have real parallelism and run unpinned.
    pub fn pinned(self) -> bool {
        matches!(self, Workload::LiveNarrow | Workload::LiveWide)
    }

    /// Run one repetition.
    pub fn rep(self, cfg: &RepCfg) -> Rep {
        match self {
            Workload::PaperSweep => paper_sweep::rep(cfg),
            Workload::SimStack => sim_stack::rep(cfg),
            Workload::LiveNarrow => live::rep(cfg, live::Shape::Narrow),
            Workload::LiveWide => live::rep(cfg, live::Shape::Wide),
            Workload::GwFanout => gateway::rep(cfg, gateway::Shape::Fanout),
            Workload::GwResume => gateway::rep(cfg, gateway::Shape::Resume),
        }
    }

    /// The traced pass's additions beyond the traced repetition itself:
    /// layer kernels sized from `base` (an untraced repetition of the
    /// same seed), the metrics derived from them, and the
    /// workload-specific control runs. Returns failed checks.
    pub fn traced_extras(self, cfg: &RepCfg, base: &Rep, out: &mut Metrics) -> Vec<String> {
        let probe = cfg.probe.expect("extras only run traced");
        let kernels = Kernels::new(cfg.seed, cfg.quick, probe);
        match self {
            Workload::PaperSweep => paper_sweep::extras(cfg, base, &kernels, out),
            Workload::SimStack => sim_stack::extras(cfg, base, &kernels, out),
            Workload::LiveNarrow | Workload::LiveWide => live::extras(&kernels, out),
            Workload::GwFanout => gateway::extras(cfg, base, &kernels, out, gateway::Shape::Fanout),
            Workload::GwResume => gateway::extras(cfg, base, &kernels, out, gateway::Shape::Resume),
        }
    }
}
