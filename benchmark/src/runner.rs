//! The command line, the two passes of a workload run, and `all`.
//!
//! **Untraced pass** (`--trace 0`): three set-up passes, then measured
//! repetitions until `--seconds` of wall time are used. Every
//! wall-derived end-to-end metric is the median over repetitions; the
//! work of a repetition is fixed by the seed and checked equal across
//! repetitions, as is its bus-time digest.
//!
//! **Traced pass** (`--trace 1`): one untraced repetition for the
//! counts and bus-time metrics, a reference/traced pair at a tenth of
//! the horizon for the per-call samples and the tracing overhead, then
//! the layer kernels and control runs. Spans go to
//! `benchmark/out/<workload>.trace.json`.

use crate::metrics::{Def, Metrics, END_TO_END, PER_LAYER};
use crate::proc;
use crate::spans::{Probe, Tracer};
use crate::stats::{median, spread_pct};
use crate::workloads::{Rep, RepCfg, Workload, ALL};
use rtec_bench::json::{self, Value};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Cold-to-ready passes timed as `setup_s` (the median is reported).
const SETUP_PASSES: usize = 3;
/// `(max − min) / median` of the repetitions' throughput, in percent,
/// above which the measured round is run once more.
const UNSTABLE_PCT: f64 = 10.0;
/// Default measuring time of one pass, seconds (`BENCHMARK.json`'s
/// `run_seconds`).
const RUN_SECONDS: u64 = 8;
/// Fewest measured repetitions of a full-size untraced pass.
const MIN_REPS: usize = 3;
/// Reference/traced repetition pairs the tracing overhead is taken over.
const OVERHEAD_PAIRS: usize = 3;

static TRACER: OnceLock<Tracer> = OnceLock::new();

struct Args {
    workload: Option<Workload>,
    all: bool,
    manifest: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        manifest: false,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "all" => args.all = true,
            "manifest" => args.manifest = true,
            "--quick" => args.quick = true,
            "--workload" => {
                let name = value("--workload")?;
                args.workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Entry point; returns the process exit code.
pub fn main() -> i32 {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rtec-benchmark: {e}");
            eprintln!(
                "usage: rtec-benchmark --workload NAME --seed S --seconds T --trace 0|1 [--quick]"
            );
            eprintln!("       rtec-benchmark all --seed S [--seconds T] [--quick]");
            eprintln!("       rtec-benchmark manifest");
            eprintln!("workloads: {}", ALL.map(Workload::name).join(" "));
            return 2;
        }
    };
    if args.manifest {
        print!("{}", manifest());
        return 0;
    }
    if args.all {
        return run_all(&args);
    }
    let Some(workload) = args.workload else {
        eprintln!("rtec-benchmark: give --workload NAME, all, or manifest");
        return 2;
    };
    let outcome = if args.trace {
        traced_pass(workload, &args)
    } else {
        untraced_pass(workload, &args)
    };
    for note in &outcome.tally.notes {
        eprintln!("FAILED {}: {note}", workload.name());
    }
    println!("{}", outcome.to_json_line());
    i32::from(!outcome.correct())
}

/// What one pass reports.
struct Outcome {
    attempted: u64,
    tally: Tally,
    /// `(definition, value)` in manifest order.
    metrics: Vec<(&'static Def, f64)>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(d, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }

    fn print(&self, workload: Workload) {
        for (d, v) in &self.metrics {
            eprintln!("{:12} {:34} {:>6} {v}", workload.name(), d.name, d.unit);
        }
    }
}

/// Pin if the workload asks for it, for as long as the result lives.
fn place(workload: Workload) -> Option<proc::Confined> {
    let pin = workload.pinned().then(proc::confine).flatten();
    if workload.pinned() {
        eprintln!("{} pinned={}", workload.name(), u8::from(pin.is_some()));
    }
    pin
}

/// The failed checks of a pass.
#[derive(Default)]
struct Tally {
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }

    /// Fold one repetition's checks in; with `first` (the `(ops,
    /// digest)` of the pass's first repetition) also check that this
    /// one did the same work with the same bus-time outcome.
    fn absorb(&mut self, rep: &mut Rep, first: Option<(u64, u64)>) {
        if let Some((ops, digest)) = first {
            if rep.ops != ops {
                rep.fail(format!(
                    "work differs between repetitions: {} vs {ops} ops",
                    rep.ops
                ));
            }
            if rep.digest != digest {
                rep.fail(format!(
                    "bus-time digest differs between repetitions: {:016x} vs {digest:016x}",
                    rep.digest
                ));
            }
        }
        self.failed += rep.failed;
        self.notes.append(&mut rep.notes);
    }
}

fn untraced_pass(workload: Workload, args: &Args) -> Outcome {
    let _pin = place(workload);
    let mut tally = Tally::default();
    let cfg = |quick| RepCfg {
        seed: args.seed,
        quick,
        probe: None,
    };

    // Set-up: generate the inputs from the seed, construct the system
    // and drive it through a tenth of the horizon — cold to ready.
    let setup: Vec<f64> = (0..SETUP_PASSES)
        .map(|_| {
            let started = Instant::now();
            let mut rep = workload.rep(&cfg(true));
            let secs = started.elapsed().as_secs_f64();
            tally.absorb(&mut rep, None);
            secs
        })
        .collect();

    let mut attempted = 0;
    // Peak RSS is read after the first measured repetition: the same
    // work on every run, however many repetitions the time box admits
    // afterwards (allocator arenas keep growing a little with each).
    let mut peak_rss_mib = None;
    let mut first = None;
    // One repetition: its throughput, and the seconds it took in all
    // (construction and checks included).
    let mut one_rep = || -> (f64, f64) {
        let started = Instant::now();
        let mut rep = workload.rep(&cfg(args.quick));
        let rep_s = started.elapsed().as_secs_f64();
        tally.absorb(&mut rep, first);
        first.get_or_insert((rep.ops, rep.digest));
        attempted += rep.ops;
        peak_rss_mib.get_or_insert_with(proc::peak_rss_mib);
        (rep.ops as f64 / rep.wall_s, rep_s)
    };
    let started = Instant::now();
    let mut rates = Vec::new();
    loop {
        let (rate, rep_s) = one_rep();
        rates.push(rate);
        // A median needs three; beyond that, another repetition only
        // if at least half of it fits.
        let fits = started.elapsed().as_secs_f64() + rep_s / 2.0 < args.seconds;
        if args.quick || (rates.len() >= MIN_REPS && !fits) {
            break;
        }
    }
    // Too wide a round is measured once more — unless the minimum
    // alone overran the time box (the sweep). The second round is the
    // one judged; the median is taken over both, twice the evidence.
    let mut judged = spread_pct(&rates);
    let mut unstable = false;
    let overran = started.elapsed().as_secs_f64() > 1.5 * args.seconds;
    if !args.quick && !overran && judged > UNSTABLE_PCT {
        let again: Vec<f64> = (0..rates.len()).map(|_| one_rep().0).collect();
        judged = spread_pct(&again);
        unstable = judged > UNSTABLE_PCT;
        rates.extend(again);
    }
    let name = workload.name();
    eprintln!(
        "{name:12} op = {}; {} repetitions",
        workload.op(),
        rates.len()
    );
    eprintln!("{name:12} {:34} {:>6} {judged}", "proc.rep_spread_pct", "%");
    eprintln!(
        "{name:12} {:34} {:>6} {}",
        "proc.unstable",
        "count",
        u8::from(unstable)
    );

    let value = |name: &str| match name {
        "ops_per_s" => median(&rates),
        "peak_rss_mb" => peak_rss_mib.expect("at least one repetition ran"),
        "setup_s" => median(&setup),
        other => unreachable!("end-to-end metric {other} has no source"),
    };
    let outcome = Outcome {
        attempted,
        tally,
        metrics: END_TO_END.iter().map(|d| (d, value(d.name))).collect(),
    };
    outcome.print(workload);
    outcome
}

/// Samples this process's thread count every 2 ms until stopped.
struct ThreadPeak {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicUsize>,
    handle: std::thread::JoinHandle<()>,
}

impl ThreadPeak {
    fn start() -> ThreadPeak {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicUsize::new(0));
        let (s, p) = (Arc::clone(&stop), Arc::clone(&peak));
        let handle = std::thread::spawn(move || {
            // SeqCst: the flag is the only thing ordering `stop()`
            // against the last sample.
            while !s.load(Ordering::SeqCst) {
                p.fetch_max(proc::thread_count(), Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        ThreadPeak { stop, peak, handle }
    }

    /// Peak thread count seen, the sampler itself excluded.
    fn stop(self) -> usize {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("sampler never panics");
        self.peak.load(Ordering::SeqCst).saturating_sub(1)
    }
}

fn traced_pass(workload: Workload, args: &Args) -> Outcome {
    let pin = place(workload);
    let tracer = TRACER.get_or_init(Tracer::new);
    let mut tally = Tally::default();
    let root = tracer.open();
    // A repetition's configuration; `parent` makes it a traced one.
    let cfg = |quick, parent: Option<u64>| RepCfg {
        seed: args.seed,
        quick,
        probe: parent.map(|parent| Probe { tracer, parent }),
    };

    let mut warm = tracer.span("workload.setup", root.0, |_| workload.rep(&cfg(true, None)));
    tally.absorb(&mut warm, None);

    // The repetition the counts and bus-time metrics come from. The
    // sweep's own tracing is always on (conformance), so there its
    // spans ride on this repetition and no second one is needed.
    let sweep = workload == Workload::PaperSweep;
    let threads = ThreadPeak::start();
    let mut base = tracer.span("workload.rep", root.0, |id| {
        workload.rep(&cfg(args.quick, sweep.then_some(id)))
    });
    let threads_peak = threads.stop();
    tally.absorb(&mut base, None);
    if matches!(workload, Workload::PaperSweep | Workload::SimStack) && threads_peak != 1 {
        tally.fail(format!(
            "{threads_peak} threads seen: sim workloads run on the main thread alone"
        ));
    }

    let mut m = Metrics::default();
    if !sweep {
        // Reference and traced repetitions alternate; the overhead is
        // taken between the medians.
        let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
        for _ in 0..OVERHEAD_PAIRS {
            let mut reference = tracer.span("workload.rep (reference)", root.0, |_| {
                workload.rep(&cfg(true, None))
            });
            let mut traced = tracer.span("workload.rep (traced)", root.0, |id| {
                workload.rep(&cfg(true, Some(id)))
            });
            if traced.digest != reference.digest {
                traced.fail("tracing changed the bus-time digest".into());
            }
            plain_s.push(reference.wall_s);
            traced_s.push(traced.wall_s);
            m.merge(&traced.layer);
            tally.absorb(&mut reference, None);
            tally.absorb(&mut traced, None);
        }
        m.set(
            "proc.trace_overhead_pct",
            (median(&traced_s) / median(&plain_s) - 1.0) * 100.0,
        );
    }
    m.merge(&base.layer);

    let extras = tracer.span("workload.extras", root.0, |id| {
        workload.traced_extras(&cfg(args.quick, Some(id)), &base, &mut m)
    });
    extras.into_iter().for_each(|note| tally.fail(note));
    tracer.close("workload", 0, root);
    let covered = (tracer.now_ns() - root.1) as f64 / tracer.now_ns() as f64;
    if covered < 0.95 {
        tally.fail(format!(
            "the root span covers {:.0} % of the pass",
            covered * 100.0
        ));
    }

    let ops = base.ops.max(1) as f64;
    m.set("proc.cpu_s", base.usage.cpu_s);
    m.set("proc.cpu_util", base.usage.cpu_s / base.wall_s);
    m.set("proc.allocs_per_op", base.usage.allocs as f64 / ops);
    m.set(
        "proc.alloc_bytes_per_op",
        base.usage.alloc_bytes as f64 / ops,
    );
    m.set("proc.threads_peak", threads_peak as f64);
    m.set("proc.pinned", f64::from(u8::from(pin.is_some())));

    let path = format!("{}/{}.trace.json", crate::OUT_DIR, workload.name());
    let written = std::fs::create_dir_all(crate::OUT_DIR)
        .and_then(|()| std::fs::write(&path, tracer.to_json()));
    if let Err(e) = written {
        tally.fail(format!("cannot write {path}: {e}"));
    }

    let outcome = Outcome {
        attempted: base.ops,
        tally,
        metrics: PER_LAYER.iter().map(|d| (d, m.get(d.name))).collect(),
    };
    outcome.print(workload);
    outcome
}

/// `BENCHMARK.json`, generated from the tables in `metrics.rs` and
/// `workloads/mod.rs`.
fn manifest() -> String {
    let s = |x: &str| Value::str(x);
    let obj = |fields: Vec<(&str, Value)>| {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let better = |d: &Def| {
        s(if d.higher_is_better {
            "higher"
        } else {
            "lower"
        })
    };
    let command = [
        "cargo",
        "run",
        "--quiet",
        "--release",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    obj(vec![
        (
            "command",
            Value::Arr(command.iter().map(|c| s(c)).collect()),
        ),
        ("paths", Value::Arr(vec![s("benchmark")])),
        ("run_seconds", Value::num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                ALL.iter()
                    .map(|w| obj(vec![("name", s(w.name())), ("why", s(w.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|d| {
                        obj(vec![
                            ("name", s(d.name)),
                            ("unit", s(d.unit)),
                            ("better", better(d)),
                            ("bound", Value::num(d.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|d| {
                        obj(vec![
                            ("name", s(d.name)),
                            ("unit", s(d.unit)),
                            ("better", better(d)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_pretty()
}

/// Run one pass of one workload in a child process (a fresh peak-RSS
/// mark) and parse its result line.
fn child(workload: Workload, args: &Args, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("no result line")?;
    let value = json::parse(line)?;
    if !out.status.success() || value.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("checks failed ({})", out.status));
    }
    Ok(value)
}

fn run_all(args: &Args) -> i32 {
    let mut failures = 0;
    let mut results = Vec::new();
    for workload in ALL {
        let mut passes = Vec::new();
        for (pass, trace) in [("untraced", false), ("traced", true)] {
            match child(workload, args, trace) {
                Ok(v) => passes.push((pass.to_string(), v)),
                Err(e) => {
                    eprintln!("FAILED {} ({pass}): {e}", workload.name());
                    failures += 1;
                }
            }
        }
        results.push((workload.name().to_string(), Value::Obj(passes)));
    }
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let doc = Value::Obj(vec![
        ("seed".into(), Value::num(args.seed as f64)),
        ("quick".into(), Value::Bool(args.quick)),
        (
            "nproc".into(),
            Value::num(rtec_bench::parallel_perf::cpu_cores() as f64),
        ),
        ("kernel".into(), Value::str(kernel.trim())),
        ("workloads".into(), Value::Obj(results)),
    ]);
    let path = format!("{}/results.json", crate::OUT_DIR);
    match std::fs::create_dir_all(crate::OUT_DIR)
        .and_then(|()| std::fs::write(&path, doc.to_pretty()))
    {
        Ok(()) => eprintln!("results in {path}"),
        Err(e) => {
            eprintln!("FAILED: cannot write {path}: {e}");
            failures += 1;
        }
    }
    i32::from(failures > 0)
}
