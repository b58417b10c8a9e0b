//! The experiment runner: regenerates every table of the evaluation.
//!
//! ```text
//! experiments all              # run the full suite
//! experiments e3 e5           # run selected experiments
//! experiments all --quick     # shrunken horizons (smoke run)
//! experiments all --seed 7    # different seed
//! experiments all --jobs 4    # shard the sweep over a worker pool
//! experiments all --no-conformance  # skip the conformance linter/auditor
//! experiments --list          # show the index
//! experiments frag-smoke      # zero-allocation check of the frag hot path
//! experiments chaos           # crash/recovery smoke of the live runtime
//! experiments chaos --seed 7 --ci   # bounded CI gate, different fault stream
//! experiments chaos gateway --ci    # gateway kill + session-resume gate
//! ```
//!
//! Performance is measured by `benchmark/run.sh`, not here.

use rtec_bench::experiments::all;
use rtec_bench::{chaos_exp, gw_chaos_exp, RunOpts};
use rtec_sim::parallel::pool_map;

/// One sharded experiment: `(id, description, run fn)`.
type ExperimentSpec = (
    &'static str,
    &'static str,
    fn(&RunOpts) -> Vec<rtec_bench::Table>,
);

/// Allocation-counting wrapper around the system allocator. The only
/// `unsafe` in the workspace: it adds nothing but a relaxed counter
/// bump in front of `System`, and exists so `frag-smoke` can assert —
/// not estimate — that the reassembly hot path stops allocating once
/// its scratch buffers are warm.
#[allow(unsafe_code)]
mod counted_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// Total allocation calls (alloc, alloc_zeroed, grow-reallocs)
    /// since process start.
    pub fn allocations() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }

    struct Counting;

    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc_zeroed(layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTER: Counting = Counting;
}

/// Zero-allocation smoke of the fragmentation hot path: after one
/// warm-up transfer populates the reassembler's scratch free-list,
/// 1000 further transfers through the same stream must perform **no**
/// heap allocations. Runs single-threaded, before any worker pool
/// exists, so the process-wide counter measures exactly this loop.
fn frag_smoke() -> i32 {
    use rtec_core::frag::{fragment, Reassembler};

    let payload = vec![0xA5u8; 1536]; // a many-fragment bulk transfer
    let frags = fragment(&payload);
    let mut r: Reassembler<u8> = Reassembler::new();

    // Warm-up: allocates the transfer buffer and map slot once.
    let mut done = None;
    for f in &frags {
        done = r.push(7, f).expect("warm-up fragment stream");
    }
    r.recycle(done.expect("warm-up transfer completes"));

    let rounds = 1000u32;
    let before = counted_alloc::allocations();
    for _ in 0..rounds {
        let mut done = None;
        for f in &frags {
            done = r.push(7, f).expect("steady-state fragment stream");
        }
        r.recycle(done.expect("steady-state transfer completes"));
    }
    let delta = counted_alloc::allocations() - before;

    eprintln!(
        "frag-smoke: {rounds} transfers × {} fragments ({} bytes each): {delta} allocation(s)",
        frags.len(),
        payload.len()
    );
    if delta > 0 {
        eprintln!(
            "frag-smoke: steady-state reassembly must not allocate — scratch reuse regressed"
        );
        return 1;
    }
    eprintln!("frag-smoke: ok");
    0
}

const USAGE: &str = "usage: experiments (all | e1..e11)... [--quick] [--seed N] [--jobs N] \
[--no-conformance] | --list | frag-smoke | chaos [gateway] [--seed N] [--quick | --ci]";

/// Reject the command line: exit 2 with the reason and the usage line.
fn usage_error(msg: &str) -> ! {
    eprintln!("experiments: {msg}\n{USAGE}");
    std::process::exit(2)
}

/// The integer value of `flag`, or a usage error.
fn int_arg<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage_error(&format!("{flag} needs an integer value")))
}

fn main() {
    let mut opts = RunOpts::default();
    let mut selected: Vec<String> = Vec::new();
    let mut list_only = false;
    let mut gateway = false;
    let mut chaos = false;
    let mut ci_check = false;
    let mut jobs: usize = 1;
    let mut iter = std::env::args().skip(1).peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--no-conformance" => opts.conformance = false,
            "--ci" => ci_check = true,
            "--seed" => opts.seed = int_arg("--seed", iter.next()),
            "--jobs" => {
                jobs = int_arg("--jobs", iter.next());
                if jobs == 0 {
                    usage_error("--jobs needs at least 1");
                }
            }
            "--list" => list_only = true,
            "chaos" => {
                chaos = true;
                // `gateway` is a word only here: the off-bus
                // session-resume gate instead of the bus-only smoke.
                gateway = iter.next_if(|a| a == "gateway").is_some();
            }
            "bench" => {
                eprintln!(
                    "experiments: `bench` is gone; run benchmark/run.sh (see benchmark/README.md)"
                );
                std::process::exit(2);
            }
            "frag-smoke" => std::process::exit(frag_smoke()),
            other => selected.push(other.to_lowercase()),
        }
    }
    let registry = all();
    if let Some(bad) = selected
        .iter()
        .find(|s| *s != "all" && registry.iter().all(|e| e.id != **s))
    {
        usage_error(&format!(
            "unknown argument '{bad}' (--list shows the experiments)"
        ));
    }
    if chaos {
        // `--ci` runs the same checks on the short horizon; the smoke
        // is deterministic either way.
        let code = if gateway {
            gw_chaos_exp::run(opts.seed)
        } else {
            chaos_exp::run(opts.seed, opts.quick || ci_check)
        };
        std::process::exit(code);
    }
    if list_only || selected.is_empty() {
        eprintln!("experiments (pass ids or 'all'; --quick for a smoke run):");
        for e in &registry {
            eprintln!("  {:>4}  {}", e.id, e.what);
        }
        if selected.is_empty() && !list_only {
            std::process::exit(2);
        }
        return;
    }
    let run_all = selected.iter().any(|s| s == "all");
    let chosen: Vec<usize> = registry
        .iter()
        .enumerate()
        .filter(|(_, e)| run_all || selected.iter().any(|s| s == e.id))
        .map(|(i, _)| i)
        .collect();
    if jobs > 1 {
        // Shard the sweep over a worker pool; results print in index
        // order once all workers finish, so the output is identical to
        // a serial run of the same selection.
        let specs: Vec<ExperimentSpec> = chosen
            .iter()
            .map(|&i| (registry[i].id, registry[i].what, registry[i].run))
            .collect();
        let shared = specs.clone();
        let opts_copy = opts;
        let outputs = pool_map(specs.len(), jobs, move |i| {
            let (_, _, run) = shared[i];
            run(&opts_copy)
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        });
        for ((id, what, _), tables) in specs.iter().zip(outputs) {
            eprintln!(
                "=== {} — {} ({}, {} jobs) ===",
                id,
                what,
                if opts.quick { "quick" } else { "full" },
                jobs
            );
            println!("{tables}");
        }
        return;
    }
    for &i in &chosen {
        let e = &registry[i];
        eprintln!(
            "=== {} — {} ({}) ===",
            e.id,
            e.what,
            if opts.quick { "quick" } else { "full" }
        );
        for table in (e.run)(&opts) {
            println!("{table}");
        }
    }
}
