//! Host shape. The module keeps its name because `benchmark/` imports
//! `rtec_bench::parallel_perf::cpu_cores` and may not be edited here.

/// Usable cores on this host.
pub fn cpu_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
