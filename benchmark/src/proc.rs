//! Process-level measurement: CPU time and context switches
//! (`getrusage`), peak resident set (`VmHWM`), CPU placement
//! (`sched_setaffinity`) and a counting global allocator.
//!
//! This is the only file of the benchmark with `unsafe`: three libc
//! calls declared by hand (the container has no `libc` crate) and the
//! allocator shim. Everything else measures through these safe
//! wrappers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// `System` plus two relaxed counters: allocation calls and bytes
/// requested. Always on — the counters publish no other data, and one
/// relaxed add per allocation is below the noise of every workload.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `timeval`s followed by fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const RUSAGE_SELF: i32 = 0;
/// Words of the CPU mask handed to the kernel (1024 CPUs, glibc's
/// `cpu_set_t`).
const MASK_WORDS: usize = 16;

/// A point-in-time reading of this process's cumulative counters, all
/// threads included.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Voluntary context switches (a thread blocked and gave up its CPU).
    pub nvcsw: u64,
    /// Allocation calls.
    pub allocs: u64,
    /// Bytes requested from the allocator.
    pub alloc_bytes: u64,
}

impl Usage {
    /// Read the counters now.
    pub fn now() -> Usage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a live, writable `struct rusage` of the
        // layout the kernel fills for RUSAGE_SELF on 64-bit Linux.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail on a valid pointer"
        );
        Usage {
            cpu_s: (raw.utime_sec + raw.stime_sec) as f64
                + (raw.utime_usec + raw.stime_usec) as f64 / 1e6,
            nvcsw: raw.nvcsw as u64,
            allocs: ALLOCS.load(Ordering::Relaxed),
            alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - earlier.cpu_s,
            nvcsw: self.nvcsw - earlier.nvcsw,
            allocs: self.allocs - earlier.allocs,
            alloc_bytes: self.alloc_bytes - earlier.alloc_bytes,
        }
    }
}

/// The calling thread's CPU mask as it was before [`confine`] narrowed
/// it; dropping this restores it.
pub struct Confined([u64; MASK_WORDS]);

/// Confine the calling thread — and every thread it spawns from now on,
/// which inherit the mask — to the lowest-numbered CPU it is currently
/// allowed on. `None` when the kernel refuses. Threads that already
/// exist keep their own masks.
pub fn confine() -> Option<Confined> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is writable and `size_of_val(&mask)` bytes long;
    // pid 0 addresses the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let word = mask.iter().position(|&w| w != 0)?;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1u64 << mask[word].trailing_zeros();
    // SAFETY: `one` is readable and `size_of_val(&one)` bytes long.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(Confined(mask))
}

impl Drop for Confined {
    fn drop(&mut self) {
        // SAFETY: the saved mask is readable and `size_of_val` bytes
        // long. A failure leaves the thread confined, which only costs
        // speed; there is nothing to do about it here.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 when
/// `/proc` is unreadable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads of this process right now (`/proc/self/task` entries).
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(1, |d| d.count())
}
