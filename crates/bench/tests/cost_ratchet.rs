//! Deterministic cost counts, ratcheted: hot paths whose steady state
//! must not touch the heap, checked with a counting global allocator.
//!
//! libtest runs tests on parallel threads, so the allocator counts per
//! thread and each test reads only its own thread's count.

use rtec_core::frag::{fragment, Reassembler};
use rtec_sim::trace::INLINE_FIELDS;
use rtec_sim::{Time, TraceSink};

/// Allocation-counting wrapper around the system allocator: the only
/// `unsafe` in the workspace. It adds nothing but a thread-local
/// counter bump in front of `System`, so a test can assert — not
/// estimate — that a loop stops allocating once its buffers are warm.
#[allow(unsafe_code)]
mod counted_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        // Const-initialised and drop-free: touching it never allocates
        // and never fails, even from inside the allocator.
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    /// Allocation calls (alloc, alloc_zeroed, realloc) made by this
    /// thread so far.
    pub fn allocations() -> u64 {
        ALLOCS.with(Cell::get)
    }

    fn bump() {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }

    struct Counting;

    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            bump();
            unsafe { System.alloc(layout) }
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            bump();
            unsafe { System.alloc_zeroed(layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            bump();
            unsafe { System.realloc(ptr, layout, new_size) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTER: Counting = Counting;
}

/// Allocations this thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = counted_alloc::allocations();
    f();
    counted_alloc::allocations() - before
}

/// The counter sees this thread's allocations (so a 0 below is real).
#[test]
fn counter_sees_an_allocation() {
    let n = allocations_in(|| drop(std::hint::black_box(Box::new(7u64))));
    assert_eq!(n, 1);
}

/// After one warm-up transfer fills the reassembler's scratch
/// free-list, 1 000 further bulk transfers through the same stream
/// allocate nothing.
#[test]
fn warm_fragment_reassembly_allocates_nothing() {
    let payload = vec![0xA5u8; 1536]; // a many-fragment bulk transfer
    let frags = fragment(&payload);
    let mut r: Reassembler<u8> = Reassembler::new();
    let transfer = |r: &mut Reassembler<u8>| {
        let mut done = None;
        for f in &frags {
            done = r.push(7, f).expect("well-formed fragment stream");
        }
        let msg = done.expect("transfer completes");
        assert_eq!(msg.len(), payload.len());
        r.recycle(msg);
    };
    transfer(&mut r);
    let n = allocations_in(|| (0..1_000).for_each(|_| transfer(&mut r)));
    assert_eq!(
        n, 0,
        "steady-state reassembly allocated: scratch reuse regressed"
    );
}

/// 10 000 records of 0..=INLINE_FIELDS fields each, from one interned
/// source, cycling through four kinds.
fn emit_burst(sink: &TraceSink) {
    let src = sink.intern("bus");
    let fields = [("cand", 1u64); INLINE_FIELDS];
    for i in 0..10_000usize {
        let kind = ["arb", "tx_start", "tx_end", "rx"][i % 4];
        sink.emit_fields(
            Time::from_ns(i as u64),
            src,
            kind,
            &fields[..i % (INLINE_FIELDS + 1)],
        );
    }
}

/// The trace module's claim: recording into a warm bounded ring is
/// allocation-free while the fields fit inline.
#[test]
fn warm_bounded_trace_ring_allocates_nothing() {
    let sink = TraceSink::enabled_with_capacity(4_096);
    emit_burst(&sink); // intern "bus" and fill the ring
    let n = allocations_in(|| emit_burst(&sink));
    assert_eq!(n, 0, "recording into a warm ring allocated");
    assert_eq!(sink.len(), 4_096);
    assert_eq!(sink.dropped(), 20_000 - 4_096);
}

/// A disabled sink drops every record without touching the heap.
#[test]
fn disabled_trace_sink_allocates_nothing() {
    let sink = TraceSink::disabled();
    let n = allocations_in(|| emit_burst(&sink));
    assert_eq!(n, 0, "a disabled sink allocated");
    assert!(sink.is_empty());
}
