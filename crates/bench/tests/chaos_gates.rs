//! The two chaos gates, run through the library. Their own test binary
//! keeps them from sharing the CPU with the golden tables: both run the
//! threaded live cluster, whose supervision watches wall-clock progress.

use rtec_bench::{chaos_exp, gw_chaos_exp};

/// `experiments chaos --ci`: both killed nodes rejoin with no double
/// delivery, the merged trace passes T1..T8, and a same-seed rerun is
/// byte-identical.
#[test]
fn chaos_gate_passes() {
    assert_eq!(chaos_exp::run(42, true), 0);
}

/// `experiments chaos gateway --ci`: every severed client resumes, HRT
/// stays exactly-once across the reconnect, T1..T9 hold, and a TTL-0
/// resume is refused.
#[test]
fn gateway_chaos_gate_passes() {
    assert_eq!(gw_chaos_exp::run(42), 0);
}
