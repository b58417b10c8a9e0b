//! Same seed, same bytes: the experiment tables, run through the
//! library.
//!
//! The two golden files are what `experiments all --quick --seed 42` and
//! `experiments e4 e5 --seed 42` print on stdout. A refactor of the
//! simulator stack must leave every table untouched; regenerate a golden
//! only for a change that is *meant* to move a number, and say so in
//! CHANGES.md. `--quick` never builds the §4 testbed's overload backlog
//! (10⁴ queued messages at U = 1.5), so E4 and E5 are also pinned at the
//! full 4 s horizon.

use rtec_bench::experiments::all;
use rtec_bench::RunOpts;

/// What `experiments <ids> [--quick] --seed 42` prints on stdout.
fn tables(ids: &[&str], quick: bool) -> String {
    let opts = RunOpts {
        quick,
        seed: 42,
        conformance: true,
    };
    let run_all = ids.contains(&"all");
    let mut out = String::new();
    for e in all().iter().filter(|e| run_all || ids.contains(&e.id)) {
        for table in (e.run)(&opts) {
            out.push_str(&format!("{table}\n"));
        }
    }
    out
}

/// Fail with the first line that differs, numbered as `diff` would.
fn assert_same(golden: &str, name: &str, got: &str) {
    if golden == got {
        return;
    }
    let (want, have): (Vec<&str>, Vec<&str>) = (golden.lines().collect(), got.lines().collect());
    let line = (0..want.len().max(have.len()))
        .find(|&i| want.get(i) != have.get(i))
        .unwrap_or(want.len());
    panic!(
        "{name} differs at line {}:\n- {}\n+ {}",
        line + 1,
        want.get(line).unwrap_or(&"<end of file>"),
        have.get(line).unwrap_or(&"<end of output>"),
    );
}

#[test]
fn all_quick_seed42_matches_the_golden() {
    assert_same(
        include_str!("golden/all_quick_seed42.txt"),
        "all_quick_seed42.txt",
        &tables(&["all"], true),
    );
}

#[test]
fn e4_e5_full_seed42_matches_the_golden() {
    assert_same(
        include_str!("golden/e4_e5_full_seed42.txt"),
        "e4_e5_full_seed42.txt",
        &tables(&["e4", "e5"], false),
    );
}
