//! E4 — the priority-slot length trade-off (§3.4).
//!
//! A small `Δt_p` separates close deadlines (fewer same-slot ties ⇒
//! fewer bounded priority inversions) but shrinks the horizon
//! `ΔH = 250·Δt_p` beyond which deadlines are indistinguishable. The
//! sweep runs the same near-saturation workload under EDF with
//! different slot lengths and reports the analytic horizon/tie numbers
//! next to the measured miss ratio.

use crate::table::{f, Table};
use crate::RunOpts;
use rtec_analysis::edf::{expected_tie_fraction, time_horizon, PrioritySlotConfig};
use rtec_baselines::{policy, run_testbed, without_expiry, TestbedConfig};
use rtec_can::bits::BitTiming;
use rtec_can::BusConfig;
use rtec_sim::{Duration, Rng};
use rtec_workloads::{scale_load, set_utilization, uniform_srt_set};

/// Run E4.
pub fn run(opts: &RunOpts) -> Vec<Table> {
    // Near-saturation workload with a wide deadline spectrum.
    let mut rng = Rng::seed_from_u64(opts.seed);
    let base = uniform_srt_set(
        16,
        8,
        Duration::from_ms(2),
        Duration::from_ms(200),
        &mut rng,
    );
    let set = scale_load(&base, 1.05 / set_utilization(&base, BitTiming::MBIT_1));
    let set = without_expiry(&set);
    let horizon = opts.horizon(Duration::from_secs(4));
    let deadline_window = Duration::from_ms(200);

    let mut t = Table::new(
        "E4: Δt_p trade-off — horizon ΔH vs ties vs measured inversions/misses (load ≈ 1.05)",
        &[
            "Δt_p (us)",
            "ΔH = 250·Δt_p (ms)",
            "tie prob (analytic)",
            "deadlines beyond ΔH",
            "inversions",
            "miss ratio",
            "completed",
        ],
    );
    for slot_us in [10u64, 40, 160, 640, 2_560, 10_240] {
        let cfg = PrioritySlotConfig {
            slot: Duration::from_us(slot_us),
            p_min: 1,
            p_max: 250,
        };
        if opts.conformance {
            // The swept Δt_p values must at least be statically sane
            // (S3/S5); extreme points may warn but never error.
            let mut li =
                rtec_conformance::LintInput::new(64, BitTiming::MBIT_1, Duration::from_ms(10));
            li.priority_slots = cfg;
            let report = rtec_conformance::lint(&li);
            assert!(report.passes(), "e4 lint (Δt_p = {slot_us} us):\n{report}");
        }
        let dh = time_horizon(&cfg);
        let ties = expected_tie_fraction(set.len() as u64, deadline_window, &cfg);
        let beyond = set.iter().filter(|s| s.rel_deadline > dh).count();
        let stats = run_testbed(
            &policy::edf(&set),
            TestbedConfig {
                bus: BusConfig::default(),
                streams: set.clone(),
                seed: opts.seed,
                priority_slots: cfg,
            },
            horizon,
        );
        t.row(vec![
            slot_us.to_string(),
            format!("{:.2}", dh.as_ms_f64()),
            f(ties),
            format!("{beyond}/{}", set.len()),
            stats.inversions.to_string(),
            f(stats.miss_ratio()),
            stats.completed.to_string(),
        ]);
    }
    t.note(
        "paper claim (§3.4): with 250 levels and Δt_p of about one frame time \
         (~160 us) the horizon holds 250 transfers — ties are rare and the \
         horizon comfortably covers a 32–64 node bus. Very large Δt_p degrades \
         the schedule (more ties); very small Δt_p clips long deadlines.",
    );
    t.note(format!("seed={}", opts.seed));
    vec![t]
}
