//! E5 — EDF event channels vs the fixed-priority and dual-priority
//! baselines of §4, across a load sweep into transient overload.
//!
//! All policies see the *identical* release sequence (same seed). The
//! expected shape: below saturation EDF ≈ DM ≈ dual with few misses;
//! approaching and past saturation EDF degrades latest and most
//! gracefully, and the expiration mechanism (EDF+expiry) keeps queues
//! bounded by shedding stale messages instead of accumulating backlog.

use crate::table::{f, Table};
use crate::RunOpts;
use rtec_analysis::edf::PrioritySlotConfig;
use rtec_baselines::{policy, run_testbed, without_expiry, TestbedConfig};
use rtec_can::bits::BitTiming;
use rtec_can::BusConfig;
use rtec_sim::{Duration, Rng};
use rtec_workloads::{scale_load, set_utilization, uniform_srt_set};

/// Run E5.
pub fn run(opts: &RunOpts) -> Vec<Table> {
    let mut rng = Rng::seed_from_u64(opts.seed);
    let base = uniform_srt_set(12, 6, Duration::from_ms(2), Duration::from_ms(50), &mut rng);
    let base_util = set_utilization(&base, BitTiming::MBIT_1);
    let horizon = opts.horizon(Duration::from_secs(4));

    if opts.conformance {
        // Lint the workload as SRT channel declarations: deadlines vs
        // the ΔH horizon, expirations vs deadlines, band partition.
        let mut li = rtec_conformance::LintInput::new(64, BitTiming::MBIT_1, Duration::from_ms(10));
        li.channels = base
            .iter()
            .map(|s| rtec_conformance::ChannelDecl {
                etag: 16 + s.id,
                publisher: s.node,
                spec: rtec_core::channel::ChannelSpec::srt(rtec_core::channel::SrtSpec {
                    default_deadline: s.rel_deadline,
                    default_expiration: s.rel_expiration,
                    ..Default::default()
                }),
            })
            .collect();
        let report = rtec_conformance::lint(&li);
        assert!(report.passes(), "e5 lint:\n{report}");
    }

    let mut t = Table::new(
        "E5: deadline-miss ratio vs offered load (identical workloads)",
        &[
            "load (U)",
            "EDF",
            "fixed-DM",
            "dual-prio",
            "EDF no-promo (abl.)",
            "EDF+expiry (miss)",
            "EDF worst-stream fail",
            "DM worst-stream fail",
            "EDF+expiry backlog",
            "EDF backlog",
        ],
    );
    for load in [0.3, 0.5, 0.7, 0.85, 0.95, 1.05, 1.2, 1.5] {
        let set = scale_load(&base, load / base_util);
        let slots = PrioritySlotConfig::paper_default();
        // Only the EDF+expiry column drops expired messages.
        let cfg = |streams| TestbedConfig {
            bus: BusConfig::default(),
            streams,
            seed: opts.seed,
            priority_slots: slots,
        };
        let keep = || cfg(without_expiry(&set));
        let edf = run_testbed(&policy::edf(&set), keep(), horizon);
        let dm = run_testbed(&policy::deadline_monotonic(&set), keep(), horizon);
        let dual_prio = policy::dual_priority(&set, BitTiming::MBIT_1);
        let dual = run_testbed(&dual_prio, keep(), horizon);
        let edf_exp = run_testbed(&policy::edf(&set), cfg(set.clone()), horizon);
        let edf_static = run_testbed(&policy::no_promotion(&set, &slots), keep(), horizon);
        t.row(vec![
            f(load),
            f(edf.miss_ratio()),
            f(dm.miss_ratio()),
            f(dual.miss_ratio()),
            f(edf_static.miss_ratio()),
            f(edf_exp.miss_ratio()),
            f(edf.worst_stream_failure_ratio()),
            f(dm.worst_stream_failure_ratio()),
            edf_exp.backlog.to_string(),
            edf.backlog.to_string(),
        ]);
    }
    t.note(
        "under *sustained* overload EDF spreads lateness over all streams while \
         fixed priorities starve the lowest streams entirely (worst-stream \
         columns); the channel model's answer to overload is the expiration \
         attribute, which sheds stale events and keeps queues bounded.",
    );
    t.note(
        "paper claims: SRT channels are scheduled EDF (optimal on a single \
         resource up to the non-preemption/quantization effects), misses appear \
         only under transient overload, and the expiration attribute sheds stale \
         events instead of letting queues grow without bound (§2.2.2).",
    );
    t.note(format!(
        "seed={}, base utilization {:.3}",
        opts.seed, base_util
    ));
    vec![t]
}
