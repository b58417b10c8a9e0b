//! The experiment registry: one module per entry of the DESIGN.md
//! experiment index.

pub mod common;
pub mod e10_admission;
pub mod e11_polling;
pub mod e1_slot_structure;
pub mod e2_reclamation;
pub mod e3_redundancy;
pub mod e4_priority_slots;
pub mod e5_policies;
pub mod e6_fault_guarantees;
pub mod e7_interference;
pub mod e8_bulk;
pub mod e9_clock_sync;

use crate::{RunOpts, Table};

/// A runnable experiment.
pub struct Experiment {
    /// Short id (`e1`...`e10`).
    pub id: &'static str,
    /// One-line description.
    pub what: &'static str,
    /// Run it, producing tables.
    pub run: fn(&RunOpts) -> Vec<Table>,
}

/// All experiments, in index order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "e1",
            what: "Fig. 3 slot structure: delivery jitter removal & LST blocking bound",
            run: e1_slot_structure::run,
        },
        Experiment {
            id: "e2",
            what: "bandwidth reclamation of unused HRT slots vs TTCAN",
            run: e2_reclamation::run,
        },
        Experiment {
            id: "e3",
            what: "time-redundancy cost vs fault rate (early stop vs always-k)",
            run: e3_redundancy::run,
        },
        Experiment {
            id: "e4",
            what: "priority-slot length trade-off: horizon vs ties vs misses",
            run: e4_priority_slots::run,
        },
        Experiment {
            id: "e5",
            what: "EDF vs fixed-priority vs dual-priority under load sweep",
            run: e5_policies::run,
        },
        Experiment {
            id: "e6",
            what: "HRT guarantees under injected omission degrees",
            run: e6_fault_guarantees::run,
        },
        Experiment {
            id: "e7",
            what: "priority-band non-interference under adversarial background",
            run: e7_interference::run,
        },
        Experiment {
            id: "e8",
            what: "NRT bulk transfer under real-time load",
            run: e8_bulk::run,
        },
        Experiment {
            id: "e9",
            what: "clock-sync precision vs drift & resync period (ΔG_min)",
            run: e9_clock_sync::run,
        },
        Experiment {
            id: "e10",
            what: "calendar admission test & slot layout (Fig. 3 numbers)",
            run: e10_admission::run,
        },
        Experiment {
            id: "e11",
            what: "sporadic latency: event channels vs TTP/A-style polling",
            run: e11_polling::run,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtec_sim::parallel::pool_map;

    /// The sharded sweep (`experiments all --jobs N`) renders the same
    /// tables as the serial sweep.
    #[test]
    fn sharded_sweep_matches_serial() {
        let opts = RunOpts {
            quick: true,
            seed: 11,
            conformance: false,
        };
        // Two experiments are enough to cross a worker boundary.
        let specs: Vec<fn(&RunOpts) -> Vec<Table>> = all().iter().take(2).map(|e| e.run).collect();
        let render = move |i: usize| {
            (specs[i])(&opts)
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        };
        let serial: Vec<String> = (0..2).map(&render).collect();
        assert_eq!(serial, pool_map(2, 2, render));
    }
}
