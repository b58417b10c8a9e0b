//! Fault injection for the simulated bus.
//!
//! The paper's fault assumptions (§3.2, and the companion analysis of
//! Livani & Kaiser) cover **network omission faults** — a frame is valid
//! on the wire but a subset of receivers misses it — and **temporary
//! node faults**. We additionally model **corruption** faults, which on
//! a real bus are globalized by error frames and trigger the
//! controller's automatic retransmission.
//!
//! The injector decides the fate of each transmission *attempt*:
//!
//! * [`FaultDecision::Ok`] — all operational receivers get the frame.
//! * [`FaultDecision::Corrupt`] — an error frame destroys the
//!   transmission at some fraction of its length; nobody receives it and
//!   the controller re-enters arbitration (unless single-shot).
//! * [`FaultDecision::Omit`] — the frame completes on the wire but the
//!   selected receivers miss it. Per the paper's argument that "the
//!   CAN-Bus allows to determine ... whether all operational nodes have
//!   received a message successfully", the *sender* learns
//!   `all_received = false` and the middleware (not the controller)
//!   decides whether to spend a redundant retransmission.

use crate::frame::Frame;
use crate::id::NodeId;
use rtec_sim::{IntMap, Rng, Time};
use serde::{Deserialize, Serialize};

/// Which receivers an omission fault strikes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OmissionScope {
    /// All receivers miss the frame (symmetric omission).
    AllReceivers,
    /// One uniformly-chosen receiver misses it (asymmetric/inconsistent
    /// omission).
    OneRandomReceiver,
}

/// Stochastic or scripted fault model for the bus.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum FaultModel {
    /// Fault-free bus.
    None,
    /// Independent, identically distributed faults per transmission
    /// attempt.
    Iid {
        /// Probability an attempt is corrupted (error frame).
        corruption_p: f64,
        /// Probability an (uncorrupted) attempt suffers an omission.
        omission_p: f64,
        /// Which receivers an omission strikes.
        omission_scope: OmissionScope,
    },
    /// Gilbert–Elliott two-state burst model: in the *bad* state,
    /// corruption happens with `corruption_p_bad`; the chain moves
    /// good→bad with `p_g2b` and bad→good with `p_b2g` per attempt.
    Burst {
        /// Transition probability good → bad per attempt.
        p_g2b: f64,
        /// Transition probability bad → good per attempt.
        p_b2g: f64,
        /// Corruption probability while in the bad state.
        corruption_p_bad: f64,
        /// Corruption probability while in the good state.
        corruption_p_good: f64,
    },
    /// Deterministic omission runs: the first `run_len` transmission
    /// attempts of each *activation* of a matching etag are omitted
    /// (symmetric). The harness marks activation boundaries via
    /// [`FaultInjector::reset_runs`]. Used to inject an exact omission
    /// degree for the HRT guarantee experiment (E6).
    OmitRun {
        /// Restrict to this etag (`None` = every etag).
        etag: Option<u16>,
        /// Number of leading attempts to omit per activation.
        run_len: u32,
    },
    /// Corruption confined to a time window (transient disturbance).
    Window {
        /// Window start (inclusive).
        from_ns: u64,
        /// Window end (exclusive).
        to_ns: u64,
        /// Corruption probability inside the window.
        corruption_p: f64,
    },
}

/// Outcome chosen for one transmission attempt.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultDecision {
    /// Attempt succeeds for all operational receivers.
    Ok,
    /// Attempt is destroyed by an error frame after `fraction` of the
    /// frame (0 < fraction ≤ 1) has been transmitted.
    Corrupt {
        /// Fraction of the frame transmitted before the error.
        fraction: f64,
    },
    /// Frame completes but `victims` do not receive it.
    Omit {
        /// Receivers that miss the frame.
        victims: Vec<NodeId>,
    },
}

/// Stateful fault injector driving a [`FaultModel`].
#[derive(Clone, Debug)]
pub struct FaultInjector {
    model: FaultModel,
    rng: Rng,
    /// Gilbert–Elliott state: `true` = bad.
    in_bad_state: bool,
    /// Per-etag attempt counters for [`FaultModel::OmitRun`].
    run_counters: IntMap<u16, u32>,
    /// Total decisions taken (observability).
    decisions: u64,
    corruptions: u64,
    omissions: u64,
}

impl FaultInjector {
    /// Create an injector; `rng` should be a dedicated stream.
    pub fn new(model: FaultModel, rng: Rng) -> Self {
        FaultInjector {
            model,
            rng,
            in_bad_state: false,
            run_counters: IntMap::default(),
            decisions: 0,
            corruptions: 0,
            omissions: 0,
        }
    }

    /// A fault-free injector.
    pub fn none() -> Self {
        FaultInjector::new(FaultModel::None, Rng::seed_from_u64(0))
    }

    /// Whether the installed model never injects a fault, so a
    /// decision needs no receiver set.
    pub fn is_fault_free(&self) -> bool {
        matches!(self.model, FaultModel::None)
    }

    /// Replace the model (counters are kept).
    pub fn set_model(&mut self, model: FaultModel) {
        self.model = model;
        self.in_bad_state = false;
        self.run_counters.clear();
    }

    /// Mark an activation boundary for [`FaultModel::OmitRun`]: the next
    /// attempts of every etag count as a fresh run.
    pub fn reset_runs(&mut self) {
        self.run_counters.clear();
    }

    /// Decide the fate of a transmission attempt of `frame` at time
    /// `now` towards `receivers`.
    pub fn decide(&mut self, now: Time, frame: &Frame, receivers: &[NodeId]) -> FaultDecision {
        self.decisions += 1;
        let decision = match &self.model {
            FaultModel::None => FaultDecision::Ok,
            FaultModel::Iid {
                corruption_p,
                omission_p,
                omission_scope,
            } => {
                if self.rng.gen_bool(*corruption_p) {
                    FaultDecision::Corrupt {
                        fraction: self.rng.gen_f64().max(f64::MIN_POSITIVE),
                    }
                } else if !receivers.is_empty() && self.rng.gen_bool(*omission_p) {
                    let victims = match omission_scope {
                        OmissionScope::AllReceivers => receivers.to_vec(),
                        OmissionScope::OneRandomReceiver => {
                            let idx = self.rng.gen_range_u64(receivers.len() as u64) as usize;
                            vec![receivers[idx]]
                        }
                    };
                    FaultDecision::Omit { victims }
                } else {
                    FaultDecision::Ok
                }
            }
            FaultModel::Burst {
                p_g2b,
                p_b2g,
                corruption_p_bad,
                corruption_p_good,
            } => {
                // Advance the chain, then sample in the new state.
                if self.in_bad_state {
                    if self.rng.gen_bool(*p_b2g) {
                        self.in_bad_state = false;
                    }
                } else if self.rng.gen_bool(*p_g2b) {
                    self.in_bad_state = true;
                }
                let p = if self.in_bad_state {
                    *corruption_p_bad
                } else {
                    *corruption_p_good
                };
                if self.rng.gen_bool(p) {
                    FaultDecision::Corrupt {
                        fraction: self.rng.gen_f64().max(f64::MIN_POSITIVE),
                    }
                } else {
                    FaultDecision::Ok
                }
            }
            FaultModel::OmitRun { etag, run_len } => {
                let matches = etag.is_none_or(|e| frame.id.etag() == e);
                if matches && !receivers.is_empty() {
                    let counter = self.run_counters.entry(frame.id.etag()).or_insert(0);
                    if *counter < *run_len {
                        *counter += 1;
                        FaultDecision::Omit {
                            victims: receivers.to_vec(),
                        }
                    } else {
                        FaultDecision::Ok
                    }
                } else {
                    FaultDecision::Ok
                }
            }
            FaultModel::Window {
                from_ns,
                to_ns,
                corruption_p,
            } => {
                if (Time::from_ns(*from_ns)..Time::from_ns(*to_ns)).contains(&now)
                    && self.rng.gen_bool(*corruption_p)
                {
                    FaultDecision::Corrupt {
                        fraction: self.rng.gen_f64().max(f64::MIN_POSITIVE),
                    }
                } else {
                    FaultDecision::Ok
                }
            }
        };
        match &decision {
            FaultDecision::Corrupt { .. } => self.corruptions += 1,
            FaultDecision::Omit { .. } => self.omissions += 1,
            FaultDecision::Ok => {}
        }
        decision
    }

    /// Total decisions taken.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }
    /// Corruption faults injected.
    pub fn corruptions(&self) -> u64 {
        self.corruptions
    }
    /// Omission faults injected.
    pub fn omissions(&self) -> u64 {
        self.omissions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::CanId;

    fn frame_with_etag(etag: u16) -> Frame {
        Frame::new(CanId::new(10, 1, etag), &[1, 2])
    }

    fn rx() -> Vec<NodeId> {
        vec![NodeId(1), NodeId(2), NodeId(3)]
    }

    #[test]
    fn none_model_never_faults() {
        let mut inj = FaultInjector::none();
        for _ in 0..100 {
            assert_eq!(
                inj.decide(Time::ZERO, &frame_with_etag(1), &rx()),
                FaultDecision::Ok
            );
        }
        assert_eq!(inj.corruptions(), 0);
        assert_eq!(inj.omissions(), 0);
        assert_eq!(inj.decisions(), 100);
    }

    #[test]
    fn iid_rates_track_probabilities() {
        let mut inj = FaultInjector::new(
            FaultModel::Iid {
                corruption_p: 0.1,
                omission_p: 0.2,
                omission_scope: OmissionScope::AllReceivers,
            },
            Rng::seed_from_u64(1),
        );
        let n = 20_000;
        for _ in 0..n {
            inj.decide(Time::ZERO, &frame_with_etag(1), &rx());
        }
        let corr = inj.corruptions() as f64 / n as f64;
        // omission is conditioned on no corruption: expected 0.9 * 0.2
        let omit = inj.omissions() as f64 / n as f64;
        assert!((corr - 0.1).abs() < 0.01, "corr {corr}");
        assert!((omit - 0.18).abs() < 0.01, "omit {omit}");
    }

    #[test]
    fn omission_scope_all_vs_one() {
        let mut all = FaultInjector::new(
            FaultModel::Iid {
                corruption_p: 0.0,
                omission_p: 1.0,
                omission_scope: OmissionScope::AllReceivers,
            },
            Rng::seed_from_u64(2),
        );
        match all.decide(Time::ZERO, &frame_with_etag(1), &rx()) {
            FaultDecision::Omit { victims } => assert_eq!(victims.len(), 3),
            other => panic!("expected omit, got {other:?}"),
        }
        let mut one = FaultInjector::new(
            FaultModel::Iid {
                corruption_p: 0.0,
                omission_p: 1.0,
                omission_scope: OmissionScope::OneRandomReceiver,
            },
            Rng::seed_from_u64(3),
        );
        match one.decide(Time::ZERO, &frame_with_etag(1), &rx()) {
            FaultDecision::Omit { victims } => assert_eq!(victims.len(), 1),
            other => panic!("expected omit, got {other:?}"),
        }
    }

    #[test]
    fn omission_with_no_receivers_is_ok() {
        let mut inj = FaultInjector::new(
            FaultModel::Iid {
                corruption_p: 0.0,
                omission_p: 1.0,
                omission_scope: OmissionScope::AllReceivers,
            },
            Rng::seed_from_u64(4),
        );
        assert_eq!(
            inj.decide(Time::ZERO, &frame_with_etag(1), &[]),
            FaultDecision::Ok
        );
    }

    #[test]
    fn omit_run_injects_exact_degree_per_activation() {
        let mut inj = FaultInjector::new(
            FaultModel::OmitRun {
                etag: Some(7),
                run_len: 2,
            },
            Rng::seed_from_u64(5),
        );
        let f = frame_with_etag(7);
        // First two attempts omitted, third succeeds.
        assert!(matches!(
            inj.decide(Time::ZERO, &f, &rx()),
            FaultDecision::Omit { .. }
        ));
        assert!(matches!(
            inj.decide(Time::ZERO, &f, &rx()),
            FaultDecision::Omit { .. }
        ));
        assert_eq!(inj.decide(Time::ZERO, &f, &rx()), FaultDecision::Ok);
        // Other etags unaffected.
        assert_eq!(
            inj.decide(Time::ZERO, &frame_with_etag(9), &rx()),
            FaultDecision::Ok
        );
        // New activation restarts the run.
        inj.reset_runs();
        assert!(matches!(
            inj.decide(Time::ZERO, &f, &rx()),
            FaultDecision::Omit { .. }
        ));
    }

    #[test]
    fn window_model_respects_bounds() {
        let mut inj = FaultInjector::new(
            FaultModel::Window {
                from_ns: 1_000,
                to_ns: 2_000,
                corruption_p: 1.0,
            },
            Rng::seed_from_u64(6),
        );
        let f = frame_with_etag(1);
        assert_eq!(inj.decide(Time::from_ns(500), &f, &rx()), FaultDecision::Ok);
        assert!(matches!(
            inj.decide(Time::from_ns(1_500), &f, &rx()),
            FaultDecision::Corrupt { .. }
        ));
        assert_eq!(
            inj.decide(Time::from_ns(2_000), &f, &rx()),
            FaultDecision::Ok
        );
    }

    #[test]
    fn burst_model_produces_clustered_errors() {
        let mut inj = FaultInjector::new(
            FaultModel::Burst {
                p_g2b: 0.01,
                p_b2g: 0.2,
                corruption_p_bad: 0.9,
                corruption_p_good: 0.0,
            },
            Rng::seed_from_u64(7),
        );
        let f = frame_with_etag(1);
        let n = 50_000;
        let outcomes: Vec<bool> = (0..n)
            .map(|_| {
                matches!(
                    inj.decide(Time::ZERO, &f, &rx()),
                    FaultDecision::Corrupt { .. }
                )
            })
            .collect();
        let errors = outcomes.iter().filter(|&&e| e).count();
        assert!(errors > 0, "burst model produced no errors");
        // Clustering: probability an error follows an error must exceed
        // the marginal error rate.
        let mut after_err = 0usize;
        let mut err_pairs = 0usize;
        for w in outcomes.windows(2) {
            if w[0] {
                after_err += 1;
                if w[1] {
                    err_pairs += 1;
                }
            }
        }
        let p_err_after_err = err_pairs as f64 / after_err.max(1) as f64;
        let p_err = errors as f64 / n as f64;
        assert!(
            p_err_after_err > 2.0 * p_err,
            "no clustering: {p_err_after_err} vs {p_err}"
        );
    }

    #[test]
    fn corrupt_fraction_is_positive_and_bounded() {
        let mut inj = FaultInjector::new(
            FaultModel::Iid {
                corruption_p: 1.0,
                omission_p: 0.0,
                omission_scope: OmissionScope::AllReceivers,
            },
            Rng::seed_from_u64(8),
        );
        for _ in 0..100 {
            match inj.decide(Time::ZERO, &frame_with_etag(1), &rx()) {
                FaultDecision::Corrupt { fraction } => {
                    assert!(fraction > 0.0 && fraction <= 1.0)
                }
                other => panic!("expected corrupt, got {other:?}"),
            }
        }
    }
}
