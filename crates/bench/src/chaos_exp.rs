//! Deterministic chaos smoke (`experiments chaos`).
//!
//! Drives the live runtime's fault-tolerance machinery end to end: an
//! 8-node loopback cluster (one HRT source, six SRT publishers, one
//! subscriber — all restartable) runs under a seeded [`ChaosPlan`]
//! that kills two of the nodes mid-run and drops 5 % of broker → node
//! datagrams. The smoke then checks the robustness acceptance
//! criteria, not just survival:
//!
//! * every killed node is restarted and completes its rejoin handshake
//!   (no unresolved `Down` at the end of the run);
//! * no event is delivered twice across a rejoin (at-most-once resync);
//! * the merged trace still satisfies the `T1`..`T8` auditor;
//! * no handshake replay went unclassified;
//! * a second run under the same seed produces a byte-identical
//!   delivery log and supervision timeline.
//!
//! Exit code 0 when all hold, 1 otherwise — `ci.sh` gates on it.

use rtec_conformance::audit::{audit, handshake_anomalies, AuditContext};
use rtec_core::channel::{ChannelSpec, HrtSpec, SrtSpec};
use rtec_core::event::{Event, Subject};
use rtec_live::chaos;
use rtec_live::cluster::{Cluster, ClusterConfig, LiveReport};
use rtec_live::node::{Behavior, NodeCtx};
use rtec_live::{ChaosPlan, ChaosReport, Pace};
use rtec_sim::Duration;

const NODES: usize = 8;
/// Bus-time horizon of the CI gate. Only the subscriber is ever sent a
/// `Deliver` (completions are addressed by acceptance filter), so it
/// takes this long for 5 % of them to be a few dozen dropped datagrams.
const CI_HORIZON: Duration = Duration::from_ms(500);
const HRT_SUBJECT: Subject = Subject(0xC001);

struct HrtSource {
    counter: u8,
    period: Duration,
}

impl Behavior for HrtSource {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.publish(Event::new(HRT_SUBJECT, vec![self.counter]))
            .unwrap();
        let (at, period) = ctx.hrt_stage_schedule(HRT_SUBJECT).unwrap();
        self.period = period;
        ctx.set_timer(at, 0).unwrap();
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _p: u64) {
        self.counter = self.counter.wrapping_add(1);
        ctx.publish(Event::new(HRT_SUBJECT, vec![self.counter]))
            .unwrap();
        ctx.set_timer(ctx.now() + self.period, 0).unwrap();
    }
}

struct SrtSource {
    subject: Subject,
    every: Duration,
    phase: Duration,
    counter: u8,
}

impl Behavior for SrtSource {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(ctx.now() + self.phase, 0).unwrap();
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _p: u64) {
        self.counter = self.counter.wrapping_add(1);
        let _ = ctx.publish(Event::new(self.subject, vec![0xC5, self.counter]));
        ctx.set_timer(ctx.now() + self.every, 0).unwrap();
    }
}

struct Sink;
impl Behavior for Sink {}

/// The 8-node smoke topology, every behavior minted from a factory so
/// the supervisor can restart any node.
fn cluster() -> Cluster {
    let cfg = ClusterConfig {
        pace: Pace::Virtual,
        restart_backoff: Duration::from_ms(1),
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(cfg);
    let hrt_node = cluster.add_node_with(Box::new(|| {
        Box::new(HrtSource {
            counter: 0,
            period: Duration::from_ms(10),
        })
    }));
    let hrt = ChannelSpec::Hrt(HrtSpec::periodic_10ms());
    cluster.publish(hrt_node, HRT_SUBJECT, hrt);
    let sink = {
        // Defined last so node ids 1..=6 are the SRT publishers.
        let srt = ChannelSpec::Srt(SrtSpec::default());
        let mut subjects = Vec::new();
        for i in 0..NODES - 2 {
            let subject = Subject(0xC100 + i as u64);
            let every = Duration::from_ms(3);
            let phase = Duration::from_us(400 * (i as u64 + 1));
            let node = cluster.add_node_with(Box::new(move || {
                Box::new(SrtSource {
                    subject,
                    every,
                    phase,
                    counter: 0,
                })
            }));
            cluster.publish(node, subject, srt);
            subjects.push(subject);
        }
        let sink = cluster.add_node_with(Box::new(|| Box::new(Sink)));
        cluster.subscribe(sink, HRT_SUBJECT, hrt);
        for s in subjects {
            cluster.subscribe(sink, s, srt);
        }
        sink
    };
    debug_assert_eq!((hrt_node, sink), (0, (NODES - 1) as u8));
    cluster
}

/// Kill the subscriber and one SRT publisher, drop 5 % of datagrams,
/// duplicate 2 % (the node-side watermark must discard them).
fn plan(seed: u64) -> ChaosPlan {
    ChaosPlan {
        seed,
        kills: vec![((NODES - 1) as u8, 60), (3, 20)],
        drop_rate: 0.05,
        dup_rate: 0.02,
        ..ChaosPlan::default()
    }
}

fn one_run(seed: u64, run: Duration) -> Result<(LiveReport, ChaosReport), String> {
    cluster()
        .run_for_chaos(run, plan(seed))
        .map_err(|e| format!("chaos run failed: {e}"))
}

fn check(report: &LiveReport, chaos_rep: &ChaosReport) -> Result<(), String> {
    if chaos_rep.kills != 2 {
        return Err(format!("expected 2 kills, saw {}", chaos_rep.kills));
    }
    let verdict = chaos::verdict(report);
    if verdict.restarts < 2 {
        return Err(format!(
            "both killed nodes must rejoin: {:?}",
            report.supervision.events
        ));
    }
    if !verdict.ok() {
        return Err(format!(
            "liveness/at-most-once verdict failed: {verdict:?}\n{:?}",
            report.supervision.events
        ));
    }
    let ctx = AuditContext::from_parts(
        (*report.calendar).clone(),
        report.calendar_start,
        report.channels.clone(),
        report.hrt_periods.clone(),
    );
    let audit_rep = audit(&ctx, &report.trace);
    if !audit_rep.passes() {
        return Err(format!(
            "T1..T9 audit failed on the merged trace:\n{:#?}",
            audit_rep.errors().collect::<Vec<_>>()
        ));
    }
    // Loopback relinks mint fresh endpoints, so a replayed handshake
    // here would mean the classifier itself misfired.
    let replays = handshake_anomalies(&report.trace);
    if replays != 0 {
        return Err(format!("{replays} unexplained handshake replay(s)"));
    }
    Ok(())
}

/// Run the chaos smoke. `quick` shrinks the bus-time horizon (the run
/// is virtually paced, so both modes finish in well under a second).
pub fn run(seed: u64, quick: bool) -> i32 {
    let run = if quick { CI_HORIZON } else { CI_HORIZON * 3 };
    eprintln!(
        "== chaos smoke ({NODES}-node loopback, 2 kills, {:.0}% drop, seed {seed}, {} ms bus time) ==",
        plan(seed).drop_rate * 100.0,
        run.as_ns() / 1_000_000
    );
    let (a, ar) = match one_run(seed, run) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos: {e}");
            return 1;
        }
    };
    if let Err(e) = check(&a, &ar) {
        eprintln!("chaos: {e}");
        return 1;
    }
    let recoveries = a.supervision.recovery_times_ns();
    let max_recovery_us = recoveries.iter().max().copied().unwrap_or(0) / 1_000;
    eprintln!(
        "  run A: {} deliveries, {} downs / {} restarts, worst recovery {} µs, \
         {} dropped / {} duplicated datagrams",
        a.log.len(),
        a.supervision.downs,
        a.supervision.restarts,
        max_recovery_us,
        ar.dropped,
        ar.duplicated
    );
    // Same seed ⇒ byte-identical run, crashes and all.
    let (b, _) = match one_run(seed, run) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos: rerun: {e}");
            return 1;
        }
    };
    if a.log != b.log {
        eprintln!("chaos: delivery logs diverged between same-seed runs");
        return 1;
    }
    if a.supervision.events != b.supervision.events {
        eprintln!("chaos: supervision timelines diverged between same-seed runs");
        return 1;
    }
    eprintln!("chaos: ok (second same-seed run byte-identical)");
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate's invariants hold on the CI horizon.
    #[test]
    fn chaos_invariants_hold() {
        let (report, chaos_rep) = one_run(42, CI_HORIZON).expect("chaos run");
        check(&report, &chaos_rep).expect("chaos invariants");
        assert!(chaos_rep.dropped >= 30, "{chaos_rep:?}");
    }
}
