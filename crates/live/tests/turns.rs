//! A node's turn over the real loopback transport, end to end: a
//! behavior that never lets its turn end is cut off by the broker's
//! turn budget as soon as it exceeds it, because the node hands its
//! requests over in parts of at most the mailbox's depth instead of
//! holding the whole endless turn back.

use rtec_core::channel::{ChannelSpec, SrtSpec};
use rtec_core::event::{Event, Subject};
use rtec_live::broker::{SupKind, MAX_TURN_REPLIES};
use rtec_live::cluster::{Cluster, ClusterConfig, LiveReport};
use rtec_live::node::{Behavior, NodeCtx};
use rtec_live::LiveError;
use rtec_sim::Duration;

const SUBJECT: Subject = Subject(0x2002);

/// Publishes an SRT sample every millisecond.
struct Ticker {
    counter: u8,
}

impl Behavior for Ticker {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(ctx.now() + Duration::from_ms(1), 0).unwrap();
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _payload: u64) {
        self.counter = self.counter.wrapping_add(1);
        let _ = ctx.publish(Event::new(SUBJECT, vec![self.counter]));
        ctx.set_timer(ctx.now() + Duration::from_ms(1), 0).unwrap();
    }
}

struct Quiet;
impl Behavior for Quiet {}

/// At 5 ms, arms timers in an endless loop: its turn never ends. The
/// loop stops only when the transport refuses the node.
struct TimerStorm;

impl Behavior for TimerStorm {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(ctx.now() + Duration::from_ms(5), 0).unwrap();
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _payload: u64) {
        let at = ctx.now() + Duration::from_ms(1);
        while ctx.set_timer(at, 1).is_ok() {}
    }
}

/// A ticker, its subscriber and the storm (node 2), for 20 ms of bus
/// time.
fn run(strict: bool) -> Result<LiveReport, LiveError> {
    let mut cluster = Cluster::new(ClusterConfig {
        strict,
        ..ClusterConfig::default()
    });
    let spec = ChannelSpec::Srt(SrtSpec::default());
    let ticker = cluster.add_node(Box::new(Ticker { counter: 0 }));
    let listener = cluster.add_node(Box::new(Quiet));
    cluster.add_node(Box::new(TimerStorm));
    cluster.publish(ticker, SUBJECT, spec);
    cluster.subscribe(listener, SUBJECT, spec);
    cluster.run_for(Duration::from_ms(20))
}

#[test]
fn a_strict_broker_stops_an_endless_turn_with_a_protocol_stall() {
    match run(true) {
        Err(LiveError::ProtocolStall { node, replies }) => {
            assert_eq!((node, replies), (2, MAX_TURN_REPLIES));
        }
        Err(other) => panic!("expected a protocol stall, got {other:?}"),
        Ok(_) => panic!("expected a protocol stall, the run succeeded"),
    }
}

#[test]
fn a_lenient_broker_quarantines_an_endless_turn_and_runs_on() {
    let report = run(false).expect("a lenient run survives the storm");
    let sup: Vec<_> = report
        .supervision
        .events
        .iter()
        .map(|e| (e.node, e.kind, e.reason))
        .collect();
    // Down for babbling, and off at once: a node added without a
    // restart factory is never restarted.
    assert_eq!(
        sup,
        vec![(2, SupKind::Down, "babble"), (2, SupKind::Off, "babble")]
    );
    // The ticker kept publishing after the quarantine at 5 ms: one
    // sample per millisecond of the 20 ms run reached the listener.
    let delivered = report.stats[1].delivered;
    assert!(delivered >= 18, "the run went on: {delivered} deliveries");
}
