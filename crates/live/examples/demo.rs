//! Live-runtime demo: a four-node cluster mixing all three channel
//! classes over real threads and IPC.
//!
//! ```text
//! cargo run -p rtec-live --example demo            # loopback transport
//! cargo run -p rtec-live --example demo -- --udp   # UDP sockets
//! cargo run -p rtec-live --example demo -- --audit # + run T1..T9 auditor
//! cargo run -p rtec-live --example demo -- --wall  # paced at 100x wall time
//! ```
//!
//! Node 0 publishes a hard real-time sensor sample every 10 ms round;
//! node 1 publishes soft real-time commands every 3 ms; node 2 pushes a
//! fragmented bulk transfer in the background; node 3 subscribes to all
//! three and is the cluster's observer.

use rtec_conformance::audit::{audit, AuditContext};
use rtec_core::channel::{ChannelSpec, HrtSpec, NrtSpec, SrtSpec};
use rtec_core::event::{Event, Subject};
use rtec_live::cluster::{Cluster, ClusterConfig};
use rtec_live::node::{Behavior, NodeCtx};
use rtec_live::Pace;
use rtec_sim::Duration;

const SENSOR: Subject = Subject(0xCAFE);
const COMMAND: Subject = Subject(0xBEEF);
const FIRMWARE: Subject = Subject(0xF00D);

/// Stages a fresh sample for every HRT calendar round.
struct Sensor {
    reading: u8,
    period: Duration,
}

impl Behavior for Sensor {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.publish(Event::new(SENSOR, vec![self.reading, 0xA0]))
            .unwrap();
        let (at, period) = ctx.hrt_stage_schedule(SENSOR).unwrap();
        self.period = period;
        ctx.set_timer(at, 0).unwrap();
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _p: u64) {
        self.reading = self.reading.wrapping_add(1);
        ctx.publish(Event::new(SENSOR, vec![self.reading, 0xA0]))
            .unwrap();
        ctx.set_timer(ctx.now() + self.period, 0).unwrap();
    }
}

/// Publishes an SRT command every 3 ms.
struct Commander {
    seq: u8,
}

impl Behavior for Commander {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(ctx.now() + Duration::from_us(700), 0)
            .unwrap();
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _p: u64) {
        self.seq = self.seq.wrapping_add(1);
        let _ = ctx.publish(Event::new(COMMAND, vec![0xC0, self.seq]));
        ctx.set_timer(ctx.now() + Duration::from_ms(3), 0).unwrap();
    }
}

/// Pushes one fragmented firmware blob in the background.
struct Updater;

impl Behavior for Updater {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let blob: Vec<u8> = (0..400u16).map(|i| (i % 251) as u8).collect();
        ctx.publish(Event::new(FIRMWARE, blob)).unwrap();
    }
}

struct Observer;
impl Behavior for Observer {}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let pace = if has("--wall") {
        Pace::Wall { speedup: 100 }
    } else {
        Pace::Virtual
    };

    let cfg = ClusterConfig {
        pace,
        nrt_queue_cap: 128,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(cfg);
    let sensor = cluster.add_node(Box::new(Sensor {
        reading: 0,
        period: Duration::from_ms(10),
    }));
    let commander = cluster.add_node(Box::new(Commander { seq: 0 }));
    let updater = cluster.add_node(Box::new(Updater));
    let observer = cluster.add_node(Box::new(Observer));

    let hrt = ChannelSpec::Hrt(HrtSpec::periodic_10ms());
    let srt = ChannelSpec::Srt(SrtSpec::default());
    let nrt = ChannelSpec::Nrt(NrtSpec::bulk());
    cluster.publish(sensor, SENSOR, hrt);
    cluster.publish(commander, COMMAND, srt);
    cluster.publish(updater, FIRMWARE, nrt);
    cluster.subscribe(observer, SENSOR, hrt);
    cluster.subscribe(observer, COMMAND, srt);
    cluster.subscribe(observer, FIRMWARE, nrt);

    let run = Duration::from_ms(100);
    let transport = if has("--udp") { "udp" } else { "loopback" };
    println!("running 4-node cluster for 100 ms of bus time ({transport} transport)...");
    let report = if has("--udp") {
        cluster.run_for_udp(run)
    } else {
        cluster.run_for(run)
    }
    .expect("cluster run failed");

    println!("\nbus: {:?}", report.broker);
    for s in &report.stats {
        println!(
            "node {}: published {:3}  delivered {:3}  exceptions {}  backpressure {}",
            s.node, s.published, s.delivered, s.exceptions, s.backpressure
        );
    }
    for class in ["Hrt", "Srt", "Nrt"] {
        let n = report
            .log
            .iter()
            .filter(|r| format!("{:?}", r.class) == class)
            .count();
        println!("{class} deliveries: {n}");
    }
    if let Some(last) = report.log.last() {
        println!(
            "last delivery: node {} got {} bytes of etag {} at t={} ns",
            last.node,
            last.bytes.len(),
            last.etag,
            last.delivered_ns
        );
    }

    if has("--audit") {
        let ctx = AuditContext::from_parts(
            (*report.calendar).clone(),
            report.calendar_start,
            report.channels.clone(),
            report.hrt_periods.clone(),
        );
        let rep = audit(&ctx, &report.trace);
        println!(
            "\nconformance audit over {} trace events: {}",
            report.trace.len(),
            if rep.passes() { "PASS" } else { "FAIL" }
        );
        for d in rep.errors() {
            println!("  {d:?}");
        }
        if !rep.passes() {
            std::process::exit(1);
        }
    }
}
