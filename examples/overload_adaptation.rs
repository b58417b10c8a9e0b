//! Overload awareness and adaptation on soft real-time channels.
//!
//! The paper's SRT design is explicitly *not* guaranteed under
//! transient overload — instead the middleware makes the application
//! aware (deadline-miss and expiration exceptions, §2.2.2) so it can
//! adapt. This example runs a telemetry publisher that halves its rate
//! whenever its channel reports trouble and ramps back up in calm
//! phases, while a burst source periodically floods the bus.
//!
//! ```text
//! cargo run --release --example overload_adaptation
//! ```

use rtec::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

const TELEMETRY: Subject = Subject::new(0x7001);
const BURST: Subject = Subject::new(0x7002);

fn main() {
    let mut net = Network::builder().nodes(4).build();

    // Shared adaptive state: current telemetry period and trouble flag.
    #[derive(Debug)]
    struct Adaptive {
        period_us: u64,
        exceptions_seen: u64,
        rate_changes: Vec<(Time, u64)>,
    }
    let state = Rc::new(RefCell::new(Adaptive {
        period_us: 500,
        exceptions_seen: 0,
        rate_changes: vec![],
    }));

    let telemetry_q = {
        let mut api = net.api();
        let exc_state = state.clone();
        api.announce_with_handler(
            NodeId(0),
            TELEMETRY,
            ChannelSpec::srt(SrtSpec {
                default_deadline: Duration::from_ms(2),
                default_expiration: Some(Duration::from_ms(8)),
                ..SrtSpec::default()
            }),
            move |_exc| {
                // Local awareness: count; the publisher loop adapts.
                exc_state.borrow_mut().exceptions_seen += 1;
            },
        )
        .unwrap();
        // The burst source with tight deadlines (beats telemetry in
        // arbitration when both are urgent).
        api.announce(
            NodeId(1),
            BURST,
            ChannelSpec::srt(SrtSpec {
                default_deadline: Duration::from_us(400),
                default_expiration: Some(Duration::from_ms(4)),
                ..SrtSpec::default()
            }),
        )
        .unwrap();
        api.subscribe(NodeId(3), BURST, SubscribeSpec::default())
            .unwrap();
        api.subscribe(NodeId(2), TELEMETRY, SubscribeSpec::default())
            .unwrap()
    };

    // Telemetry publisher: self-rescheduling with an adaptive period.
    // (A fixed `every` cadence could not change rate, so the closure
    // re-reads the period each tick and skips ticks while backing off.)
    let pub_state = state.clone();
    let last_fire = Rc::new(RefCell::new(Time::ZERO));
    net.every(Duration::from_us(100), Duration::ZERO, move |api| {
        let mut s = pub_state.borrow_mut();
        let now = api.now();
        // Adaptation rule: trouble -> double the period (up to 8 ms);
        // calm for a while -> halve it (down to 500 us).
        if s.exceptions_seen > 0 {
            s.exceptions_seen = 0;
            if s.period_us < 8_000 {
                s.period_us *= 2;
                let period = s.period_us;
                s.rate_changes.push((now, period));
            }
        }
        let due = {
            let lf = last_fire.borrow();
            now.saturating_since(*lf) >= Duration::from_us(s.period_us)
        };
        if due {
            *last_fire.borrow_mut() = now;
            let _ = api.publish(
                NodeId(0),
                TELEMETRY,
                Event::new(TELEMETRY, now.as_ns().to_le_bytes().to_vec()),
            );
        }
    });
    // Slow recovery: every 20 ms of calm, speed back up.
    let recover_state = state.clone();
    net.every(Duration::from_ms(20), Duration::from_ms(10), move |api| {
        let mut s = recover_state.borrow_mut();
        if s.exceptions_seen == 0 && s.period_us > 500 {
            s.period_us /= 2;
            let period = s.period_us;
            s.rate_changes.push((api.now(), period));
        }
    });

    // Burst source: every 50 ms, a 10 ms flood of back-to-back frames.
    net.every(Duration::from_ms(50), Duration::from_ms(5), move |api| {
        for i in 0..70u8 {
            let _ = api.publish(NodeId(1), BURST, Event::new(BURST, vec![i; 8]));
        }
    });

    net.run_for(Duration::from_ms(300));

    let s = state.borrow();
    let stats = net.stats();
    let etag = net.world().registry().etag_of(TELEMETRY).unwrap();
    let ch = stats.channel(etag);
    println!("overload adaptation after 300 ms:");
    println!(
        "  telemetry: {} published, {} delivered, {} deadline misses, {} expired",
        ch.published, ch.delivered, ch.deadline_misses, ch.expired_drops
    );
    println!("  rate adaptations:");
    for (t, period) in &s.rate_changes {
        println!("    at {t}: period -> {period} us");
    }
    println!(
        "  telemetry queue backlog at end: {}",
        net.world().srt_queue_len(NodeId(0))
    );
    assert!(
        !s.rate_changes.is_empty(),
        "the publisher must have adapted to the bursts"
    );
    assert!(
        telemetry_q.len() as u64 == ch.delivered,
        "all deliveries reached the queue"
    );
    println!("  => application adapted instead of flooding a congested bus");
}
