//! Quickstart: one channel of every class on a five-node bus.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The example walks the full API surface of the paper (Figs. 1–2):
//! `announce`, `publish`, `subscribe` (with event queue, notification
//! handler and exception handler), the off-line calendar admission for
//! the hard real-time channel, and `cancelSubscription`.

use rtec::prelude::*;

fn main() {
    // A 5-node CAN segment at 1 Mbit/s (the paper's configuration).
    let mut net = Network::builder()
        .nodes(5)
        .round(Duration::from_ms(10))
        .build();

    // Subjects are system-wide unique identifiers for event types.
    let wheel_speed = Subject::new(0x0100); // hard real-time sensor value
    let door_state = Subject::new(0x0200); // soft real-time event
    let datasheet = Subject::new(0x0300); // non real-time bulk data

    // --- set up channels -------------------------------------------------
    let (speed_q, door_q, sheet_q) = {
        let mut api = net.api();

        // HRTEC: node 0 publishes wheel speed every 10 ms; the channel
        // reserves a slot per period sized for omission degree k = 2.
        api.announce(
            NodeId(0),
            wheel_speed,
            ChannelSpec::hrt(HrtSpec {
                period: Duration::from_ms(10),
                dlc: 8,
                omission_degree: 2,
                sporadic: false,
            }),
        )
        .expect("announce HRT");

        // SRTEC: node 1 publishes door events with a 5 ms transmission
        // deadline and 20 ms validity.
        api.announce(
            NodeId(1),
            door_state,
            ChannelSpec::srt(SrtSpec {
                default_deadline: Duration::from_ms(5),
                default_expiration: Some(Duration::from_ms(20)),
                ..SrtSpec::default()
            }),
        )
        .expect("announce SRT");

        // NRTEC: node 3 publishes electronic data sheets (fragmented
        // bulk transfers at the lowest bus priority).
        api.announce(NodeId(3), datasheet, ChannelSpec::nrt(NrtSpec::bulk()))
            .expect("announce NRT");

        // Subscriptions: plain event queue for the sensor...
        let speed_q = api
            .subscribe(NodeId(2), wheel_speed, SubscribeSpec::default())
            .expect("subscribe HRT");
        // ... a notification + exception handler pair for the doors ...
        let door_q = api
            .subscribe_with(
                NodeId(2),
                door_state,
                SubscribeSpec::default(),
                |delivery| {
                    println!(
                        "  [not_handler] door event {:?} delivered at {}",
                        delivery.event.content, delivery.delivered_at
                    );
                },
                |exc| println!("  [exception] {exc}"),
            )
            .expect("subscribe SRT");
        // ... and a queue for the data sheets on node 4.
        let sheet_q = api
            .subscribe(NodeId(4), datasheet, SubscribeSpec::default())
            .expect("subscribe NRT");

        // HRT channels need their reservations confirmed by the off-line
        // admission test before traffic starts (§3.1).
        api.install_calendar().expect("calendar admission");
        (speed_q, door_q, sheet_q)
    };

    // --- generate traffic ------------------------------------------------
    // Periodic sensor readings, staged fresh every round.
    net.every(Duration::from_ms(10), Duration::from_us(50), move |api| {
        let reading = api.now().as_ns().to_le_bytes();
        api.publish(
            NodeId(0),
            wheel_speed,
            Event::new(wheel_speed, reading.to_vec()),
        )
        .unwrap();
    });
    // A couple of sporadic door events.
    for (at_ms, state) in [(3u64, 1u8), (17, 0), (31, 1)] {
        net.at(Time::from_ms(at_ms), move |api| {
            api.publish(NodeId(1), door_state, Event::new(door_state, vec![state]))
                .unwrap();
        });
    }
    // One 2 KiB data sheet.
    net.at(Time::from_ms(5), move |api| {
        let sheet: Vec<u8> = (0..2048u32).map(|i| (i % 256) as u8).collect();
        api.publish(NodeId(3), datasheet, Event::new(datasheet, sheet))
            .unwrap();
    });

    // --- run 100 ms of simulated time -------------------------------------
    net.run_for(Duration::from_ms(100));

    // --- inspect ----------------------------------------------------------
    println!("after 100 ms of bus time:");
    let speeds = speed_q.drain();
    println!(
        "  wheel-speed deliveries: {} (every 10 ms, zero jitter: {})",
        speeds.len(),
        speeds
            .windows(2)
            .all(|w| w[1].delivered_at - w[0].delivered_at == Duration::from_ms(10))
    );
    println!("  door-state deliveries: {}", door_q.drain().len());
    let sheets = sheet_q.drain();
    println!(
        "  data sheets: {} ({} bytes reassembled from CAN frames)",
        sheets.len(),
        sheets.first().map_or(0, |d| d.event.content.len())
    );
    println!(
        "  bus utilization: {:.1}%",
        net.world().bus.stats.utilization(Duration::from_ms(100)) * 100.0
    );

    // cancelSubscription is a strictly local operation (§2.2.1).
    net.api()
        .cancel_subscription(NodeId(2), door_state)
        .expect("cancel");
    println!("  door subscription cancelled");
}
