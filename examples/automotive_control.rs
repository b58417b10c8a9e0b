//! An SAE-class automotive control network (the paper's motivating
//! domain): seven stations exchange the full mix of hard periodic
//! control signals, sporadic driver inputs and slow status traffic,
//! each mapped to its event-channel class.
//!
//! ```text
//! cargo run --release --example automotive_control
//! ```

use rtec::prelude::*;
use rtec::workloads::{sae_class_set, ArrivalPattern, SaeMessage, TimelinessClass};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// The instrument cluster (node 5) subscribes to everything it shows.
const DASHBOARD: u8 = 5;

fn subject_of(index: usize) -> Subject {
    Subject::new(0xA000 + index as u64)
}

fn main() {
    let set = sae_class_set();
    let mut net = Network::builder()
        .nodes(7)
        .round(Duration::from_ms(10))
        .build();

    let misses: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
    let queues: Rc<RefCell<HashMap<&'static str, EventQueue>>> =
        Rc::new(RefCell::new(HashMap::new()));

    // --- channel setup: one channel per signal, class from the set ----
    {
        let mut api = net.api();
        for (i, m) in set.iter().enumerate() {
            let subject = subject_of(i);
            let spec = match m.class {
                TimelinessClass::Hard => {
                    let ArrivalPattern::Periodic { period, .. } = m.pattern else {
                        panic!("hard signals are periodic");
                    };
                    ChannelSpec::hrt(HrtSpec {
                        period,
                        dlc: m.dlc,
                        omission_degree: 1,
                        sporadic: false,
                    })
                }
                TimelinessClass::Soft => ChannelSpec::srt(SrtSpec {
                    default_deadline: m.deadline,
                    default_expiration: Some(m.deadline * 4),
                    ..SrtSpec::default()
                }),
                TimelinessClass::NonRt => ChannelSpec::nrt(NrtSpec::default()),
            };
            let miss_count = misses.clone();
            api.announce_with_handler(m.node, subject, spec, move |_exc| {
                *miss_count.borrow_mut() += 1;
            })
            .expect(m.name);
            let q = api
                .subscribe(NodeId(DASHBOARD), subject, SubscribeSpec::default())
                .expect(m.name);
            queues.borrow_mut().insert(m.name, q);
        }
        api.install_calendar().expect("SAE hard set is schedulable");
    }

    // --- traffic: publish every signal per its arrival pattern --------
    for (i, m) in set.iter().enumerate() {
        let subject = subject_of(i);
        let m: SaeMessage = m.clone();
        match m.pattern {
            ArrivalPattern::Periodic { period, .. } => {
                net.every(period, Duration::from_us(23 + i as u64), move |api| {
                    let _ = api.publish(
                        m.node,
                        subject,
                        Event::new(subject, vec![i as u8; m.dlc as usize]),
                    );
                });
            }
            ArrivalPattern::Sporadic { min_gap, .. } => {
                // Demo: fire sporadics at 3x their minimum inter-arrival.
                net.every(min_gap * 3, Duration::from_us(41 + i as u64), move |api| {
                    let _ = api.publish(
                        m.node,
                        subject,
                        Event::new(subject, vec![i as u8; m.dlc as usize]),
                    );
                });
            }
            ArrivalPattern::Poisson { mean_gap } => {
                net.every(mean_gap, Duration::ZERO, move |api| {
                    let _ = api.publish(
                        m.node,
                        subject,
                        Event::new(subject, vec![i as u8; m.dlc as usize]),
                    );
                });
            }
        }
    }

    // --- one second of vehicle time -----------------------------------
    let horizon = Duration::from_secs(1);
    net.run_for(horizon);

    println!("SAE-class network after {}:", horizon);
    println!(
        "  bus utilization: {:.1}%",
        net.world().bus.stats.utilization(horizon) * 100.0
    );
    let mut by_class: HashMap<&str, (usize, u64)> = HashMap::new();
    for (i, m) in set.iter().enumerate() {
        let q = &queues.borrow()[m.name];
        let n = q.drain().len() as u64;
        let class = match m.class {
            TimelinessClass::Hard => "hard",
            TimelinessClass::Soft => "soft",
            TimelinessClass::NonRt => "non-rt",
        };
        let e = by_class.entry(class).or_default();
        e.0 += 1;
        e.1 += n;
        let _ = i;
    }
    for (class, (signals, deliveries)) in &by_class {
        println!("  {class:>6}: {signals:>2} signals, {deliveries:>5} deliveries at the dashboard");
    }
    println!("  channel exceptions: {}", misses.borrow());

    // The 5 ms control loops must be intact: check the torque command.
    let stats = net.stats();
    let torque_etag = net
        .world()
        .registry()
        .etag_of(subject_of(0))
        .expect("bound");
    let torque = stats.channel(torque_etag);
    println!(
        "  traction_torque_cmd: {} published / {} delivered / {} missing (jitter {} ns)",
        torque.published,
        torque.delivered,
        torque.missing_events,
        torque.delivery_jitter_ns()
    );
    assert_eq!(torque.missing_events, 0, "hard control loop intact");
}
