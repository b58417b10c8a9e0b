//! E8 — NRT bulk transfer (fragmentation) under real-time load.
//!
//! A 64 KiB "ROM image" is published on a fragmented NRT channel while
//! the bus carries increasing amounts of HRT and SRT traffic. The bulk
//! transfer soaks up whatever bandwidth is left (including reclaimed
//! HRT slot time) without ever disturbing the real-time classes.

use super::common::{
    conformance_arm, conformance_check, etag, hrt_sensor, srt_background, HRT_SUBJECT, NRT_SUBJECT,
};
use crate::table::{f, Table};
use crate::RunOpts;
use rtec_core::frag::fragment_count;
use rtec_core::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

// 64 KiB minus one byte: the u16 length field caps a single NRT
// message at 65535 bytes.
const IMAGE_LEN: usize = 64 * 1024 - 1;

struct Outcome {
    transfer_ms: Option<f64>,
    throughput_kbps: Option<f64>,
    hrt_jitter_ns: u64,
    hrt_missing: u64,
}

/// What a run leaves to read: the HRT subscriber's queue and the
/// transfer's start and completion instants.
struct Probes {
    hrt_q: Option<EventQueue>,
    started_at: Rc<RefCell<Option<Time>>>,
    done_at: Rc<RefCell<Option<Time>>>,
}

fn network(opts: &RunOpts) -> Network {
    Network::builder()
        .nodes(6)
        .round(Duration::from_ms(10))
        .seed(opts.seed)
        .build()
}

/// Announce the channels, install the calendar and schedule the
/// sources: HRT and SRT load as asked, and the image 1 ms in.
fn install(net: &mut Network, opts: &RunOpts, n_hrt: bool, srt: bool) -> Probes {
    let hrt_q = if n_hrt {
        Some(hrt_sensor(net, Duration::from_ms(10), 2, 1.0, opts.seed))
    } else {
        None
    };
    if srt {
        let _ = srt_background(net, NodeId(1), NodeId(3), Duration::from_us(400));
    }
    let done_at: Rc<RefCell<Option<Time>>> = Rc::new(RefCell::new(None));
    let started_at: Rc<RefCell<Option<Time>>> = Rc::new(RefCell::new(None));
    {
        let mut api = net.api();
        api.announce(NodeId(4), NRT_SUBJECT, ChannelSpec::nrt(NrtSpec::bulk()))
            .unwrap();
        let done = done_at.clone();
        api.subscribe_with(
            NodeId(5),
            NRT_SUBJECT,
            SubscribeSpec::default(),
            move |d| {
                assert_eq!(d.event.content.len(), IMAGE_LEN);
                *done.borrow_mut() = Some(d.delivered_at);
            },
            |_| {},
        )
        .unwrap();
    }
    let started = started_at.clone();
    net.after(Duration::from_ms(1), move |api| {
        *started.borrow_mut() = Some(api.now());
        let image: Vec<u8> = (0..IMAGE_LEN).map(|i| (i % 251) as u8).collect();
        api.publish(NodeId(4), NRT_SUBJECT, Event::new(NRT_SUBJECT, image))
            .unwrap();
    });
    Probes {
        hrt_q,
        started_at,
        done_at,
    }
}

fn run_one(opts: &RunOpts, n_hrt: bool, srt: bool) -> Outcome {
    let mut net = network(opts);
    let Probes {
        hrt_q,
        started_at,
        done_at,
    } = install(&mut net, opts, n_hrt, srt);
    let sink = conformance_arm(opts, &mut net);
    // 64 KiB in ~13k fragments of ~91 bits ≈ 1.2 s on an idle 1 Mbit/s
    // bus; give head-room for loaded runs. Not shortened in quick mode
    // (the transfer must complete), but the claim sweep stays feasible.
    net.run_for(Duration::from_secs(12));
    conformance_check(&net, &sink, "e8");
    let transfer = match (*started_at.borrow(), *done_at.borrow()) {
        (Some(s), Some(d)) => Some(d.saturating_since(s)),
        _ => None,
    };
    let hrt_jitter = hrt_q
        .map(|q| {
            let deliveries = q.drain();
            let mut lo = u64::MAX;
            let mut hi = 0u64;
            for w in deliveries.windows(2) {
                let g = w[1]
                    .delivered_at
                    .saturating_since(w[0].delivered_at)
                    .as_ns();
                lo = lo.min(g);
                hi = hi.max(g);
            }
            hi.saturating_sub(lo.min(hi))
        })
        .unwrap_or(0);
    let hrt_missing = if n_hrt {
        net.stats().channel(etag(&net, HRT_SUBJECT)).missing_events
    } else {
        0
    };
    Outcome {
        transfer_ms: transfer.map(|t| t.as_ms_f64()),
        throughput_kbps: transfer.map(|t| (IMAGE_LEN as f64 * 8.0 / 1000.0) / t.as_secs_f64()),
        hrt_jitter_ns: hrt_jitter,
        hrt_missing,
    }
}

/// Run E8.
pub fn run(opts: &RunOpts) -> Vec<Table> {
    let mut t = Table::new(
        "E8: 64 KiB fragmented NRT transfer vs real-time load",
        &[
            "RT load",
            "transfer time (ms)",
            "goodput (kbit/s)",
            "HRT jitter (us)",
            "HRT missing",
        ],
    );
    for (name, hrt, srt) in [
        ("none", false, false),
        ("HRT 10ms/k=2", true, false),
        ("HRT + SRT", true, true),
    ] {
        let o = run_one(opts, hrt, srt);
        t.row(vec![
            name.to_string(),
            o.transfer_ms.map_or("did not finish".into(), f),
            o.throughput_kbps.map_or("-".into(), f),
            format!("{:.1}", o.hrt_jitter_ns as f64 / 1e3),
            o.hrt_missing.to_string(),
        ]);
    }
    t.note(format!(
        "image = {} bytes in {} fragments; the transfer only slows down as RT \
         load grows — the RT classes are untouched (jitter stays 0, no missing \
         events).",
        IMAGE_LEN,
        fragment_count(IMAGE_LEN)
    ));
    t.note(format!("seed={}", opts.seed));
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtec_conformance::Monitor;

    /// The monitor is armed after setup, so it must not miss a record
    /// a trace armed right after the build keeps: setup emits none.
    #[test]
    fn a_monitor_armed_after_setup_sees_every_record() {
        let opts = RunOpts {
            quick: true,
            ..RunOpts::default()
        };
        let run = Duration::from_ms(400);

        let mut kept = network(&opts);
        let sink = kept.enable_trace();
        let _probes = install(&mut kept, &opts, true, true);
        kept.run_for(run);

        let mut streamed = network(&opts);
        let _probes = install(&mut streamed, &opts, true, true);
        let tap = conformance_arm(&opts, &mut streamed).expect("conformance is on");
        streamed.run_for(run);

        assert!(sink.len() > 5_000, "{} records", sink.len());
        assert_eq!(
            tap.with_tap(|m: &mut Monitor| m.records()),
            Some(sink.len() as u64)
        );
        assert_eq!(tap.len(), 0, "the streaming sink keeps nothing");
        let report = rtec_conformance::check_network(&streamed, &tap);
        assert!(report.passes(), "{report}");
    }
}
