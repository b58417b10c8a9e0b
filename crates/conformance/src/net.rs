//! Glue between the conformance passes and a live [`Network`]: derive a
//! [`LintInput`] / [`AuditContext`] from the network's own configuration
//! so harnesses can check any simulation with two calls. A retaining
//! sink is audited after the run, straight from its ring:
//!
//! ```
//! use rtec_core::prelude::*;
//!
//! let mut net = Network::builder()
//!     .nodes(3)
//!     .round(Duration::from_ms(10))
//!     .build();
//! let sink = net.enable_trace();
//! let door = Subject::new(0x200);
//! {
//!     let mut api = net.api();
//!     api.announce(NodeId(0), door, ChannelSpec::srt(SrtSpec::default()))
//!         .unwrap();
//!     api.subscribe(NodeId(1), door, SubscribeSpec::default())
//!         .unwrap();
//!     api.publish(NodeId(0), door, Event::new(door, vec![1, 2]))
//!         .unwrap();
//! }
//! net.run_for(Duration::from_ms(20));
//! let report = rtec_conformance::check_network(&net, &sink);
//! assert!(report.passes(), "{report}");
//! ```
//!
//! [`monitor_network`] instead audits each record as it is emitted and
//! keeps no trace; arm it once the channels and the calendar are set
//! up, and read its verdict with the same [`check_network`] call.

use crate::audit::{AuditContext, Monitor};
use crate::diag::Report;
use crate::lint::{lint, ChannelDecl, LintInput};
use rtec_core::channel::ChannelSpec;
use rtec_core::Network;
use rtec_sim::{Duration, TraceSink};

/// Clock-skew allowance applied to trace time-window rules when the
/// network simulates drifting oscillators. Perfect clocks get zero.
const DRIFT_TOLERANCE: Duration = Duration::from_us(500);

/// Build the static linter's input from a network's configuration.
pub fn lint_input(net: &Network) -> LintInput {
    let world = net.world();
    let cfg = world.config();
    LintInput {
        nodes: cfg.nodes,
        timing: cfg.bus.timing,
        round: cfg.round,
        priority_slots: cfg.priority_slots,
        calendar: world.calendar().cloned(),
        channels: world
            .publications()
            .into_iter()
            .map(|(etag, publisher, spec)| ChannelDecl {
                etag,
                publisher,
                spec,
            })
            .collect(),
    }
}

/// Statically lint a network's configuration (rules `S1`..`S8`).
pub fn lint_network(net: &Network) -> Report {
    lint(&lint_input(net))
}

/// Build the trace auditor's context from a network's configuration.
pub fn audit_context(net: &Network) -> AuditContext {
    let world = net.world();
    let cfg = world.config();
    let mut ctx = AuditContext {
        calendar: world.calendar().cloned(),
        calendar_start: world.calendar_start(),
        hrt_deferred_delivery: cfg.hrt_deferred_delivery,
        tolerance: if cfg.clocks.is_some() {
            DRIFT_TOLERANCE
        } else {
            Duration::ZERO
        },
        ..AuditContext::default()
    };
    for (etag, _, class) in world.channels() {
        ctx.channels.insert(etag, class);
    }
    for (etag, _, spec) in world.publications() {
        if let ChannelSpec::Hrt(h) = spec {
            if !h.sporadic {
                ctx.hrt_periods.insert(etag, h.period);
            }
        }
    }
    ctx
}

/// Trace `net` into a streaming [`Monitor`] built from its
/// configuration as it stands, and return the tapped sink: it keeps no
/// records, and [`check_network`] reads the monitor's verdict from it.
pub fn monitor_network(net: &mut Network) -> TraceSink {
    let sink = TraceSink::tapped(Monitor::new(&audit_context(net)));
    net.set_trace(sink.clone());
    sink
}

/// Audit a network's trace (rules `T1`..`T9`): the verdict of the
/// monitor a [`monitor_network`] sink feeds, or else the sink's kept
/// records, fed to a monitor straight from its ring.
pub fn audit_network(net: &Network, sink: &TraceSink) -> Report {
    sink.with_tap(|monitor: &mut Monitor| monitor.report())
        .unwrap_or_else(|| {
            let mut monitor = Monitor::new(&audit_context(net));
            sink.replay(&mut monitor);
            monitor.finish()
        })
}

/// Lint the configuration *and* audit the trace; one merged report.
pub fn check_network(net: &Network, sink: &TraceSink) -> Report {
    let mut rep = lint_network(net);
    rep.merge(audit_network(net, sink));
    rep
}
