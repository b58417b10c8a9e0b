//! Measurement collection for network runs.
//!
//! The experiment harness reads these counters and distributions after
//! a run; every quantity the paper's claims are stated in (latency,
//! jitter, deadline-miss ratio, redundant transmissions, reclaimed
//! bandwidth) is collected here per channel. A distribution keeps its
//! samples ([`Histogram`]) only where a reader takes percentiles of
//! them or compares them; the others are constant-space [`Extrema`].

use rtec_sim::{Duration, Extrema, Histogram, IntMap};
use serde::{Deserialize, Serialize};

/// Per-channel counters and distributions (keyed by etag in
/// [`NetStats`]).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ChannelStats {
    /// Events handed to `publish()`.
    pub published: u64,
    /// Deliveries into subscriber queues (counted once per subscriber).
    pub delivered: u64,
    /// Events dropped by middleware-level attribute filters (origin).
    pub filtered: u64,
    /// SRT: transmission deadlines missed (exception raised; message
    /// kept best-effort).
    pub deadline_misses: u64,
    /// SRT: events dropped from the send queue at expiration.
    pub expired_drops: u64,
    /// SRT: wire completions after the message's transmission deadline.
    pub completed_late: u64,
    /// HRT subscriber: slots whose delivery deadline passed without an
    /// event on a periodic channel.
    pub missing_events: u64,
    /// HRT publisher: slots where redundancy was exhausted without
    /// all-node reception.
    pub redundancy_exhausted: u64,
    /// HRT publisher: publishes that arrived too late for a slot that
    /// then went empty.
    pub not_ready: u64,
    /// Wire transmissions that completed for this channel (including
    /// redundant and error-retried ones).
    pub wire_transmissions: u64,
    /// HRT: redundant (middleware-initiated repeat) transmissions.
    pub redundant_transmissions: u64,
    /// Publish → delivery latency per delivery (ns, true time); an HRT
    /// event is published when its slot takes it. Keeps its samples:
    /// the benchmark reads them.
    pub latency_ns: Histogram,
    /// Publish → wire completion per first successful transmission
    /// (ns, true time). Keeps its samples: E11 prints a percentile and
    /// the §4 runner's oracle compares them as a multiset.
    pub wire_latency_ns: Histogram,
    /// Inter-delivery spacing per subscriber (ns) — for a periodic HRT
    /// channel its spread is the period jitter the paper bounds.
    pub inter_delivery_ns: Extrema,
}

impl ChannelStats {
    /// Deadline-miss ratio over published events.
    pub fn miss_ratio(&self) -> f64 {
        if self.published == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.published as f64
        }
    }

    /// Drop (expiration) ratio over published events.
    pub fn drop_ratio(&self) -> f64 {
        if self.published == 0 {
            0.0
        } else {
            self.expired_drops as f64 / self.published as f64
        }
    }

    /// Peak-to-peak delivery jitter (ns): spread of inter-delivery
    /// spacing.
    pub fn delivery_jitter_ns(&self) -> u64 {
        self.inter_delivery_ns.spread().unwrap_or(0)
    }
}

/// Network-wide measurement state.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct NetStats {
    /// Per-channel statistics, keyed by etag.
    pub channels: IntMap<u16, ChannelStats>,
    /// HRT: delay from a slot's LST to the first transmission attempt
    /// actually starting (ns) — bounded by `ΔT_wait` (§3.2, Fig. 3).
    pub hrt_lst_blocking_ns: Extrema,
    /// HRT: offset of the wire completion inside the slot, measured
    /// from the slot's LST (ns) — the *on-bus* jitter that the
    /// deferred delivery hides from applications.
    pub hrt_wire_offset_ns: Extrema,
    /// SRT completions that overtook a message queued at any node with
    /// an earlier deadline and an earlier publication: the bounded
    /// priority inversions of quantized priorities and non-preemption.
    pub srt_inversions: u64,
    /// Exceptions raised, by coarse kind.
    pub exceptions: u64,
    /// Frames that could not be attributed to a known channel.
    pub unknown_frames: u64,
    /// Bus notifications about an identifier contended by several nodes
    /// at once — TxNode uniqueness (§3.5) violated by the configuration.
    pub duplicate_ids: u64,
}

impl NetStats {
    /// Get or create the stats slot for a channel.
    pub fn channel_mut(&mut self, etag: u16) -> &mut ChannelStats {
        self.channels.entry(etag).or_default()
    }

    /// Read-only access; empty stats if the channel never appeared.
    pub fn channel(&self, etag: u16) -> &ChannelStats {
        static EMPTY: ChannelStats = ChannelStats {
            published: 0,
            delivered: 0,
            filtered: 0,
            deadline_misses: 0,
            expired_drops: 0,
            completed_late: 0,
            missing_events: 0,
            redundancy_exhausted: 0,
            not_ready: 0,
            wire_transmissions: 0,
            redundant_transmissions: 0,
            latency_ns: Histogram::new(),
            wire_latency_ns: Histogram::new(),
            inter_delivery_ns: Extrema::new(),
        };
        self.channels.get(&etag).unwrap_or(&EMPTY)
    }

    /// Sum of deliveries across all channels.
    pub fn total_delivered(&self) -> u64 {
        self.channels.values().map(|c| c.delivered).sum()
    }

    /// Sum of publishes across all channels.
    pub fn total_published(&self) -> u64 {
        self.channels.values().map(|c| c.published).sum()
    }

    /// Worst observed LST blocking as a duration.
    pub fn max_lst_blocking(&self) -> Duration {
        Duration::from_ns(self.hrt_lst_blocking_ns.max().unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_published() {
        let s = ChannelStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.drop_ratio(), 0.0);
        assert_eq!(s.delivery_jitter_ns(), 0);
    }

    #[test]
    fn ratios_compute() {
        let mut s = ChannelStats {
            published: 10,
            deadline_misses: 3,
            expired_drops: 2,
            ..Default::default()
        };
        assert!((s.miss_ratio() - 0.3).abs() < 1e-12);
        assert!((s.drop_ratio() - 0.2).abs() < 1e-12);
        s.inter_delivery_ns.record(10_000);
        s.inter_delivery_ns.record(10_700);
        assert_eq!(s.delivery_jitter_ns(), 700);
    }

    #[test]
    fn netstats_aggregation() {
        let mut n = NetStats::default();
        n.channel_mut(5).published = 4;
        n.channel_mut(5).delivered = 8;
        n.channel_mut(6).published = 1;
        assert_eq!(n.total_published(), 5);
        assert_eq!(n.total_delivered(), 8);
        assert_eq!(n.channel(99).published, 0);
        n.hrt_lst_blocking_ns.record(154_000);
        assert_eq!(n.max_lst_blocking(), Duration::from_us(154));
    }
}
