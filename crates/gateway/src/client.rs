//! Client sinks: where the fanout workers put encoded messages.
//!
//! A sink is the last deterministic point of the egress path — it
//! either *accepts* a message (it left the gateway), reports itself
//! *busy* (the event stays queued and backpressure builds toward the
//! shedding policies), or is *gone*. Two implementations matter:
//! [`SimClientSink`], a seeded in-process client used by the
//! determinism harness and the bench (its acceptance schedule is a
//! pure function of its seed, so same-seed runs produce byte-identical
//! delivery digests), and the socket-backed sink in [`crate::net`].

use rtec_live::sync::{Arc, Mutex};
use rtec_sim::Rng;

/// Outcome of offering one encoded message to a sink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkStatus {
    /// The message left the gateway.
    Accepted,
    /// The client cannot take the message right now; it stays queued.
    Busy,
    /// The client is unreachable; the lane should be torn down.
    Gone,
}

/// Delivery fingerprint of a sink: how many messages it accepted and a
/// chained digest over their exact bytes (order-sensitive).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SinkDigest {
    /// Messages accepted.
    pub frames: u64,
    /// FNV-1a chain over every accepted message's bytes.
    pub digest: u64,
}

/// Where encoded gateway → client messages go.
pub trait ClientSink: Send {
    /// Offer one encoded message.
    fn offer(&mut self, bytes: &[u8]) -> SinkStatus;
    /// The delivery fingerprint, for sinks that keep one (the seeded
    /// sim sink). Socket sinks return `None`.
    fn digest(&self) -> Option<SinkDigest> {
        None
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// A simulated client with a seeded acceptance schedule.
///
/// Each offer is accepted with probability `accept_permille / 1000`,
/// drawn from the sink's private RNG stream — so a "slow" client
/// refuses a deterministic subset of offers and the shedding machinery
/// is exercised identically on every same-seed run.
pub struct SimClientSink {
    rng: Rng,
    accept_permille: u16,
    acc: SinkDigest,
}

impl SimClientSink {
    /// Build a sink accepting `accept_permille`‰ of offers (1000 =
    /// never busy) with the given RNG seed.
    pub fn new(seed: u64, accept_permille: u16) -> Self {
        SimClientSink {
            rng: Rng::seed_from_u64(seed),
            accept_permille,
            acc: SinkDigest {
                frames: 0,
                digest: FNV_OFFSET,
            },
        }
    }
}

impl ClientSink for SimClientSink {
    fn offer(&mut self, bytes: &[u8]) -> SinkStatus {
        let take = self.accept_permille >= 1000
            || self.rng.gen_bool(f64::from(self.accept_permille) / 1000.0);
        if !take {
            return SinkStatus::Busy;
        }
        for &b in bytes {
            self.acc.digest = (self.acc.digest ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.acc.frames += 1;
        SinkStatus::Accepted
    }

    fn digest(&self) -> Option<SinkDigest> {
        Some(self.acc)
    }
}

/// How a registering client's sink is minted.
///
/// A client has exactly one lane, on the fanout worker that owns it.
/// `PerShard` mints that lane's sink from a closure, once per client,
/// called with the client id and its worker (the deterministic choice:
/// one digest per client, no lock); `Shared` hands the lane a sink
/// behind a mutex the caller keeps a handle to (the socket case).
pub enum ClientSinkSpec {
    /// One sink per client, minted by the closure from `(client, worker)`.
    PerShard(Box<dyn Fn(u32, usize) -> Box<dyn ClientSink> + Send + Sync>),
    /// A sink the caller shares with the client's lane.
    Shared(Arc<Mutex<Box<dyn ClientSink>>>),
}

impl ClientSinkSpec {
    /// Per-client [`SimClientSink`]s: seeds are derived from `seed`, the
    /// client id and its worker, so adding clients or workers never
    /// perturbs another client's schedule.
    pub fn sim(seed: u64, accept_permille: u16) -> Self {
        ClientSinkSpec::PerShard(Box::new(move |client, shard| {
            Box::new(SimClientSink::new(
                lane_seed(seed, client, shard),
                accept_permille,
            ))
        }))
    }

    /// Mint the sink handle of `client`'s lane on worker `shard`.
    pub(crate) fn instantiate(&self, client: u32, shard: usize) -> SinkHandle {
        match self {
            ClientSinkSpec::PerShard(mint) => SinkHandle::Own(mint(client, shard)),
            ClientSinkSpec::Shared(sink) => SinkHandle::Shared(Arc::clone(sink)),
        }
    }
}

/// Mix a root seed with lane coordinates (splitmix64 finalizer).
fn lane_seed(seed: u64, client: u32, shard: usize) -> u64 {
    let mut z = seed
        ^ (u64::from(client)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (shard as u64).wrapping_mul(0xd1b5_4a32_d192_ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A worker-held sink: owned by the lane, or shared with the caller.
pub(crate) enum SinkHandle {
    Own(Box<dyn ClientSink>),
    Shared(Arc<Mutex<Box<dyn ClientSink>>>),
}

impl SinkHandle {
    pub(crate) fn offer(&mut self, bytes: &[u8]) -> SinkStatus {
        match self {
            SinkHandle::Own(s) => s.offer(bytes),
            SinkHandle::Shared(m) => m.lock().unwrap_or_else(|e| e.into_inner()).offer(bytes),
        }
    }

    pub(crate) fn digest(&self) -> Option<SinkDigest> {
        match self {
            SinkHandle::Own(s) => s.digest(),
            SinkHandle::Shared(m) => m.lock().unwrap_or_else(|e| e.into_inner()).digest(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_sink_is_deterministic_per_seed() {
        let run = |seed| {
            let mut s = SimClientSink::new(seed, 400);
            let mut statuses = Vec::new();
            for i in 0..64u8 {
                statuses.push(s.offer(&[i, i.wrapping_mul(3)]));
            }
            (statuses, s.digest().unwrap())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).1, run(8).1, "different seeds, different digests");
    }

    #[test]
    fn full_rate_sink_never_refuses() {
        let mut s = SimClientSink::new(1, 1000);
        for _ in 0..100 {
            assert_eq!(s.offer(b"x"), SinkStatus::Accepted);
        }
        assert_eq!(s.digest().unwrap().frames, 100);
    }

    #[test]
    fn lane_seeds_differ_across_coordinates() {
        assert_ne!(lane_seed(1, 0, 0), lane_seed(1, 0, 1));
        assert_ne!(lane_seed(1, 0, 0), lane_seed(1, 1, 0));
        assert_ne!(lane_seed(1, 0, 0), lane_seed(2, 0, 0));
    }
}
