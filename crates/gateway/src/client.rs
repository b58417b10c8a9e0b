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
//!
//! A digest is a [`SinkDigest`]: [`SimClientSink`] and the clients of
//! the gateway chaos experiment fold every accepted frame into one with
//! [`SinkDigest::absorb`], so the fingerprint is defined once.

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
/// chained digest over their exact bytes.
///
/// [`SinkDigest::absorb`] folds a frame in 8 bytes at a time as
/// little-endian words (the tail zero-padded), each fold a bijection of
/// the running state, then closes the frame by folding in its length.
/// Changing any byte of a frame therefore always changes the digest,
/// and so does zero-padding a frame within its last word (only the
/// folded length tells the two apart); longer padding, a moved frame
/// boundary or reordered frames change it with overwhelming
/// probability. The digest is a checksum for same-seed comparison, not
/// a cryptographic hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SinkDigest {
    /// Messages accepted.
    pub frames: u64,
    /// Word-wise chain over every accepted message's bytes and length.
    pub digest: u64,
}

/// Starting state of an empty digest (any nonzero constant would do).
const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// Odd multiplier of one fold (the 64-bit golden ratio).
const DIGEST_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl SinkDigest {
    /// The fingerprint of a sink that accepted nothing yet.
    pub const fn new() -> Self {
        SinkDigest {
            frames: 0,
            digest: DIGEST_SEED,
        }
    }

    /// Count one accepted frame and chain its bytes into the digest.
    pub fn absorb(&mut self, bytes: &[u8]) {
        // xor, odd multiply and rotate are each bijective, so one fold
        // is a bijection of the state for a fixed word and of the word
        // for a fixed state.
        let fold = |h: u64, word: u64| (h ^ word).wrapping_mul(DIGEST_MUL).rotate_left(29);
        let (words, tail) = bytes.as_chunks::<8>();
        let mut h = self.digest;
        for &w in words {
            h = fold(h, u64::from_le_bytes(w));
        }
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            h = fold(h, u64::from_le_bytes(w));
        }
        self.digest = fold(h, bytes.len() as u64);
        self.frames += 1;
    }
}

impl Default for SinkDigest {
    fn default() -> Self {
        Self::new()
    }
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
            acc: SinkDigest::new(),
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
        self.acc.absorb(bytes);
        SinkStatus::Accepted
    }

    fn digest(&self) -> Option<SinkDigest> {
        Some(self.acc)
    }
}

/// How an in-process client's sink is minted.
///
/// A client has exactly one lane, on the fanout worker that owns it,
/// and the lane owns its sink outright. `PerShard` mints that sink from
/// a closure, once per client, called with the client id and its worker
/// (one digest per client, no lock). A caller that wants to watch what
/// its sink receives hands the closure a clone of a recorder handle.
pub enum ClientSinkSpec {
    /// One sink per client, minted by the closure from `(client, worker)`.
    PerShard(Box<dyn Fn(u32, usize) -> Box<dyn ClientSink> + Send + Sync>),
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

    /// Mint the sink of `client`'s lane on worker `shard`.
    pub(crate) fn instantiate(&self, client: u32, shard: usize) -> Box<dyn ClientSink> {
        let ClientSinkSpec::PerShard(mint) = self;
        mint(client, shard)
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

    fn fingerprint(frames: &[Vec<u8>]) -> SinkDigest {
        let mut d = SinkDigest::new();
        for f in frames {
            d.absorb(f);
        }
        d
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Same frames in the same order give the same fingerprint; a
        /// flipped bit, an appended zero byte, a moved frame boundary
        /// or two swapped frames each change it. Frames of 0..=40 bytes
        /// cross the 8-byte word boundary and leave every tail length.
        #[test]
        fn fingerprint_pins_bytes_boundaries_and_order(
            frames in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..=40),
                1..6,
            ),
            pick in proptest::prelude::any::<usize>(),
            bit in proptest::prelude::any::<usize>(),
            cut in proptest::prelude::any::<usize>(),
        ) {
            let d = fingerprint(&frames);
            proptest::prop_assert_eq!(d, fingerprint(&frames));
            proptest::prop_assert_eq!(d.frames, frames.len() as u64);
            let i = pick % frames.len();

            if !frames[i].is_empty() {
                let mut flipped = frames.clone();
                let b = bit % (flipped[i].len() * 8);
                flipped[i][b / 8] ^= 1 << (b % 8);
                proptest::prop_assert_ne!(fingerprint(&flipped), d, "bit flip");
            }

            let mut padded = frames.clone();
            padded[i].push(0);
            proptest::prop_assert_ne!(fingerprint(&padded), d, "appended zero byte");

            if frames.len() >= 2 {
                let j = i % (frames.len() - 1);
                let joined = [frames[j].as_slice(), frames[j + 1].as_slice()].concat();
                let k = cut % (joined.len() + 1);
                if k != frames[j].len() {
                    let mut moved = frames.clone();
                    moved[j] = joined[..k].to_vec();
                    moved[j + 1] = joined[k..].to_vec();
                    proptest::prop_assert_ne!(fingerprint(&moved), d, "moved boundary");
                }
                let k = (j + 1 + cut % (frames.len() - 1)) % frames.len();
                if frames[j] != frames[k] {
                    let mut swapped = frames.clone();
                    swapped.swap(j, k);
                    proptest::prop_assert_ne!(fingerprint(&swapped), d, "swapped frames");
                }
            }
        }
    }

    #[test]
    fn lane_seeds_differ_across_coordinates() {
        assert_ne!(lane_seed(1, 0, 0), lane_seed(1, 0, 1));
        assert_ne!(lane_seed(1, 0, 0), lane_seed(1, 1, 0));
        assert_ne!(lane_seed(1, 0, 0), lane_seed(2, 0, 0));
    }
}
