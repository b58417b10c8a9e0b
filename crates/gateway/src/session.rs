//! Crash-tolerant client sessions: tokens, per-class delivery
//! watermarks, and bounded replay across reconnect.
//!
//! A v2 client's session outlives its connection. The gateway keeps,
//! per session: how many *data* frames of each class it has put on the
//! client's stream (the send-side watermark), and a bounded per-class
//! ring of the most recently sent frames. The accounting is a
//! [`SessionCore`] owned by the client's one lane, on the client's one
//! worker: the lane records each data frame its sink accepts, and the
//! ring shares the frame's encoded buffer instead of copying it. No
//! other thread reads or writes it, so it takes no lock, and a resume
//! is decided on that worker too. When the link dies, the client
//! reconnects with its token and its receive-side watermarks
//! ([`crate::wire::ClassWatermarks`]);
//! because one lane totally orders a session's frames and a stream
//! delivers an in-order prefix, `sent − received` identifies *exactly*
//! the suffix of each class's frame sequence that was in flight when the
//! link died — and the ring holds it, up to its bound. A replayed frame
//! goes to the raw sink, past the lane's accounting: it was counted when
//! first sent, and counting it again would make the next resume resend
//! frames the client already has.
//!
//! Resume then applies the paper's class rules to that suffix:
//!
//! * **HRT** (§3.2): replayed in full — exactly-once across the
//!   reconnect, mirroring how node rejoin uses the delivery watermark
//!   for at-most-once on the bus. A suffix longer than the ring is a
//!   protocol violation surfaced as a `Gap` notice (audit rule T9
//!   flags it) — never silently dropped.
//! * **SRT** (§2.2.2): frames whose validity window closed while the
//!   client was away are *not* replayed — shed as stale, reported in a
//!   `Gap` notice so the client can reconcile its watermark.
//! * **NRT** (§2.2.3): replayed while the ring lasts; older frames
//!   that fell off the bounded ring become an explicit `Gap` notice.
//!
//! Frames that were queued but never sent need no replay machinery at
//! all: a detached lane keeps its bounded egress queue inside its
//! fanout worker, and reattaching the lane flushes it normally.

use crate::egress::SlowConsumerPolicy;
use crate::wire::{self, ClassWatermarks, ResumeVerdict, ToClient};
use rtec_core::ChannelClass;
use rtec_live::sync::Arc;
use std::collections::{HashMap, VecDeque};

/// Ring index for a class.
fn class_idx(class: ChannelClass) -> usize {
    match class {
        ChannelClass::Hrt => 0,
        ChannelClass::Srt => 1,
        ChannelClass::Nrt => 2,
    }
}

const CLASSES: [ChannelClass; 3] = [ChannelClass::Hrt, ChannelClass::Srt, ChannelClass::Nrt];

/// One sent data frame retained for possible replay.
struct RingFrame {
    bytes: Arc<Vec<u8>>,
    /// The entry's validity end in bus time: set for SRT only (never
    /// batched or fragmented), whose replay skips a stale frame.
    expiry_ns: Option<u64>,
}

/// The send-side truth of one session: per-class sent counters and the
/// bounded replay rings. Owned by the session's lane, which appends to
/// it and replays from it.
pub(crate) struct SessionCore {
    sent: ClassWatermarks,
    rings: [VecDeque<RingFrame>; 3],
    ring_cap: usize,
}

impl SessionCore {
    pub(crate) fn new(ring_cap: usize) -> Self {
        SessionCore {
            sent: ClassWatermarks::default(),
            rings: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            ring_cap: ring_cap.max(1),
        }
    }

    /// Count one accepted data frame and retain it for replay.
    pub(crate) fn record(
        &mut self,
        class: ChannelClass,
        expiry_ns: Option<u64>,
        bytes: Arc<Vec<u8>>,
    ) {
        self.sent.bump(class);
        let ring = &mut self.rings[class_idx(class)];
        ring.push_back(RingFrame { bytes, expiry_ns });
        if ring.len() > self.ring_cap {
            ring.pop_front();
        }
    }

    /// Frames of each class put on the stream so far.
    #[cfg(test)]
    pub(crate) fn sent(&self) -> ClassWatermarks {
        self.sent
    }
}

/// What a resume replays, computed from the core on its lane's worker.
pub(crate) struct ReplayPlan {
    /// Encoded `Gap` notices, sent before any replayed frame; each
    /// covers frames the client must account for but will never get.
    pub notices: Vec<(ChannelClass, u32, Vec<u8>)>,
    /// The frames to resend, oldest first, HRT then SRT then NRT.
    pub frames: Vec<Arc<Vec<u8>>>,
    /// The resume's verdict (a socket resume's `Welcome` carries it).
    pub verdict: ResumeVerdict,
    /// Frames replayed per class (HRT, SRT, NRT).
    pub replayed: [u64; 3],
    /// Frames lost beyond the ring bound (per-class sum).
    pub gap_frames: u64,
    /// SRT frames skipped because their validity window closed.
    pub stale_skipped: u64,
    /// Replayed payload bytes (bench accounting).
    pub replay_bytes: u64,
    /// The client claimed more frames than were ever sent.
    pub anomaly: bool,
}

/// Decide what a resuming client gets, per the class rules above.
///
/// `now_wm` is the gateway's bus-time high-water mark: a ring frame
/// whose expiry is at or before it is stale.
pub(crate) fn compute_replay(core: &SessionCore, now_wm: u64, wm: &ClassWatermarks) -> ReplayPlan {
    let mut plan = ReplayPlan {
        notices: Vec::new(),
        frames: Vec::new(),
        verdict: ResumeVerdict::Resumed,
        replayed: [0; 3],
        gap_frames: 0,
        stale_skipped: 0,
        replay_bytes: 0,
        anomaly: false,
    };
    let mut hard_gap = false;
    for class in CLASSES {
        let i = class_idx(class);
        let sent = core.sent.of(class);
        let got = wm.of(class);
        if got > sent {
            plan.anomaly = true;
            continue;
        }
        let missing = (sent - got) as usize;
        let ring = &core.rings[i];
        let avail = missing.min(ring.len());
        let gap = (missing - avail) as u64;
        let mut stale = 0u64;
        let start = ring.len() - avail;
        for f in ring.iter().skip(start) {
            if f.expiry_ns.is_some_and(|x| x <= now_wm) {
                stale += 1;
                continue;
            }
            plan.replay_bytes += f.bytes.len() as u64;
            plan.frames.push(Arc::clone(&f.bytes));
            plan.replayed[i] += 1;
        }
        let unaccounted = gap + stale;
        if unaccounted > 0 {
            let count = unaccounted.min(u64::from(u32::MAX)) as u32;
            plan.notices.push((
                class,
                count,
                wire::encode_to_client(&ToClient::Gap { class, count }),
            ));
        }
        // A stale-SRT skip is the §2.2.2 rule working as intended; a
        // ring overrun is real loss and downgrades the verdict.
        hard_gap |= gap > 0;
        plan.gap_frames += gap;
        plan.stale_skipped += stale;
    }
    if hard_gap {
        plan.verdict = ResumeVerdict::Gap;
    }
    plan
}

/// Where a session currently stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SessionState {
    /// A live connection serves it.
    Attached,
    /// The connection died at bus time `at_wm`; resumable until the
    /// TTL elapses.
    Detached { at_wm: u64 },
    /// Closed for good (clean `Bye`, policy disconnect, or shutdown).
    Ended,
}

/// One client's session bookkeeping.
pub(crate) struct SessionEntry {
    /// Subject uids, re-subscribed on every attach and resume.
    pub subjects: Vec<u64>,
    pub policy: SlowConsumerPolicy,
    /// Bumped on every resume; stale `Deregister`s from a dead
    /// connection's reader carry an older incarnation and are ignored.
    pub incarnation: u32,
    state: SessionState,
}

/// Aggregate session counters, surfaced in the gateway report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sessions opened.
    pub opened: u64,
    /// Connections detached with the session kept resumable.
    pub detached: u64,
    /// Resumes completed with every missing frame replayed (counted
    /// when the replay completes).
    pub resumed: u64,
    /// Resumes completed with a `Gap` verdict (ring overrun).
    pub gapped: u64,
    /// Resume attempts refused: token unknown, session ended, or TTL
    /// elapsed.
    pub refused: u64,
    /// Resumes aborted because the new sink refused its `Welcome` or
    /// died mid-replay; the session parks again, and no verdict is
    /// counted.
    pub aborted: u64,
    /// Sessions closed by a clean `Bye`.
    pub ended_clean: u64,
    /// Sessions ended by a slow-consumer policy or shutdown.
    pub ended_other: u64,
    /// HRT frames replayed across reconnects.
    pub replayed_hrt: u64,
    /// SRT frames replayed across reconnects.
    pub replayed_srt: u64,
    /// NRT frames replayed across reconnects.
    pub replayed_nrt: u64,
    /// Frames covered by `Gap` notices (ring overruns; excludes stale
    /// SRT skips).
    pub gap_frames: u64,
    /// SRT frames shed stale at resume instead of delivered late.
    pub srt_stale_skipped: u64,
    /// Payload bytes replayed.
    pub replay_bytes: u64,
}

/// The gateway's session table: tokens, lifecycle states and the TTL.
/// Its owner keeps it under one mutex, taken by open, attach, detach,
/// resume and end; the hot path (per-frame accounting) never touches it
/// — that is the lane's own [`SessionCore`]. Bus time comes in as an
/// argument (`now`), so the table reads no clock.
pub(crate) struct SessionStore {
    ttl_ns: u64,
    opened: u64,
    by_token: HashMap<u64, u32>,
    by_client: HashMap<u32, SessionEntry>,
    pub stats: SessionStats,
}

/// splitmix64 — deterministic, collision-free token minting.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SessionStore {
    pub(crate) fn new(ttl_ns: u64) -> Self {
        SessionStore {
            ttl_ns,
            opened: 0,
            by_token: HashMap::new(),
            by_client: HashMap::new(),
            stats: SessionStats::default(),
        }
    }

    /// Open a session for a reserved client id; returns its token
    /// (never 0 — 0 means "no session" on the wire).
    pub(crate) fn open(
        &mut self,
        client: u32,
        subjects: Vec<u64>,
        policy: SlowConsumerPolicy,
    ) -> u64 {
        self.opened += 1;
        self.stats.opened += 1;
        let mut token = splitmix64(0x5E55_10AD ^ self.opened);
        while token == 0 || self.by_token.contains_key(&token) {
            token = splitmix64(token.wrapping_add(1));
        }
        self.by_token.insert(token, client);
        self.by_client.insert(
            client,
            SessionEntry {
                subjects,
                policy,
                incarnation: 0,
                state: SessionState::Attached,
            },
        );
        token
    }

    /// The session entry for a client, if one exists.
    pub(crate) fn entry(&self, client: u32) -> Option<&SessionEntry> {
        self.by_client.get(&client)
    }

    /// The client whose session `token` names, if that session is
    /// still attached to a sink.
    pub(crate) fn attached_client(&self, token: u64) -> Option<u32> {
        let client = *self.by_token.get(&token)?;
        let entry = self.by_client.get(&client)?;
        (entry.state == SessionState::Attached).then_some(client)
    }

    /// A lane's sink died (or its connection reader saw EOF) at bus
    /// time `now`: keep the session resumable. Returns `true` when the
    /// client has a live session worth parking — `false` (an in-process
    /// client without a session, or an ended one) tells the worker to
    /// tear the lane down.
    pub(crate) fn detach(&mut self, client: u32, now: u64) -> bool {
        match self.by_client.get_mut(&client) {
            Some(e) if e.state == SessionState::Attached => {
                e.state = SessionState::Detached { at_wm: now };
                self.stats.detached += 1;
                true
            }
            Some(e) => !matches!(e.state, SessionState::Ended),
            None => false,
        }
    }

    /// End a session for good. `clean` distinguishes a `Bye` from a
    /// policy disconnect or shutdown.
    pub(crate) fn end(&mut self, client: u32, clean: bool) {
        if let Some(e) = self.by_client.get_mut(&client) {
            if e.state != SessionState::Ended {
                e.state = SessionState::Ended;
                if clean {
                    self.stats.ended_clean += 1;
                } else {
                    self.stats.ended_other += 1;
                }
            }
        }
    }

    /// Validate a resume attempt at bus time `now` and, if it holds,
    /// claim the session for a new incarnation. On refusal the token is
    /// spent: an ended or expired entry is removed (as is a token whose
    /// entry is gone), and the caller opens a fresh session.
    pub(crate) fn claim_resume(
        &mut self,
        token: u64,
        now: u64,
    ) -> Result<ResumeClaim, ResumeVerdict> {
        let Some(&client) = self.by_token.get(&token) else {
            self.stats.refused += 1;
            return Err(ResumeVerdict::Expired);
        };
        let ttl = self.ttl_ns;
        let live = self.by_client.get_mut(&client).filter(|e| match e.state {
            SessionState::Ended => false,
            SessionState::Detached { at_wm } => now.saturating_sub(at_wm) <= ttl,
            SessionState::Attached => true,
        });
        let Some(entry) = live else {
            self.by_token.remove(&token);
            self.by_client.remove(&client);
            self.stats.refused += 1;
            return Err(ResumeVerdict::Expired);
        };
        entry.incarnation += 1;
        entry.state = SessionState::Attached;
        Ok(ResumeClaim {
            client,
            token,
            incarnation: entry.incarnation,
            policy: entry.policy,
            subjects: entry.subjects.clone(),
        })
    }

    /// Record a resume whose replay ended at bus time `now`: its
    /// verdict and replay counters once it completed, or `aborted`
    /// when the new sink refused or died (`dead`).
    pub(crate) fn resume_done(&mut self, client: u32, plan: &ReplayPlan, dead: bool, now: u64) {
        if dead {
            self.stats.aborted += 1;
            // Back to detached so the client can try again within the
            // TTL.
            self.detach(client, now);
        } else {
            *match plan.verdict {
                ResumeVerdict::Gap => &mut self.stats.gapped,
                _ => &mut self.stats.resumed,
            } += 1;
            self.stats.replayed_hrt += plan.replayed[0];
            self.stats.replayed_srt += plan.replayed[1];
            self.stats.replayed_nrt += plan.replayed[2];
            self.stats.gap_frames += plan.gap_frames;
            self.stats.srt_stale_skipped += plan.stale_skipped;
            self.stats.replay_bytes += plan.replay_bytes;
        }
    }
}

/// A validated resume, claimed for a new incarnation: everything the
/// client's worker needs to reattach its lane.
pub(crate) struct ResumeClaim {
    pub client: u32,
    pub token: u64,
    pub incarnation: u32,
    pub policy: SlowConsumerPolicy,
    pub subjects: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::EventMsg;

    fn frame(class: ChannelClass, uid: u64, release_ns: u64, tag: u8) -> Arc<Vec<u8>> {
        Arc::new(wire::encode_to_client(&ToClient::Event(EventMsg {
            class,
            origin: 0,
            uid,
            seq: 0,
            wire_ns: 0,
            release_ns,
            payload: vec![tag],
        })))
    }

    /// The core counts data frames per class, the ring keeps only the
    /// newest `cap` of them, and it holds the sent buffer, not a copy.
    #[test]
    fn core_counts_and_bounds_the_ring() {
        let mut core = SessionCore::new(2);
        let frames: Vec<_> = (0..4u8)
            .map(|i| frame(ChannelClass::Hrt, 1, 10, i))
            .collect();
        for f in &frames {
            core.record(ChannelClass::Hrt, None, Arc::clone(f));
        }
        core.record(
            ChannelClass::Srt,
            Some(70),
            frame(ChannelClass::Srt, 2, 20, 9),
        );
        assert_eq!(core.sent().hrt, 4);
        assert_eq!(core.sent().srt, 1);
        assert_eq!(core.sent().nrt, 0);
        assert_eq!(core.rings[0].len(), 2, "ring bounded at cap");
        assert!(Arc::ptr_eq(&core.rings[0][1].bytes, &frames[3]));
    }

    /// An in-flight suffix within the ring replays exactly; nothing
    /// the client already has is resent (HRT exactly-once, §3.2).
    #[test]
    fn replay_covers_exactly_the_missing_suffix() {
        let mut core = SessionCore::new(8);
        let frames: Vec<_> = (0..5u8)
            .map(|i| frame(ChannelClass::Hrt, 1, 10, i))
            .collect();
        for f in &frames {
            core.record(ChannelClass::Hrt, None, Arc::clone(f));
        }
        // Client saw 3 of 5: replay frames 3 and 4 only.
        let wm = ClassWatermarks {
            hrt: 3,
            ..Default::default()
        };
        let plan = compute_replay(&core, 100, &wm);
        assert_eq!(plan.verdict, ResumeVerdict::Resumed);
        assert_eq!(plan.replayed, [2, 0, 0]);
        assert_eq!(plan.gap_frames, 0);
        assert!(plan.notices.is_empty());
        assert_eq!(
            plan.frames.iter().map(|f| f.as_slice()).collect::<Vec<_>>(),
            vec![&frames[3][..], &frames[4][..]]
        );
        // Fully caught up: nothing replays.
        let wm = ClassWatermarks {
            hrt: 5,
            ..Default::default()
        };
        assert!(compute_replay(&core, 100, &wm).frames.is_empty());
    }

    /// A suffix longer than the ring yields a `Gap` notice for the
    /// overrun and a `Gap` verdict — loss is reported, never hidden.
    #[test]
    fn ring_overrun_becomes_an_explicit_gap() {
        let mut core = SessionCore::new(2);
        for i in 0..6u8 {
            let f = frame(ChannelClass::Nrt, 3, 0, i);
            core.record(ChannelClass::Nrt, None, f);
        }
        let wm = ClassWatermarks::default(); // client got nothing
        let plan = compute_replay(&core, 0, &wm);
        assert_eq!(plan.verdict, ResumeVerdict::Gap);
        assert_eq!(plan.replayed, [0, 0, 2]);
        assert_eq!(plan.gap_frames, 4);
        assert_eq!(plan.notices.len(), 1);
        let (class, count, _) = &plan.notices[0];
        assert_eq!((*class, *count), (ChannelClass::Nrt, 4));
    }

    /// SRT frames whose validity closed while the client was away are
    /// skipped (shed, not delivered late — §2.2.2) and covered by a
    /// `Gap` notice; the verdict stays `Resumed`.
    #[test]
    fn stale_srt_is_skipped_not_replayed() {
        let mut core = SessionCore::new(8);
        // Validity 50 ns; now 100: release 10 is stale, release 80 is not.
        for (uid, release) in [(7u64, 10u64), (7, 80)] {
            let f = frame(ChannelClass::Srt, uid, release, release as u8);
            core.record(ChannelClass::Srt, Some(release + 50), f);
        }
        let wm = ClassWatermarks::default();
        let plan = compute_replay(&core, 100, &wm);
        assert_eq!(plan.verdict, ResumeVerdict::Resumed);
        assert_eq!(plan.replayed, [0, 1, 0]);
        assert_eq!(plan.stale_skipped, 1);
        let (class, count, _) = &plan.notices[0];
        assert_eq!((*class, *count), (ChannelClass::Srt, 1));
    }

    /// A client claiming more than was sent is an anomaly, not a
    /// crash: nothing replays for that class.
    #[test]
    fn watermark_ahead_of_sent_is_flagged_not_replayed() {
        let mut core = SessionCore::new(4);
        let f = frame(ChannelClass::Hrt, 1, 0, 0);
        core.record(ChannelClass::Hrt, None, f);
        let wm = ClassWatermarks {
            hrt: 5,
            ..Default::default()
        };
        let plan = compute_replay(&core, 0, &wm);
        assert!(plan.anomaly);
        assert_eq!(plan.replayed, [0, 0, 0]);
    }

    /// Tokens are never 0, never collide, and the full detach → claim
    /// → expire lifecycle enforces the TTL in bus time.
    #[test]
    fn store_lifecycle_and_ttl() {
        let mut store = SessionStore::new(100);
        let t1 = store.open(1, vec![10], SlowConsumerPolicy::ShedNrtFirst);
        let t2 = store.open(2, vec![11], SlowConsumerPolicy::ShedNrtFirst);
        assert_ne!(t1, 0);
        assert_ne!(t2, 0);
        assert_ne!(t1, t2);
        // Unknown token refused.
        assert!(store.claim_resume(t1 ^ t2 ^ 0x55, 0).is_err());
        // Detach at wm 50; within TTL at 100 the claim succeeds and
        // bumps the incarnation.
        assert!(store.detach(1, 50));
        let claim = store.claim_resume(t1, 100).expect("within TTL");
        assert_eq!((claim.client, claim.incarnation), (1, 1));
        // Detach again; past the TTL the claim is refused and the
        // entry is gone.
        assert!(store.detach(1, 120));
        assert!(matches!(
            store.claim_resume(t1, 240),
            Err(ResumeVerdict::Expired)
        ));
        assert!(store.entry(1).is_none());
        // Ended sessions never resume.
        store.end(2, true);
        assert!(matches!(
            store.claim_resume(t2, 240),
            Err(ResumeVerdict::Expired)
        ));
        assert_eq!(store.stats.ended_clean, 1);
        assert_eq!(store.stats.refused, 3);
    }

    /// A token whose entry is gone (it comes off a socket, so nothing
    /// vouches for it) is refused like an expired one and spent.
    #[test]
    fn an_orphaned_token_is_refused_not_a_panic() {
        let mut store = SessionStore::new(100);
        let token = store.open(1, vec![10], SlowConsumerPolicy::ShedNrtFirst);
        store.by_client.remove(&1);
        assert!(matches!(
            store.claim_resume(token, 0),
            Err(ResumeVerdict::Expired)
        ));
        assert!(store.by_token.is_empty(), "the orphan is spent");
        assert_eq!(store.stats.refused, 1);
    }
}
