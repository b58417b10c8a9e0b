//! Client-side reconnect loop: a [`GatewayClient`] that survives a
//! severed connection.
//!
//! [`ReconnectingClient::recv`] looks like a plain blocking receive,
//! but when the stream dies — EOF, an I/O error, or a read that sits
//! idle past [`ReconnectPolicy::idle_timeout`] (the half-open case:
//! the gateway host vanished without a FIN, so the socket just goes
//! quiet) — it captures the session's resume request (token + current
//! per-class watermarks) and re-dials with bounded exponential backoff
//! and seeded jitter, the same scheme as the UDP transport's send
//! retry: doubling backoff plus up to one backoff interval of jitter
//! from a seeded [`Rng`], so a fleet of clients severed by the same
//! gateway restart does not stampede back in lock-step.
//!
//! What the resumed connection delivers first — replayed frames and
//! `Gap` notices — flows out of `recv` like any other traffic; the
//! caller observes a sever only through [`ReconnectStats`] (and
//! through any `Gap`/`Shed` notices the gateway sends). A `Disconnect`
//! frame is surfaced, not retried: the gateway said goodbye on
//! purpose.

use crate::net::GatewayClient;
use crate::wire::{ClassWatermarks, ResumeReq, ResumeVerdict, SessionInfo, ToClient};
use rtec_core::Subject;
use rtec_live::sync::thread;
use rtec_sim::Rng;
use std::io;
use std::net::SocketAddr;
#[cfg(unix)]
use std::path::PathBuf;
use std::time::Duration as StdDuration;

/// Where the gateway lives — re-dialed verbatim on every reconnect.
#[derive(Clone, Debug)]
pub enum Target {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Target {
    fn dial(&self, subjects: &[Subject], resume: Option<ResumeReq>) -> io::Result<GatewayClient> {
        match (self, resume) {
            (Target::Tcp(addr), None) => GatewayClient::connect(*addr, subjects),
            (Target::Tcp(addr), Some(req)) => GatewayClient::connect_resume(*addr, subjects, req),
            #[cfg(unix)]
            (Target::Unix(path), None) => GatewayClient::connect_unix(path, subjects),
            #[cfg(unix)]
            (Target::Unix(path), Some(req)) => {
                GatewayClient::connect_unix_resume(path, subjects, req)
            }
        }
    }
}

/// Knobs of the reconnect loop.
#[derive(Clone, Copy, Debug)]
pub struct ReconnectPolicy {
    /// Dial attempts per outage before `recv` gives up with an error.
    pub attempts: u32,
    /// Backoff before the second attempt; doubles per attempt, plus up
    /// to one backoff interval of seeded jitter.
    pub first_backoff: StdDuration,
    /// A read idle past this counts as a dead (half-open) connection
    /// and triggers a reconnect. Must exceed the longest expected gap
    /// between deliveries — there is no ping in the protocol, so an
    /// idle healthy link and a dead one look identical until then.
    /// `None` trusts the link and blocks forever.
    pub idle_timeout: Option<StdDuration>,
    /// Seed of the jitter stream; give each client its own.
    pub seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            attempts: 7,
            first_backoff: StdDuration::from_millis(20),
            idle_timeout: Some(StdDuration::from_secs(2)),
            seed: 0xCA11_BACC,
        }
    }
}

/// What the reconnect loop has been through.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReconnectStats {
    /// Successful re-dials after a sever (the initial connect is not
    /// counted).
    pub reconnects: u64,
    /// Reconnects the gateway answered `Resumed` or `Gap` — the
    /// session survived.
    pub resumed: u64,
    /// `Gap` verdicts among those: resumed, but with explicitly
    /// acknowledged loss.
    pub gap_verdicts: u64,
    /// Reconnects answered `Expired`: the session was gone and the
    /// client restarted fresh (watermarks reset).
    pub expired: u64,
    /// Dial attempts that failed outright.
    pub failures: u64,
}

/// A [`GatewayClient`] wrapped in the reconnect loop.
pub struct ReconnectingClient {
    target: Target,
    subjects: Vec<Subject>,
    policy: ReconnectPolicy,
    rng: Rng,
    inner: Option<GatewayClient>,
    /// The resume request to present on the next dial: taken from the
    /// live client at every sever, `None` before the first.
    resume: Option<ResumeReq>,
    stats: ReconnectStats,
}

impl ReconnectingClient {
    /// Dial `target` (with the policy's bounded retry) and subscribe
    /// to `subjects`.
    pub fn connect(
        target: Target,
        subjects: &[Subject],
        policy: ReconnectPolicy,
    ) -> io::Result<ReconnectingClient> {
        let mut me = ReconnectingClient {
            target,
            subjects: subjects.to_vec(),
            policy,
            rng: Rng::seed_from_u64(policy.seed ^ 0x0CA1_1BAC_C0FF_5E75),
            inner: None,
            resume: None,
            stats: ReconnectStats::default(),
        };
        me.redial(true)?;
        Ok(me)
    }

    /// Receive the next message, reconnecting through severs. Errors
    /// only once an outage outlives [`ReconnectPolicy::attempts`].
    pub fn recv(&mut self) -> io::Result<ToClient> {
        loop {
            let Some(client) = self.inner.as_mut() else {
                self.redial(false)?;
                continue;
            };
            match client.recv() {
                Ok(Some(msg)) => return Ok(msg),
                // EOF, idle past the timeout (half-open), or a hard
                // error: all mean this stream is done — capture the
                // resume request and go around to re-dial.
                Ok(None) | Err(_) => self.sever(),
            }
        }
    }

    /// Drop the dead stream, keeping what the next dial must present.
    fn sever(&mut self) {
        if let Some(client) = self.inner.take() {
            self.resume = Some(client.resume_req());
        }
    }

    /// Bounded exponential backoff with seeded jitter, mirroring the
    /// UDP transport's send retry.
    fn redial(&mut self, initial: bool) -> io::Result<()> {
        let mut backoff = self.policy.first_backoff;
        let mut last: Option<io::Error> = None;
        for i in 0..self.policy.attempts.max(1) {
            if i > 0 {
                let jitter_ns = self.rng.gen_range_u64(backoff.as_nanos().max(1) as u64);
                thread::sleep(backoff + StdDuration::from_nanos(jitter_ns));
                backoff *= 2;
            }
            match self.target.dial(&self.subjects, self.resume) {
                Ok(client) => {
                    if !initial {
                        self.stats.reconnects += 1;
                    }
                    match client.session.verdict {
                        ResumeVerdict::Resumed => self.stats.resumed += 1,
                        ResumeVerdict::Gap => {
                            self.stats.resumed += 1;
                            self.stats.gap_verdicts += 1;
                        }
                        ResumeVerdict::Expired => self.stats.expired += 1,
                        ResumeVerdict::Fresh | ResumeVerdict::Unknown(_) => {}
                    }
                    client.set_read_timeout(self.policy.idle_timeout)?;
                    self.inner = Some(client);
                    return Ok(());
                }
                Err(e) => {
                    self.stats.failures += 1;
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::TimedOut, "reconnect attempts exhausted")
        }))
    }

    /// The reconnect history so far.
    pub fn stats(&self) -> ReconnectStats {
        self.stats
    }

    /// The current connection's session (`None` mid-outage).
    pub fn session(&self) -> Option<SessionInfo> {
        self.inner.as_ref().map(|c| c.session)
    }

    /// Current per-class delivery watermarks (the mid-outage snapshot
    /// if the stream is down).
    pub fn watermarks(&self) -> ClassWatermarks {
        match (&self.inner, &self.resume) {
            (Some(client), _) => client.watermarks(),
            (None, Some(req)) => req.wm,
            (None, None) => ClassWatermarks::default(),
        }
    }

    /// Leave cleanly (see [`GatewayClient::bye`]); a no-op mid-outage —
    /// the session then just expires at the gateway's TTL.
    pub fn bye(mut self) -> io::Result<()> {
        match self.inner.take() {
            Some(client) => client.bye(),
            None => Ok(()),
        }
    }
}
