//! UDP transport: one datagram socket per node plus one for the broker.
//!
//! Every protocol message is exactly one datagram in the
//! [`crate::wire`] encoding. Nodes rendezvous with the broker by
//! sending `Hello` with exponential backoff until `Welcome` comes back;
//! the broker learns each node's address from the source of its first
//! `Hello`. The broker keeps the last `Welcome` it sent per node and
//! replays it on a duplicate `Hello`, so a lost `Welcome` only costs
//! one backoff round instead of deadlocking the handshake.
//!
//! The steady-state protocol is strictly lock-step (the broker talks to
//! one node at a time and every broker message is answered), so a
//! single broker socket suffices: datagrams from nodes other than the
//! one currently being drained can only be stragglers from the
//! handshake, and the demultiplexer parks per-node messages in queues.
//! This transport is built for localhost clusters — steady-state
//! datagram loss is surfaced as a [`TransportError::Timeout`] rather
//! than recovered, which keeps the broker deterministic.

use crate::sync::thread;
use crate::transport::{BrokerTransport, NodeTransport, Relink, TransportError};
use crate::wire::{self, ToBroker, ToNode};
use rtec_sim::Rng;
use std::collections::VecDeque;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

const MAX_DATAGRAM: usize = 2048;

/// Initial backoff between `Hello` retransmissions.
const HELLO_BACKOFF_FIRST: Duration = Duration::from_millis(20);
/// Number of `Hello` attempts before giving up (backoff doubles each
/// time: 20 ms, 40 ms, … ≈ 2.5 s in total).
const HELLO_ATTEMPTS: u32 = 7;

/// Datagram send attempts before a transient kernel error (buffer
/// exhaustion, interrupt) is surfaced as [`TransportError::Io`] — the
/// error-passive trigger of the broker's fault confinement.
const SEND_ATTEMPTS: u32 = 4;
/// Base backoff between send retries; doubles per attempt, plus up to
/// one base interval of seeded jitter so two peers retrying the same
/// congested instant do not stay in lock-step.
const SEND_BACKOFF_FIRST: Duration = Duration::from_micros(200);

fn io_err(e: std::io::Error) -> TransportError {
    TransportError::Io(e.to_string())
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Whether a send error is worth retrying: the datagram never left
/// (interrupted syscall, full socket buffer), so a short backoff can
/// succeed. Anything else (unreachable peer, closed socket) is final.
fn is_transient(e: &std::io::Error) -> bool {
    is_timeout(e) || matches!(e.kind(), std::io::ErrorKind::Interrupted)
}

/// Send one datagram with bounded retry: exponential backoff from
/// [`SEND_BACKOFF_FIRST`] with seeded jitter, [`SEND_ATTEMPTS`] tries.
fn send_with_retry(
    rng: &mut Rng,
    mut attempt: impl FnMut() -> std::io::Result<usize>,
) -> Result<(), TransportError> {
    let mut backoff = SEND_BACKOFF_FIRST;
    let mut last = None;
    for i in 0..SEND_ATTEMPTS {
        match attempt() {
            Ok(_) => return Ok(()),
            Err(e) if is_transient(&e) => {
                last = Some(e);
                if i + 1 < SEND_ATTEMPTS {
                    let jitter_ns = rng.gen_range_u64(backoff.as_nanos().max(1) as u64);
                    thread::sleep(backoff + Duration::from_nanos(jitter_ns));
                    backoff *= 2;
                }
            }
            Err(e) => return Err(io_err(e)),
        }
    }
    Err(io_err(last.expect("retries imply a transient error")))
}

/// Node endpoint of the UDP transport.
pub struct UdpNode {
    sock: UdpSocket,
    node: u8,
    /// The `Welcome` consumed during the rendezvous, replayed to the
    /// node runtime on its first `recv`.
    pending: Option<ToNode>,
    retry_rng: Rng,
}

impl UdpNode {
    /// Bind an ephemeral localhost socket and rendezvous with the
    /// broker at `broker`: send `Hello{node, incarnation}` with
    /// exponential backoff until `Welcome` arrives. The `Welcome` is
    /// buffered and returned by the first [`NodeTransport::recv`] call.
    /// A restarted incarnation (`incarnation > 0`) dials back in with
    /// the same handshake; the broker tells the rejoin apart from a
    /// stale replay by the incarnation counter.
    pub fn connect(broker: SocketAddr, node: u8, incarnation: u32) -> Result<Self, TransportError> {
        let sock = UdpSocket::bind(("127.0.0.1", 0)).map_err(io_err)?;
        sock.connect(broker).map_err(io_err)?;
        let hello = wire::encode_to_broker(&ToBroker::Hello { node, incarnation });
        let mut backoff = HELLO_BACKOFF_FIRST;
        let mut buf = [0u8; MAX_DATAGRAM];
        for _ in 0..HELLO_ATTEMPTS {
            sock.send(&hello).map_err(io_err)?;
            sock.set_read_timeout(Some(backoff)).map_err(io_err)?;
            match sock.recv(&mut buf) {
                Ok(n) => {
                    let msg = wire::decode_to_node(&buf[..n])?;
                    if matches!(msg, ToNode::Welcome { .. }) {
                        return Ok(UdpNode {
                            sock,
                            node,
                            pending: Some(msg),
                            retry_rng: Rng::seed_from_u64(
                                0x0DD_BA11 ^ (u64::from(node) << 32) ^ u64::from(incarnation),
                            ),
                        });
                    }
                    // Anything else before Welcome is a protocol error.
                    return Err(TransportError::Malformed(wire::WireError::BadKind(0)));
                }
                Err(e) if is_timeout(&e) => backoff *= 2,
                Err(e) => return Err(io_err(e)),
            }
        }
        Err(TransportError::Timeout)
    }

    /// The node id this endpoint rendezvoused as.
    pub fn node(&self) -> u8 {
        self.node
    }
}

impl NodeTransport for UdpNode {
    fn send(&mut self, msg: ToBroker) -> Result<(), TransportError> {
        let bytes = wire::encode_to_broker(&msg);
        let (sock, rng) = (&self.sock, &mut self.retry_rng);
        send_with_retry(rng, || sock.send(&bytes))
    }

    fn recv(&mut self, timeout: Duration) -> Result<ToNode, TransportError> {
        if let Some(msg) = self.pending.take() {
            return Ok(msg);
        }
        let deadline = Instant::now() + timeout;
        let mut buf = [0u8; MAX_DATAGRAM];
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(TransportError::Timeout);
            }
            self.sock
                .set_read_timeout(Some((deadline - now).max(Duration::from_millis(1))))
                .map_err(io_err)?;
            match self.sock.recv(&mut buf) {
                // The broker replays `Welcome` when it sees a duplicate
                // `Hello`; the handshake already consumed the real one,
                // so any further `Welcome` is a replay artifact — drop
                // it rather than restart the runtime.
                Ok(n) => match wire::decode_to_node(&buf[..n])? {
                    ToNode::Welcome { .. } => continue,
                    msg => return Ok(msg),
                },
                Err(e) if is_timeout(&e) => return Err(TransportError::Timeout),
                Err(e) => return Err(io_err(e)),
            }
        }
    }
}

/// Broker endpoint of the UDP transport.
pub struct UdpBroker {
    sock: UdpSocket,
    /// Source address of each node, learned from its first `Hello`.
    addrs: Vec<Option<SocketAddr>>,
    /// Per-node messages received while waiting on a different node.
    queues: Vec<VecDeque<ToBroker>>,
    /// Last `Welcome` sent to each node, replayed on duplicate `Hello`.
    welcomes: Vec<Option<Vec<u8>>>,
    retry_rng: Rng,
}

impl UdpBroker {
    /// Bind the broker's localhost socket, serving `nodes` endpoints.
    pub fn bind(nodes: usize) -> Result<Self, TransportError> {
        let sock = UdpSocket::bind(("127.0.0.1", 0)).map_err(io_err)?;
        Ok(UdpBroker {
            sock,
            addrs: vec![None; nodes],
            queues: (0..nodes).map(|_| VecDeque::new()).collect(),
            welcomes: vec![None; nodes],
            retry_rng: Rng::seed_from_u64(0xB0_B11C),
        })
    }

    /// The address nodes should [`UdpNode::connect`] to.
    pub fn local_addr(&self) -> Result<SocketAddr, TransportError> {
        self.sock.local_addr().map_err(io_err)
    }

    /// Receive one datagram and park it in the sender's queue.
    fn pump(&mut self, timeout: Duration) -> Result<(), TransportError> {
        self.sock
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))
            .map_err(io_err)?;
        let mut buf = [0u8; MAX_DATAGRAM];
        let (n, from) = match self.sock.recv_from(&mut buf) {
            Ok(ok) => ok,
            Err(e) if is_timeout(&e) => return Err(TransportError::Timeout),
            Err(e) => return Err(io_err(e)),
        };
        let msg = wire::decode_to_broker(&buf[..n])?;
        if let ToBroker::Hello { node, .. } = msg {
            let idx = node as usize;
            if idx >= self.addrs.len() {
                return Ok(()); // unknown node id: drop
            }
            match self.addrs[idx] {
                // Hellos are consumed by the transport (the runtime
                // protocol starts at Welcome), so they are not queued.
                // An empty slot — initial rendezvous or a relink
                // awaiting its restarted incarnation — learns the
                // address.
                None => self.addrs[idx] = Some(from),
                Some(a) if a == from => {
                    // Duplicate Hello: our Welcome was lost — replay it.
                    if let Some(w) = &self.welcomes[idx] {
                        self.sock.send_to(w, from).map_err(io_err)?;
                    }
                }
                // A Hello from a *different* address while the slot is
                // taken is a stale replay from a dead incarnation's
                // socket; the broker's incarnation check handles the
                // protocol-level classification, the transport just
                // refuses to rebind the slot.
                Some(_) => {}
            }
            return Ok(());
        }
        // Steady-state messages are identified by source address.
        if let Some(idx) = self.addrs.iter().position(|a| *a == Some(from)) {
            self.queues[idx].push_back(msg);
        }
        Ok(())
    }
}

impl BrokerTransport for UdpBroker {
    fn node_count(&self) -> usize {
        self.addrs.len()
    }

    fn rendezvous(&mut self, timeout: Duration) -> Result<(), TransportError> {
        let deadline = Instant::now() + timeout;
        while self.addrs.iter().any(Option::is_none) {
            let now = Instant::now();
            if now >= deadline {
                return Err(TransportError::Timeout);
            }
            match self.pump(deadline - now) {
                Ok(()) | Err(TransportError::Timeout) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn send(&mut self, node: u8, msg: ToNode) -> Result<(), TransportError> {
        let idx = node as usize;
        let addr = self
            .addrs
            .get(idx)
            .copied()
            .flatten()
            .ok_or(TransportError::Disconnected)?;
        let bytes = wire::encode_to_node(&msg);
        if matches!(msg, ToNode::Welcome { .. }) {
            self.welcomes[idx] = Some(bytes.clone());
        }
        let (sock, rng) = (&self.sock, &mut self.retry_rng);
        send_with_retry(rng, || sock.send_to(&bytes, addr))
    }

    fn recv_from(&mut self, node: u8, timeout: Duration) -> Result<ToBroker, TransportError> {
        let idx = node as usize;
        if idx >= self.queues.len() {
            return Err(TransportError::Disconnected);
        }
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(msg) = self.queues[idx].pop_front() {
                return Ok(msg);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(TransportError::Timeout);
            }
            self.pump(deadline - now)?;
        }
    }

    fn unlink(&mut self, node: u8) {
        let idx = node as usize;
        if idx >= self.addrs.len() {
            return;
        }
        // Forget the dead incarnation entirely: its address (so stale
        // datagrams from that socket no longer demultiplex), its queued
        // messages, and its replayable Welcome.
        self.addrs[idx] = None;
        self.queues[idx].clear();
        self.welcomes[idx] = None;
    }

    fn relink(&mut self, node: u8) -> Result<Relink, TransportError> {
        if node as usize >= self.addrs.len() {
            return Err(TransportError::Disconnected);
        }
        self.unlink(node);
        // UDP cannot mint a node endpoint — the restarted node opens
        // its own socket and dials back in with `Hello`.
        Ok(Relink::Reconnect)
    }

    fn rendezvous_node(&mut self, node: u8, timeout: Duration) -> Result<(), TransportError> {
        let idx = node as usize;
        if idx >= self.addrs.len() {
            return Err(TransportError::Disconnected);
        }
        let deadline = Instant::now() + timeout;
        while self.addrs[idx].is_none() {
            let now = Instant::now();
            if now >= deadline {
                return Err(TransportError::Timeout);
            }
            match self.pump(deadline - now) {
                Ok(()) | Err(TransportError::Timeout) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn rendezvous_and_round_trip() {
        let mut broker = UdpBroker::bind(2).unwrap();
        let addr = broker.local_addr().unwrap();
        let handles: Vec<_> = (0..2u8)
            .map(|n| thread::spawn(move || UdpNode::connect(addr, n, 0).unwrap()))
            .collect();
        // Learn both addresses (order of Hello arrival is arbitrary).
        broker.rendezvous(Duration::from_secs(5)).unwrap();
        for n in 0..2u8 {
            broker
                .send(
                    n,
                    ToNode::Welcome {
                        now_ns: u64::from(n),
                        incarnation: 0,
                    },
                )
                .unwrap();
        }
        let mut nodes: Vec<UdpNode> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (i, node) in nodes.iter_mut().enumerate() {
            assert_eq!(
                node.recv(Duration::from_secs(5)).unwrap(),
                ToNode::Welcome {
                    now_ns: i as u64,
                    incarnation: 0
                }
            );
        }
        // Steady state: node 1 submits, broker sees it addressed correctly.
        nodes[1].send(ToBroker::Idle).unwrap();
        assert_eq!(
            broker.recv_from(1, Duration::from_secs(5)).unwrap(),
            ToBroker::Idle
        );
        // The widest request, a promotion with its chain, fits one
        // datagram like every other.
        let promote = ToBroker::PromoteReq {
            at_ns: 80_000,
            token: u64::MAX,
            handle: 7,
            every_ns: 160_000,
            last_ns: 9_840_000,
        };
        nodes[0].send(promote.clone()).unwrap();
        assert_eq!(
            broker.recv_from(0, Duration::from_secs(5)).unwrap(),
            promote
        );
    }

    #[test]
    fn connect_times_out_without_broker() {
        // A bound-but-silent socket: Hello goes nowhere useful.
        let silent = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let addr = silent.local_addr().unwrap();
        let start = Instant::now();
        let res = UdpNode::connect(addr, 0, 0);
        assert_eq!(res.err(), Some(TransportError::Timeout));
        assert!(start.elapsed() >= HELLO_BACKOFF_FIRST);
    }

    /// A crashed node's slot can be relinked: the broker forgets the
    /// old incarnation (address, queue, Welcome) and a fresh socket
    /// dials back in under a bumped incarnation while the dead
    /// incarnation's straggler datagrams are ignored.
    #[test]
    fn relink_rejoins_a_restarted_incarnation() {
        let mut broker = UdpBroker::bind(1).unwrap();
        let addr = broker.local_addr().unwrap();
        let h = thread::spawn(move || UdpNode::connect(addr, 0, 0).unwrap());
        broker.rendezvous(Duration::from_secs(5)).unwrap();
        broker
            .send(
                0,
                ToNode::Welcome {
                    now_ns: 1,
                    incarnation: 0,
                },
            )
            .unwrap();
        let mut old = h.join().unwrap();
        assert!(matches!(
            old.recv(Duration::from_secs(5)).unwrap(),
            ToNode::Welcome { incarnation: 0, .. }
        ));
        old.send(ToBroker::Idle).unwrap(); // will be discarded by relink

        // Crash: the broker quarantines the node, then restarts it.
        assert!(matches!(broker.relink(0), Ok(Relink::Reconnect)));
        assert_eq!(
            broker.send(0, ToNode::Shutdown),
            Err(TransportError::Disconnected),
            "an unlinked slot must not be reachable"
        );
        let h = thread::spawn(move || UdpNode::connect(addr, 0, 1).unwrap());
        broker.rendezvous_node(0, Duration::from_secs(5)).unwrap();
        broker
            .send(
                0,
                ToNode::Welcome {
                    now_ns: 2,
                    incarnation: 1,
                },
            )
            .unwrap();
        let mut fresh = h.join().unwrap();
        assert_eq!(
            fresh.recv(Duration::from_secs(5)).unwrap(),
            ToNode::Welcome {
                now_ns: 2,
                incarnation: 1
            }
        );
        // The old incarnation's pre-crash Idle was dropped with its
        // queue; the fresh incarnation's traffic flows normally.
        fresh
            .send(ToBroker::Hello {
                node: 0,
                incarnation: 1,
            })
            .unwrap();
        fresh.send(ToBroker::Done { node: 0 }).unwrap();
        assert_eq!(
            broker.recv_from(0, Duration::from_secs(5)).unwrap(),
            ToBroker::Done { node: 0 }
        );
    }
}
