//! Socket transport: real clients over TCP or Unix-domain streams.
//!
//! The acceptor thread owns the listener; each accepted connection is
//! handshaken inline (read `Hello`, then that many `Subscribe` frames,
//! under a read timeout so a stalled half-open connection cannot wedge
//! accepting), answered with `Welcome`, and only then registered with
//! the gateway behind a stream sink — so `Welcome` is always the first
//! frame on the wire. The client's fanout worker then writes frames
//! through that sink; a write timeout before any byte of a frame
//! goes out maps to [`SinkStatus::Busy`] so a stalled client builds
//! backpressure into its bounded lane queue — where the shedding
//! policies, not the socket, decide what gives — while a frame caught
//! mid-write is buffered and finished on the next offer, keeping the
//! client's length-prefixed framing intact.
//!
//! Every admitted connection opens a session. A `Hello` may carry a
//! session token and per-class delivery watermarks: the gateway then
//! *resumes* that session. A resume is the same one message to the
//! client's worker as an in-process resume: the worker decides the
//! verdict from the lane's own accounting and offers the new stream
//! sink a `Welcome` carrying it as its first frame, then the `Gap`
//! notices, then the missing frame suffix (see `session.rs`), so the
//! verdict a client reads always matches what follows it. A refused
//! token is answered here, with an `Expired` `Welcome` opening a fresh
//! session on the same stream. A `Hello` of an older protocol version
//! does not decode, so the connection is dropped unanswered.
//! Each admitted connection also gets a reader thread watching for
//! `Bye` (clean close: lanes flush and the session token is spent)
//! versus EOF or an error (sever: lanes park and the session stays
//! resumable for the TTL).
//!
//! Shutdown never sleeps or polls: `stop()` raises a flag and then
//! *connects* to the listener once, so the blocking `accept()` returns
//! and the thread observes the flag (C4 keeps `thread::sleep` out of
//! runtime code).

use crate::client::{ClientSink, SinkStatus};
use crate::egress::SlowConsumerPolicy;
use crate::gateway::{Gateway, WmSource};
use crate::wire::{
    self, ClassWatermarks, ResumeReq, ResumeVerdict, SessionInfo, ToClient, ToGateway,
};
use rtec_core::{ChannelClass, Subject};
use rtec_live::sync::atomic::{AtomicBool, Ordering};
use rtec_live::sync::{thread, Arc};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::time::Duration as StdDuration;

/// Read timeout for the connection handshake.
const HANDSHAKE_TIMEOUT: StdDuration = StdDuration::from_secs(2);
/// Write timeout after which a client counts as busy (not gone).
const WRITE_TIMEOUT: StdDuration = StdDuration::from_millis(20);
/// How long a departing client waits for the gateway to close the
/// stream after its `Bye`.
const BYE_DRAIN_TIMEOUT: StdDuration = StdDuration::from_secs(1);
/// Most in-flight frames a departing client will drain after `Bye`.
const BYE_DRAIN_FRAMES: usize = 1024;

/// A [`ClientSink`] writing length-prefixed frames to a stream.
///
/// The write timeout can fire after *part* of a frame (length prefix
/// included) is already on the wire. Re-sending the frame from byte 0
/// on the lane's retry would leave the duplicated prefix in the stream
/// and permanently desync the client's framing — exactly under the
/// slow-consumer load the backpressure design targets. So the sink
/// buffers the frame it is writing and tracks an offset: a frame that
/// started going out is *committed* (reported `Accepted`, its tail
/// drains ahead of any later frame), and `Busy` is only ever reported
/// while zero bytes of the offered frame have been attempted. The
/// buffer holds at most one frame (≤ [`wire::MAX_FRAME_LEN`] + 4
/// bytes), so per-client memory stays bounded.
struct StreamSink<W: Write + Send> {
    stream: W,
    /// The frame being written (length prefix + body); empty when no
    /// write is in flight.
    pending: Vec<u8>,
    /// Bytes of `pending` already on the wire.
    written: usize,
}

/// Outcome of one attempt to drain [`StreamSink::pending`].
enum Drained {
    /// Everything pending is on the wire.
    Done,
    /// Timeout/would-block with bytes still pending.
    Blocked,
    /// Hard I/O error: the stream is unusable.
    Dead,
}

impl<W: Write + Send> StreamSink<W> {
    fn new(stream: W) -> Self {
        StreamSink {
            stream,
            pending: Vec::new(),
            written: 0,
        }
    }

    /// Push `pending[written..]` at the stream until it is gone, the
    /// socket blocks, or the stream dies.
    fn drain(&mut self) -> Drained {
        while self.written < self.pending.len() {
            match self.stream.write(&self.pending[self.written..]) {
                Ok(0) => return Drained::Dead,
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Drained::Blocked
                }
                Err(_) => return Drained::Dead,
            }
        }
        self.pending.clear();
        self.written = 0;
        Drained::Done
    }
}

impl<W: Write + Send> ClientSink for StreamSink<W> {
    fn offer(&mut self, bytes: &[u8]) -> SinkStatus {
        // Finish the previously committed frame first; until its tail
        // is out, nothing of the new frame may touch the stream.
        match self.drain() {
            Drained::Done => {}
            Drained::Blocked => return SinkStatus::Busy,
            Drained::Dead => return SinkStatus::Gone,
        }
        // An impossible frame is refused before any byte of it is
        // buffered.
        if wire::write_frame(&mut self.pending, bytes).is_err() {
            return SinkStatus::Gone;
        }
        match self.drain() {
            Drained::Done => SinkStatus::Accepted,
            Drained::Blocked if self.written == 0 => {
                // Not a single byte went out: safe to let the lane
                // keep (or shed) the entry and retry it verbatim.
                self.pending.clear();
                SinkStatus::Busy
            }
            // Partially written: the frame is committed — its tail
            // goes out ahead of any future frame — so the lane must
            // treat it as delivered, not retry it.
            Drained::Blocked => SinkStatus::Accepted,
            Drained::Dead => SinkStatus::Gone,
        }
    }
}

/// The two stream families the acceptor speaks, abstracted over the
/// handful of non-`Read`/`Write` calls `admit` needs.
trait Stream: io::Read + Write + Send + Sized + 'static {
    /// Apply the per-connection timeouts (and TCP_NODELAY where it
    /// exists).
    fn configure(&self) -> io::Result<()>;
    /// A second handle onto the same connection (reader/writer split).
    fn try_clone_stream(&self) -> io::Result<Self>;
    /// Lift the handshake read timeout: the post-handshake reader
    /// blocks until the client sends `Bye` or the connection dies.
    fn clear_read_timeout(&self) -> io::Result<()>;
}

impl Stream for TcpStream {
    fn configure(&self) -> io::Result<()> {
        self.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
        self.set_write_timeout(Some(WRITE_TIMEOUT))?;
        self.set_nodelay(true)
    }
    fn try_clone_stream(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn clear_read_timeout(&self) -> io::Result<()> {
        self.set_read_timeout(None)
    }
}

#[cfg(unix)]
impl Stream for UnixStream {
    fn configure(&self) -> io::Result<()> {
        self.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
        self.set_write_timeout(Some(WRITE_TIMEOUT))
    }
    fn try_clone_stream(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn clear_read_timeout(&self) -> io::Result<()> {
        self.set_read_timeout(None)
    }
}

/// Where a running acceptor listens — also how `stop()` wakes its
/// blocking `accept()`.
enum Endpoint {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

/// A running socket acceptor bound to a gateway.
pub struct Acceptor {
    stop: Arc<AtomicBool>,
    endpoint: Endpoint,
    handle: Option<thread::JoinHandle<()>>,
}

impl Acceptor {
    /// Accept TCP clients on `addr` (e.g. `"127.0.0.1:0"`) and register
    /// each with `gateway` under `policy`.
    pub fn tcp(gateway: Gateway, addr: &str, policy: SlowConsumerPolicy) -> io::Result<Acceptor> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let (stop, handle) = Self::accept_loop(gateway, policy, move || listener.accept());
        Ok(Acceptor {
            stop,
            endpoint: Endpoint::Tcp(local),
            handle: Some(handle),
        })
    }

    /// Accept Unix-domain clients on the socket file `path` (created
    /// here, removed by `stop()`) and register each with `gateway`
    /// under `policy`.
    #[cfg(unix)]
    pub fn unix(
        gateway: Gateway,
        path: impl Into<PathBuf>,
        policy: SlowConsumerPolicy,
    ) -> io::Result<Acceptor> {
        let path = path.into();
        let listener = UnixListener::bind(&path)?;
        let (stop, handle) = Self::accept_loop(gateway, policy, move || listener.accept());
        Ok(Acceptor {
            stop,
            endpoint: Endpoint::Unix(path),
            handle: Some(handle),
        })
    }

    /// Spawn the named acceptor thread shared by both stream families.
    fn accept_loop<S, A, F>(
        gateway: Gateway,
        policy: SlowConsumerPolicy,
        mut accept: F,
    ) -> (Arc<AtomicBool>, thread::JoinHandle<()>)
    where
        S: Stream,
        F: FnMut() -> io::Result<(S, A)> + Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("gw-acceptor".to_string())
            .spawn(move || loop {
                let conn = accept();
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok((stream, _)) = conn else { continue };
                let _ = admit(&gateway, stream, policy);
            })
            .expect("spawn gateway acceptor");
        (stop, handle)
    }

    /// The bound local TCP address (useful with port 0). Panics for a
    /// Unix-domain acceptor — use [`Acceptor::path`] there.
    pub fn addr(&self) -> SocketAddr {
        match &self.endpoint {
            Endpoint::Tcp(addr) => *addr,
            #[cfg(unix)]
            Endpoint::Unix(_) => panic!("addr() on a Unix-domain acceptor; use path()"),
        }
    }

    /// The socket file of a Unix-domain acceptor. Panics for TCP.
    #[cfg(unix)]
    pub fn path(&self) -> &std::path::Path {
        match &self.endpoint {
            Endpoint::Unix(path) => path,
            Endpoint::Tcp(_) => panic!("path() on a TCP acceptor; use addr()"),
        }
    }

    /// Stop accepting: raise the flag, wake the blocking `accept()`
    /// with a throwaway self-connection, join the thread. A Unix
    /// acceptor's socket file is removed.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        match &self.endpoint {
            Endpoint::Tcp(addr) => {
                let _ = TcpStream::connect(addr);
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let _ = UnixStream::connect(path);
            }
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        #[cfg(unix)]
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Handshake one accepted connection and register it as a client.
///
/// A `Hello` with a resume token first tries to resume the session;
/// on refusal (unknown token, ended, TTL elapsed) the connection falls
/// back to a fresh session and the `Welcome` verdict says `Expired` so
/// the client knows its watermarks are void. A resume `Hello` still
/// lists its subscriptions — they are used only on that fresh-session
/// fallback; a resumed session keeps the set it was opened with.
fn admit<S: Stream>(gateway: &Gateway, stream: S, policy: SlowConsumerPolicy) -> io::Result<()> {
    stream.configure()?;
    let mut reader = stream.try_clone_stream()?;
    let first = wire::read_frame(&mut reader)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no Hello"))?;
    let (subs, resume) = match decode_msg(&first)? {
        ToGateway::Hello { subs, resume } => (subs, resume),
        _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "expected Hello")),
    };
    let mut subjects = Vec::with_capacity(usize::from(subs));
    for _ in 0..subs {
        match next_msg(&mut reader)? {
            Some(ToGateway::Subscribe { uid }) => subjects.push(Subject::new(uid)),
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "expected Subscribe",
                ))
            }
        }
    }
    let resume_attempted = resume.is_some();
    if let Some(req) = resume {
        // The client's worker offers the new sink `Welcome`, with the
        // verdict it decides, as its first frame, ahead of the replay.
        let sink = Box::new(StreamSink::new(stream.try_clone_stream()?));
        let wm = WmSource::Known(req.wm);
        if let Ok((client, incarnation)) = gateway.resume(req.token, wm, sink, true) {
            stream.clear_read_timeout()?;
            spawn_reader(gateway.clone(), reader, client, incarnation);
            return Ok(());
        }
        // Token refused: fall through to a fresh session.
    }
    let sink = Box::new(StreamSink::new(stream.try_clone_stream()?));
    // Welcome must be the first frame on the stream, wholly written
    // before any fanout worker can address this client's sink — so the
    // id is reserved up front, and the attach that lets workers write
    // happens only after the handshake reply is out.
    let mut out = stream;
    let client = gateway.reserve_client();
    let token = gateway.open_session(client, &subjects, Some(policy));
    let verdict = if resume_attempted {
        ResumeVerdict::Expired
    } else {
        ResumeVerdict::Fresh
    };
    if let Err(e) = wire::write_frame(
        &mut out,
        &wire::encode_to_client(&ToClient::Welcome {
            client,
            now_ns: 0,
            session: Some(SessionInfo { token, verdict }),
        }),
    ) {
        // The token never reached the client; spend it.
        gateway.close_session(client);
        return Err(e);
    }
    gateway.attach_session(client, sink);
    out.clear_read_timeout()?;
    spawn_reader(gateway.clone(), reader, client, 0);
    Ok(())
}

/// Watch one admitted connection for its close: `Bye` ends the client
/// cleanly (lanes flush, session token spent), EOF or an error parks
/// the session's lane for resume. `incarnation` is the one the
/// connection attached or resumed with.
fn spawn_reader<R: io::Read + Send + 'static>(
    gateway: Gateway,
    mut reader: R,
    client: u32,
    incarnation: u32,
) {
    let _ = thread::Builder::new()
        .name(format!("gw-client-{client}"))
        .spawn(move || loop {
            match wire::read_frame(&mut reader) {
                Ok(Some(frame)) => {
                    if matches!(wire::decode_to_gateway(&frame), Ok(ToGateway::Bye)) {
                        gateway.close_session(client);
                        return;
                    }
                    // Anything else post-handshake is ignored.
                }
                Ok(None) | Err(_) => {
                    // Severed (or half-closed without Bye): park the
                    // session.
                    gateway.detach_session(client, incarnation);
                    return;
                }
            }
        });
}

/// Read and decode the next client → gateway frame.
fn next_msg<R: io::Read>(r: &mut R) -> io::Result<Option<ToGateway>> {
    let Some(frame) = wire::read_frame(r)? else {
        return Ok(None);
    };
    decode_msg(&frame).map(Some)
}

/// Decode one client → gateway frame.
fn decode_msg(frame: &[u8]) -> io::Result<ToGateway> {
    wire::decode_to_gateway(frame)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))
}

/// The client side of either stream family, as one trait object.
trait ClientStream: io::Read + Write + Send {
    /// Half-close: no more writes; reads still drain what the gateway
    /// has in flight.
    fn shutdown_write(&mut self) -> io::Result<()>;
    /// Bound blocking reads (`None` blocks forever).
    fn set_read_timeout_opt(&self, dur: Option<StdDuration>) -> io::Result<()>;
}

impl ClientStream for TcpStream {
    fn shutdown_write(&mut self) -> io::Result<()> {
        self.shutdown(Shutdown::Write)
    }
    fn set_read_timeout_opt(&self, dur: Option<StdDuration>) -> io::Result<()> {
        self.set_read_timeout(dur)
    }
}

#[cfg(unix)]
impl ClientStream for UnixStream {
    fn shutdown_write(&mut self) -> io::Result<()> {
        self.shutdown(Shutdown::Write)
    }
    fn set_read_timeout_opt(&self, dur: Option<StdDuration>) -> io::Result<()> {
        self.set_read_timeout(dur)
    }
}

/// A minimal blocking client for tests and demos.
pub struct GatewayClient {
    stream: Box<dyn ClientStream>,
    /// Client id assigned by the gateway's `Welcome`.
    pub client: u32,
    /// Session granted by the gateway.
    pub session: SessionInfo,
    /// Per-class count of data frames received — what a resume `Hello`
    /// reports back so the gateway can replay exactly the in-flight
    /// suffix.
    wm: ClassWatermarks,
}

impl GatewayClient {
    /// Connect over TCP, subscribe to `subjects`, await `Welcome`.
    pub fn connect(addr: SocketAddr, subjects: &[Subject]) -> io::Result<GatewayClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Self::handshake(Box::new(stream), subjects, None)
    }

    /// Connect over TCP presenting a resume request (token + the
    /// watermarks of a previous [`GatewayClient::resume_req`]).
    pub fn connect_resume(
        addr: SocketAddr,
        subjects: &[Subject],
        resume: ResumeReq,
    ) -> io::Result<GatewayClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Self::handshake(Box::new(stream), subjects, Some(resume))
    }

    /// Connect over a Unix-domain socket file, subscribe to
    /// `subjects`, await `Welcome`.
    #[cfg(unix)]
    pub fn connect_unix(
        path: impl AsRef<std::path::Path>,
        subjects: &[Subject],
    ) -> io::Result<GatewayClient> {
        let stream = UnixStream::connect(path)?;
        Self::handshake(Box::new(stream), subjects, None)
    }

    /// Connect over a Unix-domain socket presenting a resume request.
    #[cfg(unix)]
    pub fn connect_unix_resume(
        path: impl AsRef<std::path::Path>,
        subjects: &[Subject],
        resume: ResumeReq,
    ) -> io::Result<GatewayClient> {
        let stream = UnixStream::connect(path)?;
        Self::handshake(Box::new(stream), subjects, Some(resume))
    }

    /// Send `Hello` and the subscriptions, then await a `Welcome` that
    /// opens a session. More subjects than `Hello` can count is
    /// `InvalidInput`, refused before any byte is written.
    fn handshake(
        mut stream: Box<dyn ClientStream>,
        subjects: &[Subject],
        resume: Option<ResumeReq>,
    ) -> io::Result<GatewayClient> {
        let subs = u16::try_from(subjects.len()).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{} subjects; a Hello counts at most {}",
                    subjects.len(),
                    u16::MAX
                ),
            )
        })?;
        wire::write_frame(
            &mut stream,
            &wire::encode_to_gateway(&ToGateway::Hello { subs, resume }),
        )?;
        for s in subjects {
            wire::write_frame(
                &mut stream,
                &wire::encode_to_gateway(&ToGateway::Subscribe { uid: s.uid() }),
            )?;
        }
        let frame = wire::read_frame(&mut stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no Welcome"))?;
        let (client, session) = match wire::decode_to_client(&frame) {
            Ok(ToClient::Welcome {
                client,
                session: Some(session),
                ..
            }) => (client, session),
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected a Welcome with a session, got {other:?}"),
                ))
            }
        };
        // A resumed session keeps its watermarks (the replay continues
        // the old count); any fresh session starts from zero.
        let wm = match resume {
            Some(req) if matches!(session.verdict, ResumeVerdict::Resumed | ResumeVerdict::Gap) => {
                req.wm
            }
            _ => ClassWatermarks::default(),
        };
        Ok(GatewayClient {
            stream,
            client,
            session,
            wm,
        })
    }

    /// Receive the next gateway → client message (`None` on clean EOF),
    /// keeping the delivery watermarks current: every data frame bumps
    /// its class, and a `Gap` notice accounts for frames the gateway
    /// reported it will never resend.
    pub fn recv(&mut self) -> io::Result<Option<ToClient>> {
        let Some(frame) = wire::read_frame(&mut self.stream)? else {
            return Ok(None);
        };
        let msg = wire::decode_to_client(&frame)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        match &msg {
            ToClient::Event(ev) => self.wm.bump(ev.class),
            ToClient::Batch { .. } | ToClient::Frag(_) => self.wm.bump(ChannelClass::Nrt),
            ToClient::Gap { class, count } => match class {
                ChannelClass::Hrt => self.wm.hrt += u64::from(*count),
                ChannelClass::Srt => self.wm.srt += u64::from(*count),
                ChannelClass::Nrt => self.wm.nrt += u64::from(*count),
            },
            _ => {}
        }
        Ok(Some(msg))
    }

    /// The per-class data-frame counts received so far.
    pub fn watermarks(&self) -> ClassWatermarks {
        self.wm
    }

    /// What a reconnect should present to resume this session — the
    /// token plus the current watermarks.
    pub fn resume_req(&self) -> ResumeReq {
        ResumeReq {
            token: self.session.token,
            wm: self.wm,
        }
    }

    /// Bound how long [`GatewayClient::recv`] blocks (`None` blocks
    /// forever). A timed-out read returns an error of kind
    /// `WouldBlock`/`TimedOut` — the reconnect loop's half-open
    /// detection.
    pub fn set_read_timeout(&self, dur: Option<StdDuration>) -> io::Result<()> {
        self.stream.set_read_timeout_opt(dur)
    }

    /// Leave cleanly. Sends `Bye` (checked, not fire-and-forget), then
    /// half-closes the write side — so the gateway's reader sees an
    /// explicit goodbye followed by a clean write-side EOF, never a
    /// race between the farewell and the teardown — and finally drains
    /// (bounded) whatever egress frames were still in flight until the
    /// gateway closes the stream.
    pub fn bye(mut self) -> io::Result<()> {
        wire::write_frame(&mut self.stream, &wire::encode_to_gateway(&ToGateway::Bye))?;
        self.stream.flush()?;
        self.stream.shutdown_write()?;
        self.stream.set_read_timeout_opt(Some(BYE_DRAIN_TIMEOUT))?;
        for _ in 0..BYE_DRAIN_FRAMES {
            match wire::read_frame(&mut self.stream) {
                Ok(Some(_)) => continue, // in-flight egress drains
                Ok(None) => return Ok(()),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // The gateway is slow closing; our side is done.
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_frame, Reason};

    /// A writer that accepts at most `caps[i]` bytes on its i-th call
    /// (0 = time out), unlimited once the script runs out; records
    /// every byte it accepted.
    struct Throttle {
        caps: Vec<usize>,
        call: usize,
        bytes: Vec<u8>,
    }

    impl Throttle {
        fn new(caps: &[usize]) -> Self {
            Throttle {
                caps: caps.to_vec(),
                call: 0,
                bytes: Vec::new(),
            }
        }
    }

    impl Write for Throttle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let cap = self.caps.get(self.call).copied().unwrap_or(usize::MAX);
            self.call += 1;
            if cap == 0 {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "throttled"));
            }
            let n = buf.len().min(cap);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn frames(bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut r = bytes;
        let mut out = Vec::new();
        while let Some(f) = read_frame(&mut r).unwrap() {
            out.push(f);
        }
        out
    }

    /// A timeout mid-frame must not desync the stream: the committed
    /// frame's tail goes out on the next offer, before the new frame,
    /// and no byte is ever sent twice.
    #[test]
    fn partial_write_resumes_without_duplicating_bytes() {
        let a = wire::encode_to_client(&ToClient::Disconnect {
            reason: Reason::Unknown(9),
        });
        let b = wire::encode_to_client(&ToClient::Welcome {
            client: 7,
            now_ns: 1,
            session: None,
        });
        // Two bytes of A's length prefix go out, then the timeout hits.
        let mut sink = StreamSink::new(Throttle::new(&[2, 0]));
        assert_eq!(sink.offer(&a), SinkStatus::Accepted);
        assert_eq!(sink.offer(&b), SinkStatus::Accepted);
        assert_eq!(frames(&sink.stream.bytes), vec![a, b]);
    }

    /// A timeout before any byte of the frame is attempted reports
    /// Busy, and the lane's verbatim retry produces exactly one frame.
    #[test]
    fn timeout_before_first_byte_is_busy_and_retry_safe() {
        let a = wire::encode_to_client(&ToClient::Disconnect {
            reason: Reason::Slow,
        });
        let mut sink = StreamSink::new(Throttle::new(&[0]));
        assert_eq!(sink.offer(&a), SinkStatus::Busy);
        assert_eq!(sink.offer(&a), SinkStatus::Accepted);
        assert_eq!(frames(&sink.stream.bytes), vec![a]);
    }

    /// While a committed frame's tail is still pending, further offers
    /// are Busy (retryable) — never interleaved into the stream.
    #[test]
    fn busy_while_committed_tail_is_pending() {
        let a = wire::encode_to_client(&ToClient::Disconnect {
            reason: Reason::Stale,
        });
        let b = wire::encode_to_client(&ToClient::Shed {
            class: rtec_core::ChannelClass::Srt,
            reason: Reason::Stale,
            count: 3,
        });
        // A is cut after 3 bytes; the next two write attempts block.
        let mut sink = StreamSink::new(Throttle::new(&[3, 0, 0]));
        assert_eq!(sink.offer(&a), SinkStatus::Accepted);
        assert_eq!(sink.offer(&b), SinkStatus::Busy);
        assert_eq!(sink.offer(&b), SinkStatus::Accepted);
        assert_eq!(frames(&sink.stream.bytes), vec![a, b]);
    }

    /// A hard error, or an impossible frame, reports the sink gone.
    #[test]
    fn dead_stream_and_oversized_frames_are_gone() {
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "dead"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let a = wire::encode_to_client(&ToClient::Disconnect {
            reason: Reason::Shutdown,
        });
        let mut sink = StreamSink::new(Dead);
        assert_eq!(sink.offer(&a), SinkStatus::Gone);
        let mut sink = StreamSink::new(Throttle::new(&[]));
        assert_eq!(
            sink.offer(&vec![0u8; wire::MAX_FRAME_LEN + 1]),
            SinkStatus::Gone
        );
    }

    /// A `Welcome` that opens no session is refused: every socket
    /// client has one to resume.
    #[cfg(unix)]
    #[test]
    fn a_welcome_without_a_session_is_refused() {
        let (ours, mut gateway_end) = UnixStream::pair().unwrap();
        let welcome = wire::encode_to_client(&ToClient::Welcome {
            client: 3,
            now_ns: 0,
            session: None,
        });
        wire::write_frame(&mut gateway_end, &welcome).unwrap();
        let err = GatewayClient::handshake(Box::new(ours), &[], None)
            .err()
            .expect("a session-less Welcome must not complete the handshake");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}
