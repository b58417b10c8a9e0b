//! In-memory spans recorded at the call boundaries into the crates,
//! written out as JSON when the workload ends.
//!
//! The tracer is only ever handed to a *traced* repetition; untraced
//! repetitions carry `None` and pay nothing. Spans from worker threads
//! (sampled publishes, deliveries, sink offers) go through the same
//! mutex — at the stated 1-in-N sampling that is a few hundred lock
//! acquisitions per repetition.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (0 = no parent).
pub type SpanId = u64;

/// Where a traced repetition records: the process tracer and the span
/// everything in the repetition hangs under.
#[derive(Clone, Copy)]
pub struct Probe {
    /// The process tracer.
    pub tracer: &'static Tracer,
    /// The enclosing span.
    pub parent: SpanId,
}

/// One recorded span.
pub struct Span {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// `(subject, sequence)` of the event the span belongs to, shared
    /// by every span of that event's journey.
    event: Option<(u64, u32)>,
}

/// The span store of one workload process.
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .push(span);
    }

    /// Record a finished span and return its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
        event: Option<(u64, u32)>,
    ) -> SpanId {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            event,
        });
        id
    }

    /// Reserve an id for a span whose children are recorded before it
    /// ends; finish it with [`Tracer::close`].
    pub fn open(&self) -> (SpanId, u64) {
        (self.next.fetch_add(1, Ordering::Relaxed), self.now_ns())
    }

    /// Record the span reserved by [`Tracer::open`], ending now.
    pub fn close(&self, name: &'static str, parent: SpanId, opened: (SpanId, u64)) {
        self.push(Span {
            id: opened.0,
            parent,
            name,
            start_ns: opened.1,
            end_ns: self.now_ns(),
            event: None,
        });
    }

    /// Time `f` as a child span of `parent`.
    pub fn span<T>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> T) -> T {
        let opened = self.open();
        let out = f(opened.0);
        self.close(name, parent, opened);
        out
    }

    /// All spans as a JSON array, in start order.
    pub fn to_json(&self) -> String {
        let mut spans = self
            .spans
            .lock()
            .expect("no span recorder panics while holding the lock");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let event = match s.event {
                Some((subject, seq)) => format!(", \"subject\": {subject}, \"sequence\": {seq}"),
                None => String::new(),
            };
            out.push_str(&format!(
                "  {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}{}}}{}\n",
                s.id,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns,
                event,
                if i + 1 < spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}
