//! Lightweight structured tracing.
//!
//! Simulation components emit trace records into a shared [`TraceSink`].
//! Tracing is off by default (a disabled sink drops events without
//! allocating), so hot simulation loops pay one branch when tracing is
//! disabled. Tests assert on recorded traces; the experiment harness
//! prints them with `--trace`.
//!
//! The recording path is allocation-free in the steady state:
//!
//! * `source` strings are interned once to a [`SourceId`] handle
//!   ([`TraceSink::intern`]); hot emitters cache the handle and pass a
//!   `u32` instead of formatting a `String` per event.
//! * key/value fields are stored in an inline small-vector
//!   ([`INLINE_FIELDS`] pairs on the stack; larger payloads spill to the
//!   heap) — [`TraceSink::emit_fields`] copies from a borrowed slice.
//! * records live in a ring buffer. The default enabled sink is
//!   unbounded (audits need the complete trace); a bounded sink
//!   ([`TraceSink::enabled_with_capacity`]) recycles the oldest record
//!   once warm and counts what it dropped ([`TraceSink::dropped`]).
//!
//! Queries are a **view layer**: [`TraceSink::events`] materializes
//! plain [`TraceEvent`]s (owned `String` source, `Vec` fields) from the
//! compact records, so auditors and tests keep the same API they had
//! when the sink stored `TraceEvent`s directly.

use crate::time::Time;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// Interned `source` string handle, valid for the sink that issued it
/// (and its clones — they share the intern table).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SourceId(u32);

/// Key/value pairs stored inline per record before spilling to the heap.
pub const INLINE_FIELDS: usize = 6;

/// Inline small-vector of trace fields.
#[derive(Clone, Debug)]
enum FieldBuf {
    Inline {
        len: u8,
        buf: [(&'static str, u64); INLINE_FIELDS],
    },
    Spill(Vec<(&'static str, u64)>),
}

impl FieldBuf {
    fn from_slice(fields: &[(&'static str, u64)]) -> Self {
        if fields.len() <= INLINE_FIELDS {
            let mut buf = [("", 0u64); INLINE_FIELDS];
            buf[..fields.len()].copy_from_slice(fields);
            FieldBuf::Inline {
                len: fields.len() as u8,
                buf,
            }
        } else {
            FieldBuf::Spill(fields.to_vec())
        }
    }

    fn from_vec(fields: Vec<(&'static str, u64)>) -> Self {
        if fields.len() <= INLINE_FIELDS {
            FieldBuf::from_slice(&fields)
        } else {
            FieldBuf::Spill(fields)
        }
    }

    fn as_slice(&self) -> &[(&'static str, u64)] {
        match self {
            FieldBuf::Inline { len, buf } => &buf[..*len as usize],
            FieldBuf::Spill(v) => v,
        }
    }
}

/// Compact in-ring record. `detail` is boxed out-of-line because the
/// hot emitters don't produce one.
#[derive(Debug)]
struct Rec {
    time: Time,
    source: SourceId,
    kind: &'static str,
    detail: Option<Box<str>>,
    fields: FieldBuf,
}

/// One structured trace record, as seen by queries and tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated instant of the event.
    pub time: Time,
    /// Component that emitted it (e.g. `"bus"`, `"node3.srtec"`).
    pub source: String,
    /// Short machine-matchable kind tag (e.g. `"tx_start"`).
    pub kind: &'static str,
    /// Free-form detail for humans.
    pub detail: String,
    /// Machine-readable key/value payload for trace analyzers. Repeated
    /// keys are allowed (e.g. one `"cand"` entry per arbitration
    /// contender).
    pub fields: Vec<(&'static str, u64)>,
}

impl TraceEvent {
    /// First value recorded under `name`, if any.
    pub fn field(&self, name: &str) -> Option<u64> {
        self.fields
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
    }

    /// All values recorded under `name`, in emission order.
    pub fn fields_named(&self, name: &str) -> Vec<u64> {
        self.fields
            .iter()
            .filter(|(k, _)| *k == name)
            .map(|&(_, v)| v)
            .collect()
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {:<14} {:<16} {}",
            self.time, self.source, self.kind, self.detail
        )?;
        for (k, v) in &self.fields {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

#[derive(Debug)]
struct SinkInner {
    enabled: bool,
    capacity: usize,
    records: VecDeque<Rec>,
    dropped: u64,
    names: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, u32>,
}

impl Default for SinkInner {
    fn default() -> Self {
        SinkInner {
            enabled: false,
            capacity: usize::MAX,
            records: VecDeque::new(),
            dropped: 0,
            names: Vec::new(),
            ids: HashMap::new(),
        }
    }
}

impl SinkInner {
    fn intern(&mut self, name: &str) -> SourceId {
        if let Some(&id) = self.ids.get(name) {
            return SourceId(id);
        }
        let id = u32::try_from(self.names.len()).expect("intern table exhausted");
        let shared: Arc<str> = Arc::from(name);
        self.names.push(shared.clone());
        self.ids.insert(shared, id);
        SourceId(id)
    }

    fn push(&mut self, rec: Rec) {
        if self.records.len() >= self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(rec);
    }

    fn rebuild(&self, rec: &Rec) -> TraceEvent {
        TraceEvent {
            time: rec.time,
            source: self
                .names
                .get(rec.source.0 as usize)
                .map(|s| s.to_string())
                .unwrap_or_default(),
            kind: rec.kind,
            detail: rec.detail.as_deref().unwrap_or("").to_string(),
            fields: rec.fields.as_slice().to_vec(),
        }
    }
}

/// A cheaply-cloneable handle to a shared trace buffer.
///
/// Cloning shares the underlying buffer (single-threaded simulations use
/// `Rc`; the engine itself is single-threaded by design — parallelism in
/// experiments comes from running independent simulations on worker
/// threads).
#[derive(Clone, Debug, Default)]
pub struct TraceSink {
    inner: Rc<RefCell<SinkInner>>,
}

impl TraceSink {
    /// A disabled sink: events are dropped.
    pub fn disabled() -> Self {
        TraceSink::default()
    }

    /// An enabled sink that records every event (unbounded — complete
    /// traces are what the conformance auditor consumes).
    pub fn enabled() -> Self {
        let sink = TraceSink::default();
        sink.inner.borrow_mut().enabled = true;
        sink
    }

    /// An enabled sink bounded to the most recent `capacity` records.
    /// Once warm, recording recycles the oldest slot instead of
    /// allocating; [`TraceSink::dropped`] counts evictions.
    pub fn enabled_with_capacity(capacity: usize) -> Self {
        let sink = TraceSink::default();
        {
            let mut inner = sink.inner.borrow_mut();
            inner.enabled = true;
            inner.capacity = capacity.max(1);
            let reserve = inner.capacity.min(1 << 20);
            inner.records.reserve_exact(reserve);
        }
        sink
    }

    /// Whether events are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.borrow().enabled
    }

    /// Enable or disable recording.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.borrow_mut().enabled = enabled;
    }

    /// Intern a source name, returning a handle that can be emitted with
    /// repeatedly without per-event string work. Interning the same name
    /// twice returns the same handle. Handles are only meaningful on the
    /// sink (or clones of the sink) that issued them.
    pub fn intern(&self, name: &str) -> SourceId {
        self.inner.borrow_mut().intern(name)
    }

    /// Emit a record from the hot path: interned source, borrowed field
    /// slice, no detail string. Allocation-free while the fields fit
    /// inline (≤ [`INLINE_FIELDS`]) and the ring is warm.
    #[inline]
    pub fn emit_fields(
        &self,
        time: Time,
        source: SourceId,
        kind: &'static str,
        fields: &[(&'static str, u64)],
    ) {
        let mut inner = self.inner.borrow_mut();
        if inner.enabled {
            inner.push(Rec {
                time,
                source,
                kind,
                detail: None,
                fields: FieldBuf::from_slice(fields),
            });
        }
    }

    /// Emit an event (dropped when disabled). Convenience path: interns
    /// `source` on every call — cache a [`SourceId`] and use
    /// [`TraceSink::emit_fields`] in hot loops.
    pub fn emit(&self, time: Time, source: &str, kind: &'static str, detail: impl Into<String>) {
        self.emit_kv(time, source, kind, detail, Vec::new());
    }

    /// Emit an event carrying machine-readable key/value fields
    /// (dropped when disabled).
    pub fn emit_kv(
        &self,
        time: Time,
        source: &str,
        kind: &'static str,
        detail: impl Into<String>,
        fields: Vec<(&'static str, u64)>,
    ) {
        let mut inner = self.inner.borrow_mut();
        if inner.enabled {
            let source = inner.intern(source);
            let detail = detail.into();
            inner.push(Rec {
                time,
                source,
                kind,
                detail: if detail.is_empty() {
                    None
                } else {
                    Some(detail.into_boxed_str())
                },
                fields: FieldBuf::from_vec(fields),
            });
        }
    }

    /// Number of recorded events currently in the buffer.
    pub fn len(&self) -> usize {
        self.inner.borrow().records.len()
    }

    /// `true` when no events are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records evicted from a bounded sink since creation.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Snapshot of all recorded events (oldest first).
    pub fn events(&self) -> Vec<TraceEvent> {
        let inner = self.inner.borrow();
        inner.records.iter().map(|r| inner.rebuild(r)).collect()
    }

    /// Snapshot of events matching a kind tag.
    pub fn events_of_kind(&self, kind: &str) -> Vec<TraceEvent> {
        let inner = self.inner.borrow();
        inner
            .records
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| inner.rebuild(r))
            .collect()
    }

    /// Drop all recorded events (the intern table survives, so cached
    /// [`SourceId`]s stay valid).
    pub fn clear(&self) {
        self.inner.borrow_mut().records.clear();
    }
}

/// A thread-safe sibling of [`TraceSink`] for multi-threaded runtimes
/// (e.g. `rtec-live`, where node threads and the bus broker all emit
/// into one buffer).
///
/// Shares the exact record/intern machinery with the single-threaded
/// sink — same [`SourceId`] interning, same inline field buffer, same
/// [`TraceEvent`] view — behind an `Arc<Mutex<_>>` instead of
/// `Rc<RefCell<_>>`. Emission order across threads is whatever order
/// the emitters take the lock in; deterministic runtimes (lock-step
/// broker) therefore produce deterministic traces.
#[derive(Clone, Debug, Default)]
pub struct SharedTraceSink {
    inner: Arc<Mutex<SinkInner>>,
}

impl SharedTraceSink {
    /// A disabled sink: events are dropped.
    pub fn disabled() -> Self {
        SharedTraceSink::default()
    }

    /// An enabled sink that records every event (unbounded).
    pub fn enabled() -> Self {
        let sink = SharedTraceSink::default();
        sink.lock().enabled = true;
        sink
    }

    /// An enabled sink bounded to the most recent `capacity` records.
    pub fn enabled_with_capacity(capacity: usize) -> Self {
        let sink = SharedTraceSink::default();
        {
            let mut inner = sink.lock();
            inner.enabled = true;
            inner.capacity = capacity.max(1);
            let reserve = inner.capacity.min(1 << 20);
            inner.records.reserve_exact(reserve);
        }
        sink
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SinkInner> {
        // A panicking emitter cannot leave records half-written (pushes
        // are single calls), so recover from poisoning.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether events are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.lock().enabled
    }

    /// Enable or disable recording.
    pub fn set_enabled(&self, enabled: bool) {
        self.lock().enabled = enabled;
    }

    /// Intern a source name; see [`TraceSink::intern`].
    pub fn intern(&self, name: &str) -> SourceId {
        self.lock().intern(name)
    }

    /// Emit a record from the hot path: interned source, borrowed field
    /// slice, no detail string.
    #[inline]
    pub fn emit_fields(
        &self,
        time: Time,
        source: SourceId,
        kind: &'static str,
        fields: &[(&'static str, u64)],
    ) {
        let mut inner = self.lock();
        if inner.enabled {
            inner.push(Rec {
                time,
                source,
                kind,
                detail: None,
                fields: FieldBuf::from_slice(fields),
            });
        }
    }

    /// Emit an event carrying machine-readable key/value fields
    /// (dropped when disabled).
    pub fn emit_kv(
        &self,
        time: Time,
        source: &str,
        kind: &'static str,
        detail: impl Into<String>,
        fields: Vec<(&'static str, u64)>,
    ) {
        let mut inner = self.lock();
        if inner.enabled {
            let source = inner.intern(source);
            let detail = detail.into();
            inner.push(Rec {
                time,
                source,
                kind,
                detail: if detail.is_empty() {
                    None
                } else {
                    Some(detail.into_boxed_str())
                },
                fields: FieldBuf::from_vec(fields),
            });
        }
    }

    /// Number of recorded events currently in the buffer.
    pub fn len(&self) -> usize {
        self.lock().records.len()
    }

    /// `true` when no events are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records evicted from a bounded sink since creation.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Snapshot of all recorded events (oldest first).
    pub fn events(&self) -> Vec<TraceEvent> {
        let inner = self.lock();
        inner.records.iter().map(|r| inner.rebuild(r)).collect()
    }

    /// Snapshot of events matching a kind tag.
    pub fn events_of_kind(&self, kind: &str) -> Vec<TraceEvent> {
        let inner = self.lock();
        inner
            .records
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| inner.rebuild(r))
            .collect()
    }

    /// Drop all recorded events (the intern table survives).
    pub fn clear(&self) {
        self.lock().records.clear();
    }
}

/// What a hot-path emitter needs of a trace sink, so one component
/// (the CAN bus model) can trace into the single-threaded simulator's
/// [`TraceSink`] or the live runtime's [`SharedTraceSink`] alike.
pub trait Emit {
    /// Whether events are currently recorded.
    fn is_enabled(&self) -> bool;
    /// Intern a source name; see [`TraceSink::intern`].
    fn intern(&self, name: &str) -> SourceId;
    /// Emit a record; see [`TraceSink::emit_fields`].
    fn emit_fields(&self, time: Time, source: SourceId, kind: &'static str, fields: Fields<'_>);
}

/// Borrowed key/value payload of one record.
pub type Fields<'a> = &'a [(&'static str, u64)];

impl Emit for TraceSink {
    fn is_enabled(&self) -> bool {
        TraceSink::is_enabled(self)
    }
    fn intern(&self, name: &str) -> SourceId {
        TraceSink::intern(self, name)
    }
    #[inline]
    fn emit_fields(&self, time: Time, source: SourceId, kind: &'static str, fields: Fields<'_>) {
        TraceSink::emit_fields(self, time, source, kind, fields)
    }
}

impl Emit for SharedTraceSink {
    fn is_enabled(&self) -> bool {
        SharedTraceSink::is_enabled(self)
    }
    fn intern(&self, name: &str) -> SourceId {
        SharedTraceSink::intern(self, name)
    }
    #[inline]
    fn emit_fields(&self, time: Time, source: SourceId, kind: &'static str, fields: Fields<'_>) {
        SharedTraceSink::emit_fields(self, time, source, kind, fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_drops_events() {
        let sink = TraceSink::disabled();
        sink.emit(Time::ZERO, "bus", "tx_start", "id=0x10");
        assert!(sink.is_empty());
        assert!(!sink.is_enabled());
    }

    #[test]
    fn enabled_sink_records_in_order() {
        let sink = TraceSink::enabled();
        sink.emit(Time::from_us(1), "bus", "tx_start", "a");
        sink.emit(Time::from_us(2), "bus", "tx_end", "b");
        let evs = sink.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, "tx_start");
        assert_eq!(evs[1].time, Time::from_us(2));
    }

    #[test]
    fn clones_share_the_buffer() {
        let sink = TraceSink::enabled();
        let clone = sink.clone();
        clone.emit(Time::ZERO, "node0", "publish", "x");
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn kind_filter() {
        let sink = TraceSink::enabled();
        sink.emit(Time::ZERO, "a", "x", "");
        sink.emit(Time::ZERO, "b", "y", "");
        sink.emit(Time::ZERO, "c", "x", "");
        assert_eq!(sink.events_of_kind("x").len(), 2);
        assert_eq!(sink.events_of_kind("z").len(), 0);
    }

    #[test]
    fn toggle_and_clear() {
        let sink = TraceSink::disabled();
        sink.set_enabled(true);
        sink.emit(Time::ZERO, "a", "x", "");
        assert_eq!(sink.len(), 1);
        sink.clear();
        assert!(sink.is_empty());
        sink.set_enabled(false);
        sink.emit(Time::ZERO, "a", "x", "");
        assert!(sink.is_empty());
    }

    #[test]
    fn display_format_contains_fields() {
        let ev = TraceEvent {
            time: Time::from_us(5),
            source: "node1.hrtec".into(),
            kind: "slot_start",
            detail: "slot=3".into(),
            fields: vec![("etag", 7)],
        };
        let s = format!("{ev}");
        assert!(s.contains("node1.hrtec"));
        assert!(s.contains("slot_start"));
        assert!(s.contains("slot=3"));
        assert!(s.contains("etag=7"));
    }

    #[test]
    fn kv_fields_round_trip() {
        let sink = TraceSink::enabled();
        sink.emit_kv(
            Time::from_us(1),
            "bus",
            "arb",
            "",
            vec![("cand", 10), ("cand", 20), ("win", 10)],
        );
        let ev = &sink.events()[0];
        assert_eq!(ev.field("win"), Some(10));
        assert_eq!(ev.field("absent"), None);
        assert_eq!(ev.fields_named("cand"), vec![10, 20]);
    }

    #[test]
    fn interning_is_stable_and_shared_across_clones() {
        let sink = TraceSink::enabled();
        let a = sink.intern("bus");
        let b = sink.clone().intern("bus");
        let c = sink.intern("node1.hrtec");
        assert_eq!(a, b);
        assert_ne!(a, c);
        sink.emit_fields(Time::ZERO, a, "tx_start", &[("id", 16)]);
        sink.emit(Time::ZERO, "bus", "tx_end", "");
        let evs = sink.events();
        assert_eq!(evs[0].source, "bus");
        assert_eq!(evs[1].source, "bus");
        assert_eq!(evs[0].field("id"), Some(16));
    }

    #[test]
    fn emit_fields_matches_emit_kv_view() {
        let sink = TraceSink::enabled();
        let src = sink.intern("bus");
        sink.emit_fields(Time::from_us(3), src, "arb", &[("cand", 1), ("win", 1)]);
        sink.emit_kv(
            Time::from_us(3),
            "bus",
            "arb",
            "",
            vec![("cand", 1), ("win", 1)],
        );
        let evs = sink.events();
        assert_eq!(evs[0], evs[1]);
    }

    #[test]
    fn oversized_field_lists_spill_but_round_trip() {
        let sink = TraceSink::enabled();
        let src = sink.intern("bus");
        let fields: Vec<(&'static str, u64)> =
            (0..INLINE_FIELDS as u64 + 4).map(|i| ("cand", i)).collect();
        sink.emit_fields(Time::ZERO, src, "arb", &fields);
        let ev = &sink.events()[0];
        assert_eq!(ev.fields, fields);
        assert_eq!(
            ev.fields_named("cand").len(),
            INLINE_FIELDS + 4,
            "all spilled fields visible through the view"
        );
    }

    #[test]
    fn bounded_sink_keeps_most_recent_and_counts_drops() {
        let sink = TraceSink::enabled_with_capacity(3);
        for i in 0..10u64 {
            sink.emit_kv(Time::from_ns(i), "src", "tick", "", vec![("i", i)]);
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 7);
        let kept: Vec<u64> = sink.events().iter().filter_map(|e| e.field("i")).collect();
        assert_eq!(kept, vec![7, 8, 9]);
    }

    #[test]
    fn shared_sink_matches_local_sink_view() {
        let shared = SharedTraceSink::enabled();
        let local = TraceSink::enabled();
        let s1 = shared.intern("bus");
        let s2 = local.intern("bus");
        shared.emit_fields(Time::from_us(3), s1, "arb", &[("cand", 1), ("win", 1)]);
        local.emit_fields(Time::from_us(3), s2, "arb", &[("cand", 1), ("win", 1)]);
        shared.emit_kv(Time::from_us(4), "node0", "tx_start", "d", vec![("id", 9)]);
        local.emit_kv(Time::from_us(4), "node0", "tx_start", "d", vec![("id", 9)]);
        assert_eq!(shared.events(), local.events());
        assert_eq!(shared.events_of_kind("arb").len(), 1);
    }

    #[test]
    fn shared_sink_is_usable_across_threads() {
        let sink = SharedTraceSink::enabled();
        let src = sink.intern("worker");
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let sink = sink.clone();
                std::thread::spawn(move || {
                    sink.emit_fields(Time::from_ns(i), src, "tick", &[("i", i)]);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sink.len(), 4);
        assert!(sink.events().iter().all(|e| e.source == "worker"));
    }

    #[test]
    fn shared_sink_bounded_and_disabled_behaviour() {
        let off = SharedTraceSink::disabled();
        off.emit_kv(Time::ZERO, "a", "x", "", vec![]);
        assert!(off.is_empty());
        let bounded = SharedTraceSink::enabled_with_capacity(2);
        for i in 0..5u64 {
            bounded.emit_kv(Time::from_ns(i), "a", "x", "", vec![("i", i)]);
        }
        assert_eq!(bounded.len(), 2);
        assert_eq!(bounded.dropped(), 3);
        bounded.clear();
        assert!(bounded.is_empty());
    }

    #[test]
    fn foreign_source_id_renders_empty_not_panic() {
        let sink = TraceSink::enabled();
        // A handle from an unrelated sink: out of range here.
        let foreign = TraceSink::enabled().intern("other");
        let _local = sink.intern("local");
        let foreign_far = SourceId(1234);
        sink.emit_fields(Time::ZERO, foreign, "x", &[]);
        sink.emit_fields(Time::ZERO, foreign_far, "x", &[]);
        let evs = sink.events();
        assert_eq!(evs[0].source, "local"); // id 0 happens to exist here
        assert_eq!(evs[1].source, "");
    }
}
