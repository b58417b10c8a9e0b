//! Lightweight structured tracing.
//!
//! Every host — the simulator, the live broker and its node threads,
//! the gateway's fanout workers — emits trace records into one
//! [`TraceSink`] type. Tracing is off by default: a disabled sink holds
//! no buffer, so an emitter pays one branch and no lock. An enabled
//! sink is a cheaply cloneable handle to one shared ring behind a
//! mutex; clones may move to other threads, and each record takes one
//! (normally uncontended) lock. Emission order across threads is the
//! order the emitters take that lock in, so a deterministic runtime
//! (the lock-step broker) produces a deterministic trace. Tests assert
//! on recorded traces; the experiment harness prints them with
//! `--trace`.
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
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

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

    fn as_slice(&self) -> &[(&'static str, u64)] {
        match self {
            FieldBuf::Inline { len, buf } => &buf[..*len as usize],
            FieldBuf::Spill(v) => v,
        }
    }
}

/// Compact in-ring record.
#[derive(Debug)]
struct Rec {
    time: Time,
    source: SourceId,
    kind: &'static str,
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
        write!(f, "[{}] {:<14} {:<16} ", self.time, self.source, self.kind)?;
        for (k, v) in &self.fields {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// The records and intern table behind an enabled sink.
#[derive(Debug)]
struct Ring {
    capacity: usize,
    records: VecDeque<Rec>,
    dropped: u64,
    names: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, u32>,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            capacity,
            records: VecDeque::new(),
            dropped: 0,
            names: Vec::new(),
            ids: HashMap::new(),
        }
    }

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
            fields: rec.fields.as_slice().to_vec(),
        }
    }
}

/// A cheaply cloneable handle to a shared trace buffer, `Send + Sync`.
///
/// Cloning shares the underlying buffer. A disabled sink (`None`, the
/// default) has no buffer at all and stays disabled; an enabled one
/// records until the last clone is dropped.
#[derive(Clone, Debug, Default)]
pub struct TraceSink {
    ring: Option<Arc<Mutex<Ring>>>,
}

/// Kept because `benchmark/src/workloads/gateway.rs` names it; it is
/// [`TraceSink`], which is thread-safe itself.
pub type SharedTraceSink = TraceSink;

impl TraceSink {
    /// A disabled sink: events are dropped.
    pub fn disabled() -> Self {
        TraceSink::default()
    }

    /// An enabled sink that records every event (unbounded — complete
    /// traces are what the conformance auditor consumes).
    pub fn enabled() -> Self {
        TraceSink {
            ring: Some(Arc::new(Mutex::new(Ring::new(usize::MAX)))),
        }
    }

    /// An enabled sink bounded to the most recent `capacity` records.
    /// Once warm, recording recycles the oldest slot instead of
    /// allocating; [`TraceSink::dropped`] counts evictions.
    pub fn enabled_with_capacity(capacity: usize) -> Self {
        let mut ring = Ring::new(capacity.max(1));
        ring.records.reserve_exact(ring.capacity.min(1 << 20));
        TraceSink {
            ring: Some(Arc::new(Mutex::new(ring))),
        }
    }

    /// The ring, locked; `None` for a disabled sink. Inlined so a
    /// disabled sink costs its callers one branch, not a call.
    #[inline]
    fn lock(&self) -> Option<MutexGuard<'_, Ring>> {
        // A panicking emitter cannot leave records half-written (pushes
        // are single calls), so recover from poisoning.
        self.ring
            .as_ref()
            .map(|ring| ring.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Whether events are recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Intern a source name, returning a handle that can be emitted with
    /// repeatedly without per-event string work. Interning the same name
    /// twice returns the same handle. Handles are only meaningful on the
    /// sink (or clones of the sink) that issued them; a disabled sink
    /// hands out one placeholder for every name.
    pub fn intern(&self, name: &str) -> SourceId {
        self.lock()
            .map_or(SourceId(0), |mut ring| ring.intern(name))
    }

    /// Emit a record: interned source, borrowed field slice (dropped
    /// when disabled). Allocation-free while the fields fit inline
    /// (≤ [`INLINE_FIELDS`]) and the ring is warm.
    #[inline]
    pub fn emit_fields(
        &self,
        time: Time,
        source: SourceId,
        kind: &'static str,
        fields: &[(&'static str, u64)],
    ) {
        if let Some(mut ring) = self.lock() {
            ring.push(Rec {
                time,
                source,
                kind,
                fields: FieldBuf::from_slice(fields),
            });
        }
    }

    /// Number of recorded events currently in the buffer.
    pub fn len(&self) -> usize {
        self.lock().map_or(0, |ring| ring.records.len())
    }

    /// `true` when no events are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records evicted from a bounded sink since creation.
    pub fn dropped(&self) -> u64 {
        self.lock().map_or(0, |ring| ring.dropped)
    }

    /// Snapshot of all recorded events (oldest first).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().map_or_else(Vec::new, |ring| {
            ring.records.iter().map(|r| ring.rebuild(r)).collect()
        })
    }

    /// Snapshot of events matching a kind tag.
    pub fn events_of_kind(&self, kind: &str) -> Vec<TraceEvent> {
        self.lock().map_or_else(Vec::new, |ring| {
            ring.records
                .iter()
                .filter(|r| r.kind == kind)
                .map(|r| ring.rebuild(r))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_drops_events() {
        let sink = TraceSink::disabled();
        let src = sink.intern("bus");
        sink.emit_fields(Time::ZERO, src, "tx_start", &[("id", 0x10)]);
        assert!(sink.is_empty());
        assert!(!sink.is_enabled());
        assert_eq!(sink.dropped(), 0);
        assert!(sink.events().is_empty());
    }

    #[test]
    fn enabled_sink_records_in_order() {
        let sink = TraceSink::enabled();
        let src = sink.intern("bus");
        sink.emit_fields(Time::from_us(1), src, "tx_start", &[]);
        sink.emit_fields(Time::from_us(2), src, "tx_end", &[]);
        let evs = sink.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, "tx_start");
        assert_eq!(evs[1].time, Time::from_us(2));
    }

    #[test]
    fn clones_share_the_buffer() {
        let sink = TraceSink::enabled();
        let clone = sink.clone();
        let src = clone.intern("node0");
        clone.emit_fields(Time::ZERO, src, "publish", &[]);
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn kind_filter() {
        let sink = TraceSink::enabled();
        for (name, kind) in [("a", "x"), ("b", "y"), ("c", "x")] {
            let src = sink.intern(name);
            sink.emit_fields(Time::ZERO, src, kind, &[]);
        }
        assert_eq!(sink.events_of_kind("x").len(), 2);
        assert_eq!(sink.events_of_kind("z").len(), 0);
    }

    #[test]
    fn display_format_contains_fields() {
        let ev = TraceEvent {
            time: Time::from_us(5),
            source: "node1.hrtec".into(),
            kind: "slot_start",
            fields: vec![("slot", 3), ("etag", 7)],
        };
        let s = format!("{ev}");
        assert!(s.contains("node1.hrtec"));
        assert!(s.contains("slot_start"));
        assert!(s.ends_with("  slot=3 etag=7"));
    }

    #[test]
    fn kv_fields_round_trip() {
        let sink = TraceSink::enabled();
        let src = sink.intern("bus");
        sink.emit_fields(
            Time::from_us(1),
            src,
            "arb",
            &[("cand", 10), ("cand", 20), ("win", 10)],
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
        sink.emit_fields(Time::ZERO, b, "tx_end", &[]);
        let evs = sink.events();
        assert_eq!(evs[0].source, "bus");
        assert_eq!(evs[1].source, "bus");
        assert_eq!(evs[0].field("id"), Some(16));
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
        for (capacity, emitted) in [(3u64, 10u64), (2, 5), (0, 2)] {
            let sink = TraceSink::enabled_with_capacity(capacity as usize);
            let src = sink.intern("src");
            for i in 0..emitted {
                sink.emit_fields(Time::from_ns(i), src, "tick", &[("i", i)]);
            }
            let kept = capacity.max(1);
            assert_eq!(sink.len() as u64, kept);
            assert_eq!(sink.dropped(), emitted - kept);
            let seen: Vec<u64> = sink.events().iter().filter_map(|e| e.field("i")).collect();
            assert_eq!(seen, (emitted - kept..emitted).collect::<Vec<_>>());
        }
    }

    #[test]
    fn shared_sink_bounded_and_disabled_behaviour() {
        let off = TraceSink::disabled();
        let off_src = off.clone().intern("a");
        off.clone().emit_fields(Time::ZERO, off_src, "x", &[]);
        assert!(off.is_empty());
        assert_eq!(off.dropped(), 0);
        let bounded = TraceSink::enabled_with_capacity(2);
        let writer = bounded.clone();
        let src = writer.intern("a");
        for i in 0..5u64 {
            writer.emit_fields(Time::from_ns(i), src, "x", &[("i", i)]);
        }
        assert_eq!(bounded.len(), 2);
        assert_eq!(bounded.dropped(), 3);
        let seen: Vec<u64> = bounded.events().iter().filter_map(|e| e.field("i")).collect();
        assert_eq!(seen, vec![3, 4]);
    }

    #[test]
    fn shared_sink_is_usable_across_threads() {
        let sink = TraceSink::enabled();
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
