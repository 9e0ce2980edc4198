//! Structured execution tracing: bounded per-thread event rings exported
//! as Chrome `trace_event` JSON.
//!
//! The campaign stack runs across worker threads *and* worker processes
//! (the shard supervisor), so "what happened when" is unanswerable from
//! logs alone. This module gives every layer a cheap way to record spans
//! (worker attempts, per-mutant executions, golden-prefix advances) and
//! instant events (restarts, bisections, quarantines, traps) onto a
//! timeline that Perfetto or `chrome://tracing` can display directly.
//!
//! Three design rules keep it out of the hot path:
//!
//! - **Per-thread rings, no locks.** A [`TraceRing`] is owned by exactly
//!   one thread and mutated through `&mut` — recording is a bounds check
//!   and a ring write, never a lock or an allocation beyond the event's
//!   own strings. The [`Tracer`] hands out rings and takes a mutex only
//!   when a finished ring is collected, mirroring the
//!   [`MetricsRegistry`](crate::MetricsRegistry) registration idiom.
//! - **Bounded memory.** Every ring has a fixed capacity; when full, the
//!   oldest event is dropped and counted, so a runaway producer degrades
//!   to a sliding window instead of an OOM.
//! - **Wall-clock-anchored monotonic timestamps.** Each event carries
//!   microseconds measured by a monotonic clock ([`Instant`]) anchored
//!   once to the Unix epoch at ring-family creation. Within a process
//!   timestamps never go backwards; across shard processes on one host
//!   they are comparable to NTP-level skew, which is what makes the
//!   supervisor's merged timeline coherent.
//!
//! Merging is deterministic: [`merge_events`] imposes a total order
//! (timestamp, pid, tid, then span-before-instant and longer-span-first
//! so nesting renders correctly), so merging the same chunks in any
//! order produces byte-identical output — asserted by the chaos suite
//! against shard trace chunks.
//!
//! The export format is the Chrome `trace_event` JSON array wrapped in
//! `{"traceEvents": [...]}`; [`from_chrome_json`] parses it back
//! through the crate's one JSON reader ([`json`](crate::json)), like the
//! snapshot and checkpoint formats.
//!
//! # Examples
//!
//! ```
//! use s4e_obs::{merge_events, to_chrome_json, from_chrome_json, Tracer};
//!
//! let tracer = Tracer::new(1024);
//! let mut ring = tracer.ring();
//! let start = ring.now_us();
//! ring.instant("restart", "supervisor", &[("shard", "3".to_string())]);
//! ring.span("worker", "supervisor", start, &[]);
//! tracer.collect(ring);
//!
//! let events = tracer.drain();
//! let json = to_chrome_json(&events);
//! let reparsed = from_chrome_json(&json).unwrap();
//! assert_eq!(merge_events(vec![reparsed]), events);
//! ```

use crate::json::{self, Json};
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// One recorded event: a complete span (`ph == 'X'`, with a duration) or
/// an instant (`ph == 'i'`). The field names mirror the Chrome
/// `trace_event` spelling so the export is a direct mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (the label Perfetto displays on the slice).
    pub name: String,
    /// Category (Perfetto groups and filters by it).
    pub cat: String,
    /// Phase: `'X'` for a complete span, `'i'` for an instant.
    pub ph: char,
    /// Start time in microseconds since the Unix epoch.
    pub ts_us: u64,
    /// Span duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Process lane (the OS pid, so shard workers get their own track).
    pub pid: u64,
    /// Thread lane within the process.
    pub tid: u64,
    /// Key/value annotations, kept sorted by key for determinism.
    pub args: Vec<(String, String)>,
}

impl TraceEvent {
    /// The total order used by [`merge_events`]: timestamp, then pid and
    /// tid (stable lanes), then spans before instants and longer spans
    /// first so enclosing spans precede their children at equal start
    /// times, then name and the remaining fields as a final tiebreak.
    fn merge_key(&self, other: &TraceEvent) -> Ordering {
        self.ts_us
            .cmp(&other.ts_us)
            .then(self.pid.cmp(&other.pid))
            .then(self.tid.cmp(&other.tid))
            .then(self.ph.cmp(&other.ph)) // 'X' < 'i': spans first
            .then(other.dur_us.cmp(&self.dur_us)) // longer span first
            .then(self.name.cmp(&other.name))
            .then(self.cat.cmp(&other.cat))
            .then(self.args.cmp(&other.args))
    }
}

/// The shared time base of one ring family: a monotonic clock anchored
/// to the Unix epoch once, at creation.
#[derive(Debug, Clone, Copy)]
struct TraceClock {
    origin: Instant,
    epoch_us: u64,
}

impl TraceClock {
    fn new() -> TraceClock {
        let epoch_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        TraceClock {
            origin: Instant::now(),
            epoch_us,
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch_us
            .saturating_add(self.origin.elapsed().as_micros() as u64)
    }
}

/// A bounded single-owner event ring. Recording never locks and never
/// reallocates the ring; when full, the oldest event is dropped and
/// counted in [`dropped`](TraceRing::dropped).
#[derive(Debug)]
pub struct TraceRing {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    clock: TraceClock,
    pid: u64,
    tid: u64,
}

impl TraceRing {
    /// A standalone ring (its own clock, the current process id, thread
    /// lane 0). Prefer [`Tracer::ring`] when several threads record into
    /// one timeline.
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing::with_lanes(
            capacity,
            TraceClock::new(),
            u64::from(std::process::id()),
            0,
        )
    }

    fn with_lanes(capacity: usize, clock: TraceClock, pid: u64, tid: u64) -> TraceRing {
        TraceRing {
            events: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            dropped: 0,
            clock,
            pid,
            tid,
        }
    }

    /// Current time on this ring's clock, in microseconds since the Unix
    /// epoch. Capture it before a unit of work, then close the span with
    /// [`span`](TraceRing::span).
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Records an instant event at the current time.
    pub fn instant(&mut self, name: &str, cat: &str, args: &[(&str, String)]) {
        let ts = self.now_us();
        self.push_event('i', name, cat, ts, 0, args);
    }

    /// Records a complete span from `start_us` (a prior
    /// [`now_us`](TraceRing::now_us)) to the current time.
    pub fn span(&mut self, name: &str, cat: &str, start_us: u64, args: &[(&str, String)]) {
        let end = self.now_us();
        self.push_event('X', name, cat, start_us, end.saturating_sub(start_us), args);
    }

    /// Records a complete span with explicit bounds (timestamps imported
    /// from another clock, e.g. a flight-recorder tail).
    pub fn span_at(
        &mut self,
        name: &str,
        cat: &str,
        start_us: u64,
        end_us: u64,
        args: &[(&str, String)],
    ) {
        self.push_event(
            'X',
            name,
            cat,
            start_us,
            end_us.saturating_sub(start_us),
            args,
        );
    }

    /// Records an instant event at an explicit timestamp.
    pub fn instant_at(&mut self, name: &str, cat: &str, ts_us: u64, args: &[(&str, String)]) {
        self.push_event('i', name, cat, ts_us, 0, args);
    }

    fn push_event(
        &mut self,
        ph: char,
        name: &str,
        cat: &str,
        ts_us: u64,
        dur_us: u64,
        args: &[(&str, String)],
    ) {
        let mut args: Vec<(String, String)> = args
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect();
        args.sort();
        self.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph,
            ts_us,
            dur_us,
            pid: self.pid,
            tid: self.tid,
            args,
        });
    }

    /// Appends a pre-built event, evicting the oldest when full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Takes the buffered events, oldest first, leaving the ring empty
    /// (the drop count is kept).
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        self.events.drain(..).collect()
    }
}

/// The per-timeline ring factory and collection point. Worker threads
/// each take a [`TraceRing`] (its own tid lane, the shared clock),
/// record without synchronization, and hand the ring back when done;
/// the mutex is touched only at those two edges.
#[derive(Debug)]
pub struct Tracer {
    clock: TraceClock,
    pid: u64,
    capacity: usize,
    next_tid: AtomicU64,
    dropped: AtomicU64,
    collected: Mutex<Vec<TraceEvent>>,
}

impl Tracer {
    /// A tracer whose rings each buffer up to `capacity` events.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            clock: TraceClock::new(),
            pid: u64::from(std::process::id()),
            capacity: capacity.max(1),
            next_tid: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            collected: Mutex::new(Vec::new()),
        }
    }

    /// A fresh ring on the shared clock, with the next free thread lane.
    pub fn ring(&self) -> TraceRing {
        let tid = self.next_tid.fetch_add(1, AtomicOrdering::Relaxed);
        TraceRing::with_lanes(self.capacity, self.clock, self.pid, tid)
    }

    /// Current time on the tracer's clock (for spans recorded at
    /// collection time rather than on a worker ring).
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Absorbs a finished ring's events into the timeline.
    pub fn collect(&self, mut ring: TraceRing) {
        self.dropped
            .fetch_add(ring.dropped(), AtomicOrdering::Relaxed);
        let events = ring.drain();
        let mut collected = self.collected.lock().unwrap_or_else(|p| p.into_inner());
        collected.extend(events);
    }

    /// Total events evicted across all collected rings.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(AtomicOrdering::Relaxed)
    }

    /// Takes every collected event in the deterministic merged order.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut collected = self.collected.lock().unwrap_or_else(|p| p.into_inner());
        let events = std::mem::take(&mut *collected);
        merge_events(vec![events])
    }
}

/// Merges event chunks (per-thread rings, per-shard trace files) into
/// one timeline under a total order, so the result is identical no
/// matter how the chunks are grouped or ordered.
pub fn merge_events(chunks: Vec<Vec<TraceEvent>>) -> Vec<TraceEvent> {
    let mut all: Vec<TraceEvent> = chunks.into_iter().flatten().collect();
    all.sort_by(TraceEvent::merge_key);
    all
}

/// Serializes events as a Chrome `trace_event` document:
/// `{"displayTimeUnit":"ms","traceEvents":[...]}` with `ts`/`dur` in
/// microseconds — loadable directly in Perfetto or `chrome://tracing`.
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(128 * events.len().max(1));
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},",
            json::escape(&ev.name),
            json::escape(&ev.cat),
            ev.ph,
            ev.ts_us,
        );
        if ev.ph == 'X' {
            let _ = write!(out, "\"dur\":{},", ev.dur_us);
        }
        let _ = write!(out, "\"pid\":{},\"tid\":{},\"args\":{{", ev.pid, ev.tid);
        for (j, (k, v)) in ev.args.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", json::escape(k), json::escape(v));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// A trace-document parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    message: String,
}

impl TraceParseError {
    fn new(message: impl Into<String>) -> TraceParseError {
        TraceParseError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace parse error: {}", self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// Parses a [`to_chrome_json`] document back into events. Accepts both
/// the object wrapper and a bare event array (the other spelling Chrome
/// tools accept).
///
/// # Errors
///
/// Returns [`TraceParseError`] on malformed JSON or events missing
/// required fields.
pub fn from_chrome_json(text: &str) -> Result<Vec<TraceEvent>, TraceParseError> {
    let doc = json::parse(text).ok_or_else(|| TraceParseError::new("invalid JSON"))?;
    let raw = match &doc {
        Json::Arr(items) => items,
        Json::Obj(obj) => obj
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or_else(|| TraceParseError::new("no traceEvents array"))?,
        _ => return Err(TraceParseError::new("top level is not an object or array")),
    };
    let mut events = Vec::with_capacity(raw.len());
    for (i, item) in raw.iter().enumerate() {
        let obj = item
            .as_obj()
            .ok_or_else(|| TraceParseError::new(format!("event {i} is not an object")))?;
        let field = |key: &str| {
            obj.get(key)
                .ok_or_else(|| TraceParseError::new(format!("event {i} is missing `{key}`")))
        };
        let ph_str = field("ph")?
            .as_str()
            .ok_or_else(|| TraceParseError::new(format!("event {i} `ph` is not a string")))?;
        let ph = ph_str
            .chars()
            .next()
            .filter(|_| ph_str.chars().count() == 1)
            .ok_or_else(|| TraceParseError::new(format!("event {i} `ph` is not one character")))?;
        let num = |key: &str| {
            field(key)?.as_num().ok_or_else(|| {
                TraceParseError::new(format!("event {i} `{key}` is not an unsigned integer"))
            })
        };
        let str_field = |key: &str| {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| TraceParseError::new(format!("event {i} `{key}` is not a string")))
        };
        let mut args = Vec::new();
        if let Some(raw_args) = obj.get("args") {
            let map = raw_args
                .as_obj()
                .ok_or_else(|| TraceParseError::new(format!("event {i} args is not an object")))?;
            for (k, v) in map {
                let v = v.as_str().ok_or_else(|| {
                    TraceParseError::new(format!("event {i} arg `{k}` is not a string"))
                })?;
                args.push((k.clone(), v.to_string()));
            }
        }
        args.sort();
        events.push(TraceEvent {
            name: str_field("name")?,
            cat: str_field("cat").unwrap_or_default(),
            ph,
            ts_us: num("ts")?,
            dur_us: if ph == 'X' { num("dur")? } else { 0 },
            pid: num("pid")?,
            tid: num("tid")?,
            args,
        });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &str, ts: u64, pid: u64, tid: u64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat: "test".to_string(),
            ph: 'i',
            ts_us: ts,
            dur_us: 0,
            pid,
            tid,
            args: Vec::new(),
        }
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut ring = TraceRing::new(3);
        for i in 0..5 {
            ring.push(event(&format!("e{i}"), i, 1, 0));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let names: Vec<String> = ring.drain().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["e2", "e3", "e4"]);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 2, "drain keeps the drop count");
    }

    #[test]
    fn timestamps_are_monotonic() {
        let mut ring = TraceRing::new(16);
        let a = ring.now_us();
        let b = ring.now_us();
        assert!(b >= a);
        ring.instant("first", "t", &[]);
        ring.instant("second", "t", &[]);
        let events = ring.drain();
        assert!(events[1].ts_us >= events[0].ts_us);
        // Anchored to the epoch: any recent date is > 2020-01-01 in µs.
        assert!(events[0].ts_us > 1_577_836_800_000_000);
    }

    #[test]
    fn spans_cover_their_work() {
        let tracer = Tracer::new(16);
        let mut ring = tracer.ring();
        let start = ring.now_us();
        std::thread::sleep(std::time::Duration::from_millis(2));
        ring.span("work", "test", start, &[("k", "v".to_string())]);
        let events = ring.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].ph, 'X');
        assert_eq!(events[0].ts_us, start);
        assert!(events[0].dur_us >= 1_000, "2ms sleep spans >= 1ms");
        assert_eq!(events[0].args, [("k".to_string(), "v".to_string())]);
    }

    #[test]
    fn tracer_rings_share_clock_and_get_distinct_lanes() {
        let tracer = Tracer::new(8);
        let mut a = tracer.ring();
        let mut b = tracer.ring();
        a.instant("a", "t", &[]);
        b.instant("b", "t", &[]);
        tracer.collect(a);
        tracer.collect(b);
        let events = tracer.drain();
        assert_eq!(events.len(), 2);
        assert_ne!(events[0].tid, events[1].tid);
        assert_eq!(events[0].pid, events[1].pid);
        assert!(tracer.drain().is_empty(), "drain empties the timeline");
    }

    #[test]
    fn merge_is_deterministic_across_chunk_orders() {
        let chunk_a = vec![event("a1", 10, 1, 0), event("a2", 30, 1, 0)];
        let chunk_b = vec![event("b1", 10, 2, 0), event("b2", 20, 2, 1)];
        let chunk_c = vec![event("c1", 10, 1, 1)];
        let ab = merge_events(vec![chunk_a.clone(), chunk_b.clone(), chunk_c.clone()]);
        let ba = merge_events(vec![chunk_c, chunk_b, chunk_a]);
        assert_eq!(ab, ba);
        assert_eq!(to_chrome_json(&ab), to_chrome_json(&ba));
        let ts: Vec<u64> = ab.iter().map(|e| e.ts_us).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted, "merged timeline is time-ordered");
    }

    #[test]
    fn merge_orders_enclosing_spans_first() {
        let mut outer = event("outer", 10, 1, 0);
        outer.ph = 'X';
        outer.dur_us = 100;
        let mut inner = event("inner", 10, 1, 0);
        inner.ph = 'X';
        inner.dur_us = 10;
        let merged = merge_events(vec![vec![inner.clone()], vec![outer.clone()]]);
        assert_eq!(merged, vec![outer, inner]);
    }

    #[test]
    fn chrome_json_round_trips() {
        let tracer = Tracer::new(16);
        let mut ring = tracer.ring();
        let start = ring.now_us();
        ring.instant(
            "trap",
            "vp",
            &[("cause", "2".to_string()), ("pc", "0x100".to_string())],
        );
        ring.span("mutant \"x\"\n", "campaign", start, &[]);
        tracer.collect(ring);
        let events = tracer.drain();
        let json = to_chrome_json(&events);
        let reparsed = from_chrome_json(&json).expect("parses");
        assert_eq!(reparsed, events);
        // The wrapper shape scrapers expect.
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        // A bare array parses too.
        let bare = json
            .trim_start_matches("{\"displayTimeUnit\":\"ms\",\"traceEvents\":")
            .trim_end_matches('}');
        assert_eq!(from_chrome_json(bare).expect("bare array"), events);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(from_chrome_json("").is_err());
        assert!(from_chrome_json("{\"notTraceEvents\":[]}").is_err());
        assert!(from_chrome_json("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err());
        assert!(from_chrome_json(
            "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"XX\",\"ts\":1,\"pid\":1,\"tid\":0}]}"
        )
        .is_err());
        assert!(from_chrome_json("{\"traceEvents\":[]}").unwrap().is_empty());
    }

    #[test]
    fn instants_at_explicit_timestamps() {
        let mut ring = TraceRing::new(8);
        ring.instant_at("block", "vp", 42, &[("pc", "0x80".to_string())]);
        ring.span_at("window", "vp", 40, 50, &[]);
        let events = ring.drain();
        assert_eq!(events[0].ts_us, 42);
        assert_eq!(events[1].ts_us, 40);
        assert_eq!(events[1].dur_us, 10);
    }
}
