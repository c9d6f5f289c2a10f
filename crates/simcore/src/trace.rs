//! simtrace: deterministic tracing + metrics for the whole DES.
//!
//! Every record is stamped with [`SimTime`], never wall-clock time, so a
//! given seed produces a byte-identical trace — traces are diffable
//! regression artifacts. The subsystem has three layers:
//!
//! 1. **Records** — completed spans (with parent links for nesting),
//!    instantaneous events, and counter samples, collected in a bounded
//!    ring buffer ([`TraceRecorder`]). On overflow the *oldest* records
//!    are dropped and counted, never the newest (the tail of a run is
//!    usually what you are debugging).
//! 2. **Metrics** — a [`MetricsRegistry`] of named counters, gauges,
//!    duration histograms and time series, reusing
//!    the [`crate::stats`] types so experiments and tracing share one
//!    definition of "p99".
//! 3. **Exporters** — Chrome trace-event JSON (loadable in Perfetto or
//!    `chrome://tracing`) and flat JSON/CSV metric summaries, all with
//!    deterministic field ordering.
//!
//! Instrumented code records through [`with`], which runs a closure on
//! the thread's recorder when one is installed
//! ([`crate::instruments::Instruments`]); the disabled path is a single
//! thread-local flag check, so always-on instrumentation costs nothing
//! measurable in the hot paths.
//!
//! # Examples
//!
//! ```
//! use simcore::instruments::Instruments;
//! use simcore::time::{SimDuration, SimTime};
//! use simcore::trace::{self, TraceRecorder};
//!
//! Instruments {
//!     trace: Some(TraceRecorder::new(1024)),
//!     ..Instruments::default()
//! }
//! .install();
//! trace::with(|t| {
//!     let d = SimDuration::from_micros(220);
//!     let parent = t.complete_span(SimTime::ZERO, d, "npf", "npf", None, Vec::new());
//!     t.complete_span(SimTime::ZERO, d, "npf", "fault_trigger", Some(parent), Vec::new());
//! });
//! let rec = Instruments::take().trace.expect("installed above");
//! assert_eq!(rec.spans().count(), 2);
//! ```

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;

use crate::instruments;
use crate::stats::{DurationHistogram, TimeSeries};
use crate::time::{SimDuration, SimTime};

/// Identifier of a span within one recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// A typed argument value attached to a span or instant event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Float (formatted with enough digits to round-trip deterministically).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Free-form text.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_owned())
    }
}

/// Named arguments on a record.
pub type Args = Vec<(&'static str, ArgValue)>;

/// One entry in the trace ring buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A completed span `[start, start + duration)`.
    Span {
        /// Span identity (unique within the recorder).
        id: SpanId,
        /// Enclosing span, for nesting.
        parent: Option<SpanId>,
        /// Start instant.
        start: SimTime,
        /// Length of the span.
        duration: SimDuration,
        /// Track (subsystem lane): `"npf"`, `"nicsim"`, `"iommu"`, ...
        track: &'static str,
        /// Span name within the track.
        name: &'static str,
        /// Attached arguments.
        args: Args,
    },
    /// An instantaneous event.
    Instant {
        /// When it happened.
        at: SimTime,
        /// Track (subsystem lane).
        track: &'static str,
        /// Event name.
        name: &'static str,
        /// Attached arguments.
        args: Args,
    },
    /// A sampled counter/gauge value (graphed by Perfetto).
    Counter {
        /// Sample instant.
        at: SimTime,
        /// Track (subsystem lane).
        track: &'static str,
        /// Counter name.
        name: &'static str,
        /// Sampled value.
        value: f64,
    },
}

impl TraceRecord {
    /// The record's timestamp (span start for spans).
    #[must_use]
    pub fn at(&self) -> SimTime {
        match self {
            TraceRecord::Span { start, .. } => *start,
            TraceRecord::Instant { at, .. } | TraceRecord::Counter { at, .. } => *at,
        }
    }
}

/// Interned handle for one metric name inside one [`MetricsRegistry`];
/// meaningless in any other registry, so it never leaves this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MetricId(u32);

impl MetricId {
    /// The id's dense index (ids are handed out contiguously from 0).
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// The id→name table: one id space shared by every metric kind.
#[derive(Debug, Clone, Default)]
struct NameTable {
    lookup: HashMap<Box<str>, MetricId>,
    names: Vec<Box<str>>,
}

impl NameTable {
    fn intern(&mut self, name: &str) -> MetricId {
        if let Some(&id) = self.lookup.get(name) {
            return id;
        }
        let id = MetricId(u32::try_from(self.names.len()).expect("metric names exceed u32"));
        self.names.push(name.into());
        self.lookup.insert(name.into(), id);
        id
    }

    fn get(&self, name: &str) -> Option<MetricId> {
        self.lookup.get(name).copied()
    }

    fn name(&self, id: MetricId) -> &str {
        &self.names[id.index()]
    }
}

/// Grows `storage` so `id` indexes into it, filling with `None`.
fn slot_mut<T>(storage: &mut Vec<Option<T>>, id: MetricId) -> &mut Option<T> {
    if storage.len() <= id.index() {
        storage.resize_with(id.index() + 1, || None);
    }
    &mut storage[id.index()]
}

fn slot<T>(storage: &[Option<T>], id: MetricId) -> Option<&T> {
    storage.get(id.index()).and_then(Option::as_ref)
}

/// Registry of named metrics, built on the [`crate::stats`] types so
/// workloads stop hand-threading histograms where a recorder is
/// available.
///
/// Every update names its metric; the name is interned into a dense id
/// that indexes per-kind storage. Exports iterate the id→name table in
/// name order, so the JSON/CSV output is byte-identical to the
/// historical `BTreeMap`-keyed layout.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    names: NameTable,
    counters: Vec<Option<u64>>,
    gauges: Vec<Option<f64>>,
    histograms: Vec<Option<DurationHistogram>>,
    series: Vec<Option<TimeSeries>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Ids of every metric of one kind, sorted by name — the export
    /// order (and the historical `BTreeMap` iteration order).
    fn sorted_ids<T>(&self, storage: &[Option<T>]) -> Vec<MetricId> {
        let mut ids: Vec<MetricId> = (0..storage.len())
            .filter(|&i| storage[i].is_some())
            .map(|i| MetricId(i as u32))
            .collect();
        ids.sort_unstable_by(|&a, &b| self.names.name(a).cmp(self.names.name(b)));
        ids
    }

    /// Adds `n` to the monotonic counter `name`.
    pub fn counter_add(&mut self, name: &str, n: u64) {
        let id = self.names.intern(name);
        *slot_mut(&mut self.counters, id).get_or_insert(0) += n;
    }

    /// Reads a monotonic counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.names
            .get(name)
            .and_then(|id| slot(&self.counters, id).copied())
            .unwrap_or(0)
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        let id = self.names.intern(name);
        self.gauge_set_id(id, value);
    }

    fn gauge_set_id(&mut self, id: MetricId, value: f64) {
        *slot_mut(&mut self.gauges, id) = Some(value);
    }

    /// Records a duration sample into histogram `name`.
    pub fn duration_record(&mut self, name: &str, d: SimDuration) {
        self.histogram_mut(name).record(d);
    }

    /// The duration histogram `name`, creating it if absent.
    pub fn histogram_mut(&mut self, name: &str) -> &mut DurationHistogram {
        let id = self.names.intern(name);
        slot_mut(&mut self.histograms, id).get_or_insert_with(DurationHistogram::new)
    }

    /// Appends a `(time, value)` point to series `name`.
    pub fn series_push(&mut self, name: &str, at: SimTime, value: f64) {
        let id = self.names.intern(name);
        slot_mut(&mut self.series, id)
            .get_or_insert_with(TimeSeries::new)
            .push(at, value);
    }

    /// The time series `name`, if any points were pushed.
    #[must_use]
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.names.get(name).and_then(|id| slot(&self.series, id))
    }

    /// Folds `other` into `self` (the parallel experiment runner merges
    /// per-task registries in deterministic task order): counters add,
    /// gauges take `other`'s latest value, histograms and series append.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for id in other.sorted_ids(&other.counters) {
            let name = other.names.name(id);
            let n = slot(&other.counters, id).copied().unwrap_or(0);
            self.counter_add(name, n);
        }
        for id in other.sorted_ids(&other.gauges) {
            let name = other.names.name(id);
            if let Some(&v) = slot(&other.gauges, id) {
                self.gauge_set(name, v);
            }
        }
        for id in other.sorted_ids(&other.histograms) {
            let name = other.names.name(id);
            if let Some(h) = slot(&other.histograms, id) {
                self.histogram_mut(name).merge_from(h);
            }
        }
        for id in other.sorted_ids(&other.series) {
            let name = other.names.name(id);
            if let Some(s) = slot(&other.series, id) {
                let my = self.names.intern(name);
                slot_mut(&mut self.series, my)
                    .get_or_insert_with(TimeSeries::new)
                    .extend_from(s);
            }
        }
    }

    /// Flat JSON summary: counters, gauges, histogram percentiles and
    /// series lengths. Deterministic field order
    /// (name-sorted via the id→name table).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for id in self.sorted_ids(&self.counters) {
            let value = slot(&self.counters, id).copied().unwrap_or(0);
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    \"{}\": {}",
                escape_json(self.names.name(id)),
                value
            );
        }
        out.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for id in self.sorted_ids(&self.gauges) {
            let Some(&value) = slot(&self.gauges, id) else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    \"{}\": {}",
                escape_json(self.names.name(id)),
                fmt_f64(value)
            );
        }
        out.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for id in self.sorted_ids(&self.histograms) {
            let Some(hist) = slot(&self.histograms, id) else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            let mut h = hist.clone();
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}}}",
                escape_json(self.names.name(id)),
                h.count(),
                h.percentile(0.50).as_nanos(),
                h.percentile(0.95).as_nanos(),
                h.percentile(0.99).as_nanos(),
                h.percentile(0.999).as_nanos(),
                h.max().as_nanos(),
            );
        }
        out.push_str("\n  },\n  \"series\": {");
        first = true;
        for id in self.sorted_ids(&self.series) {
            let Some(series) = slot(&self.series, id) else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    \"{}\": {{\"points\": {}}}",
                escape_json(self.names.name(id)),
                series.len()
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// CSV summary of the scalar metrics: `kind,name,value` rows in
    /// deterministic order.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,value\n");
        for id in self.sorted_ids(&self.counters) {
            let name = self.names.name(id);
            let value = slot(&self.counters, id).copied().unwrap_or(0);
            let _ = writeln!(out, "counter,{name},{value}");
        }
        for id in self.sorted_ids(&self.gauges) {
            let name = self.names.name(id);
            if let Some(&value) = slot(&self.gauges, id) {
                let _ = writeln!(out, "gauge,{name},{}", fmt_f64(value));
            }
        }
        for id in self.sorted_ids(&self.histograms) {
            let name = self.names.name(id);
            let Some(hist) = slot(&self.histograms, id) else {
                continue;
            };
            let mut h = hist.clone();
            let _ = writeln!(
                out,
                "histogram_p50_ns,{name},{}",
                h.percentile(0.5).as_nanos()
            );
            let _ = writeln!(
                out,
                "histogram_p999_ns,{name},{}",
                h.percentile(0.999).as_nanos()
            );
            let _ = writeln!(out, "histogram_max_ns,{name},{}", h.max().as_nanos());
        }
        out
    }
}

/// The trace collector: a bounded ring of [`TraceRecord`]s plus the
/// metrics registry.
#[derive(Debug)]
pub struct TraceRecorder {
    ring: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
    next_span: u64,
    clock: SimTime,
    metrics: MetricsRegistry,
    /// Interned `track.name` gauge ids for counter samples, so the
    /// hot-path mirror into the metrics registry never re-formats or
    /// re-hashes the joined name. Keyed by the `&'static str` pair —
    /// hashing the string contents, which is correct even if the same
    /// literal has several addresses across codegen units.
    counter_gauges: HashMap<(&'static str, &'static str), MetricId>,
}

impl TraceRecorder {
    /// Creates a recorder holding at most `capacity` records; the oldest
    /// records are dropped (and counted) past that.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TraceRecorder {
            ring: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
            next_span: 0,
            clock: SimTime::ZERO,
            metrics: MetricsRegistry::new(),
            counter_gauges: HashMap::new(),
        }
    }

    /// The most records the ring retains.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The records currently retained, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// The retained spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring
            .iter()
            .filter(|r| matches!(r, TraceRecord::Span { .. }))
    }

    /// Number of retained records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when nothing has been recorded (or everything was dropped).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records dropped to the overflow policy.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The recorder's logical clock: the latest timestamp it has seen.
    /// Instrumentation points without a `now` in scope stamp with this.
    #[must_use]
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Advances the logical clock (monotone: earlier times are ignored).
    pub fn set_clock(&mut self, now: SimTime) {
        if now > self.clock {
            self.clock = now;
        }
    }

    /// Restarts the logical clock at zero for a new timeline; see
    /// [`instruments::note_timeline_reset`].
    pub(crate) fn reset_clock(&mut self) {
        self.clock = SimTime::ZERO;
    }

    /// The metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable metrics access.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Appends every record of `other` to this ring and folds its
    /// metrics in. Span ids (and parent links) are re-based onto this
    /// recorder's id space, so absorbing per-task recorders in task
    /// order yields the same ids a single serial recorder would have
    /// assigned. Used by the parallel experiment runner.
    pub fn absorb(&mut self, other: TraceRecorder) {
        let base = self.next_span;
        let rebase = |id: SpanId| SpanId(base + id.0);
        for record in other.ring {
            let record = match record {
                TraceRecord::Span {
                    id,
                    parent,
                    start,
                    duration,
                    track,
                    name,
                    args,
                } => TraceRecord::Span {
                    id: rebase(id),
                    parent: parent.map(rebase),
                    start,
                    duration,
                    track,
                    name,
                    args,
                },
                other => other,
            };
            self.push(record);
        }
        self.next_span = base + other.next_span;
        self.dropped += other.dropped;
        self.set_clock(other.clock);
        self.metrics.merge_from(&other.metrics);
    }

    fn push(&mut self, record: TraceRecord) {
        self.set_clock(record.at());
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(record);
    }

    /// Records a completed span with an explicit parent. Returns its id.
    pub fn complete_span(
        &mut self,
        start: SimTime,
        duration: SimDuration,
        track: &'static str,
        name: &'static str,
        parent: Option<SpanId>,
        args: Args,
    ) -> SpanId {
        let id = SpanId(self.next_span);
        self.next_span += 1;
        self.set_clock(start + duration);
        self.push(TraceRecord::Span {
            id,
            parent,
            start,
            duration,
            track,
            name,
            args,
        });
        id
    }

    /// Records an instantaneous event.
    pub fn instant(&mut self, at: SimTime, track: &'static str, name: &'static str, args: Args) {
        self.push(TraceRecord::Instant {
            at,
            track,
            name,
            args,
        });
    }

    /// Records a counter/gauge sample (also mirrored into the metrics
    /// registry as a gauge under `track.name`). The joined gauge name is
    /// interned on first use; subsequent samples are array-indexed.
    pub fn counter(&mut self, at: SimTime, track: &'static str, name: &'static str, value: f64) {
        let id = match self.counter_gauges.get(&(track, name)) {
            Some(&id) => id,
            None => {
                let id = self.metrics.names.intern(&format!("{track}.{name}"));
                self.counter_gauges.insert((track, name), id);
                id
            }
        };
        self.metrics.gauge_set_id(id, value);
        self.push(TraceRecord::Counter {
            at,
            track,
            name,
            value,
        });
    }

    /// Exports the ring as Chrome trace-event JSON (the format Perfetto
    /// and `chrome://tracing` load). Spans map to complete (`"X"`)
    /// events, instants to `"i"`, counter samples to `"C"`; each track
    /// becomes one named thread. Output is deterministic: records appear
    /// in ring order, metadata in track-discovery order.
    #[must_use]
    pub fn export_chrome_json(&self) -> String {
        // Stable track -> tid assignment in order of first appearance.
        let mut tids: Vec<&'static str> = Vec::new();
        let tid_of = |tids: &mut Vec<&'static str>, track: &'static str| -> usize {
            if let Some(i) = tids.iter().position(|&t| t == track) {
                i + 1
            } else {
                tids.push(track);
                tids.len()
            }
        };
        // Drop-oldest eviction can orphan children: a parent span
        // recorded before its children may have been pushed out of the
        // ring while they survive. Emitting their dangling `parent`
        // references would point viewers at a span id that no longer
        // exists, so collect the retained ids and suppress the rest.
        let retained: crate::fxhash::FxHashSet<u64> = self
            .ring
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Span { id, .. } => Some(id.0),
                _ => None,
            })
            .collect();
        let mut body = String::new();
        for record in &self.ring {
            if !body.is_empty() {
                body.push_str(",\n");
            }
            match record {
                TraceRecord::Span {
                    id,
                    parent,
                    start,
                    duration,
                    track,
                    name,
                    args,
                } => {
                    let tid = tid_of(&mut tids, track);
                    let _ = write!(
                        body,
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"span_id\":{}",
                        escape_json(name),
                        escape_json(track),
                        fmt_us(start.as_nanos()),
                        fmt_us(duration.as_nanos()),
                        tid,
                        id.0,
                    );
                    if let Some(p) = parent {
                        if retained.contains(&p.0) {
                            let _ = write!(body, ",\"parent\":{}", p.0);
                        }
                    }
                    write_args(&mut body, args);
                    body.push_str("}}");
                }
                TraceRecord::Instant {
                    at,
                    track,
                    name,
                    args,
                } => {
                    let tid = tid_of(&mut tids, track);
                    let _ = write!(
                        body,
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{",
                        escape_json(name),
                        escape_json(track),
                        fmt_us(at.as_nanos()),
                        tid,
                    );
                    write_args_first(&mut body, args);
                    body.push_str("}}");
                }
                TraceRecord::Counter {
                    at,
                    track,
                    name,
                    value,
                } => {
                    let tid = tid_of(&mut tids, track);
                    let _ = write!(
                        body,
                        "{{\"name\":\"{}.{}\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{\"value\":{}}}}}",
                        escape_json(track),
                        escape_json(name),
                        fmt_us(at.as_nanos()),
                        tid,
                        fmt_f64(*value),
                    );
                }
            }
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, track) in tids.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}},",
                i + 1,
                escape_json(track)
            );
        }
        out.push_str(&body);
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

/// Writes `args` into an open JSON object, comma-prefixing every pair
/// (the caller has already written at least one field).
fn write_args(body: &mut String, args: &Args) {
    write_args_inner(body, args, true);
}

/// Writes `args` as the first fields of an open JSON object.
fn write_args_first(body: &mut String, args: &Args) {
    write_args_inner(body, args, false);
}

fn write_args_inner(body: &mut String, args: &Args, mut need_comma: bool) {
    for (key, value) in args {
        if need_comma {
            body.push(',');
        }
        need_comma = true;
        let _ = write!(body, "\"{}\":", escape_json(key));
        match value {
            ArgValue::U64(v) => {
                let _ = write!(body, "{v}");
            }
            ArgValue::F64(v) => {
                let _ = write!(body, "{}", fmt_f64(*v));
            }
            ArgValue::Bool(v) => {
                let _ = write!(body, "{v}");
            }
            ArgValue::Str(v) => {
                let _ = write!(body, "\"{}\"", escape_json(v));
            }
        }
    }
}

/// Formats nanoseconds as microseconds with exact thousandths, the
/// Chrome trace time unit (no float rounding). The journal's exports
/// share it.
pub(crate) fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Deterministic float formatting for JSON (finite values only; the
/// simulator never records NaN/inf — they would not be valid JSON).
fn fmt_f64(v: f64) -> String {
    debug_assert!(v.is_finite(), "non-finite metric value");
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `true` when a recorder is installed on this thread.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    instruments::has(instruments::TRACE)
}

/// Runs `f` against the installed recorder, if any. The no-recorder
/// path is a single thread-local flag check.
#[inline]
pub fn with<R>(f: impl FnOnce(&mut TraceRecorder) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    instruments::SLOT.with(|s| s.trace.borrow_mut().as_mut().map(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(capacity: usize) -> TraceRecorder {
        TraceRecorder::new(capacity)
    }

    #[test]
    fn complete_spans_record_in_order() {
        let mut t = fresh(16);
        let a = t.complete_span(
            SimTime::ZERO,
            SimDuration::from_micros(10),
            "x",
            "a",
            None,
            Vec::new(),
        );
        let b = t.complete_span(
            SimTime::from_micros(10),
            SimDuration::from_micros(5),
            "x",
            "b",
            None,
            Vec::new(),
        );
        assert_ne!(a, b);
        let names: Vec<&str> = t
            .records()
            .map(|r| match r {
                TraceRecord::Span { name, .. } => *name,
                _ => panic!("span expected"),
            })
            .collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(t.clock(), SimTime::from_micros(15));
    }

    #[test]
    fn ring_overflow_drops_oldest() {
        let mut t = fresh(3);
        for i in 0..5u64 {
            t.instant(
                SimTime::from_nanos(i),
                "x",
                "e",
                vec![("i", ArgValue::U64(i))],
            );
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let first = t.records().next().expect("nonempty");
        assert_eq!(first.at(), SimTime::from_nanos(2), "oldest two dropped");
    }

    #[test]
    fn counters_mirror_into_gauges() {
        let mut t = fresh(8);
        t.counter(SimTime::from_micros(1), "nic", "depth", 3.0);
        t.counter(SimTime::from_micros(2), "nic", "depth", 5.0);
        assert!(t.metrics().to_json().contains("\"nic.depth\": 5.0"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn clock_is_monotone() {
        let mut t = fresh(8);
        t.set_clock(SimTime::from_micros(10));
        t.set_clock(SimTime::from_micros(5));
        assert_eq!(t.clock(), SimTime::from_micros(10));
        t.instant(SimTime::from_micros(20), "x", "e", Vec::new());
        assert_eq!(t.clock(), SimTime::from_micros(20));
    }

    #[test]
    fn chrome_export_shape() {
        let mut t = fresh(8);
        let id = t.complete_span(
            SimTime::from_micros(1),
            SimDuration::from_micros(2),
            "npf",
            "fault",
            None,
            vec![("pages", ArgValue::U64(4))],
        );
        t.instant(SimTime::from_micros(3), "npf", "bang", Vec::new());
        t.counter(SimTime::from_micros(4), "nic", "depth", 1.5);
        let json = t.export_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":2.000"));
        assert!(json.contains(&format!("\"span_id\":{}", id.0)));
        assert!(json.contains("\"pages\":4"));
        assert!(json.contains("thread_name"));
        assert!(json.contains("\"nic.depth\""));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ns\"}\n"));
    }

    #[test]
    fn install_uninstall_roundtrip() {
        use crate::instruments::Instruments;

        let span = || {
            with(|t| {
                let d = SimDuration::from_micros(1);
                t.complete_span(SimTime::ZERO, d, "x", "s", None, Vec::new())
            })
        };
        assert!(!enabled());
        let installed = Instruments {
            trace: Some(fresh(4)),
            ..Instruments::default()
        };
        assert!(installed.install().is_empty());
        assert!(enabled());
        span().expect("recorder installed");
        let rec = Instruments::take().trace.expect("was installed");
        assert!(!enabled());
        assert_eq!(rec.len(), 1);
        // `with` is a no-op now.
        assert!(span().is_none());
        assert!(Instruments::take().trace.is_none());
    }

    #[test]
    fn metrics_registry_wires_stats_types() {
        let mut m = MetricsRegistry::new();
        m.counter_add("faults", 3);
        m.gauge_set("depth", 2.5);
        m.duration_record("latency", SimDuration::from_micros(220));
        m.series_push("cwnd", SimTime::from_secs(1), 10.0);
        assert_eq!(m.counter("faults"), 3);
        assert_eq!(
            m.histogram_mut("latency").median(),
            SimDuration::from_micros(220)
        );
        assert_eq!(m.series("cwnd").map(TimeSeries::len), Some(1));
        let json = m.to_json();
        assert!(json.contains("\"faults\": 3"));
        assert!(json.contains("\"depth\": 2.5"));
        assert!(json.contains("\"p50_ns\": 220000"));
        let csv = m.to_csv();
        assert!(csv.starts_with("kind,name,value\n"));
        assert!(csv.contains("counter,faults,3"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(fmt_us(1_234_567), "1234.567");
        assert_eq!(fmt_us(999), "0.999");
        assert_eq!(fmt_f64(3.0), "3.0");
        assert_eq!(fmt_f64(0.25), "0.25");
    }

    #[test]
    fn ring_wrap_mid_span_suppresses_dangling_parent_refs() {
        // Capacity 2: the parent span is recorded first, then enough
        // children wrap the ring and evict it mid-hierarchy.
        let mut r = TraceRecorder::new(2);
        let parent = r.complete_span(
            SimTime::ZERO,
            SimDuration::from_micros(10),
            "npf",
            "npf",
            None,
            Vec::new(),
        );
        for i in 0..3u64 {
            r.complete_span(
                SimTime::from_micros(i),
                SimDuration::from_micros(1),
                "npf",
                "child",
                Some(parent),
                Vec::new(),
            );
        }
        assert_eq!(r.dropped(), 2, "parent and first child evicted");
        let json = r.export_chrome_json();
        // The surviving children's parent reference would dangle; the
        // export must not emit it.
        assert!(
            !json.contains("\"parent\""),
            "dangling parent emitted: {json}"
        );
        assert_eq!(json.matches("\"child\"").count(), 2, "{json}");

        // A surviving parent keeps its children's references.
        let mut r = TraceRecorder::new(8);
        let parent = r.complete_span(
            SimTime::ZERO,
            SimDuration::from_micros(10),
            "npf",
            "npf",
            None,
            Vec::new(),
        );
        r.complete_span(
            SimTime::from_micros(1),
            SimDuration::from_micros(1),
            "npf",
            "child",
            Some(parent),
            Vec::new(),
        );
        assert!(r.export_chrome_json().contains("\"parent\""));
    }

    #[test]
    fn merge_from_histograms_commute_in_summaries() {
        // Exact-sample histograms append on merge, so the *samples*
        // depend on order but every summary statistic must not.
        let build = |first: &[u64], second: &[u64]| {
            let mut a = MetricsRegistry::new();
            for &ns in first {
                a.duration_record("npf.latency", SimDuration::from_nanos(ns));
            }
            let mut b = MetricsRegistry::new();
            for &ns in second {
                b.duration_record("npf.latency", SimDuration::from_nanos(ns));
            }
            a.merge_from(&b);
            a
        };
        let xs = [400u64, 100, 900, 250];
        let ys = [700u64, 50, 300];
        let ab = build(&xs, &ys);
        let ba = build(&ys, &xs);
        assert_eq!(ab.to_json(), ba.to_json());
        assert_eq!(ab.to_csv(), ba.to_csv());
        assert!(
            ab.to_json().contains("\"p999_ns\": 900"),
            "{}",
            ab.to_json()
        );
        assert!(ab.to_json().contains("\"max_ns\": 900"));
        assert!(ab.to_csv().contains("histogram_p999_ns,npf.latency,900"));
    }

    #[test]
    fn merge_from_series_and_counters_are_deterministic_in_task_order() {
        let part = |base: u64| {
            let mut m = MetricsRegistry::new();
            m.series_push("cwnd", SimTime::from_nanos(base), base as f64);
            m.counter_add("faults", base);
            m
        };
        // Task-order merge (what the worker pool does) is reproducible:
        // merging the same parts in the same order twice is identical.
        let merge_all = |parts: &[u64]| {
            let mut m = MetricsRegistry::new();
            for &p in parts {
                m.merge_from(&part(p));
            }
            m
        };
        let once = merge_all(&[3, 1, 2]);
        let twice = merge_all(&[3, 1, 2]);
        assert_eq!(once.to_json(), twice.to_json());
        assert_eq!(once.to_csv(), twice.to_csv());
        // Counters are order-free; check both orders agree on everything
        // their exports show.
        let fwd = merge_all(&[1, 2, 3]);
        let rev = merge_all(&[3, 2, 1]);
        assert_eq!(fwd.to_json(), rev.to_json());
        assert_eq!(fwd.counter("faults"), 6);
        assert_eq!(fwd.series("cwnd").map(TimeSeries::len), Some(3));
    }
}
