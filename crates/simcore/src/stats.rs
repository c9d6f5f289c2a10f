//! Measurement plumbing: histograms, percentiles, time series, and
//! throughput meters.
//!
//! Every experiment in the benchmark harness reports through these types so
//! that table/figure regeneration shares one definition of "95th
//! percentile" or "throughput".
//!
//! # Examples
//!
//! ```
//! use simcore::stats::DurationHistogram;
//! use simcore::time::SimDuration;
//!
//! let mut h = DurationHistogram::new();
//! for us in [1u64, 2, 3, 4, 100] {
//!     h.record(SimDuration::from_micros(us));
//! }
//! assert_eq!(h.percentile(0.50), SimDuration::from_micros(3));
//! assert_eq!(h.max(), SimDuration::from_micros(100));
//! ```

use crate::time::{SimDuration, SimTime};

/// An exact-percentile histogram of durations.
///
/// Stores every sample (simulation runs record at most a few million), so
/// percentiles are exact rather than bucketed — important for reproducing
/// Table 4's tail latencies faithfully.
#[derive(Debug, Clone, Default)]
pub struct DurationHistogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl DurationHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        DurationHistogram {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d.as_nanos());
        self.sorted = false;
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `q`-quantile (0.0–1.0) using the nearest-rank method, or zero
    /// when empty.
    pub fn percentile(&mut self, q: f64) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.samples.len() as f64).ceil() as usize).max(1) - 1;
        SimDuration::from_nanos(self.samples[rank.min(self.samples.len() - 1)])
    }

    /// The median (50th percentile).
    pub fn median(&mut self) -> SimDuration {
        self.percentile(0.50)
    }

    /// Largest sample, or zero when empty.
    #[must_use]
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.samples.iter().copied().max().unwrap_or(0))
    }

    /// Smallest sample, or zero when empty.
    #[must_use]
    pub fn min(&self) -> SimDuration {
        SimDuration::from_nanos(self.samples.iter().copied().min().unwrap_or(0))
    }

    /// Arithmetic mean, or zero when empty.
    #[must_use]
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let sum: u128 = self.samples.iter().map(|&s| u128::from(s)).sum();
        SimDuration::from_nanos((sum / self.samples.len() as u128) as u64)
    }

    /// Removes all samples.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.sorted = true;
    }

    /// Appends every sample of `other` (used when merging per-worker
    /// registries back together).
    pub fn merge_from(&mut self, other: &DurationHistogram) {
        if other.samples.is_empty() {
            return;
        }
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

/// A `(time, value)` series, e.g. throughput over time for Figure 4(a).
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    #[must_use]
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends a point. Points should be pushed in time order.
    pub fn push(&mut self, at: SimTime, value: f64) {
        self.points.push((at, value));
    }

    /// The recorded points in insertion order.
    #[must_use]
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no points have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of the values over a time window `[from, to)`.
    #[must_use]
    pub fn window_mean(&self, from: SimTime, to: SimTime) -> f64 {
        let mut sum = 0.0;
        let mut n = 0u64;
        for &(t, v) in &self.points {
            if t >= from && t < to {
                sum += v;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Appends every point of `other` in its insertion order.
    pub fn extend_from(&mut self, other: &TimeSeries) {
        self.points.extend_from_slice(&other.points);
    }
}

/// Counts discrete completions and converts windows into rates.
///
/// A workload calls [`ThroughputMeter::record`] once per completed
/// operation; periodic sampling converts counts into operations/second
/// series.
#[derive(Debug, Clone, Default)]
pub struct ThroughputMeter {
    total: u64,
    window: u64,
    series: TimeSeries,
    last_sample: SimTime,
}

impl ThroughputMeter {
    /// Creates an idle meter.
    #[must_use]
    pub fn new() -> Self {
        ThroughputMeter::default()
    }

    /// Records `n` completed operations.
    pub fn record(&mut self, n: u64) {
        self.total += n;
        self.window += n;
    }

    /// Total operations recorded since creation.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Closes the current window at `now`, appending an ops/second point
    /// to the series, and starts a new window.
    pub fn sample(&mut self, now: SimTime) {
        let span = now.saturating_since(self.last_sample);
        let rate = if span.is_zero() {
            0.0
        } else {
            self.window as f64 / span.as_secs_f64()
        };
        self.series.push(now, rate);
        self.window = 0;
        self.last_sample = now;
    }

    /// The ops/second series accumulated by [`ThroughputMeter::sample`].
    #[must_use]
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }
}

/// Interned handle for one counter inside the [`Counters`] that
/// registered it.
///
/// Resolve once with [`Counters::register`] when the owning component is
/// built, then update through [`Counters::add_id`] / [`Counters::bump_id`]:
/// those are plain array indexing — no hashing, no allocation — which is
/// what the per-packet and per-fault paths use. An id is only meaningful
/// to the `Counters` (or a clone of it) that handed it out; debug builds
/// assert that on every update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId {
    index: u32,
    /// The [`Counters::set`] that registered this id.
    set: u32,
}

impl CounterId {
    /// The id's dense index (ids are handed out contiguously from 0).
    #[must_use]
    pub fn index(self) -> usize {
        self.index as usize
    }
}

/// Source of [`Counters::set`] tags.
static NEXT_SET: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

/// Simple named counters for component statistics (faults, drops,
/// retransmissions, ...).
///
/// Names are interned into [`CounterId`]s; a counter's value is `None`
/// until something is first added to it (even zero), and only such
/// counters are visible to [`Counters::iter`] and
/// [`Counters::merge_from`]. Registering a name therefore never changes
/// an export: a component may register every counter it might bump
/// without making the untouched ones appear. [`Counters::iter`] sorts by
/// name so exports stay deterministic.
#[derive(Debug, Clone)]
pub struct Counters {
    /// Tags the ids this set hands out (a clone shares it: same names,
    /// same indices). Never exported, only asserted on.
    set: u32,
    lookup: std::collections::HashMap<Box<str>, CounterId>,
    names: Vec<Box<str>>,
    /// Indexed by [`CounterId::index`]; `None` = never added to.
    values: Vec<Option<u64>>,
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            set: NEXT_SET.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            lookup: std::collections::HashMap::new(),
            names: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl Counters {
    /// Creates an empty counter set.
    #[must_use]
    pub fn new() -> Self {
        Counters::default()
    }

    /// Interns `name`, returning its stable id. Idempotent, and
    /// invisible: the counter stays out of [`Counters::iter`] until it is
    /// first added to.
    pub fn register(&mut self, name: &str) -> CounterId {
        if let Some(&id) = self.lookup.get(name) {
            return id;
        }
        let id = CounterId {
            index: u32::try_from(self.names.len()).expect("counter names exceed u32"),
            set: self.set,
        };
        self.names.push(name.into());
        self.values.push(None);
        self.lookup.insert(name.into(), id);
        id
    }

    /// Adds `n` to the counter behind a registered id: array-indexed,
    /// zero allocation. Adding zero still makes the counter visible.
    ///
    /// # Panics
    ///
    /// Debug builds panic on an id another `Counters` registered: it
    /// would name an unrelated counter here, or none.
    pub fn add_id(&mut self, id: CounterId, n: u64) {
        debug_assert_eq!(id.set, self.set, "CounterId used on a foreign Counters");
        *self.values[id.index()].get_or_insert(0) += n;
    }

    /// Increments the counter behind a registered id by one.
    pub fn bump_id(&mut self, id: CounterId) {
        self.add_id(id, 1);
    }

    /// Adds `n` to counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &str, n: u64) {
        let id = self.register(name);
        self.add_id(id, n);
    }

    /// Increments counter `name` by one.
    pub fn bump(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Reads counter `name` (zero if never touched).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.lookup
            .get(name)
            .and_then(|id| self.values[id.index()])
            .unwrap_or(0)
    }

    /// Iterates over `(name, value)` pairs of every counter that was
    /// ever added to, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        let mut pairs: Vec<(&str, u64)> = self
            .names
            .iter()
            .zip(&self.values)
            .filter_map(|(name, value)| value.map(|v| (&**name, v)))
            .collect();
        pairs.sort_unstable_by_key(|&(name, _)| name);
        pairs.into_iter()
    }

    /// Adds every counter of `other` into `self`.
    pub fn merge_from(&mut self, other: &Counters) {
        for (name, value) in other.iter() {
            self.add(name, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_nearest_rank() {
        let mut h = DurationHistogram::new();
        for us in 1..=100u64 {
            h.record(SimDuration::from_micros(us));
        }
        assert_eq!(h.percentile(0.50), SimDuration::from_micros(50));
        assert_eq!(h.percentile(0.95), SimDuration::from_micros(95));
        assert_eq!(h.percentile(0.99), SimDuration::from_micros(99));
        assert_eq!(h.percentile(1.0), SimDuration::from_micros(100));
        assert_eq!(h.percentile(0.0), SimDuration::from_micros(1));
        assert_eq!(h.max(), SimDuration::from_micros(100));
        assert_eq!(h.min(), SimDuration::from_micros(1));
        assert_eq!(h.mean(), SimDuration::from_nanos(50_500));
    }

    #[test]
    fn histogram_empty_is_zero() {
        let mut h = DurationHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.5), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
        assert_eq!(h.mean(), SimDuration::ZERO);
    }

    #[test]
    fn histogram_interleaves_record_and_query() {
        let mut h = DurationHistogram::new();
        h.record(SimDuration::from_micros(5));
        assert_eq!(h.median(), SimDuration::from_micros(5));
        h.record(SimDuration::from_micros(1));
        assert_eq!(h.percentile(0.0), SimDuration::from_micros(1));
        h.clear();
        assert!(h.is_empty());
    }

    #[test]
    fn time_series_window_mean() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(1), 10.0);
        ts.push(SimTime::from_secs(2), 20.0);
        ts.push(SimTime::from_secs(3), 30.0);
        assert_eq!(
            ts.window_mean(SimTime::from_secs(1), SimTime::from_secs(3)),
            15.0
        );
        assert_eq!(
            ts.window_mean(SimTime::from_secs(10), SimTime::from_secs(20)),
            0.0
        );
    }

    #[test]
    fn throughput_meter_rates() {
        let mut m = ThroughputMeter::new();
        m.record(500);
        m.sample(SimTime::from_secs(1));
        m.record(1500);
        m.sample(SimTime::from_secs(2));
        let pts = m.series().points();
        assert_eq!(pts.len(), 2);
        assert!((pts[0].1 - 500.0).abs() < 1e-9);
        assert!((pts[1].1 - 1500.0).abs() < 1e-9);
        assert_eq!(m.total(), 2000);
    }

    #[test]
    fn counters_accumulate() {
        let mut c = Counters::new();
        c.bump("rnpf");
        c.add("rnpf", 2);
        c.bump("drops");
        assert_eq!(c.get("rnpf"), 3);
        assert_eq!(c.get("drops"), 1);
        assert_eq!(c.get("missing"), 0);
        let names: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["drops", "rnpf"]);
    }

    #[test]
    fn registered_ids_stay_invisible_until_added_to() {
        let mut c = Counters::new();
        let quiet = c.register("quiet");
        let zero = c.register("zero");
        let hot = c.register("hot");
        assert_eq!(c.register("hot"), hot, "registration is idempotent");
        c.add_id(zero, 0);
        c.bump_id(hot);
        c.add("hot", 2);
        assert_eq!(c.get("hot"), 3);
        assert_eq!(c.get("quiet"), 0);
        let seen: Vec<(&str, u64)> = c.iter().collect();
        assert_eq!(seen, vec![("hot", 3), ("zero", 0)]);
        let mut merged = Counters::new();
        merged.merge_from(&c);
        assert_eq!(merged.iter().collect::<Vec<_>>(), seen);
        c.bump_id(quiet);
        assert_eq!(c.get("quiet"), 1);
    }

    #[test]
    fn ids_work_on_a_clone_of_the_set_that_registered_them() {
        let mut c = Counters::new();
        let hot = c.register("hot");
        let mut snapshot = c.clone();
        snapshot.bump_id(hot);
        assert_eq!(snapshot.get("hot"), 1);
        assert_eq!(c.get("hot"), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "foreign Counters")]
    fn an_id_from_another_set_is_rejected() {
        let mut ours = Counters::new();
        let mut theirs = Counters::new();
        ours.register("drops");
        let foreign = theirs.register("faults");
        // In range here, but it would silently bump "drops".
        ours.bump_id(foreign);
    }
}
