//! Metrics registry: named atomic counters plus log-bucketed latency
//! histograms with lock-free recording and point-in-time snapshots.
//!
//! The design goal is that adding an instrument never requires wire
//! surgery: the registry renders itself into a self-describing
//! name→value table ([`RegistrySnapshot::table`]) that the service
//! ships as `Vec<(String, u64)>`, so a new counter is one
//! `registry.register_counter("x")` call away from showing up in every
//! scrape.
//!
//! # Histogram bucket scheme
//!
//! Values (microseconds throughout the workspace) land in log-linear
//! buckets: the first `2 * 2^SUB_BITS` values (0..=31) get an exact
//! bucket each; above that, every power-of-two octave is split into
//! `2^SUB_BITS` (= 16) linear sub-buckets, bounding the relative
//! bucket width — and hence the quantile error — at 1/16 ≈ 6.25%.
//! The whole u64 range fits in [`NUM_BUCKETS`] (= 976) buckets, so a
//! histogram is a fixed 8 KiB array of relaxed `AtomicU64`s: recording
//! is two `fetch_add`s and a `fetch_max`, no locks, no allocation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Linear sub-buckets per power-of-two octave, as a bit count.
pub const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;

/// Total bucket count covering the full `u64` range.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize) * SUB as usize + SUB as usize;

/// The log-linear bucket index of `value`. Monotone in `value`,
/// surjective onto `0..NUM_BUCKETS`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < 2 * SUB {
        value as usize
    } else {
        let exp = 63 - value.leading_zeros();
        let mantissa = ((value >> (exp - SUB_BITS)) - SUB) as usize;
        ((exp - SUB_BITS) as usize + 1) * SUB as usize + mantissa
    }
}

/// The inclusive `[lo, hi]` value range of bucket `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    debug_assert!(index < NUM_BUCKETS);
    if index < 2 * SUB as usize {
        (index as u64, index as u64)
    } else {
        let group = (index as u64 / SUB) - 1;
        let m = index as u64 % SUB;
        let lo = (SUB + m) << group;
        let width = 1u64 << group;
        (lo, lo + (width - 1))
    }
}

/// A monotonically increasing counter. Cloneable handle semantics come
/// from wrapping in `Arc` via the [`Registry`].
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` (relaxed; counters tolerate reordering).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free log-bucketed histogram of `u64` samples.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .field("max", &self.max.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        let buckets = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Lock-free: two relaxed `fetch_add`s and one
    /// `fetch_max`.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy. Concurrent recording may tear the copy by
    /// at most the in-flight samples; every completed `record` before
    /// the call is included.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// An owned copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (mean = sum / count).
    pub sum: u64,
    /// Exact largest sample.
    pub max: u64,
    /// Dense per-bucket counts, `NUM_BUCKETS` long.
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            max: 0,
            buckets: vec![0; NUM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// The quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the sample of rank `ceil(q * count)` (clamped to the
    /// recorded maximum), so the true sample is never underestimated
    /// and the overestimate is bounded by the bucket width (≤ 6.25%
    /// relative). Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// One named instrument's snapshot value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's running total.
    Counter(u64),
    /// A histogram's full bucket state.
    Histogram(HistogramSnapshot),
}

enum Instrument {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

/// A named set of instruments. Instrument creation takes a lock;
/// recording through the returned `Arc` handles never does — callers
/// are expected to look up handles once and cache them.
#[derive(Default)]
pub struct Registry {
    instruments: Mutex<BTreeMap<String, Instrument>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the counter `name` for the code that increments it,
    /// the one owner of that row; readers look it up with
    /// [`counter`](Self::counter).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered, so two layers can never
    /// count into one row unnoticed.
    pub fn register_counter(&self, name: &str) -> Arc<Counter> {
        let counter = Arc::new(Counter::default());
        self.register(name, Instrument::Counter(Arc::clone(&counter)));
        counter
    }

    /// As [`register_counter`](Self::register_counter) (and panicking
    /// as it does), for a histogram.
    pub fn register_histogram(&self, name: &str) -> Arc<Histogram> {
        let histogram = Arc::new(Histogram::new());
        self.register(name, Instrument::Histogram(Arc::clone(&histogram)));
        histogram
    }

    fn register(&self, name: &str, instrument: Instrument) {
        let mut map = self.instruments.lock().unwrap();
        let taken = map.contains_key(name);
        if !taken {
            map.insert(name.to_string(), instrument);
        }
        drop(map);
        assert!(!taken, "metric {name:?} is registered twice");
    }

    /// The counter named `name`, created on first use: how readers and
    /// tests look up a row that [`register_counter`](Self::register_counter)
    /// gave its owner.
    ///
    /// # Panics
    ///
    /// Panics if `name` already names an instrument of another kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.instruments.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Counter(Arc::new(Counter::default())))
        {
            Instrument::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// The histogram named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` already names an instrument of another kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.instruments.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Histogram(Arc::new(Histogram::new())))
        {
            Instrument::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// A point-in-time copy of every instrument.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let map = self.instruments.lock().unwrap();
        let entries = map
            .iter()
            .map(|(name, inst)| {
                let value = match inst {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect();
        RegistrySnapshot { entries }
    }
}

/// A point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Name → value, sorted by name.
    pub entries: BTreeMap<String, MetricValue>,
}

impl RegistrySnapshot {
    /// Renders the snapshot as a flat, self-describing name→value
    /// table: counters one row each, histograms expanded to
    /// `{name}_count` / `{name}_sum` / `{name}_mean` / `{name}_p50` /
    /// `{name}_p95` / `{name}_p99` / `{name}_max` rows with quantiles
    /// computed exactly from the buckets. This is the wire shape of the
    /// `Metrics` verb — adding an instrument adds rows, never fields.
    pub fn table(&self) -> Vec<(String, u64)> {
        let mut rows = Vec::new();
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(v) => rows.push((name.clone(), *v)),
                MetricValue::Histogram(h) => {
                    rows.push((format!("{name}_count"), h.count));
                    rows.push((format!("{name}_sum"), h.sum));
                    rows.push((format!("{name}_mean"), h.mean()));
                    rows.push((format!("{name}_p50"), h.quantile(0.50)));
                    rows.push((format!("{name}_p95"), h.quantile(0.95)));
                    rows.push((format!("{name}_p99"), h.quantile(0.99)));
                    rows.push((format!("{name}_max"), h.max));
                }
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_tile_the_u64_range_and_contain_their_values() {
        // Buckets are contiguous: each starts right after its predecessor.
        for i in 1..NUM_BUCKETS {
            assert_eq!(bucket_bounds(i).0, bucket_bounds(i - 1).1 + 1);
        }
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(NUM_BUCKETS - 1).1, u64::MAX);
        // Probe values around every power of two land in a bucket whose
        // bounds contain them.
        for shift in 0..64u32 {
            let base = 1u64 << shift;
            for v in [base.saturating_sub(1), base, base.saturating_add(7)] {
                let i = bucket_index(v);
                assert!(i < NUM_BUCKETS, "index {i} out of range for {v}");
                let (lo, hi) = bucket_bounds(i);
                assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}] (bucket {i})");
            }
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn registry_table_expands_histograms() {
        let reg = Registry::new();
        reg.counter("served").add(3);
        let h = reg.histogram("latency_us");
        for v in [10, 20, 30] {
            h.record(v);
        }
        let table = reg.snapshot().table();
        let get = |k: &str| table.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("served"), Some(3));
        assert_eq!(get("latency_us_count"), Some(3));
        assert_eq!(get("latency_us_max"), Some(30));
        assert_eq!(get("latency_us_p50"), Some(20));
    }

    #[test]
    #[should_panic(expected = "\"network_hits\" is registered twice")]
    fn a_name_is_registered_once() {
        let reg = Registry::new();
        reg.register_counter("network_hits").add(2);
        assert_eq!(reg.counter("network_hits").get(), 2, "lookups share it");
        reg.register_counter("network_hits");
    }
}
