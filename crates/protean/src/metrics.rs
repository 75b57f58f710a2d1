//! Uniform runtime metrics: counters, gauges, and histograms.
//!
//! The [`Registry`] is the one metrics surface of every layer: the
//! runtime ([`Runtime::metrics`](crate::Runtime::metrics)), the
//! self-healing layer ([`HealthMonitor::metrics`](crate::HealthMonitor::metrics)),
//! PC3D and the cluster simulator all record into registries, and
//! operators read merged [`Snapshot`]s, rendered as text by
//! [`MonitorReport`](crate::MonitorReport).
//!
//! Names are dotted lowercase paths (`gate.rejected_dispatches`,
//! `compile.cycles`, `health.quarantines`), so a merged
//! [`Snapshot`] reads like a flat namespace. All values are derived from
//! simulated state — no wall clock — so snapshots are deterministic and
//! comparable across same-seed runs.

use std::collections::BTreeMap;
use std::fmt;

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket `i` holds samples whose value needs `i` significant bits
/// (bucket 0 is exactly the value 0, bucket 1 is 1, bucket 2 is 2-3,
/// bucket 3 is 4-7, ...). Log2 bucketing keeps recording O(1) with no
/// allocation while preserving the order-of-magnitude shape that latency
/// distributions (compile cycles, dispatch-to-first-execution lag) need.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Bucket index for a value: the number of significant bits.
    fn bucket(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw log2 bucket counts (index = significant bits of the value).
    pub fn buckets(&self) -> &[u64; 65] {
        &self.buckets
    }
}

/// A frozen histogram summary, as carried by a [`Snapshot`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 if empty).
    pub min: u64,
    /// Largest sample (0 if empty).
    pub max: u64,
    /// Mean sample (0.0 if empty).
    pub mean: f64,
}

impl From<&Histogram> for HistogramSummary {
    fn from(h: &Histogram) -> Self {
        HistogramSummary {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            mean: h.mean(),
        }
    }
}

/// One subsystem's metric registry.
///
/// Keys are `&'static str` so registration is free and deterministic;
/// `BTreeMap` storage keeps iteration (and therefore every export)
/// sorted and reproducible.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Increments counter `name` by 1.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `n` to counter `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `v`.
    pub fn set_gauge(&mut self, name: &'static str, v: f64) {
        self.gauges.insert(name, v);
    }

    /// Current value of gauge `name`, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records a sample into histogram `name`.
    pub fn record(&mut self, name: &'static str, v: u64) {
        self.histograms.entry(name).or_default().record(v);
    }

    /// The histogram registered under `name`, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// A frozen, owned snapshot of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| ((*k).to_string(), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, v)| ((*k).to_string(), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| ((*k).to_string(), HistogramSummary::from(h)))
                .collect(),
        }
    }
}

/// A frozen view of one or more registries, mergeable across subsystems
/// (e.g. the runtime's `gate.*`/`compile.*` metrics next to the health
/// layer's `health.*` ones).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Monotone counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl Snapshot {
    /// Folds `other` into `self`: counters add, gauges and histograms
    /// take `other`'s entry on key collision (registries use disjoint
    /// name prefixes, so collisions mean the same metric).
    pub fn merge(mut self, other: Snapshot) -> Snapshot {
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        self.gauges.extend(other.gauges);
        self.histograms.extend(other.histograms);
        self
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "{k} = {v}")?;
        }
        for (k, v) in &self.gauges {
            writeln!(f, "{k} = {v:.4}")?;
        }
        for (k, h) in &self.histograms {
            writeln!(
                f,
                "{k} = {{count {}, mean {:.1}, min {}, max {}}}",
                h.count, h.mean, h.min, h.max
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut r = Registry::new();
        assert_eq!(r.counter("x"), 0);
        r.inc("x");
        r.add("x", 4);
        assert_eq!(r.counter("x"), 5);
        assert_eq!(r.counter("y"), 0);
    }

    #[test]
    fn gauges_take_the_last_write() {
        let mut r = Registry::new();
        assert_eq!(r.gauge("nap"), None);
        r.set_gauge("nap", 0.25);
        r.set_gauge("nap", 0.5);
        assert_eq!(r.gauge("nap"), Some(0.5));
    }

    #[test]
    fn histogram_buckets_by_magnitude() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1 << 20, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.buckets()[0], 1); // 0
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[2], 2); // 2, 3
        assert_eq!(h.buckets()[3], 2); // 4..8
        assert_eq!(h.buckets()[4], 1); // 8..16
        assert_eq!(h.buckets()[21], 1); // 2^20
        assert_eq!(h.buckets()[64], 1); // u64::MAX
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn snapshot_merges_and_displays_sorted() {
        let mut a = Registry::new();
        a.add("gate.rejected", 2);
        a.record("compile.latency", 100);
        let mut b = Registry::new();
        b.add("health.quarantines", 1);
        b.add("gate.rejected", 3);
        b.set_gauge("pc3d.nap", 0.1);
        let merged = a.snapshot().merge(b.snapshot());
        assert_eq!(merged.counters["gate.rejected"], 5);
        assert_eq!(merged.counters["health.quarantines"], 1);
        assert_eq!(merged.histograms["compile.latency"].count, 1);
        assert_eq!(merged.gauges["pc3d.nap"], 0.1);
        let text = merged.to_string();
        let gate_pos = text.find("gate.rejected").unwrap();
        let health_pos = text.find("health.quarantines").unwrap();
        assert!(gate_pos < health_pos, "sorted output: {text}");
    }
}
