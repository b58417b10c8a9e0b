//! Measurement collection: exact-sample histograms and constant-space
//! extrema.
//!
//! A statistic keeps its samples only where a reader needs them: a
//! printed percentile, or an oracle that compares samples. Those are
//! [`Histogram`]s, which keep every sample (runs are bounded, and exact
//! percentiles matter when the claim under test is "jitter is zero")
//! and sort lazily on the first query: the network's publish →
//! delivery and publish → wire latencies (the benchmark reads the
//! former's samples; E11 prints the latter's p99 and the §4 runner's
//! oracle compares it as a multiset) and TTP/A's sporadic latency
//! (E11's percentiles).
//!
//! A statistic whose readers take only its count, minimum, maximum or
//! spread is an [`Extrema`], three integers for the whole run: the
//! inter-delivery spacing (the paper's HRT jitter is its spread, §3.2),
//! HRT LST blocking and in-slot wire offset, and the clock-sync spread.

use serde::{Deserialize, Serialize};

/// An exact-sample histogram over `u64` measurements (typically
/// nanoseconds).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    /// Create an empty histogram.
    pub const fn new() -> Self {
        Histogram {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Record one measurement.
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
        self.sorted = false;
    }

    /// Number of recorded measurements.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no measurements were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Smallest recorded value, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        self.samples.iter().copied().min()
    }

    /// Largest recorded value, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        self.samples.iter().copied().max()
    }

    /// Arithmetic mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().map(|&v| v as f64).sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Population standard deviation, `None` when empty.
    pub fn std_dev(&self) -> Option<f64> {
        let mean = self.mean()?;
        let var = self
            .samples
            .iter()
            .map(|&v| {
                let d = v as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / self.samples.len() as f64;
        Some(var.sqrt())
    }

    /// `p`-th percentile using nearest-rank on the sorted samples;
    /// `p` in `[0, 100]`. `None` when empty.
    pub fn percentile(&mut self, p: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.samples.len() as f64).ceil() as usize;
        let idx = rank.max(1) - 1;
        Some(self.samples[idx.min(self.samples.len() - 1)])
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// Peak-to-peak spread (`max - min`) — the paper's definition of
    /// jitter as the *variance of the latency* is reported both as this
    /// spread and as [`Histogram::std_dev`].
    pub fn spread(&self) -> Option<u64> {
        Some(self.max()? - self.min()?)
    }

    /// Merge another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Iterate over the raw samples (insertion order not guaranteed once
    /// a percentile has been queried).
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// One-line summary for experiment output.
    pub fn summary(&mut self) -> String {
        if self.samples.is_empty() {
            return "n=0".to_string();
        }
        let n = self.count();
        let min = self.min().unwrap();
        let max = self.max().unwrap();
        let mean = self.mean().unwrap();
        let p99 = self.percentile(99.0).unwrap();
        format!("n={n} min={min} mean={mean:.1} p99={p99} max={max}")
    }
}

/// The count, smallest and largest of `u64` measurements, in constant
/// space. Its methods answer exactly what [`Histogram`]'s methods of
/// the same name answer for the same samples.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Extrema {
    count: usize,
    min: u64,
    max: u64,
}

impl Extrema {
    /// Create an empty summary.
    pub const fn new() -> Self {
        Extrema {
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one measurement.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded measurements.
    pub fn count(&self) -> usize {
        self.count
    }

    /// `true` if no measurements were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.min)
    }

    /// Largest recorded value, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.max)
    }

    /// Peak-to-peak spread (`max - min`), `None` when empty.
    pub fn spread(&self) -> Option<u64> {
        Some(self.max()? - self.min()?)
    }
}

impl Default for Extrema {
    fn default() -> Self {
        Extrema::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_basic_moments() {
        let mut h = Histogram::new();
        for v in [10, 20, 30, 40, 50] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(50));
        assert_eq!(h.mean(), Some(30.0));
        assert_eq!(h.spread(), Some(40));
        let sd = h.std_dev().unwrap();
        assert!((sd - 14.142).abs() < 0.01, "sd {sd}");
    }

    #[test]
    fn histogram_percentiles_nearest_rank() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), Some(50));
        assert_eq!(h.percentile(99.0), Some(99));
        assert_eq!(h.percentile(100.0), Some(100));
        assert_eq!(h.percentile(0.0), Some(1));
        assert_eq!(h.median(), Some(50));
    }

    #[test]
    fn histogram_single_sample() {
        let mut h = Histogram::new();
        h.record(7);
        assert_eq!(h.percentile(0.0), Some(7));
        assert_eq!(h.percentile(50.0), Some(7));
        assert_eq!(h.percentile(100.0), Some(7));
        assert_eq!(h.spread(), Some(0));
    }

    #[test]
    fn histogram_empty() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.summary(), "n=0");
    }

    #[test]
    fn histogram_record_after_query() {
        let mut h = Histogram::new();
        h.record(5);
        assert_eq!(h.median(), Some(5));
        h.record(1);
        assert_eq!(h.median(), Some(1));
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1);
        b.record(3);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), Some(3));
    }
}
