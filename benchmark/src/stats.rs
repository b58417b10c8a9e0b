//! Order statistics over the benchmark's own samples.

/// Median of `values` (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller has at least one
/// repetition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max − min) / median`, in percent.
pub fn spread_pct(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let m = median(values);
    if m > 0.0 {
        (hi - lo) / m * 100.0
    } else {
        0.0
    }
}

/// A set of timing samples reported as a median and a tail.
pub struct Percentiles {
    sorted: Vec<u64>,
}

/// The tail percentiles tried, highest first.
const TAILS: [f64; 4] = [99.0, 95.0, 90.0, 75.0];
/// Samples that must lie beyond a percentile for it to be reported.
const BEYOND: usize = 10;

impl Percentiles {
    /// Take ownership of the samples and sort them.
    pub fn new(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        Percentiles { sorted: samples }
    }

    /// Sample count.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile; 0 when there are no samples.
    pub fn at(&self, p: f64) -> u64 {
        if self.sorted.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// The median.
    pub fn p50(&self) -> u64 {
        self.at(50.0)
    }

    /// The highest percentile of [`TAILS`] that still has at least
    /// [`BEYOND`] samples beyond it, as `(percentile, value)`; falls
    /// back to the median when even p75 has too few.
    pub fn tail(&self) -> (f64, u64) {
        for p in TAILS {
            let beyond = (self.sorted.len() as f64 * (1.0 - p / 100.0)).floor() as usize;
            if beyond >= BEYOND {
                return (p, self.at(p));
            }
        }
        (50.0, self.p50())
    }
}

/// FNV-1a over a stream of `u64`s — the bus-time digests the
/// repetitions are compared by.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    /// The empty digest.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
    }

    /// Fold a byte string in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
    }
}
