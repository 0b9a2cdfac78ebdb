//! Streaming statistics for training loops: numerically stable running
//! mean/variance (Welford) and an exponential moving average — the
//! bookkeeping every RL training loop needs without ever materializing the
//! full return history.

use serde::{Deserialize, Serialize};

/// Welford's online mean/variance accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample seen (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample seen (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl std::fmt::Display for RunningStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.3} std={:.3} min={:.3} max={:.3}",
            self.n,
            self.mean(),
            self.std_dev(),
            self.min().unwrap_or(f64::NAN),
            self.max().unwrap_or(f64::NAN)
        )
    }
}

/// Exponential moving average with configurable smoothing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ema {
    alpha: f64,
    value: Option<f64>,
}

impl Ema {
    /// Creates an EMA with smoothing factor `alpha in (0, 1]` (larger =
    /// faster tracking).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ema { alpha, value: None }
    }

    /// Adds one sample, returning the updated average.
    pub fn push(&mut self, x: f64) -> f64 {
        let v = match self.value {
            Some(v) => v + self.alpha * (x - v),
            None => x,
        };
        self.value = Some(v);
        v
    }

    /// Current average (`None` before any sample).
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_batch_statistics() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut rs = RunningStats::new();
        for x in data {
            rs.push(x);
        }
        assert_eq!(rs.count(), 8);
        assert!((rs.mean() - 5.0).abs() < 1e-12);
        assert!((rs.std_dev() - 2.138).abs() < 0.01);
        assert_eq!(rs.min(), Some(2.0));
        assert_eq!(rs.max(), Some(9.0));
    }

    #[test]
    fn empty_stats_are_sane() {
        let rs = RunningStats::new();
        assert_eq!(rs.mean(), 0.0);
        assert_eq!(rs.variance(), 0.0);
        assert_eq!(rs.min(), None);
        assert_eq!(rs.count(), 0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).sin() * 10.0).collect();
        let mut all = RunningStats::new();
        for &x in &data {
            all.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &data[..17] {
            a.push(x);
        }
        for &x in &data[17..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);
        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn ema_tracks_towards_input() {
        let mut ema = Ema::new(0.5);
        assert_eq!(ema.value(), None);
        assert_eq!(ema.push(10.0), 10.0);
        assert_eq!(ema.push(0.0), 5.0);
        assert_eq!(ema.push(0.0), 2.5);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn ema_rejects_bad_alpha() {
        let _ = Ema::new(0.0);
    }

    #[test]
    fn display_is_readable() {
        let mut rs = RunningStats::new();
        rs.push(1.0);
        assert!(format!("{rs}").contains("n=1"));
    }
}
