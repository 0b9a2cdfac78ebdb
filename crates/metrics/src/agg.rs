//! Scalar aggregation: five-number summaries (box plots), means, standard
//! deviations.

use serde::{Deserialize, Serialize};

/// Five-number summary plus mean — the contents of one box in the paper's
/// box plots (Fig. 4, Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxStats {
    /// Smallest sample.
    pub min: f64,
    /// First quartile (linear interpolation).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample count.
    pub n: usize,
}

impl BoxStats {
    /// Computes the summary of a sample set.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "box stats need at least one sample");
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        BoxStats {
            min: sorted[0],
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
            mean: mean(samples),
            n: samples.len(),
        }
    }
}

impl std::fmt::Display for BoxStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "min {:.2} | q1 {:.2} | med {:.2} | q3 {:.2} | max {:.2} (mean {:.2}, n={})",
            self.min, self.q1, self.median, self.q3, self.max, self.mean, self.n
        )
    }
}

/// Linear-interpolation quantile of *pre-sorted* data.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty data");
    assert!((0.0..=1.0).contains(&q), "quantile fraction out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Arithmetic mean (0 for empty input).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Sample standard deviation (0 for fewer than two samples).
#[cfg(test)]
pub fn std_dev(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = mean(samples);
    let var = samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (samples.len() - 1) as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_stats_on_known_data() {
        let s = BoxStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.n, 5);
    }

    #[test]
    fn quantile_interpolates() {
        let sorted = [0.0, 10.0];
        assert_eq!(quantile(&sorted, 0.5), 5.0);
        assert_eq!(quantile(&sorted, 0.0), 0.0);
        assert_eq!(quantile(&sorted, 1.0), 10.0);
        assert_eq!(quantile(&[7.0], 0.3), 7.0);
    }

    #[test]
    fn box_stats_order_independent() {
        let a = BoxStats::from_samples(&[3.0, 1.0, 2.0]);
        let b = BoxStats::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        let s = std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s - 2.138).abs() < 0.01, "std {s}");
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_box_stats_panics() {
        let _ = BoxStats::from_samples(&[]);
    }

    #[test]
    fn display_is_readable() {
        let s = BoxStats::from_samples(&[1.0, 2.0, 3.0]);
        let text = format!("{s}");
        assert!(text.contains("med 2.00"));
    }
}
