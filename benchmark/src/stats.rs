//! Order statistics and failure accounting.

/// The three quartile cut points of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so a spread reported here matches one recomputed from the result lines.
/// A single value is its own quartiles. `None` for no values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => return None,
        1 => return Some([data[0]; 3]),
        _ => {}
    }
    // Python's integer arithmetic, signed: with two values `delta` leaves
    // [0, n] and the outer quartiles extrapolate.
    let (n, m, ld) = (4i64, ld as i64 + 1, ld as i64);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (data[(j - 1) as usize], data[j as usize]);
        *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    Some(out)
}

/// The median of `values` (the middle quartile).
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|q| q[1])
}

/// The distance between the first and third quartile as a share of the
/// median: the run-to-run spread the benchmark bounds are judged against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Attempted and failed operations of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed operations as a share of those attempted (0 when nothing was
    /// attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: [f64; 3], b: [f64; 3]) -> bool {
        a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-12)
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // Reference values from `statistics.quantiles(data, n=4)`.
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert!(close(q, [2.75, 5.5, 8.25]), "{q:?}");
        let q = quartiles(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert!(close(q, [1.25, 2.5, 3.75]), "{q:?}");
        let q = quartiles(&[10.0, 30.0, 20.0]).unwrap();
        assert!(close(q, [10.0, 20.0, 30.0]), "{q:?}");
        let q = quartiles(&[5.0, 7.0]).unwrap();
        assert!(close(q, [4.5, 6.0, 7.5]), "{q:?}");
        assert_eq!(quartiles(&[3.5]), Some([3.5; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn median_and_spread() {
        let v = [9.0, 10.0, 10.0, 11.0, 10.0];
        assert_eq!(median(&v), Some(10.0));
        // quartiles: 9.5, 10, 10.5 -> spread 1/10.
        assert!((spread(&v).unwrap() - 0.1).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn tally_counts_failed_fraction() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.failed_frac(), 0.25);
        let mut total = Tally::default();
        total.absorb(t);
        total.absorb(Tally {
            attempted: 4,
            failed: 0,
        });
        assert_eq!(total.failed_frac(), 0.125);
    }
}
