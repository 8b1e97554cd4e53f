//! Order statistics of a sample: median and quartiles.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default *exclusive* method), because that is what the benchmark driver
//! computes spreads with; the median is the usual middle value / mean of
//! the two middle values, which coincides with that method's second cut.

/// Five-number summary plus the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; panics on an empty sample (every caller takes
    /// at least one measurement).
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "empty sample");
        let mut x = values.to_vec();
        x.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles_sorted(&x);
        Summary { n: x.len(), min: x[0], q1, median, q3, max: x[x.len() - 1] }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The three quartile cuts of an ascending sample (exclusive method).
fn quartiles_sorted(x: &[f64]) -> [f64; 3] {
    let n = x.len();
    if n == 1 {
        return [x[0]; 3];
    }
    let m = n + 1;
    let cut = |q: usize| {
        let j = (q * m / 4).clamp(1, n - 1);
        // `delta` may exceed 4 or go negative at the clamped ends, which
        // extrapolates exactly as the Python implementation does.
        let delta = (q * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Median of a sample.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_sample() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.n, s.min, s.max), (5, 1.0, 5.0));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
    }

    #[test]
    fn even_sample() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        // statistics.quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        let s = Summary::of(&[1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0]);
        // statistics.quantiles(that, n=4) == [3.5, 13.5, 31.0]
        assert_eq!((s.q1, s.median, s.q3), (3.5, 13.5, 31.0));
    }

    #[test]
    fn tiny_samples() {
        let s = Summary::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
        let s = Summary::of(&[1.0, 3.0]);
        // statistics.quantiles([1,3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.spread(), 1.0);
        assert_eq!(median(&[2.0, 9.0, 4.0]), 4.0);
    }
}
