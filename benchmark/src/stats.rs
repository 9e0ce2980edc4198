//! Sample statistics shared by the benchmark and `bench-compare`.

/// Median and quartiles of a sample.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles by the "exclusive" method of Python's
    /// `statistics.quantiles(values, n=4)`, the spread a reader of the
    /// results is expected to recompute. One value is its own quartiles.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "a summary needs at least one value");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 1 {
            return Summary {
                median: v[0],
                q1: v[0],
                q3: v[0],
                n,
            };
        }
        let quartile = |i: usize| {
            let m = (n + 1) * i;
            let j = (m / 4).clamp(1, n - 1);
            let delta = m as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        Summary {
            median,
            q1: quartile(1),
            q3: quartile(3),
            n,
        }
    }

    /// The interquartile range as a share of the median (0 for a zero
    /// median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `p`-th percentile (0–100) by nearest rank; 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of a sample; 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        Summary::of(values).median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
