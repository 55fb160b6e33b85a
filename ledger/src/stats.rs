//! Medians and per-value best times.

/// Median of `xs` (mean of the middle pair for an even count); `NaN` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Per-value latency: each value's best time over all the times it was
/// measured. Taking the best of several spaced-out measurements removes the
/// interrupts and preemptions a shared host adds to single samples, so the
/// percentiles describe the conversion, value by value.
#[derive(Debug, Clone)]
pub struct BestTimes {
    best: Vec<u64>,
    samples: u64,
}

impl BestTimes {
    pub fn new(values: usize) -> Self {
        BestTimes {
            best: vec![u64::MAX; values],
            samples: 0,
        }
    }

    pub fn record(&mut self, value: usize, ns: u64) {
        self.best[value] = self.best[value].min(ns);
        self.samples += 1;
    }

    /// Timed calls in total.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Nearest-rank quantile `q` of the values measured at least once.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut times: Vec<u64> = self
            .best
            .iter()
            .copied()
            .filter(|&t| t != u64::MAX)
            .collect();
        if times.is_empty() {
            return f64::NAN;
        }
        times.sort_unstable();
        let rank = ((q * times.len() as f64).ceil() as usize).clamp(1, times.len());
        times[rank - 1] as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let mut t = BestTimes::new(1001);
        for i in 0..1000 {
            t.record(i, i as u64 + 1);
            t.record(i, i as u64 + 50);
        }
        assert_eq!(t.samples(), 2000);
        assert_eq!(t.quantile(0.5), 500.0);
        assert_eq!(t.quantile(0.999), 999.0);
        assert_eq!(t.quantile(1.0), 1000.0);
    }
}
