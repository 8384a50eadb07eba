//! Order statistics and the ways per-cell figures are combined.

/// Samples sorted ascending (NaNs last).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); 0 if empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Arithmetic mean; 0 if empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Percentiles tried for the tail, in tenths of a percent, highest first.
const TAIL_CANDIDATES: [usize; 8] = [999, 995, 990, 980, 950, 900, 800, 750];

/// The highest percentile in [`TAIL_CANDIDATES`] that leaves at least ten
/// samples above it, by nearest rank, with its value. Below forty samples
/// there is no tail worth the name and the median is returned as p50.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    if n >= 40 {
        let v = sorted(samples);
        for p in TAIL_CANDIDATES {
            let rank = (p * n).div_ceil(1000);
            if rank >= 1 && n - rank >= 10 {
                return (p as f64 / 10.0, v[rank - 1]);
            }
        }
    }
    (50.0, median(samples))
}

/// Geometric mean of positive values; 0 if empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mean_matches_hand_values() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 1..=100: p95 has rank 95 and only 5 beyond; p90 has rank 90 and
        // exactly 10 beyond, so p90 = 90.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        // 1000 samples: p99 has rank 990 and 10 beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        // 200 samples: p95 has rank 190 and 10 beyond.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), (95.0, 190.0));
        // 50 samples: p80 has rank 40 and 10 beyond; p90 only 5.
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&v), (80.0, 40.0));
        // Fewer than forty: the median stands in.
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 20.0));
    }

    #[test]
    fn geomean_matches_hand_values() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
