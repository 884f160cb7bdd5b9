//! Order statistics with an explicit sample-size rule.

/// Fewest samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q ∈ (0, 1]` of ascending `sorted` samples, or
/// `None` ("insufficient samples") when fewer than [`MIN_BEYOND`] samples
/// lie above the chosen rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Nearest-rank quantile `q ∈ [0, 1]` of ascending `sorted` samples, with
/// no sample-size rule (for quantiles across windows, not requests).
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    (n > 0).then(|| sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1])
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of any sample (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle: sort, then index by the nearest-rank definition.
    fn oracle(values: &[f64], q: f64) -> f64 {
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = (q * v.len() as f64).ceil() as usize;
        v[rank.max(1) - 1]
    }

    #[test]
    fn matches_the_sorted_sample_oracle() {
        let mut rng = crate::gen::Rng::new(1);
        for n in [20usize, 101, 1000, 4321] {
            let values: Vec<f64> = (0..n).map(|_| rng.unit() * 1e3).collect();
            let s = sorted(&values);
            for q in [0.5, 0.9, 0.99] {
                if let Some(p) = percentile(&s, q) {
                    assert_eq!(p, oracle(&values, q), "n {n} q {q}");
                }
            }
        }
    }

    #[test]
    fn reports_insufficient_samples_below_ten_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&s, 0.95), None, "only 5 samples above p95");
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), Some(990.0));
        assert_eq!(percentile(&big, 0.999), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn nearest_rank_has_no_sample_size_rule() {
        let s: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.25), Some(2.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(8.0));
        assert_eq!(nearest_rank(&[], 0.25), None);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
