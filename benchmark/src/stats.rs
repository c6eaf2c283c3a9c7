//! Order statistics over small sample sets: medians, quartiles,
//! percentiles, and the "highest percentile with at least ten samples
//! beyond it" tail rule.

/// Percentiles the tail rule chooses from, ascending, each with the `k` for
/// which one sample in `k` lies beyond it.
const TAIL_LADDER: [(f64, usize); 6] = [
    (50.0, 2),
    (90.0, 10),
    (95.0, 20),
    (99.0, 100),
    (99.9, 1_000),
    (99.99, 10_000),
];

/// Samples that must lie beyond a percentile for it to be reported.
const TAIL_MIN_BEYOND: usize = 10;

pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample; 0 for an empty one.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// `(q1, q2, q3)` as Python's `statistics.quantiles(xs, n=4)` computes them
/// (the "exclusive" method) — the driver that accepts this benchmark uses
/// that function, so spreads computed here match the ones it sees. A single
/// sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median — the run-to-run spread
/// every bound in `BENCHMARK.json` is compared against.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The `p`-th percentile (0..=100) of an ascending sample by linear
/// interpolation between closest ranks; 0 for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The highest ladder percentile that still has at least ten samples beyond
/// it, with its value: `(percentile, value)`. A sample too small for even
/// the median to qualify reports the median anyway, labelled 50.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let p = TAIL_LADDER
        .iter()
        .rev()
        .find(|(_, k)| sorted.len() >= TAIL_MIN_BEYOND * k)
        .map_or(50.0, |(p, _)| *p);
    (p, percentile(sorted, p))
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Geometric mean from a sum of natural logs over `n` values; 1 when empty.
pub fn geomean_from_ln(ln_sum: f64, n: u64) -> f64 {
    if n == 0 {
        1.0
    } else {
        (ln_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 50.0), 30.0);
        assert_eq!(percentile(&xs, 100.0), 50.0);
        assert_eq!(percentile(&xs, 62.5), 35.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ramp = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: 9.5 beyond the median — not even p50 qualifies.
        assert_eq!(tail(&ramp(19)).0, 50.0);
        // 100 samples: exactly 10 beyond p90, only 5 beyond p95.
        assert_eq!(tail(&ramp(100)).0, 90.0);
        // 1000 samples: exactly 10 beyond p99, 1 beyond p99.9.
        assert_eq!(tail(&ramp(1000)).0, 99.0);
        assert_eq!(tail(&ramp(999)).0, 95.0);
        assert_eq!(tail(&ramp(100_000)).0, 99.99);
        let (p, v) = tail(&ramp(1001));
        assert_eq!((p, v), (99.0, 990.0));
    }

    #[test]
    fn geomean_from_logs() {
        let g = geomean_from_ln(2.0f64.ln() + 8.0f64.ln(), 2);
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean_from_ln(0.0, 0), 1.0);
    }
}
