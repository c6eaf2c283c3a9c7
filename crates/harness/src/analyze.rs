//! Analysis over harness results: the paper's headline queries.

use crate::db::Row;

/// Best (highest-speedup) row with error at or under `cap_pct` percent — the
/// query behind Fig 6 ("Highest speedup where error is less than 10%"). The
/// cap is inclusive, as the tuner's bound is
/// (`hpac_tuner::ParetoFrontier::best_under`), so both read the same optimum.
pub fn best_under_error<'a>(rows: &[&'a Row], cap_pct: f64) -> Option<&'a Row> {
    rows.iter()
        .filter(|r| r.error_pct <= cap_pct && r.error_pct.is_finite())
        .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
        .copied()
}

/// The paper's overplot reduction (§4): "we divide the error range for each
/// benchmark into ten equally-sized intervals. For each interval, we show
/// the fastest and slowest 10% of configurations." Returns, per interval,
/// the retained rows.
pub fn decile_bins<'a>(rows: &[&'a Row], n_bins: usize) -> Vec<Vec<&'a Row>> {
    let finite: Vec<&Row> = rows
        .iter()
        .filter(|r| r.error_pct.is_finite())
        .copied()
        .collect();
    if finite.is_empty() {
        return vec![Vec::new(); n_bins];
    }
    let lo = finite
        .iter()
        .map(|r| r.error_pct)
        .fold(f64::INFINITY, f64::min);
    let hi = finite
        .iter()
        .map(|r| r.error_pct)
        .fold(f64::NEG_INFINITY, f64::max);
    let width = ((hi - lo) / n_bins as f64).max(f64::MIN_POSITIVE);

    let mut bins: Vec<Vec<&Row>> = vec![Vec::new(); n_bins];
    for r in finite {
        let b = (((r.error_pct - lo) / width) as usize).min(n_bins - 1);
        bins[b].push(r);
    }
    for bin in &mut bins {
        bin.sort_by(|a, b| a.speedup.total_cmp(&b.speedup));
        let keep = (bin.len().div_ceil(10)).max(1.min(bin.len()));
        if bin.len() > 2 * keep {
            let slowest: Vec<&Row> = bin[..keep].to_vec();
            let fastest: Vec<&Row> = bin[bin.len() - keep..].to_vec();
            *bin = slowest.into_iter().chain(fastest).collect();
        }
    }
    bins
}

/// Least-squares linear fit `y ≈ slope·x + intercept`, with R² — Fig 12c's
/// convergence-speedup vs time-speedup correlation.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if xs.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return (0.0, my, if syy == 0.0 { 1.0 } else { 0.0 });
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = (sxy * sxy) / (sxx * syy);
    (slope, intercept, r2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(speedup: f64, error_pct: f64) -> Row {
        Row {
            benchmark: "X".into(),
            device: "V100".into(),
            technique: "TAF".into(),
            config: String::new(),
            items_per_thread: 8,
            speedup,
            error_pct,
            approx_fraction: 0.0,
            divergent_fraction: 0.0,
            kernel_seconds: 0.0,
            end_to_end_seconds: 0.0,
            iterations: None,
        }
    }

    #[test]
    fn best_under_error_respects_cap() {
        let rows = [row(3.0, 15.0), row(2.5, 10.0), row(2.0, 5.0), row(1.5, 1.0)];
        let refs: Vec<&Row> = rows.iter().collect();
        let best = best_under_error(&refs, 10.0).unwrap();
        assert_eq!(best.speedup, 2.5, "a row at the cap is under it");
    }

    #[test]
    fn best_under_error_ignores_infinite() {
        let rows = [row(9.0, f64::INFINITY), row(1.2, 2.0)];
        let refs: Vec<&Row> = rows.iter().collect();
        assert_eq!(best_under_error(&refs, 10.0).unwrap().speedup, 1.2);
    }

    #[test]
    fn best_under_error_none_when_all_bad() {
        let rows = [row(9.0, 99.0)];
        let refs: Vec<&Row> = rows.iter().collect();
        assert!(best_under_error(&refs, 10.0).is_none());
    }

    #[test]
    fn decile_bins_cover_range() {
        let rows: Vec<Row> = (0..100)
            .map(|i| row(1.0 + i as f64 / 100.0, i as f64))
            .collect();
        let refs: Vec<&Row> = rows.iter().collect();
        let bins = decile_bins(&refs, 10);
        assert_eq!(bins.len(), 10);
        let total: usize = bins.iter().map(|b| b.len()).sum();
        assert!(
            total >= 20,
            "must keep fastest+slowest per bin, kept {total}"
        );
        assert!(total < 100, "must discard the middle, kept {total}");
    }

    #[test]
    fn perfect_line_has_r2_one() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let (slope, intercept, r2) = linear_fit(&xs, &ys);
        assert!((slope - 2.0).abs() < 1e-12);
        assert!((intercept - 1.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_data_has_lower_r2() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.0, 3.0, 1.0, 4.0];
        let (_, _, r2) = linear_fit(&xs, &ys);
        assert!(r2 < 0.9);
        assert!(r2 > 0.0);
    }
}
