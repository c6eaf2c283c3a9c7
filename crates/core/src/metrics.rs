//! Quality-of-result metrics: MAPE, MCR, and the relative standard deviation
//! (RSD) that drives TAF's activation function.
//!
//! These are the paper's equations (1) and (2) plus the footnote-1 RSD
//! definition (population σ/μ).

/// Mean absolute percentage error between accurate and approximate outputs
/// (paper eq. 1), as a fraction (multiply by 100 for percent).
///
/// Elements where the accurate output is exactly zero are compared
/// absolutely (|diff| contributes directly), avoiding division by zero —
/// the same convention HPAC's harness uses. The terms are summed in element
/// order: error scores are compared bit for bit, and another order would
/// change their bits.
pub fn mape(accurate: &[f64], approximate: &[f64]) -> f64 {
    assert_eq!(
        accurate.len(),
        approximate.len(),
        "MAPE over mismatched lengths"
    );
    if accurate.is_empty() {
        return 0.0;
    }
    let sum: f64 = accurate
        .iter()
        .zip(approximate)
        .map(|(&a, &p)| {
            let diff = (a - p).abs();
            if a == 0.0 {
                diff
            } else {
                diff / a.abs()
            }
        })
        .sum();
    sum / accurate.len() as f64
}

/// Misclassification rate between accurate and approximate labels
/// (paper eq. 2), as a fraction.
pub fn mcr(accurate: &[u32], approximate: &[u32]) -> f64 {
    assert_eq!(
        accurate.len(),
        approximate.len(),
        "MCR over mismatched lengths"
    );
    if accurate.is_empty() {
        return 0.0;
    }
    let wrong = accurate
        .iter()
        .zip(approximate)
        .filter(|(a, p)| a != p)
        .count();
    wrong as f64 / accurate.len() as f64
}

/// Relative standard deviation σ/μ with population standard deviation
/// (paper footnote 1). Conventions for degenerate windows:
///
/// * empty or single-element windows have RSD 0 (no spread observable);
/// * a zero mean with zero spread is RSD 0 (constant zeros are stable);
/// * a zero mean with nonzero spread is RSD ∞ (never stable).
pub fn rsd(values: &[f64]) -> f64 {
    if values.len() <= 1 {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    let sigma = var.sqrt();
    if mean == 0.0 {
        if sigma == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        sigma / mean.abs()
    }
}

/// Geometric mean of positive values, used for the paper's headline
/// "geomean speedup 1.42×" aggregation.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mape_zero_on_identical() {
        let a = [1.0, 2.0, -3.0];
        assert_eq!(mape(&a, &a), 0.0);
    }

    #[test]
    fn mape_simple_case() {
        // 10% error on each of two elements
        let a = [10.0, 100.0];
        let p = [11.0, 90.0];
        assert!((mape(&a, &p) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn mape_handles_zero_accurate() {
        let a = [0.0];
        let p = [0.5];
        assert_eq!(mape(&a, &p), 0.5);
    }

    #[test]
    fn mape_empty_is_zero() {
        assert_eq!(mape(&[], &[]), 0.0);
    }

    #[test]
    fn mcr_counts_mismatches() {
        let a = [1, 2, 3, 4];
        let p = [1, 9, 3, 9];
        assert!((mcr(&a, &p) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mcr_zero_on_identical() {
        let a = [5, 5, 5];
        assert_eq!(mcr(&a, &a), 0.0);
    }

    #[test]
    fn rsd_constant_is_zero() {
        assert!(rsd(&[4.2; 10]) < 1e-12);
    }

    #[test]
    fn rsd_known_value() {
        // values {2, 4}: mean 3, sigma 1 -> RSD 1/3
        assert!((rsd(&[2.0, 4.0]) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rsd_zero_mean_nonzero_spread_is_inf() {
        assert!(rsd(&[-1.0, 1.0]).is_infinite());
    }

    #[test]
    fn rsd_all_zero_is_zero() {
        assert_eq!(rsd(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn rsd_single_is_zero() {
        assert_eq!(rsd(&[7.0]), 0.0);
    }

    #[test]
    fn geomean_of_constant() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_known() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
