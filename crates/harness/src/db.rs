//! The harness results database: one row per executed configuration, held
//! in memory and queried by the figure generators. Figures write their CSV
//! through `FigureData::save_csv`.

/// One run scored against its (benchmark, platform) baseline: a sweep's
/// configuration, a re-executed tuned plan, or a figure's variant. Every row
/// comes from [`Baseline::score`], so speedups share one timing basis per
/// benchmark (kernel-only for Blackscholes, end-to-end for the rest) and
/// errors one metric.
///
/// [`Baseline::score`]: crate::runner::Baseline::score
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub benchmark: String,
    pub device: String,
    /// "TAF", "iACT", "Perfo", or "accurate" for the baseline row.
    pub technique: String,
    /// Human-readable parameter description (`space::SweepConfig::label`).
    pub config: String,
    pub items_per_thread: usize,
    /// The baseline's seconds over this run's, on the benchmark's timing
    /// basis (exactly 1.0 for the baseline run itself).
    pub speedup: f64,
    /// QoI error against the baseline's, in percent (MAPE × 100 or
    /// MCR × 100; exactly 0.0 for the baseline run itself).
    pub error_pct: f64,
    /// Fraction of region executions approximated (incl. perforated).
    pub approx_fraction: f64,
    /// Fraction of warp steps that serialized both paths.
    pub divergent_fraction: f64,
    pub kernel_seconds: f64,
    pub end_to_end_seconds: f64,
    /// Solver iterations, when the benchmark reports them (K-Means).
    pub iterations: Option<usize>,
}

/// A collection of result rows with a query helper.
#[derive(Debug, Clone, Default)]
pub struct ResultsDb {
    pub rows: Vec<Row>,
}

impl ResultsDb {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn extend(&mut self, rows: impl IntoIterator<Item = Row>) {
        self.rows.extend(rows);
    }

    /// Rows for one benchmark/device/technique.
    pub fn select(&self, benchmark: &str, device: &str, technique: &str) -> Vec<&Row> {
        self.rows
            .iter()
            .filter(|r| r.benchmark == benchmark && r.device == device && r.technique == technique)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Row {
        Row {
            benchmark: "LULESH".into(),
            device: "V100".into(),
            technique: "TAF".into(),
            config: "h=5 p=32 thr=0.9, lvl=warp".into(),
            items_per_thread: 64,
            speedup: 1.42,
            error_pct: 0.67,
            approx_fraction: 0.8,
            divergent_fraction: 0.01,
            kernel_seconds: 1e-3,
            end_to_end_seconds: 2e-3,
            iterations: None,
        }
    }

    #[test]
    fn select_filters() {
        let mut other = sample();
        other.technique = "iACT".into();
        let mut db = ResultsDb::new();
        db.extend([sample(), other]);
        assert_eq!(db.select("LULESH", "V100", "TAF").len(), 1);
        assert_eq!(db.select("LULESH", "V100", "iACT").len(), 1);
        assert_eq!(db.select("LULESH", "MI250X", "TAF").len(), 0);
    }
}
