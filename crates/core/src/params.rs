//! Parameter types for the three approximation techniques.
//!
//! These mirror the clause arguments of the paper's pragmas:
//! `memo(out : hsize : psize : threshold)` for TAF,
//! `memo(in : tsize : threshold : tperwarp)` for iACT, and
//! `perfo(kind : rate)` for loop perforation.

/// TAF (Temporal Approximate Function memoization) parameters.
///
/// TAF watches a sliding window of the region's last `hsize` outputs; when
/// their relative standard deviation (RSD = σ/μ) drops below `threshold` the
/// state machine enters a *stable regime* and the next `psize` invocations
/// return the last accurately computed output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TafParams {
    /// History size: outputs in the sliding window.
    pub hsize: usize,
    /// Prediction size: invocations approximated per stable regime.
    pub psize: usize,
    /// RSD threshold below which the regime is considered stable.
    pub threshold: f64,
}

impl TafParams {
    pub fn new(hsize: usize, psize: usize, threshold: f64) -> Self {
        TafParams {
            hsize,
            psize,
            threshold,
        }
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.hsize == 0 {
            return Err("TAF history size must be >= 1".into());
        }
        if self.psize == 0 {
            return Err("TAF prediction size must be >= 1".into());
        }
        if u32::try_from(self.psize).is_err() {
            return Err(format!(
                "TAF prediction size must be at most {}, got {}",
                u32::MAX,
                self.psize
            ));
        }
        if !self.threshold.is_finite() || self.threshold < 0.0 {
            return Err(format!(
                "TAF threshold must be finite and >= 0, got {}",
                self.threshold
            ));
        }
        Ok(())
    }

    /// Upper bound on the fraction of invocations a thread can approximate:
    /// after each stable window of `hsize` accurate runs, `psize` invocations
    /// are predicted.
    pub fn max_approx_fraction(&self) -> f64 {
        self.psize as f64 / (self.psize + self.hsize) as f64
    }
}

/// Replacement policy for iACT memoization tables. The paper uses
/// round-robin and notes (footnote 3) that CLOCK made no difference; both
/// are implemented so that claim can be checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Replacement {
    #[default]
    RoundRobin,
    Clock,
}

/// iACT (approximate input memoization) parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IactParams {
    /// Entries per memoization table.
    pub tsize: usize,
    /// Euclidean-distance threshold for a cache hit.
    pub threshold: f64,
    /// Tables per warp. `warp_size` tables = private per-thread tables
    /// (the CPU-HPAC default); 1 = one table shared by the whole warp.
    pub tables_per_warp: u32,
    pub replacement: Replacement,
}

impl IactParams {
    pub fn new(tsize: usize, threshold: f64) -> Self {
        IactParams {
            tsize,
            threshold,
            // Default matches the paper: "The warp size is the default
            // value, yielding one independent table for each thread."
            // u32::MAX is clamped to the device's warp size at launch.
            tables_per_warp: u32::MAX,
            replacement: Replacement::RoundRobin,
        }
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.tsize == 0 {
            return Err("iACT table size must be >= 1".into());
        }
        if !self.threshold.is_finite() || self.threshold < 0.0 {
            return Err(format!(
                "iACT threshold must be finite and >= 0, got {}",
                self.threshold
            ));
        }
        if self.tables_per_warp == 0 {
            return Err("iACT tables per warp must be >= 1".into());
        }
        Ok(())
    }

    /// Tables per warp clamped to the device warp size; must divide the
    /// warp size so every table serves an equal lane group.
    pub fn effective_tables_per_warp(&self, warp_size: u32) -> Result<u32, String> {
        let t = self.tables_per_warp.min(warp_size);
        if !warp_size.is_multiple_of(t) {
            return Err(format!(
                "tables per warp ({t}) must divide the warp size ({warp_size})"
            ));
        }
        Ok(t)
    }
}

/// Loop perforation kinds (§2.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PerfoKind {
    /// Skip one of every `m` iterations.
    Small { m: u32 },
    /// Execute one of every `m` iterations.
    Large { m: u32 },
    /// Skip the first `fraction` of the iteration space (bounds change).
    Ini { fraction: f64 },
    /// Skip the last `fraction` of the iteration space (bounds change).
    Fini { fraction: f64 },
}

/// Perforation parameters. `herded` selects the paper's divergence-free
/// variant where every thread in the grid drops the same grid-stride steps
/// (§3.1.5); it only affects `Small`/`Large` (ini/fini are bounds changes
/// and never diverge).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfoParams {
    pub kind: PerfoKind,
    pub herded: bool,
}

impl PerfoParams {
    pub fn new(kind: PerfoKind) -> Self {
        // Herded is hpac-offload's default GPU design.
        PerfoParams { kind, herded: true }
    }

    pub fn validate(&self) -> Result<(), String> {
        match self.kind {
            PerfoKind::Small { m } | PerfoKind::Large { m } => {
                if m < 2 {
                    return Err(format!("perforation rate must be >= 2, got {m}"));
                }
            }
            PerfoKind::Ini { fraction } | PerfoKind::Fini { fraction } => {
                if !(0.0..1.0).contains(&fraction) || fraction <= 0.0 {
                    return Err(format!(
                        "ini/fini fraction must be in (0, 1), got {fraction}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Fraction of iterations dropped by this pattern.
    pub fn drop_fraction(&self) -> f64 {
        match self.kind {
            PerfoKind::Small { m } => 1.0 / m as f64,
            PerfoKind::Large { m } => 1.0 - 1.0 / m as f64,
            PerfoKind::Ini { fraction } | PerfoKind::Fini { fraction } => fraction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taf_validation() {
        assert!(TafParams::new(5, 8, 0.5).validate().is_ok());
        assert!(TafParams::new(0, 8, 0.5).validate().is_err());
        assert!(TafParams::new(5, 0, 0.5).validate().is_err());
        assert!(TafParams::new(5, u32::MAX as usize, 0.5).validate().is_ok());
        assert!(TafParams::new(5, u32::MAX as usize + 1, 0.5)
            .validate()
            .is_err());
        assert!(TafParams::new(5, 8, -1.0).validate().is_err());
        assert!(TafParams::new(5, 8, f64::NAN).validate().is_err());
    }

    #[test]
    fn taf_max_approx_fraction() {
        let p = TafParams::new(1, 511, 0.5);
        assert!((p.max_approx_fraction() - 511.0 / 512.0).abs() < 1e-12);
    }

    #[test]
    fn iact_validation() {
        assert!(IactParams::new(4, 0.5).validate().is_ok());
        assert!(IactParams::new(0, 0.5).validate().is_err());
        assert!(IactParams::new(4, -0.5).validate().is_err());
    }

    #[test]
    fn iact_tables_per_warp_divides_warp() {
        let mut p = IactParams::new(4, 0.5);
        p.tables_per_warp = 16;
        assert_eq!(p.effective_tables_per_warp(32).unwrap(), 16);
        assert_eq!(p.effective_tables_per_warp(64).unwrap(), 16);
        p.tables_per_warp = 3;
        assert!(p.effective_tables_per_warp(32).is_err());
    }

    #[test]
    fn iact_default_is_private_tables() {
        let p = IactParams::new(4, 0.5);
        assert_eq!(p.effective_tables_per_warp(32).unwrap(), 32);
        assert_eq!(p.effective_tables_per_warp(64).unwrap(), 64);
    }

    #[test]
    fn perfo_validation() {
        assert!(PerfoParams::new(PerfoKind::Small { m: 4 })
            .validate()
            .is_ok());
        assert!(PerfoParams::new(PerfoKind::Small { m: 1 })
            .validate()
            .is_err());
        assert!(PerfoParams::new(PerfoKind::Ini { fraction: 0.3 })
            .validate()
            .is_ok());
        assert!(PerfoParams::new(PerfoKind::Ini { fraction: 1.0 })
            .validate()
            .is_err());
        assert!(PerfoParams::new(PerfoKind::Fini { fraction: 0.0 })
            .validate()
            .is_err());
    }

    #[test]
    fn perfo_drop_fractions() {
        assert_eq!(
            PerfoParams::new(PerfoKind::Small { m: 4 }).drop_fraction(),
            0.25
        );
        assert_eq!(
            PerfoParams::new(PerfoKind::Large { m: 4 }).drop_fraction(),
            0.75
        );
        assert_eq!(
            PerfoParams::new(PerfoKind::Ini { fraction: 0.2 }).drop_fraction(),
            0.2
        );
    }
}
