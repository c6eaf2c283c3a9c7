//! The `#pragma approx` surface: a builder describing one approximated code
//! region.
//!
//! An [`ApproxRegion`] carries exactly the information HPAC-Offload's Clang
//! extension lowers from the pragma clauses: which technique, its parameters,
//! and the `level(hierarchy)` decision scope (§3.2).

use crate::hierarchy::HierarchyLevel;
use crate::params::{IactParams, PerfoKind, PerfoParams, Replacement, TafParams};
use gpu_sim::LaunchError;

/// The approximation technique selected for a region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Technique {
    /// `memo(out:hsize:psize:threshold)` — TAF output memoization.
    Taf(TafParams),
    /// `memo(in:tsize:threshold:tperwarp)` — iACT input memoization.
    Iact(IactParams),
    /// `perfo(kind:rate)` — loop perforation.
    Perfo(PerfoParams),
}

impl Technique {
    pub fn name(&self) -> &'static str {
        match self {
            Technique::Taf(_) => "TAF",
            Technique::Iact(_) => "iACT",
            Technique::Perfo(_) => "Perfo",
        }
    }
}

/// Errors raised when building or launching an approximated region.
#[derive(Debug, Clone, PartialEq)]
pub enum RegionError {
    /// The region parameters are invalid or incompatible with the body
    /// (e.g. iACT on a region with non-uniform input sizes — the paper's
    /// MiniFE case).
    Invalid(String),
    /// The underlying kernel launch was rejected (geometry or shared
    /// memory, including AC state that does not fit).
    Launch(LaunchError),
    /// Execution was abandoned because the modeled cost already exceeds
    /// the caller's ceiling (`ExecOptions::abort_above_seconds`): the run
    /// provably cannot beat the configuration the ceiling was derived from.
    CostCeiling(f64),
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionError::Invalid(msg) => write!(f, "invalid approx region: {msg}"),
            RegionError::Launch(e) => write!(f, "launch failed: {e}"),
            RegionError::CostCeiling(s) => {
                write!(f, "aborted: modeled cost exceeds ceiling of {s:.3e}s")
            }
        }
    }
}

impl std::error::Error for RegionError {}

impl From<LaunchError> for RegionError {
    fn from(e: LaunchError) -> Self {
        RegionError::Launch(e)
    }
}

/// A fully specified approximated region — the analogue of one
/// `#pragma approx ...` annotation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxRegion {
    pub technique: Technique,
    pub level: HierarchyLevel,
}

impl ApproxRegion {
    /// `#pragma approx memo(out : hsize : psize : threshold)` — TAF.
    pub fn memo_out(hsize: usize, psize: usize, threshold: f64) -> Self {
        ApproxRegion {
            technique: Technique::Taf(TafParams::new(hsize, psize, threshold)),
            level: HierarchyLevel::Thread,
        }
    }

    /// `#pragma approx memo(in : tsize : threshold)` — iACT with the default
    /// one-table-per-thread sharing.
    pub fn memo_in(tsize: usize, threshold: f64) -> Self {
        ApproxRegion {
            technique: Technique::Iact(IactParams::new(tsize, threshold)),
            level: HierarchyLevel::Thread,
        }
    }

    /// `#pragma approx perfo(kind : rate)` — loop perforation (herded, the
    /// GPU-aware default; use [`ApproxRegion::herded`] to toggle).
    pub fn perfo(kind: PerfoKind) -> Self {
        ApproxRegion {
            technique: Technique::Perfo(PerfoParams::new(kind)),
            level: HierarchyLevel::Thread,
        }
    }

    /// The `level(hierarchy)` clause.
    pub fn level(mut self, level: HierarchyLevel) -> Self {
        self.level = level;
        self
    }

    /// The `tperwarp` clause argument (iACT only; validated in
    /// [`ApproxRegion::validate`]).
    pub fn tables_per_warp(mut self, t: u32) -> Self {
        if let Technique::Iact(ref mut p) = self.technique {
            p.tables_per_warp = t;
        }
        self
    }

    /// Replacement policy for iACT tables.
    pub fn replacement(mut self, r: Replacement) -> Self {
        if let Technique::Iact(ref mut p) = self.technique {
            p.replacement = r;
        }
        self
    }

    /// Toggle herded perforation (perfo only). Herded is the default.
    pub fn herded(mut self, herded: bool) -> Self {
        if let Technique::Perfo(ref mut p) = self.technique {
            p.herded = herded;
        }
        self
    }

    /// Validate parameter combinations (clause-level checks; body- and
    /// device-dependent checks happen at launch).
    pub fn validate(&self) -> Result<(), RegionError> {
        match &self.technique {
            Technique::Taf(p) => p.validate().map_err(RegionError::Invalid),
            Technique::Iact(p) => p.validate().map_err(RegionError::Invalid),
            Technique::Perfo(p) => {
                p.validate().map_err(RegionError::Invalid)?;
                if self.level != HierarchyLevel::Thread {
                    return Err(RegionError::Invalid(
                        "perforation patterns are data-independent; level(warp|block) \
                         does not apply to perfo regions"
                            .into(),
                    ));
                }
                Ok(())
            }
        }
    }

    pub fn technique_name(&self) -> &'static str {
        self.technique.name()
    }

    /// Exact-bit fingerprint of the region as `u64` words: technique and
    /// level discriminants plus every parameter's bit pattern. Two regions
    /// with equal fingerprints behave identically on any body and launch,
    /// which lets the harness dedup grid points whose launch shapes also
    /// coincide.
    pub fn fingerprint_words(&self) -> Vec<u64> {
        let level = self.level as u64;
        match &self.technique {
            Technique::Taf(p) => vec![
                1,
                p.hsize as u64,
                p.psize as u64,
                p.threshold.to_bits(),
                level,
            ],
            Technique::Iact(p) => vec![
                2,
                p.tsize as u64,
                p.threshold.to_bits(),
                p.tables_per_warp as u64,
                match p.replacement {
                    Replacement::RoundRobin => 0,
                    Replacement::Clock => 1,
                },
                level,
            ],
            Technique::Perfo(p) => {
                let (kind, arg) = match p.kind {
                    PerfoKind::Small { m } => (0u64, m as u64),
                    PerfoKind::Large { m } => (1, m as u64),
                    PerfoKind::Ini { fraction } => (2, fraction.to_bits()),
                    PerfoKind::Fini { fraction } => (3, fraction.to_bits()),
                };
                vec![3, kind, arg, p.herded as u64, level]
            }
        }
    }

    /// Where [`ApproxRegion::fingerprint_words`] puts the words a run reads
    /// only through comparisons: the activation threshold and, for TAF, the
    /// prediction size. Empty for perforation, which compares neither.
    fn compared_words(&self) -> &'static [usize] {
        match self.technique {
            Technique::Taf(_) => &[2, 3],
            Technique::Iact(_) => &[2],
            Technique::Perfo(_) => &[],
        }
    }

    /// Where the region sits in its *family*, and the fingerprint with the
    /// compared words removed: regions with equal second halves differ in
    /// threshold and prediction size alone, which a run reads only through
    /// the comparisons its [`DecisionMargins`](gpu_sim::DecisionMargins)
    /// record. `None` for perforation.
    pub fn family(&self) -> Option<(FamilyPoint, Vec<u64>)> {
        let point = match self.technique {
            Technique::Taf(p) => FamilyPoint {
                threshold: p.threshold,
                psize: Some(p.psize),
            },
            Technique::Iact(p) => FamilyPoint {
                threshold: p.threshold,
                psize: None,
            },
            Technique::Perfo(_) => return None,
        };
        let mut words = self.fingerprint_words();
        for &at in self.compared_words().iter().rev() {
            words.remove(at);
        }
        Some((point, words))
    }
}

/// A region's values of the parameters a run reads only through
/// comparisons: the activation threshold, and TAF's prediction size (`None`
/// for iACT, which has none).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FamilyPoint {
    pub threshold: f64,
    pub psize: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_set_fields() {
        let r = ApproxRegion::memo_in(2, 0.5)
            .tables_per_warp(4)
            .level(HierarchyLevel::Warp);
        match r.technique {
            Technique::Iact(p) => {
                assert_eq!(p.tsize, 2);
                assert_eq!(p.tables_per_warp, 4);
            }
            _ => panic!("expected iACT"),
        }
        assert_eq!(r.level, HierarchyLevel::Warp);
        assert!(r.validate().is_ok());
    }

    #[test]
    fn taf_builder_matches_fig5_line13() {
        // #pragma approx memo(out:3:5:1.5f) level(thread)
        let r = ApproxRegion::memo_out(3, 5, 1.5).level(HierarchyLevel::Thread);
        match r.technique {
            Technique::Taf(p) => {
                assert_eq!(p.hsize, 3);
                assert_eq!(p.psize, 5);
                assert_eq!(p.threshold, 1.5);
            }
            _ => panic!("expected TAF"),
        }
        assert!(r.validate().is_ok());
    }

    #[test]
    fn tables_per_warp_ignored_for_taf() {
        let r = ApproxRegion::memo_out(3, 5, 1.5).tables_per_warp(4);
        assert!(matches!(r.technique, Technique::Taf(_)));
    }

    #[test]
    fn invalid_params_rejected() {
        let r = ApproxRegion::memo_out(0, 5, 1.5);
        assert!(matches!(r.validate(), Err(RegionError::Invalid(_))));
    }

    #[test]
    fn perfo_rejects_group_levels() {
        let r = ApproxRegion::perfo(PerfoKind::Small { m: 4 }).level(HierarchyLevel::Warp);
        assert!(r.validate().is_err());
        let ok = ApproxRegion::perfo(PerfoKind::Small { m: 4 });
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn perfo_herded_default_and_toggle() {
        let r = ApproxRegion::perfo(PerfoKind::Large { m: 8 });
        match r.technique {
            Technique::Perfo(p) => assert!(p.herded),
            _ => unreachable!(),
        }
        let r = r.herded(false);
        match r.technique {
            Technique::Perfo(p) => assert!(!p.herded),
            _ => unreachable!(),
        }
    }

    #[test]
    fn technique_names() {
        assert_eq!(ApproxRegion::memo_out(1, 2, 0.5).technique_name(), "TAF");
        assert_eq!(ApproxRegion::memo_in(1, 0.5).technique_name(), "iACT");
        assert_eq!(
            ApproxRegion::perfo(PerfoKind::Ini { fraction: 0.1 }).technique_name(),
            "Perfo"
        );
    }

    #[test]
    fn fingerprints_separate_distinct_regions() {
        let a = ApproxRegion::memo_out(3, 5, 1.5);
        let b = ApproxRegion::memo_out(3, 5, 1.5);
        assert_eq!(a.fingerprint_words(), b.fingerprint_words());
        assert_ne!(
            a.fingerprint_words(),
            ApproxRegion::memo_out(3, 5, 1.0).fingerprint_words()
        );
        assert_ne!(
            a.fingerprint_words(),
            a.level(HierarchyLevel::Warp).fingerprint_words()
        );
        assert_ne!(
            ApproxRegion::memo_in(3, 1.5).fingerprint_words(),
            ApproxRegion::memo_in(3, 1.5)
                .tables_per_warp(4)
                .fingerprint_words()
        );
        assert_ne!(
            ApproxRegion::perfo(PerfoKind::Small { m: 4 }).fingerprint_words(),
            ApproxRegion::perfo(PerfoKind::Large { m: 4 }).fingerprint_words()
        );
    }

    #[test]
    fn threshold_family_splits_the_fingerprint_at_the_threshold() {
        let regions = [
            ApproxRegion::memo_out(3, 5, 1.5).level(HierarchyLevel::Warp),
            ApproxRegion::memo_in(4, 0.25)
                .tables_per_warp(2)
                .replacement(Replacement::Clock),
        ];
        for r in regions {
            let (point, mut words) = r.family().expect("memoizing technique");
            let (threshold, psize) = match r.technique {
                Technique::Taf(p) => (p.threshold, Some(p.psize)),
                Technique::Iact(p) => (p.threshold, None),
                Technique::Perfo(_) => unreachable!(),
            };
            assert_eq!(point.threshold.to_bits(), threshold.to_bits());
            assert_eq!(point.psize, psize);
            let compared = r.compared_words();
            let values = psize
                .map(|p| p as u64)
                .into_iter()
                .chain([threshold.to_bits()]);
            for (&at, value) in compared.iter().zip(values) {
                words.insert(at, value);
            }
            assert_eq!(words, r.fingerprint_words());
        }
        // Siblings share the family words across threshold and psize; any
        // other parameter separates them.
        let family = |r: ApproxRegion| r.family().unwrap().1;
        assert_eq!(
            family(ApproxRegion::memo_out(3, 5, 1.5)),
            family(ApproxRegion::memo_out(3, 512, 20.0))
        );
        assert_ne!(
            family(ApproxRegion::memo_out(3, 5, 1.5)),
            family(ApproxRegion::memo_out(2, 5, 1.5))
        );
        assert_ne!(
            family(ApproxRegion::memo_out(3, 5, 1.5)),
            family(ApproxRegion::memo_out(3, 5, 1.5).level(HierarchyLevel::Block))
        );
        assert_ne!(
            family(ApproxRegion::memo_in(3, 1.5)),
            family(ApproxRegion::memo_out(3, 5, 1.5))
        );
        assert!(ApproxRegion::perfo(PerfoKind::Small { m: 4 })
            .family()
            .is_none());
    }

    #[test]
    fn error_display() {
        let e = RegionError::Invalid("bad".into());
        assert!(e.to_string().contains("bad"));
    }
}
