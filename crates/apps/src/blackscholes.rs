//! Blackscholes — analytic European option pricing (PARSEC).
//!
//! The paper approximates "the entire price calculation of an option" and
//! reports **kernel-only** timing because 99% of end-to-end time is memory
//! allocation and host<->device transfer (§4.1). The PARSEC input replicates
//! a small base portfolio many times, giving the dataset heavy redundancy;
//! the generator here reproduces that structure with `distinct` base options
//! arranged in runs of `run_len` consecutive copies, tiled over the
//! portfolio. Whether a given launch's grid stride aligns with that period
//! determines how stable each thread's output stream is — the source of the
//! paper's "unintuitive" TAF threshold behaviour (Fig 10c).

use crate::common::{
    eval_key, grid_stride_launch_class, scoped_inputs, AppResult, Benchmark, ComputeMemo,
    LaunchParams, Prepared, QoI, RunAccumulator,
};
use gpu_sim::transfer::Direction;
use gpu_sim::{AccessPattern, CostProfile, DeviceSpec, LaunchConfig};
use hpac_core::exec::{approx_parallel_for_opts, ExecOptions, RegionBody};
use hpac_core::lane;
use hpac_core::region::{ApproxRegion, RegionError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Number of per-option parameters: spot, strike, rate, volatility, expiry.
pub const OPTION_DIMS: usize = 5;

/// Configuration for the Blackscholes benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Blackscholes {
    /// Portfolio size (number of options priced).
    pub n_options: usize,
    /// Distinct base options (PARSEC's replicated input file).
    pub distinct: usize,
    /// Consecutive copies of each base option per run.
    pub run_len: usize,
    pub seed: u64,
}

impl Default for Blackscholes {
    fn default() -> Self {
        Blackscholes {
            n_options: 131_072,
            distinct: 64,
            run_len: 64,
            seed: 0x5CCB,
        }
    }
}

impl Blackscholes {
    /// The `distinct` base options the portfolio replicates, row-major.
    fn base_options(&self) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.distinct)
            .flat_map(|_| {
                // Near-the-money portfolio (PARSEC's input stays in this
                // regime): prices are bounded away from zero so MAPE stays
                // meaningful.
                [
                    rng.gen_range(40.0..60.0), // spot
                    rng.gen_range(36.0..66.0), // strike
                    rng.gen_range(0.01..0.05), // risk-free rate
                    rng.gen_range(0.15..0.60), // volatility
                    rng.gen_range(0.25..2.00), // years to expiry
                ]
            })
            .collect()
    }

    /// The base option that option `i` copies.
    fn class_of(&self, i: usize) -> usize {
        (i % (self.distinct * self.run_len)) / self.run_len
    }

    /// Generate the portfolio in full: `OPTION_DIMS` scalars per option,
    /// row-major. A run prices from the compact [`Portfolio`] instead; this
    /// is the layout it stands for.
    pub fn generate(&self) -> Vec<f64> {
        let base = self.base_options();
        (0..self.n_options)
            .flat_map(|i| {
                let b = self.class_of(i) * OPTION_DIMS;
                base[b..b + OPTION_DIMS].iter().copied()
            })
            .collect()
    }

    /// The portfolio this run prices. It is a pure function of the four
    /// parameters below, so they key the sweep-scoped entry exactly.
    pub fn inputs(&self) -> Arc<Portfolio> {
        scoped_inputs(
            || {
                eval_key(
                    "Blackscholes",
                    &[
                        self.n_options as u64,
                        self.distinct as u64,
                        self.run_len as u64,
                        self.seed,
                    ],
                )
            },
            |shared| {
                // One period of runs, copied until the portfolio is full:
                // `class_of` without its two divisions per option.
                let period: Vec<u32> = (0..self.distinct as u32)
                    .flat_map(|b| std::iter::repeat_n(b, self.run_len))
                    .collect();
                let mut class = Vec::with_capacity(self.n_options);
                while class.len() < self.n_options {
                    let tile = period.len().min(self.n_options - class.len());
                    assert!(tile > 0, "a portfolio needs a base option and a run");
                    class.extend_from_slice(&period[..tile]);
                }
                Portfolio {
                    base: self.base_options(),
                    class,
                    memo: shared.then(|| ComputeMemo::identity(self.distinct, 1)),
                }
            },
        )
    }
}

/// Blackscholes' prepared inputs, kept the way the portfolio is generated:
/// the `distinct` base options plus, per option, the base row it copies —
/// 4 bytes an option instead of 40, and the classes a price memo needs are
/// known without hashing every row to rediscover them. When a sweep scope
/// shares the portfolio across runs it also carries that memo, one slot per
/// base option.
pub struct Portfolio {
    base: Vec<f64>,
    class: Vec<u32>,
    memo: Option<ComputeMemo>,
}

impl Portfolio {
    /// Options in the portfolio.
    pub fn len(&self) -> usize {
        self.class.len()
    }

    pub fn is_empty(&self) -> bool {
        self.class.is_empty()
    }

    /// Option `i`'s `OPTION_DIMS` parameters.
    pub fn option(&self, i: usize) -> &[f64] {
        let b = self.class[i] as usize * OPTION_DIMS;
        &self.base[b..b + OPTION_DIMS]
    }
}

impl Prepared for Portfolio {
    fn approx_bytes(&self) -> usize {
        self.base.len() * 8
            + self.class.len() * 4
            + self.memo.as_ref().map_or(0, Prepared::approx_bytes)
    }
}

/// Abramowitz–Stegun 7.1.26 error-function approximation (what the PARSEC
/// kernel's CNDF polynomial corresponds to).
fn erf_approx(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Cumulative normal distribution function.
pub fn cndf(d: f64) -> f64 {
    0.5 * (1.0 + erf_approx(d / std::f64::consts::SQRT_2))
}

/// Closed-form Black–Scholes European call price.
pub fn price_call(spot: f64, strike: f64, rate: f64, vol: f64, t: f64) -> f64 {
    let sqrt_t = t.sqrt();
    let d1 = ((spot / strike).ln() + (rate + 0.5 * vol * vol) * t) / (vol * sqrt_t);
    let d2 = d1 - vol * sqrt_t;
    spot * cndf(d1) - strike * (-rate * t).exp() * cndf(d2)
}

/// The approximated region: one option's full price calculation.
///
/// Interning here is scope-dependent. *Per-run* interning lost when it was
/// measured (PR 6 reverted it, with classes found by hashing every row), and
/// has not been re-measured since the classes became structural. Under a
/// sweep-scoped [`EvalMemo`](crate::common::EvalMemo) the `distinct` cached
/// prices serve every config of the sweep, which measures faster — so the
/// memo is used only when a sweep scope is active, and a plain standalone
/// run still prices inline.
struct BsBody<'a> {
    portfolio: &'a Portfolio,
    prices: Vec<f64>,
}

impl RegionBody for BsBody<'_> {
    fn in_dim(&self) -> usize {
        OPTION_DIMS
    }

    fn out_dim(&self) -> usize {
        1
    }

    fn inputs(&self, i: usize, buf: &mut [f64]) {
        lane::copy(buf, self.portfolio.option(i));
    }

    fn compute(&self, i: usize, out: &mut [f64]) {
        let price = |out: &mut [f64]| {
            let o = self.portfolio.option(i);
            out[0] = price_call(o[0], o[1], o[2], o[3], o[4]);
        };
        match &self.portfolio.memo {
            Some(memo) => memo.get_or(self.portfolio.class[i] as usize, out, price),
            None => price(out),
        }
    }

    fn store(&mut self, i: usize, out: &[f64]) {
        self.prices[i] = out[0];
    }

    fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
        // ~30 FP ops plus ln/exp/sqrt and two CNDF evaluations (exp-heavy).
        CostProfile::new()
            .flops(30.0)
            .sfu(6.0)
            .global_read(lanes, (OPTION_DIMS * 8) as u32, AccessPattern::Coalesced)
            .global_write(lanes, 8, AccessPattern::Coalesced)
    }
}

impl Benchmark for Blackscholes {
    fn name(&self) -> &'static str {
        "Blackscholes"
    }

    fn params_key(&self) -> Option<Vec<u64>> {
        let Blackscholes {
            n_options,
            distinct,
            run_len,
            seed,
        } = *self;
        Some(eval_key(
            self.name(),
            &[n_options as u64, distinct as u64, run_len as u64, seed],
        ))
    }

    fn kernel_only_timing(&self) -> bool {
        true
    }

    fn launch_class(&self, _spec: &DeviceSpec, lp: &LaunchParams) -> Option<u64> {
        // Single grid-stride kernel; host and transfer costs are
        // launch-independent.
        Some(grid_stride_launch_class(self.n_options, lp))
    }

    fn run_opts(
        &self,
        spec: &DeviceSpec,
        region: Option<&ApproxRegion>,
        lp: &LaunchParams,
        opts: &ExecOptions,
    ) -> Result<AppResult, RegionError> {
        let inputs = self.inputs();
        let mut body = BsBody {
            portfolio: &inputs,
            prices: vec![0.0; self.n_options],
        };
        let launch =
            LaunchConfig::for_items_per_thread(self.n_options, lp.block_size, lp.items_per_thread);

        let mut acc = RunAccumulator::new();
        // The 99%-of-runtime host side: allocation plus the HtoD/DtoH copies.
        let in_bytes = (self.n_options * OPTION_DIMS * 8) as u64;
        let out_bytes = (self.n_options * 8) as u64;
        acc.host((in_bytes + out_bytes) as f64 / 2.0e9); // allocation ~2 GB/s
        acc.transfer(spec, in_bytes, Direction::HostToDevice);
        acc.transfer(spec, out_bytes, Direction::DeviceToHost);

        let rec = approx_parallel_for_opts(spec, &launch, region, &mut body, opts)?;
        acc.kernel(&rec);

        Ok(acc.finish(QoI::Values(body.prices), None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpac_core::HierarchyLevel;

    fn spec() -> DeviceSpec {
        DeviceSpec::v100()
    }

    fn small() -> Blackscholes {
        Blackscholes {
            n_options: 4096,
            distinct: 16,
            run_len: 16,
            seed: 7,
        }
    }

    #[test]
    fn cndf_matches_known_values() {
        assert!((cndf(0.0) - 0.5).abs() < 1e-7);
        assert!((cndf(1.96) - 0.975).abs() < 1e-3);
        assert!((cndf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn price_monotone_in_spot() {
        let p1 = price_call(50.0, 50.0, 0.02, 0.3, 1.0);
        let p2 = price_call(60.0, 50.0, 0.02, 0.3, 1.0);
        assert!(p2 > p1);
        assert!(p1 > 0.0);
    }

    #[test]
    fn deep_itm_call_near_intrinsic() {
        let p = price_call(100.0, 10.0, 0.02, 0.2, 0.5);
        let intrinsic = 100.0 - 10.0 * (-0.02f64 * 0.5).exp();
        assert!((p - intrinsic).abs() / intrinsic < 1e-3);
    }

    #[test]
    fn generator_is_deterministic_and_periodic() {
        let cfg = small();
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a, b);
        let period = cfg.distinct * cfg.run_len;
        for d in 0..OPTION_DIMS {
            assert_eq!(a[d], a[period * OPTION_DIMS + d]);
        }
        // Runs: consecutive options within a run are identical.
        assert_eq!(a[..OPTION_DIMS], a[OPTION_DIMS..2 * OPTION_DIMS]);
    }

    #[test]
    fn accurate_run_prices_everything() {
        let cfg = small();
        let r = cfg.run(&spec(), None, &LaunchParams::new(1, 128)).unwrap();
        match &r.qoi {
            QoI::Values(p) => {
                assert_eq!(p.len(), cfg.n_options);
                assert!(p.iter().all(|&x| x.is_finite() && x >= 0.0));
            }
            _ => panic!(),
        }
        assert_eq!(r.stats.approx_fraction(), 0.0);
    }

    #[test]
    fn kernel_is_tiny_fraction_of_end_to_end() {
        // The 99%-transfer claim the paper makes for this benchmark.
        let r = small()
            .run(&spec(), None, &LaunchParams::new(1, 128))
            .unwrap();
        assert!(r.kernel_seconds < 0.05 * r.end_to_end_seconds());
    }

    #[test]
    fn taf_on_aligned_stride_is_fast_and_exact() {
        // items/thread 16 with 4096 options -> 256 threads; the data period
        // is 256 options -> every thread sees one constant option.
        let cfg = small();
        let accurate = cfg.run(&spec(), None, &LaunchParams::new(16, 128)).unwrap();
        let region = ApproxRegion::memo_out(1, 8, 0.3);
        let approx = cfg
            .run(&spec(), Some(&region), &LaunchParams::new(16, 128))
            .unwrap();
        let err = approx.qoi.error_vs(&accurate.qoi);
        assert!(err < 1e-9, "aligned stride must be exact, err = {err}");
        assert!(approx.stats.approx_fraction() > 0.5);
        assert!(approx.kernel_seconds < accurate.kernel_seconds);
    }

    #[test]
    fn taf_zero_threshold_zero_error() {
        let cfg = small();
        let accurate = cfg.run(&spec(), None, &LaunchParams::new(8, 128)).unwrap();
        let region = ApproxRegion::memo_out(3, 8, 0.0);
        let approx = cfg
            .run(&spec(), Some(&region), &LaunchParams::new(8, 128))
            .unwrap();
        assert!(approx.qoi.error_vs(&accurate.qoi) < 1e-12);
    }

    #[test]
    fn iact_slows_down_but_low_error() {
        // Paper Fig 10b: iACT reduces error but costs more than the body.
        let cfg = small();
        let accurate = cfg.run(&spec(), None, &LaunchParams::new(8, 128)).unwrap();
        let region = ApproxRegion::memo_in(8, 0.1)
            .tables_per_warp(32)
            .level(HierarchyLevel::Thread);
        let approx = cfg
            .run(&spec(), Some(&region), &LaunchParams::new(8, 128))
            .unwrap();
        let err = approx.qoi.error_vs(&accurate.qoi);
        assert!(err < 0.05, "iACT threshold 0.1 error = {err}");
        assert!(
            approx.kernel_seconds > 0.8 * accurate.kernel_seconds,
            "iACT should not be much faster here"
        );
    }

    #[test]
    fn amd_runs_too() {
        let cfg = small();
        let r = cfg
            .run(&DeviceSpec::mi250x(), None, &LaunchParams::new(8, 256))
            .unwrap();
        assert_eq!(r.qoi.len(), cfg.n_options);
    }
}
