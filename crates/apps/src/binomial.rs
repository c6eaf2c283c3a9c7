//! Binomial Options — iterative lattice pricing of American options
//! (Podlozhnyuk's CUDA sample, adapted to American puts so early exercise
//! makes the lattice necessary).
//!
//! "In Binomial Options, an entire block collaboratively computes the price
//! of a single option, and therefore we only use block-level
//! decision-making" (§4.1). Each accurate task walks an `n`-step binomial
//! tree backwards — O(n²) work — so a successful memoization skips a lot of
//! computation: this is the paper's best case (up to 6.9× TAF speedup).
//!
//! The "Items per Thread" design-space knob maps to *options per block*
//! here (fewer blocks ⇒ each block prices more options in sequence ⇒ more
//! approximation potential but less latency-hiding parallelism — Fig 8c).

use crate::blackscholes::{Portfolio, OPTION_DIMS};
use crate::common::{
    eval_key, scoped_inputs, AppResult, Benchmark, LaunchParams, QoI, RunAccumulator,
};
use gpu_sim::{AccessPattern, CostProfile, DeviceSpec};
use hpac_core::exec::{approx_block_tasks_opts, BlockTaskBody, ExecOptions};
use hpac_core::lane;
use hpac_core::region::{ApproxRegion, RegionError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Configuration for the Binomial Options benchmark.
#[derive(Debug, Clone, Copy)]
pub struct BinomialOptions {
    pub n_options: usize,
    /// Binomial lattice depth (time steps to expiry).
    pub tree_steps: usize,
    /// Distinct base options (dataset redundancy, as in Blackscholes).
    pub distinct: usize,
    /// Consecutive copies of each base option.
    pub run_len: usize,
    pub seed: u64,
}

impl Default for BinomialOptions {
    fn default() -> Self {
        BinomialOptions {
            n_options: 4096,
            tree_steps: 192,
            distinct: 24,
            run_len: 32,
            seed: 0xB0,
        }
    }
}

impl BinomialOptions {
    /// The `distinct` base options the portfolio replicates, row-major.
    fn base_options(&self) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.distinct)
            .flat_map(|_| {
                // Near-the-money puts: prices bounded away from zero so the
                // relative-error metric stays conditioned.
                [
                    rng.gen_range(40.0..60.0),
                    rng.gen_range(45.0..70.0),
                    rng.gen_range(0.01..0.05),
                    rng.gen_range(0.20..0.50),
                    rng.gen_range(0.50..1.50),
                ]
            })
            .collect()
    }

    /// Generate the portfolio in full: `OPTION_DIMS` scalars per option,
    /// row-major. A run prices from the compact [`Portfolio`] instead; this
    /// is the layout it stands for.
    pub fn generate(&self) -> Vec<f64> {
        let base = self.base_options();
        let period = self.distinct * self.run_len;
        (0..self.n_options)
            .flat_map(|i| {
                let b = (i % period) / self.run_len * OPTION_DIMS;
                base[b..b + OPTION_DIMS].iter().copied()
            })
            .collect()
    }

    /// The portfolio with each base option's lattice price, keyed by
    /// everything that shapes either: the portfolio parameters and the tree
    /// depth.
    pub fn inputs(&self) -> Arc<Portfolio> {
        scoped_inputs(
            || {
                eval_key(
                    "Binomial Options",
                    &[
                        self.n_options as u64,
                        self.tree_steps as u64,
                        self.distinct as u64,
                        self.run_len as u64,
                        self.seed,
                    ],
                )
            },
            || {
                Portfolio::new(self.base_options(), self.run_len, self.n_options, |o| {
                    price_american_put(o[0], o[1], o[2], o[3], o[4], self.tree_steps)
                })
            },
        )
    }

    /// The `(blocks, block size)` a run launches: "items per thread" is
    /// options per block.
    fn launch(&self, spec: &DeviceSpec, lp: &LaunchParams) -> (u32, u32) {
        let opt_per_block = lp.items_per_thread.max(1);
        let n_blocks = self.n_options.div_ceil(opt_per_block).max(1) as u32;
        let launch_blocks = n_blocks.min(self.n_options as u32);
        (launch_blocks, lp.block_size.min(spec.max_threads_per_block))
    }
}

/// Price an American put on an `n`-step Cox–Ross–Rubinstein lattice.
pub fn price_american_put(spot: f64, strike: f64, rate: f64, vol: f64, t: f64, n: usize) -> f64 {
    let dt = t / n as f64;
    let u = (vol * dt.sqrt()).exp();
    let d = 1.0 / u;
    let disc = (-rate * dt).exp();
    let p = ((rate * dt).exp() - d) / (u - d);
    let q = 1.0 - p;

    // Powers of u and d recur at every lattice node; hoist them into
    // tables. Each entry is produced by the same `powi` call the node made
    // before, so every looked-up price is bit-identical — this just removes
    // the O(n²) redundant exponentiations from the walk.
    let upow: Vec<f64> = (0..=n).map(|j| u.powi(j as i32)).collect();
    let dpow: Vec<f64> = (0..=n).map(|j| d.powi(j as i32)).collect();

    // Terminal payoffs.
    let mut v: Vec<f64> = (0..=n)
        .map(|j| {
            let s = spot * upow[j] * dpow[n - j];
            (strike - s).max(0.0)
        })
        .collect();
    // Backward induction with early exercise.
    for i in (0..n).rev() {
        for j in 0..=i {
            let s = spot * upow[j] * dpow[i - j];
            let cont = disc * (p * v[j + 1] + q * v[j]);
            v[j] = cont.max(strike - s);
        }
    }
    v[0]
}

/// One option's O(n²) lattice walk per block task, read from the
/// portfolio's prices: the portfolio tiles `distinct` base options, so
/// `distinct` walks run when it is built, while the simulator still charges
/// every accurate task.
struct BinomialBody<'a> {
    portfolio: &'a Portfolio,
    prices: Vec<f64>,
    tree_steps: usize,
    warps_per_block: u32,
}

impl BlockTaskBody for BinomialBody<'_> {
    fn in_dim(&self) -> usize {
        OPTION_DIMS
    }

    fn out_dim(&self) -> usize {
        1
    }

    fn inputs(&self, task: usize, buf: &mut [f64]) {
        lane::copy(buf, self.portfolio.option(task));
    }

    fn compute(&self, task: usize, out: &mut [f64]) {
        out[0] = self.portfolio.price(task);
    }

    fn store(&mut self, task: usize, out: &[f64]) {
        self.prices[task] = out[0];
    }

    fn task_cost_per_warp(&self, _spec: &DeviceSpec) -> CostProfile {
        // The lattice has n(n+1)/2 node updates of ~6 FP ops each, shared
        // across the block's warps; each level ends with a block barrier.
        let n = self.tree_steps as f64;
        let updates = n * (n + 1.0) / 2.0;
        CostProfile::new()
            .flops(6.0 * updates / self.warps_per_block as f64)
            .barriers(n / self.warps_per_block as f64)
            .global_read(1, (OPTION_DIMS * 8) as u32, AccessPattern::Broadcast)
            .global_write(1, 8, AccessPattern::Broadcast)
            .shared_ops(2.0 * updates / self.warps_per_block as f64)
    }
}

impl Benchmark for BinomialOptions {
    fn name(&self) -> &'static str {
        "Binomial Options"
    }

    fn params_key(&self) -> Option<Vec<u64>> {
        let BinomialOptions {
            n_options,
            tree_steps,
            distinct,
            run_len,
            seed,
        } = *self;
        Some(eval_key(
            self.name(),
            &[
                n_options as u64,
                tree_steps as u64,
                distinct as u64,
                run_len as u64,
                seed,
            ],
        ))
    }

    fn block_level_only(&self) -> bool {
        true
    }

    fn launch_class(&self, spec: &DeviceSpec, lp: &LaunchParams) -> Option<u64> {
        // Options-per-block values that clamp to the same block grid
        // execute identically.
        let (launch_blocks, block_size) = self.launch(spec, lp);
        Some(((launch_blocks as u64) << 32) | block_size as u64)
    }

    fn run_opts(
        &self,
        spec: &DeviceSpec,
        region: Option<&ApproxRegion>,
        lp: &LaunchParams,
        opts: &ExecOptions,
    ) -> Result<AppResult, RegionError> {
        let inputs = self.inputs();
        let (launch_blocks, block_size) = self.launch(spec, lp);
        let warps_per_block = block_size.div_ceil(spec.warp_size);

        let mut body = BinomialBody {
            portfolio: &inputs,
            prices: vec![0.0; self.n_options],
            tree_steps: self.tree_steps,
            warps_per_block,
        };

        let mut acc = RunAccumulator::new(opts);
        let in_bytes = (self.n_options * OPTION_DIMS * 8) as u64;
        let out_bytes = (self.n_options * 8) as u64;
        // Host-side portfolio generation and result validation (the CUDA
        // sample builds the portfolio and cross-checks prices on the CPU);
        // this un-accelerated share is what bounds the paper's best case
        // near 7x despite ~100% of price calculations approximating.
        acc.host(self.n_options as f64 * 200e-9);
        acc.transfer(spec, in_bytes);
        acc.transfer(spec, out_bytes);

        acc.launch(|o| {
            approx_block_tasks_opts(
                spec,
                self.n_options,
                block_size,
                launch_blocks,
                region,
                &mut body,
                o,
            )
        })?;

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

    fn small() -> BinomialOptions {
        BinomialOptions {
            n_options: 512,
            tree_steps: 160,
            distinct: 8,
            run_len: 16,
            seed: 3,
        }
    }

    #[test]
    fn lattice_put_converges_to_positive_price() {
        // ATM American put must be worth more than zero and more than
        // intrinsic value (time value).
        let p = price_american_put(50.0, 50.0, 0.03, 0.3, 1.0, 128);
        assert!(p > 0.0);
        assert!(p < 50.0);
    }

    #[test]
    fn american_put_at_least_european() {
        // Early exercise can only add value; compare against a very deep
        // ITM case where exercise is immediate.
        let p = price_american_put(10.0, 80.0, 0.05, 0.2, 1.0, 128);
        assert!(p >= 70.0 - 1e-9, "deep ITM put must be exercised, p = {p}");
    }

    #[test]
    fn lattice_refines_with_steps() {
        let coarse = price_american_put(50.0, 55.0, 0.03, 0.3, 1.0, 32);
        let fine = price_american_put(50.0, 55.0, 0.03, 0.3, 1.0, 256);
        let finer = price_american_put(50.0, 55.0, 0.03, 0.3, 1.0, 512);
        assert!((fine - finer).abs() < (coarse - finer).abs() + 1e-6);
    }

    #[test]
    fn accurate_run_prices_all() {
        let cfg = small();
        let r = cfg.run(&spec(), None, &LaunchParams::new(4, 128)).unwrap();
        match &r.qoi {
            QoI::Values(p) => {
                assert_eq!(p.len(), cfg.n_options);
                assert!(p.iter().all(|&x| x.is_finite() && x >= 0.0));
                assert!(p.iter().any(|&x| x > 0.0));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn taf_block_level_speedup_with_low_error() {
        let cfg = small();
        // 4 options per block -> 128 blocks = the dataset period, so every
        // block's task stream is one constant option.
        let lp = LaunchParams::new(4, 128);
        let accurate = cfg.run(&spec(), None, &lp).unwrap();
        let region = ApproxRegion::memo_out(2, 16, 0.3).level(HierarchyLevel::Block);
        let approx = cfg.run(&spec(), Some(&region), &lp).unwrap();
        let err = approx.qoi.error_vs(&accurate.qoi);
        let speedup = accurate.end_to_end_seconds() / approx.end_to_end_seconds();
        assert!(speedup > 1.5, "speedup = {speedup}");
        assert!(err < 0.10, "error = {err}");
        assert!(approx.stats.approx_fraction() > 0.3);
    }

    #[test]
    fn thread_level_memo_rejected() {
        let cfg = small();
        let region = ApproxRegion::memo_out(1, 16, 0.3); // thread level
        let err = cfg
            .run(&spec(), Some(&region), &LaunchParams::new(4, 128))
            .unwrap_err();
        assert!(matches!(err, RegionError::Invalid(_)));
    }

    #[test]
    fn iact_block_level_works() {
        let cfg = small();
        let lp = LaunchParams::new(16, 128);
        let accurate = cfg.run(&spec(), None, &lp).unwrap();
        let region = ApproxRegion::memo_in(8, 0.5).level(HierarchyLevel::Block);
        let approx = cfg.run(&spec(), Some(&region), &lp).unwrap();
        let err = approx.qoi.error_vs(&accurate.qoi);
        assert!(err < 0.10, "error = {err}");
        assert!(approx.stats.approx_lanes > 0);
    }

    #[test]
    fn more_options_per_block_means_fewer_blocks() {
        let cfg = small();
        let few = cfg.run(&spec(), None, &LaunchParams::new(1, 128)).unwrap();
        let many = cfg.run(&spec(), None, &LaunchParams::new(64, 128)).unwrap();
        // Same total work; the low-parallelism launch must not be faster.
        assert!(many.kernel_seconds >= few.kernel_seconds);
    }
}
