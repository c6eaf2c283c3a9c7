//! MiniFE — conjugate-gradient proxy for unstructured implicit finite
//! element codes (Mantevo).
//!
//! Assembles a 27-point stencil operator on a 3D hex grid in CSR form and
//! runs CG on it. The paper approximates the sparse matrix-vector product;
//! the locally introduced errors "propagate through subsequent iterations,
//! causing high error rates (between 593% and 3.43 × 10²²%)" (Fig 9c) —
//! CG's short recurrences amplify any SpMV perturbation, which is exactly
//! what this implementation reproduces.
//!
//! iACT is **not applicable**: CSR rows have varying numbers of nonzeros,
//! and "hpac-offload only supports computations with uniform input sizes
//! for all threads" — the region reports that incompatibility and launches
//! with `memo(in:...)` fail.
//!
//! QoI: the final residual norm of the solver.

use crate::common::{
    eval_key, scoped_inputs, AppResult, Benchmark, LaunchParams, Prepared, QoI, RunAccumulator,
};
use gpu_sim::{AccessPattern, CostProfile, DeviceSpec, LaunchConfig};
use hpac_core::exec::{approx_parallel_for_opts, charge_uniform_kernel, ExecOptions, RegionBody};
use hpac_core::region::{ApproxRegion, RegionError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Configuration for the MiniFE benchmark.
#[derive(Debug, Clone, Copy)]
pub struct MiniFe {
    /// Grid points per dimension (rows = nx³).
    pub nx: usize,
    /// CG iteration budget.
    pub max_iters: usize,
    /// Convergence tolerance on the residual norm.
    pub tol: f64,
    pub seed: u64,
}

impl Default for MiniFe {
    fn default() -> Self {
        MiniFe {
            nx: 14,
            max_iters: 50,
            tol: 1e-8,
            seed: 0xF3,
        }
    }
}

/// A CSR sparse matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    pub row_ptr: Vec<usize>,
    pub col_idx: Vec<usize>,
    pub values: Vec<f64>,
    pub n: usize,
}

impl Csr {
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row nonzero count (varies at boundaries — the non-uniformity that
    /// rules out iACT).
    pub fn row_len(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }
}

impl MiniFe {
    pub fn n_rows(&self) -> usize {
        self.nx * self.nx * self.nx
    }

    /// Assemble the 27-point stencil operator: diagonal 26, neighbours -1
    /// (an SPD discrete diffusion operator, MiniFE's default problem).
    pub fn assemble(&self) -> Csr {
        let nx = self.nx as i64;
        let n = self.n_rows();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for z in 0..nx {
            for y in 0..nx {
                for x in 0..nx {
                    for dz in -1..=1 {
                        for dy in -1..=1 {
                            for dx in -1..=1 {
                                let (xx, yy, zz) = (x + dx, y + dy, z + dz);
                                if xx < 0 || yy < 0 || zz < 0 || xx >= nx || yy >= nx || zz >= nx {
                                    continue;
                                }
                                let col = ((zz * nx + yy) * nx + xx) as usize;
                                col_idx.push(col);
                                values.push(if dx == 0 && dy == 0 && dz == 0 {
                                    26.0
                                } else {
                                    -1.0
                                });
                            }
                        }
                    }
                    row_ptr.push(col_idx.len());
                }
            }
        }
        Csr {
            row_ptr,
            col_idx,
            values,
            n,
        }
    }

    /// Seeded right-hand side.
    pub fn rhs(&self) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.n_rows())
            .map(|_| rng.gen_range(0.0..1.0))
            .collect()
    }

    /// The assembled operator and right-hand side: the matrix depends on
    /// `nx` alone and the rhs on `nx` and `seed`; the solver controls
    /// (`max_iters`, `tol`) share one entry.
    pub fn inputs(&self) -> Arc<LinearSystem> {
        scoped_inputs(
            || eval_key("MiniFE", &[self.nx as u64, self.seed]),
            || LinearSystem {
                a: self.assemble(),
                b: self.rhs(),
            },
        )
    }
}

/// MiniFE's prepared inputs: `A` and `b` of the system CG solves.
pub struct LinearSystem {
    pub a: Csr,
    pub b: Vec<f64>,
}

impl Prepared for LinearSystem {
    fn approx_bytes(&self) -> usize {
        (self.a.row_ptr.len() + self.a.col_idx.len() + self.a.values.len() + self.b.len()) * 8
    }
}

/// The approximated region: one CSR row's dot product (`q_i = A_i · p`).
struct SpmvBody<'a> {
    matrix: &'a Csr,
    p: &'a [f64],
    q: &'a mut [f64],
    avg_nnz: f64,
}

impl RegionBody for SpmvBody<'_> {
    fn out_dim(&self) -> usize {
        1
    }

    fn compute(&self, row: usize, out: &mut [f64]) {
        let lo = self.matrix.row_ptr[row];
        let hi = self.matrix.row_ptr[row + 1];
        let mut sum = 0.0;
        for k in lo..hi {
            sum += self.matrix.values[k] * self.p[self.matrix.col_idx[k]];
        }
        out[0] = sum;
    }

    fn store(&mut self, row: usize, out: &[f64]) {
        self.q[row] = out[0];
    }

    fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
        // Gathered x-vector reads are the classic SpMV bottleneck.
        CostProfile::new()
            .flops(2.0 * self.avg_nnz)
            .global_read(
                lanes,
                (self.avg_nnz * 12.0) as u32,
                AccessPattern::Strided { stride_bytes: 64 },
            )
            .global_write(lanes, 8, AccessPattern::Coalesced)
    }

    fn iact_incompatibility(&self) -> Option<String> {
        Some("CSR rows have varying input sizes across threads".into())
    }
}

impl Benchmark for MiniFe {
    fn name(&self) -> &'static str {
        "MiniFE"
    }

    fn params_key(&self) -> Option<Vec<u64>> {
        let MiniFe {
            nx,
            max_iters,
            tol,
            seed,
        } = *self;
        Some(eval_key(
            self.name(),
            &[nx as u64, max_iters as u64, tol.to_bits(), seed],
        ))
    }

    fn run_opts(
        &self,
        spec: &DeviceSpec,
        region: Option<&ApproxRegion>,
        lp: &LaunchParams,
        opts: &ExecOptions,
    ) -> Result<AppResult, RegionError> {
        let inputs = self.inputs();
        let (a, b) = (&inputs.a, &inputs.b);
        let n = a.n;
        let avg_nnz = a.nnz() as f64 / n as f64;

        let mut acc = RunAccumulator::new(opts);
        acc.transfer(spec, (a.nnz() * 12 + n * 8 * 4) as u64);

        // CG state.
        let mut x = vec![0.0; n];
        let mut r: Vec<f64> = b.clone();
        let mut p: Vec<f64> = b.clone();
        let mut q = vec![0.0; n];
        let mut rho: f64 = r.iter().map(|v| v * v).sum();

        let launch = LaunchConfig::for_items_per_thread(n, lp.block_size, lp.items_per_thread);
        let blas_cost = CostProfile::new()
            .flops(2.0)
            .global_read(spec.warp_size, 16, AccessPattern::Coalesced)
            .global_write(spec.warp_size, 8, AccessPattern::Coalesced);
        let blas_launch = LaunchConfig::one_item_per_thread(n, lp.block_size);

        for _ in 0..self.max_iters {
            // q = A p — the approximated SpMV.
            let mut body = SpmvBody {
                matrix: a,
                p: &p,
                q: &mut q,
                avg_nnz,
            };
            acc.launch(|o| approx_parallel_for_opts(spec, &launch, region, &mut body, o))?;

            // Dot products and vector updates (accurate kernels).
            for _ in 0..3 {
                acc.helper_kernel(&charge_uniform_kernel(spec, &blas_launch, &blas_cost)?);
            }

            let pq: f64 = p.iter().zip(&q).map(|(a, b)| a * b).sum();
            if pq == 0.0 || !pq.is_finite() {
                break;
            }
            let alpha = rho / pq;
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * q[i];
            }
            let rho_new: f64 = r.iter().map(|v| v * v).sum();
            let res = rho_new.sqrt();
            if !res.is_finite() || res < self.tol {
                break;
            }
            let beta = rho_new / rho;
            rho = rho_new;
            for i in 0..n {
                p[i] = r[i] + beta * p[i];
            }
        }

        // The paper's QoI is the *true* final residual of the produced
        // solution: ||b - A x||.
        let mut true_r = 0.0;
        for (i, &bi) in b.iter().enumerate().take(n) {
            let lo = a.row_ptr[i];
            let hi = a.row_ptr[i + 1];
            let mut ax = 0.0;
            for k in lo..hi {
                ax += a.values[k] * x[a.col_idx[k]];
            }
            let d = bi - ax;
            true_r += d * d;
        }
        let qoi = QoI::Values(vec![true_r.sqrt()]);
        acc.transfer(spec, (n * 8) as u64);
        Ok(acc.finish(qoi, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec::v100()
    }

    fn small() -> MiniFe {
        MiniFe {
            nx: 8,
            max_iters: 60,
            tol: 1e-9,
            seed: 2,
        }
    }

    #[test]
    fn stencil_has_27_point_interior() {
        let cfg = small();
        let a = cfg.assemble();
        assert_eq!(a.n, 512);
        // Interior row: full 27 entries; corner row: 8 entries.
        let interior = (3 * 8 + 3) * 8 + 3; // (3,3,3)
        assert_eq!(a.row_len(interior), 27);
        assert_eq!(a.row_len(0), 8);
    }

    #[test]
    fn matrix_is_symmetric() {
        let a = small().assemble();
        // Spot-check symmetry via dense probes.
        for i in [0usize, 100, 300, 511] {
            for k in a.row_ptr[i]..a.row_ptr[i + 1] {
                let j = a.col_idx[k];
                let v_ij = a.values[k];
                let v_ji = (a.row_ptr[j]..a.row_ptr[j + 1])
                    .find(|&kk| a.col_idx[kk] == i)
                    .map(|kk| a.values[kk])
                    .expect("symmetric pattern");
                assert_eq!(v_ij, v_ji);
            }
        }
    }

    #[test]
    fn accurate_cg_converges() {
        let cfg = small();
        let r = cfg.run(&spec(), None, &LaunchParams::new(8, 128)).unwrap();
        let QoI::Values(res) = &r.qoi else { panic!() };
        assert!(res[0] < 1e-6, "residual {}", res[0]);
    }

    #[test]
    fn taf_zero_threshold_matches_accurate() {
        let cfg = small();
        let lp = LaunchParams::new(8, 128);
        let accurate = cfg.run(&spec(), None, &lp).unwrap();
        let region = ApproxRegion::memo_out(2, 8, 0.0);
        let approx = cfg.run(&spec(), Some(&region), &lp).unwrap();
        assert!(approx.qoi.error_vs(&accurate.qoi) < 1e-9);
    }

    #[test]
    fn taf_destroys_convergence() {
        // Fig 9c: approximating SpMV wrecks CG — errors in the hundreds of
        // percent at minimum.
        let cfg = small();
        let lp = LaunchParams::new(16, 128);
        let accurate = cfg.run(&spec(), None, &lp).unwrap();
        let region = ApproxRegion::memo_out(2, 32, 1.5);
        let approx = cfg.run(&spec(), Some(&region), &lp).unwrap();
        let err = approx.qoi.error_vs(&accurate.qoi);
        assert!(
            err > 5.0,
            "SpMV corruption must blow up the residual, err = {err}"
        );
    }

    #[test]
    fn iact_is_rejected() {
        let cfg = small();
        let region = ApproxRegion::memo_in(4, 0.5);
        let err = cfg
            .run(&spec(), Some(&region), &LaunchParams::new(8, 128))
            .unwrap_err();
        match err {
            RegionError::Invalid(msg) => assert!(msg.contains("varying input sizes")),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }
}
