//! Leukocyte — tracking white blood cells in video microscopy (Rodinia).
//!
//! The tracking stage solves an IMGVF (image gradient vector flow) fixed
//! point per detected cell: one thread block per cell iterates a stencil
//! relaxation over the cell's sub-image until convergence, with in-block
//! barriers between sweeps. The paper approximates "the IMGVF matrix
//! calculation" — here the per-pixel relaxation update.
//!
//! As the field converges, a thread's output stream stabilizes; TAF enters
//! its stable regime and skips updates (≈2× speedup at ~1% error in Fig 9a),
//! while iACT's per-invocation distance search outweighs the cheap stencil
//! body and only slows the solve down (Fig 9b).
//!
//! Uses the substrate's block-local schedule: block = cell, items =
//! `iterations × pixels`, iteration-major within the block so the Jacobi
//! double-buffer dependency is honoured: a sweep reads the field the
//! previous sweep of the same launch stored
//! ([`StoreVisibility::InLaunch`]).
//!
//! QoI: each cell's final location (intensity-weighted centroid of the
//! converged field).

use crate::common::{
    eval_key, scoped_inputs, AppResult, Benchmark, LaunchParams, Prepared, QoI, RunAccumulator,
};
use gpu_sim::{AccessPattern, CostProfile, DeviceSpec, LaunchConfig};
use hpac_core::exec::{approx_parallel_for_opts, ExecOptions, RegionBody, StoreVisibility};
use hpac_core::region::{ApproxRegion, RegionError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Configuration for the Leukocyte benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Leukocyte {
    /// Cells tracked in the frame (one block each).
    pub n_cells: usize,
    /// Side of each cell's square sub-image (pixels = grid²).
    pub grid: usize,
    /// IMGVF relaxation sweeps.
    pub iterations: usize,
    /// Relaxation weight toward the neighbour average.
    pub omega: f64,
    /// Data-attachment weight toward the image.
    pub kappa: f64,
    pub seed: u64,
}

impl Default for Leukocyte {
    fn default() -> Self {
        Leukocyte {
            n_cells: 16,
            grid: 32,
            iterations: 48,
            omega: 0.6,
            kappa: 0.15,
            seed: 0x1E0C,
        }
    }
}

impl Leukocyte {
    pub fn pixels_per_cell(&self) -> usize {
        self.grid * self.grid
    }

    /// Synthetic microscopy frame: per cell, a bright blob at a seeded
    /// offset from the sub-image centre plus background noise. Returns
    /// `(image, true_offsets)` where `image` is `n_cells × grid²`.
    pub fn generate(&self) -> (Vec<f64>, Vec<(f64, f64)>) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let g = self.grid as f64;
        let mut image = Vec::with_capacity(self.n_cells * self.pixels_per_cell());
        let mut offsets = Vec::with_capacity(self.n_cells);
        for _ in 0..self.n_cells {
            let cx = g / 2.0 + rng.gen_range(-g / 8.0..g / 8.0);
            let cy = g / 2.0 + rng.gen_range(-g / 8.0..g / 8.0);
            offsets.push((cx, cy));
            let sigma2 = (g / 6.0) * (g / 6.0);
            for y in 0..self.grid {
                for x in 0..self.grid {
                    let d2 = (x as f64 - cx).powi(2) + (y as f64 - cy).powi(2);
                    let noise: f64 = rng.gen_range(-0.02..0.02);
                    image.push((-d2 / (2.0 * sigma2)).exp() + noise);
                }
            }
        }
        (image, offsets)
    }

    /// The microscopy frame, keyed by the fields [`Leukocyte::generate`]
    /// reads; the relaxation controls (`iterations`, `omega`, `kappa`) act
    /// on the per-run field buffers and share one entry.
    pub fn inputs(&self) -> Arc<Frame> {
        scoped_inputs(
            || {
                eval_key(
                    "Leukocyte",
                    &[self.n_cells as u64, self.grid as u64, self.seed],
                )
            },
            || Frame {
                image: self.generate().0,
            },
        )
    }

    /// Intensity-weighted centroid of one converged field.
    pub fn centroid(&self, field: &[f64]) -> (f64, f64) {
        let mut sx = 0.0;
        let mut sy = 0.0;
        let mut sw = 0.0;
        for y in 0..self.grid {
            for x in 0..self.grid {
                let w = field[y * self.grid + x].max(0.0);
                sx += w * x as f64;
                sy += w * y as f64;
                sw += w;
            }
        }
        if sw == 0.0 {
            (0.0, 0.0)
        } else {
            (sx / sw, sy / sw)
        }
    }
}

/// Leukocyte's prepared inputs. The IMGVF double buffer a run relaxes starts
/// as two copies of `image`.
pub struct Frame {
    pub image: Vec<f64>,
}

impl Prepared for Frame {
    fn approx_bytes(&self) -> usize {
        self.image.len() * 8
    }
}

/// The approximated region: one pixel's IMGVF relaxation update.
struct ImgvfBody<'a> {
    cfg: &'a Leukocyte,
    image: &'a [f64],
    /// Double buffer: `buf[parity]` is read, `buf[1 - parity]` written.
    /// Cell `c` touches only indices `[c * pixels, (c + 1) * pixels)` of
    /// either buffer.
    buf: [Vec<f64>; 2],
}

impl ImgvfBody<'_> {
    /// item = cell_local: iteration-major: `iter * pixels + pixel`, offset
    /// by `cell * iterations * pixels`.
    fn decode(&self, item: usize) -> (usize, usize, usize) {
        let per_cell = self.cfg.iterations * self.cfg.pixels_per_cell();
        let cell = item / per_cell;
        let rem = item % per_cell;
        let iter = rem / self.cfg.pixels_per_cell();
        let pixel = rem % self.cfg.pixels_per_cell();
        (cell, iter, pixel)
    }

    fn neighbor_avg(&self, cell: usize, pixel: usize, parity: usize) -> f64 {
        let g = self.cfg.grid;
        let (x, y) = (pixel % g, pixel / g);
        let base = cell * self.cfg.pixels_per_cell();
        let at = |xx: usize, yy: usize| self.buf[parity][base + yy * g + xx];
        let l = at(x.saturating_sub(1), y);
        let r = at((x + 1).min(g - 1), y);
        let u = at(x, y.saturating_sub(1));
        let d = at(x, (y + 1).min(g - 1));
        0.25 * (l + r + u + d)
    }
}

impl RegionBody for ImgvfBody<'_> {
    fn in_dim(&self) -> usize {
        // Current value, neighbour average, image intensity.
        3
    }

    fn out_dim(&self) -> usize {
        1
    }

    fn inputs(&self, item: usize, buf: &mut [f64]) {
        let (cell, iter, pixel) = self.decode(item);
        let parity = iter % 2;
        let idx = cell * self.cfg.pixels_per_cell() + pixel;
        buf[0] = self.buf[parity][idx];
        buf[1] = self.neighbor_avg(cell, pixel, parity);
        buf[2] = self.image[idx];
    }

    fn compute(&self, item: usize, out: &mut [f64]) {
        let (cell, iter, pixel) = self.decode(item);
        let parity = iter % 2;
        let idx = cell * self.cfg.pixels_per_cell() + pixel;
        let m = self.buf[parity][idx];
        let avg = self.neighbor_avg(cell, pixel, parity);
        let i = self.image[idx];
        out[0] = (1.0 - self.cfg.omega) * m + self.cfg.omega * avg + self.cfg.kappa * (i - m);
    }

    fn store(&mut self, item: usize, out: &[f64]) {
        let (cell, iter, pixel) = self.decode(item);
        let idx = cell * self.cfg.pixels_per_cell() + pixel;
        self.buf[1 - iter % 2][idx] = out[0];
    }

    /// Iteration `i+1` of a cell's in-kernel Jacobi sweep reads the field
    /// iteration `i` stored.
    fn store_visibility(&self) -> StoreVisibility {
        StoreVisibility::InLaunch
    }

    fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
        // 5-point stencil from shared memory + the update arithmetic.
        CostProfile::new()
            .flops(10.0)
            .shared_ops(6.0)
            .global_read(lanes, 8, AccessPattern::Coalesced)
            .global_write(lanes, 8, AccessPattern::Coalesced)
            .barriers(1.0 / 8.0) // one per sweep, amortized per warp step
    }
}

impl Benchmark for Leukocyte {
    fn name(&self) -> &'static str {
        "Leukocyte"
    }

    fn params_key(&self) -> Option<Vec<u64>> {
        let Leukocyte {
            n_cells,
            grid,
            iterations,
            omega,
            kappa,
            seed,
        } = *self;
        Some(eval_key(
            self.name(),
            &[
                n_cells as u64,
                grid as u64,
                iterations as u64,
                omega.to_bits(),
                kappa.to_bits(),
                seed,
            ],
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
        let image = &inputs.image;
        let mut acc = RunAccumulator::new(opts);
        acc.transfer(spec, (self.n_cells * self.pixels_per_cell() * 8) as u64);

        let mut body = ImgvfBody {
            cfg: self,
            image,
            // IMGVF starts from the image itself.
            buf: [image.clone(), image.clone()],
        };

        // One block per cell, iteration-major items within the block.
        let n_items = self.n_cells * self.iterations * self.pixels_per_cell();
        let block_size = lp.block_size.min(self.pixels_per_cell() as u32);
        let launch = LaunchConfig::block_local(n_items, block_size, self.n_cells as u32);
        acc.launch(|o| approx_parallel_for_opts(spec, &launch, region, &mut body, o))?;

        // QoI: converged-field centroids (the tracked cell locations).
        let final_parity = self.iterations % 2;
        let mut qoi = Vec::with_capacity(self.n_cells * 2);
        for cell in 0..self.n_cells {
            let base = cell * self.pixels_per_cell();
            let field = &body.buf[final_parity][base..base + self.pixels_per_cell()];
            let (cx, cy) = self.centroid(field);
            qoi.push(cx);
            qoi.push(cy);
        }
        acc.transfer(spec, (self.n_cells * 2 * 8) as u64);

        Ok(acc.finish(QoI::Values(qoi), None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec::v100()
    }

    fn small() -> Leukocyte {
        Leukocyte {
            n_cells: 4,
            grid: 16,
            iterations: 24,
            omega: 0.6,
            kappa: 0.15,
            seed: 9,
        }
    }

    #[test]
    fn centroid_of_uniform_field_is_center() {
        let cfg = small();
        let field = vec![1.0; cfg.pixels_per_cell()];
        let (cx, cy) = cfg.centroid(&field);
        assert!((cx - 7.5).abs() < 1e-9);
        assert!((cy - 7.5).abs() < 1e-9);
    }

    #[test]
    fn tracking_finds_blob_centers() {
        let cfg = small();
        let (_, true_offsets) = cfg.generate();
        let r = cfg.run(&spec(), None, &LaunchParams::default()).unwrap();
        let QoI::Values(q) = &r.qoi else { panic!() };
        for (cell, (tx, ty)) in true_offsets.iter().enumerate() {
            let (cx, cy) = (q[2 * cell], q[2 * cell + 1]);
            // The converged IMGVF centroid must sit near the true blob.
            assert!(
                (cx - tx).abs() < 2.5 && (cy - ty).abs() < 2.5,
                "cell {cell}: found ({cx:.2},{cy:.2}), true ({tx:.2},{ty:.2})"
            );
        }
    }

    #[test]
    fn relaxation_converges() {
        // After enough sweeps, the update changes values only slightly.
        let cfg = small();
        let more = Leukocyte {
            iterations: 48,
            ..cfg
        };
        let a = cfg.run(&spec(), None, &LaunchParams::default()).unwrap();
        let b = more.run(&spec(), None, &LaunchParams::default()).unwrap();
        let err = b.qoi.error_vs(&a.qoi);
        assert!(err < 0.05, "centroid still moving after convergence: {err}");
    }

    #[test]
    fn taf_zero_threshold_is_exact() {
        let cfg = small();
        let accurate = cfg.run(&spec(), None, &LaunchParams::default()).unwrap();
        let region = ApproxRegion::memo_out(3, 8, 0.0);
        let approx = cfg
            .run(&spec(), Some(&region), &LaunchParams::default())
            .unwrap();
        assert!(approx.qoi.error_vs(&accurate.qoi) < 1e-12);
    }

    #[test]
    fn taf_speeds_up_converged_solve() {
        // Fig 9a: once the field stabilizes, TAF freezes pixels.
        let cfg = small();
        let accurate = cfg.run(&spec(), None, &LaunchParams::default()).unwrap();
        let region = ApproxRegion::memo_out(2, 32, 0.05);
        let approx = cfg
            .run(&spec(), Some(&region), &LaunchParams::default())
            .unwrap();
        assert!(approx.stats.approx_fraction() > 0.1);
        assert!(approx.kernel_seconds < accurate.kernel_seconds);
        let err = approx.qoi.error_vs(&accurate.qoi);
        assert!(err < 0.05, "tracking error {err}");
    }

    #[test]
    fn iact_always_slows_down() {
        // Fig 9b: the stencil body is cheaper than the table search.
        let cfg = small();
        let accurate = cfg.run(&spec(), None, &LaunchParams::default()).unwrap();
        let region = ApproxRegion::memo_in(4, 0.1).tables_per_warp(16);
        let approx = cfg
            .run(&spec(), Some(&region), &LaunchParams::default())
            .unwrap();
        assert!(
            approx.kernel_seconds > accurate.kernel_seconds,
            "iACT must slow Leukocyte down: {} vs {}",
            approx.kernel_seconds,
            accurate.kernel_seconds
        );
    }
}
