//! K-Means — iterative Lloyd clustering (Rodinia).
//!
//! The paper approximates "the kernel computing the euclidean distance of
//! observations with the current clusters" and observes that although that
//! kernel is only a few percent of runtime, approximation *herds*
//! observations into staying in their clusters, accelerating the
//! convergence criterion (no observation changes cluster) — speedup comes
//! primarily from early convergence, with time speedup ≈ convergence
//! speedup (Fig 12c, R² = 0.95). That mechanism is emergent here: the
//! approximate path returns memoized distance vectors, assignments stop
//! changing, and the host loop exits earlier.
//!
//! The distance kernel is launched once per Lloyd iteration through one
//! [`RepeatedLaunch`], and every launch after the first replays the first
//! one's decisions instead of walking the grid again. That is exact, not an
//! approximation of the approximation: the region's declared inputs are the
//! observation and its cluster tag, never the centroids, and accurate
//! execution, perforation and iACT decide every lane from the declared
//! inputs and the item index alone — so each iteration would make exactly
//! the first one's decisions, and only the computed distances differ. TAF,
//! whose window reads the distances themselves, walks every launch. Rows,
//! modeled seconds, margins and digests are those of walking every launch.
//!
//! QoI: the cluster id of each observation; error metric: MCR.

use crate::common::{
    eval_key, grid_stride_launch_class, scoped_inputs, AppResult, Benchmark, LaunchParams,
    Prepared, QoI, RunAccumulator,
};
use gpu_sim::{AccessPattern, CostProfile, DeviceSpec, LaunchConfig};
use hpac_core::exec::{ExecOptions, RegionBody, RepeatedLaunch};
use hpac_core::lane;
use hpac_core::region::{ApproxRegion, RegionError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Configuration for the K-Means benchmark.
#[derive(Debug, Clone, Copy)]
pub struct KMeans {
    pub n_points: usize,
    pub dims: usize,
    pub k: usize,
    pub max_iters: usize,
    /// Standard deviation of each synthetic blob (unit-box centers); larger
    /// values overlap the blobs and lengthen convergence.
    pub spread: f64,
    /// Convergence tolerance: the solver stops once fewer than this
    /// fraction of observations change cluster (Rodinia's delta threshold).
    pub convergence_frac: f64,
    pub seed: u64,
}

impl Default for KMeans {
    fn default() -> Self {
        KMeans {
            n_points: 4096,
            dims: 4,
            k: 8,
            max_iters: 100,
            spread: 0.45,
            convergence_frac: 5e-3,
            seed: 0x5EED,
        }
    }
}

impl KMeans {
    /// Generate blob-structured observations (row-major `n_points × dims`),
    /// ordered by blob so neighbouring indices are similar — the locality
    /// HPAC-Offload's relaxed TAF exploits. Returns `(points, initial
    /// centroids)`; the initial centroids are deliberately *perturbed* away
    /// from the true centers (as with random seeding in Rodinia) so the
    /// accurate solver needs a realistic number of Lloyd iterations.
    pub fn generate(&self) -> (Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let centers: Vec<f64> = (0..self.k * self.dims)
            .map(|_| rng.gen_range(0.0..1.0))
            .collect();
        let per_blob = self.n_points.div_ceil(self.k);
        let mut points = Vec::with_capacity(self.n_points * self.dims);
        for i in 0..self.n_points {
            let blob = (i / per_blob).min(self.k - 1);
            for d in 0..self.dims {
                let c = centers[blob * self.dims + d];
                // Triangular noise approximating a Gaussian, cheap and seeded.
                let noise: f64 = rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0);
                points.push(c + self.spread * noise);
            }
        }
        let init: Vec<f64> = centers
            .iter()
            .map(|c| c + rng.gen_range(-0.35..0.35))
            .collect();
        (points, init)
    }

    /// The observations and initial centroids, keyed by the fields
    /// [`KMeans::generate`] reads; the solver controls (`max_iters`,
    /// `convergence_frac`) do not shape the data and share one entry.
    pub fn inputs(&self) -> Arc<Observations> {
        scoped_inputs(
            || {
                eval_key(
                    "K-Means",
                    &[
                        self.n_points as u64,
                        self.dims as u64,
                        self.k as u64,
                        self.spread.to_bits(),
                        self.seed,
                    ],
                )
            },
            || {
                let (points, init_centroids) = self.generate();
                Observations {
                    points,
                    init_centroids,
                }
            },
        )
    }
}

/// K-Means' prepared inputs. The centroids a run moves start as a copy of
/// `init_centroids`.
pub struct Observations {
    pub points: Vec<f64>,
    pub init_centroids: Vec<f64>,
}

impl Prepared for Observations {
    fn approx_bytes(&self) -> usize {
        (self.points.len() + self.init_centroids.len()) * 8
    }
}

/// The approximated region: one (cluster, observation) euclidean distance —
/// "the kernel computing the euclidean distance of observations with the
/// current clusters" (§4.1). Items are cluster-major (`item = c·n + p`), so
/// a thread's grid-stride stream walks spatially sorted observations within
/// one cluster: memoized distances come from nearby observations and barely
/// perturb the argmin, which is what lets approximation *herd* boundary
/// observations into staying put instead of scrambling assignments.
///
/// The distance is not interned in the sweep-scoped `EvalMemo`: the ~12-flop
/// body is as cheap as a memo hit and the measured sweep was slower with it
/// (README "Performance").
struct DistanceBody<'a> {
    points: &'a [f64],
    centroids: &'a [f64],
    distances: &'a mut [f64],
    n: usize,
    dims: usize,
    k: usize,
}

impl RegionBody for DistanceBody<'_> {
    fn in_dim(&self) -> usize {
        self.dims + 1
    }

    fn out_dim(&self) -> usize {
        1
    }

    fn inputs(&self, item: usize, buf: &mut [f64]) {
        let (c, p) = (item / self.n, item % self.n);
        debug_assert!(c < self.k);
        lane::copy(
            &mut buf[..self.dims],
            &self.points[p * self.dims..(p + 1) * self.dims],
        );
        // Distinguish clusters in the input signature so shared tables
        // cannot hit across clusters.
        buf[self.dims] = 100.0 * c as f64;
    }

    fn compute(&self, item: usize, out: &mut [f64]) {
        let (c, p) = (item / self.n, item % self.n);
        let pt = &self.points[p * self.dims..(p + 1) * self.dims];
        let ctr = &self.centroids[c * self.dims..(c + 1) * self.dims];
        let mut d2 = 0.0;
        for d in 0..self.dims {
            let diff = pt[d] - ctr[d];
            d2 += diff * diff;
        }
        out[0] = d2;
    }

    fn store(&mut self, item: usize, out: &[f64]) {
        self.distances[item] = out[0];
    }

    fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new()
            .flops((3 * self.dims) as f64)
            .global_read(lanes, (self.dims * 8) as u32, AccessPattern::Coalesced)
            // The centroid is warp-uniform (shared memory).
            .shared_ops(self.dims as f64 / 4.0)
            .global_write(lanes, 8, AccessPattern::Coalesced)
    }
}

fn argmin_stride(distances: &[f64], p: usize, n: usize, k: usize) -> u32 {
    let mut best = 0usize;
    let mut best_v = distances[p];
    for c in 1..k {
        let v = distances[c * n + p];
        if v < best_v {
            best_v = v;
            best = c;
        }
    }
    best as u32
}

impl Benchmark for KMeans {
    fn name(&self) -> &'static str {
        "K-Means"
    }

    fn params_key(&self) -> Option<Vec<u64>> {
        let KMeans {
            n_points,
            dims,
            k,
            max_iters,
            spread,
            convergence_frac,
            seed,
        } = *self;
        Some(eval_key(
            self.name(),
            &[
                n_points as u64,
                dims as u64,
                k as u64,
                max_iters as u64,
                spread.to_bits(),
                convergence_frac.to_bits(),
                seed,
            ],
        ))
    }

    fn error_metric(&self) -> &'static str {
        "MCR"
    }

    fn launch_class(&self, _spec: &DeviceSpec, lp: &LaunchParams) -> Option<u64> {
        // The distance kernel is the only launch-shaped computation; the
        // per-iteration host/transfer charges are launch-independent.
        Some(grid_stride_launch_class(self.k * self.n_points, lp))
    }

    fn run_opts(
        &self,
        spec: &DeviceSpec,
        region: Option<&ApproxRegion>,
        lp: &LaunchParams,
        opts: &ExecOptions,
    ) -> Result<AppResult, RegionError> {
        let inputs = self.inputs();
        let points = &inputs.points;
        let mut centroids = inputs.init_centroids.clone();
        let mut distances = vec![0.0; self.k * self.n_points];
        let mut assignment = vec![u32::MAX; self.n_points];

        let n_items = self.k * self.n_points;
        let launch =
            LaunchConfig::for_items_per_thread(n_items, lp.block_size, lp.items_per_thread);
        let mut acc = RunAccumulator::new(opts);
        acc.transfer(spec, (self.n_points * self.dims * 8) as u64);

        // Every iteration launches the distance kernel over the same
        // declared inputs, so the later launches replay the first one's
        // decisions (see the module docs).
        let mut distance_kernel = RepeatedLaunch::new();
        let mut iterations = 0usize;
        for _ in 0..self.max_iters {
            iterations += 1;
            // Distance kernel: the approximated region.
            let mut body = DistanceBody {
                points,
                centroids: &centroids,
                distances: &mut distances,
                n: self.n_points,
                dims: self.dims,
                k: self.k,
            };
            acc.launch(|o| distance_kernel.run(spec, &launch, region, &mut body, o))?;

            // Membership + convergence test (device-side in Rodinia).
            let mut changes = 0usize;
            for (i, slot) in assignment.iter_mut().enumerate() {
                let a = argmin_stride(&distances, i, self.n_points, self.k);
                if a != *slot {
                    changes += 1;
                    *slot = a;
                }
            }

            // Rodinia copies the membership back to the host and updates
            // the centroids on the CPU every iteration — a fixed
            // per-iteration cost that dwarfs the distance kernel (the paper
            // notes the kernel is only ~3.5% of runtime) and makes time
            // speedup track convergence speedup.
            acc.transfer(spec, (self.n_points * 4) as u64);
            acc.host(self.n_points as f64 * self.dims as f64 * 8.0 / 2.0e9 + 20e-6);
            acc.transfer(spec, (self.k * self.dims * 8) as u64);

            let mut sums = vec![0.0; self.k * self.dims];
            let mut counts = vec![0usize; self.k];
            for i in 0..self.n_points {
                let c = assignment[i] as usize;
                counts[c] += 1;
                for d in 0..self.dims {
                    sums[c * self.dims + d] += points[i * self.dims + d];
                }
            }
            for c in 0..self.k {
                if counts[c] > 0 {
                    for d in 0..self.dims {
                        centroids[c * self.dims + d] = sums[c * self.dims + d] / counts[c] as f64;
                    }
                }
            }

            if (changes as f64) <= self.convergence_frac * self.n_points as f64 {
                break;
            }
        }

        acc.transfer(spec, (self.n_points * 4) as u64);
        Ok(acc.finish(QoI::Labels(assignment), Some(iterations)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec::v100()
    }

    fn small() -> KMeans {
        KMeans {
            n_points: 2048,
            dims: 4,
            k: 4,
            max_iters: 60,
            spread: 0.25,
            convergence_frac: 5e-3,
            seed: 11,
        }
    }

    #[test]
    fn accurate_clustering_recovers_blobs() {
        let cfg = small();
        let r = cfg.run(&spec(), None, &LaunchParams::new(8, 128)).unwrap();
        let QoI::Labels(labels) = &r.qoi else {
            panic!()
        };
        // Points are blob-ordered; most of each blob should share a label.
        let per_blob = cfg.n_points / cfg.k;
        let mut agree = 0usize;
        for blob in 0..cfg.k {
            let slice = &labels[blob * per_blob..(blob + 1) * per_blob];
            let mut counts = vec![0usize; cfg.k];
            for &l in slice {
                counts[l as usize] += 1;
            }
            agree += counts.iter().max().unwrap();
        }
        // The blobs deliberately overlap (hard problem, slow convergence),
        // so purity is well below 1 but far above the 1/k = 0.25 chance
        // level.
        assert!(
            agree as f64 / cfg.n_points as f64 > 0.6,
            "blob purity {}",
            agree as f64 / cfg.n_points as f64
        );
        assert!(r.iterations.unwrap() >= 2);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = small();
        let a = cfg.run(&spec(), None, &LaunchParams::new(8, 128)).unwrap();
        let b = cfg.run(&spec(), None, &LaunchParams::new(8, 128)).unwrap();
        assert_eq!(a.qoi, b.qoi);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn taf_zero_threshold_matches_accurate() {
        let cfg = small();
        let lp = LaunchParams::new(16, 128);
        let accurate = cfg.run(&spec(), None, &lp).unwrap();
        let region = ApproxRegion::memo_out(2, 8, 0.0);
        let approx = cfg.run(&spec(), Some(&region), &lp).unwrap();
        assert_eq!(approx.qoi.error_vs(&accurate.qoi), 0.0);
        assert_eq!(approx.iterations, accurate.iterations);
    }

    #[test]
    fn taf_converges_no_later_than_accurate() {
        let cfg = small();
        let lp = LaunchParams::new(64, 128);
        let accurate = cfg.run(&spec(), None, &lp).unwrap();
        let region = ApproxRegion::memo_out(2, 64, 1.5);
        let approx = cfg.run(&spec(), Some(&region), &lp).unwrap();
        // Herding keeps assignments stable: convergence cannot get slower.
        assert!(approx.iterations.unwrap() <= accurate.iterations.unwrap() + 1);
        assert!(approx.stats.approx_lanes > 0);
    }

    #[test]
    fn iact_hits_give_bounded_mcr() {
        let cfg = small();
        let lp = LaunchParams::new(16, 128);
        let accurate = cfg.run(&spec(), None, &lp).unwrap();
        let region = ApproxRegion::memo_in(4, 0.3).tables_per_warp(16);
        let approx = cfg.run(&spec(), Some(&region), &lp).unwrap();
        let err = approx.qoi.error_vs(&accurate.qoi);
        assert!(err < 0.6, "MCR = {err}");
    }
}
