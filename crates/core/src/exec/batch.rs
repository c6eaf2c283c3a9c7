//! Phased multi-kernel submission: several dependent kernels enter the
//! engine as *one* batch.
//!
//! Apps like LULESH launch a handful of small, sequentially dependent
//! kernels per timestep; submitting each through
//! [`approx_parallel_for_opts`](crate::exec::approx_parallel_for_opts)
//! pays one worker-pool handoff (dispatch, join, fold) per kernel. This
//! module instead resolves every kernel up front ([`prepare`]) and hands
//! all of them to the [`launch`] driver as the phases of a single
//! [`ExecEngine::run_phases`](crate::exec::engine::ExecEngine::run_phases)
//! call ([`run_batch`]): workers stay warm across the inter-kernel
//! barriers, and the per-timestep handoff cost is paid once instead of
//! five times.
//!
//! Batched bodies must have [`StoreVisibility::BlockPrivate`]: their stores
//! commit inline through `store_shared` (interior-mutable state such as
//! [`BlockField`](crate::exec::body::BlockField)), which is what makes the
//! next phase's reads of this phase's outputs well-defined — the barrier
//! between phases gives the happens-before edge. Within a phase the usual
//! block-decomposition contract applies, so each kernel's walk — and
//! therefore the whole batch — is bit-identical to submitting the kernels
//! one by one on either executor.

use crate::exec::body::{RegionBody, SharedAccess, StoreVisibility};
use crate::exec::launch::{self, Phase};
use crate::exec::walk::{Geom, WalkArena};
use crate::exec::{resolve, ExecOptions, ResolvedKernel};
use crate::region::{ApproxRegion, RegionError};
use gpu_sim::{DeviceSpec, KernelExec, KernelRecord};

/// One kernel of a batch: the dispatch-stage output plus the shared body it
/// will run against. Build with [`prepare`]; run with [`run_batch`].
pub struct BatchKernel<'a> {
    resolved: ResolvedKernel,
    body: &'a dyn RegionBody,
}

/// Resolve one kernel of a batch (the dispatch stage of
/// [`approx_parallel_for_opts`](crate::exec::approx_parallel_for_opts),
/// hoisted out of the submission loop). Fails eagerly on anything the
/// per-kernel entry point would reject, plus on bodies whose stores cannot
/// commit inline between phases.
pub fn prepare<'a>(
    spec: &DeviceSpec,
    launch: &gpu_sim::LaunchConfig,
    region: Option<&ApproxRegion>,
    body: &'a dyn RegionBody,
    opts: &ExecOptions,
) -> Result<BatchKernel<'a>, RegionError> {
    if body.store_visibility() != StoreVisibility::BlockPrivate {
        return Err(RegionError::Invalid(
            "batched kernels need StoreVisibility::BlockPrivate: later phases read earlier \
             phases' outputs, so stores must commit inline through store_shared"
                .into(),
        ));
    }
    let resolved = resolve(spec, launch, region, body, opts.serialized_taf)?;
    Ok(BatchKernel { resolved, body })
}

/// Run `kernels` in order as the phases of one engine submission and return
/// each kernel's record. Equivalent, bit for bit, to running them one by
/// one through the per-kernel entry point with the same options.
pub fn run_batch(
    spec: &DeviceSpec,
    kernels: &[BatchKernel<'_>],
    opts: &ExecOptions,
) -> Result<Vec<KernelRecord>, RegionError> {
    // Validate every launch before any phase runs: a batch must fail
    // atomically, not after earlier kernels already committed stores.
    let mut phases = Vec::with_capacity(kernels.len());
    let mut geoms = Vec::with_capacity(kernels.len());
    for k in kernels {
        phases.push(Phase {
            exec: KernelExec::new(spec, &k.resolved.launch, k.resolved.shared)?,
            may_fan_out: k.resolved.partition_kept,
        });
        geoms.push(Geom::new(spec, &k.resolved.launch, k.resolved.item_lo));
    }
    launch::run(
        opts,
        &mut phases,
        &mut (),
        |p| WalkArena::new(&geoms[p]),
        |p, _, arena, b, acc| {
            let k = &kernels[p];
            let mut access = SharedAccess { body: k.body };
            k.resolved
                .policy
                .walk_block(&geoms[p], &mut access, b, arena, acc)
        },
        // Stores committed inline above, and a batch never checks
        // `abort_above_seconds`: turning that on changes which evaluations
        // the tuner sees.
        |_, _, _, _| Ok(()),
    )?;
    Ok(phases.into_iter().map(|p| p.exec.finish()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::body::BlockField;
    use crate::exec::{approx_parallel_for_opts, Executor};
    use crate::region::ApproxRegion;
    use gpu_sim::{AccessPattern, CostProfile, LaunchConfig};

    /// Two dependent stages over block-private fields: stage 1 writes `a`,
    /// stage 2 reads `a` and writes `b`.
    struct StageOne {
        a: BlockField,
    }

    impl RegionBody for StageOne {
        fn out_dim(&self) -> usize {
            1
        }
        fn compute(&self, i: usize, out: &mut [f64]) {
            out[0] = (i as f64).sqrt() + 1.0;
        }
        fn store(&mut self, i: usize, out: &[f64]) {
            self.store_shared(i, out);
        }
        fn store_visibility(&self) -> StoreVisibility {
            StoreVisibility::BlockPrivate
        }
        fn store_shared(&self, i: usize, out: &[f64]) {
            self.a.set(i, out[0]);
        }
        fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
            CostProfile::new()
                .flops(4.0)
                .global_write(lanes, 8, AccessPattern::Coalesced)
        }
    }

    struct StageTwo<'m> {
        a: &'m BlockField,
        b: BlockField,
    }

    impl RegionBody for StageTwo<'_> {
        fn out_dim(&self) -> usize {
            1
        }
        fn compute(&self, i: usize, out: &mut [f64]) {
            out[0] = self.a.get(i) * 2.0 - 1.0;
        }
        fn store(&mut self, i: usize, out: &[f64]) {
            self.store_shared(i, out);
        }
        fn store_visibility(&self) -> StoreVisibility {
            StoreVisibility::BlockPrivate
        }
        fn store_shared(&self, i: usize, out: &[f64]) {
            self.b.set(i, out[0]);
        }
        fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
            CostProfile::new()
                .flops(4.0)
                .global_read(lanes, 8, AccessPattern::Coalesced)
                .global_write(lanes, 8, AccessPattern::Coalesced)
        }
    }

    fn run_pair(opts: &ExecOptions, batched: bool) -> (Vec<KernelRecord>, Vec<f64>) {
        let spec = DeviceSpec::v100();
        let n = 1000;
        let lc = LaunchConfig::block_local(n, 64, 8);
        let one = StageOne {
            a: BlockField::from_vec(vec![0.0; n]),
        };
        if batched {
            let two_field = BlockField::from_vec(vec![0.0; n]);
            let two = StageTwo {
                a: &one.a,
                b: two_field,
            };
            let batch = [
                prepare(&spec, &lc, None, &one, opts).unwrap(),
                prepare(&spec, &lc, None, &two, opts).unwrap(),
            ];
            let records = run_batch(&spec, &batch, opts).unwrap();
            let out = two.b.to_vec(0..n);
            (records, out)
        } else {
            let mut one = one;
            let r1 = approx_parallel_for_opts(&spec, &lc, None, &mut one, opts).unwrap();
            let mut two = StageTwo {
                a: &one.a,
                b: BlockField::from_vec(vec![0.0; n]),
            };
            let r2 = approx_parallel_for_opts(&spec, &lc, None, &mut two, opts).unwrap();
            let out = two.b.to_vec(0..n);
            (vec![r1, r2], out)
        }
    }

    #[test]
    fn batch_matches_one_by_one_submission() {
        for executor in [Executor::Sequential, Executor::ParallelBlocks] {
            let opts = ExecOptions {
                executor,
                threads: Some(4),
                ..ExecOptions::default()
            };
            let (batch_records, batch_out) = run_pair(&opts, true);
            let (solo_records, solo_out) = run_pair(&opts, false);
            assert_eq!(batch_records, solo_records, "{executor:?}");
            assert!(
                batch_out
                    .iter()
                    .zip(&solo_out)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{executor:?}: batched outputs diverged"
            );
        }
    }

    #[test]
    fn batch_rejects_buffering_bodies() {
        struct Indep;
        impl RegionBody for Indep {
            fn out_dim(&self) -> usize {
                1
            }
            fn compute(&self, _i: usize, out: &mut [f64]) {
                out[0] = 0.0;
            }
            fn store(&mut self, _i: usize, _out: &[f64]) {}
            fn accurate_cost(&self, _lanes: u32, _spec: &DeviceSpec) -> CostProfile {
                CostProfile::new().flops(1.0)
            }
        }
        let spec = DeviceSpec::v100();
        let lc = LaunchConfig::one_item_per_thread(64, 32);
        let err = prepare(&spec, &lc, None, &Indep, &ExecOptions::default());
        assert!(err.is_err());
    }

    #[test]
    fn batch_with_approx_region_matches_solo() {
        let spec = DeviceSpec::v100();
        let n = 600;
        let lc = LaunchConfig::block_local(n, 64, 4);
        let region = ApproxRegion::memo_out(2, 16, 0.8);
        let run = |opts: &ExecOptions| {
            let one = StageOne {
                a: BlockField::from_vec(vec![0.0; n]),
            };
            let batch = [prepare(&spec, &lc, Some(&region), &one, opts).unwrap()];
            let mut records = run_batch(&spec, &batch, opts).unwrap();
            (records.remove(0), one.a.to_vec(0..n))
        };
        fn solo(
            spec: &DeviceSpec,
            lc: &LaunchConfig,
            region: &ApproxRegion,
            opts: &ExecOptions,
            n: usize,
        ) -> (KernelRecord, Vec<f64>) {
            let mut one = StageOne {
                a: BlockField::from_vec(vec![0.0; n]),
            };
            let r = approx_parallel_for_opts(spec, lc, Some(region), &mut one, opts).unwrap();
            (r, one.a.to_vec(0..n))
        }
        for executor in [Executor::Sequential, Executor::ParallelBlocks] {
            let opts = ExecOptions {
                executor,
                threads: Some(3),
                ..ExecOptions::default()
            };
            let (br, bo) = run(&opts);
            let (sr, so) = solo(&spec, &lc, &region, &opts, n);
            assert_eq!(br, sr, "{executor:?}");
            assert!(
                bo.iter().zip(&so).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{executor:?}"
            );
        }
    }
}
