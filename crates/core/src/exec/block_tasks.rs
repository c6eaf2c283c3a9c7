//! The block-cooperative pipeline: one thread block computes one work item
//! per grid-stride step (Binomial Options' one-block-per-option pattern),
//! with block-scoped approximation decisions.
//!
//! Each block owns exactly one AC state (one TAF machine or one iACT
//! table), and blocks grid-stride over disjoint task sets, so the same
//! [`launch`] driver that runs the warp walker's blocks runs these: under
//! [`Executor::ParallelBlocks`](crate::exec::Executor::ParallelBlocks)
//! blocks run on the persistent [`engine`](crate::exec::engine) worker pool
//! with buffered stores and fold back in block order, bit-identical to the
//! sequential reference.
//!
//! The per-step path costs are fixed for the whole launch (they depend only
//! on body, device, and technique parameters), so they are precomposed once
//! into cycle sums ([`TaskCosts`]) and replayed per warp, and the per-block
//! scratch (output/query vectors, store buffer, accumulator) is hoisted
//! into reusable per-task state.

use crate::exec::body::BlockTaskBody;
use crate::exec::charge::StoreBuffer;
use crate::exec::launch::{self, Phase};
use crate::exec::ExecOptions;
use crate::hierarchy::{self, HierarchyLevel};
use crate::iact::IactPool;
use crate::lane;
use crate::params::PerfoParams;
use crate::perfo;
use crate::region::{ApproxRegion, RegionError, Technique};
use crate::shared_state;
use crate::taf::TafPool;
use gpu_sim::{
    BlockAccumulator, CostProfile, DeviceSpec, KernelExec, KernelRecord, LaunchConfig,
    PrecomposedCost, Schedule,
};

/// Launch a block-cooperative kernel over `n_tasks` tasks with block-level
/// approximation. Blocks grid-stride over tasks: block `b` handles tasks
/// `b, b + n_blocks, ...`.
pub fn approx_block_tasks_opts(
    spec: &DeviceSpec,
    n_tasks: usize,
    block_size: u32,
    n_blocks: u32,
    region: Option<&ApproxRegion>,
    body: &mut dyn BlockTaskBody,
    opts: &ExecOptions,
) -> Result<KernelRecord, RegionError> {
    if n_tasks == 0 {
        return Err(RegionError::Invalid("no tasks to execute".into()));
    }
    let launch = LaunchConfig {
        n_items: n_tasks,
        block_size,
        n_blocks,
        schedule: Schedule::GridStride,
    };
    let out_dim = body.out_dim();
    let in_dim = body.in_dim();

    let (shared, technique) = match region {
        None => (0, None),
        Some(r) => {
            r.validate()?;
            match r.technique {
                Technique::Taf(_) | Technique::Iact(_) if r.level != HierarchyLevel::Block => {
                    return Err(RegionError::Invalid(
                        "block-cooperative tasks require level(block) decisions".into(),
                    ));
                }
                _ => {}
            }
            if let Technique::Iact(_) = r.technique {
                if in_dim == 0 {
                    return Err(RegionError::Invalid(
                        "iACT requires the task to declare inputs".into(),
                    ));
                }
            }
            // Block-task AC state: a single state machine / table per block.
            let bytes = match &r.technique {
                Technique::Taf(p) => {
                    p.hsize * shared_state::AC_SCALAR_BYTES
                        + out_dim * shared_state::AC_SCALAR_BYTES
                        + shared_state::TAF_CONTROL_BYTES
                }
                Technique::Iact(p) => shared_state::iact_block_bytes(1, 1, p, in_dim, out_dim),
                Technique::Perfo(_) => 4,
            } + shared_state::block_vote_bytes(HierarchyLevel::Block);
            (bytes, Some(r.technique))
        }
    };

    let exec = KernelExec::new(spec, &launch, shared)?;
    let walk = TaskWalk {
        spec: *spec,
        n_tasks,
        n_blocks,
        warps: launch.warps_per_block(spec),
        steps: n_tasks.div_ceil(n_blocks as usize),
        in_dim,
        out_dim,
        technique,
    };
    let costs = walk.precompose_costs(body);
    let _span = hpac_obs::span(
        hpac_obs::SpanId::BlockTasks,
        n_blocks as u64,
        walk.steps as u64,
    );

    // Tasks are independent by the pattern's contract (one block, one work
    // item), so on either executor a block's stores are buffered and
    // committed once it (or its chunk) has been merged.
    let mut phase = [Phase {
        exec,
        may_fan_out: true,
    }];
    launch::run(
        opts,
        &mut phase,
        body,
        |_| (TaskScratch::new(&walk), StoreBuffer::new(walk.out_dim)),
        |_, body, (scratch, buffer), b, acc| {
            walk.run_block(body.shared(), b, &costs, scratch, acc, &mut |task, out| {
                buffer.push(task, out)
            })
        },
        |_, body, (_, buffer), exec| {
            launch::check_ceiling(exec, opts)?;
            buffer.replay(|task, out| body.store(task, out));
            buffer.clear();
            Ok(())
        },
    )?;
    let [Phase { exec, .. }] = phase;
    Ok(exec.finish())
}

/// The geometry and technique of one block-task launch.
struct TaskWalk {
    spec: DeviceSpec,
    n_tasks: usize,
    n_blocks: u32,
    warps: u32,
    steps: usize,
    in_dim: usize,
    out_dim: usize,
    technique: Option<Technique>,
}

/// One block's AC state.
enum TaskState {
    Accurate,
    Perfo(PerfoParams),
    Taf(TafPool),
    Iact(IactPool),
}

enum Path {
    Accurate,
    Approx,
    Skip,
}

/// The three per-step path costs, fixed for the whole launch and resolved
/// against the device once. Every step charges one of these to each warp.
struct TaskCosts {
    skip: PrecomposedCost,
    approx: PrecomposedCost,
    accurate: PrecomposedCost,
}

/// Reusable per-block scratch: the AC state is fresh per block, the vectors
/// keep their allocations.
struct TaskScratch {
    out: Vec<f64>,
    query: Vec<f64>,
}

impl TaskScratch {
    fn new(walk: &TaskWalk) -> Self {
        TaskScratch {
            out: vec![0.0; walk.out_dim],
            query: vec![0.0; walk.in_dim],
        }
    }
}

impl TaskWalk {
    fn block_state(&self) -> TaskState {
        match self.technique {
            None => TaskState::Accurate,
            Some(Technique::Perfo(p)) => TaskState::Perfo(p),
            Some(Technique::Taf(p)) => TaskState::Taf(TafPool::new(1, self.out_dim, p)),
            Some(Technique::Iact(p)) => {
                TaskState::Iact(IactPool::new(1, self.in_dim, self.out_dim, p))
            }
        }
    }

    /// Assemble and device-resolve the three path costs. Cost methods are
    /// pure in (body, device, technique params), so a prototype AC state
    /// stands in for every block's.
    fn precompose_costs(&self, body: &dyn BlockTaskBody) -> TaskCosts {
        let decision_overhead = if self.technique.is_some() {
            hierarchy::decision_cost(HierarchyLevel::Block)
        } else {
            CostProfile::new()
        };
        let approx = decision_overhead
            .add(&body.input_cost(&self.spec))
            .add(&body.store_cost(&self.spec));
        let mut accurate = decision_overhead.add(&body.task_cost_per_warp(&self.spec));
        if let TaskState::Iact(pool) = self.block_state() {
            accurate = accurate
                .add(&pool.search_cost())
                .add(&pool.write_phase_cost(1));
        }
        let p = &self.spec.costs;
        TaskCosts {
            skip: CostProfile::new().flops(1.0).precompose(p),
            approx: approx.precompose(p),
            accurate: accurate.precompose(p),
        }
    }

    /// Walk block `b` over its grid-stride tasks, emitting stores through
    /// `store` and charging into `acc` (provided empty, reusable via
    /// [`BlockAccumulator::reset`]).
    fn run_block(
        &self,
        body: &dyn BlockTaskBody,
        b: u32,
        costs: &TaskCosts,
        scratch: &mut TaskScratch,
        acc: &mut BlockAccumulator,
        store: &mut dyn FnMut(usize, &[f64]),
    ) {
        let mut state = self.block_state();
        let (out, query) = (&mut scratch.out, &mut scratch.query);

        for s in 0..self.steps {
            let task = b as usize + s * self.n_blocks as usize;
            if task >= self.n_tasks {
                continue;
            }

            // Decide the block's path.
            let (path, iact_slot) = match &mut state {
                TaskState::Accurate => (Path::Accurate, None),
                TaskState::Perfo(p) => {
                    if perfo::should_skip(p, task, s) {
                        (Path::Skip, None)
                    } else {
                        (Path::Accurate, None)
                    }
                }
                TaskState::Taf(pool) => {
                    if pool.wants_approx(0) {
                        (Path::Approx, None)
                    } else {
                        (Path::Accurate, None)
                    }
                }
                TaskState::Iact(pool) => {
                    body.inputs(task, query);
                    let probe = pool.probe(0, query);
                    if pool.admit(&probe) {
                        (Path::Approx, probe.slot)
                    } else {
                        (Path::Accurate, None)
                    }
                }
            };

            match path {
                Path::Skip => {
                    for w in 0..self.warps {
                        acc.charge_precomposed(w, &costs.skip);
                    }
                    acc.note_step(0, 0, 1, false);
                }
                Path::Approx => {
                    match &mut state {
                        TaskState::Taf(pool) => {
                            lane::copy(out, pool.last(0));
                            pool.note_approx(0);
                        }
                        TaskState::Iact(pool) => {
                            let slot = iact_slot.expect("iACT hit must carry a slot");
                            lane::copy(out, pool.output(0, slot));
                            pool.touch(0, slot);
                        }
                        _ => unreachable!("only memoizing techniques approximate"),
                    }
                    store(task, out);
                    for w in 0..self.warps {
                        acc.charge_precomposed(w, &costs.approx);
                    }
                    acc.note_step(0, 1, 0, false);
                }
                Path::Accurate => {
                    body.compute(task, out);
                    store(task, out);
                    match &mut state {
                        TaskState::Taf(pool) => pool.observe(0, out),
                        TaskState::Iact(pool) => {
                            body.inputs(task, query);
                            pool.insert(0, query, out);
                        }
                        _ => {}
                    }
                    for w in 0..self.warps {
                        acc.charge_precomposed(w, &costs.accurate);
                    }
                    acc.note_step(1, 0, 0, false);
                }
            }
        }
        match &state {
            TaskState::Taf(pool) => acc.note_margins(&pool.margins()),
            TaskState::Iact(pool) => acc.note_margins(&pool.margins()),
            TaskState::Accurate | TaskState::Perfo(_) => {}
        }
    }
}
