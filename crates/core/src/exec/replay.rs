//! Record-or-replay for a grid-stride launch that an iterative application
//! issues again and again over unchanged declared inputs.
//!
//! Accurate execution, perforation and iACT decide every lane from the
//! region's *declared inputs* and the item index alone: the probe, the hit
//! test, the hierarchy vote, the writer election and the CLOCK or
//! round-robin replacement of iACT; the skip pattern of perforation. None of
//! them reads an output. So when an application launches the same region
//! again over the same declared inputs — K-Means' distance kernel, once per
//! Lloyd iteration, whose inputs are the observations and never the
//! centroids — every launch makes exactly the decisions the first one made,
//! and only the computed values differ.
//!
//! [`RepeatedLaunch`] walks the first launch as
//! [`approx_parallel_for_opts`](crate::exec::approx_parallel_for_opts) does
//! and records those decisions as a [`Trace`]: one [`Step`] of 8 bytes per
//! executed lane, in walk order, saying either "computed" or "stored the
//! output writer *w* computed". Later launches replay the trace on the
//! caller — `compute` and `store` for the computed lanes, a copy of the
//! writer's fresh output for the memoized ones — and account the recorded
//! [`KernelRecord`] as the walk would have, so rows, modeled seconds and
//! margins are unchanged and the GPU model still charges every launch.
//!
//! TAF never replays: its window holds outputs, so its decisions read what
//! `compute` produced. Nor do bodies whose stores feed back into `compute`
//! within a launch ([`StoreVisibility`] other than `Independent`).

use crate::exec::body::{BodyAccess, RegionBody, StoreVisibility};
use crate::exec::{launch, resolve, walk, ExecOptions, ResolvedKernel, ResolvedPolicy};
use crate::lane;
use crate::region::{ApproxRegion, RegionError};
use gpu_sim::{DeviceSpec, KernelRecord, LaunchConfig};

/// [`Step::src`] of a lane that computed its output and that no later lane
/// reuses.
const COMPUTED: u32 = u32::MAX;
/// [`Step::src`] of a lane that computed its output and wrote it into an
/// iACT table; such writers are numbered in trace order.
const KEPT: u32 = u32::MAX - 1;

/// One executed lane of a recorded launch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    item: u32,
    /// [`COMPUTED`], [`KEPT`], or the id of the writer whose output this
    /// lane stored.
    src: u32,
}

/// A launch's decisions in walk order.
#[derive(Debug, Default)]
pub(crate) struct Trace {
    steps: Vec<Step>,
    /// Writers ([`KEPT`] steps) so far, numbered in trace order.
    writers: u32,
}

/// The body access of a recording walk: forwards to `inner` and appends
/// one [`Step`] per executed lane to `trace`.
pub(crate) struct Recording<'a, A> {
    pub inner: A,
    pub trace: &'a mut Trace,
}

impl<A: BodyAccess> BodyAccess for Recording<'_, A> {
    const RECORDS: bool = true;

    fn body(&self) -> &dyn RegionBody {
        self.inner.body()
    }

    fn compute(&mut self, i: usize, out: &mut [f64]) {
        self.trace.steps.push(Step {
            item: i as u32,
            src: COMPUTED,
        });
        self.inner.compute(i, out);
    }

    fn store(&mut self, i: usize, out: &[f64]) {
        self.inner.store(i, out);
    }

    fn store_memo(&mut self, i: usize, out: &[f64], writer: u32) {
        self.trace.steps.push(Step {
            item: i as u32,
            src: writer,
        });
        self.inner.store(i, out);
    }

    fn trace_pos(&self) -> u32 {
        self.trace.steps.len() as u32
    }

    fn keep(&mut self, pos: u32) -> u32 {
        let step = &mut self.trace.steps[pos as usize];
        debug_assert_eq!(step.src, COMPUTED, "a writer computed its output");
        step.src = KEPT;
        self.trace.writers += 1;
        self.trace.writers - 1
    }
}

/// Whether a resolved launch's decisions read only declared inputs and
/// item indices, and its items fit a [`Step`].
fn replayable(kernel: &ResolvedKernel, body: &dyn RegionBody) -> bool {
    matches!(
        kernel.policy,
        ResolvedPolicy::Accurate(_) | ResolvedPolicy::Perfo(_) | ResolvedPolicy::Iact(_)
    ) && body.store_visibility() == StoreVisibility::Independent
        && kernel.item_lo + kernel.launch.n_items < KEPT as usize
}

/// What every run must pass again.
#[derive(Debug, PartialEq)]
struct Args {
    spec: DeviceSpec,
    launch: LaunchConfig,
    region: Option<ApproxRegion>,
    opts: ExecOptions,
}

/// A recorded launch.
struct Recorded {
    trace: Trace,
    record: KernelRecord,
    /// The walk's cost-ceiling bound after its last block.
    final_bound: f64,
    out_dim: usize,
    /// The declared inputs, dimensions and cost profiles at recording.
    #[cfg(debug_assertions)]
    fingerprint: u64,
}

/// A record-or-replay handle for one grid-stride launch that an iterative
/// application issues again over unchanged declared inputs (see the
/// `replay` module's docs).
///
/// The first [`RepeatedLaunch::run`] walks the launch as
/// [`approx_parallel_for_opts`](crate::exec::approx_parallel_for_opts)
/// would and, for accurate, perforated and iACT regions of bodies with
/// [`StoreVisibility::Independent`] stores, records its decisions. Every
/// later run replays them on the calling thread and returns the recorded
/// [`KernelRecord`], accounted through [`gpu_sim::account_kernel`] like a
/// walked launch and counted in the `kernel_replays` obs counter. TAF
/// regions and other bodies walk on every run.
///
/// The caller's contract: every run passes the same spec, launch, region
/// and options, the cost ceiling aside (checked in all builds), and a body
/// whose `inputs()`, `in_dim`/`out_dim` and cost profiles are those of the
/// first run; only what `compute` reads beyond the declared inputs may
/// change. Debug builds fingerprint the declared inputs on every replay and
/// panic on a change.
///
/// A replay applies the cost ceiling where the walk would: the walk's
/// lower bound only grows as blocks merge, so the walk aborts exactly when
/// the bound after its last block exceeds the ceiling, and the replay
/// checks that recorded bound once. As after an aborted walk, the body's
/// state after a [`RegionError::CostCeiling`] is unspecified.
#[derive(Default)]
pub struct RepeatedLaunch {
    first: Option<Args>,
    recorded: Option<Recorded>,
    /// Replay scratch: the current outputs of the trace's writers.
    kept: Vec<f64>,
    out: Vec<f64>,
}

impl RepeatedLaunch {
    pub fn new() -> Self {
        RepeatedLaunch::default()
    }

    /// Whether later runs replay a recording (tests only).
    #[cfg(test)]
    pub(crate) fn replays(&self) -> bool {
        self.recorded.is_some()
    }

    /// Run the launch: walk it (recording its decisions if it can replay)
    /// on the first call, replay it on later calls.
    pub fn run<B: RegionBody>(
        &mut self,
        spec: &DeviceSpec,
        launch: &LaunchConfig,
        region: Option<&ApproxRegion>,
        body: &mut B,
        opts: &ExecOptions,
    ) -> Result<KernelRecord, RegionError> {
        let args = Args {
            spec: *spec,
            launch: *launch,
            region: region.copied(),
            // Not the ceiling: a run lowers it launch by launch.
            opts: ExecOptions {
                abort_above_seconds: None,
                ..*opts
            },
        };
        match &self.first {
            Some(first) => assert!(
                *first == args,
                "RepeatedLaunch::run: every run must pass the spec, launch, region and \
                 options of the first run"
            ),
            None => self.first = Some(args),
        }
        if self.recorded.is_some() {
            return self.replay(body, opts);
        }
        let kernel = resolve(spec, launch, region, body, opts.serialized_taf)?;
        if !replayable(&kernel, body) {
            return walk::execute(spec, &kernel, body, opts);
        }
        let mut trace = Trace::default();
        let (record, final_bound) =
            walk::execute_traced(spec, &kernel, body, opts, Some(&mut trace))?;
        self.recorded = Some(Recorded {
            #[cfg(debug_assertions)]
            fingerprint: fingerprint(spec, body, &trace),
            trace,
            record,
            final_bound,
            out_dim: body.out_dim(),
        });
        Ok(record)
    }

    fn replay<B: RegionBody>(
        &mut self,
        body: &mut B,
        opts: &ExecOptions,
    ) -> Result<KernelRecord, RegionError> {
        let rec = self
            .recorded
            .as_ref()
            .expect("replay follows a recorded run");
        let out_dim = rec.out_dim;
        assert_eq!(
            body.out_dim(),
            out_dim,
            "RepeatedLaunch::run: the body's out_dim changed since the recorded run"
        );
        #[cfg(debug_assertions)]
        {
            let spec = &self.first.as_ref().expect("args of the first run").spec;
            assert!(
                fingerprint(spec, body, &rec.trace) == rec.fingerprint,
                "RepeatedLaunch::run: the body's declared inputs, dimensions or cost \
                 profiles changed since the recorded run"
            );
        }
        // The walk checks after every block, and a launch has at least one
        // (`KernelExec::new` rejects an empty grid).
        launch::check_ceiling(rec.final_bound, opts)?;

        let (kept, out) = (&mut self.kept, &mut self.out);
        kept.resize(rec.trace.writers as usize * out_dim, 0.0);
        out.resize(out_dim, 0.0);
        let mut next = 0;
        for step in &rec.trace.steps {
            let item = step.item as usize;
            match step.src {
                COMPUTED => {
                    body.compute(item, out);
                    body.store(item, out);
                }
                KEPT => {
                    body.compute(item, out);
                    lane::copy(&mut kept[next..next + out_dim], out);
                    next += out_dim;
                    body.store(item, out);
                }
                writer => {
                    let at = writer as usize * out_dim;
                    body.store(item, &kept[at..at + out_dim]);
                }
            }
        }
        gpu_sim::account_kernel(&rec.record);
        hpac_obs::inc(hpac_obs::CounterId::KernelReplays);
        Ok(rec.record)
    }
}

/// A hash of what the caller promises not to change between runs: the
/// dimensions, the cost profiles at one lane and a full warp, and the
/// declared inputs of every recorded lane.
#[cfg(debug_assertions)]
fn fingerprint(spec: &DeviceSpec, body: &dyn RegionBody, trace: &Trace) -> u64 {
    let mix = |h: u64, word: u64| (h ^ word).wrapping_mul(0x100_0000_01b3);
    let (in_dim, out_dim) = (body.in_dim(), body.out_dim());
    let mut h = mix(mix(0xcbf2_9ce4_8422_2325, in_dim as u64), out_dim as u64);
    for lanes in [1, spec.warp_size] {
        let costs = [
            body.accurate_cost(lanes, spec),
            body.input_cost(lanes, spec),
            body.store_cost(lanes, spec),
        ];
        h = format!("{costs:?}")
            .bytes()
            .fold(h, |h, b| mix(h, b as u64));
    }
    if in_dim > 0 {
        let mut buf = vec![0.0; in_dim];
        for step in &trace.steps {
            body.inputs(step.item as usize, &mut buf);
            h = buf.iter().fold(h, |h, v| mix(h, v.to_bits()));
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_step_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Step>(), 8);
    }
}
