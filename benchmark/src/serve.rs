//! The two serving workloads, both closed loops of at most `nproc` client
//! threads against one `TuningService` over a populated cache.
//!
//! `serve_hits` only reads: every request is a cache hit, so a round is
//! `hpac-service` request overhead plus `TuningCache::load`. `serve_churn`
//! uses the same layers the other way round: every op asks for a bound the
//! cache has never seen (neighbour scan, a warm start that short-circuits on
//! its seeds, a store) and reads it back, and the round ends with requests
//! released in identical groups to exercise in-flight coalescing.

use crate::names::LayerMetrics;
use crate::spans::{spanned, SpanLog};
use crate::stats;
use crate::suite::{self, App, Fnv};
use crate::tune::{account_response, quick_service, verify_plans};
use crate::workload::{pooled_lat_us, Round, Workload};
use gpu_sim::DeviceSpec;
use hpac_service::{Source, TuneRequest, TuningService};
use hpac_tuner::{device_fingerprint, QualityBound, TunedPlan, TuningCache};
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

/// Bounds populated per application, in percent. Ascending: each bound after
/// the first is warm-started from the ones before it.
const TEMPLATE_BOUNDS: [f64; 4] = [3.0, 5.0, 8.0, 12.0];

/// Churn asks for bounds just above this template bound, so the template
/// plan at it is always a feasible warm-start seed.
const CHURN_BASE_BOUND: f64 = 5.0;

/// The cache keys its entries in basis points; this is the smallest step
/// between two bounds it tells apart.
const BOUND_STEP: f64 = 0.01;

/// Requests per `serve_hits` round, over all clients.
const HITS_PER_ROUND: usize = 60_000;

/// Never-seen bounds per `serve_churn` round, over all clients.
const CHURN_PER_ROUND: usize = 100;

/// Groups of identical fresh requests released together per churn round.
const COALESCE_GROUPS: usize = 20;

/// Requests the warm-up round of `serve_hits` issues: enough to touch every
/// entry many times, a fraction of a timed round.
const HITS_WARM_UP: usize = 4_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hits,
    Churn,
}

/// Provenance counts over every churn round since set-up, for the
/// `service.*` ratios. One round has 20 followers; whether each arrives
/// while its leader is still searching is up to the scheduler, so the ratio
/// is taken over all the rounds a run makes.
#[derive(Debug, Default, Clone, Copy)]
struct ChurnCounts {
    fresh: u64,
    fresh_evals: u64,
    short_circuited: u64,
    /// Clients that asked for a group's key without leading its search, and
    /// those of them answered by the leader's search in flight.
    followers: u64,
    coalesced: u64,
}

pub struct Serve {
    kind: Kind,
    apps: Vec<App>,
    spec: DeviceSpec,
    fingerprint: u64,
    clients: usize,
    template: TuningCache,
    work: TuningCache,
    service: TuningService,
    /// Populated keys `(app index, bound)` and the plan stored under each.
    keys: Vec<(usize, f64)>,
    plans: Vec<TunedPlan>,
    digests: Vec<u64>,
    /// Per client, indices into `keys` (`serve_hits`).
    hit_schedule: Vec<Vec<u16>>,
    /// Per churn op, the application asked about; op `j` asks for bound
    /// `CHURN_BASE_BOUND + (j + 1) * BOUND_STEP`.
    churn_apps: Vec<usize>,
    churn: ChurnCounts,
    searches: u64,
    cache_hits: u64,
    /// Fresh plans of the last churn round, for `verify`.
    fresh_plans: Vec<(usize, TunedPlan)>,
}

fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}

impl Serve {
    pub fn set_up(kind: Kind, seed: u64, scratch: &Path) -> Self {
        let spec = DeviceSpec::v100();
        let apps = suite::suite(seed);
        let clients = hpac_core::exec::engine().default_width();
        let template = TuningCache::new(scratch.join("template"));
        let work = TuningCache::new(scratch.join("work"));

        // Populate the template through the service, as a user would.
        let populate = quick_service(template.clone());
        let mut keys = Vec::new();
        let mut plans = Vec::new();
        for bound in TEMPLATE_BOUNDS {
            for (i, app) in apps.iter().enumerate() {
                let resp = populate.submit(TuneRequest::new(
                    app.bench.as_ref(),
                    &spec,
                    QualityBound::percent(bound),
                ));
                keys.push((i, bound));
                plans.push(resp.plan);
            }
        }
        let digests = plans.iter().map(suite::plan_digest).collect();

        let hit_schedule = (0..clients)
            .map(|c| suite::schedule(seed, c as u64, HITS_PER_ROUND / clients, keys.len()))
            .collect();
        // Churn draws from the applications whose plan at the base bound
        // beats the accurate run: only for those does the warm start find a
        // winning seed and skip the grid search.
        let eligible: Vec<usize> = keys
            .iter()
            .zip(&plans)
            .filter(|((_, b), p)| *b == CHURN_BASE_BOUND && p.predicted_speedup > 1.0)
            .map(|((i, _), _)| *i)
            .collect();
        assert!(!eligible.is_empty(), "no application tunes above 1x");
        // One balanced stream per client for the fresh bounds, one more for
        // the groups.
        let per_client = CHURN_PER_ROUND / clients;
        let churn_apps = (0..=clients)
            .flat_map(|stream| {
                let n = if stream < clients {
                    per_client
                } else {
                    COALESCE_GROUPS
                };
                suite::schedule(seed, (clients + stream) as u64, n, eligible.len())
            })
            .map(|k| eligible[k as usize])
            .collect();

        let mut serve = Serve {
            kind,
            apps,
            spec,
            fingerprint: device_fingerprint(&spec),
            clients,
            service: quick_service(work.clone()),
            template,
            work,
            keys,
            plans,
            digests,
            hit_schedule,
            churn_apps,
            churn: ChurnCounts::default(),
            searches: 0,
            cache_hits: 0,
            fresh_plans: Vec::new(),
        };
        serve.restore();
        match kind {
            Kind::Hits => serve.hits_round(None, HITS_WARM_UP / clients),
            Kind::Churn => serve.churn_round(None),
        };
        serve
    }

    /// Put the working cache back to the populated template.
    fn restore(&self) {
        self.work.clear().expect("clear the working cache");
        copy_tree(self.template.dir(), self.work.dir()).expect("copy the cache template");
    }

    fn request(&self, app: usize, bound: f64) -> TuneRequest<'_> {
        TuneRequest::new(
            self.apps[app].bench.as_ref(),
            &self.spec,
            QualityBound::percent(bound),
        )
    }

    fn churn_bound(op: usize) -> f64 {
        CHURN_BASE_BOUND + (op + 1) as f64 * BOUND_STEP
    }

    /// Run `client(index, log)` on every client thread and fold what they
    /// return, in client order, into one round.
    fn on_clients<F>(&self, mut log: Option<&mut SpanLog>, client: F) -> (Round, Vec<ClientOut>)
    where
        F: Fn(usize, Option<&mut SpanLog>) -> ClientOut + Sync,
    {
        let whole = log.as_deref_mut().map(|l| l.enter("round", "bench", "", 0));
        let t = Instant::now();
        let outs: Vec<(ClientOut, Option<SpanLog>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.clients)
                .map(|c| {
                    let mut clog = log.as_deref().map(|l| l.child(c as u32 + 1));
                    let client = &client;
                    s.spawn(move || {
                        let span = clog.as_mut().map(|l| l.enter("client", "bench", "", 0));
                        let out = client(c, clog.as_mut());
                        if let (Some(l), Some(id)) = (clog.as_mut(), span) {
                            l.exit(id);
                        }
                        (out, clog)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut round = Round {
            seconds: t.elapsed().as_secs_f64(),
            ..Round::default()
        };
        let mut digest = Fnv::new();
        let mut kept = Vec::with_capacity(outs.len());
        for (out, clog) in outs {
            let r = &out.round;
            round.ops += r.ops;
            round.failed += r.failed;
            round.evals += r.evals;
            round.searched += r.searched;
            round.budget_frac_sum += r.budget_frac_sum;
            round.ln_speedup_sum += r.ln_speedup_sum;
            round.speedups += r.speedups;
            round.lat_ns.extend_from_slice(&r.lat_ns);
            digest.word(out.digest.finish());
            if let (Some(l), Some(id), Some(clog)) = (log.as_deref_mut(), whole, clog) {
                l.absorb(clog, id);
            }
            kept.push(out);
        }
        if let (Some(l), Some(id)) = (log, whole) {
            l.exit(id);
        }
        round.digest = digest.finish();
        (round, kept)
    }

    fn hits_round(&mut self, log: Option<&mut SpanLog>, per_client: usize) -> Round {
        let before = self.service.stats();
        let (round, _) = self.on_clients(log, |c, mut clog| {
            let mut out = ClientOut::with_capacity(per_client);
            for (op, &k) in self.hit_schedule[c][..per_client].iter().enumerate() {
                let (app, bound) = self.keys[k as usize];
                let t = Instant::now();
                let resp = spanned(
                    clog.as_deref_mut(),
                    "submit",
                    "service",
                    self.apps[app].key,
                    op as u64,
                    || self.service.submit(self.request(app, bound)),
                );
                out.round.lat_ns.push(t.elapsed().as_nanos() as u64);
                account_response(&resp, &mut out.round);
                let digest = suite::plan_digest(&resp.plan);
                out.digest.word(digest);
                if resp.source != Source::CacheHit || digest != self.digests[k as usize] {
                    out.round.failed += 1;
                }
            }
            out
        });
        self.note_stats(before);
        round
    }

    fn churn_round(&mut self, log: Option<&mut SpanLog>) -> Round {
        self.restore();
        let before = self.service.stats();
        let per_client = CHURN_PER_ROUND / self.clients;
        let release = Barrier::new(self.clients);
        let (round, outs) = self.on_clients(log, |c, mut clog| {
            let mut out = ClientOut::with_capacity(per_client);
            // Phase 1: a never-seen bound, then a read-back of the same key.
            for i in 0..per_client {
                let op = c * per_client + i;
                let app = self.churn_apps[op];
                let key = self.apps[app].key;
                let bound = Self::churn_bound(op);
                let t = Instant::now();
                let fresh = spanned(
                    clog.as_deref_mut(),
                    "submit.fresh",
                    "service",
                    key,
                    op as u64,
                    || self.service.submit(self.request(app, bound)),
                );
                let again = spanned(
                    clog.as_deref_mut(),
                    "submit.readback",
                    "service",
                    key,
                    op as u64,
                    || self.service.submit(self.request(app, bound)),
                );
                out.round.lat_ns.push(t.elapsed().as_nanos() as u64);
                account_response(&fresh, &mut out.round);
                account_response(&again, &mut out.round);
                let digest = suite::plan_digest(&fresh.plan);
                out.digest.word(digest);
                let warm_seeds = match fresh.source {
                    Source::Searched { warm_seeds } => warm_seeds,
                    _ => 0,
                };
                out.counts.fresh += 1;
                out.counts.fresh_evals += fresh.evals_spent as u64;
                if warm_seeds > 0 && fresh.evals_spent <= warm_seeds {
                    out.counts.short_circuited += 1;
                }
                if warm_seeds == 0 || !fresh.plan.respects_bound() {
                    out.round.failed += 1;
                }
                if again.source != Source::CacheHit || suite::plan_digest(&again.plan) != digest {
                    out.round.failed += 1;
                }
                out.fresh_plans.push((app, fresh.plan));
            }
            // Phase 2: every client asks for the same fresh key at once.
            for g in 0..COALESCE_GROUPS {
                let op = per_client * self.clients + g;
                let app = self.churn_apps[op];
                release.wait();
                let resp = spanned(
                    clog.as_deref_mut(),
                    "submit.group",
                    "service",
                    self.apps[app].key,
                    op as u64,
                    || {
                        self.service
                            .submit(self.request(app, Self::churn_bound(op)))
                    },
                );
                account_response(&resp, &mut out.round);
                out.digest.word(suite::plan_digest(&resp.plan));
                if resp.source.is_coalesced() {
                    out.counts.coalesced += 1;
                }
                if !resp.plan.respects_bound() {
                    out.round.failed += 1;
                }
            }
            out
        });
        let mut round = round;
        let mut counts = self.churn;
        counts.followers += (COALESCE_GROUPS * (self.clients - 1)) as u64;
        self.fresh_plans.clear();
        for out in outs {
            counts.fresh += out.counts.fresh;
            counts.fresh_evals += out.counts.fresh_evals;
            counts.short_circuited += out.counts.short_circuited;
            counts.coalesced += out.counts.coalesced;
            self.fresh_plans.extend(out.fresh_plans);
        }
        self.note_stats(before);
        // Exactly one search per fresh key: one per phase-1 op, one per
        // group however many clients asked.
        let expected = (per_client * self.clients + COALESCE_GROUPS) as u64;
        if self.searches != expected {
            eprintln!(
                "check failed: {} searches for {expected} fresh keys",
                self.searches
            );
            round.failed += self.searches.abs_diff(expected);
        }
        self.churn = counts;
        round
    }

    fn note_stats(&mut self, before: hpac_service::ServiceStats) {
        let after = self.service.stats();
        self.searches = after.searches - before.searches;
        self.cache_hits = after.cache_hits - before.cache_hits;
    }
}

/// What one client thread hands back.
struct ClientOut {
    round: Round,
    digest: Fnv,
    counts: ChurnCounts,
    fresh_plans: Vec<(usize, TunedPlan)>,
}

impl ClientOut {
    fn with_capacity(ops: usize) -> Self {
        ClientOut {
            round: Round {
                lat_ns: Vec::with_capacity(ops),
                ..Round::default()
            },
            digest: Fnv::new(),
            counts: ChurnCounts::default(),
            fresh_plans: Vec::new(),
        }
    }
}

impl Workload for Serve {
    fn round(&mut self, log: Option<&mut SpanLog>) -> Round {
        match self.kind {
            Kind::Hits => self.hits_round(log, HITS_PER_ROUND / self.clients),
            Kind::Churn => self.churn_round(log),
        }
    }

    fn verify(&mut self) -> (u64, u64) {
        let populated = self
            .plans
            .iter()
            .zip(&self.keys)
            .map(|(p, (app, _))| (p, &self.apps[*app], &self.spec));
        let fresh = self
            .fresh_plans
            .iter()
            .map(|(app, p)| (p, &self.apps[*app], &self.spec));
        verify_plans(populated.chain(fresh))
    }

    fn layer_pass(&mut self, untraced: &[Round], log: &mut SpanLog, out: &mut LayerMetrics) -> u64 {
        let pooled = stats::sorted(&pooled_lat_us(untraced));
        let (p, tail_us) = stats::tail(&pooled);
        println!(
            "service.lat_tail_us is p{p} of {} op latencies",
            pooled.len()
        );
        out.set("service.lat_tail_us", tail_us);
        let ops_per_s: Vec<f64> = untraced.iter().map(|r| r.ops as f64 / r.seconds).collect();
        out.set("service.ops_per_s", stats::median(&ops_per_s));

        if self.kind == Kind::Hits {
            // What the service adds on top of the cache read it ends in:
            // both timed here, one thread, same keys.
            const PROBES: usize = 5_000;
            let pass = log.enter("hit_overhead", "bench", "", 0);
            let (mut submit_us, mut load_us) = (Vec::new(), Vec::new());
            for &k in &self.hit_schedule[0][..PROBES.min(self.hit_schedule[0].len())] {
                let (app, bound) = self.keys[k as usize];
                let t = Instant::now();
                std::hint::black_box(self.service.submit(self.request(app, bound)));
                submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                let t = Instant::now();
                std::hint::black_box(self.work.load(
                    self.apps[app].bench.name(),
                    self.spec.name,
                    bound,
                    self.fingerprint,
                ));
                load_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            log.exit(pass);
            out.set(
                "service.hit_overhead_us",
                stats::median(&submit_us) - stats::median(&load_us),
            );
        }
        0
    }

    fn traced_metrics(&mut self, _traced: &Round, out: &mut LayerMetrics) {
        out.set("service.searches", self.searches as f64);
        out.set("service.cache_hits", self.cache_hits as f64);
        if self.kind == Kind::Churn {
            let c = self.churn;
            out.set(
                "service.coalesced_frac",
                stats::ratio(c.coalesced, c.followers),
            );
            out.set(
                "service.warm_start_evals",
                stats::ratio(c.fresh_evals, c.fresh),
            );
            out.set(
                "service.warm_shortcircuit_frac",
                stats::ratio(c.short_circuited, c.fresh),
            );
            println!(
                "churn since set-up: {} fresh ops; groups of {}, {} of {} followers coalesced",
                c.fresh, self.clients, c.coalesced, c.followers
            );
        }
    }
}
