//! Inputs: the seven applications at the sizes of `sweepbench`'s `suite()`
//! (copied, not imported), seeded from `--seed`; the request-schedule PRNG;
//! and the digests the checks compare.

use hpac_apps::common::Benchmark;
use hpac_apps::{
    binomial::BinomialOptions, blackscholes::Blackscholes, kmeans::KMeans, lavamd::LavaMd,
    leukocyte::Leukocyte, lulesh::Lulesh, minife::MiniFe,
};
use hpac_harness::runner::SweepOutcome;
use hpac_tuner::TunedPlan;

pub struct App {
    /// Short key from [`crate::names::APPS`].
    pub key: &'static str,
    pub bench: Box<dyn Benchmark>,
}

/// All seven applications in Table 1 order. Seed 0 is each application's
/// canonical dataset; seed `s` shifts the dataset seed of Leukocyte,
/// Binomial Options, MiniFE and LavaMD by `s`.
///
/// LULESH has no seed. K-Means and Blackscholes — 55% of `sweep_iter` and
/// 76% of `sweep_memo` — keep their canonical datasets at every seed on
/// purpose, because their cost follows the dataset and not only the code
/// under test. K-Means' Lloyd solver is convergence-driven: over dataset
/// seeds 0..9 the accurate solve takes 11 to 39 iterations and the quick
/// sweep 0.78 s to 1.33 s. Blackscholes' sweep moves by 8% over seeds 0..7
/// with the memoization hit pattern. Runs at different seeds are compared
/// against one bound, so the workloads must cost the same at every seed.
pub fn suite(seed: u64) -> Vec<App> {
    fn shift(default_seed: u64, seed: u64) -> u64 {
        default_seed.wrapping_add(seed)
    }
    let app = |key, bench: Box<dyn Benchmark>| App { key, bench };
    vec![
        app(
            "lulesh",
            Box::new(Lulesh {
                edge: 12,
                steps: 8,
                dt: 1e-4,
                ..Lulesh::default()
            }),
        ),
        app(
            "leukocyte",
            Box::new(Leukocyte {
                n_cells: 8,
                grid: 16,
                iterations: 24,
                seed: shift(Leukocyte::default().seed, seed),
                ..Leukocyte::default()
            }),
        ),
        app(
            "binomial",
            Box::new(BinomialOptions {
                n_options: 1024,
                tree_steps: 96,
                seed: shift(BinomialOptions::default().seed, seed),
                ..BinomialOptions::default()
            }),
        ),
        app(
            "minife",
            Box::new(MiniFe {
                nx: 10,
                max_iters: 25,
                seed: shift(MiniFe::default().seed, seed),
                ..MiniFe::default()
            }),
        ),
        app("blackscholes", Box::<Blackscholes>::default()),
        app(
            "lavamd",
            Box::new(LavaMd {
                boxes_per_dim: 4,
                par_per_box: 16,
                seed: shift(LavaMd::default().seed, seed),
                ..LavaMd::default()
            }),
        ),
        app(
            "kmeans",
            Box::new(KMeans {
                n_points: 2048,
                max_iters: 40,
                ..KMeans::default()
            }),
        ),
    ]
}

/// The applications named by `keys`, in that order.
pub fn pick(seed: u64, keys: &[&str]) -> Vec<App> {
    let mut all = suite(seed);
    keys.iter()
        .map(|k| {
            let i = all
                .iter()
                .position(|a| a.key == *k)
                .unwrap_or_else(|| panic!("no application {k:?}"));
            all.swap_remove(i)
        })
        .collect()
}

/// SplitMix64: the request schedules' PRNG. Small, seedable, and the same
/// on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n` is tiny against 2^64, so the
    /// bias is far below anything a schedule could show).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// A request schedule of `n` draws from `0..keys`: every key comes up
/// equally often (to within one), in an order the seed decides. The mix of a
/// round is then the same at every seed — keys differ tenfold in cost, and
/// independent draws would let the mix, and with it the round time and the
/// median latency, wander from seed to seed.
pub fn schedule(seed: u64, stream: u64, n: usize, keys: usize) -> Vec<u16> {
    let mut rng = Rng::new(seed ^ (stream + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut draws: Vec<u16> = (0..n).map(|i| (i % keys) as u16).collect();
    for i in (1..n).rev() {
        draws.swap(i, rng.below(i + 1));
    }
    draws
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x100_0000_01B3);
        }
    }

    /// A string with its length, so adjacent strings cannot run together.
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a sweep's modeled results in row order: each row's label,
/// speedup bits and error bits, then the rejected labels. Host timing is not
/// part of it, so it repeats exactly on any machine unless the model changed.
pub fn rows_digest<'a>(
    rows: impl Iterator<Item = (&'a str, f64, f64)>,
    rejected: impl Iterator<Item = &'a str>,
) -> u64 {
    let mut h = Fnv::new();
    for (label, speedup, error_pct) in rows {
        h.text(label);
        h.word(speedup.to_bits());
        h.word(error_pct.to_bits());
    }
    h.word(u64::MAX);
    for label in rejected {
        h.text(label);
    }
    h.finish()
}

pub fn outcome_digest(o: &SweepOutcome) -> u64 {
    rows_digest(
        o.rows
            .iter()
            .map(|r| (r.config.as_str(), r.speedup, r.error_pct)),
        o.rejected.iter().map(|(label, _)| label.as_str()),
    )
}

/// Digest of what a plan promises: benchmark, device, bound, chosen
/// configuration, predicted speedup and measured error.
pub fn plan_digest(p: &TunedPlan) -> u64 {
    let mut h = Fnv::new();
    h.text(&p.benchmark);
    h.text(&p.device);
    h.word(p.bound_pct.to_bits());
    h.text(&p.config);
    h.word(p.predicted_speedup.to_bits());
    h.word(p.measured_error_pct.to_bits());
    h.finish()
}

/// Fold per-item digests into one, order-sensitive.
pub fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::new();
    for d in digests {
        h.word(d);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROWS: [(&str, f64, f64); 3] = [
        ("taf h1 p4", 1.5, 0.25),
        ("iact t2", 1.25, 3.0),
        ("perfo small:2", 2.0, 11.0),
    ];

    #[test]
    fn digest_is_stable_and_sensitive() {
        let base = rows_digest(ROWS.into_iter(), ["rej a"].into_iter());
        assert_eq!(base, rows_digest(ROWS.into_iter(), ["rej a"].into_iter()));

        let mut flipped = ROWS;
        flipped[1].1 = f64::from_bits(flipped[1].1.to_bits() ^ 1);
        assert_ne!(
            base,
            rows_digest(flipped.into_iter(), ["rej a"].into_iter())
        );

        let mut swapped = ROWS;
        swapped.swap(0, 2);
        assert_ne!(
            base,
            rows_digest(swapped.into_iter(), ["rej a"].into_iter())
        );

        assert_ne!(base, rows_digest(ROWS.into_iter(), ["rej b"].into_iter()));
        // A label moving between rows and rejected must show.
        assert_ne!(
            rows_digest(ROWS[..2].iter().copied(), ["x"].into_iter()),
            rows_digest(ROWS[..2].iter().copied(), std::iter::empty()),
        );
    }

    #[test]
    fn schedules_follow_the_seed() {
        let a = schedule(7, 0, 1000, 28);
        assert_eq!(a, schedule(7, 0, 1000, 28));
        assert_ne!(a, schedule(8, 0, 1000, 28));
        assert_ne!(a, schedule(7, 1, 1000, 28));
        // The same mix at every seed: each key 35 or 36 times in 1000.
        for seed in [7, 8] {
            let s = schedule(seed, 0, 1000, 28);
            assert!((0..28).all(|k| (35..=36).contains(&s.iter().filter(|&&x| x == k).count())));
        }
    }

    #[test]
    fn suite_is_in_table_order_and_pick_reorders() {
        let keys: Vec<_> = suite(0).iter().map(|a| a.key).collect();
        assert_eq!(keys, crate::names::APPS);
        assert_eq!(
            pick(3, &["kmeans", "lulesh"])
                .iter()
                .map(|a| a.key)
                .collect::<Vec<_>>(),
            ["kmeans", "lulesh"]
        );
    }
}
