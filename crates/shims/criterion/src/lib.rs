//! Offline stand-in for `criterion`.
//!
//! Implements the harness API the workspace's benches use —
//! `criterion_group!`/`criterion_main!`, `Criterion::benchmark_group`,
//! `bench_function`, `Bencher::iter` — with plain wall-clock timing and a
//! mean-per-iteration report. No statistics, warm-up scheduling, or HTML
//! output; good enough to watch for order-of-magnitude regressions.

#![forbid(unsafe_code)]

use std::time::Instant;

/// Drives one benchmark closure.
pub struct Bencher {
    iters: u64,
    elapsed_ns: u128,
}

impl Bencher {
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut f: F) {
        // One untimed warm-up pass.
        std::hint::black_box(f());
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed_ns = start.elapsed().as_nanos();
    }
}

/// Top-level benchmark context.
pub struct Criterion {
    default_sample_size: u64,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_sample_size: 10,
        }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.default_sample_size,
            _parent: self,
        }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_one(id, self.default_sample_size, f);
        self
    }
}

/// A named group of related benchmark functions.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: u64,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = (n as u64).max(1);
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_one(&format!("{}/{}", self.name, id), self.sample_size, f);
        self
    }

    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, iters: u64, mut f: F) {
    let mut b = Bencher {
        iters,
        elapsed_ns: 0,
    };
    f(&mut b);
    let mean_ns = b.elapsed_ns as f64 / b.iters.max(1) as f64;
    println!("{label:<40} {:>12.1} ns/iter ({} iters)", mean_ns, b.iters);
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_closure() {
        let mut c = Criterion::default();
        let mut count = 0u64;
        c.bench_function("counter", |b| b.iter(|| count += 1));
        // One warm-up + default_sample_size timed iterations.
        assert_eq!(count, 11);
    }

    #[test]
    fn group_sample_size_applies() {
        let mut c = Criterion::default();
        let mut count = 0u64;
        let mut g = c.benchmark_group("g");
        g.sample_size(3);
        g.bench_function("counter", |b| b.iter(|| count += 1));
        g.finish();
        assert_eq!(count, 4);
    }
}
