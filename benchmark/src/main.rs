//! The repo benchmark. `BENCHMARK.json` at the repo root names the
//! workloads and metrics; this driver runs them.
//!
//! ```text
//! hpac-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run in this process; the last line of standard output is the
//!     result: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
//! hpac-benchmark [--seed <n>] [--seconds <s>] [--runs <r>] [--workload <name>]
//!     every workload (or the named one), each run in a fresh child
//!     process: <r> end-to-end runs and one traced run; writes
//!     benchmark/target/results-seed<n>.json unless filtered
//! hpac-benchmark --list
//! hpac-benchmark compare <a.json> <b.json>
//! ```
//!
//! Exit codes: 0 fine; 1 an op failed a check or `compare` found a
//! regression; 2 refused to start (bad arguments, an `HPAC_*` variable set,
//! `BENCHMARK.json` unreadable or disagreeing with the driver); 3 `compare`
//! found nothing regressed but something unresolved.

mod compare;
mod layers;
mod manifest;
mod names;
mod report;
mod serve;
mod spans;
mod stats;
mod suite;
mod sweep;
mod tune;
mod workload;

use hpac_tuner::json::Json;
use manifest::Manifest;
use report::{Results, WorkloadResult};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workload::RunOutput;

fn refuse(msg: &str) -> ExitCode {
    eprintln!("hpac-benchmark: {msg}");
    ExitCode::from(2)
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: Option<bool>,
    runs: usize,
    list: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        runs: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs {what}"))
        };
        match a.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: u64 = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be between 1 and 60".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace is 0 or 1, not {other:?}")),
                })
            }
            "--runs" => {
                args.runs = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--list" => args.list = true,
            "compare" => {
                args.compare = Some((
                    value("two results files")?.into(),
                    value("two results files")?.into(),
                ))
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The set-up of a workload by name: inputs from the seed, caches under the
/// scratch directory, one warm-up round.
fn set_up_for(name: &str) -> Option<workload::SetUp> {
    Some(match name {
        "sweep_memo" => |seed, _| Box::new(sweep::Sweep::set_up(&sweep::MEMO_APPS, seed)),
        "sweep_iter" => |seed, _| Box::new(sweep::Sweep::set_up(&sweep::ITER_APPS, seed)),
        "tune_cold" => |seed, dir| Box::new(tune::TuneCold::set_up(seed, dir)),
        "serve_hits" => |seed, dir| Box::new(serve::Serve::set_up(serve::Kind::Hits, seed, dir)),
        "serve_churn" => |seed, dir| Box::new(serve::Serve::set_up(serve::Kind::Churn, seed, dir)),
        _ => return None,
    })
}

fn list(m: &Manifest) {
    println!("workloads ({} s measured per run):", m.run_seconds);
    for (name, why) in &m.workloads {
        println!("  {name:<12} {why}");
    }
    println!("end-to-end metrics (gated):");
    for d in &m.end_to_end {
        println!(
            "  {:<40} {:<8} {:<6} better, bound {:.0}%",
            d.name,
            d.unit,
            d.direction(),
            d.bound.unwrap_or(0.0) * 100.0
        );
    }
    println!("per-layer metrics (not gated):");
    for d in &m.per_layer {
        println!("  {:<40} {:<8} {} better", d.name, d.unit, d.direction());
    }
}

/// One run in this process, the contract's way.
fn single_run(m: &Manifest, name: &str, traced: bool, seed: u64, seconds: u64) -> ExitCode {
    let Some(set_up) = set_up_for(name) else {
        return refuse(&format!("no workload {name:?}; try --list"));
    };
    println!(
        "{name}: seed {seed}, {seconds} s, trace {}, {} cores, engine width {}",
        u8::from(traced),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        hpac_core::exec::engine().default_width()
    );
    let run = if traced {
        workload::run_traced(name, set_up, seed, seconds as f64)
    } else {
        workload::run_end_to_end(set_up, seed, seconds as f64)
    };
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("hpac-benchmark: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let defs = if traced { &m.per_layer } else { &m.end_to_end };
    report::print_metrics(&run, defs);
    println!("{}", report::info_line(&run));
    println!("{}", report::result_line(&run, defs));
    if run.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "hpac-benchmark: {name}: {} of {} ops failed",
            run.failed, run.attempted
        );
        ExitCode::FAILURE
    }
}

/// One run in a fresh child process, read back from what it printed: the
/// result line and the info line before it.
fn run_child(name: &str, traced: bool, seed: u64, seconds: u64) -> Result<RunOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {name} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().ok_or_else(|| format!("{name}: no output"))?;
    for line in &lines {
        println!("    {line}");
    }
    let malformed = || format!("{name}: malformed result or info line");
    let doc = Json::parse(result).map_err(|_| malformed())?;
    let info = lines
        .iter()
        .rev()
        .find_map(|l| l.strip_prefix("info: "))
        .and_then(|l| Json::parse(l).ok())
        .ok_or_else(malformed)?;
    let whole = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_usize);
    let Some(Json::Obj(fields)) = doc.get("metrics") else {
        return Err(malformed());
    };
    Ok(RunOutput {
        attempted: whole(&doc, "attempted").ok_or_else(malformed)? as u64,
        failed: whole(&doc, "failed").ok_or_else(malformed)? as u64,
        rounds: whole(&info, "rounds").ok_or_else(malformed)?,
        metrics: fields
            .iter()
            .filter_map(|(n, m)| Some((n.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        digest: info
            .get("digest")
            .and_then(Json::as_str)
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or_else(malformed)?,
    })
}

/// Short commit hash of the tree being measured; "unknown" outside a git
/// checkout.
fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(manifest::package_dir())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The seed-0 digest recorded in `benchmark/baseline.json`, if any.
fn recorded_digest(workload: &str) -> Option<String> {
    let text = std::fs::read_to_string(manifest::package_dir().join("baseline.json")).ok()?;
    let doc = Json::parse(&text).ok()?;
    Some(
        doc.get("seed0_digests")?
            .get(workload)?
            .as_str()?
            .to_string(),
    )
}

/// Every workload (or the named one), each run in a fresh child process.
fn orchestrate(m: &Manifest, args: &Args) -> ExitCode {
    let seconds = args.seconds.unwrap_or(m.run_seconds);
    let selected: Vec<&str> = m
        .workloads
        .iter()
        .map(|(n, _)| n.as_str())
        .filter(|n| args.workload.as_deref().is_none_or(|w| w == *n))
        .collect();
    if selected.is_empty() {
        return refuse("no such workload; try --list");
    }
    let mut results = Results {
        commit: git_commit(),
        seed: args.seed,
        seconds,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        engine_width: hpac_core::exec::engine().default_width(),
        workloads: Vec::new(),
    };
    println!(
        "hpac-benchmark: commit {}, seed {}, {} s per run, {} end-to-end run(s) + 1 traced run \
         per workload, {} cores, engine width {}",
        results.commit, args.seed, seconds, args.runs, results.host_cores, results.engine_width
    );
    let mut failed_any = false;
    for name in selected {
        let mut w = WorkloadResult {
            name: name.to_string(),
            attempted: 0,
            failed: 0,
            digest: String::new(),
            rounds: Vec::new(),
            end_to_end: m
                .end_to_end
                .iter()
                .map(|d| (d.name.clone(), Vec::new()))
                .collect(),
            per_layer: Vec::new(),
        };
        for run in 0..=args.runs {
            let traced = run == args.runs;
            println!(
                "\n== {name}: {} ==",
                if traced {
                    "traced run".to_string()
                } else {
                    format!("end-to-end run {}/{}", run + 1, args.runs)
                }
            );
            let child = match run_child(name, traced, args.seed, seconds) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("hpac-benchmark: {e}");
                    return ExitCode::FAILURE;
                }
            };
            w.attempted += child.attempted;
            w.failed += child.failed;
            if traced {
                w.per_layer = child.metrics;
            } else {
                w.rounds.push(child.rounds as u64);
                for (name, value) in child.metrics {
                    if let Some((_, runs)) = w.end_to_end.iter_mut().find(|(n, _)| *n == name) {
                        runs.push(value);
                    }
                }
            }
            let digest = format!("{:016x}", child.digest);
            if !w.digest.is_empty() && w.digest != digest {
                eprintln!("hpac-benchmark: {name}: digest differs between runs of one seed");
                w.failed += 1;
            }
            w.digest = digest;
        }
        println!(
            "\n{name}: ops attempted {}, failed {}, digest {}",
            w.attempted, w.failed, w.digest
        );
        if args.seed == 0 {
            if let Some(recorded) = recorded_digest(name).filter(|r| *r != w.digest) {
                println!(
                    "{name}: digest differs from the recorded {recorded}: the model changed \
                     (reported, not failed)"
                );
            }
        }
        failed_any |= w.failed > 0;
        results.workloads.push(w);
    }
    if args.workload.is_some() {
        println!("\n--workload filter active: not writing a results file");
    } else {
        let path = manifest::package_dir()
            .join("target")
            .join(format!("results-seed{}.json", args.seed));
        let written = std::fs::create_dir_all(path.parent().expect("has a parent"))
            .and_then(|()| std::fs::write(&path, results.to_json(m).render()));
        match written {
            Ok(()) => println!("\nwrote {}", path.display()),
            Err(e) => {
                eprintln!("hpac-benchmark: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if failed_any {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Pin glibc malloc's mmap and trim thresholds, so that freed memory stays
/// with the allocator. Left alone, both thresholds ratchet up with the
/// largest mapped chunk freed so far, and which arena ends up keeping what
/// follows the order of frees across threads: the same `serve_churn` run
/// peaked at 38 or at 45 MiB from one process to the next. Pinned, every
/// arena keeps its high-water mark, `peak_rss_mb` repeats to a few percent,
/// and rounds no longer pay for mapping and unmapping their large buffers.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_thresholds() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` is glibc's own entry point for these two tunables
    // and takes them by value; it runs first thing in `main`, before any
    // other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20); // the largest glibc accepts
        mallopt(M_TRIM_THRESHOLD, 1 << 28);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_thresholds() {}

fn main() -> ExitCode {
    pin_malloc_thresholds();
    // An HPAC_* variable changes the configuration being measured (engine
    // width, executor, cache directory, tracing): refuse rather than
    // publish numbers for something else.
    if let Some((key, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("HPAC_"))
    {
        return refuse(&format!(
            "{} is set; unset every HPAC_* variable to measure the default configuration",
            key.to_string_lossy()
        ));
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => return refuse(&e),
    };
    let m = match Manifest::load(&manifest::manifest_path()) {
        Ok(m) => m,
        Err(e) => return refuse(&e),
    };
    let disagreement = m.disagreement();
    if !disagreement.is_empty() {
        return refuse(&disagreement.join("; "));
    }

    if args.list {
        list(&m);
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return match (Results::load(a), Results::load(b)) {
            (Ok(a), Ok(b)) => ExitCode::from(compare::compare(&m, &a, &b) as u8),
            (Err(e), _) | (_, Err(e)) => refuse(&e),
        };
    }
    match (&args.workload, args.trace) {
        (Some(name), Some(traced)) => single_run(
            &m,
            name,
            traced,
            args.seed,
            args.seconds.unwrap_or(m.run_seconds),
        ),
        (None, Some(_)) => refuse("--trace needs --workload"),
        (_, None) => orchestrate(&m, &args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a = parse_args(&argv(
            "--workload serve_hits --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_hits"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(12), Some(true)));
        let a = parse_args(&argv("compare a.json b.json")).unwrap();
        assert_eq!(a.compare, Some(("a.json".into(), "b.json".into())));
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
    }

    #[test]
    fn every_declared_workload_can_be_set_up() {
        for name in names::WORKLOADS {
            assert!(set_up_for(name).is_some(), "{name}");
        }
        assert!(set_up_for("nope").is_none());
    }
}
