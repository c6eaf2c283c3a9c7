//! Every id of the `figures` binary generates at a small instance size: its
//! tables carry ids that start with it and are unique across ids, each has
//! the row count its shape fixes (or at least one row), every row has the
//! header's arity, and the CSV each table saves reads back cell for cell.
//! Of the paper's shapes, the ablations' design claims and the Fig 8c,
//! Fig 10b, Fig 11b and Fig 11c panels are asserted here, at the default instance
//! sizes, and the Fig 12c fit at the small suite's; EXPERIMENTS.md records
//! the status of every other figure.

use gpu_sim::DeviceSpec;
use hpac_offload::apps::common::install_eval_memo;
use hpac_offload::apps::{
    binomial::BinomialOptions, blackscholes::Blackscholes, kmeans::KMeans, lavamd::LavaMd,
    leukocyte::Leukocyte, lulesh::Lulesh, minife::MiniFe,
};
use hpac_offload::harness::analyze::{best_under_error, linear_fit};
use hpac_offload::harness::figures::{
    ablations, fig08c, fig10, fig11c, fig12, generate, FigureData, Suite, IDS,
};
use hpac_offload::harness::{run_sweep, Row, Scale};
use std::collections::HashSet;

fn small_suite() -> Suite {
    Suite {
        lulesh: Lulesh {
            edge: 4,
            steps: 4,
            dt: 1e-4,
            ..Lulesh::default()
        },
        leukocyte: Leukocyte {
            n_cells: 2,
            grid: 8,
            iterations: 8,
            ..Leukocyte::default()
        },
        binomial: BinomialOptions {
            n_options: 128,
            tree_steps: 16,
            ..BinomialOptions::default()
        },
        minife: MiniFe {
            nx: 4,
            max_iters: 10,
            ..MiniFe::default()
        },
        blackscholes: Blackscholes {
            n_options: 1024,
            ..Blackscholes::default()
        },
        lavamd: LavaMd {
            boxes_per_dim: 2,
            par_per_box: 8,
            ..LavaMd::default()
        },
        kmeans: KMeans {
            n_points: 256,
            max_iters: 10,
            ..KMeans::default()
        },
    }
}

/// The cells of one CSV line: RFC 4180 quoting, a doubled quote inside a
/// quoted cell standing for one.
fn csv_cells(line: &str) -> Vec<String> {
    let mut cells = vec![String::new()];
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        let cell = cells.last_mut().expect("one cell at least");
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                chars.next();
                cell.push('"');
            }
            '"' => quoted = !quoted,
            ',' if !quoted => cells.push(String::new()),
            _ => cell.push(c),
        }
    }
    cells
}

#[test]
fn csv_cells_reads_quoted_commas_and_quotes() {
    assert_eq!(
        csv_cells("a,\"1,3\",\"say \"\"hi\"\"\""),
        ["a", "1,3", "say \"hi\""]
    );
}

#[test]
fn every_figure_id_generates_at_a_small_size() {
    // One scope for all ids: inputs and baselines are built once.
    let _scope = install_eval_memo();
    let suite = small_suite();
    let dir = std::env::temp_dir().join(format!("hpac_figures_smoke_{}", std::process::id()));
    // Tables whose shape fixes their row count at the quick scale.
    let fixed_rows = [
        ("table1", 7),
        ("table2", 2 * (5 + 5 + 4)),
        ("fig03", 14),
        ("fig06_best", 2 * 7 * 3),
        ("fig06_headline", 2),
        ("fig08c_parallelism", 2 * 7),
        ("fig09_minife_iact", 1),
        ("fig10c_distributions", 1 + 4),
        ("ablations_taf_serialization", 2),
        ("ablations_herded_perfo", 2),
        ("ablations_replacement", 2),
        ("ablations_table_sharing", 4),
        ("ablations_shared_state", 2),
    ];
    let mut seen = HashSet::new();
    for id in IDS {
        let figs = generate(id, &suite, Scale::Quick).expect("every id has a generator");
        assert!(!figs.is_empty(), "{id} generates no table");
        for fig in figs {
            let what = format!("{id}: {}", fig.id);
            assert!(fig.id.starts_with(id), "{what}");
            assert!(
                seen.insert(fig.id.clone()),
                "{what}: a second table has this id"
            );
            match fixed_rows.iter().find(|(table, _)| *table == fig.id) {
                Some(&(_, rows)) => assert_eq!(fig.rows.len(), rows, "{what}"),
                None => assert!(!fig.rows.is_empty(), "{what}: no rows"),
            }
            for row in &fig.rows {
                assert_eq!(row.len(), fig.headers.len(), "{what}: {row:?}");
            }
            fig.save_csv(&dir).unwrap();
            let text = std::fs::read_to_string(dir.join(format!("{}.csv", fig.id))).unwrap();
            let lines: Vec<Vec<String>> = text.lines().map(csv_cells).collect();
            for (n, cells) in lines.iter().enumerate() {
                let arity = cells.len();
                assert_eq!(arity, fig.headers.len(), "{what}: CSV line {}", n + 1);
            }
            assert_eq!(lines[0], fig.headers, "{what}");
            assert_eq!(
                lines[1..],
                fig.rows[..],
                "{what}: CSV reads back other cells"
            );
        }
    }
    for (table, _) in fixed_rows {
        assert!(seen.contains(table), "no id generated {table}");
    }
    assert!(generate("fig99", &suite, Scale::Quick).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cell under `column` in the row whose first cell is `row`.
fn cell(fig: &FigureData, row: &str, column: &str) -> f64 {
    let col = fig.headers.iter().position(|h| h == column).expect(column);
    let cells = fig.rows.iter().find(|r| r[0].starts_with(row)).expect(row);
    cells[col].parse().expect("a numeric cell")
}

/// Three of the paper's design arguments, at the quick run's sizes (the
/// default instances): relaxed-locality TAF (Fig 4d) beats serialized TAF
/// (Fig 4c), herded perforation never diverges while naive perforation
/// does, and iACT's replacement policy has no effect (footnote 3).
#[test]
fn ablations_reproduce_the_design_claims() {
    let _scope = install_eval_memo();
    let suite = Suite::default();
    let figs = ablations(&suite.blackscholes, &suite.lulesh, &suite.lavamd);
    let fig = |id: &str| figs.iter().find(|f| f.id == id).expect(id);

    let taf = fig("ablations_taf_serialization");
    let relaxed = cell(taf, "relaxed", "speedup_vs_baseline");
    let serialized = cell(taf, "serialized", "speedup_vs_baseline");
    assert!(
        relaxed > serialized,
        "relaxed {relaxed} vs serialized {serialized}"
    );

    let perfo = fig("ablations_herded_perfo");
    let herded = cell(perfo, "herded", "divergent_fraction");
    let naive = cell(perfo, "naive", "divergent_fraction");
    assert!(
        herded == 0.0 && naive > herded,
        "herded {herded} vs naive {naive}"
    );

    let policy = fig("ablations_replacement");
    let (rr, clock) = (
        cell(policy, "round-robin", "speedup"),
        cell(policy, "CLOCK", "speedup"),
    );
    assert!((rr - clock).abs() <= 0.01 * rr, "speedup {rr} vs {clock}");
    let (rr, clock) = (
        cell(policy, "round-robin", "error_pct"),
        cell(policy, "CLOCK", "error_pct"),
    );
    assert!((rr - clock).abs() <= 0.1, "error {rr}% vs {clock}%");
}

/// The cell under `column` in every row, parsed.
fn column(fig: &FigureData, column: &str) -> Vec<f64> {
    let col = fig.headers.iter().position(|h| h == column).expect(column);
    fig.rows
        .iter()
        .map(|r| r[col].parse().expect("a numeric cell"))
        .collect()
}

/// Fig 8c: on each platform, Binomial Options' TAF speedup rises with items
/// per thread to a peak, then falls as too few threads are left to hide
/// latency — the peak is interior, above both ends of the axis.
#[test]
fn fig08c_speedup_peaks_at_an_interior_items_per_thread() {
    let _scope = install_eval_memo();
    let fig = fig08c(&BinomialOptions::default(), Scale::Quick);
    let speedups = column(&fig, "speedup");
    let ipts = column(&fig, "items_per_thread");
    let devices: Vec<&str> = fig.rows.iter().map(|r| r[0].as_str()).collect();
    let mut platforms = devices.clone();
    platforms.dedup();
    assert_eq!(platforms.len(), 2, "one curve per platform: {platforms:?}");
    for device in platforms {
        let curve: Vec<(f64, f64)> = (0..fig.rows.len())
            .filter(|&i| devices[i] == device)
            .map(|i| (ipts[i], speedups[i]))
            .collect();
        let peak = (0..curve.len())
            .max_by(|&a, &b| curve[a].1.total_cmp(&curve[b].1))
            .expect("a non-empty curve");
        assert!(
            0 < peak && peak + 1 < curve.len(),
            "{device}: peak at an end of {curve:?}"
        );
        let (first, last) = (curve[0].1, curve[curve.len() - 1].1);
        assert!(
            first < curve[peak].1 && last < curve[peak].1,
            "{device}: {curve:?}"
        );
    }
}

/// Fig 10b: on AMD, iACT never speeds Blackscholes up — its table search
/// costs more than the closed-form price it would skip.
#[test]
fn fig10b_iact_never_speeds_blackscholes_up() {
    let _scope = install_eval_memo();
    let figs = fig10(&Blackscholes::default(), Scale::Quick);
    let fig = figs
        .iter()
        .find(|f| f.id == "fig10b_iact_amd")
        .expect("the 10b panel");
    let speedups = column(fig, "speedup");
    assert!(!speedups.is_empty());
    let fastest = speedups.iter().copied().fold(0.0, f64::max);
    assert!(
        fastest < 1.0,
        "iACT reaches {fastest}x over {} configs",
        speedups.len()
    );
}

/// Fig 11b: on AMD, iACT slows LavaMD down. The paper says "always"; here
/// that holds under Fig 6's 10% error bound — a few rows far above it pass
/// 1× (EXPERIMENTS.md records the deviation). Checked on every row the
/// panel's cloud is drawn from.
#[test]
fn fig11b_iact_never_speeds_lavamd_up_under_ten_percent_error() {
    let _scope = install_eval_memo();
    let swept = run_sweep(&LavaMd::default(), &DeviceSpec::mi250x(), Scale::Quick);
    let iact: Vec<&Row> = swept
        .rows
        .iter()
        .filter(|r| r.technique == "iACT")
        .collect();
    let best = best_under_error(&iact, 10.0).expect("an iACT row at or under 10% error");
    assert!(
        best.speedup < 1.0,
        "{}: {}x at {}% error",
        best.config,
        best.speedup,
        best.error_pct
    );
}

/// Fig 11c: on AMD, LavaMD's TAF taking its decisions at warp level beats
/// the same configuration deciding per thread, at every threshold.
#[test]
fn fig11c_warp_level_decisions_beat_thread_level() {
    let _scope = install_eval_memo();
    let fig = fig11c(&LavaMd::default(), Scale::Quick);
    assert!(!fig.rows.is_empty());
    let thread = column(&fig, "thread_speedup");
    let warp = column(&fig, "warp_speedup");
    for (row, (t, w)) in fig.rows.iter().zip(thread.iter().zip(&warp)) {
        assert!(w > t, "row {row:?}: warp {w} vs thread {t}");
    }
}

/// Fig 12c: over K-Means' TAF configurations, time speedup follows
/// convergence speedup along a line; the paper's fit has R² = 0.95.
#[test]
fn fig12c_time_speedup_tracks_convergence_speedup() {
    let _scope = install_eval_memo();
    let figs = fig12(&small_suite().kmeans, Scale::Quick);
    let fig = figs
        .iter()
        .find(|f| f.id == "fig12c_convergence")
        .expect("the 12c panel");
    let convergence = column(fig, "convergence_speedup");
    let time = column(fig, "time_speedup");
    let (_, _, r2) = linear_fit(&convergence, &time);
    assert!(r2 > 0.95, "R2 {r2} over {} TAF configs", time.len());
}
