//! Regenerate the paper's tables and figures.
//!
//! Run with: `cargo run --release -p hpac-bench --bin figures -- <id>… | all [--full]`
//!
//! Ids: `table1`, `table2`, `fig03`, `fig06` … `fig12`, `ablations`
//! (`hpac_harness::figures::IDS`). Each table is printed and saved as
//! `target/figures/<table id>.csv`. `--full` switches to the paper's
//! complete Table 2 grids (hours); the default quick grids subsample each
//! axis. An unknown id exits with status 2 before anything runs.

use hpac_harness::figures::{self, Suite, IDS};
use hpac_harness::Scale;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut scale = Scale::Quick;
    let mut ids: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            "all" => ids.extend(IDS.iter().map(|id| id.to_string())),
            _ => ids.push(arg),
        }
    }
    let unknown: Vec<&str> = ids
        .iter()
        .map(String::as_str)
        .filter(|id| !IDS.contains(id))
        .collect();
    if ids.is_empty() || !unknown.is_empty() {
        if !unknown.is_empty() {
            eprintln!("unknown figure id: {}", unknown.join(", "));
        }
        eprintln!("usage: figures <id>… | all [--full]");
        eprintln!("ids: {}", IDS.join(" "));
        return ExitCode::from(2);
    }
    let suite = Suite::default();
    let dir = Path::new("target/figures");
    for id in &ids {
        for fig in figures::generate(id, &suite, scale).expect("ids are checked above") {
            println!("{}", fig.render());
            if let Err(e) = fig.save_csv(dir) {
                eprintln!("warning: could not save {}: {e}", fig.id);
            }
        }
    }
    ExitCode::SUCCESS
}
