//! # rotind-bench — benchmark harness
//!
//! Shared experiment logic behind the per-figure reproduction binaries
//! (`cargo run -p rotind-bench --release --bin fig19` etc.) and the
//! criterion micro benches. Each experiment in [`experiments`] returns a
//! [`rotind_eval::report::Table`] that the binaries print and save under
//! `results/`.
//!
//! Two environment variables control scale:
//!
//! * `ROTIND_QUICK=1` — shrink database sizes and query counts (used by
//!   `cargo bench` smoke runs and CI);
//! * `ROTIND_RESULTS=<dir>` — where CSVs are written (default
//!   `results/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod experiments;
pub mod regress;
pub mod yardstick;

pub use error::BenchError;

use std::path::PathBuf;

/// `true` when `ROTIND_QUICK` requests a reduced-scale run.
pub fn quick_mode() -> bool {
    std::env::var("ROTIND_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Output directory for CSV artefacts.
pub fn results_dir() -> PathBuf {
    std::env::var("ROTIND_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Print a table, then save it as `<name>.csv` under [`results_dir`]
/// and — when the table is sweep-shaped (numeric x + numeric series) —
/// render `<name>.svg` beside it. Failures to write are reported, not
/// fatal: benches may run in read-only sandboxes.
pub fn emit(name: &str, table: &rotind_eval::report::Table) {
    println!("{}", table.render());
    let path = results_dir().join(format!("{name}.csv"));
    match table.write_csv(&path) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("[warn: could not save {}: {e}]", path.display()),
    }
    let log_scale = name.starts_with("fig") || name == "scaling";
    if let Some(plot) =
        rotind_eval::plot::line_plot_from_table(&table.to_csv(), name, log_scale, log_scale)
    {
        let svg_path = results_dir().join(format!("{name}.svg"));
        match plot.write_svg(&svg_path) {
            Ok(true) => println!("[saved {}]", svg_path.display()),
            Ok(false) => {}
            Err(e) => eprintln!("[warn: could not save {}: {e}]", svg_path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_reads_env() {
        // Whatever the ambient value, the parser must treat "0"/"" as off.
        std::env::set_var("ROTIND_QUICK", "0");
        assert!(!quick_mode());
        std::env::set_var("ROTIND_QUICK", "1");
        assert!(quick_mode());
        std::env::remove_var("ROTIND_QUICK");
        assert!(!quick_mode());
    }

    #[test]
    fn emit_writes_csv_and_svg_for_sweep_tables() {
        let dir = std::env::temp_dir().join("rotind-bench-emit-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("ROTIND_RESULTS", dir.display().to_string());
        let mut table = rotind_eval::report::Table::new(["m", "wedge"]);
        table.push_row(["32", "0.19"]);
        table.push_row(["1000", "0.02"]);
        emit("figtest", &table);
        assert!(dir.join("figtest.csv").exists());
        assert!(dir.join("figtest.svg").exists(), "sweep tables render SVGs");
        // Non-numeric tables save CSV only.
        let mut names = rotind_eval::report::Table::new(["who", "what"]);
        names.push_row(["alpha", "beta"]);
        names.push_row(["gamma", "delta"]);
        emit("figtext", &names);
        assert!(dir.join("figtext.csv").exists());
        assert!(!dir.join("figtext.svg").exists());
        std::env::remove_var("ROTIND_RESULTS");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
