//! # pmr-bench — experiment harness
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md's
//! experiment index and EXPERIMENTS.md for recorded outputs):
//!
//! | binary               | reproduces                                     |
//! |----------------------|------------------------------------------------|
//! | `table1`             | Table 1 (analytic + measured validation)        |
//! | `fano`               | Figures 4/7 (the (7,3,1)-design example)        |
//! | `fig8a`              | Figure 8(a): broadcast `maxws` limit            |
//! | `fig8b`              | Figure 8(b): design `maxis` limit               |
//! | `fig9a`              | Figure 9(a): valid `h` range for block          |
//! | `fig9b`              | Figure 9(b): all-scheme comparison + crossover  |
//! | `cluster_validation` | §6 cluster experiments (measured vs theory)     |
//! | `elsayed_baseline`   | §2 related-work comparison                      |
//! | `hierarchical`       | §7 two-level extensions                         |
//! | `scheme_advisor`     | cost-model ablation: scheme ranking vs measured |
//!
//! Throughput is measured by the repo benchmark, `benchmark/run.sh`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod empirical;

/// Directory where experiment binaries persist their [`pmr_obs::RunReport`]
/// JSON files: `$PMR_REPORT_DIR` if set, else `target/run-reports`.
pub fn report_dir() -> std::path::PathBuf {
    match std::env::var_os("PMR_REPORT_DIR") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::path::PathBuf::from("target/run-reports"),
    }
}

/// Writes `report` to `<report_dir()>/<name>.json`, creating the directory
/// as needed, and announces the path on stderr. Failures are reported, not
/// fatal: report export must never abort an experiment.
pub fn save_report(name: &str, report: &pmr_obs::RunReport) {
    let dir = report_dir();
    let path = dir.join(format!("{name}.json"));
    let res = std::fs::create_dir_all(&dir)
        .and_then(|()| report.write_json_file(&path.display().to_string()));
    match res {
        Ok(()) => eprintln!("run report: {}", path.display()),
        Err(e) => eprintln!("run report {} not written: {e}", path.display()),
    }
}

/// Formats a number with thousands separators (for table output).
pub fn fmt_u64(x: u64) -> String {
    let s = x.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Formats a float compactly: integers without decimals, else 2 decimals,
/// very large values in scientific notation.
pub fn fmt_f64(x: f64) -> String {
    if !x.is_finite() {
        return format!("{x}");
    }
    if x.abs() >= 1e7 {
        format!("{x:.3e}")
    } else if (x - x.round()).abs() < 1e-9 {
        fmt_u64(x.round() as u64)
    } else {
        format!("{x:.2}")
    }
}

/// Prints a header + aligned rows (simple fixed-width table).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", cell, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_u64(0), "0");
        assert_eq!(fmt_u64(1234), "1,234");
        assert_eq!(fmt_u64(1_234_567), "1,234,567");
        assert_eq!(fmt_f64(5.0), "5");
        assert_eq!(fmt_f64(2.5), "2.50");
        assert_eq!(fmt_f64(1.23e9), "1.230e9");
    }
}
