//! Experiment T1 — reproduces **Table 1**: comparison of distribution
//! schemes in the paper's five metrics, twice:
//!
//! 1. the analytic closed forms at the paper's scale (`v = 10,000`);
//! 2. measured values from exhaustive scheme walks at laptop scale,
//!    validated against the formulas.
//!
//! ```sh
//! cargo run --release -p pmr-bench --bin table1
//! ```

use pmr_bench::{fmt_f64, fmt_u64, print_table};
use pmr_core::analysis::table1::{table1, validate, Scenario};
use pmr_core::enumeration::pair_count;

fn metrics_rows(sc: Scenario) -> Vec<Vec<String>> {
    table1(sc)[..3]
        .iter()
        .map(|m| {
            vec![
                m.scheme.to_string(),
                fmt_u64(m.num_tasks),
                fmt_u64(m.communication_elements),
                fmt_f64(m.replication_factor),
                fmt_u64(m.working_set_size),
                fmt_f64(m.evaluations_per_task),
            ]
        })
        .collect()
}

fn main() {
    let header =
        ["scheme", "tasks (p)", "comm [elem sends]", "replication", "working set", "evals/task"];

    // --- Paper-scale analytic table. ---
    let (v, n, h) = (10_000u64, 100u64, 20u64);
    println!("paper-scale scenario: v = {v}, n = {n}, h = {h}, broadcast p = n");
    println!("total pairs: {}", fmt_u64(pair_count(v)));
    print_table("Table 1 (analytic, closed forms)", &header, &metrics_rows(Scenario::new(v, n, h)));
    println!("\nformulas: broadcast 2vp / p / v / v(v-1)/2p;  block 2vh / h / 2⌈v/h⌉ / ⌈v/h⌉²;");
    println!("          design ≈2v√v (max 2vn) / q+1 / q+1 / C(q+1,2), q = 101 for v = 10,000");

    // --- Laptop-scale measured validation. ---
    for sc in [Scenario::new(500, 8, 10), Scenario::new(1000, 16, 12), Scenario::new(2048, 32, 16)]
    {
        let rows: Vec<Vec<String>> = validate(sc)
            .into_iter()
            .map(|r| {
                vec![
                    r.scheme.to_string(),
                    fmt_u64(r.measured.nonempty_tasks),
                    fmt_f64(r.measured.replication_factor),
                    format!("{}", fmt_u64(r.measured.max_working_set)),
                    format!(
                        "{}..{}",
                        fmt_u64(r.measured.min_evaluations),
                        fmt_u64(r.measured.max_evaluations)
                    ),
                    if r.covers_all_pairs { "yes".into() } else { "NO".into() },
                    if r.working_set_within_bound && r.evaluations_within_bound {
                        "yes".into()
                    } else {
                        "NO".into()
                    },
                ]
            })
            .collect();
        print_table(
            &format!("measured walk: v = {}, n = {}, h = {}", sc.v, sc.n, sc.h),
            &[
                "scheme",
                "nonempty tasks",
                "measured replication",
                "max working set",
                "evals/task range",
                "exactly-once",
                "within analytic bounds",
            ],
            &rows,
        );
    }
    println!("\nall measured walks cover every pair exactly once and respect the Table-1 bounds");
}
