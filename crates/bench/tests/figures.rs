//! Every surviving harness binary runs, at its smallest sizes, on the one
//! command line: exit 0 means the binary's own assertions held — all
//! implementations agree on cardinality (fig5, fig6, fig7d), join teams
//! were planned (fig7b), every thread count returned the serial rows
//! (fig_parallel_scaling) — and the table it printed is not empty.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "panics fail tests")]

use std::process::{Command, Output};

/// (name, path of the built binary).
macro_rules! figure {
    ($name:literal) => {
        ($name, env!(concat!("CARGO_BIN_EXE_", $name)))
    };
}

const FIGURES: [(&str, &str); 11] = [
    figure!("fig5_join_profiling"),
    figure!("fig6_agg_profiling"),
    figure!("fig7a_join_scalability"),
    figure!("fig7b_multiway_joins"),
    figure!("fig7c_join_selectivity"),
    figure!("fig7d_group_cardinality"),
    figure!("fig8_tpch"),
    figure!("table2_compiler_opt"),
    figure!("table3_prep_cost"),
    figure!("ablation_partitioning"),
    figure!("fig_parallel_scaling"),
];

fn run(path: &str, args: &str) -> Output {
    Command::new(path)
        .args(args.split(' '))
        .output()
        .expect("spawn")
}

#[test]
fn every_figure_runs_at_its_smallest_sizes() {
    for (name, path) in FIGURES {
        let out = run(path, "--scale 0.02 --sf 0.002 --threads 1,2 --repeats 2");
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert!(out.status.success(), "{name} failed:\n{stdout}\n{stderr}");
        // A title or header line, then at least two measured rows.
        let rows = stdout.lines().filter(|l| !l.trim().is_empty()).count();
        assert!(rows >= 3, "{name} printed no table:\n{stdout}");
    }
}

#[test]
fn a_retired_flag_is_a_usage_error_on_every_figure() {
    for (name, path) in FIGURES {
        let out = run(path, "--min-speedup 2.0");
        assert_eq!(out.status.code(), Some(2), "{name}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{name}"
        );
    }
}
