//! Bench trend snapshot: measure a fixed workload set, emit
//! `BENCH_<sha>.json`, and (optionally) warn on >20% regressions against
//! the previous snapshot.
//!
//! ```bash
//! cargo run --release -p hique-bench --bin bench_trend -- \
//!     --sha $GITHUB_SHA --out BENCH_$GITHUB_SHA.json --compare prev.json
//! ```
//!
//! The workload is small on purpose (seconds, not minutes): TPC-H Q1/Q3/Q10
//! through the holistic engine, the bytecode VM on both interpreter tiers,
//! the two micro-benchmarks, and a pool-backed Q1 under a tight memory
//! budget so buffer-pool-path regressions are tracked too.  The
//! `*_ns_per_tuple` cases carry the aggregation layer on its own:
//! aggregation phase time ÷ tuples aggregated, for Q1 on both kernel
//! providers and — the roofline — for the map-aggregation micro-benchmark
//! next to the optimized hand-coded kernel over the same table.  Comparison
//! warns (GitHub `::warning::` annotations) and never fails the job —
//! shared-runner timings are too noisy for a hard gate; the artifact trail
//! is the record.  `--dashboard DIR` additionally renders every
//! `BENCH_*.json` under DIR (plus the fresh snapshot) into a static
//! `DIR/dashboard.html` sparkline table for the CI artifact.

#![forbid(unsafe_code)]

use std::time::Instant;

use hique_bench::handcoded::{aggregate, HandVariant};
use hique_bench::runner::plan_sql;
use hique_bench::trend::{parse_results, regressions, render_snapshot, BenchResult};
use hique_bench::workload::{agg_query_sql, agg_workload, join_query_sql, join_workload};
use hique_holistic::ExecOptions;
use hique_plan::{AggAlgorithm, JoinAlgorithm, PlannerConfig};
use hique_storage::Catalog;
use hique_types::{ExecStats, QueryResult};

struct Args {
    sf: f64,
    repeats: usize,
    sha: String,
    out: Option<String>,
    compare: Option<String>,
    threshold: f64,
    dashboard: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sf: 0.01,
        repeats: 3,
        sha: std::env::var("GITHUB_SHA").unwrap_or_else(|_| "local".into()),
        out: None,
        compare: None,
        threshold: 0.2,
        dashboard: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--sf" => args.sf = value("--sf")?.parse().map_err(|e| format!("--sf: {e}"))?,
            "--repeats" => {
                args.repeats = value("--repeats")?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?
            }
            "--sha" => args.sha = value("--sha")?,
            "--out" => args.out = Some(value("--out")?),
            "--compare" => args.compare = Some(value("--compare")?),
            "--threshold" => {
                args.threshold = value("--threshold")?
                    .parse()
                    .map_err(|e| format!("--threshold: {e}"))?
            }
            "--dashboard" => args.dashboard = Some(value("--dashboard")?),
            "--help" | "-h" => {
                return Err("usage: bench_trend [--sf F] [--repeats N] [--sha SHA] \
                            [--out PATH] [--compare PREV.json] [--threshold 0.2] \
                            [--dashboard DIR]"
                    .into())
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        repeats: args.repeats.max(1),
        ..args
    })
}

/// Best-of-`repeats` holistic wall milliseconds.
fn measure_ms(sql: &str, catalog: &Catalog, config: &PlannerConfig, repeats: usize) -> f64 {
    let plan = plan_sql(sql, catalog, config).expect("plan");
    let generated = hique_holistic::generate(&plan).expect("generate");
    let options = ExecOptions {
        collect_rows: false,
        ..ExecOptions::default()
    };
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let t = Instant::now();
        generated.execute_with(catalog, &options).expect("execute");
        best = best.min(t.elapsed().as_secs_f64() * 1000.0);
    }
    best
}

/// Best-of-`repeats` bytecode-VM wall milliseconds on an explicit
/// interpreter tier (compilation excluded — the trend tracks
/// interpretation speed, `fig_prep_vs_exec` tracks the preparation bill).
fn measure_vm_ms(
    sql: &str,
    catalog: &Catalog,
    config: &PlannerConfig,
    repeats: usize,
    tier: hique_vm::Tier,
) -> f64 {
    let plan = plan_sql(sql, catalog, config).expect("plan");
    let generated = hique_holistic::generate(&plan).expect("generate");
    let program = hique_vm::compile(&generated, catalog, hique_vm::CompileMode::Specialized)
        .expect("compile");
    let options = ExecOptions {
        collect_rows: false,
        ..ExecOptions::default()
    };
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let t = Instant::now();
        program
            .execute_with_tier(&generated, catalog, &options, tier)
            .expect("execute");
        best = best.min(t.elapsed().as_secs_f64() * 1000.0);
    }
    best
}

/// Best-of-`repeats` aggregation-phase nanoseconds per aggregated tuple of
/// a single-table aggregate query (what staging materialized is what the
/// aggregation consumed).
fn agg_ns_per_tuple(
    plan: &hique_plan::PhysicalPlan,
    repeats: usize,
    run: impl Fn() -> hique_types::Result<QueryResult>,
) -> f64 {
    let tuple_size = plan.staged[0].schema.tuple_size() as f64;
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let result = run().expect("execute");
        let nanos = result.timings.get("aggregation").expect("phase").as_nanos() as f64;
        best = best.min(nanos * tuple_size / result.stats.bytes_materialized as f64);
    }
    best
}

/// Render every `BENCH_*.json` under `dir` (ordered oldest-modified first)
/// into `dir/dashboard.html`.
fn write_dashboard(dir: &str, current: Option<(&str, &[BenchResult])>) -> std::io::Result<()> {
    let mut files: Vec<(std::time::SystemTime, String, String)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let modified = entry
            .metadata()
            .and_then(|m| m.modified())
            .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        let json = std::fs::read_to_string(entry.path())?;
        files.push((modified, name, json));
    }
    files.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    let mut history: Vec<(String, Vec<BenchResult>)> = files
        .into_iter()
        .map(|(_, name, json)| {
            let sha = name
                .trim_start_matches("BENCH_")
                .trim_end_matches(".json")
                .to_string();
            (sha, parse_results(&json))
        })
        .collect();
    // The just-measured snapshot is the newest point even when --out wrote
    // it somewhere else (or nowhere).
    if let Some((sha, results)) = current {
        if !history.iter().any(|(s, _)| s == sha) {
            history.push((sha.to_string(), results.to_vec()));
        }
    }
    let path = format!("{dir}/dashboard.html");
    std::fs::write(&path, hique_bench::trend::render_dashboard(&history))?;
    println!("wrote {path} ({} snapshots)", history.len());
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    let mut results: Vec<BenchResult> = Vec::new();
    let mut record = |name: &str, millis: f64| {
        let unit = if name.ends_with("_ms") { "ms" } else { "ns" };
        println!("{name:<34} {millis:>10.3} {unit}");
        results.push(BenchResult {
            name: name.into(),
            millis,
        });
    };

    // TPC-H through the holistic engine, memory-resident.
    let catalog = hique_tpch::generate_into_catalog(args.sf).expect("catalog");
    let default_config = PlannerConfig::default();
    for (name, sql) in [
        ("q1_holistic_ms", hique_tpch::queries::Q1_SQL),
        ("q3_holistic_ms", hique_tpch::queries::Q3_SQL),
        ("q10_holistic_ms", hique_tpch::queries::Q10_SQL),
    ] {
        record(
            name,
            measure_ms(sql, &catalog, &default_config, args.repeats),
        );
    }

    // Q1 interpreted by the bytecode VM: tracks the fifth engine mode's
    // execution speed next to the holistic kernels above.  `q1_vm_ms`
    // pins the scalar tier (its historical meaning predates the
    // vectorized interpreter); the `_vec_` cases track the batch tier.
    record(
        "q1_vm_ms",
        measure_vm_ms(
            hique_tpch::queries::Q1_SQL,
            &catalog,
            &default_config,
            args.repeats,
            hique_vm::Tier::Scalar,
        ),
    );
    for (name, sql) in [
        ("q1_vm_vec_ms", hique_tpch::queries::Q1_SQL),
        ("q3_vm_vec_ms", hique_tpch::queries::Q3_SQL),
    ] {
        record(
            name,
            measure_vm_ms(
                sql,
                &catalog,
                &default_config,
                args.repeats,
                hique_vm::Tier::Vectorized,
            ),
        );
    }

    // The aggregation layer alone, per tuple, on both kernel providers.
    let q1_plan = plan_sql(hique_tpch::queries::Q1_SQL, &catalog, &default_config).expect("plan");
    let q1 = hique_holistic::generate(&q1_plan).expect("generate");
    let q1_vm = hique_vm::compile(&q1, &catalog, hique_vm::CompileMode::Specialized).expect("vm");
    let options = ExecOptions::default();
    record(
        "q1_agg_ns_per_tuple_holistic",
        agg_ns_per_tuple(&q1_plan, args.repeats, || {
            q1.execute_with(&catalog, &options)
        }),
    );
    record(
        "q1_agg_ns_per_tuple_vm",
        agg_ns_per_tuple(&q1_plan, args.repeats, || {
            q1_vm.execute(&q1, &catalog, &options)
        }),
    );

    // The paper's micro-benchmarks.
    let join_catalog = join_workload(
        (1_500_000.0 * args.sf) as usize,
        (6_000_000.0 * args.sf) as usize,
        50,
    )
    .expect("workload");
    record(
        "partition_join_ms",
        measure_ms(
            join_query_sql(),
            &join_catalog,
            &PlannerConfig::default().with_join_algorithm(JoinAlgorithm::Partition),
            args.repeats,
        ),
    );
    let agg_catalog = agg_workload((6_000_000.0 * args.sf) as usize, 1000).expect("workload");
    record(
        "map_agg_ms",
        measure_ms(
            agg_query_sql(),
            &agg_catalog,
            &PlannerConfig::default().with_agg_algorithm(AggAlgorithm::Map),
            args.repeats,
        ),
    );

    // The same layer against its roofline: map aggregation over the
    // micro-benchmark table, generated kernels vs the optimized hand-coded
    // kernel (which reads the heap directly and knows the key domain).
    let map_config = PlannerConfig::default().with_agg_algorithm(AggAlgorithm::Map);
    let map_plan = plan_sql(agg_query_sql(), &agg_catalog, &map_config).expect("plan");
    let map_agg = hique_holistic::generate(&map_plan).expect("generate");
    record(
        "map_agg_ns_per_tuple_holistic",
        agg_ns_per_tuple(&map_plan, args.repeats, || {
            map_agg.execute_with(&agg_catalog, &options)
        }),
    );
    let heap = &agg_catalog.table("agg_t").expect("table").heap;
    let mut best = f64::INFINITY;
    for _ in 0..args.repeats {
        let mut stats = ExecStats::new();
        let t = Instant::now();
        aggregate(heap, 1000, true, HandVariant::Optimized, &mut stats);
        best = best.min(t.elapsed().as_nanos() as f64 / stats.tuples_processed as f64);
    }
    record("map_agg_ns_per_tuple_handcoded", best);

    // Pool-backed Q1 under a tight budget: tracks the buffer-pool path.
    let mut paged = hique_tpch::generate_into_catalog(args.sf).expect("catalog");
    paged.spill_to_disk(256).expect("spill");
    record(
        "q1_paged_256_ms",
        measure_ms(
            hique_tpch::queries::Q1_SQL,
            &paged,
            &PlannerConfig::default().with_memory_budget_pages(256),
            args.repeats,
        ),
    );
    // Streaming partition pipeline: Q3 with spilled temporaries consumed
    // page-at-a-time AND partition-parallel workers sharing the 64-page
    // pool — tracks the fig_stream_scaling path.
    let mut stream_paged = hique_tpch::generate_into_catalog(args.sf).expect("catalog");
    stream_paged.spill_to_disk(64).expect("spill");
    record(
        "q3_stream_b64_t4_ms",
        measure_ms(
            hique_tpch::queries::Q3_SQL,
            &stream_paged,
            &PlannerConfig::default()
                .with_memory_budget_pages(64)
                .with_threads(4),
            args.repeats,
        ),
    );

    let json = render_snapshot(&args.sha, &results);
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("failed to write {out}: {e}");
            std::process::exit(1);
        }
        println!("wrote {out}");
    } else {
        print!("{json}");
    }

    if let Some(dir) = &args.dashboard {
        if let Err(e) = write_dashboard(dir, Some((&args.sha, &results))) {
            eprintln!("failed to render dashboard under {dir}: {e}");
            std::process::exit(1);
        }
    }

    if let Some(prev_path) = &args.compare {
        match std::fs::read_to_string(prev_path) {
            Ok(prev_json) => {
                let prev = parse_results(&prev_json);
                if prev.is_empty() {
                    println!("previous snapshot {prev_path} had no results to compare");
                } else {
                    let regs = regressions(&prev, &results, args.threshold);
                    if regs.is_empty() {
                        println!(
                            "no regressions > {:.0}% vs {prev_path}",
                            args.threshold * 100.0
                        );
                    }
                    for r in regs {
                        // GitHub Actions annotation: visible on the run
                        // summary without failing the job.
                        println!(
                            "::warning::bench regression: {} {:.2} ms -> {:.2} ms ({:.2}x)",
                            r.name,
                            r.before,
                            r.now,
                            r.ratio()
                        );
                    }
                }
            }
            Err(_) => println!("no previous snapshot at {prev_path}; baseline recorded"),
        }
    }
}
