//! Experiment S1 — streaming partition pipelines: response time vs
//! (memory budget × worker count) across engines (not in the paper: the
//! original HIQUE runs memory-resident and single-threaded; this measures
//! the reproduction's shared pipeline substrate).
//!
//! Sweeps `memory_budget_pages ∈ {unbounded, budgets...}` against
//! `threads ∈ {1, 2, 4}` over a paged TPC-H catalog, running TPC-H Q1 and
//! Q3 through the holistic, optimized-iterator and DSM engines.  Every cell
//! must return the memory-resident baseline's row count — the budget and
//! the pool width may only change *where* temporaries live and *who*
//! processes them, never the answer — and the tightest budget must show
//! real spilled temporaries with the pool's peak residency at or below the
//! budget.
//!
//! ```bash
//! cargo run --release -p hique-bench --bin fig_stream_scaling -- --sf 0.01
//! cargo run --release -p hique-bench --bin fig_stream_scaling -- \
//!     --sf 0.01 --budgets 256,64 --threads 1,2,4
//! ```

#![forbid(unsafe_code)]

use hique_bench::runner::{plan_sql, run_engine, Engine};
use hique_dsm::DsmDatabase;
use hique_plan::PlannerConfig;

struct Args {
    sf: f64,
    budgets: Vec<usize>,
    threads: Vec<usize>,
    repeats: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sf: 0.01,
        budgets: vec![256, 64],
        threads: vec![1, 2, 4],
        repeats: 2,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        let parse_list = |s: String| -> Result<Vec<usize>, String> {
            s.split(',')
                .map(|b| b.trim().parse::<usize>())
                .collect::<Result<_, _>>()
                .map_err(|e| format!("bad list: {e}"))
        };
        match flag.as_str() {
            "--sf" => args.sf = value("--sf")?.parse().map_err(|e| format!("--sf: {e}"))?,
            "--budgets" => args.budgets = parse_list(value("--budgets")?)?,
            "--threads" => args.threads = parse_list(value("--threads")?)?,
            "--repeats" => {
                args.repeats = value("--repeats")?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?
            }
            "--help" | "-h" => {
                return Err("usage: fig_stream_scaling [--sf F] [--budgets 256,64] \
                     [--threads 1,2,4] [--repeats N]"
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

const ENGINES: [Engine; 3] = [Engine::Holistic, Engine::IterOptimized, Engine::Dsm];

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let queries = [
        ("Q1", hique_tpch::queries::Q1_SQL),
        ("Q3", hique_tpch::queries::Q3_SQL),
    ];

    println!(
        "stream scaling at SF {} (budgets {:?} x threads {:?}, best of {})",
        args.sf, args.budgets, args.threads, args.repeats
    );

    // Memory-resident single-threaded baseline row counts.
    let baseline_catalog = hique_tpch::generate_into_catalog(args.sf).expect("catalog");
    let mut baseline_rows = Vec::new();
    for (_, sql) in queries {
        let plan = plan_sql(sql, &baseline_catalog, &PlannerConfig::default()).expect("plan");
        let m = run_engine(Engine::Holistic, &plan, &baseline_catalog, None, false).expect("run");
        baseline_rows.push(m.rows);
    }

    println!(
        "{:<10} {:>8} {:>6} {:<26} {:>12} {:>10} {:>10} {:>12}",
        "budget", "threads", "query", "engine", "time (ms)", "spilled", "peak pgs", "evictions"
    );
    let tightest = args.budgets.iter().copied().min().unwrap_or(0);
    let mut tight_spills = 0u64;
    for &budget in &args.budgets {
        let mut catalog = hique_tpch::generate_into_catalog(args.sf).expect("catalog");
        catalog.spill_to_disk(budget).expect("spill catalog");
        let dsm = DsmDatabase::from_catalog(&catalog).expect("dsm");
        for &threads in &args.threads {
            let config = PlannerConfig::default()
                .with_memory_budget_pages(budget)
                .with_threads(threads);
            for (qi, (name, sql)) in queries.iter().enumerate() {
                let plan = plan_sql(sql, &catalog, &config).expect("plan");
                for engine in ENGINES {
                    let mut best_ms = f64::INFINITY;
                    let mut measured = None;
                    for _ in 0..args.repeats {
                        let m = run_engine(engine, &plan, &catalog, Some(&dsm), false)
                            .unwrap_or_else(|e| panic!("{name} on {engine:?} failed: {e}"));
                        let ms = m.elapsed.as_secs_f64() * 1000.0;
                        if ms < best_ms {
                            best_ms = ms;
                            measured = Some(m);
                        }
                    }
                    let m = measured.expect("at least one repeat");
                    assert_eq!(
                        m.rows, baseline_rows[qi],
                        "{name} on {engine:?}: budget {budget} x{threads} changed the row count"
                    );
                    assert!(
                        m.stats.peak_resident_pages <= budget as u64,
                        "{name} on {engine:?}: peak {} pages > budget {budget}",
                        m.stats.peak_resident_pages
                    );
                    if budget == tightest && engine == Engine::Holistic {
                        tight_spills += m.stats.spilled_temporaries;
                    }
                    println!(
                        "{budget:<10} {threads:>8} {name:>6} {:<26} {best_ms:>12.2} {:>10} {:>10} {:>12}",
                        m.engine,
                        m.stats.spilled_temporaries,
                        m.stats.peak_resident_pages,
                        m.stats.io.pool_evictions
                    );
                }
            }
        }
        let stats = catalog.pool_stats();
        if stats.evictions == 0 {
            eprintln!("budget {budget} produced no evictions at SF {}", args.sf);
            std::process::exit(1);
        }
    }
    if tight_spills == 0 {
        eprintln!(
            "the tightest budget ({tightest} pages) never spilled a temporary — \
             the streaming pipeline was not exercised"
        );
        std::process::exit(1);
    }
    println!("all (budget x threads x engine) cells returned the baseline row counts");
}
