//! Differential fuzzing CLI: run N seeded random queries through all five
//! engine modes and report any divergence.
//!
//! ```bash
//! cargo run --release -p hique-conformance --bin conformance -- \
//!     --queries 1000 --seed 42 --sf 0.002
//! # reproduce a single reported query by its seed:
//! cargo run --release -p hique-conformance --bin conformance -- --replay 0xdeadbeef
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "bins may panic")]

use hique_conformance::genquery::{replay_seed, scan_query_for_seed};
use hique_conformance::planquality::{measure_actuals, QualityReport};
use hique_conformance::{run_chaos_suite, run_suite_with_budget, Fixture};
use hique_plan::{explain_with_actuals, explain_with_stats, plan_sql, PlanActuals, PlannerConfig};

struct Args {
    queries: usize,
    seed: u64,
    sf: f64,
    replay: Option<u64>,
    plan_quality: Option<usize>,
    budget_pages: Option<usize>,
    /// Force every generated query's planner config to carry the
    /// `--budget-pages` budget (instead of the generator's own randomized
    /// budgets), so the suite combines tight-memory spilling with the
    /// generator's randomized `threads ∈ {1, 2, 4}` on every query.
    force_plan_budget: bool,
    /// Chaos lane: replay the seeded queries under seeded storage-fault and
    /// cancellation schedules on all five engines × threads {1, 4}, gating
    /// on bit-identical-or-typed-error with zero leaks.
    chaos: bool,
    /// Mutation lane: apply N seeded single-op corruptions to compiled
    /// bytecode programs, gating on 100% verifier-rejected — never a panic,
    /// a runtime-only rejection or a silent wrong answer.
    mutate_bytecode: Option<usize>,
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        queries: 200,
        seed: 0x41_1CDE,
        sf: 0.002,
        replay: None,
        plan_quality: None,
        budget_pages: None,
        force_plan_budget: false,
        chaos: false,
        mutate_bytecode: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--queries" => {
                args.queries = value("--queries")?
                    .parse()
                    .map_err(|e| format!("--queries: {e}"))?
            }
            "--seed" => {
                args.seed =
                    parse_u64(&value("--seed")?).ok_or_else(|| "--seed: bad value".to_string())?
            }
            "--sf" => args.sf = value("--sf")?.parse().map_err(|e| format!("--sf: {e}"))?,
            "--replay" => {
                args.replay = Some(
                    parse_u64(&value("--replay")?)
                        .ok_or_else(|| "--replay: bad value".to_string())?,
                )
            }
            "--plan-quality" => {
                args.plan_quality = Some(
                    value("--plan-quality")?
                        .parse()
                        .map_err(|e| format!("--plan-quality: {e}"))?,
                )
            }
            "--budget-pages" => {
                args.budget_pages = Some(
                    value("--budget-pages")?
                        .parse()
                        .map_err(|e| format!("--budget-pages: {e}"))?,
                )
            }
            "--force-plan-budget" => args.force_plan_budget = true,
            "--chaos" => args.chaos = true,
            "--mutate-bytecode" => {
                args.mutate_bytecode = Some(
                    value("--mutate-bytecode")?
                        .parse()
                        .map_err(|e| format!("--mutate-bytecode: {e}"))?,
                )
            }
            "--help" | "-h" => {
                return Err(
                    "usage: conformance [--queries N] [--seed S] [--sf F] [--replay SEED] \
                     [--plan-quality N] [--budget-pages P] [--force-plan-budget] [--chaos] \
                     [--mutate-bytecode N]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    println!("generating TPC-H-shaped catalog at SF {} ...", args.sf);
    // The chaos lane injects faults under the buffer pool, so it always
    // needs a paged fixture; default the pool budget when not given.
    let budget_pages = if args.chaos {
        Some(args.budget_pages.unwrap_or(128))
    } else {
        args.budget_pages
    };
    let fixture = match budget_pages {
        Some(pages) => {
            println!("spilling catalog to disk behind a {pages}-page buffer pool ...");
            Fixture::generate_paged(args.sf, pages).expect("paged catalog generation")
        }
        None => Fixture::generate(args.sf).expect("catalog generation"),
    };

    if let Some(seed) = args.replay {
        // A reported divergence carries the per-query seed, which fully
        // determines the (sql, config) pair — reconstruct it directly, for
        // any stream. Note the query shape also depends on --sf (key-filter
        // constants scale with it), so replay with the same --sf as the run.
        let query = replay_seed(seed, args.sf);
        println!("replaying seed {seed:#x}:\n  {}", query.sql);
        let outcome = fixture.check(&query);
        println!("baseline rows: {}", outcome.baseline.num_rows());
        if outcome.divergences.is_empty() {
            println!("all engines agree");
        } else {
            for d in &outcome.divergences {
                println!("--- {d}");
            }
            std::process::exit(1);
        }
        return;
    }

    if let Some(target) = args.mutate_bytecode {
        println!(
            "mutation lane: {target} seeded single-op bytecode corruptions \
             (seed {:#x}) against the VM verifier ...",
            args.seed
        );
        let report = hique_conformance::run_mutation_suite(&fixture, args.seed, target);
        print!("{report}");
        if !report.is_clean() {
            eprintln!(
                "mutation gate FAILED (needs {:.0}% verifier-rejected, zero silent \
                 survivors, zero false positives)",
                hique_conformance::MIN_REJECTION_RATE * 100.0
            );
            std::process::exit(1);
        }
        println!(
            "mutation gate passed: {:.1}% verifier-rejected",
            report.rejection_rate() * 100.0
        );
        return;
    }

    if args.chaos {
        println!(
            "chaos: {} seeded queries (seed {:#x}) x seeded fault/cancel schedules \
             x 5 engine modes x threads {:?} under a {}-page plan budget ...",
            args.queries,
            args.seed,
            hique_conformance::CHAOS_THREADS,
            hique_conformance::CHAOS_BUDGET_PAGES,
        );
        let report = run_chaos_suite(&fixture, args.seed, args.queries);
        print!("{report}");
        if report.faults_fired == 0 {
            eprintln!("chaos lane fired zero faults — the schedules never reached storage?");
            std::process::exit(1);
        }
        if report.cancellations == 0 {
            eprintln!("chaos lane observed zero cancellations — deadlines never fired?");
            std::process::exit(1);
        }
        if !report.is_clean() {
            std::process::exit(1);
        }
        return;
    }

    if let Some(scans) = args.plan_quality {
        // Estimate-accuracy mode: generated filtered scans compared against
        // exact counts, plus Q3/Q10 rendered with per-operator actuals.
        // Exits non-zero when the q-error gate (median <= 2, p95 <= 10)
        // fails, so scheduled CI can block on estimation regressions.
        let mut report = QualityReport::default();
        for i in 0..scans as u64 {
            let query = scan_query_for_seed(args.seed, i, args.sf);
            let plan = match plan_sql(&query.sql, &fixture.catalog, &query.config) {
                Ok(plan) => plan,
                Err(e) => {
                    eprintln!("planning failed: {e}\n  sql: {}", query.sql);
                    std::process::exit(1);
                }
            };
            if let Err(e) = report.record(&query.sql, &plan, &fixture.catalog) {
                eprintln!("measurement failed: {e}\n  sql: {}", query.sql);
                std::process::exit(1);
            }
        }
        println!("plan quality @ SF {}: {}", args.sf, report.summary());
        for sample in report.worst(5) {
            println!(
                "  worst: q={:.2} est={} actual={} [{}] {}",
                sample.q_error(),
                sample.estimated,
                sample.actual,
                sample.operator,
                sample.sql
            );
        }
        for (name, sql) in hique_tpch::queries::all_queries() {
            let plan = plan_sql(sql, &fixture.catalog, &Default::default())
                .expect("TPC-H query must plan");
            let actuals = measure_actuals(&plan, &fixture.catalog).expect("measurable");
            println!("--- {name}\n{}", explain_with_actuals(&plan, &actuals));
        }
        let (median, p95) = (report.median(), report.quantile(0.95));
        let (gate_median, gate_p95) = (
            hique_conformance::planquality::GATE_MEDIAN_Q_ERROR,
            hique_conformance::planquality::GATE_P95_Q_ERROR,
        );
        if !report.passes_gate() {
            eprintln!(
                "plan-quality gate FAILED: median {median:.2} (<= {gate_median}), \
                 p95 {p95:.2} (<= {gate_p95})"
            );
            std::process::exit(1);
        }
        println!(
            "plan-quality gate passed: median {median:.2} <= {gate_median}, \
             p95 {p95:.2} <= {gate_p95}"
        );
        return;
    }

    println!(
        "running {} seeded random queries (seed {:#x}) on 5 engine modes ...",
        args.queries, args.seed
    );
    // Snapshot after fixture construction so the eviction gate below is
    // about the *suite's queries*, not about the DSM decomposition that
    // builds the fixture (which would trivially evict on its own).
    let suite_base = fixture.catalog.pool_stats();
    let force_budget = if args.force_plan_budget {
        if args.budget_pages.is_none() {
            eprintln!("--force-plan-budget requires --budget-pages");
            std::process::exit(2);
        }
        args.budget_pages
    } else {
        None
    };
    let report = run_suite_with_budget(&fixture, args.seed, args.queries, force_budget);
    print!("{report}");
    if args.budget_pages.is_some() {
        // A tight-memory run must actually have exercised the pool: every
        // engine scanned base pages through it, so a budget below the
        // working set shows evictions during the query suite itself.
        let io = fixture.catalog.pool_stats().since(&suite_base);
        println!("buffer pool (query suite only): {io}");
        // The EXPLAIN surface for paged execution: one budgeted plan
        // rendered with the pool counters of a live run.
        let config = PlannerConfig::default()
            .with_memory_budget_pages(args.budget_pages.unwrap_or_default());
        let plan =
            plan_sql(hique_tpch::queries::Q3_SQL, &fixture.catalog, &config).expect("Q3 plans");
        let result = hique_holistic::execute_plan(&plan, &fixture.catalog).expect("Q3 executes");
        println!(
            "--- Q3 under the budget\n{}",
            explain_with_stats(&plan, &PlanActuals::unknown(&plan), &result.stats)
        );
        // The eviction gate only means something when the budget actually
        // sits below the working set; a generous budget with zero evictions
        // is a correct, boring run, not a failure.
        let working_set: usize = fixture
            .catalog
            .table_names()
            .iter()
            .filter_map(|n| fixture.catalog.table(n).ok())
            .map(|t| t.heap.num_pages())
            .sum();
        let budget = args.budget_pages.unwrap_or_default();
        if budget < working_set && io.pool_evictions == 0 {
            eprintln!(
                "budget {budget} pages sits below the {working_set}-page working set \
                 yet the suite produced no evictions — scans bypassed the pool?"
            );
            std::process::exit(1);
        }
    }
    if !report.is_clean() {
        std::process::exit(1);
    }
}
