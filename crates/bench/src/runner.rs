//! Shared helpers for the experiment harness binaries: planning a SQL query,
//! running it on each engine, timing it and printing result tables in the
//! shape the paper reports.

use std::time::{Duration, Instant};

use hique_dsm::DsmDatabase;
use hique_holistic::ExecOptions;
use hique_plan::{plan_query, CatalogProvider, PhysicalPlan, PlannerConfig};
use hique_server::run_plan;
pub use hique_server::Engine;
use hique_storage::Catalog;
use hique_types::{ExecStats, QueryResult, Result};

/// Display label of an engine mode matching the paper's figures.
pub fn paper_label(engine: Engine) -> &'static str {
    match engine {
        Engine::IterGeneric => "Generic Iterators",
        Engine::IterOptimized => "Optimized Iterators",
        Engine::Dsm => "MonetDB-class (DSM)",
        Engine::Holistic => "HIQUE",
        Engine::Vm => "HIQUE bytecode VM",
    }
}

/// Parse, analyze and optimize a SQL query against a catalog.
pub fn plan_sql(sql: &str, catalog: &Catalog, config: &PlannerConfig) -> Result<PhysicalPlan> {
    let parsed = hique_sql::parse_query(sql)?;
    let bound = hique_sql::analyze(&parsed, &CatalogProvider::new(catalog))?;
    plan_query(&bound, catalog, config)
}

/// One measured execution.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Engine label.
    pub engine: String,
    /// Wall-clock execution time (excluding planning and code generation).
    pub elapsed: Duration,
    /// Engine counters.
    pub stats: ExecStats,
    /// Number of result rows (or counted output rows when rows are not
    /// materialized).
    pub rows: u64,
}

/// Execute a plan on one engine and measure it.
///
/// `materialize_output` mirrors the paper's methodology switch: the
/// micro-benchmarks do not materialize query output.
pub fn run_engine(
    engine: Engine,
    plan: &PhysicalPlan,
    catalog: &Catalog,
    dsm: Option<&DsmDatabase>,
    materialize_output: bool,
) -> Result<Measurement> {
    let start = Instant::now();
    // Decomposing on demand is part of what an unprepared DSM run costs.
    let owned;
    let dsm = match dsm {
        None if engine == Engine::Dsm => {
            owned = DsmDatabase::from_catalog(catalog)?;
            Some(&owned)
        }
        dsm => dsm,
    };
    let options = ExecOptions {
        collect_rows: materialize_output,
        ..ExecOptions::default()
    };
    let result: QueryResult = run_plan(engine, plan, catalog, dsm, &options)?;
    let elapsed = start.elapsed();
    let rows = if result.rows.is_empty() {
        result.stats.rows_out
    } else {
        result.rows.len() as u64
    };
    Ok(Measurement {
        engine: paper_label(engine).to_string(),
        elapsed,
        stats: result.stats,
        rows,
    })
}

/// Render a table of measurements with normalized counter columns, mirroring
/// the layout of the paper's Figure 5(c)/(d) and 6(c)/(d) tables.
pub fn render_profile_table(title: &str, measurements: &[Measurement]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!(
        "{:<26} {:>10} {:>12} {:>14} {:>12} {:>14} {:>10}\n",
        "implementation", "time (ms)", "rows", "func calls %", "cmps %", "bytes %", "speedup"
    ));
    let Some(base) = measurements.first() else {
        return out;
    };
    // A counter as a percentage of the baseline engine's; `n/a` when the
    // baseline never counted it (a map aggregation does no comparisons on
    // the iterator engines, and x / 0 is not a percentage).
    let pct = |value: u64, base: u64| match base {
        0 => "n/a".to_string(),
        base => format!("{:.2}%", 100.0 * value as f64 / base as f64),
    };
    for m in measurements {
        out.push_str(&format!(
            "{:<26} {:>10.2} {:>12} {:>14} {:>12} {:>14} {:>9.2}x\n",
            m.engine,
            m.elapsed.as_secs_f64() * 1000.0,
            m.rows,
            pct(m.stats.function_calls, base.stats.function_calls),
            pct(m.stats.comparisons, base.stats.comparisons),
            pct(m.stats.bytes_touched, base.stats.bytes_touched),
            base.elapsed.as_secs_f64() / m.elapsed.as_secs_f64().max(1e-9),
        ));
    }
    out
}

/// Render a simple series table (figure-style output: one row per x value,
/// one column per engine/algorithm).
pub fn render_series_table(
    title: &str,
    x_label: &str,
    columns: &[&str],
    rows: &[(String, Vec<Duration>)],
) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!("{x_label:<24}"));
    for c in columns {
        out.push_str(&format!(" {c:>24}"));
    }
    out.push('\n');
    for (x, times) in rows {
        out.push_str(&format!("{x:<24}"));
        for t in times {
            out.push_str(&format!(" {:>21.2} ms", t.as_secs_f64() * 1000.0));
        }
        out.push('\n');
    }
    out
}

/// Scale factor / size multiplier taken from the `HIQUE_BENCH_SCALE`
/// environment variable (default 1.0 = quick sizes; the paper's full sizes
/// need roughly 100× and several GiB of RAM).
pub fn bench_scale() -> f64 {
    std::env::var("HIQUE_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// TPC-H scale factor taken from the first command-line argument
/// (`default` when absent); an argument that is not a positive number ends
/// the process with a usage line.
pub fn tpch_scale_factor_arg(default: f64) -> f64 {
    match std::env::args().nth(1) {
        None => default,
        Some(arg) => match arg.parse::<f64>() {
            Ok(sf) if sf > 0.0 && sf.is_finite() => sf,
            _ => {
                eprintln!("usage: <binary> [TPC-H scale factor, default {default}]; got {arg:?}");
                std::process::exit(2);
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{agg_workload, join_workload};

    #[test]
    fn all_engines_agree_on_the_micro_join() {
        let catalog = join_workload(100, 500, 5).unwrap();
        let plan = plan_sql(
            crate::workload::join_query_sql(),
            &catalog,
            &PlannerConfig::default(),
        )
        .unwrap();
        let mut rows = Vec::new();
        for engine in [
            Engine::IterGeneric,
            Engine::IterOptimized,
            Engine::Dsm,
            Engine::Holistic,
        ] {
            let m = run_engine(engine, &plan, &catalog, None, true).unwrap();
            rows.push(m.rows);
        }
        assert!(rows.iter().all(|&r| r == rows[0]));
        assert_eq!(rows[0], 500);
    }

    #[test]
    fn profile_table_renders_all_engines() {
        let catalog = agg_workload(2000, 10).unwrap();
        let plan = plan_sql(
            crate::workload::agg_query_sql(),
            &catalog,
            &PlannerConfig::default(),
        )
        .unwrap();
        let ms: Vec<Measurement> = [Engine::IterGeneric, Engine::Holistic]
            .iter()
            .map(|&e| run_engine(e, &plan, &catalog, None, true).unwrap())
            .collect();
        let table = render_profile_table("test", &ms);
        assert!(table.contains("Generic Iterators"));
        assert!(table.contains("HIQUE"));
        assert!(table.contains("speedup"));
        // A zero baseline counter renders as n/a, not as a huge percentage.
        let mut zero_base = ms.clone();
        zero_base[0].stats.comparisons = 0;
        let table = render_profile_table("test", &zero_base);
        assert!(
            table.contains("n/a") && !table.contains("00000.00%"),
            "{table}"
        );
        let series = render_series_table(
            "s",
            "x",
            &["a"],
            &[("1".to_string(), vec![Duration::from_millis(3)])],
        );
        assert!(series.contains("3.00 ms"));
        assert!(bench_scale() > 0.0);
    }
}
