//! Shared helpers for the experiment harness binaries: running a plan on an
//! engine, the one best-of-`--repeats` timing loop, and the result tables in
//! the shape the paper reports.

use std::convert::Infallible;
use std::time::{Duration, Instant};

use hique_dsm::DsmDatabase;
use hique_plan::PhysicalPlan;
use hique_server::run_plan;
pub use hique_server::Engine;
use hique_storage::Catalog;
use hique_types::{ExecOptions, ExecStats, Result};

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

/// One measured execution.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Engine label.
    pub engine: String,
    /// Wall-clock time of the fastest run.  Planning is outside it; an
    /// engine's own preparation is inside it (`run_plan` prepares from
    /// scratch: code generation for HIQUE, decomposition for an unprepared
    /// DSM run).
    pub elapsed: Duration,
    /// Engine counters.
    pub stats: ExecStats,
    /// Number of result rows (or counted output rows when rows are not
    /// materialized).
    pub rows: u64,
}

/// The harness's one timing loop: `once` runs `repeats` times and the
/// fastest run is the measurement.  Every run must report the same row
/// count.
fn best_of<E>(
    repeats: usize,
    mut once: impl FnMut() -> std::result::Result<Measurement, E>,
) -> std::result::Result<Measurement, E> {
    let mut best = once()?;
    for _ in 1..repeats {
        let m = once()?;
        assert_eq!(
            m.rows, best.rows,
            "{}: row count changed between repeats",
            m.engine
        );
        if m.elapsed < best.elapsed {
            best = m;
        }
    }
    Ok(best)
}

/// Execute a plan on one engine, best of `repeats`.
///
/// `materialize_output` mirrors the paper's methodology switch: the
/// micro-benchmarks do not materialize query output.
pub fn run_engine(
    engine: Engine,
    plan: &PhysicalPlan,
    catalog: &Catalog,
    dsm: Option<&DsmDatabase>,
    materialize_output: bool,
    repeats: usize,
) -> Result<Measurement> {
    let options = ExecOptions {
        collect_rows: materialize_output,
        ..ExecOptions::default()
    };
    best_of(repeats, || {
        #[expect(clippy::disallowed_methods, reason = "the harness times each run")]
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
        let result = run_plan(engine, plan, catalog, dsm, &options)?;
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
    })
}

/// Measure a hand-coded kernel (`handcoded`) through the same loop:
/// `kernel` fills the counters and returns its output cardinality.
pub fn run_handcoded(
    label: &str,
    repeats: usize,
    mut kernel: impl FnMut(&mut ExecStats) -> u64,
) -> Measurement {
    let once = || -> std::result::Result<_, Infallible> {
        let mut stats = ExecStats::new();
        #[expect(clippy::disallowed_methods, reason = "the harness times each run")]
        let start = Instant::now();
        let rows = kernel(&mut stats);
        Ok(Measurement {
            engine: label.to_string(),
            elapsed: start.elapsed(),
            stats,
            rows,
        })
    };
    let Ok(best) = best_of(repeats, once);
    best
}

/// Render a table of measurements mirroring the paper's Figure 5(c)/(d) and
/// 6(c)/(d) tables: kernel speed in absolute terms (`ns/tuple` = elapsed ÷
/// `tuples_processed`, `MB/s` = `bytes_touched` ÷ elapsed, so the engines
/// read against the hand-coded roofline directly) next to the counters
/// normalized to the first row.
pub fn render_profile_table(title: &str, measurements: &[Measurement]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!(
        "{:<26} {:>10} {:>12} {:>9} {:>9} {:>14} {:>12} {:>14} {:>10}\n",
        "implementation",
        "time (ms)",
        "rows",
        "ns/tuple",
        "MB/s",
        "func calls %",
        "cmps %",
        "bytes %",
        "speedup"
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
        let secs = m.elapsed.as_secs_f64().max(1e-9);
        let ns_per_tuple = match m.stats.tuples_processed {
            0 => "n/a".to_string(),
            tuples => format!("{:.1}", secs * 1e9 / tuples as f64),
        };
        out.push_str(&format!(
            "{:<26} {:>10.2} {:>12} {:>9} {:>9.0} {:>14} {:>12} {:>14} {:>9.2}x\n",
            m.engine,
            secs * 1000.0,
            m.rows,
            ns_per_tuple,
            m.stats.bytes_touched as f64 / secs / 1e6,
            pct(m.stats.function_calls, base.stats.function_calls),
            pct(m.stats.comparisons, base.stats.comparisons),
            pct(m.stats.bytes_touched, base.stats.bytes_touched),
            base.elapsed.as_secs_f64() / secs,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{agg_query_sql, agg_workload, join_query_sql, join_workload};
    use hique_plan::{plan_sql, PlannerConfig};

    #[test]
    fn all_engines_agree_on_the_micro_join() {
        let catalog = join_workload(100, 500, 5).unwrap();
        let plan = plan_sql(join_query_sql(), &catalog, &PlannerConfig::default()).unwrap();
        for engine in Engine::ALL {
            let m = run_engine(engine, &plan, &catalog, None, true, 2).unwrap();
            assert_eq!(m.rows, 500, "{engine:?}");
        }
    }

    #[test]
    fn best_of_keeps_the_fastest_run() {
        let mut elapsed = [30u64, 10, 20].into_iter();
        let mut runs = 0;
        let best = best_of(3, || {
            runs += 1;
            Ok::<_, Infallible>(Measurement {
                engine: "k".to_string(),
                elapsed: Duration::from_millis(elapsed.next().unwrap()),
                stats: ExecStats::new(),
                rows: 7,
            })
        })
        .unwrap();
        assert_eq!((runs, best.elapsed), (3, Duration::from_millis(10)));
    }

    #[test]
    fn profile_table_renders_all_engines() {
        let catalog = agg_workload(2000, 10).unwrap();
        let plan = plan_sql(agg_query_sql(), &catalog, &PlannerConfig::default()).unwrap();
        let mut ms: Vec<Measurement> = [Engine::IterGeneric, Engine::Holistic]
            .iter()
            .map(|&e| run_engine(e, &plan, &catalog, None, true, 1).unwrap())
            .collect();
        let table = render_profile_table("test", &ms);
        assert!(table.contains("Generic Iterators"));
        assert!(table.contains("HIQUE"));
        assert!(table.contains("speedup"));
        // Kernel speed in absolute terms: 2 ms over 1 000 tuples of 72 bytes.
        ms[1].elapsed = Duration::from_millis(2);
        ms[1].stats.tuples_processed = 1_000;
        ms[1].stats.bytes_touched = 72_000;
        let table = render_profile_table("test", &ms);
        assert!(table.contains("ns/tuple") && table.contains("MB/s"));
        assert!(
            table.contains(" 2000.0 ") && table.contains(" 36 "),
            "{table}"
        );
        // A zero baseline counter renders as n/a, not as a huge percentage.
        ms[0].stats.comparisons = 0;
        ms[0].stats.tuples_processed = 0;
        let table = render_profile_table("test", &ms);
        assert!(
            table.matches("n/a").count() == 3 && !table.contains("00000.00%"),
            "{table}"
        );
        let series = render_series_table(
            "s",
            "x",
            &["a"],
            &[("1".to_string(), vec![Duration::from_millis(3)])],
        );
        assert!(series.contains("3.00 ms"));
    }
}
