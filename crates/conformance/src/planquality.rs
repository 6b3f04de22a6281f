//! Plan-quality harness: measured cardinalities vs. the planner's estimates.
//!
//! The paper's optimizer orders joins greedily to minimise intermediate
//! result sizes (§IV); that strategy is only as good as the cardinality
//! estimates feeding it.  This module executes a plan's operators directly
//! over the catalog — filtered scans by re-scanning the heap, joins by
//! Value-level hash joins following the planned order — and reports the
//! **q-error** (`max(est/actual, actual/est)`) of every estimate, so tests
//! can gate on estimation accuracy and pin expected join orders.

use std::collections::HashMap;

use hique_plan::{PhysicalPlan, PlanActuals};
use hique_storage::Catalog;
use hique_types::tuple::read_value;
use hique_types::{HiqueError, Result, Value};

pub use hique_plan::stats::q_error;

/// The q-error gate enforced both by `tests/planquality.rs` (per-push) and
/// by `conformance --plan-quality` (nightly CI): median over all samples.
pub const GATE_MEDIAN_Q_ERROR: f64 = 2.0;
/// The q-error gate's 95th-percentile bound.
pub const GATE_P95_Q_ERROR: f64 = 10.0;

/// Scan one staged table, keeping the (filtered, projected) rows as Values.
fn staged_value_rows(st: &hique_plan::StagedTable, catalog: &Catalog) -> Result<Vec<Vec<Value>>> {
    let info = catalog.table(&st.table_name)?;
    let schema = &info.schema;
    let mut rows = Vec::new();
    info.heap.for_each_record(|record| {
        if st
            .filters
            .iter()
            .all(|f| f.matches(&read_value(record, schema, f.column)))
        {
            rows.push(
                st.keep
                    .iter()
                    .map(|&c| read_value(record, schema, c))
                    .collect::<Vec<Value>>(),
            );
        }
    })?;
    Ok(rows)
}

/// Actual post-filter cardinality of one staged table.
pub fn actual_stage_rows(plan: &PhysicalPlan, catalog: &Catalog, staged: usize) -> Result<usize> {
    Ok(staged_value_rows(&plan.staged[staged], catalog)?.len())
}

/// Measure every operator cardinality of `plan`: per-stage post-filter rows
/// and, for binary join cascades, the output rows of every join step
/// (computed with Value-level hash joins in the planned order).  Join teams
/// are reported with stage actuals only.
pub fn measure_actuals(plan: &PhysicalPlan, catalog: &Catalog) -> Result<PlanActuals> {
    let mut actuals = PlanActuals::unknown(plan);

    // Staged (filtered, projected) tables as Value rows, keyed by staged idx.
    let mut staged_rows: Vec<Vec<Vec<Value>>> = Vec::with_capacity(plan.staged.len());
    for (t, st) in plan.staged.iter().enumerate() {
        let rows = staged_value_rows(st, catalog)?;
        actuals.stage_rows[t] = Some(rows.len());
        staged_rows.push(rows);
    }

    // Binary join cascade in the planned order.
    if !plan.joins.is_empty() {
        let first = plan.join_order[0];
        let mut current: Vec<Vec<Value>> = staged_rows[first].clone();
        for (i, step) in plan.joins.iter().enumerate() {
            let right = &staged_rows[step.right];
            let mut table: HashMap<Value, Vec<&Vec<Value>>> = HashMap::new();
            for row in right {
                table
                    .entry(row[step.right_key].clone())
                    .or_default()
                    .push(row);
            }
            let mut joined = Vec::new();
            for left_row in &current {
                if let Some(matches) = table.get(&left_row[step.left_key]) {
                    for right_row in matches {
                        let mut out = left_row.clone();
                        out.extend(right_row.iter().cloned());
                        joined.push(out);
                    }
                }
            }
            actuals.join_rows[i] = Some(joined.len());
            current = joined;
        }
    }

    Ok(actuals)
}

/// One estimate/actual pair with its operator label.
#[derive(Debug, Clone)]
pub struct CardSample {
    /// `stage <table>` or `join +<table>`, for reports.
    pub operator: String,
    /// The SQL text of the query the sample came from.
    pub sql: String,
    /// The planner's estimate.
    pub estimated: usize,
    /// The measured cardinality.
    pub actual: usize,
}

impl CardSample {
    /// q-error of this sample.
    pub fn q_error(&self) -> f64 {
        q_error(self.estimated, self.actual)
    }
}

/// Accumulated estimate-accuracy report over many queries.
#[derive(Debug, Default)]
pub struct QualityReport {
    /// Every (estimate, actual) pair observed, in insertion order.
    pub samples: Vec<CardSample>,
}

impl QualityReport {
    /// Measure `plan` and record one sample per operator.
    pub fn record(&mut self, sql: &str, plan: &PhysicalPlan, catalog: &Catalog) -> Result<()> {
        let actuals = measure_actuals(plan, catalog)?;
        for (t, st) in plan.staged.iter().enumerate() {
            let actual = actuals.stage_rows[t].ok_or_else(|| {
                HiqueError::Execution(format!("no actual rows measured for stage {t}"))
            })?;
            self.samples.push(CardSample {
                operator: format!("stage {}", st.table_name),
                sql: sql.to_string(),
                estimated: st.estimated_rows,
                actual,
            });
        }
        for (i, step) in plan.joins.iter().enumerate() {
            if let Some(actual) = actuals.join_rows[i] {
                self.samples.push(CardSample {
                    operator: format!("join +{}", plan.staged[step.right].table_name),
                    sql: sql.to_string(),
                    estimated: step.estimated_rows,
                    actual,
                });
            }
        }
        Ok(())
    }

    /// Sorted q-errors of all samples.
    pub fn q_errors(&self) -> Vec<f64> {
        let mut qs: Vec<f64> = self.samples.iter().map(|s| s.q_error()).collect();
        qs.sort_by(|a, b| a.total_cmp(b));
        qs
    }

    /// The `p`-quantile (0.0 ..= 1.0) of the q-error distribution, by the
    /// nearest-rank method.
    pub fn quantile(&self, p: f64) -> f64 {
        let qs = self.q_errors();
        if qs.is_empty() {
            return 1.0;
        }
        let rank = ((p * qs.len() as f64).ceil() as usize).clamp(1, qs.len());
        qs[rank - 1]
    }

    /// Median q-error.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The worst samples, most erroneous first (for failure messages).
    pub fn worst(&self, n: usize) -> Vec<&CardSample> {
        let mut sorted: Vec<&CardSample> = self.samples.iter().collect();
        sorted.sort_by(|a, b| b.q_error().total_cmp(&a.q_error()));
        sorted.truncate(n);
        sorted
    }

    /// Whether the accumulated samples satisfy the shared q-error gate
    /// ([`GATE_MEDIAN_Q_ERROR`], [`GATE_P95_Q_ERROR`]).
    pub fn passes_gate(&self) -> bool {
        self.median() <= GATE_MEDIAN_Q_ERROR && self.quantile(0.95) <= GATE_P95_Q_ERROR
    }

    /// Human-readable summary: sample count, median, p90/p95/max.
    pub fn summary(&self) -> String {
        format!(
            "{} samples, q-error median {:.2}, p90 {:.2}, p95 {:.2}, max {:.2}",
            self.samples.len(),
            self.median(),
            self.quantile(0.9),
            self.quantile(0.95),
            self.quantile(1.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_plan::{plan_sql, PlannerConfig};
    use hique_types::{Column, DataType, Row, Schema};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.create_table(
            "r",
            Schema::new(vec![
                Column::new("k", DataType::Int32),
                Column::new("v", DataType::Int32),
            ]),
        )
        .unwrap();
        cat.create_table(
            "s",
            Schema::new(vec![
                Column::new("k", DataType::Int32),
                Column::new("w", DataType::Int32),
            ]),
        )
        .unwrap();
        for i in 0..200 {
            cat.table_mut("r")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![Value::Int32(i), Value::Int32(i % 7)]))
                .unwrap();
            cat.table_mut("s")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![Value::Int32(i % 50), Value::Int32(i)]))
                .unwrap();
        }
        cat.analyze_table("r").unwrap();
        cat.analyze_table("s").unwrap();
        cat
    }

    #[test]
    fn stage_actuals_count_filtered_rows() {
        let cat = catalog();
        let plan = plan_sql(
            "select r.k from r where r.k < 100 order by r.k",
            &cat,
            &PlannerConfig::default(),
        )
        .unwrap();
        assert_eq!(actual_stage_rows(&plan, &cat, 0).unwrap(), 100);
        // The histogram estimate is within one bucket of the truth.
        let est = plan.staged[0].estimated_rows;
        assert!(q_error(est, 100) < 1.2, "estimate {est} vs actual 100");
    }

    #[test]
    fn join_actuals_follow_the_planned_order() {
        let cat = catalog();
        let plan = plan_sql(
            "select r.v, s.w from r, s where r.k = s.k order by r.v, s.w",
            &cat,
            &PlannerConfig::default(),
        )
        .unwrap();
        let actuals = measure_actuals(&plan, &cat).unwrap();
        assert_eq!(actuals.stage_rows, vec![Some(200), Some(200)]);
        // Each of the 50 distinct s-keys matches one r row, 4 dups each.
        assert_eq!(actuals.join_rows, vec![Some(200)]);
        let mut report = QualityReport::default();
        report.record("q", &plan, &cat).unwrap();
        assert_eq!(report.samples.len(), 3);
        assert!(report.median() >= 1.0);
        assert!(!report.summary().is_empty());
        assert!(report.worst(1)[0].q_error() >= report.median());
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut report = QualityReport::default();
        for (est, actual) in [(10, 10), (10, 20), (10, 40), (10, 80)] {
            report.samples.push(CardSample {
                operator: "stage t".into(),
                sql: "q".into(),
                estimated: est,
                actual,
            });
        }
        assert_eq!(report.quantile(0.5), 2.0);
        assert_eq!(report.quantile(1.0), 8.0);
        assert_eq!(report.quantile(0.25), 1.0);
        let empty = QualityReport::default();
        assert_eq!(empty.median(), 1.0);
    }
}
