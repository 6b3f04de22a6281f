//! Result files: collect metrics over repeated runs, print them, write
//! them as JSON, and compare two files against the benchmark's bounds.

use crate::json::{obj, Value};
use crate::metrics::{unit_of, END_TO_END};
use crate::stats::{median, quartiles, spread};

/// Every value seen for one metric of one workload, one per repeat.
pub struct Row {
    pub workload: &'static str,
    pub group: &'static str,
    pub metric: &'static str,
    pub values: Vec<f64>,
}

#[derive(Default)]
pub struct Report {
    pub rows: Vec<Row>,
}

impl Report {
    pub fn record(
        &mut self,
        workload: &'static str,
        group: &'static str,
        metrics: &[(&'static str, f64)],
    ) {
        for &(metric, value) in metrics {
            match self
                .rows
                .iter_mut()
                .find(|r| r.workload == workload && r.metric == metric)
            {
                Some(row) => row.values.push(value),
                None => self.rows.push(Row {
                    workload,
                    group,
                    metric,
                    values: vec![value],
                }),
            }
        }
    }

    /// `workload metric value unit` per line; with repeats the value is the
    /// median, followed by the quartiles and their distance as a share of it.
    pub fn print(&self) {
        for row in &self.rows {
            let unit = unit_of(row.metric);
            print!(
                "{} {} {} {unit}",
                row.workload,
                row.metric,
                median(&row.values)
            );
            if row.values.len() > 1 {
                let (q1, q3) = quartiles(&row.values);
                print!("  q1 {q1} q3 {q3} spread {:.4}", spread(&row.values));
            }
            println!();
        }
    }

    /// With repeats: the bound each end-to-end metric could hold, derived
    /// from the widest spread any workload showed for it.
    pub fn print_calibration(&self) {
        println!("# calibration: bound = 3 x widest spread, at least 0.05, at most 0.25");
        for m in &END_TO_END {
            let widest = self
                .rows
                .iter()
                .filter(|r| r.metric == m.name)
                .map(|r| spread(&r.values))
                .fold(0.0, f64::max);
            let derived = (3.0 * widest).clamp(0.05, 0.25);
            let verdict = if widest > m.bound {
                "  SPREAD EXCEEDS BOUND"
            } else {
                ""
            };
            println!(
                "# {} widest_spread {widest:.4} derived_bound {derived:.3} recorded_bound {}{verdict}",
                m.name, m.bound
            );
        }
    }

    pub fn to_json(&self, header: Vec<(&'static str, Value)>) -> Value {
        let mut workloads: Vec<(String, Value)> = Vec::new();
        for row in &self.rows {
            let (q1, q3) = quartiles(&row.values);
            let entry = obj([
                ("unit", Value::Str(unit_of(row.metric).into())),
                ("median", Value::Num(median(&row.values))),
                ("q1", Value::Num(q1)),
                ("q3", Value::Num(q3)),
                (
                    "values",
                    Value::Arr(row.values.iter().map(|&v| Value::Num(v)).collect()),
                ),
            ]);
            child(child(&mut workloads, row.workload), row.group).push((row.metric.into(), entry));
        }
        let mut fields: Vec<(String, Value)> =
            header.into_iter().map(|(k, v)| (k.into(), v)).collect();
        fields.push(("workloads".into(), Value::Obj(workloads)));
        Value::Obj(fields)
    }
}

/// The object under `key`, created empty on first use.
fn child<'a>(fields: &'a mut Vec<(String, Value)>, key: &str) -> &'a mut Vec<(String, Value)> {
    let at = fields
        .iter()
        .position(|(k, _)| k == key)
        .unwrap_or_else(|| {
            fields.push((key.into(), Value::Obj(Vec::new())));
            fields.len() - 1
        });
    match &mut fields[at].1 {
        Value::Obj(inner) => inner,
        _ => unreachable!("only objects are stored under workload and group keys"),
    }
}

/// Verdict of `compare` on one (workload, end-to-end metric) pair.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// Worse than the base by more than the bound.
    Regressed,
    /// Within the bound, but one side's own run-to-run spread is wider than
    /// the bound, so "no worse" cannot be told from noise.
    Unresolved,
    Unchanged,
}

pub struct Comparison {
    pub workload: String,
    pub metric: &'static str,
    pub base: f64,
    pub other: f64,
    /// Relative change in the worse direction (negative = better).
    pub worse_by: f64,
    pub widest_spread: f64,
    pub verdict: Verdict,
}

/// Compare every end-to-end metric of every workload in `base` with `other`.
pub fn compare(base: &Value, other: &Value) -> Result<Vec<Comparison>, String> {
    let mut out = Vec::new();
    let workloads = base.get("workloads").ok_or("base file has no workloads")?;
    for (workload, entry) in workloads.fields() {
        for m in &END_TO_END {
            let side = |file_entry: Option<&Value>, which: &str| -> Result<(f64, f64), String> {
                let metric = file_entry
                    .and_then(|e| e.get("end_to_end"))
                    .and_then(|e| e.get(m.name))
                    .ok_or_else(|| format!("{which} file lacks {workload} {}", m.name))?;
                let num = |k: &str| metric.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
                let median = num("median");
                Ok((median, (num("q3") - num("q1")) / median.abs()))
            };
            let (a, spread_a) = side(Some(entry), "base")?;
            let (b, spread_b) = side(
                other.get("workloads").and_then(|w| w.get(workload)),
                "other",
            )?;
            let worse_by = if m.better == "lower" {
                (b - a) / a
            } else {
                (a - b) / a
            };
            let widest_spread = spread_a.max(spread_b);
            let verdict = if worse_by.is_nan() || worse_by > m.bound {
                Verdict::Regressed
            } else if widest_spread > m.bound {
                Verdict::Unresolved
            } else {
                Verdict::Unchanged
            };
            out.push(Comparison {
                workload: workload.clone(),
                metric: m.name,
                base: a,
                other: b,
                worse_by,
                widest_spread,
                verdict,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn file(qps: &[f64], p50: &[f64]) -> Value {
        let mut report = Report::default();
        for (&q, &p) in qps.iter().zip(p50) {
            report.record(
                "adhoc_cold_1s",
                "end_to_end",
                &[
                    ("setup_s", 0.2),
                    ("qps", q),
                    ("stmt_ms_p50", p),
                    ("stmt_ms_p95", 48.0),
                    ("server_rss_mb", 30.0),
                ],
            );
            report.record("adhoc_cold_1s", "per_layer", &[("cache.miss_share", 1.0)]);
        }
        // Through text, as `compare` reads it.
        parse(&report.to_json(vec![("seed", Value::Num(1.0))]).pretty()).unwrap()
    }

    fn verdict<'a>(c: &'a [Comparison], metric: &str) -> &'a Verdict {
        &c.iter().find(|c| c.metric == metric).unwrap().verdict
    }

    #[test]
    fn compare_tells_regressed_from_unresolved_from_unchanged() {
        let base = file(&[22.0, 22.1, 22.2], &[44.0, 44.0, 44.1]);
        assert!(compare(&base, &base)
            .unwrap()
            .iter()
            .all(|c| c.verdict == Verdict::Unchanged));

        // No bound exceeds 0.25.  qps is higher-better: a third fewer is a
        // regression, a third more is not; p50 is lower-better.
        let slower = file(&[14.9, 15.0, 15.1], &[60.0, 60.0, 60.0]);
        let c = compare(&base, &slower).unwrap();
        assert_eq!(*verdict(&c, "qps"), Verdict::Regressed);
        assert_eq!(*verdict(&c, "stmt_ms_p50"), Verdict::Regressed);
        assert_eq!(*verdict(&c, "server_rss_mb"), Verdict::Unchanged);
        let faster = file(&[29.9, 30.0, 30.1], &[30.0, 30.0, 30.0]);
        assert!(compare(&base, &faster)
            .unwrap()
            .iter()
            .all(|c| c.verdict == Verdict::Unchanged));

        // Same median, but the other side's runs disagree by more than the
        // bound: unresolved, not unchanged.
        let noisy = file(&[12.0, 22.1, 32.0], &[44.0, 44.0, 44.1]);
        let c = compare(&base, &noisy).unwrap();
        assert_eq!(*verdict(&c, "qps"), Verdict::Unresolved);
        assert_eq!(*verdict(&c, "stmt_ms_p50"), Verdict::Unchanged);
    }

    #[test]
    fn compare_refuses_a_file_that_lacks_a_metric() {
        let base = file(&[22.0], &[44.0]);
        assert!(compare(&base, &parse("{\"workloads\": {}}").unwrap()).is_err());
    }
}
