//! The benchmark's metric names.  `BENCHMARK.json` lists the same names,
//! units and directions (a self-test keeps the two in step); every later
//! performance or simplicity change is judged by them.

use crate::json::{obj, Value};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the baseline median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the server sees, measured over TCP with tracing off.
/// README.md records the calibration behind each bound.
pub const END_TO_END: [EndToEnd; 5] = [
    end_to_end("setup_s", "s", "lower", 0.25),
    end_to_end("qps", "1/s", "higher", 0.20),
    end_to_end("stmt_ms_p50", "ms", "lower", 0.20),
    end_to_end("stmt_ms_p95", "ms", "lower", 0.25),
    end_to_end("server_rss_mb", "MiB", "lower", 0.15),
];

/// `(name, unit, better)` of every per-layer metric the traced run reports,
/// grouped by the layer whose public functions the spans surround.  A value
/// of 0 means the workload does not exercise that path (no holistic
/// statements on `adhoc_*`, no template hits on `tpch_*`, ...).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // server::wire — the real binary over TCP.
    ("wire.overhead_ms_p50", "ms", "lower"),
    ("wire.stmt_ms_p50", "ms", "lower"),
    ("wire.stmt_ms_p95", "ms", "lower"),
    ("wire.reply_bytes_per_stmt", "B", "lower"),
    ("wire.q1_holistic_ms_p50", "ms", "lower"),
    ("wire.q3_holistic_ms_p50", "ms", "lower"),
    ("wire.q10_holistic_ms_p50", "ms", "lower"),
    ("wire.q1_vm_ms_p50", "ms", "lower"),
    ("wire.q3_vm_ms_p50", "ms", "lower"),
    ("wire.q10_vm_ms_p50", "ms", "lower"),
    // The server process over that TCP window, from /proc.
    ("server.cpu_ms_per_stmt", "ms", "lower"),
    // server::cache / server::session.
    ("cache.exact_share", "ratio", "higher"),
    ("cache.template_share", "ratio", "higher"),
    ("cache.miss_share", "ratio", "lower"),
    ("cache.lookup_us_p50", "us", "lower"),
    ("session.prepare_miss_us_p50", "us", "lower"),
    ("session.prepare_template_us_p50", "us", "lower"),
    ("session.execute_ms_p50", "ms", "lower"),
    // The prepare path, stage by stage: plan (shape, planner), sql, core
    // (generator), vm (compiler, verifier, rebind).
    ("plan.shape_us_p50", "us", "lower"),
    ("sql.parse_us_p50", "us", "lower"),
    ("sql.analyze_us_p50", "us", "lower"),
    ("plan.plan_us_p50", "us", "lower"),
    ("core.generate_us_p50", "us", "lower"),
    ("vm.compile_us_p50", "us", "lower"),
    ("vm.verify_us_p50", "us", "lower"),
    ("vm.bind_us_p50", "us", "lower"),
    ("vm.code_len", "count", "lower"),
    ("prepare.sum_check", "ratio", "higher"),
    // core / vm executors, from QueryResult.timings and .stats.
    ("core.staging_ms", "ms", "lower"),
    ("core.join_ms", "ms", "lower"),
    ("core.agg_ms", "ms", "lower"),
    ("core.output_ms", "ms", "lower"),
    ("vm.staging_ms", "ms", "lower"),
    ("vm.join_ms", "ms", "lower"),
    ("vm.agg_ms", "ms", "lower"),
    ("vm.output_ms", "ms", "lower"),
    ("core.q1_exec_ms", "ms", "lower"),
    ("core.q3_exec_ms", "ms", "lower"),
    ("core.q10_exec_ms", "ms", "lower"),
    ("vm.q1_exec_ms", "ms", "lower"),
    ("vm.q3_exec_ms", "ms", "lower"),
    ("vm.q10_exec_ms", "ms", "lower"),
    ("core.ns_per_tuple", "ns", "lower"),
    ("core.mb_per_s", "MB/s", "higher"),
    ("vm.ns_per_tuple", "ns", "lower"),
    ("vm.mb_per_s", "MB/s", "higher"),
    ("core.tuples_processed", "count", "lower"),
    ("core.bytes_materialized", "count", "lower"),
    ("core.comparisons", "count", "lower"),
    ("core.hash_ops", "count", "lower"),
    ("core.function_calls", "count", "lower"),
    ("vm.tuples_processed", "count", "lower"),
    ("vm.bytes_materialized", "count", "lower"),
    ("vm.comparisons", "count", "lower"),
    ("vm.hash_ops", "count", "lower"),
    ("vm.function_calls", "count", "lower"),
    ("vm.batches", "count", "lower"),
    ("vm.fused_ops", "count", "higher"),
    ("exec.sum_check", "ratio", "higher"),
    // storage / pipeline, from ExecStats.io and a direct pool probe.
    ("storage.pool_hit_share", "ratio", "higher"),
    ("storage.evictions_per_stmt", "count", "lower"),
    ("storage.pages_read_per_stmt", "count", "lower"),
    ("storage.pages_written_per_stmt", "count", "lower"),
    ("storage.peak_resident_pages", "count", "lower"),
    ("pipeline.spilled_temporaries_per_stmt", "count", "lower"),
    ("pipeline.spill_claim_denied", "count", "lower"),
    ("storage.fetch_hit_ns", "ns", "lower"),
    ("storage.fetch_miss_us", "us", "lower"),
    ("storage.fetch_hit_ns_2t", "ns", "lower"),
    ("storage.contention_ratio_2t", "ratio", "lower"),
    ("server.scaling_2s", "ratio", "higher"),
    // Set-up, stage by stage.
    ("tpch.generate_s", "s", "lower"),
    ("storage.spill_to_disk_s", "s", "lower"),
    ("server.new_s", "s", "lower"),
    // The trace itself.
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
];

/// The table entry for `name`, as `(name, unit)`: every metric a run
/// reports, a result line carries or the trace sets must be in a table.
pub fn known(name: &str) -> Option<(&'static str, &'static str)> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|(n, _)| *n == name)
}

pub fn unit_of(name: &str) -> &'static str {
    known(name)
        .unwrap_or_else(|| panic!("metric '{name}' is not in the benchmark's tables"))
        .1
}

/// What one run of one workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Observations worth a line on stderr (a sum check out of range, ...).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Print the notes to stderr and the result line to stdout; the exit
    /// code says whether the run was correct.
    pub fn report(&self, program: &str) -> std::process::ExitCode {
        for note in &self.notes {
            eprintln!("{program}: {note}");
        }
        println!("{}", self.to_json().render());
        if self.correct {
            std::process::ExitCode::SUCCESS
        } else {
            std::process::ExitCode::FAILURE
        }
    }

    /// The one-line result object the benchmark contract asks for.
    pub fn to_json(&self) -> Value {
        obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                obj(self.metrics.iter().map(|&(name, value)| {
                    (
                        name,
                        obj([
                            ("value", Value::Num(value)),
                            ("unit", Value::Str(unit_of(name).into())),
                        ]),
                    )
                })),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Outcome, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("result has no '{key}'"))
        };
        let mut out = Outcome {
            correct: v.get("correct") == Some(&Value::Bool(true)),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            ..Outcome::default()
        };
        for (name, m) in v.get("metrics").map(Value::fields).unwrap_or(&[]) {
            let (known, _) = known(name).ok_or_else(|| format!("unknown metric '{name}'"))?;
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric '{name}' has no value"))?;
            out.metrics.push((known, value));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WORKLOADS;
    use crate::json::parse;

    /// `BENCHMARK.json` is what the driver and reviewers read; the tables
    /// above are what the binaries print.  They must not drift apart.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let file = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses");
        let text = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_string();

        let listed: Vec<_> = file
            .get("end_to_end")
            .unwrap()
            .as_array()
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.to_string(),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<_> = file
            .get("per_layer")
            .unwrap()
            .as_array()
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(listed, ours);

        assert_eq!(
            file.get("run_seconds").and_then(Value::as_f64),
            Some(crate::FULL_SECONDS)
        );

        let listed: Vec<_> = file
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        let ours: Vec<_> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn outcome_round_trips_through_its_result_line() {
        let out = Outcome {
            correct: true,
            attempted: 321,
            failed: 0,
            metrics: vec![("qps", 22.7031), ("wire.overhead_ms_p50", 43.91)],
            notes: vec![],
        };
        let line = out.to_json().render();
        assert!(!line.contains('\n'));
        let back = Outcome::from_json(&parse(&line).unwrap()).unwrap();
        assert_eq!(back.metrics, out.metrics);
        assert!(back.correct && back.attempted == 321 && back.failed == 0);
    }
}
