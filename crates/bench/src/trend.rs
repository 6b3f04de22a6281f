//! Bench trend tracking: a flat JSON snapshot per commit, plus the
//! comparison that warns on regressions between consecutive snapshots.
//!
//! The `bench_trend` binary measures a small fixed workload set and writes
//! `BENCH_<sha>.json`; CI caches the previous snapshot and re-invokes the
//! binary with `--compare` so a >20% slowdown on any benchmark surfaces as
//! a workflow warning (trend tracking warns, it does not block — absolute
//! times on shared runners are too noisy for a hard gate).
//!
//! The JSON codec is hand-rolled (the offline workspace has no serde): the
//! format is exactly what [`render_snapshot`] emits, and [`parse_results`]
//! accepts any flat `"name": number` object under a `"results"` key.

use std::fmt::Write as _;

/// One measured benchmark: label and best-of-N value.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Stable benchmark name (snake_case; the suffix names the unit —
    /// `_ms` wall milliseconds, `_ns_per_tuple` nanoseconds per tuple).
    pub name: String,
    /// Best observed value, in the name's unit (lower is better).
    pub millis: f64,
}

/// Render a snapshot as the canonical trend JSON.
pub fn render_snapshot(sha: &str, results: &[BenchResult]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"sha\": \"{}\",", escape(sha));
    let _ = writeln!(out, "  \"results\": {{");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(out, "    \"{}\": {:.3}{comma}", escape(&r.name), r.millis);
    }
    let _ = writeln!(out, "  }}");
    out.push('}');
    out.push('\n');
    out
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| *c != '"' && *c != '\\' && !c.is_control())
        .collect()
}

/// Parse the `"results"` object of a trend snapshot into (name, millis)
/// pairs.  Returns an empty list when the file has no parseable results —
/// comparison against a corrupt or foreign file degrades to "nothing to
/// compare", never an error that blocks the bench job.
pub fn parse_results(json: &str) -> Vec<BenchResult> {
    let Some(results_at) = json.find("\"results\"") else {
        return Vec::new();
    };
    let tail = &json[results_at..];
    let Some(open) = tail.find('{') else {
        return Vec::new();
    };
    let Some(close) = tail.find('}') else {
        return Vec::new();
    };
    if close < open {
        return Vec::new();
    }
    let body = &tail[open + 1..close];
    let mut out = Vec::new();
    for entry in body.split(',') {
        let Some((name_part, value_part)) = entry.split_once(':') else {
            continue;
        };
        let name = name_part.trim().trim_matches('"').to_string();
        if name.is_empty() {
            continue;
        }
        if let Ok(millis) = value_part.trim().parse::<f64>() {
            if millis.is_finite() {
                out.push(BenchResult { name, millis });
            }
        }
    }
    out
}

/// Render a snapshot history (oldest first, one `(sha, results)` pair per
/// `BENCH_<sha>.json` artifact) into a static, dependency-free
/// `dashboard.html`: one table row per benchmark with its newest time,
/// best/worst over the history, and an inline SVG sparkline.  Hand-rolled
/// like the JSON codec — the offline workspace has no templating engine.
pub fn render_dashboard(history: &[(String, Vec<BenchResult>)]) -> String {
    let mut out = String::from(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
         <title>hique bench trend</title>\n<style>\n\
         body{font-family:monospace;margin:2em;background:#fafafa}\n\
         table{border-collapse:collapse}\n\
         th,td{padding:4px 12px;border-bottom:1px solid #ddd;text-align:right}\n\
         th{text-align:left}td:first-child{text-align:left}\n\
         svg{vertical-align:middle}\n\
         </style></head><body>\n<h1>bench trend</h1>\n",
    );
    if history.is_empty() {
        out.push_str("<p>no snapshots</p>\n</body></html>\n");
        return out;
    }
    let _ = writeln!(
        out,
        "<p>{} snapshots, oldest first: {} &rarr; {}</p>",
        history.len(),
        escape_html(&history[0].0),
        escape_html(&history[history.len() - 1].0)
    );
    // Benchmarks in order of first appearance across the history, so rows
    // are stable as cases are added over time.
    let mut names: Vec<&str> = Vec::new();
    for (_, results) in history {
        for r in results {
            if !names.iter().any(|n| *n == r.name) {
                names.push(&r.name);
            }
        }
    }
    out.push_str(
        "<table>\n<tr><th>benchmark</th><th>trend</th>\
         <th>latest (ms)</th><th>best</th><th>worst</th></tr>\n",
    );
    for name in names {
        let series: Vec<Option<f64>> = history
            .iter()
            .map(|(_, rs)| rs.iter().find(|r| r.name == name).map(|r| r.millis))
            .collect();
        let seen: Vec<f64> = series.iter().flatten().copied().collect();
        let latest = series.iter().rev().flatten().next().copied().unwrap_or(0.0);
        let best = seen.iter().copied().fold(f64::INFINITY, f64::min);
        let worst = seen.iter().copied().fold(0.0f64, f64::max);
        let _ = writeln!(
            out,
            "<tr><td>{}</td><td>{}</td><td>{latest:.3}</td>\
             <td>{best:.3}</td><td>{worst:.3}</td></tr>",
            escape_html(name),
            sparkline(&series)
        );
    }
    out.push_str("</table>\n</body></html>\n");
    out
}

/// Inline SVG sparkline over one benchmark's per-snapshot times (`None`
/// where a snapshot predates the benchmark).  Lower is better, so smaller
/// values draw higher.
fn sparkline(series: &[Option<f64>]) -> String {
    const W: f64 = 140.0;
    const H: f64 = 28.0;
    const PAD: f64 = 3.0;
    let seen: Vec<f64> = series.iter().flatten().copied().collect();
    if seen.is_empty() {
        return String::new();
    }
    let min = seen.iter().copied().fold(f64::INFINITY, f64::min);
    let max = seen.iter().copied().fold(0.0f64, f64::max);
    let span = (max - min).max(1e-9);
    let step = if series.len() > 1 {
        (W - 2.0 * PAD) / (series.len() - 1) as f64
    } else {
        0.0
    };
    let mut points = String::new();
    for (i, v) in series.iter().enumerate() {
        let Some(v) = v else { continue };
        let x = PAD + step * i as f64;
        let y = PAD + (H - 2.0 * PAD) * (v - min) / span;
        let _ = write!(points, "{x:.1},{y:.1} ");
    }
    format!(
        "<svg width=\"{W:.0}\" height=\"{H:.0}\">\
         <polyline points=\"{}\" fill=\"none\" stroke=\"#2a6\" stroke-width=\"1.5\"/>\
         </svg>",
        points.trim_end()
    )
}

fn escape_html(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// One benchmark that slowed down beyond the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Benchmark name.
    pub name: String,
    /// Previous snapshot's milliseconds.
    pub before: f64,
    /// Current snapshot's milliseconds.
    pub now: f64,
}

impl Regression {
    /// Slowdown ratio (`now / before`).
    pub fn ratio(&self) -> f64 {
        self.now / self.before.max(1e-9)
    }
}

/// Benchmarks present in both snapshots whose time grew by more than
/// `threshold` (0.2 = warn beyond +20%).  Sub-millisecond baselines are
/// skipped: at that scale scheduling noise dominates any real change.
pub fn regressions(
    previous: &[BenchResult],
    current: &[BenchResult],
    threshold: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for cur in current {
        let Some(prev) = previous.iter().find(|p| p.name == cur.name) else {
            continue;
        };
        if prev.millis < 1.0 {
            continue;
        }
        if cur.millis > prev.millis * (1.0 + threshold) {
            out.push(Regression {
                name: cur.name.clone(),
                before: prev.millis,
                now: cur.millis,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> Vec<BenchResult> {
        vec![
            BenchResult {
                name: "q1_holistic_ms".into(),
                millis: 12.345,
            },
            BenchResult {
                name: "q3_holistic_ms".into(),
                millis: 40.0,
            },
        ]
    }

    #[test]
    fn render_parse_round_trip() {
        let json = render_snapshot("abc123", &snapshot());
        assert!(json.contains("\"sha\": \"abc123\""));
        let parsed = parse_results(&json);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "q1_holistic_ms");
        assert!((parsed[0].millis - 12.345).abs() < 1e-9);
        assert!((parsed[1].millis - 40.0).abs() < 1e-9);
    }

    #[test]
    fn parse_tolerates_garbage() {
        assert!(parse_results("").is_empty());
        assert!(parse_results("{\"sha\": \"x\"}").is_empty());
        assert!(parse_results("not json at all").is_empty());
        let partial = "{\"results\": {\"ok_ms\": 5.0, \"bad\": oops}}";
        let parsed = parse_results(partial);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name, "ok_ms");
    }

    #[test]
    fn dashboard_renders_sparkline_rows_over_the_history() {
        let mut newer = snapshot();
        newer[0].millis = 10.0;
        // A benchmark added mid-history gets a row (and a shorter line).
        newer.push(BenchResult {
            name: "q1_vm_vec_ms".into(),
            millis: 8.5,
        });
        let history = vec![("old<sha>".to_string(), snapshot()), ("new".into(), newer)];
        let html = render_dashboard(&history);
        for needle in [
            "q1_holistic_ms",
            "q3_holistic_ms",
            "q1_vm_vec_ms",
            "<polyline",
            "10.000",
            "8.500",
            "old&lt;sha&gt;",
        ] {
            assert!(html.contains(needle), "missing {needle:?} in {html}");
        }
        // q1 improved 12.345 -> 10.0: best is the newer value, worst the older.
        let row = html.lines().find(|l| l.contains("q1_holistic_ms")).unwrap();
        assert!(row.contains("<td>10.000</td>"), "{row}");
        assert!(row.contains("<td>12.345</td>"), "{row}");

        let empty = render_dashboard(&[]);
        assert!(empty.contains("no snapshots"));
        assert!(empty.ends_with("</body></html>\n"));
    }

    #[test]
    fn regressions_flag_only_real_slowdowns() {
        let prev = snapshot();
        let mut cur = snapshot();
        // +10%: inside the threshold.
        cur[0].millis = 13.5;
        assert!(regressions(&prev, &cur, 0.2).is_empty());
        // +50%: flagged with the right ratio.
        cur[1].millis = 60.0;
        let regs = regressions(&prev, &cur, 0.2);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "q3_holistic_ms");
        assert!((regs[0].ratio() - 1.5).abs() < 1e-6);
        // Unknown benchmarks and sub-millisecond baselines are ignored.
        let tiny_prev = vec![BenchResult {
            name: "tiny_ms".into(),
            millis: 0.2,
        }];
        let tiny_cur = vec![BenchResult {
            name: "tiny_ms".into(),
            millis: 0.9,
        }];
        assert!(regressions(&tiny_prev, &tiny_cur, 0.2).is_empty());
    }
}
