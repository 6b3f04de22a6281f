//! # hique-lint
//!
//! Source-level invariant checker for the HIQUE workspace: a handful of
//! rules the compiler and clippy cannot express, enforced per push in CI.
//! Std-only by design — it must build in seconds and never pull the engine
//! crates into its own dependency graph.
//!
//! Rules (each finding names the rule, file and line):
//!
//! * `unwrap-expect` — `.unwrap()` / `.expect(` in non-test library code.
//!   Panics are not typed errors; every tolerated site lives in the
//!   checked-in allowlist with a stated reason (usually a documented
//!   invariant the surrounding code maintains).  Binary drivers
//!   (`src/main.rs`, `src/bin/*.rs`) are exempt: for a bench or CLI entry
//!   point, panicking with a message *is* the process's error report.
//! * `wall-clock` — `Instant::now` / `SystemTime` in engine crates.  The
//!   engines are deterministic replay subjects; ambient time is only
//!   allowed where the allowlist says it is instrumentation (phase
//!   timings, spill pressure windows, cancellation deadlines).
//! * `condvar-wait` — unbounded `Condvar::wait`.  Every blocking wait in
//!   the workspace must carry a timeout so cancellation and shutdown can
//!   always make progress; there is no allowlist escape for this rule.
//! * `allow-attr` — `#[allow(...)]` without a justification comment on the
//!   same or the preceding line.  Suppressing a diagnostic is fine;
//!   suppressing it silently is not.
//! * `forbid-unsafe` — every non-shim crate root must carry
//!   `#![forbid(unsafe_code)]`.
//!
//! The allowlist (`lint-allow.toml` at the workspace root) is a sequence
//! of `[[allow]]` tables, each with `rule`, `path`, `max` (finding budget
//! for that file) and a mandatory non-empty `reason`.  Budgets are exact
//! and ratchet both ways: a file exceeding its budget fails the gate, and
//! so does an entry whose file now has fewer findings than its `max`
//! (*slack*) or none at all (*stale*), so the list cannot rot.

#![forbid(unsafe_code)]

use std::fmt;

/// The rules this linter knows.  `name()` strings are what the allowlist
/// refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    UnwrapExpect,
    WallClock,
    CondvarWait,
    AllowAttr,
    ForbidUnsafe,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnwrapExpect => "unwrap-expect",
            Rule::WallClock => "wall-clock",
            Rule::CondvarWait => "condvar-wait",
            Rule::AllowAttr => "allow-attr",
            Rule::ForbidUnsafe => "forbid-unsafe",
        }
    }

    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "unwrap-expect" => Some(Rule::UnwrapExpect),
            "wall-clock" => Some(Rule::WallClock),
            "condvar-wait" => Some(Rule::CondvarWait),
            "allow-attr" => Some(Rule::AllowAttr),
            "forbid-unsafe" => Some(Rule::ForbidUnsafe),
            _ => None,
        }
    }

    /// Rules with no allowlist escape: findings always fail the gate.
    pub fn allowlistable(self) -> bool {
        !matches!(self, Rule::CondvarWait | Rule::ForbidUnsafe)
    }
}

/// One rule hit at one source line.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    pub path: String,
    pub line: usize,
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.excerpt.trim()
        )
    }
}

// The patterns are spelled via concat! so this crate's own source does not
// trip the rules it enforces when the linter scans the workspace.
const PAT_UNWRAP: &str = concat!(".unw", "rap()");
const PAT_EXPECT: &str = concat!(".exp", "ect(");
const PAT_INSTANT: &str = concat!("Instant::", "now");
const PAT_SYSTIME: &str = concat!("System", "Time");
const PAT_WAIT: &str = concat!(".wa", "it(");
const PAT_WAIT_TIMEOUT: &str = concat!("wait_", "timeout");
const PAT_ALLOW: &str = concat!("#[al", "low(");
const PAT_CFG_TEST: &str = concat!("#[cfg(", "test)]");
const PAT_FORBID_UNSAFE: &str = concat!("#![forbid(", "unsafe_code)]");

/// Crates whose `src/` trees are held to the `wall-clock` rule: the query
/// engines proper, where determinism is a replay/test contract.  Benches,
/// the server and the conformance harness legitimately read clocks.
pub const ENGINE_CRATES: &[&str] = &[
    "types", "storage", "sql", "plan", "par", "pipeline", "iter", "dsm", "core", "vm",
];

/// True when `path` (workspace-relative, forward slashes) belongs to an
/// engine crate's library tree.
pub fn is_engine_path(path: &str) -> bool {
    ENGINE_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

/// The part of a line that is code: everything before a `//` comment.
/// (Naive about `//` inside string literals — that only shrinks the match
/// region, so it can hide a finding in pathological code but never invent
/// one.)
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(idx) => &line[..idx],
        None => line,
    }
}

/// Scan one source file's text.  `path` is the workspace-relative label
/// used in findings and matched against the allowlist.  Lines inside
/// `#[cfg(test)]`-gated blocks are exempt from every rule: tests may
/// panic, tell time and suppress lints freely.
pub fn scan_source(path: &str, text: &str) -> Vec<Finding> {
    let engine = is_engine_path(path);
    // Binary entry points report errors by panicking with a message; the
    // unwrap-expect rule is about library code that owes callers a typed
    // error instead.
    let bin_driver = path.contains("/src/bin/") || path.ends_with("src/main.rs");
    let mut findings = Vec::new();
    let mut in_test = false;
    let mut test_depth: i64 = 0;
    let mut test_armed = false;
    let mut prev_code_line = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let trimmed = raw.trim_start();
        if in_test {
            for ch in raw.chars() {
                match ch {
                    '{' => {
                        test_depth += 1;
                        test_armed = true;
                    }
                    '}' => test_depth -= 1,
                    _ => {}
                }
            }
            if test_armed && test_depth <= 0 {
                in_test = false;
            }
            continue;
        }
        if trimmed.starts_with(PAT_CFG_TEST) {
            in_test = true;
            test_depth = 0;
            test_armed = false;
            continue;
        }
        if trimmed.starts_with("//") {
            prev_code_line = raw.to_string();
            continue;
        }
        let code = code_part(raw);

        if !bin_driver && (code.contains(PAT_UNWRAP) || code.contains(PAT_EXPECT)) {
            findings.push(Finding {
                rule: Rule::UnwrapExpect,
                path: path.to_string(),
                line: line_no,
                excerpt: raw.to_string(),
            });
        }
        if engine && (code.contains(PAT_INSTANT) || code.contains(PAT_SYSTIME)) {
            findings.push(Finding {
                rule: Rule::WallClock,
                path: path.to_string(),
                line: line_no,
                excerpt: raw.to_string(),
            });
        }
        if code.contains(PAT_WAIT) && !code.contains(PAT_WAIT_TIMEOUT) {
            findings.push(Finding {
                rule: Rule::CondvarWait,
                path: path.to_string(),
                line: line_no,
                excerpt: raw.to_string(),
            });
        }
        if code.trim_start().starts_with(PAT_ALLOW) {
            // Only a plain `//` comment counts as justification: `///` doc
            // comments document the item, not the suppression.
            let justified_inline = raw.contains("//");
            let prev = prev_code_line.trim_start();
            let justified_above =
                prev.starts_with("//") && !prev.starts_with("///") && !prev.starts_with("//!");
            if !justified_inline && !justified_above {
                findings.push(Finding {
                    rule: Rule::AllowAttr,
                    path: path.to_string(),
                    line: line_no,
                    excerpt: raw.to_string(),
                });
            }
        }
        prev_code_line = raw.to_string();
    }
    findings
}

/// Check a crate root (`src/lib.rs` or `src/main.rs`) for the mandatory
/// `#![forbid(unsafe_code)]`.
pub fn check_crate_root(path: &str, text: &str) -> Option<Finding> {
    if text.lines().any(|l| l.trim() == PAT_FORBID_UNSAFE) {
        None
    } else {
        Some(Finding {
            rule: Rule::ForbidUnsafe,
            path: path.to_string(),
            line: 1,
            excerpt: format!("crate root is missing {PAT_FORBID_UNSAFE}"),
        })
    }
}

/// One `[[allow]]` table from `lint-allow.toml`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub rule: Rule,
    pub path: String,
    pub max: usize,
    pub reason: String,
}

/// Parse the allowlist.  The accepted grammar is the TOML subset the file
/// actually uses: `#` comments, `[[allow]]` table headers and
/// `key = value` pairs with quoted strings or bare integers.  Anything
/// else is a hard error — a malformed allowlist must fail the gate, not
/// silently allow everything.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    struct Partial {
        rule: Option<Rule>,
        path: Option<String>,
        max: Option<usize>,
        reason: Option<String>,
        header_line: usize,
    }
    fn finish(p: Partial) -> Result<AllowEntry, String> {
        let at = format!("[[allow]] at line {}", p.header_line);
        let rule = p.rule.ok_or(format!("{at}: missing rule"))?;
        if !rule.allowlistable() {
            return Err(format!(
                "{at}: rule '{}' cannot be allowlisted",
                rule.name()
            ));
        }
        let path = p.path.ok_or(format!("{at}: missing path"))?;
        let max = p.max.ok_or(format!("{at}: missing max"))?;
        if max == 0 {
            return Err(format!("{at}: max must be >= 1 (delete the entry instead)"));
        }
        let reason = p.reason.ok_or(format!("{at}: missing reason"))?;
        if reason.trim().is_empty() {
            return Err(format!("{at}: reason must not be empty"));
        }
        Ok(AllowEntry {
            rule,
            path,
            max,
            reason,
        })
    }

    let mut entries = Vec::new();
    let mut current: Option<Partial> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(p) = current.take() {
                entries.push(finish(p)?);
            }
            current = Some(Partial {
                rule: None,
                path: None,
                max: None,
                reason: None,
                header_line: line_no,
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "line {line_no}: expected `key = value`, got: {line}"
            ));
        };
        let Some(p) = current.as_mut() else {
            return Err(format!(
                "line {line_no}: `{}` outside any [[allow]]",
                key.trim()
            ));
        };
        let key = key.trim();
        let value = value.trim();
        let unquote = |v: &str| -> Result<String, String> {
            let v = v
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or(format!("line {line_no}: {key} must be a quoted string"))?;
            Ok(v.to_string())
        };
        match key {
            "rule" => {
                let name = unquote(value)?;
                p.rule = Some(
                    Rule::from_name(&name)
                        .ok_or(format!("line {line_no}: unknown rule '{name}'"))?,
                );
            }
            "path" => p.path = Some(unquote(value)?),
            "max" => {
                p.max = Some(
                    value
                        .parse()
                        .map_err(|e| format!("line {line_no}: bad max: {e}"))?,
                )
            }
            "reason" => p.reason = Some(unquote(value)?),
            other => return Err(format!("line {line_no}: unknown key '{other}'")),
        }
    }
    if let Some(p) = current.take() {
        entries.push(finish(p)?);
    }
    Ok(entries)
}

/// The gate's verdict after findings meet the allowlist.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings not covered by any allowlist budget.  Any entry fails.
    pub violations: Vec<String>,
    /// Findings absorbed by allowlist budgets.
    pub suppressed: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in &self.violations {
            writeln!(f, "error: {v}")?;
        }
        writeln!(
            f,
            "hique-lint: {} violations, {} suppressed by allowlist",
            self.violations.len(),
            self.suppressed
        )
    }
}

/// Apply the allowlist: per (rule, path) budgets, ratcheting both ways.
pub fn apply_allowlist(findings: &[Finding], entries: &[AllowEntry]) -> Report {
    let mut report = Report::default();
    let mut used = vec![0usize; entries.len()];
    for finding in findings {
        let slot = entries
            .iter()
            .position(|e| e.rule == finding.rule && e.path == finding.path);
        match slot {
            Some(i) if used[i] < entries[i].max => {
                used[i] += 1;
                report.suppressed += 1;
            }
            Some(i) => report.violations.push(format!(
                "{finding} (allowlist budget for {} in {} is {}, exceeded)",
                entries[i].rule.name(),
                entries[i].path,
                entries[i].max
            )),
            None => report.violations.push(finding.to_string()),
        }
    }
    for (entry, &n) in entries.iter().zip(&used) {
        let (rule, path, max) = (entry.rule.name(), &entry.path, entry.max);
        if n == 0 {
            report.violations.push(format!(
                "stale allowlist entry: {rule} for {path} (max {max}) matched nothing; delete it"
            ));
        } else if n < max {
            report.violations.push(format!(
                "slack allowlist entry: {rule} for {path} has max {max} but matched {n}; lower it to {n}"
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    // Build pattern-bearing source at runtime so this file never contains
    // the literal patterns outside the concat! definitions.
    fn line_with(pat: &str) -> String {
        format!("    let x = y{pat});\n")
    }

    #[test]
    fn unwrap_and_expect_are_flagged_in_library_code() {
        let src = format!(
            "fn f() {{\n{}{}}}\n",
            line_with(&PAT_UNWRAP.replace("()", "(")),
            line_with(PAT_EXPECT)
        );
        let findings = scan_source("crates/sql/src/parse.rs", &src);
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.rule == Rule::UnwrapExpect));
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn binary_drivers_are_exempt_from_unwrap_expect_only() {
        let src = format!(
            "fn main() {{\n{}    let t = {}();\n}}\n",
            line_with(PAT_EXPECT),
            PAT_INSTANT
        );
        let findings = scan_source("crates/vm/src/bin/tool.rs", &src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, Rule::WallClock);
        assert!(scan_source("crates/server/src/main.rs", &line_with(PAT_EXPECT)).is_empty());
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = format!(
            "fn f() {{}}\n{}\nmod tests {{\n    fn g() {{\n{}    }}\n}}\nfn h() {{\n{}}}\n",
            PAT_CFG_TEST,
            line_with(PAT_EXPECT),
            line_with(PAT_EXPECT)
        );
        let findings = scan_source("crates/sql/src/parse.rs", &src);
        assert_eq!(
            findings.len(),
            1,
            "only the post-tests finding: {findings:?}"
        );
        assert_eq!(findings[0].line, 9);
    }

    #[test]
    fn comments_do_not_count() {
        let src = format!("// call {} here\nfn f() {{}}\n", PAT_UNWRAP);
        assert!(scan_source("crates/sql/src/parse.rs", &src).is_empty());
    }

    #[test]
    fn wall_clock_is_engine_crates_only() {
        let src = format!("fn f() {{\n    let t = {}();\n}}\n", PAT_INSTANT);
        assert_eq!(scan_source("crates/vm/src/exec.rs", &src).len(), 1);
        assert!(scan_source("crates/bench/src/lib.rs", &src).is_empty());
        assert!(scan_source("crates/server/src/lib.rs", &src).is_empty());
    }

    #[test]
    fn unbounded_condvar_wait_is_flagged_but_timeouts_are_not() {
        let bounded = format!("    let r = cv.{}(g, d);\n", PAT_WAIT_TIMEOUT);
        let unbounded = format!("    let g = cv{}g);\n", PAT_WAIT);
        let src = format!("fn f() {{\n{bounded}{unbounded}}}\n");
        let findings = scan_source("crates/par/src/pool.rs", &src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::CondvarWait);
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn allow_attrs_need_a_justification_comment() {
        let bare = format!("{}clippy::foo)]\nfn f() {{}}\n", PAT_ALLOW);
        let findings = scan_source("crates/plan/src/a.rs", &bare);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::AllowAttr);

        let above = format!(
            "// the planner owns this\n{}clippy::foo)]\nfn f() {{}}\n",
            PAT_ALLOW
        );
        assert!(scan_source("crates/plan/src/a.rs", &above).is_empty());

        let inline = format!(
            "{}clippy::foo)] // measured, fine\nfn f() {{}}\n",
            PAT_ALLOW
        );
        assert!(scan_source("crates/plan/src/a.rs", &inline).is_empty());

        // Doc comments document the item, not the suppression.
        let doc_only = format!(
            "/// Frobnicates.\n{}clippy::foo)]\nfn f() {{}}\n",
            PAT_ALLOW
        );
        assert_eq!(scan_source("crates/plan/src/a.rs", &doc_only).len(), 1);
    }

    #[test]
    fn crate_roots_must_forbid_unsafe() {
        assert!(check_crate_root("crates/x/src/lib.rs", "pub fn f() {}\n").is_some());
        let good = format!("//! docs\n{PAT_FORBID_UNSAFE}\npub fn f() {{}}\n");
        assert!(check_crate_root("crates/x/src/lib.rs", &good).is_none());
    }

    fn entry(rule: Rule, path: &str, max: usize) -> AllowEntry {
        AllowEntry {
            rule,
            path: path.to_string(),
            max,
            reason: "test".to_string(),
        }
    }

    fn finding(rule: Rule, path: &str, line: usize) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            excerpt: "x".to_string(),
        }
    }

    #[test]
    fn allowlist_budgets_ratchet_both_ways() {
        let entries = vec![
            entry(Rule::UnwrapExpect, "crates/a/src/x.rs", 1),
            entry(Rule::UnwrapExpect, "crates/a/src/y.rs", 2),
            entry(Rule::WallClock, "crates/a/src/w.rs", 3),
        ];
        let findings = vec![
            finding(Rule::UnwrapExpect, "crates/a/src/x.rs", 1),
            finding(Rule::UnwrapExpect, "crates/a/src/x.rs", 9), // over budget
            finding(Rule::UnwrapExpect, "crates/a/src/z.rs", 3), // unlisted
            finding(Rule::WallClock, "crates/a/src/w.rs", 4),
            finding(Rule::WallClock, "crates/a/src/w.rs", 8), // 2 of 3: slack
        ];
        let report = apply_allowlist(&findings, &entries);
        assert_eq!(report.suppressed, 3);
        assert_eq!(report.violations.len(), 4, "{report}");
        assert!(report.violations[2].starts_with("stale allowlist entry"));
        assert!(report.violations[2].contains("y.rs (max 2) matched nothing"));
        assert!(report.violations[3].starts_with("slack allowlist entry"));
        assert!(report.violations[3].contains("w.rs has max 3 but matched 2"));
        assert!(!report.is_clean());

        // Exact budgets, every one used to the last finding, are clean.
        let exact = apply_allowlist(&findings[..1], &entries[..1]);
        assert!(exact.is_clean(), "{exact}");
    }

    #[test]
    fn allowlist_parser_round_trips_the_real_grammar() {
        let text = r#"
# workspace allowlist
[[allow]]
rule = "unwrap-expect"
path = "crates/a/src/x.rs"
max = 3
reason = "invariant documented at the call sites"

[[allow]]
rule = "wall-clock"
path = "crates/vm/src/exec.rs"
max = 5
reason = "phase timing instrumentation"
"#;
        let entries = parse_allowlist(text).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].rule, Rule::UnwrapExpect);
        assert_eq!(entries[0].max, 3);
        assert_eq!(entries[1].rule, Rule::WallClock);
    }

    #[test]
    fn allowlist_parser_rejects_rot() {
        // Missing reason.
        let text = "[[allow]]\nrule = \"unwrap-expect\"\npath = \"a\"\nmax = 1\n";
        assert!(parse_allowlist(text).is_err());
        // Zero budget.
        let text = "[[allow]]\nrule = \"unwrap-expect\"\npath = \"a\"\nmax = 0\nreason = \"x\"\n";
        assert!(parse_allowlist(text).is_err());
        // Unknown rule.
        let text = "[[allow]]\nrule = \"nope\"\npath = \"a\"\nmax = 1\nreason = \"x\"\n";
        assert!(parse_allowlist(text).is_err());
        // Non-allowlistable rule.
        let text = "[[allow]]\nrule = \"condvar-wait\"\npath = \"a\"\nmax = 1\nreason = \"x\"\n";
        assert!(parse_allowlist(text).is_err());
        // Key outside a table.
        assert!(parse_allowlist("rule = \"unwrap-expect\"\n").is_err());
    }
}
