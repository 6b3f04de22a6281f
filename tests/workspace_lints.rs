//! The workspace invariants are lints in the root manifest's
//! `[workspace.lints]` tables (DESIGN.md, "Workspace lints").  A crate only
//! gets them by opting in with `[lints] workspace = true`, so these tests
//! read the manifests and fail when a member does not — a new crate cannot
//! skip the rules by omission.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "panics fail tests")]

use std::path::Path;

fn manifest(dir: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(dir)
        .join("Cargo.toml");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The body of the `[name]` table: the trimmed lines after its header, up
/// to the next table header.
fn table<'a>(manifest: &'a str, name: &str) -> Vec<&'a str> {
    let header = format!("[{name}]");
    let mut lines = manifest.lines().map(str::trim);
    let found = lines.any(|l| l == header);
    lines.take_while(|l| found && !l.starts_with('[')).collect()
}

/// The value of `key = value` in a table body, quotes stripped.
fn value<'a>(body: &[&'a str], key: &str) -> Option<&'a str> {
    body.iter().find_map(|l| {
        let (k, v) = l.split_once('=')?;
        (k.trim() == key).then(|| v.trim().trim_matches('"'))
    })
}

#[test]
fn every_workspace_member_opts_into_the_workspace_lints() {
    let root = manifest(".");
    // The members array, one quoted path per line.
    let mut members: Vec<&str> = table(&root, "workspace")
        .into_iter()
        .skip_while(|l| !l.starts_with("members"))
        .skip(1)
        .take_while(|l| !l.starts_with(']'))
        .filter_map(|l| l.split('"').nth(1))
        .collect();
    assert!(members.len() > 10, "members list not found: {members:?}");
    members.push(".");
    let skipping: Vec<&str> = members
        .into_iter()
        .filter(|m| value(&table(&manifest(m), "lints"), "workspace") != Some("true"))
        .collect();
    assert!(
        skipping.is_empty(),
        "members without `[lints] workspace = true`: {skipping:?}"
    );
}

#[test]
fn the_workspace_lint_tables_carry_the_invariants() {
    let root = manifest(".");
    let rust = table(&root, "workspace.lints.rust");
    assert_eq!(value(&rust, "unsafe_code"), Some("forbid"));
    let clippy = table(&root, "workspace.lints.clippy");
    for lint in [
        "unwrap_used",
        "expect_used",
        "disallowed_methods",
        "allow_attributes_without_reason",
    ] {
        assert_eq!(value(&clippy, lint), Some("deny"), "clippy::{lint}");
    }
}
