//! Self-tests that need the repo's crates: the generator's claims checked
//! with the server's own shape function, and a smoke run of every traced
//! pass at a tiny scale factor.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use hique_benchmark::gen::{Kind, Stream, Workload, REBIND_EXACT_PERCENT, TPCH};
use hique_plan::shape_class_and_consts;

use super::*;

#[test]
fn adhoc_cold_never_repeats_a_shape_class() {
    let mut stream = Stream::new(Kind::AdhocCold, 42, 0);
    let classes: HashSet<String> = (0..100_000)
        .map(|_| shape_class_and_consts(&stream.next_statement().sql).0)
        .collect();
    assert_eq!(classes.len(), 100_000);
    // A second session's aliases do not collide with the first's either.
    let mut other = Stream::new(Kind::AdhocCold, 42, 1);
    assert!((0..1000)
        .all(|_| !classes.contains(&shape_class_and_consts(&other.next_statement().sql).0)));
}

#[test]
fn adhoc_rebind_hits_its_template_exact_mix() {
    for seed in [1, 42, 20260925] {
        let mut stream = Stream::new(Kind::AdhocRebind, seed, 0);
        // The plan cache's rule: a class's latest constants win its entry.
        let mut cache: HashMap<String, Vec<String>> = HashMap::new();
        let (mut exact, mut template, mut miss) = (0u32, 0u32, 0u32);
        for i in 0..20_000 {
            let (class, consts) = shape_class_and_consts(&stream.next_statement().sql);
            match cache.insert(class, consts.clone()) {
                None => miss += 1,
                Some(_) if i < 100 => {} // warm-up
                Some(previous) if previous == consts => exact += 1,
                Some(_) => template += 1,
            }
        }
        assert_eq!(miss, 6, "one miss per form, all during warm-up");
        let exact_share = 100.0 * f64::from(exact) / f64::from(exact + template);
        assert!(
            (exact_share - REBIND_EXACT_PERCENT as f64).abs() <= 5.0,
            "seed {seed}: {exact_share:.1}% exact"
        );
    }
}

#[test]
fn tpch_battery_is_the_papers() {
    let squeeze = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
    let theirs = [
        hique_tpch::queries::Q1_SQL,
        hique_tpch::queries::Q3_SQL,
        hique_tpch::queries::Q10_SQL,
    ];
    for ((_, ours), theirs) in TPCH.iter().zip(theirs) {
        assert_eq!(squeeze(ours), squeeze(theirs));
    }
}

/// Every in-process pass against a tiny fixture: the pinned public surface
/// still compiles, runs, and produces samples where the workload says so.
#[test]
fn traced_passes_run_end_to_end_at_a_tiny_scale() {
    let w = Workload {
        name: "smoke",
        kind: Kind::AdhocRebind,
        sf: "0.002",
        budget_pages: "64",
        pool_thrashes: false,
        sessions: &[&["holistic", "vm"]],
    };
    // Removed on drop, so also when an assertion below fails.
    let scratch =
        Scratch(std::env::temp_dir().join(format!("hique-trace-test-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).unwrap();
    let mut m = Metrics::default();
    let (server, pages) = build_server(&w, &mut m).unwrap();
    let epoch = Instant::now();
    let mut recorder = Recorder::new(epoch, 0, true);
    let mut streams = vec![Stream::new(w.kind, 7, 0)];
    let brief = Duration::from_millis(100);

    let prepares = prepare_pass(&server, &mut streams[0], brief, &mut recorder).unwrap();
    assert_eq!(prepares.miss.len(), 6);
    assert!(!prepares.template.is_empty() && !prepares.exact.is_empty());

    let holistic = count_pass(&server, &w, 7, "holistic").unwrap().unwrap();
    let vm = count_pass(&server, &w, 7, "vm").unwrap().unwrap();
    assert!(holistic.tuples_processed > 0 && vm.tuples_processed > 0);
    assert!(vm.vm_batches > 0 && holistic.vm_batches == 0);
    assert!(count_pass(&server, &w, 7, "dsm").unwrap().is_none());

    let traced = replay(&server, w.sessions, &mut streams, brief, Some(epoch)).unwrap();
    assert_eq!(traced.spans.len(), 2 * traced.samples.len());
    assert!(traced.samples.iter().any(|s| s.engine == "holistic"));
    assert!(traced.samples.iter().any(|s| s.engine == "vm"));
    let untraced = replay(&server, w.sessions, &mut streams, brief, None).unwrap();
    assert!(untraced.spans.is_empty() && untraced.qps > 0.0);
    exec_metrics(&traced.samples, &mut m);
    assert!(m.get("session.execute_ms_p50") > 0.0);
    assert!(m.get("core.ns_per_tuple") > 0.0 && m.get("vm.ns_per_tuple") > 0.0);

    let stages = stage_probe(&server, &w, 7, brief, &mut recorder).unwrap();
    assert!(stages
        .us
        .iter()
        .all(|(_, samples)| samples.len() == stages.verify_us.len()));
    assert!(stages.code_len > 0);

    let probed = probe::pool_probe(&pages, &scratch.0).unwrap();
    assert!(probed.iter().all(|&(_, v)| v > 0.0));

    let jsonl = scratch.0.join("spans.jsonl");
    spans::write_jsonl(&recorder.spans, &jsonl).unwrap();
    let text = std::fs::read_to_string(&jsonl).unwrap();
    assert_eq!(text.lines().count(), recorder.spans.len());
    assert!(text
        .lines()
        .all(|l| hique_benchmark::json::parse(l).is_ok()));
}
