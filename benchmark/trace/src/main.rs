//! `hique-trace`: the traced run behind `--trace 1`.
//!
//! Spans are recorded here, around the calls into each crate's public
//! functions — nothing inside the program is instrumented.  One run:
//!
//! 1. a short window over real TCP (the `server::wire` layer), the same
//!    way the end-to-end run measures it;
//! 2. a `Server` built the way `hique-server`'s `main.rs` builds it, each
//!    step timed (`tpch`, `storage`, `server` set-up);
//! 3. the workload's statement stream replayed in-process, same seed:
//!    `Session::prepare` alone, then `Session::execute_on` traced, untraced
//!    and at the other session count;
//! 4. the prepare path called stage by stage (`plan`, `sql`, `core`, `vm`);
//! 5. `BufferPool::fetch`/`unpin` probed directly on a paged copy of
//!    `lineitem`.
//!
//! README.md lists the public surface this file pins.

#![forbid(unsafe_code)]

mod probe;
mod replay;
mod spans;
#[cfg(test)]
mod tests;

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hique_benchmark::gen::{workload, Kind, Stream, Workload};
use hique_benchmark::metrics::{known, Outcome, PER_LAYER};
use hique_benchmark::stats::percentile;
use hique_benchmark::tcp::{self, sibling_binary, RunConfig, Sample, Scratch};
use hique_server::{Server, ServerConfig};
use hique_types::ExecStats;

use replay::{count_pass, prepare_pass, replay, stage_probe, ExecSample};
use spans::Recorder;

/// Sum checks outside this range are reported as unexplained time.
const SUM_CHECK_OK: std::ops::RangeInclusive<f64> = 0.85..=1.15;

/// Per-layer metrics by name; a name missing from the benchmark's table is
/// a bug here, not a new metric.
#[derive(Default)]
struct Metrics(HashMap<&'static str, f64>);

impl Metrics {
    fn set(&mut self, name: &str, value: f64) {
        let (known, _) = known(name).unwrap_or_else(|| panic!("'{name}' is not a metric"));
        self.0.insert(known, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every per-layer metric in table order; 0 where the workload does not
    /// exercise the path.
    fn in_order(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|&(n, _, _)| (n, self.get(n)))
            .collect()
    }
}

fn p50(values: impl IntoIterator<Item = f64>) -> f64 {
    percentile(&values.into_iter().collect::<Vec<_>>(), 50.0)
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Step 2: what `hique-server`'s `build_server` does, each step timed.
/// Returns the first pages of `lineitem` too, copied before the catalog
/// goes behind the pool, for the pool probe.
fn build_server(
    w: &Workload,
    m: &mut Metrics,
) -> Result<(Server, Vec<hique_storage::Page>), String> {
    let sf: f64 = w.sf.parse().map_err(|e| format!("sf: {e}"))?;
    let budget: usize = w.budget_pages.parse().map_err(|e| format!("budget: {e}"))?;
    let t = Instant::now();
    let mut catalog = hique_tpch::generate_into_catalog(sf).map_err(|e| e.to_string())?;
    m.set("tpch.generate_s", t.elapsed().as_secs_f64());
    let lineitem = &catalog.table("lineitem").map_err(|e| e.to_string())?.heap;
    let pages: Vec<_> = lineitem.pages().take(probe::FILE_PAGES).cloned().collect();
    let t = Instant::now();
    catalog.spill_to_disk(budget).map_err(|e| e.to_string())?;
    m.set("storage.spill_to_disk_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let server = Server::new(
        catalog,
        ServerConfig {
            max_sessions: 8,
            threads: 1,
            memory_budget_pages: 0,
            plan_cache_capacity: 256,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    m.set("server.new_s", t.elapsed().as_secs_f64());
    Ok((server, pages))
}

/// `server::wire` metrics from the TCP window's samples.
fn wire_metrics(samples: &[Sample], m: &mut Metrics) {
    let ms: Vec<f64> = samples.iter().map(Sample::ms).collect();
    m.set("wire.stmt_ms_p50", percentile(&ms, 50.0));
    m.set("wire.stmt_ms_p95", percentile(&ms, 95.0));
    let bytes: usize = samples.iter().map(|s| s.reply_bytes).sum();
    m.set(
        "wire.reply_bytes_per_stmt",
        ratio(bytes as f64, samples.len() as f64),
    );
    for class in ["q1", "q3", "q10"] {
        for engine in ["holistic", "vm"] {
            let of_class = samples
                .iter()
                .filter(|s| s.class == class && s.engine == engine);
            m.set(
                &format!("wire.{class}_{engine}_ms_p50"),
                p50(of_class.map(Sample::ms)),
            );
        }
    }
}

/// Executor, storage and pipeline metrics from the traced replay's results.
fn exec_metrics(samples: &[ExecSample], m: &mut Metrics) {
    m.set(
        "session.execute_ms_p50",
        p50(samples.iter().map(|s| s.secs * 1e3)),
    );
    for (layer, engine) in [("core", "holistic"), ("vm", "vm")] {
        let of: Vec<&ExecSample> = samples.iter().filter(|s| s.engine == engine).collect();
        if of.is_empty() {
            continue;
        }
        let n = of.len() as f64;
        for (i, phase) in ["staging", "join", "agg", "output"].iter().enumerate() {
            let total: f64 = of.iter().map(|s| s.phases[i]).sum();
            m.set(&format!("{layer}.{phase}_ms"), total * 1e3 / n);
        }
        for class in ["q1", "q3", "q10"] {
            let of_class = of.iter().filter(|s| s.class == class);
            m.set(
                &format!("{layer}.{class}_exec_ms"),
                p50(of_class.map(|s| s.secs * 1e3)),
            );
        }
        let secs: f64 = of.iter().map(|s| s.secs).sum();
        let tuples: u64 = of.iter().map(|s| s.stats.tuples_processed).sum();
        let bytes: u64 = of.iter().map(|s| s.stats.bytes_touched).sum();
        m.set(
            &format!("{layer}.ns_per_tuple"),
            ratio(secs * 1e9, tuples as f64),
        );
        m.set(
            &format!("{layer}.mb_per_s"),
            ratio(bytes as f64 / 1e6, secs),
        );
    }
    let phases: f64 = samples.iter().map(|s| s.phases.iter().sum::<f64>()).sum();
    let secs: f64 = samples.iter().map(|s| s.secs).sum();
    m.set("exec.sum_check", ratio(phases, secs));

    let n = samples.len() as f64;
    type Counter = fn(&ExecStats) -> u64;
    let total = |f: Counter| samples.iter().map(|s| f(&s.stats)).sum::<u64>() as f64;
    let hits = total(|s| s.io.pool_hits);
    m.set(
        "storage.pool_hit_share",
        ratio(hits, hits + total(|s| s.io.pool_misses)),
    );
    let per_stmt: [(&str, Counter); 4] = [
        ("storage.evictions_per_stmt", |s| s.io.pool_evictions),
        ("storage.pages_read_per_stmt", |s| s.io.pages_read),
        ("storage.pages_written_per_stmt", |s| s.io.pages_written),
        ("pipeline.spilled_temporaries_per_stmt", |s| {
            s.spilled_temporaries
        }),
    ];
    for (name, counter) in per_stmt {
        m.set(name, total(counter) / n);
    }
    let peak = samples.iter().map(|s| s.stats.peak_resident_pages).max();
    m.set("storage.peak_resident_pages", peak.unwrap_or(0) as f64);
    m.set(
        "pipeline.spill_claim_denied",
        total(|s| s.spill_claim_denied),
    );
}

fn run(w: &'static Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let scratch = Scratch::create()?;
    // Paged tables and spill files of the in-process server stay inside the
    // checkout too.  No other thread exists yet.
    std::env::set_var("TMPDIR", &scratch.0);
    let slice = |share: f64| Duration::from_secs_f64(seconds * share);
    let mut m = Metrics::default();
    let mut notes = Vec::new();

    // 1. The wire layer: the real binary over TCP.
    let wire = tcp::run(&RunConfig {
        workload: w,
        seed,
        seconds: seconds * 0.3,
        setups: 1,
        server_bin: sibling_binary("hique-server")?,
        tmp: scratch.0.clone(),
    })?;
    wire_metrics(&wire.samples, &mut m);
    m.set("server.cpu_ms_per_stmt", wire.server_cpu_ms_per_stmt);
    let epoch = wire.epoch;
    let mut recorder = Recorder::new(epoch, 0, true);
    recorder.import_wire(&wire.samples);

    // 2. The same server in-process.
    let (server, lineitem_pages) = build_server(w, &mut m)?;
    let specs = w.sessions;
    let mut streams: Vec<Stream> = (0..specs.len())
        .map(|i| Stream::new(w.kind, seed, i))
        .collect();

    // 3a. `Session::prepare` alone on the fresh cache: misses first, then
    // whatever the workload's stream makes of the cache.
    let prepares = prepare_pass(&server, &mut streams[0], slice(0.06), &mut recorder)?;
    m.set(
        "session.prepare_miss_us_p50",
        p50(prepares.miss.iter().copied()),
    );
    m.set(
        "session.prepare_template_us_p50",
        p50(prepares.template.iter().copied()),
    );
    m.set("cache.lookup_us_p50", p50(prepares.exact.iter().copied()));

    // 3b. Exact counts over a fixed prefix of the stream, run twice: they
    // must repeat bit for bit.  Doubles as the pool's warm-up.
    for (layer, engine) in [("core", "holistic"), ("vm", "vm")] {
        if let Some(c) = count_pass(&server, w, seed, engine)? {
            for (name, count) in [
                ("tuples_processed", c.tuples_processed),
                ("bytes_materialized", c.bytes_materialized),
                ("comparisons", c.comparisons),
                ("hash_ops", c.hash_ops),
                ("function_calls", c.function_calls),
            ] {
                m.set(&format!("{layer}.{name}"), count as f64);
            }
            if engine == "vm" {
                m.set("vm.batches", c.vm_batches as f64);
                m.set("vm.fused_ops", c.vm_fused_ops as f64);
            }
        }
    }

    // 3c. The stream through `Session::execute_on`: traced, untraced, and
    // at the other session count (1 <-> 2) for the scaling ratio.
    let cache_before = server.cache_stats();
    let traced = replay(&server, specs, &mut streams, slice(0.2), Some(epoch))?;
    let cache = server.cache_stats();
    let lookups = (cache.hits + cache.misses - cache_before.hits - cache_before.misses) as f64;
    let template = (cache.template_hits - cache_before.template_hits) as f64;
    let misses = (cache.misses - cache_before.misses) as f64;
    m.set(
        "cache.exact_share",
        ratio(lookups - template - misses, lookups),
    );
    m.set("cache.template_share", ratio(template, lookups));
    m.set("cache.miss_share", ratio(misses, lookups));
    exec_metrics(&traced.samples, &mut m);

    let untraced = replay(&server, specs, &mut streams, slice(0.12), None)?;
    m.set("trace.overhead_share", untraced.qps / traced.qps - 1.0);
    let (one, two) = if specs.len() == 1 {
        streams.push(Stream::new(w.kind, seed, 1));
        let two = replay(
            &server,
            &[specs[0], specs[0]],
            &mut streams,
            slice(0.12),
            None,
        )?;
        (untraced.qps, two.qps)
    } else {
        let mut alone = 0.0;
        for (i, spec) in specs.iter().enumerate() {
            let solo = replay(
                &server,
                &[spec],
                &mut streams[i..=i],
                slice(0.12) / specs.len() as u32,
                None,
            )?;
            alone += solo.qps / specs.len() as f64;
        }
        (alone, untraced.qps)
    };
    m.set("server.scaling_2s", ratio(two, one));
    m.set(
        "wire.overhead_ms_p50",
        m.get("wire.stmt_ms_p50") - m.get("session.execute_ms_p50"),
    );

    // 4. The prepare path, stage by stage.
    let stages = stage_probe(&server, w, seed, slice(0.06), &mut recorder)?;
    let mut stage_sum = 0.0;
    for (name, samples) in &stages.us {
        let median = p50(samples.iter().copied());
        m.set(name, median);
        stage_sum += median;
    }
    m.set("vm.verify_us_p50", p50(stages.verify_us.iter().copied()));
    m.set("vm.code_len", stages.code_len as f64);
    m.set(
        "prepare.sum_check",
        ratio(stage_sum, m.get("session.prepare_miss_us_p50")),
    );

    // 5. The pool, directly.
    for (name, value) in probe::pool_probe(&lineitem_pages, &scratch.0)? {
        m.set(name, value);
    }

    recorder.spans.extend(traced.spans);
    m.set("trace.spans", recorder.spans.len() as f64);
    // Beside the scratch directory, in `benchmark/out/`.
    let out = scratch.0.with_file_name(format!("trace.{}.jsonl", w.name));
    spans::write_jsonl(&recorder.spans, &out)?;

    // Each workload asserts the mechanism it exists to exercise.
    let mut correct = wire.outcome.correct;
    notes.extend(wire.outcome.notes);
    let mut require = |ok: bool, what: String| {
        if !ok {
            correct = false;
            notes.push(what);
        }
    };
    let miss_share = m.get("cache.miss_share");
    match w.kind {
        Kind::AdhocCold => require(
            miss_share == 1.0,
            format!("cache.miss_share {miss_share}, expected 1"),
        ),
        _ => require(
            miss_share == 0.0,
            format!("cache.miss_share {miss_share}, expected 0"),
        ),
    }
    if w.pool_thrashes {
        let evictions = m.get("storage.evictions_per_stmt");
        require(
            evictions > 0.0,
            "no evictions although the pool is too small".into(),
        );
    } else {
        let share = m.get("storage.pool_hit_share");
        require(
            share >= 0.99,
            format!("storage.pool_hit_share {share} although the working set fits the pool"),
        );
    }
    // Sum checks are reported, not enforced: time the stages do not explain
    // is a finding.  They mean something only where the path dominates: a
    // stream of misses (not the battery's three cold first calls), and
    // statements whose execution dwarfs their cache lookup.
    let checks = [
        ("prepare.sum_check", prepares.miss.len() >= 30),
        ("exec.sum_check", w.kind == Kind::Tpch),
    ];
    for (name, applies) in checks {
        if applies && !SUM_CHECK_OK.contains(&m.get(name)) {
            notes.push(format!(
                "{name} {:.3} is outside 0.85-1.15: unexplained time",
                m.get(name)
            ));
        }
    }

    let in_process = traced.samples.len() as u64 + untraced.samples.len() as u64;
    Ok(Outcome {
        correct,
        attempted: wire.outcome.attempted + in_process,
        failed: wire.outcome.failed,
        metrics: m.in_order(),
        notes,
    })
}

fn parse_args() -> Result<(&'static Workload, u64, f64), String> {
    let mut name = None;
    let (mut seed, mut seconds) = (42, hique_benchmark::FULL_SECONDS);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let w = workload(&name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    Ok((w, seed, seconds))
}

fn main() -> ExitCode {
    match parse_args().and_then(|(w, seed, seconds)| run(w, seed, seconds)) {
        Ok(outcome) => outcome.report("hique-trace"),
        Err(e) => {
            eprintln!("hique-trace: {e}");
            ExitCode::FAILURE
        }
    }
}
