//! The workload's statement stream, replayed in-process against a
//! [`Server`] with a span around each public call.

use std::time::{Duration, Instant};

use hique_benchmark::gen::{Kind, Statement, Stream, Workload};
use hique_plan::{plan_query, shape_class_and_consts, CatalogProvider, PlannerConfig};
use hique_server::{Engine, Server};
use hique_types::ExecStats;
use hique_vm::CompileMode;

use crate::spans::{Recorder, Span};

/// No pass replays more statements than this, however fast they are: the
/// medians are settled long before, and the span file stays a few MB.
const MAX_STATEMENTS: usize = 4_000;

/// One statement through `Session::execute_on`.
pub struct ExecSample {
    pub class: &'static str,
    pub engine: &'static str,
    pub secs: f64,
    /// staging, join, aggregation, output — from `QueryResult.timings`.
    pub phases: [f64; 4],
    pub stats: ExecStats,
}

pub struct Replay {
    pub samples: Vec<ExecSample>,
    pub spans: Vec<Span>,
    /// Statements per second, summed over sessions.
    pub qps: f64,
}

fn engine(name: &str) -> Result<Engine, String> {
    Engine::parse(name).map_err(|e| e.to_string())
}

fn check_rows(statement: &Statement, rows: usize) -> Result<(), String> {
    match statement.rows_by_spec {
        Some(n) if n != rows => Err(format!("{rows} rows, the spec says {n}: {}", statement.sql)),
        _ => Ok(()),
    }
}

/// One session's closed loop: each engine of `engines` for an equal share
/// of `time`.
fn replay_session(
    server: &Server,
    engines: &[&'static str],
    stream: &mut Stream,
    time: Duration,
    recorder: &mut Recorder,
) -> Result<(Vec<ExecSample>, f64), String> {
    let mut session = server.session();
    let mut samples = Vec::new();
    let begin = Instant::now();
    for &name in engines {
        let on = engine(name)?;
        let segment = Instant::now();
        let mut sent = 0;
        while segment.elapsed() < time / engines.len() as u32
            && sent < MAX_STATEMENTS / engines.len()
        {
            sent += 1;
            let statement = stream.next_statement();
            let stmt = recorder.id();
            let root = recorder.open();
            let call = recorder.open();
            let result = session.execute_on(&statement.sql, on);
            let secs = recorder.close(call, "session.execute_on", root.id, stmt);
            let result = result.map_err(|e| format!("{e}: {}", statement.sql))?;
            check_rows(&statement, result.rows.len())?;
            let phase = |p: &str| result.timings.get(p).map_or(0.0, |d| d.as_secs_f64());
            samples.push(ExecSample {
                class: statement.class,
                engine: name,
                secs,
                phases: [
                    phase("staging"),
                    phase("join"),
                    phase("aggregation"),
                    phase("output"),
                ],
                stats: result.stats,
            });
            recorder.close(root, "statement", 0, stmt);
        }
    }
    let qps = samples.len() as f64 / begin.elapsed().as_secs_f64();
    Ok((samples, qps))
}

/// Replay one stream per entry of `specs`, each on its own thread, for
/// `time`.  Spans are kept when `traced` gives their epoch.
pub fn replay(
    server: &Server,
    specs: &[&[&'static str]],
    streams: &mut [Stream],
    time: Duration,
    traced: Option<Instant>,
) -> Result<Replay, String> {
    let sessions: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .zip(streams.iter_mut())
            .enumerate()
            .map(|(i, (engines, stream))| {
                scope.spawn(move || {
                    let epoch = traced.unwrap_or_else(Instant::now);
                    let mut recorder = Recorder::new(epoch, i as u64 + 1, traced.is_some());
                    replay_session(server, engines, stream, time, &mut recorder)
                        .map(|(samples, qps)| (samples, qps, recorder.spans))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut out = Replay {
        samples: Vec::new(),
        spans: Vec::new(),
        qps: 0.0,
    };
    for session in sessions {
        let (samples, qps, spans) = session?;
        out.samples.extend(samples);
        out.spans.extend(spans);
        out.qps += qps;
    }
    Ok(out)
}

/// `Session::prepare` times in µs, by what the plan cache made of the call.
#[derive(Default)]
pub struct PrepareTimes {
    pub miss: Vec<f64>,
    pub template: Vec<f64>,
    pub exact: Vec<f64>,
}

/// Prepare (never execute) the stream's statements for `time`.  Each
/// statement is prepared twice: the first call is whatever the workload
/// makes it, the second is an `Exact` hit by construction — the lookup cost.
pub fn prepare_pass(
    server: &Server,
    stream: &mut Stream,
    time: Duration,
    recorder: &mut Recorder,
) -> Result<PrepareTimes, String> {
    let session = server.session();
    let mut times = PrepareTimes::default();
    let begin = Instant::now();
    for _ in 0..MAX_STATEMENTS {
        if begin.elapsed() >= time {
            break;
        }
        let statement = stream.next_statement();
        let stmt = recorder.id();
        for _ in 0..2 {
            let before = server.cache_stats();
            let call = recorder.open();
            let prepared = session.prepare(&statement.sql);
            let after = server.cache_stats();
            let (name, bucket) = if after.misses > before.misses {
                ("session.prepare.miss", &mut times.miss)
            } else if after.template_hits > before.template_hits {
                ("session.prepare.template", &mut times.template)
            } else {
                ("session.prepare.exact", &mut times.exact)
            };
            bucket.push(recorder.close(call, name, 0, stmt) * 1e6);
            prepared.map_err(|e| format!("{e}: {}", statement.sql))?;
        }
    }
    Ok(times)
}

/// Statements in the fixed prefix that exact counts are taken over: one
/// pass of the battery, or ten rounds of the ad-hoc forms.
fn prefix_len(kind: Kind) -> usize {
    match kind {
        Kind::Tpch => 3,
        Kind::AdhocCold | Kind::AdhocRebind => 60,
    }
}

fn prefix(w: &Workload, seed: u64) -> Vec<Statement> {
    let mut stream = Stream::new(w.kind, seed, 0);
    (0..prefix_len(w.kind))
        .map(|_| stream.next_statement())
        .collect()
}

/// Software counters summed over the stream's prefix on `engine_name`, or
/// `None` when no session of the workload uses that engine.  The prefix
/// runs twice on one session and the two sums must be identical.
pub fn count_pass(
    server: &Server,
    w: &Workload,
    seed: u64,
    engine_name: &str,
) -> Result<Option<ExecStats>, String> {
    if !w.sessions.iter().any(|s| s.contains(&engine_name)) {
        return Ok(None);
    }
    let on = engine(engine_name)?;
    let statements = prefix(w, seed);
    let mut session = server.session();
    let mut pass = || -> Result<ExecStats, String> {
        let mut sum = ExecStats::new();
        for statement in &statements {
            let result = session
                .execute_on(&statement.sql, on)
                .map_err(|e| format!("{e}: {}", statement.sql))?;
            check_rows(statement, result.rows.len())?;
            sum.merge(&result.stats);
        }
        // Pool traffic and residency depend on what ran before; the
        // counters of the work itself do not.
        sum.io = Default::default();
        sum.peak_resident_pages = 0;
        Ok(sum)
    };
    let (first, second) = (pass()?, pass()?);
    if first != second {
        return Err(format!(
            "{engine_name} counters differ between two runs of the same statements:\n{first:?}\n{second:?}"
        ));
    }
    Ok(Some(first))
}

/// The prepare path called stage by stage, as `Session::prepare` calls it
/// on a miss.
pub struct Stages {
    /// `(metric, samples in µs)` in call order.
    pub us: Vec<(&'static str, Vec<f64>)>,
    /// `VmProgram::verify_cost` of each compile (a part of `vm.compile`).
    pub verify_us: Vec<f64>,
    /// Bytecode length summed over the stream's fixed prefix.
    pub code_len: usize,
}

pub fn stage_probe(
    server: &Server,
    w: &Workload,
    seed: u64,
    time: Duration,
    recorder: &mut Recorder,
) -> Result<Stages, String> {
    const STAGES: [&str; 7] = [
        "plan.shape_us_p50",
        "sql.parse_us_p50",
        "sql.analyze_us_p50",
        "plan.plan_us_p50",
        "core.generate_us_p50",
        "vm.compile_us_p50",
        "vm.bind_us_p50",
    ];
    let catalog = server.catalog();
    // The planner configuration `Server::new` derives for its sessions.
    let planner = PlannerConfig::default()
        .with_threads(server.config().threads.max(1))
        .with_memory_budget_pages(catalog.buffer_pool().map_or(0, |p| p.capacity()));
    let mut stages = Stages {
        us: STAGES.iter().map(|&s| (s, Vec::new())).collect(),
        verify_us: Vec::new(),
        code_len: 0,
    };
    let mut stream = Stream::new(w.kind, seed, 0);
    let begin = Instant::now();
    let mut done = 0;
    while (begin.elapsed() < time && done < MAX_STATEMENTS) || done < prefix_len(w.kind) {
        let statement = stream.next_statement();
        let sql = statement.sql.as_str();
        let stmt = recorder.id();
        let root = recorder.open();
        let mut at = 0;
        // Times one stage under the statement's root span.
        macro_rules! stage {
            ($name:literal, $call:expr) => {{
                let open = recorder.open();
                let out = $call;
                stages.us[at]
                    .1
                    .push(recorder.close(open, $name, root.id, stmt) * 1e6);
                at += 1;
                out
            }};
        }
        let failed = |e: hique_types::HiqueError| format!("{e}: {sql}");
        stage!("plan.shape_class_and_consts", shape_class_and_consts(sql));
        let query = stage!("sql.parse_query", hique_sql::parse_query(sql)).map_err(failed)?;
        let bound = stage!(
            "sql.analyze",
            hique_sql::analyze(&query, &CatalogProvider::new(catalog))
        )
        .map_err(failed)?;
        let plan =
            stage!("plan.plan_query", plan_query(&bound, catalog, &planner)).map_err(failed)?;
        let generated = stage!("core.generate", hique_holistic::generate(&plan)).map_err(failed)?;
        let pooled = stage!(
            "vm.compile",
            hique_vm::compile(&generated, catalog, CompileMode::Pooled)
        )
        .map_err(failed)?;
        let program = stage!("vm.bind", pooled.bind(&generated, catalog)).map_err(failed)?;
        debug_assert_eq!(at, STAGES.len());
        recorder.close(root, "prepare.stages", 0, stmt);
        stages
            .verify_us
            .push(pooled.verify_cost().as_secs_f64() * 1e6);
        if done < prefix_len(w.kind) {
            stages.code_len += program.code_len();
        }
        done += 1;
    }
    Ok(stages)
}
