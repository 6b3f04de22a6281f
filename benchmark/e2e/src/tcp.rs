//! One closed-loop run of one workload against the real server binary.
//!
//! spawn server → `listening` (`setup_s`) → first reply → reference answers → warm-up →
//! measured window → `/proc` → stop.  Each session is one thread with one
//! connection that sends its next statement when the previous reply's
//! terminator arrives — analytic clients wait for answers.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::gen::{reference_statements, Kind, Statement, Stream, Workload};
use crate::metrics::Outcome;
use crate::proc::ServerProc;
use crate::stats::{median, percentile};
use crate::wire::{same_answer, Client, Reply};

/// Engine the reference answers come from: the differential harness's
/// independent baseline, never an engine under test.
const REFERENCE_ENGINE: &str = "iter-generic";

/// A window with fewer samples per second of its nominal length than this
/// has too few for its 95th percentile (200 in the 20 s window
/// `BENCHMARK.json` sets).  A window that is short of them when its time is
/// up goes on until it has them, for at most [`MAX_STRETCH`] times its
/// length: a shared host has slow minutes, and a run that lands in one is a
/// slow sample, not a wrong one.
const MIN_SAMPLES_PER_SECOND: f64 = 10.0;
const MAX_STRETCH: u32 = 2;

pub struct RunConfig<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// How many times to set the server up; `setup_s` is their median and
    /// the last one serves the run.
    pub setups: usize,
    pub server_bin: PathBuf,
    /// `TMPDIR` for the server.
    pub tmp: PathBuf,
}

/// One statement's round trip as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub session: usize,
    pub class: &'static str,
    pub engine: &'static str,
    /// Request line written, relative to the start of the run.
    pub start: Duration,
    /// Reply terminator read.
    pub end: Duration,
    pub reply_bytes: usize,
    pub ok: bool,
}

impl Sample {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

pub struct TcpRun {
    /// End-to-end metrics, verdict and counts.
    pub outcome: Outcome,
    /// Every statement of the measured window.
    pub samples: Vec<Sample>,
    /// The instant the samples' `start` and `end` count from.
    pub epoch: Instant,
    /// CPU time of the server process over the window (all threads) per
    /// statement attempted, in ms.  Not an end-to-end metric: at ~22 wake-ups
    /// a second it follows the machine's mood more than the server's work
    /// (README.md, "Where this departs"), so the traced run reports it.
    pub server_cpu_ms_per_stmt: f64,
}

struct SessionRun {
    samples: Vec<Sample>,
    /// Time spent in the closed loop, `.engine` switches excluded.
    busy: Duration,
    stream: Stream,
    client: Client,
    error: Option<String>,
}

/// What every session thread of a run shares.
struct Load<'a> {
    workload: &'a Workload,
    references: &'a HashMap<String, Reply>,
    epoch: Instant,
}

impl Load<'_> {
    fn check(&self, statement: &Statement, reply: &Reply) -> bool {
        reply.is_ok()
            && self
                .references
                .get(&statement.reference)
                .is_some_and(|want| same_answer(want, reply))
            && statement
                .rows_by_spec
                .is_none_or(|n| reply.rows().len() == n)
    }

    /// One session's closed loop: each of its engines for an equal share of
    /// `time`, and on until it has sent `min_statements` or `give_up` times
    /// that share has passed.
    fn session(
        &self,
        session: usize,
        mut client: Client,
        mut stream: Stream,
        time: Duration,
        min_statements: usize,
        give_up: u32,
    ) -> SessionRun {
        let engines = self.workload.sessions[session];
        let mut samples = Vec::new();
        let mut busy = Duration::ZERO;
        let mut error = None;
        'segments: for &engine in engines {
            match client.request(&format!(".engine {engine}")) {
                Ok(reply) if reply.is_ok() => {}
                Ok(reply) => {
                    error = Some(format!(".engine {engine}: {}", reply.status));
                    break;
                }
                Err(e) => {
                    error = Some(format!(".engine {engine}: {e}"));
                    break;
                }
            }
            let begin = Instant::now();
            let share = time / engines.len() as u32;
            let mut sent = 0;
            while begin.elapsed() < share
                || (sent < min_statements && begin.elapsed() < share.saturating_mul(give_up))
            {
                let statement = stream.next_statement();
                let start = self.epoch.elapsed();
                let reply = client.request(&statement.sql);
                let end = self.epoch.elapsed();
                sent += 1;
                let (ok, reply_bytes) = match &reply {
                    Ok(reply) => (self.check(&statement, reply), reply.bytes),
                    Err(_) => (false, 0),
                };
                samples.push(Sample {
                    session,
                    class: statement.class,
                    engine,
                    start,
                    end,
                    reply_bytes,
                    ok,
                });
                if !ok && error.is_none() {
                    error = Some(match &reply {
                        Ok(reply) => {
                            format!("wrong answer '{}' to: {}", reply.status, statement.sql)
                        }
                        Err(e) => format!("no reply ({e}) to: {}", statement.sql),
                    });
                }
                if reply.is_err() {
                    // Timed out or disconnected: the connection's framing
                    // is gone, so this session cannot go on.
                    busy += begin.elapsed();
                    break 'segments;
                }
            }
            busy += begin.elapsed();
        }
        SessionRun {
            samples,
            busy,
            stream,
            client,
            error,
        }
    }

    /// Run every session at once, one thread and one connection each.
    fn run(
        &self,
        sessions: Vec<(Client, Stream)>,
        time: Duration,
        min_statements: usize,
        give_up: u32,
    ) -> Vec<SessionRun> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = sessions
                .into_iter()
                .enumerate()
                .map(|(i, (client, stream))| {
                    scope.spawn(move || {
                        self.session(i, client, stream, time, min_statements, give_up)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("session thread panicked"))
                .collect()
        })
    }
}

fn stat(client: &mut Client, key: &str) -> Result<u64, String> {
    let reply = client
        .request(".stats")
        .map_err(|e| format!(".stats: {e}"))?;
    reply
        .lines
        .iter()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!(".stats has no {key}"))
}

/// Spawn the server and see one statement through.  The clock stops at the
/// server's `listening` line: fixture generation, `spill_to_disk`, the DSM
/// decomposition and the bind are behind it.  The first reply is required
/// but not timed — `serve` polls a non-blocking listener every 100 ms, so a
/// first connection waits 0 or 100 ms for its accept depending on which
/// thread of the server the scheduler ran first.
fn set_up(config: &RunConfig) -> Result<(ServerProc, Client, f64), String> {
    let begin = Instant::now();
    let server = ServerProc::spawn(
        &config.server_bin,
        &config.workload.server_flags(),
        &config.tmp,
    )?;
    let seconds = begin.elapsed().as_secs_f64();
    let mut client = Client::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let first = client
        .request("select r_name from region")
        .map_err(|e| format!("first statement: {e}"))?;
    if first.status != "OK 5 1" {
        return Err(format!("first statement: {}", first.status));
    }
    Ok((server, client, seconds))
}

pub fn run(config: &RunConfig) -> Result<TcpRun, String> {
    let workload = config.workload;
    let mut setup_s = Vec::new();
    let (server, mut control) = loop {
        let (server, client, seconds) = set_up(config)?;
        setup_s.push(seconds);
        if setup_s.len() >= config.setups.max(1) {
            break (server, client);
        }
        drop(client);
        server.stop()?;
    };

    // Reference answers, once, on the control connection.
    let switched = control
        .request(&format!(".engine {REFERENCE_ENGINE}"))
        .map_err(|e| format!("reference engine: {e}"))?;
    if !switched.is_ok() {
        return Err(format!("reference engine: {}", switched.status));
    }
    let mut references = HashMap::new();
    for sql in reference_statements(workload.kind) {
        let reply = control
            .request(&sql)
            .map_err(|e| format!("reference: {e}"))?;
        if !reply.is_ok() {
            return Err(format!("reference answer {} for: {sql}", reply.status));
        }
        references.insert(sql, reply);
    }

    let mut sessions = Vec::new();
    for i in 0..workload.sessions.len() {
        let client = Client::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
        sessions.push((client, Stream::new(workload.kind, config.seed, i)));
    }
    let load = Load {
        workload,
        references: &references,
        epoch: Instant::now(),
    };
    let window = Duration::from_secs_f64(config.seconds);

    // Warm-up: fills the plan cache and the pool.  Six statements per
    // engine see every ad-hoc form and two passes of the battery, however
    // long they take.
    let warm_up = (window * 3 / 20).min(Duration::from_secs(3));
    let warmed = load.run(sessions, warm_up, 6, u32::MAX);
    if let Some(e) = warmed.iter().find_map(|s| s.error.as_ref()) {
        return Err(format!("warm-up: {e}"));
    }
    let sessions = warmed.into_iter().map(|s| (s.client, s.stream)).collect();

    let misses_before = stat(&mut control, "cache_misses")?;
    let cpu_before = server.cpu_ns()?;
    // The sample floor, split evenly over the engine segments of the window.
    let wanted = (MIN_SAMPLES_PER_SECOND * config.seconds).ceil() as u64;
    let segments: usize = workload.sessions.iter().map(|engines| engines.len()).sum();
    let per_segment = wanted.div_ceil(segments as u64) as usize;
    let measured = load.run(sessions, window, per_segment, MAX_STRETCH);
    let cpu_ns = server.cpu_ns()? - cpu_before;
    let rss_mib = server.rss_hwm_mib()?;
    let misses = stat(&mut control, "cache_misses")? - misses_before;

    let mut notes = Vec::new();
    let mut qps = 0.0;
    let mut samples = Vec::new();
    for session in measured {
        let correct = session.samples.iter().filter(|s| s.ok).count();
        qps += correct as f64 / session.busy.as_secs_f64();
        samples.extend(session.samples);
        notes.extend(session.error);
        drop(session.client);
    }
    drop(control);
    server.stop()?;

    let attempted = samples.len() as u64;
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    let mut correct = failed == 0;
    // Each workload asserts the cache behaviour it exists to produce.
    let expected_misses = if workload.kind == Kind::AdhocCold {
        attempted
    } else {
        0
    };
    if misses != expected_misses {
        correct = false;
        notes.push(format!(
            "{}: {misses} plan-cache misses in the window, expected {expected_misses}",
            workload.name
        ));
    }
    if attempted < wanted {
        correct = false;
        notes.push(format!(
            "{attempted} samples in {MAX_STRETCH} x the window, need {wanted}"
        ));
    }

    let ms: Vec<f64> = samples.iter().map(Sample::ms).collect();
    let outcome = Outcome {
        correct,
        attempted: attempted.max(1),
        failed,
        metrics: vec![
            ("setup_s", median(&setup_s)),
            ("qps", qps),
            ("stmt_ms_p50", percentile(&ms, 50.0)),
            ("stmt_ms_p95", percentile(&ms, 95.0)),
            ("server_rss_mb", rss_mib),
        ],
        notes,
    };
    Ok(TcpRun {
        outcome,
        samples,
        epoch: load.epoch,
        server_cpu_ms_per_stmt: cpu_ns as f64 / 1e6 / attempted.max(1) as f64,
    })
}

/// `hique-server` and `hique-trace` are built into the directory the
/// benchmark's own binary runs from.
pub fn sibling_binary(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = me.parent().unwrap_or(Path::new(".")).join(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found; build with benchmark/run.sh",
            path.display()
        ))
    }
}

/// A scratch directory under `benchmark/out/`, removed on drop, that the
/// server and the trace use as `TMPDIR`.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn create() -> Result<Scratch, String> {
        let out = std::env::current_dir()
            .map_err(|e| format!("cwd: {e}"))?
            .join("benchmark/out");
        let dir = out.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WORKLOADS;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// How many statements one session sends in a 30 ms window against a
    /// listener that takes 10 ms over every reply.
    fn sent(min_statements: usize, give_up: u32) -> usize {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            for _line in BufReader::new(stream).lines() {
                std::thread::sleep(Duration::from_millis(10));
                writer.write_all(b"OK\n.\n").unwrap();
            }
        });
        let workload = &WORKLOADS[2];
        let load = Load {
            workload,
            references: &HashMap::new(),
            epoch: Instant::now(),
        };
        let sessions = vec![(
            Client::connect(addr).unwrap(),
            Stream::new(workload.kind, 1, 0),
        )];
        let window = Duration::from_millis(30);
        // The session's connection closes with the temporary, which ends
        // the listener's loop.
        let samples = load
            .run(sessions, window, min_statements, give_up)
            .remove(0)
            .samples
            .len();
        server.join().unwrap();
        samples
    }

    #[test]
    fn a_window_short_of_its_floor_goes_on_until_it_gives_up() {
        // 12 statements take 120 ms: past the window, so exactly the floor.
        assert_eq!(sent(12, u32::MAX), 12);
        // Twice the window is 60 ms: at most 7 replies fit.
        let gave_up = sent(12, 2);
        assert!((1..=7).contains(&gave_up), "{gave_up}");
        // A floor already met does not lengthen the window.
        assert!(sent(1, 2) <= 4);
    }
}
