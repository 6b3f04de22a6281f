//! `hique-benchmark`: the benchmark's one command (reached via `run.sh`).
//!
//! ```text
//! hique-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one result line
//! hique-benchmark [--seed N] [--quick] [--repeat K] [--out FILE]  every workload + traced run
//! hique-benchmark compare BASE.json OTHER.json                    judge OTHER against BASE
//! ```

#![forbid(unsafe_code)]

use std::process::{Command, ExitCode, Stdio};

use hique_benchmark::gen::{workload, Workload, WORKLOADS};
use hique_benchmark::json::{self, Value};
use hique_benchmark::metrics::Outcome;
use hique_benchmark::report::{compare, Report, Verdict};
use hique_benchmark::tcp::{self, sibling_binary, RunConfig, Scratch};
use hique_benchmark::{FULL_SECONDS, QUICK_SECONDS};

/// `setup_s` is the median of this many server set-ups per run.
const SETUPS: usize = 3;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    repeat: usize,
    out: Option<String>,
    commit: String,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        repeat: 1,
        commit: "unknown".into(),
        ..Args::default()
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        let number = |v: String| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = Some(number(value()?)?),
            "--trace" => args.trace = number(value()?)? != 0.0,
            "--repeat" => args.repeat = (number(value()?)? as usize).max(1),
            "--out" => args.out = Some(value()?),
            "--commit" => args.commit = value()?,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown flag '{other}' (see benchmark/README.md)")),
        }
    }
    Ok(args)
}

fn measure(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    setups: usize,
    scratch: &Scratch,
) -> Result<Outcome, String> {
    let run = tcp::run(&RunConfig {
        workload,
        seed,
        seconds,
        setups,
        server_bin: sibling_binary("hique-server")?,
        tmp: scratch.0.clone(),
    })?;
    Ok(run.outcome)
}

fn trace_command(workload: &Workload, seed: u64, seconds: f64) -> Result<Command, String> {
    let mut command = Command::new(sibling_binary("hique-trace")?);
    command
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()]);
    Ok(command)
}

/// The benchmark contract: one workload, one result line.
fn single(args: &Args, name: &str) -> Result<ExitCode, String> {
    let workload = workload(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seconds = args.seconds.unwrap_or(FULL_SECONDS);
    if args.trace {
        // The traced run links the repo's crates, so it is a binary of its
        // own; it prints the result line itself.
        let status = trace_command(workload, args.seed, seconds)?
            .status()
            .map_err(|e| format!("hique-trace: {e}"))?;
        return Ok(if status.success() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let scratch = Scratch::create()?;
    Ok(measure(workload, args.seed, seconds, SETUPS, &scratch)?.report("hique-benchmark"))
}

/// Every workload end to end, then (unless `--quick`) its traced run;
/// `--repeat K` does it K times on seeds `seed..seed+K`.
fn full(args: &Args) -> Result<ExitCode, String> {
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        FULL_SECONDS
    });
    let scratch = Scratch::create()?;
    let mut report = Report::default();
    let mut ok = true;
    for repeat in 0..args.repeat {
        let seed = args.seed + repeat as u64;
        for w in &WORKLOADS {
            eprintln!(
                "hique-benchmark: {} seed {seed} ({seconds} s window)",
                w.name
            );
            // `--quick` sets up once: three set-ups would be a third of it.
            let setups = if args.quick { 1 } else { SETUPS };
            let e2e = measure(w, seed, seconds, setups, &scratch)?;
            report.record(w.name, "end_to_end", &e2e.metrics);
            for note in &e2e.notes {
                eprintln!("hique-benchmark: {}: {note}", w.name);
            }
            if e2e.failed > 0 {
                let fail_share = e2e.failed as f64 / e2e.attempted as f64;
                eprintln!("hique-benchmark: {}: fail_share {fail_share}", w.name);
            }
            ok &= e2e.correct;
            if !args.quick {
                // The child prints its own notes to the inherited stderr.
                let output = trace_command(w, seed, seconds)?
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("hique-trace: {e}"))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let line = stdout
                    .lines()
                    .last()
                    .ok_or("hique-trace printed no result")?;
                let traced = Outcome::from_json(&json::parse(line)?)?;
                report.record(w.name, "per_layer", &traced.metrics);
                ok &= traced.correct;
            }
        }
    }
    report.print();
    if args.repeat > 1 {
        report.print_calibration();
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| "benchmark/out/result.json".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let header = vec![
        ("schema", Value::Num(1.0)),
        ("commit", Value::Str(args.commit.clone())),
        ("seed", Value::Num(args.seed as f64)),
        ("repeat", Value::Num(args.repeat as f64)),
        ("seconds", Value::Num(seconds)),
        ("quick", Value::Bool(args.quick)),
        ("nproc", Value::Num(nproc as f64)),
        ("kernel", Value::Str(kernel.trim().into())),
    ];
    std::fs::write(&out, report.to_json(header).pretty()).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("hique-benchmark: wrote {out}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(base: &str, other: &str) -> Result<ExitCode, String> {
    let read = |path: &str| -> Result<Value, String> {
        json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare(&read(base)?, &read(other)?)?;
    let mut regressed = false;
    for c in &rows {
        let verdict = match c.verdict {
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "ok",
        };
        regressed |= c.verdict == Verdict::Regressed;
        println!(
            "{} {} base {} other {} worse_by {:+.4} widest_spread {:.4} {verdict}",
            c.workload, c.metric, c.base, c.other, c.worse_by, c.widest_spread
        );
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.as_slice() {
        [command, base, other] if command == "compare" => compare_files(base, other),
        _ => parse_args(argv.into_iter()).and_then(|args| match &args.workload {
            Some(name) => single(&args, name),
            None => full(&args),
        }),
    };
    result.unwrap_or_else(|e| {
        eprintln!("hique-benchmark: {e}");
        ExitCode::FAILURE
    })
}
