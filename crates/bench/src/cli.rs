//! The harness's one command line.  Every `fig*`/`table*`/`ablation*`
//! binary takes the same four flags, so one invocation drives all of them
//! (`tests/figures.rs` does); a flag a figure does not read is accepted and
//! ignored, anything else is a usage error.

const USAGE: &str = "\
usage: <figure> [--scale F] [--sf F] [--threads 1,N,..] [--repeats N]
  --scale F    size multiplier of the synthetic micro-benchmark tables
               (default 1.0 = quick sizes; the paper's need roughly 100x)
  --sf F       TPC-H scale factor (default: the figure's own, see EXPERIMENTS.md)
  --threads L  comma-separated worker counts to sweep, serial baseline first
               (default 1,2,4)
  --repeats N  every measurement is the best of N runs (default 3)";

/// Parsed command line of a harness binary.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Multiplier of the synthetic micro-benchmark table sizes.
    pub scale: f64,
    /// TPC-H scale factor; `None` = the figure's own default.
    pub sf: Option<f64>,
    /// Worker counts to sweep; the first is always 1.
    pub threads: Vec<usize>,
    /// Runs per measurement; the best is reported.
    pub repeats: usize,
}

impl Args {
    /// Parse the process's arguments.  A bad command line prints the reason
    /// and the usage text and exits with status 2.
    pub fn from_env() -> Args {
        Args::parse(std::env::args().skip(1)).unwrap_or_else(|reason| {
            eprintln!("{reason}\n{USAGE}");
            std::process::exit(2);
        })
    }

    /// Parse `argv` (without the program name).
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            scale: 1.0,
            sf: None,
            threads: vec![1, 2, 4],
            repeats: 3,
        };
        let mut argv = argv.into_iter();
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} requires a value"));
            match flag.as_str() {
                "--scale" => args.scale = positive(&flag, &value()?)?,
                "--sf" => args.sf = Some(positive(&flag, &value()?)?),
                "--repeats" => {
                    args.repeats = value()?
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or(format!("{flag} takes a positive integer"))?
                }
                "--threads" => {
                    args.threads = value()?
                        .split(',')
                        .map(|t| t.trim().parse().ok().filter(|&n: &usize| n > 0))
                        .collect::<Option<_>>()
                        .ok_or(format!(
                            "{flag} takes positive integers separated by commas"
                        ))?;
                    if args.threads[0] != 1 {
                        return Err(format!(
                            "{flag} must start with 1: the serial baseline is measured first"
                        ));
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(args)
    }

    /// A default row count of a synthetic table under `--scale` (at least
    /// one row, so the smallest scales still build every table).
    pub fn scaled(&self, rows: usize) -> usize {
        ((rows as f64 * self.scale) as usize).max(1)
    }
}

fn positive(flag: &str, value: &str) -> Result<f64, String> {
    value
        .parse()
        .ok()
        .filter(|v: &f64| *v > 0.0 && v.is_finite())
        .ok_or(format!("{flag} takes a positive number, got {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::parse(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let args = parse(&[]).unwrap();
        assert_eq!(
            args,
            Args {
                scale: 1.0,
                sf: None,
                threads: vec![1, 2, 4],
                repeats: 3
            }
        );
        assert_eq!(args.scaled(2_000), 2_000);
    }

    #[test]
    fn every_flag_parses_and_lists_split_on_commas() {
        let args = parse(&[
            "--scale",
            "0.02",
            "--sf",
            "0.002",
            "--threads",
            "1, 2,8",
            "--repeats",
            "5",
        ])
        .unwrap();
        assert_eq!((args.scale, args.sf, args.repeats), (0.02, Some(0.002), 5));
        assert_eq!(args.threads, vec![1, 2, 8]);
        assert_eq!(args.scaled(2_000), 40);
        assert_eq!(args.scaled(10), 1, "a table never scales to zero rows");
    }

    #[test]
    fn threads_must_lead_with_the_serial_baseline() {
        assert!(parse(&["--threads", "2,4"])
            .unwrap_err()
            .contains("start with 1"));
        assert!(parse(&["--threads", "1"]).is_ok());
    }

    #[test]
    fn unknown_flags_and_bad_values_are_usage_errors() {
        for argv in [
            &["--min-speedup", "2.0"][..],
            &["0.02"],
            &["--sf"],
            &["--sf", "zero"],
            &["--sf", "-1"],
            &["--scale", "inf"],
            &["--repeats", "0"],
            &["--threads", "1,x"],
            &["--threads", "1,0"],
            &["--threads", ""],
        ] {
            assert!(parse(argv).is_err(), "{argv:?} must be rejected");
        }
    }
}
