//! `btwc-e2e`: see `../README.md`.
//!
//! ```text
//! btwc-e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--scale X]
//! btwc-e2e suite <out.json> [--runs K] [--seed N] [--seconds S] [--scale X]
//! btwc-e2e compare <A.json> <B.json>
//! btwc-e2e list
//! ```

use std::process::ExitCode;

use btwc_e2e::run::{end_to_end, traced, RunArgs};
use btwc_e2e::{compare, workload};

const DEFAULT_SEED: u64 = 0xB7C;
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage:
  btwc-e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--scale X]
  btwc-e2e suite <out.json> [--runs K] [--seed N] [--seconds S] [--scale X]
  btwc-e2e compare <A.json> <B.json>
  btwc-e2e list";

/// `--flag value` pairs after the positional arguments.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name =
                flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.iter().rev().find(|(n, _)| n == name) {
            None => Ok(default),
            Some((_, v)) => v.parse().map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !allowed.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown option --{n}")),
            None => Ok(()),
        }
    }
}

/// `--seed`, decimal or `0x` hexadecimal.
fn seed(flags: &Flags) -> Result<u64, String> {
    let text: String = flags.get("seed", DEFAULT_SEED.to_string())?;
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    }
    .map_err(|_| format!("--seed: cannot read {text:?}"))
}

fn run_args(flags: &Flags, workload_name: &str) -> Result<RunArgs, String> {
    let workload = workload::by_name(workload_name).ok_or_else(|| {
        let names: Vec<_> = workload::all().iter().map(|w| w.name).collect();
        format!("unknown workload {workload_name:?}; one of {}", names.join(", "))
    })?;
    let seed = seed(flags)?;
    let seconds: f64 = flags.get("seconds", DEFAULT_SECONDS)?;
    let scale: f64 = flags.get("scale", 1.0)?;
    let trace: u8 = flags.get("trace", 0)?;
    let in_range = (0.0..=120.0).contains(&seconds) && scale > 0.0 && scale <= 100.0 && trace <= 1;
    if !in_range {
        return Err("--seconds is 0..120, --scale is in (0, 100], --trace is 0 or 1".to_string());
    }
    Ok(RunArgs { workload, seed, seconds, scale, trace: trace == 1 })
}

fn run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args)?;
    flags.only(&["workload", "seed", "seconds", "trace", "scale"])?;
    let name: String = flags.get("workload", String::new())?;
    let args = run_args(&flags, &name)?;
    let result = if args.trace { traced(&args) } else { end_to_end(&args) };
    // The contract's result line: the last line of standard output.
    println!("{}", result.line());
    Ok(result.correct)
}

fn main() -> ExitCode {
    // The pool reads these; a result must not depend on the caller's
    // shell.
    std::env::remove_var("BTWC_WORKERS");
    std::env::remove_var("BTWC_POOL_MODE");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare::compare_files(&args[1], &args[2]),
        Some("suite") if args.len() >= 2 => Flags::parse(&args[2..]).and_then(|flags| {
            flags.only(&["runs", "seed", "seconds", "scale"])?;
            compare::suite(
                &args[1],
                flags.get("runs", 3)?,
                seed(&flags)?,
                flags.get("seconds", DEFAULT_SECONDS)?,
                flags.get("scale", 1.0)?,
            )
        }),
        Some("list") => {
            for w in workload::all() {
                println!("{}", w.name);
            }
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => run(&args),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("btwc-e2e: {message}");
            ExitCode::from(2)
        }
    }
}
