//! `suite` makes a set of runs; `compare` holds two sets against the
//! bounds in `BENCHMARK.json`.
//!
//! For every (end-to-end metric, workload) pair `compare` takes each
//! side's median over its runs and reports the pair as
//!
//! * **regressed** when B's median is worse than A's by more than the
//!   metric's bound;
//! * **unresolved** when either side's own spread (first to third
//!   quartile, as a share of the median) exceeds the bound — unless
//!   every run of B reads better than every run of A;
//! * **changed** when a cycle-domain metric differs between two runs of
//!   the same seed: simulated statistics are a function of
//!   `(workload, seed)`, so that is a change of behaviour, not of speed.

use std::process::Command;

use crate::json::Json;
use crate::report::{benchmark_json_path, environment, median, quartiles};
use crate::workload;

/// End-to-end metrics that are simulated statistics.
const CYCLE_DOMAIN: [&str; 4] =
    ["coverage", "offchip_bytes_per_round", "exec_time_factor", "decoded_share"];

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bounded {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` table of `BENCHMARK.json`.
///
/// # Errors
///
/// When the file is missing or not of the expected shape.
pub fn end_to_end_bounds() -> Result<Vec<Bounded>, String> {
    let path = benchmark_json_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    doc.get("end_to_end")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            Some(Bounded {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .filter(|bounds| !bounds.is_empty())
        .ok_or_else(|| format!("{}: no usable end_to_end table", path.display()))
}

/// Runs every workload `runs` times untraced (seeds `seed`, `seed+1`,
/// …) and once traced, each in a process of its own so that peak RSS is
/// per run, and writes the set to `out_path`.
///
/// # Errors
///
/// When a run cannot be started or prints no result line.
pub fn suite(
    out_path: &str,
    runs: u64,
    seed: u64,
    seconds: f64,
    scale: f64,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_correct = true;
    let mut records = Vec::new();
    for w in workload::all() {
        let plan = (0..runs).map(|r| (seed + r, 0)).chain(std::iter::once((seed, 1)));
        for (run_seed, trace) in plan {
            let output = Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &run_seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--scale", &scale.to_string()])
                .args(["--trace", &trace.to_string()])
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let line = stdout.lines().last().unwrap_or_default();
            let result = Json::parse(line)
                .map_err(|e| format!("{} seed {run_seed}: no result line ({e})", w.name))?;
            all_correct &=
                output.status.success() && result.get("correct") == Some(&Json::Bool(true));
            records.push(Json::obj([
                ("workload", Json::str(w.name)),
                ("seed", Json::from(run_seed)),
                ("trace", Json::Bool(trace == 1)),
                ("result", result),
            ]));
        }
    }
    let doc = Json::obj([
        ("environment", environment(seed, scale, seconds)),
        ("runs", Json::Arr(records)),
    ]);
    std::fs::write(out_path, doc.to_string()).map_err(|e| format!("{out_path}: {e}"))?;
    println!("wrote {out_path}");
    Ok(all_correct)
}

/// `(seed, value)` of `metric` on `workload` over a set's untraced runs.
fn values(set: &Json, workload: &str, metric: &str) -> Vec<(u64, f64)> {
    set.get("runs")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .filter(|run| {
            run.get("workload").and_then(Json::as_str) == Some(workload)
                && run.get("trace").and_then(Json::as_bool) == Some(false)
        })
        .filter_map(|run| {
            let value = run.get("result")?.get("metrics")?.get(metric)?.get("value")?.as_f64()?;
            Some((run.get("seed")?.as_f64()? as u64, value))
        })
        .collect()
}

fn spread(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |[q1, q2, q3]| if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() })
}

/// How one (metric, workload) pair compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regressed,
    Changed,
    Missing,
}

/// Compares B against A for one metric on one workload. Returns the
/// verdict and by what share of A's median B is worse (negative:
/// better).
#[must_use]
pub fn judge(metric: &Bounded, a: &[(u64, f64)], b: &[(u64, f64)]) -> (Verdict, f64) {
    if a.is_empty() || b.is_empty() {
        return (Verdict::Missing, 0.0);
    }
    let mut av: Vec<f64> = a.iter().map(|&(_, v)| v).collect();
    let mut bv: Vec<f64> = b.iter().map(|&(_, v)| v).collect();
    let (ma, mb) = (median(&mut av), median(&mut bv));
    let sign = if metric.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = if ma == 0.0 { 0.0 } else { sign * (mb - ma) / ma.abs() };
    if CYCLE_DOMAIN.contains(&metric.name.as_str())
        && a.iter().any(|&(seed, v)| b.iter().any(|&(s, w)| s == seed && w != v))
    {
        return (Verdict::Changed, worse_by);
    }
    // `av` and `bv` are sorted by `median`.
    let b_always_better =
        if metric.lower_is_better { bv[bv.len() - 1] < av[0] } else { bv[0] > av[av.len() - 1] };
    let verdict = if b_always_better {
        Verdict::Ok
    } else if spread(&av) > metric.bound || spread(&bv) > metric.bound {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

/// Prints one row per workload and returns whether no pair regressed or
/// changed.
///
/// # Errors
///
/// When a file cannot be read or parsed.
pub fn compare_files(a_path: &str, b_path: &str) -> Result<bool, String> {
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (read(a_path)?, read(b_path)?);
    let bounds = end_to_end_bounds()?;

    println!("B = {b_path} against A = {a_path}: change of the median, + is worse");
    println!("marks: ! regressed   ? unresolved (spread over bound)   # cycle-domain value changed   - missing");
    print!("{:<18}", "workload");
    for m in &bounds {
        print!(" {:>12.12}", m.name);
    }
    println!();
    let mut findings = Vec::new();
    for w in workload::all() {
        print!("{:<18}", w.name);
        for m in &bounds {
            let (verdict, worse_by) =
                judge(m, &values(&a, w.name, &m.name), &values(&b, w.name, &m.name));
            let mark = match verdict {
                Verdict::Ok => ' ',
                Verdict::Unresolved => '?',
                Verdict::Regressed => '!',
                Verdict::Changed => '#',
                Verdict::Missing => '-',
            };
            print!(" {:>+10.2}%{mark}", worse_by * 100.0);
            if verdict != Verdict::Ok {
                findings.push(format!(
                    "{:?}: {} on {} ({:+.2}% against a bound of {:.1}%)",
                    verdict,
                    m.name,
                    w.name,
                    worse_by * 100.0,
                    m.bound * 100.0
                ));
            }
        }
        println!();
    }
    for f in &findings {
        println!("{f}");
    }
    let bad = |f: &String| !f.starts_with("Unresolved");
    println!(
        "{} pairs compared, {} findings",
        bounds.len() * workload::all().len(),
        findings.len()
    );
    Ok(!findings.iter().any(bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, lower_is_better: bool, bound: f64) -> Bounded {
        Bounded { name: name.to_string(), lower_is_better, bound }
    }

    fn runs(values: &[f64]) -> Vec<(u64, f64)> {
        values.iter().enumerate().map(|(i, &v)| (i as u64, v)).collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let p50 = metric("cycle_wall_p50_us", true, 0.10);
        let steady = runs(&[10.0, 10.1, 9.9, 10.0]);
        assert_eq!(judge(&p50, &steady, &runs(&[10.3, 10.4, 10.2, 10.3])).0, Verdict::Ok);
        assert_eq!(judge(&p50, &steady, &runs(&[11.6, 11.5, 11.7, 11.6])).0, Verdict::Regressed);
        // A wide side hides a regression: unresolved, not unchanged…
        let wide = runs(&[8.0, 12.0, 9.0, 13.0]);
        assert_eq!(judge(&p50, &steady, &wide).0, Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        assert_eq!(judge(&p50, &wide, &runs(&[5.0, 5.1, 5.2, 5.0])).0, Verdict::Ok);
        let rate = metric("sim_rounds_per_s", false, 0.10);
        assert_eq!(judge(&rate, &steady, &runs(&[8.0, 8.1, 8.0, 7.9])).0, Verdict::Regressed);
        assert_eq!(judge(&rate, &steady, &[]).0, Verdict::Missing);
    }

    #[test]
    fn a_simulated_statistic_must_repeat_exactly_at_equal_seed() {
        let coverage = metric("coverage", false, 0.01);
        let a = runs(&[0.97, 0.971, 0.969]);
        assert_eq!(judge(&coverage, &a, &a.clone()).0, Verdict::Ok);
        let mut b = a.clone();
        b[1].1 += 1e-9;
        assert_eq!(judge(&coverage, &a, &b).0, Verdict::Changed);
        // Other seeds are other inputs: nothing to hold equal.
        let other: Vec<_> = a.iter().map(|&(s, v)| (s + 10, v + 1e-4)).collect();
        assert_eq!(judge(&coverage, &a, &other).0, Verdict::Ok);
    }
}
