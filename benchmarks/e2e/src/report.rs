//! Metrics, order statistics, the environment record and the result
//! file every run writes.

use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::workload::thread_cap;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// The median of `values` (which it sorts). 0 for no values.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The `pct`-th percentile of sorted `samples`, nearest rank.
#[must_use]
pub fn percentile(sorted: &[u32], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), so spreads read the same here as in the driver. `None` for
/// fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Peak resident set size of this process in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The package directory, fixed when the benchmark is built: results
/// land in its `out/` wherever the command is run from.
#[must_use]
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `BENCHMARK.json` at the root of the repository.
#[must_use]
pub fn benchmark_json_path() -> PathBuf {
    package_dir().join("../../BENCHMARK.json")
}

/// The commit checked out around the package, read from `.git` by
/// hand: a run starts no process and reads nothing outside its
/// checkout. "unknown" where there is no repository.
fn git_sha() -> String {
    let git = package_dir().join("../../.git");
    let read = |rel: &str| std::fs::read_to_string(git.join(rel)).ok();
    let sha = read("HEAD").and_then(|head| {
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        read(reference).map(|sha| sha.trim().to_string()).or_else(|| {
            let packed = read("packed-refs")?;
            let line = packed.lines().find(|l| l.ends_with(reference))?;
            Some(line.split_whitespace().next()?.to_string())
        })
    });
    sha.unwrap_or_else(|| "unknown".to_string())
}

/// Where and how a result was measured.
#[must_use]
pub fn environment(seed: u64, scale: f64, seconds: f64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Json::obj([
        ("nproc", Json::from(nproc as u64)),
        ("thread_cap", Json::from(thread_cap() as u64)),
        ("rustc", Json::str(env!("BTWC_E2E_RUSTC"))),
        ("git_sha", Json::str(git_sha())),
        ("seed", Json::from(seed)),
        ("scale", Json::Num(scale)),
        ("seconds", Json::Num(seconds)),
    ])
}

/// `{"name": {"value": v, "unit": u}, ...}` — the `metrics` member of
/// the result line.
#[must_use]
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (m.name.clone(), Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]))
    }))
}

/// Prints every metric by name with its unit.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        let values = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(quartiles(&values), Some([3.5, 13.5, 31.0]));
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[5.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u32> = (1..=200).collect();
        assert_eq!(percentile(&sorted, 50.0), 100.0);
        assert_eq!(percentile(&sorted, 99.0), 198.0);
        assert_eq!(percentile(&sorted, 100.0), 200.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
