//! Frozen metric values and their canonical JSON form.
//!
//! The JSON emitted here is integer-only and sorted by metric name, so two
//! snapshots with identical metric state serialize to identical bytes — the
//! property the cycle-domain determinism pins compare.

use std::fmt::Write as _;
use std::sync::atomic::Ordering;

use crate::metrics::{bucket_percentile, bucket_upper, HISTOGRAM_BUCKETS};
use crate::registry::{Domain, Entry, MetricKind};

/// Value of one metric at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram {
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        p50: u64,
        p90: u64,
        p99: u64,
        /// Non-empty buckets as `(bucket upper bound, sample count)`.
        buckets: Vec<(u64, u64)>,
    },
    /// Counter family, one slot per index.
    Values(Vec<u64>),
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSnapshot {
    pub name: String,
    pub domain: Domain,
    pub value: MetricValue,
}

impl MetricSnapshot {
    pub(crate) fn capture(entry: &Entry) -> Self {
        let value = match &entry.kind {
            MetricKind::Counter(c) => MetricValue::Counter(c.get()),
            MetricKind::Gauge(g) => MetricValue::Gauge(g.get()),
            MetricKind::Histogram(h) => {
                let buckets = (0..HISTOGRAM_BUCKETS)
                    .filter_map(|b| {
                        // det: snapshots read quiesced counters (after
                        // pool joins); relaxed loads see final sums.
                        let n = h.0.buckets[b].load(Ordering::Relaxed);
                        (n != 0).then(|| (bucket_upper(b), n))
                    })
                    .collect();
                MetricValue::Histogram {
                    count: h.count(),
                    sum: h.sum(),
                    min: h.min(),
                    max: h.max(),
                    p50: h.percentile(50),
                    p90: h.percentile(90),
                    p99: h.percentile(99),
                    buckets,
                }
            }
            MetricKind::Family(f) => {
                // det: snapshots read quiesced counters (after pool
                // joins); relaxed loads see final sums.
                MetricValue::Values(f.0.iter().map(|c| c.load(Ordering::Relaxed)).collect())
            }
        };
        MetricSnapshot { name: entry.name.clone(), domain: entry.domain, value }
    }
}

/// A frozen, name-sorted set of metrics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    pub(crate) metrics: Vec<MetricSnapshot>,
}

impl Snapshot {
    pub fn metrics(&self) -> &[MetricSnapshot] {
        &self.metrics
    }

    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|m| m.name == name).map(|m| &m.value)
    }

    pub fn get_counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Keeps only metrics whose name starts with `prefix` — e.g.
    /// restrict a snapshot to the `machine.` namespace before pinning
    /// it against a run whose other components were instrumented
    /// differently. Name order (and so JSON byte-identity) is
    /// preserved.
    pub fn retain_prefix(&mut self, prefix: &str) {
        self.metrics.retain(|m| m.name.starts_with(prefix));
    }

    /// Canonical JSON: `{"schema":"btwc-telemetry-v1","metrics":{...}}` with
    /// metric names sorted, integer values only, no whitespace.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.metrics.len() * 64);
        out.push_str("{\"schema\":\"btwc-telemetry-v1\",\"metrics\":{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:", json_string(&m.name));
            let _ = write!(out, "{{\"domain\":\"{}\",", m.domain.as_str());
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, "\"type\":\"counter\",\"value\":{v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, "\"type\":\"gauge\",\"value\":{v}");
                }
                MetricValue::Histogram { count, sum, min, max, p50, p90, p99, buckets } => {
                    let _ = write!(
                        out,
                        "\"type\":\"histogram\",\"count\":{count},\"sum\":{sum},\
                         \"min\":{min},\"max\":{max},\"p50\":{p50},\"p90\":{p90},\
                         \"p99\":{p99},\"buckets\":["
                    );
                    for (j, (upper, n)) in buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{upper},{n}]");
                    }
                    out.push(']');
                }
                MetricValue::Values(vs) => {
                    out.push_str("\"type\":\"counter_family\",\"values\":[");
                    for (j, v) in vs.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{v}");
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Folds `other` into `self`, metric by metric — the decode farm's
    /// fleet view over per-tenant registries.
    ///
    /// Same-name metrics aggregate by kind: counters and gauges sum
    /// (a fleet queue-depth gauge is the sum of tenant depths),
    /// histograms merge bucket-wise (count/sum add, min/max widen,
    /// percentiles recomputed from the merged buckets — exactly what
    /// one histogram fed both sample streams would report), counter
    /// families sum element-wise with the shorter side zero-padded.
    /// Metrics present only in `other` are inserted; a same-name
    /// kind or domain mismatch keeps `self`'s value (the inputs
    /// disagree about what the metric *is*, so no merge is
    /// meaningful). The result stays name-sorted, so `to_json` of a
    /// merged snapshot is canonical like any other.
    pub fn merge(&mut self, other: &Snapshot) {
        for m in &other.metrics {
            match self.metrics.binary_search_by(|probe| probe.name.as_str().cmp(&m.name)) {
                Err(pos) => self.metrics.insert(pos, m.clone()),
                Ok(pos) => {
                    let mine = &mut self.metrics[pos];
                    if mine.domain != m.domain {
                        continue;
                    }
                    match (&mut mine.value, &m.value) {
                        (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                            *a = a.saturating_add(*b);
                        }
                        (MetricValue::Gauge(a), MetricValue::Gauge(b)) => {
                            *a = a.saturating_add(*b);
                        }
                        (
                            MetricValue::Histogram { count, sum, min, max, p50, p90, p99, buckets },
                            MetricValue::Histogram {
                                count: c2,
                                sum: s2,
                                min: min2,
                                max: max2,
                                buckets: b2,
                                ..
                            },
                        ) => {
                            merge_buckets(buckets, b2);
                            if *count == 0 {
                                *min = *min2;
                                *max = *max2;
                            } else if *c2 > 0 {
                                *min = (*min).min(*min2);
                                *max = (*max).max(*max2);
                            }
                            *count = count.saturating_add(*c2);
                            *sum = sum.saturating_add(*s2);
                            *p50 = bucket_percentile(buckets.iter().copied(), *count, *max, 50);
                            *p90 = bucket_percentile(buckets.iter().copied(), *count, *max, 90);
                            *p99 = bucket_percentile(buckets.iter().copied(), *count, *max, 99);
                        }
                        (MetricValue::Values(a), MetricValue::Values(b)) => {
                            if a.len() < b.len() {
                                a.resize(b.len(), 0);
                            }
                            for (slot, v) in a.iter_mut().zip(b) {
                                *slot = slot.saturating_add(*v);
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    /// Write [`Snapshot::to_json`] (plus a trailing newline) to `path`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = self.to_json();
        text.push('\n');
        std::fs::write(path, text)
    }
}

/// Sums `extra`'s sparse `(upper, n)` buckets into `mine`, keeping the
/// upper bounds sorted (both sides come out of the same log₂ bucket
/// grid, so equal uppers are the same bucket).
fn merge_buckets(mine: &mut Vec<(u64, u64)>, extra: &[(u64, u64)]) {
    for &(upper, n) in extra {
        match mine.binary_search_by(|&(u, _)| u.cmp(&upper)) {
            Ok(pos) => mine[pos].1 = mine[pos].1.saturating_add(n),
            Err(pos) => mine.insert(pos, (upper, n)),
        }
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    #[test]
    fn merge_matches_single_registry_fed_both_streams() {
        // Two tenant registries vs one registry fed both sample
        // streams: the merged snapshot must serialize identically.
        let combined = MetricsRegistry::new();
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        for (reg, lat_samples, depth) in
            [(&a, &[3u64, 17, 900][..], 2i64), (&b, &[1, 4, 4, 65_000][..], 5)]
        {
            reg.counter("farm.submissions", Domain::Cycles).add(lat_samples.len() as u64);
            combined.counter("farm.submissions", Domain::Cycles).add(lat_samples.len() as u64);
            let h = reg.histogram("farm.latency", Domain::Cycles);
            let hc = combined.histogram("farm.latency", Domain::Cycles);
            for &s in lat_samples {
                h.record(s);
                hc.record(s);
            }
            reg.gauge("farm.queue_depth", Domain::Cycles).set(depth);
            let f = reg.counter_family("farm.per_qubit", Domain::Cycles, 3);
            let fc = combined.counter_family("farm.per_qubit", Domain::Cycles, 3);
            f.add(1, depth as u64);
            fc.add(1, depth as u64);
        }
        combined.gauge("farm.queue_depth", Domain::Cycles).set(7); // 2 + 5
                                                                   // A tenant-only metric must survive the merge.
        b.counter("tenant.only", Domain::Cycles).add(9);
        combined.counter("tenant.only", Domain::Cycles).add(9);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.to_json(), combined.snapshot().to_json());
    }

    #[test]
    fn merge_empty_histogram_takes_other_side() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        let _ = a.histogram("h", Domain::Cycles);
        let hb = b.histogram("h", Domain::Cycles);
        hb.record(12);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.to_json(), b.snapshot().to_json());
    }

    #[test]
    fn json_is_sorted_valid_and_stable() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last", Domain::Cycles).add(3);
        reg.counter("a.first", Domain::Cycles).inc();
        let h = reg.histogram("m.hist", Domain::Cycles);
        h.record(0);
        h.record(5);
        let f = reg.counter_family("m.family", Domain::Cycles, 3);
        f.add(1, 7);
        let json = reg.snapshot().to_json();
        crate::json::validate(&json).expect("snapshot JSON must parse");
        let a = json.find("a.first").unwrap();
        let m = json.find("m.hist").unwrap();
        let z = json.find("z.last").unwrap();
        assert!(a < m && m < z, "metrics must be name-sorted");
        assert_eq!(json, reg.snapshot().to_json(), "same state, same bytes");
        assert!(json.contains("\"values\":[0,7,0]"));
        assert!(json.contains("\"buckets\":[[0,1],[7,1]]"));
    }
}
