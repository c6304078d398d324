//! The metric registry: names, domains, and snapshotting.

use std::sync::{Arc, Mutex, PoisonError};

use crate::metrics::{Counter, CounterFamily, Gauge, Histogram, SpanTimer};
use crate::snapshot::{MetricSnapshot, Snapshot};

/// Clock/validity domain of a metric. See the crate docs for semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Domain {
    /// Derived from the deterministic machine cycle counter; bit-reproducible
    /// for any worker count.
    Cycles,
    /// Depends on thread scheduling (which worker ran what, per-worker load);
    /// excluded from determinism snapshots.
    Scheduling,
    /// Wall-clock time; only populated with the `wall-time` feature.
    Wall,
}

impl Domain {
    pub fn as_str(self) -> &'static str {
        match self {
            Domain::Cycles => "cycles",
            Domain::Scheduling => "scheduling",
            Domain::Wall => "wall",
        }
    }
}

#[derive(Clone)]
pub(crate) enum MetricKind {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    Family(CounterFamily),
}

pub(crate) struct Entry {
    pub(crate) name: String,
    pub(crate) domain: Domain,
    pub(crate) kind: MetricKind,
}

/// Shared, cheaply clonable registry of named metrics.
///
/// Registration takes a lock; the returned handles do not. Registering an
/// existing name with a matching metric kind returns a handle to the same
/// underlying cells, so repeated `attach_telemetry` calls accumulate into one
/// metric rather than shadowing it.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Vec<Entry>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let metrics = self.inner.lock().expect("registry poisoned").len();
        f.debug_struct("MetricsRegistry").field("metrics", &metrics).finish()
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn register<T: Clone>(
        &self,
        name: &str,
        domain: Domain,
        make: impl FnOnce() -> (T, MetricKind),
        reuse: impl Fn(&MetricKind) -> Option<T>,
    ) -> T {
        // Registration mutates no metric values, so a poisoned lock
        // (a panicked registrant) leaves the registry fully usable.
        let mut entries = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            match reuse(&e.kind) {
                Some(handle) => return handle,
                None => panic!("metric `{name}` re-registered with a different kind"),
            }
        }
        let (handle, kind) = make();
        entries.push(Entry { name: name.to_string(), domain, kind });
        handle
    }

    pub fn counter(&self, name: &str, domain: Domain) -> Counter {
        self.register(
            name,
            domain,
            || {
                let c = Counter::new();
                (c.clone(), MetricKind::Counter(c))
            },
            |k| match k {
                MetricKind::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    pub fn gauge(&self, name: &str, domain: Domain) -> Gauge {
        self.register(
            name,
            domain,
            || {
                let g = Gauge::new();
                (g.clone(), MetricKind::Gauge(g))
            },
            |k| match k {
                MetricKind::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    pub fn histogram(&self, name: &str, domain: Domain) -> Histogram {
        self.register(
            name,
            domain,
            || {
                let h = Histogram::new();
                (h.clone(), MetricKind::Histogram(h))
            },
            |k| match k {
                MetricKind::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Register a counter family of `len` slots (indices `0..len`).
    /// Re-registering reuses the existing family regardless of `len`.
    pub fn counter_family(&self, name: &str, domain: Domain, len: usize) -> CounterFamily {
        self.register(
            name,
            domain,
            || {
                let f = CounterFamily::new(len);
                (f.clone(), MetricKind::Family(f))
            },
            |k| match k {
                MetricKind::Family(f) => Some(f.clone()),
                _ => None,
            },
        )
    }

    /// Register a span timer: a `{name}_cycles` histogram in
    /// [`Domain::Cycles`] plus, with the `wall-time` feature, a
    /// `{name}_wall_ns` histogram in [`Domain::Wall`].
    pub fn span_timer(&self, name: &str) -> SpanTimer {
        let cycles = self.histogram(&format!("{name}_cycles"), Domain::Cycles);
        #[cfg(feature = "wall-time")]
        let wall = self.histogram(&format!("{name}_wall_ns"), Domain::Wall);
        SpanTimer {
            cycles,
            #[cfg(feature = "wall-time")]
            wall,
        }
    }

    /// Freeze every registered metric (all domains) into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        self.snapshot_filtered(|_| true)
    }

    /// Freeze only the metrics whose domain is in `domains`. Determinism
    /// pins use `&[Domain::Cycles]`.
    pub fn snapshot_domains(&self, domains: &[Domain]) -> Snapshot {
        self.snapshot_filtered(|d| domains.contains(&d))
    }

    fn snapshot_filtered(&self, keep: impl Fn(Domain) -> bool) -> Snapshot {
        // Snapshots only read; a poisoned lock cannot corrupt them.
        let entries = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut metrics: Vec<MetricSnapshot> =
            entries.iter().filter(|e| keep(e.domain)).map(MetricSnapshot::capture).collect();
        metrics.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot { metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn re_registration_shares_cells() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x", Domain::Cycles);
        let b = reg.counter("x", Domain::Cycles);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x", Domain::Cycles);
        let _ = reg.histogram("x", Domain::Cycles);
    }

    #[test]
    fn domain_filter() {
        let reg = MetricsRegistry::new();
        reg.counter("a", Domain::Cycles).inc();
        reg.counter("b", Domain::Scheduling).inc();
        let cyc = reg.snapshot_domains(&[Domain::Cycles]);
        assert!(cyc.get_counter("a").is_some());
        assert!(cyc.get_counter("b").is_none());
        let all = reg.snapshot();
        assert!(all.get_counter("b").is_some());
    }
}
