//! The lock-light metrics registry.
//!
//! Handles are registered once (under the registry mutex) and recorded
//! against forever after without any lock: a counter add is one relaxed
//! atomic add to the calling thread's cache-line-padded shard cell, a
//! gauge set is one relaxed store, a histogram record is a bucket index
//! computation plus two relaxed adds. Shards are summed only at scrape
//! time ([`Registry::snapshot`]).

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::{Histogram, HistogramCore, HistogramSnapshot};

/// Number of counter shards. A power of two so the thread-slot hash is
/// a mask; 16 cells × 128 B = 2 KiB per counter, plenty for the shard
/// counts this stack runs (thread-per-core workers).
const COUNTER_SHARDS: usize = 16;

/// One shard cell, padded to its own cache line (two lines on systems
/// with 128-byte prefetch pairs) so concurrent writers never false-share.
#[repr(align(128))]
struct CounterCell(AtomicU64);

struct ShardedCounter {
    cells: [CounterCell; COUNTER_SHARDS],
}

impl ShardedCounter {
    fn new() -> Self {
        ShardedCounter {
            cells: std::array::from_fn(|_| CounterCell(AtomicU64::new(0))),
        }
    }

    fn total(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

/// Round-robin shard slot per thread: assigned once on first use, then
/// a plain thread-local read. Distinct threads spread over distinct
/// cells, so concurrent `add`s land on different cache lines.
fn thread_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) & (COUNTER_SHARDS - 1);
    }
    SLOT.with(|s| *s)
}

/// A cloneable monotonic counter handle. Handles from
/// [`Registry::disabled`] are no-op sinks.
#[derive(Clone)]
pub struct Counter {
    cells: Option<Arc<ShardedCounter>>,
}

impl Counter {
    /// A sink that counts nothing.
    pub fn noop() -> Self {
        Counter { cells: None }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`: one relaxed atomic add to this thread's shard cell.
    #[inline]
    pub fn add(&self, n: u64) {
        self.add_in_shard(thread_shard(), n);
    }

    /// The calling thread's shard slot. A per-thread component (one
    /// engine per worker) resolves this once at construction and then
    /// records through [`Counter::add_in_shard`], skipping the
    /// thread-local lookup on every add.
    pub fn shard_hint() -> usize {
        thread_shard()
    }

    /// Adds `n` to a pinned shard slot (out-of-range slots wrap). Any
    /// slot is valid — sharing one across threads only costs cache-line
    /// contention, never correctness.
    #[inline]
    pub fn add_in_shard(&self, shard: usize, n: u64) {
        if let Some(cells) = &self.cells {
            cells.cells[shard & (COUNTER_SHARDS - 1)]
                .0
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current total across shards (scrape-path only).
    pub fn value(&self) -> u64 {
        self.cells.as_ref().map_or(0, |c| c.total())
    }

    /// Whether this handle actually counts (false for no-op sinks).
    pub fn is_enabled(&self) -> bool {
        self.cells.is_some()
    }
}

/// A cloneable gauge handle (current-value semantics, may go down).
#[derive(Clone)]
pub struct Gauge {
    cell: Option<Arc<AtomicI64>>,
}

impl Gauge {
    /// A sink that tracks nothing.
    pub fn noop() -> Self {
        Gauge { cell: None }
    }

    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(c) = &self.cell {
            c.store(v, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn add(&self, n: i64) {
        if let Some(c) = &self.cell {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    pub fn value(&self) -> i64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

enum MetricKind {
    Counter(Arc<ShardedCounter>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCore>),
}

struct MetricEntry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    kind: MetricKind,
}

#[derive(Default)]
struct RegistryInner {
    metrics: Mutex<Vec<MetricEntry>>,
}

/// The metrics registry: a named set of counters, gauges and
/// histograms, scraped as one [`MetricsSnapshot`].
///
/// Cloning shares the underlying store. [`Registry::disabled`] is the
/// obs-off escape hatch: the same registration calls succeed but hand
/// out no-op handles, so instrumented code needs no `Option` plumbing
/// and pays one predictable branch per record.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Option<Arc<RegistryInner>>,
}

impl Registry {
    /// An enabled registry.
    pub fn new() -> Self {
        Registry {
            inner: Some(Arc::new(RegistryInner::default())),
        }
    }

    /// The no-op sink: every handle it hands out records nothing and a
    /// scrape returns an empty snapshot.
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    /// Whether this registry actually records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or re-fetches) a counter. Registration is idempotent
    /// on `(name, labels)`: a second call returns a handle to the same
    /// cells, so independent components can share a series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::noop();
        };
        let labels = own_labels(labels);
        let mut metrics = inner.metrics.lock().expect("registry lock");
        if let Some(e) = find(&metrics, name, &labels) {
            match &e.kind {
                MetricKind::Counter(c) => {
                    return Counter {
                        cells: Some(Arc::clone(c)),
                    }
                }
                _ => panic!("metric {name} already registered with another type"),
            }
        }
        let cells = Arc::new(ShardedCounter::new());
        metrics.push(MetricEntry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            kind: MetricKind::Counter(Arc::clone(&cells)),
        });
        Counter { cells: Some(cells) }
    }

    /// Registers (or re-fetches) a gauge; idempotent like
    /// [`Registry::counter`].
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge::noop();
        };
        let labels = own_labels(labels);
        let mut metrics = inner.metrics.lock().expect("registry lock");
        if let Some(e) = find(&metrics, name, &labels) {
            match &e.kind {
                MetricKind::Gauge(c) => {
                    return Gauge {
                        cell: Some(Arc::clone(c)),
                    }
                }
                _ => panic!("metric {name} already registered with another type"),
            }
        }
        let cell = Arc::new(AtomicI64::new(0));
        metrics.push(MetricEntry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            kind: MetricKind::Gauge(Arc::clone(&cell)),
        });
        Gauge { cell: Some(cell) }
    }

    /// Registers (or re-fetches) a histogram; idempotent like
    /// [`Registry::counter`].
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram::noop();
        };
        let labels = own_labels(labels);
        let mut metrics = inner.metrics.lock().expect("registry lock");
        if let Some(e) = find(&metrics, name, &labels) {
            match &e.kind {
                MetricKind::Histogram(c) => {
                    return Histogram {
                        core: Some(Arc::clone(c)),
                    }
                }
                _ => panic!("metric {name} already registered with another type"),
            }
        }
        let core = Arc::new(HistogramCore::new());
        metrics.push(MetricEntry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            kind: MetricKind::Histogram(Arc::clone(&core)),
        });
        Histogram { core: Some(core) }
    }

    /// Scrapes every registered metric into a typed snapshot. Counters
    /// sum their shards here — the only place shard cells are read.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let Some(inner) = &self.inner else {
            return snap;
        };
        let metrics = inner.metrics.lock().expect("registry lock");
        for e in metrics.iter() {
            match &e.kind {
                MetricKind::Counter(c) => snap.counters.push(CounterSample {
                    name: e.name.clone(),
                    help: e.help.clone(),
                    labels: e.labels.clone(),
                    value: c.total(),
                }),
                MetricKind::Gauge(c) => snap.gauges.push(GaugeSample {
                    name: e.name.clone(),
                    help: e.help.clone(),
                    labels: e.labels.clone(),
                    value: c.load(Ordering::Relaxed),
                }),
                MetricKind::Histogram(c) => {
                    let (counts, sum) = c.snapshot_counts();
                    snap.histograms.push(HistogramSnapshot::from_counts(
                        e.name.clone(),
                        e.labels.clone(),
                        counts,
                        sum,
                    ));
                }
            }
        }
        // Scrape order is registration order; sort for a stable text
        // exposition regardless of which component registered first.
        snap.counters
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        snap.gauges
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        snap.histograms
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        snap
    }
}

fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = labels
        .iter()
        .map(|(k, val)| (k.to_string(), val.to_string()))
        .collect();
    v.sort();
    v
}

fn find<'a>(
    metrics: &'a [MetricEntry],
    name: &str,
    labels: &[(String, String)],
) -> Option<&'a MetricEntry> {
    metrics
        .iter()
        .find(|e| e.name == name && e.labels == labels)
}

/// One counter series in a scrape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    pub name: String,
    pub help: String,
    pub labels: Vec<(String, String)>,
    pub value: u64,
}

/// One gauge series in a scrape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSample {
    pub name: String,
    pub help: String,
    pub labels: Vec<(String, String)>,
    pub value: i64,
}

/// A full scrape of a [`Registry`]: the typed API in-process callers and
/// the `STATS` TCP command both read.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<CounterSample>,
    pub gauges: Vec<GaugeSample>,
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Sum of every counter series matching `name` and carrying all of
    /// `labels` (subset match, so `&[]` sums the whole family).
    pub fn counter_total(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name && has_labels(&c.labels, labels))
            .map(|c| c.value)
            .sum()
    }

    /// The gauge series exactly matching `name` + `labels`, if present.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        self.gauges
            .iter()
            .find(|g| g.name == name && exact_labels(&g.labels, labels))
            .map(|g| g.value)
    }

    /// The first histogram matching `name` and carrying all of `labels`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.name == name && has_labels(&h.labels, labels))
    }

    /// Counter/histogram difference against an earlier snapshot of the
    /// same registry — how the benchmark cuts its timed window out of
    /// cumulative server counters. Gauges keep their current value
    /// (deltas are meaningless for current-value semantics). Series
    /// absent from `earlier` pass through unchanged.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|c| {
                let before = earlier
                    .counters
                    .iter()
                    .find(|e| e.name == c.name && e.labels == c.labels)
                    .map_or(0, |e| e.value);
                CounterSample {
                    value: c.value.saturating_sub(before),
                    ..c.clone()
                }
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|h| {
                match earlier
                    .histograms
                    .iter()
                    .find(|e| e.name == h.name && e.labels == h.labels)
                {
                    Some(e) => h.delta_since(e),
                    None => h.clone(),
                }
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Prometheus text exposition (v0.0.4): `# HELP` / `# TYPE` headers,
    /// histograms as cumulative `_bucket{le=…}` series plus `_sum` /
    /// `_count`, terminated with `# EOF` so line-protocol clients know
    /// where the scrape ends.
    pub fn to_prometheus_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut last_header = String::new();
        let mut header = |out: &mut String, name: &str, help: &str, kind: &str| {
            if last_header != name {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last_header = name.to_string();
            }
        };
        for c in &self.counters {
            header(&mut out, &c.name, &c.help, "counter");
            let _ = writeln!(out, "{}{} {}", c.name, fmt_labels(&c.labels, &[]), c.value);
        }
        for g in &self.gauges {
            header(&mut out, &g.name, &g.help, "gauge");
            let _ = writeln!(out, "{}{} {}", g.name, fmt_labels(&g.labels, &[]), g.value);
        }
        for h in &self.histograms {
            header(&mut out, &h.name, "", "histogram");
            let mut cum = 0u64;
            for (i, &c) in h.counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cum += c;
                let le = crate::histogram::bucket_bounds(i).1;
                let le = if le == u64::MAX {
                    "+Inf".to_string()
                } else {
                    le.to_string()
                };
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    h.name,
                    fmt_labels(&h.labels, &[("le", &le)]),
                    cum
                );
            }
            let _ = writeln!(
                out,
                "{}_bucket{} {}",
                h.name,
                fmt_labels(&h.labels, &[("le", "+Inf")]),
                h.count
            );
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                h.name,
                fmt_labels(&h.labels, &[]),
                h.sum
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                h.name,
                fmt_labels(&h.labels, &[]),
                h.count
            );
        }
        out.push_str("# EOF\n");
        out
    }

    /// Hand-rolled JSON form (the workspace deliberately has no serde
    /// backend): counters/gauges as `{name, labels, value}` rows,
    /// histograms with count, sum and interpolated p50/p99/p999.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"counters\":[");
        for (i, c) in self.counters.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":{:?},\"labels\":{},\"value\":{}}}",
                if i > 0 { "," } else { "" },
                c.name,
                json_labels(&c.labels),
                c.value
            );
        }
        out.push_str("],\"gauges\":[");
        for (i, g) in self.gauges.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":{:?},\"labels\":{},\"value\":{}}}",
                if i > 0 { "," } else { "" },
                g.name,
                json_labels(&g.labels),
                g.value
            );
        }
        out.push_str("],\"histograms\":[");
        for (i, h) in self.histograms.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":{:?},\"labels\":{},\"count\":{},\"sum\":{},\"p50\":{:.1},\"p99\":{:.1},\"p999\":{:.1}}}",
                if i > 0 { "," } else { "" },
                h.name,
                json_labels(&h.labels),
                h.count,
                h.sum,
                h.percentile(50.0),
                h.percentile(99.0),
                h.percentile(99.9)
            );
        }
        out.push_str("]}");
        out
    }
}

fn has_labels(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    want.iter()
        .all(|(k, v)| have.iter().any(|(hk, hv)| hk == k && hv == v))
}

fn exact_labels(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len() && has_labels(have, want)
}

fn fmt_labels(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    parts.extend(extra.iter().map(|(k, v)| format!("{k}={v:?}")));
    format!("{{{}}}", parts.join(","))
}

fn json_labels(labels: &[(String, String)]) -> String {
    let parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k:?}:{v:?}")).collect();
    format!("{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_counter_shards_sum_at_scrape() {
        let reg = Registry::new();
        let c = reg.counter("requests_total", "requests", &[("backend", "ch")]);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter_total("requests_total", &[("backend", "ch")]),
            8000
        );
        assert_eq!(snap.counter_total("requests_total", &[]), 8000);
    }

    #[test]
    fn obs_registration_is_idempotent_by_name_and_labels() {
        let reg = Registry::new();
        let a = reg.counter("x_total", "", &[("k", "1")]);
        let b = reg.counter("x_total", "", &[("k", "1")]);
        let other = reg.counter("x_total", "", &[("k", "2")]);
        a.add(3);
        b.add(4);
        other.add(10);
        assert_eq!(a.value(), 7);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("x_total", &[("k", "1")]), 7);
        assert_eq!(snap.counter_total("x_total", &[]), 17);
    }

    #[test]
    fn obs_gauge_set_add_sub() {
        let reg = Registry::new();
        let g = reg.gauge("depth", "", &[("shard", "0")]);
        g.set(5);
        g.add(3);
        g.sub(2);
        assert_eq!(g.value(), 6);
        assert_eq!(
            reg.snapshot().gauge_value("depth", &[("shard", "0")]),
            Some(6)
        );
        assert_eq!(reg.snapshot().gauge_value("depth", &[("shard", "9")]), None);
    }

    #[test]
    fn obs_disabled_registry_is_a_noop_sink() {
        let reg = Registry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("x_total", "", &[]);
        let g = reg.gauge("g", "", &[]);
        let h = reg.histogram("h", "", &[]);
        c.add(10);
        g.set(5);
        h.record(7);
        assert_eq!(c.value(), 0);
        assert!(!c.is_enabled());
        assert_eq!(g.value(), 0);
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn obs_concurrent_merge_is_deterministic_at_scrape() {
        // Two runs recording the same multiset from different thread
        // interleavings must scrape identically: shard sums and bucket
        // counts are plain u64 additions, associative and exact.
        let scrape = || {
            let reg = Registry::new();
            let c = reg.counter("n_total", "", &[]);
            let h = reg.histogram("lat", "", &[]);
            std::thread::scope(|s| {
                for t in 0..6 {
                    let c = c.clone();
                    let h = h.clone();
                    s.spawn(move || {
                        for i in 0..500u64 {
                            c.add(t as u64 + 1);
                            h.record(i * 37 % 4096);
                        }
                    });
                }
            });
            let snap = reg.snapshot();
            (
                snap.counter_total("n_total", &[]),
                snap.histogram("lat", &[]).expect("registered").clone(),
            )
        };
        let (c1, h1) = scrape();
        let (c2, h2) = scrape();
        assert_eq!(c1, c2);
        assert_eq!(h1.counts, h2.counts);
        assert_eq!(h1.sum, h2.sum);
        assert_eq!(
            h1.percentile(99.0).to_bits(),
            h2.percentile(99.0).to_bits(),
            "interpolated percentiles must be bitwise deterministic"
        );
    }

    #[test]
    fn obs_snapshot_delta_since_windows_counters() {
        let reg = Registry::new();
        let c = reg.counter("served_total", "", &[]);
        let h = reg.histogram("lat", "", &[]);
        c.add(10);
        h.record(100);
        let before = reg.snapshot();
        c.add(5);
        h.record(200);
        h.record(300);
        let delta = reg.snapshot().delta_since(&before);
        assert_eq!(delta.counter_total("served_total", &[]), 5);
        assert_eq!(delta.histogram("lat", &[]).expect("present").count, 2);
    }

    #[test]
    fn obs_prometheus_text_shape() {
        let reg = Registry::new();
        reg.counter(
            "pathrank_requests_total",
            "served requests",
            &[("backend", "ch")],
        )
        .add(3);
        reg.gauge("pathrank_queue_depth", "queued", &[("shard", "0")])
            .set(2);
        let h = reg.histogram("pathrank_latency_ns", "", &[]);
        h.record(5);
        h.record(700);
        let text = reg.snapshot().to_prometheus_text();
        assert!(text.contains("# TYPE pathrank_requests_total counter"));
        assert!(text.contains("pathrank_requests_total{backend=\"ch\"} 3"));
        assert!(text.contains("pathrank_queue_depth{shard=\"0\"} 2"));
        assert!(text.contains("# TYPE pathrank_latency_ns histogram"));
        assert!(text.contains("pathrank_latency_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("pathrank_latency_ns_count 2"));
        assert!(text.contains("pathrank_latency_ns_sum 705"));
        assert!(text.ends_with("# EOF\n"));
        // And the text parses back through the bundled parser.
        let parsed = crate::promtext::parse(&text).expect("scrape must parse");
        assert!(parsed
            .iter()
            .any(|s| s.name == "pathrank_requests_total" && s.value == 3.0));
    }

    #[test]
    fn obs_json_shape() {
        let reg = Registry::new();
        reg.counter("a_total", "", &[("k", "v")]).add(1);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a_total\""));
        assert!(json.contains("\"k\":\"v\""));
    }
}
