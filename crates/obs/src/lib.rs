//! Zero-dependency observability for the PathRank serving stack.
//!
//! Everything the engine, route server, customization path and map
//! matcher report at runtime flows through this crate — which, like
//! `pathrank-serve`, is **std-only**: no metrics framework, no
//! allocation on the hot path. There is one stats path, the registry.
//!
//! # Design
//!
//! * [`Registry`] hands out cheap cloneable handles — [`Counter`],
//!   [`Gauge`], [`Histogram`] — registered once by `(name, labels)`.
//!   A counter is a set of per-shard cells padded to cache lines; the
//!   hot path is **one relaxed atomic add** to the calling thread's
//!   cell, and shards are summed only at scrape time.
//! * [`Histogram`] buckets are log-bucketed ("power-of-two-ish": exact
//!   up to 16, then four sub-buckets per octave), so recording is one
//!   bucket index computation from the value's leading zeros plus two
//!   relaxed adds, and [`HistogramSnapshot::percentile`] interpolates
//!   p50/p99/p999 linearly inside the hit bucket.
//! * The **obs-off escape hatch** is a construction-time choice, not an
//!   `Option` threaded through call sites: [`Registry::disabled`]
//!   returns a registry whose handles are no-op sinks — same types,
//!   same call sites, a single predictable branch per record.
//! * [`MetricsSnapshot`] is the typed scrape: Prometheus text format
//!   ([`MetricsSnapshot::to_prometheus_text`]), hand-rolled JSON
//!   ([`MetricsSnapshot::to_json`]), and
//!   [`MetricsSnapshot::delta_since`] for benchmarks that window a
//!   timed region out of cumulative counters.

pub mod histogram;
pub mod promtext;
pub mod registry;

pub use histogram::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{Counter, CounterSample, Gauge, GaugeSample, MetricsSnapshot, Registry};
