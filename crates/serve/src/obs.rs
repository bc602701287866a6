//! Serving-layer metric handles.
//!
//! One [`ServeObs`] is built per [`crate::RouteServer`] against the
//! registry handed to `RouteServer::start_with_metrics` (the default
//! `start` constructor builds a live registry of its own). Every handle
//! in here is a sharded-counter / histogram / gauge clone, so recording
//! on the serving path is one relaxed atomic add; a disabled registry
//! yields no-op sinks throughout — same call sites, one predictable
//! branch.
//!
//! Registered families (the catalogue README.md documents):
//!
//! | family | kind | labels |
//! |---|---|---|
//! | `pathrank_serve_served_total` | counter | `mode=sequential\|batched` |
//! | `pathrank_serve_shed_total` | counter | `reason=deadline_expired\|queue_full`, `at=admission\|batch_start` |
//! | `pathrank_serve_errors_total` | counter | `variant=QueueFull\|DeadlineExpired\|NoBackend\|InvalidWeights\|Shutdown` |
//! | `pathrank_serve_request_latency_ns` | histogram | — (admission to reply, served requests only) |
//! | `pathrank_serve_batch_size` | histogram | — (coalesced batch sizes at batch start) |
//! | `pathrank_serve_queue_depth` | gauge | `shard=<n>` |
//! | `pathrank_serve_coalesced_batches_total` | counter | — (batches answered by one m2m fill) |
//! | `pathrank_serve_live_generation` | gauge | — |
//! | `pathrank_serve_live_swaps_total` | counter | `kind=full\|sparse` |
//! | `pathrank_serve_publish_ns` | histogram | — (reclaim + level the next buffer + swap; update latency = customize + publish) |
//! | `pathrank_serve_snapshot_buffers_total` | counter | `source=recycled\|cloned` (one per swap: the retired generation's buffers, or a new allocation because a reader pinned them) |
//! | `pathrank_serve_index_bytes` | gauge | `index=ch\|cch_topology\|cch_snapshot` (heap bytes; the snapshot is per resident generation) |
//! | `pathrank_cch_customize_ns` | histogram | `kind=full\|sparse` |
//! | `pathrank_cch_delta_edges` | histogram | — (sparse update sizes) |
//! | `pathrank_cch_recomputed_arcs` | histogram | — (triangle-closure sizes per sparse update) |

use pathrank_obs::{Counter, Gauge, Histogram, Registry};

use crate::server::ServeError;

pub(crate) struct ServeObs {
    pub(crate) registry: Registry,
    pub(crate) served_sequential: Counter,
    pub(crate) served_batched: Counter,
    pub(crate) shed_deadline_admission: Counter,
    pub(crate) shed_deadline_batch: Counter,
    pub(crate) shed_queue_full: Counter,
    err_queue_full: Counter,
    err_deadline: Counter,
    err_no_backend: Counter,
    err_invalid_weights: Counter,
    err_shutdown: Counter,
    pub(crate) latency_ns: Histogram,
    pub(crate) batch_size: Histogram,
    /// Indexed by shard.
    pub(crate) queue_depth: Vec<Gauge>,
    pub(crate) coalesced_batches: Counter,
    pub(crate) live_generation: Gauge,
    pub(crate) swap_full: Counter,
    pub(crate) swap_sparse: Counter,
    pub(crate) publish_ns: Histogram,
    pub(crate) buffers_recycled: Counter,
    pub(crate) buffers_cloned: Counter,
    pub(crate) ch_bytes: Gauge,
    pub(crate) cch_topology_bytes: Gauge,
    pub(crate) snapshot_bytes: Gauge,
    pub(crate) customize_full_ns: Histogram,
    pub(crate) customize_sparse_ns: Histogram,
    pub(crate) delta_edges: Histogram,
    pub(crate) recomputed_arcs: Histogram,
}

impl ServeObs {
    pub(crate) fn new(registry: Registry, shards: usize) -> Self {
        let served = |mode: &str| {
            registry.counter(
                "pathrank_serve_served_total",
                "Requests answered with a route reply, by dispatch mode",
                &[("mode", mode)],
            )
        };
        let shed = |reason: &str, at: &str| {
            registry.counter(
                "pathrank_serve_shed_total",
                "Requests shed without an answer, by reason and shed point",
                &[("reason", reason), ("at", at)],
            )
        };
        let err = |variant: &str| {
            registry.counter(
                "pathrank_serve_errors_total",
                "Error replies returned to callers, by ServeError variant",
                &[("variant", variant)],
            )
        };
        let swap = |kind: &str| {
            registry.counter(
                "pathrank_serve_live_swaps_total",
                "Live-weight generations published, by update kind",
                &[("kind", kind)],
            )
        };
        let buffers = |source: &str| {
            registry.counter(
                "pathrank_serve_snapshot_buffers_total",
                "Buffers live-weight generations were written into, by source \
                 (cloned: a reader still held the retired generation)",
                &[("source", source)],
            )
        };
        let customize = |kind: &str| {
            registry.histogram(
                "pathrank_cch_customize_ns",
                "CCH customization wall time in nanoseconds, by update kind",
                &[("kind", kind)],
            )
        };
        let index_bytes = |index: &str| {
            registry.gauge(
                "pathrank_serve_index_bytes",
                "Heap bytes held by a mounted index (cch_snapshot: per resident generation)",
                &[("index", index)],
            )
        };
        let queue_depth = (0..shards)
            .map(|s| {
                registry.gauge(
                    "pathrank_serve_queue_depth",
                    "Jobs admitted to a shard queue and not yet picked up",
                    &[("shard", &s.to_string())],
                )
            })
            .collect();
        ServeObs {
            served_sequential: served("sequential"),
            served_batched: served("batched"),
            shed_deadline_admission: shed("deadline_expired", "admission"),
            shed_deadline_batch: shed("deadline_expired", "batch_start"),
            shed_queue_full: shed("queue_full", "admission"),
            err_queue_full: err("QueueFull"),
            err_deadline: err("DeadlineExpired"),
            err_no_backend: err("NoBackend"),
            err_invalid_weights: err("InvalidWeights"),
            err_shutdown: err("Shutdown"),
            latency_ns: registry.histogram(
                "pathrank_serve_request_latency_ns",
                "End-to-end latency (admission to reply) of served requests",
                &[],
            ),
            batch_size: registry.histogram(
                "pathrank_serve_batch_size",
                "Coalesced batch sizes observed at batch start",
                &[],
            ),
            queue_depth,
            coalesced_batches: registry.counter(
                "pathrank_serve_coalesced_batches_total",
                "Batches whose shape made the m2m fill cheaper than pointwise dispatch",
                &[],
            ),
            live_generation: registry.gauge(
                "pathrank_serve_live_generation",
                "Generation of the currently served live-weight snapshot",
                &[],
            ),
            swap_full: swap("full"),
            swap_sparse: swap("sparse"),
            publish_ns: registry.histogram(
                "pathrank_serve_publish_ns",
                "Wall time to reclaim the retired buffers, bring them level with the served \
                 generation (last delta replayed, else columns copied) and swap them in",
                &[],
            ),
            buffers_recycled: buffers("recycled"),
            buffers_cloned: buffers("cloned"),
            ch_bytes: index_bytes("ch"),
            cch_topology_bytes: index_bytes("cch_topology"),
            snapshot_bytes: index_bytes("cch_snapshot"),
            customize_full_ns: customize("full"),
            customize_sparse_ns: customize("sparse"),
            delta_edges: registry.histogram(
                "pathrank_cch_delta_edges",
                "Edges named by each sparse live-weight delta",
                &[],
            ),
            recomputed_arcs: registry.histogram(
                "pathrank_cch_recomputed_arcs",
                "Shortcut arcs re-relaxed by each sparse customization (triangle closure size)",
                &[],
            ),
            registry,
        }
    }

    /// Counts an error reply by variant. Every `Err(ServeError)` the
    /// server hands a caller goes through here exactly once.
    pub(crate) fn error(&self, e: ServeError) {
        self.error_counter(e).inc();
    }

    /// Cumulative count of error replies for one variant — what the TCP
    /// layer quotes in its `ERR <Variant> n=<count>` replies.
    pub(crate) fn error_count(&self, e: ServeError) -> u64 {
        self.error_counter(e).value()
    }

    fn error_counter(&self, e: ServeError) -> &Counter {
        match e {
            ServeError::QueueFull => &self.err_queue_full,
            ServeError::DeadlineExpired => &self.err_deadline,
            ServeError::NoBackend => &self.err_no_backend,
            ServeError::InvalidWeights => &self.err_invalid_weights,
            ServeError::Shutdown => &self.err_shutdown,
        }
    }
}
