//! The thread-per-core route server.
//!
//! One worker thread per shard, each owning a private [`QueryEngine`]
//! over the `Arc`-shared graph and indexes. Requests are hashed by
//! source vertex onto a shard (same-source bursts coalesce in one
//! worker, where the batcher can reuse their forward sweeps), admitted
//! through a *bounded* queue, and answered over a per-request one-shot
//! channel.
//!
//! # Live m2m batching
//!
//! A worker picking up a request first drains everything already queued
//! (a free batch — those requests have already paid their queueing
//! latency), then optionally waits out a short window for stragglers —
//! but only when that drain actually found queued traffic
//! ([`ServeConfig::straggler_min_queued`]): at low concurrency an empty
//! drain means no batch will ever form, and the window would tax every
//! request with its full duration for nothing. The window also closes
//! the moment the batch reaches the m2m threshold — growth past it
//! comes for free on the next drain, so waiting longer is pure latency.
//! If the coalesced batch is large enough, *shaped* so the fill saves
//! sweeps (see `coalescing_wins` — a drained handful of unrelated
//! point queries is all bucket overhead and no saving), and a hierarchy
//! covers its metric, the worker answers it with one bucket
//! many-to-many fill:
//! one backward upward sweep per distinct target, one forward upward
//! sweep per distinct source — `S + T` half-sweeps where individual
//! dispatch would pay two per request. Each reply is de-multiplexed out
//! of the row its source swept. Batched costs are the bucket sums —
//! exact, and *bit-identical* to sequential engine answers on
//! integer-weight graphs (see [`crate::fixture`]); on arbitrary float
//! weights they agree up to float re-association.
//!
//! # Deadlines and degradation
//!
//! Admission rejects immediately when the queue is full
//! ([`ServeError::QueueFull`]) or the deadline has already passed;
//! workers re-check deadlines when a batch starts and shed expired
//! requests unanswered-work-first ([`ServeError::DeadlineExpired`]).
//! The batching window never waits past the earliest deadline in the
//! batch. Per metric, queries take the strongest backend that covers
//! them — CH, CCH, ALT, then plain Dijkstra — and a server configured
//! with [`ServeConfig::allow_plain`]` = false` rejects queries that
//! would hit the plain rung ([`ServeError::NoBackend`]) instead of
//! letting them monopolise a shard.
//!
//! # Atomic live-weight swaps
//!
//! Live weights are double-buffered, and only *columns* are ever
//! copied. The CCH topology (ranks, arcs, down-lists, search segments)
//! is built once and shared by `Arc`; a [`Cch`] owns just what
//! customization writes, and it owns the live weight vector too — the
//! single copy, which requests route under as
//! `CostModel::Custom(cch.custom_weights())`, so the engine's
//! `usable_for` gate passes on slice identity instead of comparing every
//! weight per query. A generation therefore costs 12 B per arc plus 8 B
//! per edge, against the topology's once-only 16 B per arc and nothing
//! per triangle (the budget table is in the `pathrank_spatial::algo::cch`
//! module doc).
//!
//! Two generations are resident: the one being served and the one it
//! replaced. **The buffer an update writes is the next snapshot.**
//! [`RouteServer::update_live_weights`] and
//! [`RouteServer::update_live_weights_sparse`] take the retired
//! generation's `Cch` back once no reader holds it (`Arc::try_unwrap` —
//! a worker drops its mount at its next live batch), write the new
//! generation into it *off* the serving path and swap it into the
//! served slot under a mutex; the generation that was being served
//! becomes the retired one. A full update overwrites every column
//! (`Cch::recustomize_weights`, allocation-free). A sparse update first
//! brings the buffer level with the served generation — the buffer lags
//! it by exactly the served generation's own delta, whose changed edges
//! and recomputed arcs that `Cch` recorded, so `Cch::clone_from` copies
//! those entries and nothing else; after a full update, or when the
//! record does not apply for any other reason, it falls back to copying
//! whole columns in place — and then re-relaxes only the triangles the
//! new delta touches (`Cch::apply_weight_delta`, bit-identical to the
//! full pass). Publishing thus costs what the two deltas cost, not what
//! the index weighs.
//!
//! The fallback: when a reader still holds the retired generation — a
//! shard that has seen no live request since, a caller keeping an
//! `Arc<LiveWeights>` — the server lets go of it instead (the reader's
//! copy stays valid and is never written) and the update works on a
//! fresh clone of the served columns, or a fresh customization for a
//! full update. `pathrank_serve_snapshot_buffers_total` counts both
//! sources; the first two updates of a server's life are always
//! `cloned`.
//!
//! The served copy itself is never written. Update latency decomposes
//! into `pathrank_serve_publish_ns` (reclaim, level, swap) +
//! `pathrank_cch_customize_ns`. Workers snapshot the slot once per
//! batch, so every request in a batch — and every individual query,
//! which folds costs over that snapshot's unpacked edges — observes
//! exactly one generation, never a mix. Updates serialize on the
//! retired slot's lock, held across stamp-and-publish, which keeps
//! generations observed through the served slot monotone even when
//! sparse and full updates race. The engine's own `usable_for` gate
//! stays on underneath as defence in depth.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pathrank_obs::{MetricsSnapshot, Registry, TraceRecord};
use pathrank_spatial::algo::cch::{Cch, CchTopology};
use pathrank_spatial::algo::ch::ContractionHierarchy;
use pathrank_spatial::algo::engine::{EngineObs, QueryEngine, SearchBackend};
use pathrank_spatial::algo::landmarks::LandmarkTable;
use pathrank_spatial::graph::{CostModel, EdgeId, Graph, VertexId};

use crate::obs::ServeObs;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shards; `0` means one per available core
    /// (thread-per-core).
    pub shards: usize,
    /// Bounded admission queue depth per shard; a full queue sheds with
    /// [`ServeError::QueueFull`] instead of queueing unboundedly.
    pub queue_capacity: usize,
    /// How long a worker may wait for stragglers to grow a batch that
    /// is still below [`ServeConfig::min_batch_for_m2m`]. Zero disables
    /// waiting; already-queued requests still coalesce for free.
    pub batch_window: Duration,
    /// How many *extra* requests the greedy drain must have found
    /// (beyond the one that woke the worker) before the straggler
    /// window opens at all. An empty drain means the shard is running
    /// below its batching break-even — a handful of synchronous clients
    /// — and waiting the window out only adds latency per request
    /// without ever forming a batch.
    /// The default `1` keeps the window shut until queue depth proves
    /// there is traffic to coalesce; `0` restores the old
    /// always-wait behaviour.
    pub straggler_min_queued: usize,
    /// Hard cap on coalesced batch size.
    pub max_batch: usize,
    /// Smallest batch worth *considering* a bucket m2m fill. Even past
    /// this floor, the group only coalesces when the fill actually
    /// saves sweeps for its shape — see `coalescing_wins`: a drained
    /// queue of B unrelated point queries (the low-concurrency regime)
    /// costs `S + T = 2B` half-sweeps through m2m, all bucket overhead
    /// and no saving, so it dispatches pointwise instead. `usize::MAX`
    /// with a zero [`ServeConfig::batch_window`] turns batching off:
    /// every request dispatches individually.
    pub min_batch_for_m2m: usize,
    /// Whether queries no index covers may fall back to plain Dijkstra.
    /// `false` turns the ladder's last rung into
    /// [`ServeError::NoBackend`] — an overload guard for big graphs
    /// where one plain sweep can starve a shard.
    pub allow_plain: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 0,
            queue_capacity: 1024,
            batch_window: Duration::from_micros(200),
            straggler_min_queued: 1,
            max_batch: 64,
            min_batch_for_m2m: 4,
            allow_plain: true,
        }
    }
}

/// Which cost model a request routes under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Static edge lengths ([`CostModel::Length`]).
    Length,
    /// Static free-flow travel time ([`CostModel::TravelTime`]).
    TravelTime,
    /// The latest live weight vector
    /// ([`RouteServer::update_live_weights`]), served through the
    /// re-customized CCH as [`CostModel::Custom`].
    Live,
}

/// Every metric in declaration order, so `metric as usize` indexes it —
/// the order the groups of a mixed batch are served in.
const METRICS: [Metric; 3] = [Metric::Length, Metric::TravelTime, Metric::Live];

/// One point-to-point routing request.
#[derive(Debug, Clone, Copy)]
pub struct RouteRequest {
    /// Route origin.
    pub source: VertexId,
    /// Route destination.
    pub target: VertexId,
    /// Cost model to route under.
    pub metric: Metric,
    /// Drop-dead time: the server sheds the request (at admission or
    /// when its batch starts) once this instant passes. `None` never
    /// expires.
    pub deadline: Option<Instant>,
}

/// A served answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteReply {
    /// Cheapest route cost, `None` when the target is unreachable.
    pub cost: Option<f64>,
    /// Which backend rung answered.
    pub backend: SearchBackend,
    /// Whether the answer came out of a coalesced m2m fill.
    pub batched: bool,
    /// Live-weights generation that answered (`0` for static metrics).
    pub weights_generation: u64,
}

/// Why a request was not answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The shard's bounded queue was full — shed at admission.
    QueueFull,
    /// The deadline passed before the request was served.
    DeadlineExpired,
    /// No backend covers the metric (no live weights installed, or the
    /// plain rung is disabled and no index matches). Also returned by
    /// [`RouteServer::update_live_weights_sparse`] before any full
    /// vector has been installed — a sparse delta patches an existing
    /// generation and has nothing to patch yet.
    NoBackend,
    /// A weight vector of the wrong length, a sparse update naming a
    /// nonexistent edge, or any non-finite/negative entry — rejected
    /// before it could poison a customization.
    InvalidWeights,
    /// The server is shutting down.
    Shutdown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ServeError::QueueFull => "shard queue full",
            ServeError::DeadlineExpired => "deadline expired",
            ServeError::NoBackend => "no backend covers the metric",
            ServeError::InvalidWeights => "invalid live weight vector",
            ServeError::Shutdown => "server shut down",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ServeError {}

/// One immutable live-weight generation: a CCH customization, which
/// owns the weight vector it was customized for
/// ([`Cch::custom_weights`] — what queries fold with
/// [`CostModel::Custom`]), so the two can only ever swap as a pair.
#[derive(Debug)]
pub struct LiveWeights {
    /// Monotone generation counter (first install is 1).
    pub generation: u64,
    /// The customized index and its weight vector.
    pub cch: Arc<Cch>,
}

/// The shared indexes workers attach to their engines. All optional —
/// the ladder simply skips missing rungs.
#[derive(Clone, Default)]
pub struct ServerIndexes {
    /// Metric-built contraction hierarchy (strongest rung for its
    /// metric).
    pub ch: Option<Arc<ContractionHierarchy>>,
    /// ALT landmark table (the CH's fallback rung).
    pub landmarks: Option<Arc<LandmarkTable>>,
    /// Metric-independent CCH topology; required for
    /// [`Metric::Live`] / [`RouteServer::update_live_weights`].
    pub cch_topology: Option<Arc<CchTopology>>,
}

/// Cumulative server counters ([`RouteServer::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered with a [`RouteReply`].
    pub served: u64,
    /// Of those, answered out of a coalesced m2m fill.
    pub batched: u64,
    /// Requests shed because their deadline passed in the queue.
    pub shed_deadline: u64,
    /// Requests rejected at admission because the shard queue was full.
    pub shed_queue_full: u64,
    /// Requests rejected because no backend covered their metric.
    pub no_backend: u64,
}

struct LiveState {
    /// The generation `current` replaced, kept so the next update can
    /// write into its buffers (see the module doc); `None` until the
    /// second publish. Its lock is the update lock: held from
    /// reclaiming the buffer to publishing it.
    retired: Mutex<Option<Arc<LiveWeights>>>,
    /// The served generation. Never written: queries read it lock-free
    /// for a whole batch while the next generation is customized.
    current: Mutex<Option<Arc<LiveWeights>>>,
    generation: AtomicU64,
}

impl LiveState {
    /// A handle on the served generation.
    fn served(&self) -> Option<Arc<LiveWeights>> {
        self.current.lock().expect("live lock").clone()
    }
}

struct Job {
    req: RouteRequest,
    reply: SyncSender<Result<RouteReply, ServeError>>,
    /// When admission enqueued the job — the end-to-end latency
    /// histogram records `admitted -> reply` for served requests.
    admitted: Instant,
}

/// A submitted request's reply slot ([`RouteServer::submit`]).
pub struct PendingRoute {
    rx: Receiver<Result<RouteReply, ServeError>>,
}

impl PendingRoute {
    /// Blocks until the shard answers (or sheds) the request.
    pub fn wait(self) -> Result<RouteReply, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Shutdown))
    }
}

/// The running server: shard workers plus the shared live-weight state.
pub struct RouteServer {
    graph: Arc<Graph>,
    indexes: ServerIndexes,
    live: Arc<LiveState>,
    obs: Arc<ServeObs>,
    senders: Vec<SyncSender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl RouteServer {
    /// Starts the shard workers with a live metrics registry of their
    /// own ([`RouteServer::metrics_snapshot`] scrapes it).
    /// `cfg.shards == 0` spawns one per available core.
    pub fn start(graph: Arc<Graph>, indexes: ServerIndexes, cfg: ServeConfig) -> Self {
        Self::start_with_metrics(graph, indexes, cfg, Registry::new())
    }

    /// [`RouteServer::start`] against a caller-supplied registry — pass
    /// [`Registry::disabled`] to serve with every metric a no-op sink
    /// (the obs-off escape hatch), or a shared live registry to scrape
    /// the server alongside other components.
    pub fn start_with_metrics(
        graph: Arc<Graph>,
        indexes: ServerIndexes,
        cfg: ServeConfig,
        registry: Registry,
    ) -> Self {
        let shards = if cfg.shards == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            cfg.shards
        };
        let live = Arc::new(LiveState {
            retired: Mutex::new(None),
            current: Mutex::new(None),
            generation: AtomicU64::new(0),
        });
        let obs = Arc::new(ServeObs::new(registry, shards));
        let (ch, topo) = (indexes.ch.as_ref(), indexes.cch_topology.as_ref());
        obs.ch_bytes.set(ch.map_or(0, |i| i.heap_bytes() as i64));
        obs.cch_topology_bytes
            .set(topo.map_or(0, |i| i.heap_bytes() as i64));
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_capacity.max(1));
            senders.push(tx);
            let g = Arc::clone(&graph);
            let idx = indexes.clone();
            let lv = Arc::clone(&live);
            let ob = Arc::clone(&obs);
            let wc = cfg.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("route-shard-{shard}"))
                    .spawn(move || worker_loop(&g, &idx, &lv, &ob, &wc, rx, shard))
                    .expect("spawn shard worker"),
            );
        }
        RouteServer {
            graph,
            indexes,
            live,
            obs,
            senders,
            handles,
        }
    }

    /// The graph the server routes on.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Number of shard workers.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// Cumulative counters across all shards, derived from the metric
    /// registry (the typed quick-look subset of
    /// [`RouteServer::metrics_snapshot`]).
    pub fn stats(&self) -> ServeStats {
        let batched = self.obs.served_batched.value();
        ServeStats {
            served: self.obs.served_sequential.value() + batched,
            batched,
            shed_deadline: self.obs.shed_deadline_admission.value()
                + self.obs.shed_deadline_batch.value(),
            shed_queue_full: self.obs.shed_queue_full.value(),
            no_backend: self.obs.error_count(ServeError::NoBackend),
        }
    }

    /// The metrics registry this server records into — share it with
    /// other components or scrape it directly.
    pub fn registry(&self) -> &Registry {
        &self.obs.registry
    }

    /// A point-in-time scrape of every registered series (counters,
    /// gauges, histograms). This is what the TCP `STATS` command
    /// serializes and what the benchmark differences around its timed
    /// windows.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.obs.registry.snapshot()
    }

    /// Cumulative count of error replies for one [`ServeError`] variant
    /// — quoted by the TCP layer's `ERR <Variant> n=<count>` replies.
    pub fn error_count(&self, e: ServeError) -> u64 {
        self.obs.error_count(e)
    }

    /// Drains the worker trace rings: batch spans (arg = batch size)
    /// and live-swap events, time-sorted across shards. Empty when the
    /// server was started with a disabled registry.
    pub fn drain_trace(&self) -> Vec<TraceRecord> {
        self.obs.tracer.drain()
    }

    /// Generation of the currently installed live weights (`0` before
    /// the first [`RouteServer::update_live_weights`]).
    pub fn live_generation(&self) -> u64 {
        self.live.generation.load(Ordering::SeqCst)
    }

    /// The generation currently being served (`None` before the first
    /// [`RouteServer::update_live_weights`]). Holding the handle keeps
    /// that generation's buffers from being recycled; it is never
    /// written.
    pub fn live_weights(&self) -> Option<Arc<LiveWeights>> {
        self.live.served()
    }

    /// Installs a new live weight vector: validates it, customizes the
    /// retired generation's buffers for it *on the calling thread*
    /// (workers keep serving the previous generation meanwhile; in
    /// steady state nothing is allocated), then atomically swaps the
    /// immutable `(weights, index)` pair in. Returns the new generation.
    ///
    /// Errors with [`ServeError::NoBackend`] when the server has no
    /// [`ServerIndexes::cch_topology`], and
    /// [`ServeError::InvalidWeights`] on a wrong-length vector or any
    /// non-finite / negative entry — the contract of
    /// [`CostModel::Custom`], checked before a poisoned vector can reach
    /// a customization.
    pub fn update_live_weights(&self, weights: Vec<f64>) -> Result<u64, ServeError> {
        let Some(topo) = self.indexes.cch_topology.as_ref() else {
            self.obs.error(ServeError::NoBackend);
            return Err(ServeError::NoBackend);
        };
        if weights.len() != self.graph.edge_count()
            || weights.iter().any(|w| !w.is_finite() || *w < 0.0)
        {
            self.obs.error(ServeError::InvalidWeights);
            return Err(ServeError::InvalidWeights);
        }
        let mut retired = self.live.retired.lock().expect("update lock");
        let t_publish = Instant::now();
        let reclaimed = self.reclaim(&mut retired);
        let prepared = t_publish.elapsed();
        let t0 = Instant::now();
        // A full pass overwrites every column: no levelling needed.
        let cch = match reclaimed {
            Some(mut cch) => {
                cch.recustomize_weights(&self.graph, &weights);
                cch
            }
            None => topo.customize_weights(&self.graph, &weights),
        };
        self.obs.customize_full_ns.record_duration(t0.elapsed());
        self.obs.swap_full.inc();
        Ok(self.publish(&mut retired, cch, prepared))
    }

    /// Patches the installed live weights with a sparse telemetry delta
    /// — `(edge, new weight)` pairs, duplicates last-wins — and
    /// re-customizes *partially*: only the shortcut arcs whose weight
    /// actually changes are re-relaxed (`Cch::apply_weight_delta`),
    /// which is bit-identical to a full re-customization of the patched
    /// vector but costs microseconds for percent-level deltas. Runs off
    /// the serving path on the retired generation's buffers, brought
    /// level with the served one first, and atomically swaps them in,
    /// exactly like [`RouteServer::update_live_weights`]. Returns the
    /// new generation; an empty (or pure-echo) delta still publishes
    /// one, so callers can fence on it.
    ///
    /// Errors with [`ServeError::NoBackend`] when no CCH topology is
    /// mounted *or no full vector has been installed yet* (a delta
    /// patches the previous generation), and
    /// [`ServeError::InvalidWeights`] when an update names a
    /// nonexistent edge or carries a non-finite / negative weight.
    pub fn update_live_weights_sparse(&self, updates: &[(EdgeId, f64)]) -> Result<u64, ServeError> {
        if self.indexes.cch_topology.is_none() {
            self.obs.error(ServeError::NoBackend);
            return Err(ServeError::NoBackend);
        }
        let m = self.graph.edge_count();
        if updates
            .iter()
            .any(|&(e, w)| e.index() >= m || !w.is_finite() || w < 0.0)
        {
            self.obs.error(ServeError::InvalidWeights);
            return Err(ServeError::InvalidWeights);
        }
        let mut retired = self.live.retired.lock().expect("update lock");
        let Some(served) = self.live.served() else {
            self.obs.error(ServeError::NoBackend);
            return Err(ServeError::NoBackend);
        };
        let t_publish = Instant::now();
        let mut cch = match self.reclaim(&mut retired) {
            Some(mut cch) => {
                cch.clone_from(&served.cch);
                cch
            }
            None => Cch::clone(&served.cch),
        };
        let prepared = t_publish.elapsed();
        let t0 = Instant::now();
        let recomputed = cch.apply_weight_delta(updates);
        self.obs.customize_sparse_ns.record_duration(t0.elapsed());
        self.obs.delta_edges.record(updates.len() as u64);
        self.obs.recomputed_arcs.record(recomputed as u64);
        self.obs.swap_sparse.inc();
        Ok(self.publish(&mut retired, cch, prepared))
    }

    /// Takes the retired generation's `Cch` back for the next update to
    /// write — unless a reader still holds that generation, in which
    /// case the server's handle is dropped and the reader keeps the only
    /// one. Counts the outcome.
    fn reclaim(&self, retired: &mut Option<Arc<LiveWeights>>) -> Option<Cch> {
        let cch = retired
            .take()
            .and_then(|lw| Arc::try_unwrap(lw).ok())
            .and_then(|lw| Arc::try_unwrap(lw.cch).ok());
        match cch {
            Some(_) => self.obs.buffers_recycled.inc(),
            None => self.obs.buffers_cloned.inc(),
        }
        cch
    }

    /// Publishes `cch` as the next generation: stamps it, swaps it into
    /// the served slot and retires the generation it replaces.
    /// `retired` is the guard of the update lock — holding it across
    /// stamp-and-swap serializes generation assignment with the publish
    /// itself, so generations observed through the served slot are
    /// monotone even when sparse and full updates race. `prepared` is
    /// the time already spent getting `cch`'s buffers ready.
    fn publish(&self, retired: &mut Option<Arc<LiveWeights>>, cch: Cch, prepared: Duration) -> u64 {
        let t0 = Instant::now();
        self.obs.snapshot_bytes.set(cch.heap_bytes() as i64);
        let generation = self.live.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let cch = Arc::new(cch);
        let lw = Arc::new(LiveWeights { generation, cch });
        *retired = self.live.current.lock().expect("live lock").replace(lw);
        self.obs.live_generation.set(generation as i64);
        self.obs.publish_ns.record_duration(prepared + t0.elapsed());
        generation
    }

    /// Admits a request without blocking: hashes it onto its shard and
    /// enqueues it, returning the reply slot. Sheds immediately when
    /// the deadline has already passed or the shard queue is full.
    pub fn submit(&self, req: RouteRequest) -> Result<PendingRoute, ServeError> {
        if req.deadline.is_some_and(|d| Instant::now() >= d) {
            self.obs.shed_deadline_admission.inc();
            self.obs.error(ServeError::DeadlineExpired);
            return Err(ServeError::DeadlineExpired);
        }
        // Fibonacci hash of the source vertex: same-source bursts land
        // on one shard, where their forward sweep is shared.
        let h = (req.source.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let shard = (h >> 33) as usize % self.senders.len();
        let (tx, rx) = mpsc::sync_channel(1);
        let job = Job {
            req,
            reply: tx,
            admitted: Instant::now(),
        };
        match self.senders[shard].try_send(job) {
            Ok(()) => {
                self.obs.queue_depth[shard].add(1);
                Ok(PendingRoute { rx })
            }
            Err(TrySendError::Full(_)) => {
                self.obs.shed_queue_full.inc();
                self.obs.error(ServeError::QueueFull);
                Err(ServeError::QueueFull)
            }
            Err(TrySendError::Disconnected(_)) => {
                self.obs.error(ServeError::Shutdown);
                Err(ServeError::Shutdown)
            }
        }
    }

    /// [`RouteServer::submit`] + [`PendingRoute::wait`].
    pub fn route(&self, req: RouteRequest) -> Result<RouteReply, ServeError> {
        self.submit(req)?.wait()
    }

    /// Stops accepting work, drains the shards and joins the workers —
    /// what dropping the server does.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for RouteServer {
    fn drop(&mut self) {
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One shard's serving loop: block for work, coalesce, process.
fn worker_loop(
    g: &Arc<Graph>,
    idx: &ServerIndexes,
    live: &Arc<LiveState>,
    obs: &Arc<ServeObs>,
    cfg: &ServeConfig,
    rx: Receiver<Job>,
    shard: usize,
) {
    let mut engine = QueryEngine::new(g);
    engine.set_landmarks(idx.landmarks.clone());
    engine.set_ch(idx.ch.clone());
    engine.set_obs(EngineObs::new(&obs.registry));
    let trace = obs.tracer.register(format!("route-shard-{shard}"));
    let depth = obs.queue_depth[shard].clone();
    // The live generation this engine's CCH slot currently matches;
    // swapped lazily when a batch snapshots a newer one.
    let mut mounted_live: Option<Arc<LiveWeights>> = None;
    let mut batch: Vec<Job> = Vec::new();
    // `process_batch`'s per-metric groups, kept so their allocations are
    // reused across batches.
    let mut groups: [Vec<Job>; METRICS.len()] = Default::default();
    loop {
        let first = match rx.recv() {
            Ok(job) => job,
            Err(_) => return, // all senders gone: shutdown
        };
        depth.sub(1);
        batch.push(first);
        // Greedy drain: whatever queued while we were busy batches for
        // free — no request waits a window it doesn't have to.
        while batch.len() < cfg.max_batch {
            match rx.try_recv() {
                Ok(job) => {
                    depth.sub(1);
                    batch.push(job);
                }
                Err(_) => break,
            }
        }
        // Straggler window, only while the batch is still below the
        // m2m threshold and never past the earliest deadline on board.
        // The drain above is also the load signal: unless it found at
        // least `straggler_min_queued` extras, the shard is below its
        // batching break-even and the window would be pure added
        // latency, so it stays shut and the request dispatches now.
        if cfg.batch_window > Duration::ZERO
            && batch.len() < cfg.min_batch_for_m2m
            && batch.len() > cfg.straggler_min_queued
        {
            let window_end = Instant::now() + cfg.batch_window;
            let wait_until = batch
                .iter()
                .filter_map(|j| j.req.deadline)
                .min()
                .map_or(window_end, |d| d.min(window_end));
            // Stop as soon as the batch is m2m-worthy: the window only
            // exists to reach that threshold, and anything queued past
            // it coalesces for free on the next greedy drain. Sitting
            // the window out at a low client count would otherwise tax
            // every request the full window even though the handful of
            // closed-loop clients can never push the batch further.
            let window_target = cfg.min_batch_for_m2m.min(cfg.max_batch);
            while batch.len() < window_target {
                let now = Instant::now();
                let Some(remaining) = wait_until.checked_duration_since(now) else {
                    break;
                };
                if remaining.is_zero() {
                    break;
                }
                match rx.recv_timeout(remaining) {
                    Ok(job) => {
                        depth.sub(1);
                        batch.push(job);
                    }
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        obs.batch_size.record(batch.len() as u64);
        let span = trace.span("batch", batch.len() as u64);
        process_batch(
            &mut engine,
            live,
            obs,
            cfg,
            &mut mounted_live,
            &mut batch,
            &mut groups,
        );
        drop(span);
    }
}

/// Sheds expired jobs, groups the rest by metric and serves each group,
/// in [`METRICS`] order. `groups` comes in and goes out empty.
fn process_batch(
    engine: &mut QueryEngine<'_>,
    live: &Arc<LiveState>,
    obs: &ServeObs,
    cfg: &ServeConfig,
    mounted_live: &mut Option<Arc<LiveWeights>>,
    batch: &mut Vec<Job>,
    groups: &mut [Vec<Job>; METRICS.len()],
) {
    let now = Instant::now();
    for job in batch.drain(..) {
        if job.req.deadline.is_some_and(|d| now >= d) {
            obs.shed_deadline_batch.inc();
            obs.error(ServeError::DeadlineExpired);
            let _ = job.reply.send(Err(ServeError::DeadlineExpired));
            continue;
        }
        groups[job.req.metric as usize].push(job);
    }
    for (metric, jobs) in METRICS.into_iter().zip(groups) {
        if jobs.is_empty() {
            continue;
        }
        match metric {
            Metric::Length => serve_group(engine, obs, cfg, jobs, CostModel::Length, 0),
            Metric::TravelTime => serve_group(engine, obs, cfg, jobs, CostModel::TravelTime, 0),
            Metric::Live => {
                // One snapshot per batch: every request in it sees this
                // exact (weights, cch) pair — old or new around a swap,
                // never a mix.
                let Some(lw) = live.served() else {
                    for job in jobs.drain(..) {
                        obs.error(ServeError::NoBackend);
                        let _ = job.reply.send(Err(ServeError::NoBackend));
                    }
                    continue;
                };
                if mounted_live.as_ref().is_none_or(|m| !Arc::ptr_eq(m, &lw)) {
                    engine.set_cch(Some(Arc::clone(&lw.cch)));
                    *mounted_live = Some(Arc::clone(&lw));
                }
                let weights = lw
                    .cch
                    .custom_weights()
                    .expect("live CCHs are customized from a vector");
                serve_group(
                    engine,
                    obs,
                    cfg,
                    jobs,
                    CostModel::Custom(weights),
                    lw.generation,
                );
            }
        }
    }
}

/// Serves one same-metric group: batched m2m on the hierarchy rungs
/// when worthwhile, individual backend-dispatched queries otherwise.
fn serve_group(
    engine: &mut QueryEngine<'_>,
    obs: &ServeObs,
    cfg: &ServeConfig,
    jobs: &mut Vec<Job>,
    cost: CostModel<'_>,
    generation: u64,
) {
    let backend = engine.backend_for(cost);
    let hierarchy_backed = matches!(backend, SearchBackend::Ch | SearchBackend::Cch);
    if hierarchy_backed && jobs.len() >= cfg.min_batch_for_m2m && coalescing_wins(jobs) {
        obs.coalesced_batches.inc();
        serve_batched(engine, obs, jobs, cost, backend, generation);
        return;
    }
    if backend == SearchBackend::Plain && !cfg.allow_plain {
        for job in jobs.drain(..) {
            obs.error(ServeError::NoBackend);
            let _ = job.reply.send(Err(ServeError::NoBackend));
        }
        return;
    }
    for job in jobs.drain(..) {
        let cost_val = engine.shortest_path_cost(job.req.source, job.req.target, cost);
        obs.served_sequential.inc();
        obs.latency_ns.record_duration(job.admitted.elapsed());
        let _ = job.reply.send(Ok(RouteReply {
            cost: cost_val,
            backend,
            batched: false,
            weights_generation: generation,
        }));
    }
}

/// Whether the bucket m2m fill actually saves work for this group's
/// shape. The fill costs one backward half-sweep per distinct target
/// plus one forward half-sweep per distinct source; the pairwise
/// bidirectional path costs two half-sweeps per request. Coalescing
/// must save at least two half-sweeps to also cover the fill's bucket
/// deposit/scan and demux overhead. Hub-shaped traffic (many sources,
/// few shared targets) passes easily; a drained queue of a few
/// unrelated point queries — the low-concurrency regime where batching
/// used to *lose* 2.6x — fails and dispatches pointwise.
fn coalescing_wins(jobs: &[Job]) -> bool {
    let mut sources: Vec<u32> = jobs.iter().map(|j| j.req.source.0).collect();
    sources.sort_unstable();
    sources.dedup();
    let mut targets: Vec<u32> = jobs.iter().map(|j| j.req.target.0).collect();
    targets.sort_unstable();
    targets.dedup();
    sources.len() + targets.len() + 2 <= 2 * jobs.len()
}

/// The coalesced path: one bucket preparation over the batch's distinct
/// targets, one forward sweep per distinct source, demuxed back.
fn serve_batched(
    engine: &mut QueryEngine<'_>,
    obs: &ServeObs,
    jobs: &mut Vec<Job>,
    cost: CostModel<'_>,
    backend: SearchBackend,
    generation: u64,
) {
    let mut targets: Vec<VertexId> = jobs.iter().map(|j| j.req.target).collect();
    targets.sort_unstable_by_key(|v| v.0);
    targets.dedup();
    let target_col: HashMap<u32, usize> =
        targets.iter().enumerate().map(|(i, v)| (v.0, i)).collect();
    // `serve_group` resolved `backend` to `Ch`/`Cch` for this `cost` on
    // the same exclusively borrowed engine, untouched since, so the
    // hierarchy covers `cost` and the buckets always fill.
    assert!(
        engine.prepare_m2m_targets(&targets, cost),
        "{backend:?} covers the batch's cost model"
    );
    let mut by_source: HashMap<u32, Vec<Job>> = HashMap::new();
    for job in jobs.drain(..) {
        by_source.entry(job.req.source.0).or_default().push(job);
    }
    for (source, jobs) in by_source {
        let row = engine
            .m2m_distances_from(VertexId(source), cost)
            .expect("buckets prepared above on this backend");
        for job in jobs {
            let d = row[target_col[&job.req.target.0]];
            obs.served_batched.inc();
            obs.latency_ns.record_duration(job.admitted.elapsed());
            let _ = job.reply.send(Ok(RouteReply {
                cost: d.is_finite().then_some(d),
                backend,
                batched: true,
                weights_generation: generation,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{integer_city, integer_live_weights};
    use pathrank_spatial::algo::cch::CchConfig;

    #[test]
    fn serve_snapshot_shares_topology_and_survives_later_deltas() {
        let graph = Arc::new(integer_city(8));
        let topo = Arc::new(CchTopology::build(&graph, &CchConfig::default()));
        let indexes = ServerIndexes {
            cch_topology: Some(Arc::clone(&topo)),
            ..ServerIndexes::default()
        };
        let server = RouteServer::start(Arc::clone(&graph), indexes, ServeConfig::default());
        let base = integer_live_weights(&graph, 0x11);
        assert_eq!(server.update_live_weights(base), Ok(1));
        let snapshot = server.live_weights().expect("installed above");
        // `{:?}` prints every column, and f64's `Debug` form differs
        // wherever the bits do.
        let before = format!("{:?}", snapshot.cch);
        let delta = [(EdgeId(3), 977.0), (EdgeId(40), 61.0)];
        assert_eq!(server.update_live_weights_sparse(&delta), Ok(2));
        let served = server.live_weights().expect("installed above");
        assert!(Arc::ptr_eq(served.cch.topology(), &topo));
        assert!(Arc::ptr_eq(snapshot.cch.topology(), &topo));
        assert!(format!("{:?}", snapshot.cch) == before, "snapshot written");
        assert!(format!("{:?}", served.cch) != before, "the delta moves on");
    }
}
