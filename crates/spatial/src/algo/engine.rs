//! Reusable query engine: generation-stamped search state shared across
//! routing queries.
//!
//! Every routing algorithm in this crate needs the same per-search state —
//! tentative distances, parent pointers, a settled set and a priority
//! queue. Allocating and zero-filling those `O(V)` structures for every
//! query dominates workloads that fire *many* queries against one graph:
//! Yen's top-k runs hundreds of constrained spur searches per
//! origin/destination pair, HMM map matching probes many-to-many shortest
//! paths between candidate layers, and the training-data pipeline does all
//! of the above per trajectory.
//!
//! One label store keeps that state alive across queries and resets it in
//! O(1): a search *side* (`labels::Side`) holds a 16-byte label per vertex
//! — stamp, parent, distance — stamped with the epoch that last wrote it,
//! so stale labels from earlier queries are simply never read, beside its
//! heap and its work counters. Every search in the crate runs on sides:
//! Dijkstra and A* here, and the hierarchies' elimination-tree walks.
//! [`QueryEngine`] owns two, the forward and
//! backward sides of one [`ChSearch`] (the backward one sized on first
//! use), and runs every algorithm of this crate on them as a method.
//! There is no free search function: a one-off query is
//! `QueryEngine::new(g).shortest_path(..)`, and plain Dijkstra on a
//! fresh engine is the exactness harnesses' reference oracle.
//!
//! There is one graph and one search loop. Dijkstra and A*, one-to-one and
//! one-to-all, forward and reverse, with or without banned sets and a cost
//! budget, are all one function (`search`): generic over the ban predicate
//! and the heap key, it walks [`Graph::arcs`] in the direction asked and
//! reads each arc's cost from the one `&[f64]` that
//! [`CostModel::weights`] resolves per query. Relaxation order is
//! therefore the same whoever calls it, and since heap ties pop in push
//! order every output is reproducible bit for bit (pinned by the
//! `engine_golden_*` tests below). The hierarchies have one loop of
//! their own, the elimination-tree walk in [`crate::algo::ch`]: a CH or
//! CCH point query walks the ancestors of both endpoints, and a
//! many-to-many table ([`crate::algo::m2m`]) walks once per target and
//! once per source.
//!
//! # Example
//!
//! ```
//! use pathrank_spatial::algo::engine::QueryEngine;
//! use pathrank_spatial::generators::{grid_network, GridConfig};
//! use pathrank_spatial::graph::{CostModel, VertexId};
//!
//! let g = grid_network(&GridConfig::small_test(), 7);
//! let mut engine = QueryEngine::new(&g);
//! // Repeated queries reuse the same search labels — no per-query O(V)
//! // allocation after the first.
//! let a = engine.shortest_path(VertexId(0), VertexId(24), CostModel::Length).unwrap();
//! let b = engine.shortest_path(VertexId(24), VertexId(3), CostModel::TravelTime).unwrap();
//! assert!(a.length_m(&g) > 0.0 && b.length_m(&g) > 0.0);
//! ```

use std::sync::Arc;

use pathrank_obs::{Counter, Registry};

use crate::algo::cch::Cch;
use crate::algo::ch::{ChSearch, ContractionHierarchy, HierarchyView};
use crate::algo::diversified::DiversifiedConfig;
use crate::algo::labels::{Side, NO_PARENT};
use crate::algo::landmarks::{LandmarkTable, NodeVectors};
use crate::algo::m2m::DistanceTable;
use crate::algo::yen::YenIter;
use crate::geometry::Point;
use crate::graph::{CostModel, EdgeId, Graph, VertexId};
use crate::path::Path;
use crate::similarity::{sorted_edge_set, weighted_jaccard_sorted};
use crate::util::BitSet;

/// The ban set of an unconstrained search.
#[inline]
fn no_bans(_: VertexId, _: EdgeId) -> bool {
    false
}

/// The ban set of a constrained search: arcs into a banned vertex or over
/// a banned edge.
#[inline]
fn banned_by<'a>(
    vertices: &'a BitSet,
    edges: &'a BitSet,
) -> impl Fn(VertexId, EdgeId) -> bool + 'a {
    move |v, e| vertices.contains(v.0) || edges.contains(e.0)
}

/// Dijkstra's heap key: the g-score itself.
#[inline]
fn dijkstra_key(_: VertexId, g_score: f64) -> f64 {
    g_score
}

/// The search loop every Dijkstra and A* entry point runs, on `side`:
/// from `source` over the outgoing arcs of `g` (the incoming ones with
/// `reverse`), stopping once `target` settles when one is given, never
/// relaxing an arc `banned` rejects. Starts a fresh search on the side.
/// Distances are g-scores and the heap is keyed on `key(v, g-score)`:
/// the g-score itself is Dijkstra, g-score plus an admissible, consistent
/// bound on the rest is A*. Bans only shrink the edge set, so true
/// distances only grow and any full-graph bound — Euclidean or ALT —
/// stays admissible under them. A label's parent word is the edge that
/// reached it; [`TreeView::parent_of`] reads the parent vertex off it.
///
/// A reverse search yields distances *into* `source`, and its parent
/// chain points forward: the parent of `v` is the next hop on a cheapest
/// `v -> source` path.
///
/// The search stops at the first popped key above `max_cost` and then
/// returns `true`. Keys pop in non-decreasing order and every open
/// vertex of a cheapest path has a key no greater than that path's cost,
/// so no path within the budget is left; whatever was settled before
/// that is exactly what the unbudgeted search settles first.
#[allow(clippy::too_many_arguments)]
fn search(
    side: &mut Side,
    g: &Graph,
    source: VertexId,
    target: Option<VertexId>,
    reverse: bool,
    weights: &[f64],
    banned: impl Fn(VertexId, EdgeId) -> bool,
    key: impl Fn(VertexId, f64) -> f64,
    max_cost: f64,
) -> bool {
    side.begin(g.vertex_count());
    side.push(source, 0.0, NO_PARENT, key(source, 0.0));

    while let Some((k, u)) = side.pop() {
        if k > max_cost {
            return true;
        }
        if side.is_settled(u) {
            continue; // stale heap entry
        }
        side.settle(u);
        if target == Some(u) {
            break;
        }
        let du = side.dist(u);
        for (v, e) in g.arcs(u, reverse) {
            if side.is_settled(v) || banned(v, e) {
                continue;
            }
            let w = weights[e.index()];
            debug_assert!(
                w >= 0.0,
                "Dijkstra requires non-negative edge costs, got {w}"
            );
            let nd = du + w;
            if nd < side.dist(v) {
                side.push(v, nd, e.0, key(v, nd));
            }
        }
    }
    false
}

/// [`search`] as plain Dijkstra with no bans and no budget; a full sweep
/// when `target` is `None`.
fn dijkstra(
    side: &mut Side,
    g: &Graph,
    source: VertexId,
    target: Option<VertexId>,
    reverse: bool,
    weights: &[f64],
) {
    search(
        side,
        g,
        source,
        target,
        reverse,
        weights,
        no_bans,
        dijkstra_key,
        f64::INFINITY,
    );
}

/// An admissible, consistent lower bound on the remaining distance to a
/// forward search's target — the key of every target-directed search in
/// this crate (ALT-backed point-to-point queries and the Yen/diversified
/// spur searches of [`QueryEngine::constrained_shortest_path`]).
///
/// Variants are ordered from weakest to strongest: `None` degenerates the
/// search to plain Dijkstra; `Euclid` is straight-line distance scaled by
/// [`safe_heuristic_bound`]; `Alt` is the landmark triangle-inequality
/// bound maxed with the Euclidean one, so attaching landmarks can only
/// tighten the search. All variants are exact: they never overestimate,
/// so every guided search returns cost-optimal paths (tie-breaking among
/// equal-cost optima may differ between variants).
#[derive(Debug)]
pub(crate) enum Heuristic<'a> {
    /// No usable bound (e.g. [`CostModel::Custom`] with no landmark
    /// table): the search runs as plain Dijkstra.
    None,
    /// `h(v) = euclid(v, anchor) · per_meter` with the cached
    /// [`safe_heuristic_bound`] rate.
    Euclid {
        /// The target's coordinates.
        anchor: Point,
        /// Admissible cost-per-metre rate (see [`safe_heuristic_bound`]).
        per_meter: f64,
    },
    /// `h(v) = max(ALT triangle bound, euclid(v, anchor) · per_meter)`.
    Alt {
        /// The landmark distance table (metric-checked by the engine).
        table: &'a LandmarkTable,
        /// Cached distance vectors for the target.
        cache: &'a NodeVectors,
        /// The target's coordinates.
        anchor: Point,
        /// Admissible cost-per-metre rate for the Euclidean floor.
        per_meter: f64,
    },
}

impl Heuristic<'_> {
    /// Whether the heuristic provides any guidance (under an inactive one
    /// callers key the search as plain Dijkstra instead).
    #[inline]
    fn is_active(&self) -> bool {
        !matches!(self, Heuristic::None)
    }

    /// Lower bound on `d(v, target)`. May legitimately return `INFINITY`
    /// (the ALT vectors prove the target unreachable from `v`); never NaN.
    #[inline]
    fn eval(&self, g: &Graph, v: VertexId) -> f64 {
        match self {
            Heuristic::None => 0.0,
            Heuristic::Euclid { anchor, per_meter } => g.coord(v).distance(anchor) * per_meter,
            Heuristic::Alt {
                table,
                cache,
                anchor,
                per_meter,
            } => table
                .bound_to_node(cache, v)
                .max(g.coord(v).distance(anchor) * per_meter),
        }
    }
}

/// The index-backed search regime a point-to-point query dispatches
/// through, resolved **per query** from the engine's attached indexes and
/// the query's cost model ([`QueryEngine::backend_for`]).
///
/// Variants are ordered from weakest to strongest. Resolution picks the
/// strongest backend whose exactness precondition holds:
///
/// * [`SearchBackend::Ch`] — a [`ContractionHierarchy`] is attached and
///   its metric matches the query's cost model. Only *unconstrained*
///   queries qualify: shortcuts bake full-graph paths into single arcs,
///   so a banned vertex or edge could hide inside one
///   ([`QueryEngine::constrained_backend_for`] therefore never returns
///   `Ch`).
/// * [`SearchBackend::Cch`] — a customized [`Cch`] is attached and covers
///   the cost model: the metric it was customized for, or — uniquely
///   among the index backends — a [`CostModel::Custom`] vector bitwise
///   equal to the customized one. Same unconstrained-only rule as `Ch`
///   (its arcs are shortcuts too); ranked below `Ch` because it keeps
///   every arc of the chordal topology, where the metric-built CH keeps
///   only the arcs its perfect customization left alone.
/// * [`SearchBackend::Alt`] — a [`LandmarkTable`] is attached and covers
///   the cost model. Landmark lower bounds survive banned sets (bans
///   only shrink the graph), so this is also the strongest constrained
///   regime.
/// * [`SearchBackend::Plain`] — no usable index: early-exit Dijkstra for
///   unconstrained queries; constrained (spur) searches run A* under the
///   cached Euclidean [`safe_heuristic_bound`].
///
/// Every regime is exact: backends change how much work a query does,
/// never which cost it returns (tie-breaking among equal-cost optima may
/// differ — locked in by `tests/alt_exactness.rs` and
/// `tests/ch_exactness.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchBackend {
    /// No index: Dijkstra / cached-Euclidean A*.
    Plain,
    /// ALT landmark triangle-inequality bounds.
    Alt,
    /// Customizable-CH bidirectional upward search on re-customized
    /// weights (see [`crate::algo::cch`]).
    Cch,
    /// Contraction-hierarchy bidirectional upward search.
    Ch,
}

/// Cloneable metric handles for [`QueryEngine`] instrumentation,
/// registered once against a [`pathrank_obs::Registry`] and cloned into
/// every worker engine ([`QueryEngine::with_obs`]).
///
/// The engine's hot loops stay atomics-free: its two search sides keep
/// plain lifetime work counters ([`crate::algo::ch::ChSearch::work_counters`]),
/// and the per-query instrumentation differences them around the
/// dispatch, folding the delta into sharded registry counters — two
/// relaxed atomic adds per *query* or table, zero per settled vertex. Handles from
/// [`EngineObs::disabled`] (the default on every new engine) are no-op
/// sinks, so un-instrumented callers pay one predictable branch.
///
/// Registered families:
/// * `pathrank_engine_queries_total{backend}` — point-to-point queries
///   by resolved [`SearchBackend`].
/// * `pathrank_engine_fallback_total{index}` — queries that skipped an
///   attached index (`ch`/`cch`/`alt`) because it does not cover the
///   cost model.
/// * `pathrank_engine_settled_nodes_total` /
///   `pathrank_engine_heap_pushes_total` — search work of point queries
///   and many-to-many tables, summed over both sides.
/// * `pathrank_engine_spur_searches_total{outcome}` /
///   `pathrank_engine_spur_settled_nodes_total` — constrained (Yen spur)
///   searches by outcome (`found`, `over_budget`, `unreachable`) and the
///   vertices they settled; counted apart from the point-to-point
///   families above, which they never enter.
#[derive(Clone)]
pub struct EngineObs {
    enabled: bool,
    /// Counter shard pinned at construction ([`Counter::shard_hint`]):
    /// engines are effectively thread-affine, so resolving the shard
    /// once lets every record skip the per-add thread-local lookup.
    shard: usize,
    /// Indexed by [`EngineObs::backend_slot`]: plain, alt, cch, ch.
    queries: [Counter; 4],
    /// `[ch, cch, alt]`.
    fallback: [Counter; 3],
    settled: Counter,
    pushed: Counter,
    /// `[found, over_budget, unreachable]`.
    spur_searches: [Counter; 3],
    spur_settled: Counter,
}

impl EngineObs {
    /// Registers the engine metric families on `registry` (idempotent —
    /// workers may each call this) and returns live handles. A disabled
    /// registry yields the same no-op handles as [`EngineObs::disabled`].
    pub fn new(registry: &Registry) -> Self {
        let backend = |b: &str| {
            registry.counter(
                "pathrank_engine_queries_total",
                "Point-to-point queries served, by resolved search backend",
                &[("backend", b)],
            )
        };
        let fb = |ix: &str| {
            registry.counter(
                "pathrank_engine_fallback_total",
                "Queries that skipped an attached index not covering their cost model",
                &[("index", ix)],
            )
        };
        let spur = |outcome: &str| {
            registry.counter(
                "pathrank_engine_spur_searches_total",
                "Constrained (Yen spur) searches, by outcome",
                &[("outcome", outcome)],
            )
        };
        EngineObs {
            enabled: registry.is_enabled(),
            shard: Counter::shard_hint(),
            queries: [
                backend("plain"),
                backend("alt"),
                backend("cch"),
                backend("ch"),
            ],
            fallback: [fb("ch"), fb("cch"), fb("alt")],
            settled: registry.counter(
                "pathrank_engine_settled_nodes_total",
                "Vertices settled by point-to-point queries and many-to-many tables, all backends",
                &[],
            ),
            pushed: registry.counter(
                "pathrank_engine_heap_pushes_total",
                "Heap pushes (relaxations) by point-to-point queries and many-to-many tables, all backends",
                &[],
            ),
            spur_searches: [spur("found"), spur("over_budget"), spur("unreachable")],
            spur_settled: registry.counter(
                "pathrank_engine_spur_settled_nodes_total",
                "Vertices settled by constrained (Yen spur) searches",
                &[],
            ),
        }
    }

    /// The no-op sink every new engine starts with.
    pub fn disabled() -> Self {
        EngineObs {
            enabled: false,
            shard: 0,
            queries: [
                Counter::noop(),
                Counter::noop(),
                Counter::noop(),
                Counter::noop(),
            ],
            fallback: [Counter::noop(), Counter::noop(), Counter::noop()],
            settled: Counter::noop(),
            pushed: Counter::noop(),
            spur_searches: [Counter::noop(), Counter::noop(), Counter::noop()],
            spur_settled: Counter::noop(),
        }
    }

    /// Whether these handles actually record.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Strength ordinal doubling as the `queries` array slot.
    fn backend_slot(backend: SearchBackend) -> usize {
        match backend {
            SearchBackend::Plain => 0,
            SearchBackend::Alt => 1,
            SearchBackend::Cch => 2,
            SearchBackend::Ch => 3,
        }
    }
}

impl Default for EngineObs {
    fn default() -> Self {
        EngineObs::disabled()
    }
}

/// Borrowed read-only view of a completed Dijkstra/A* search — the one
/// shape one-to-all results come in.
///
/// It does not copy the `O(V)` labels; it reads straight from the
/// engine's search side, so a reused engine performs no per-query
/// allocation for one-to-all queries either.
#[derive(Debug)]
pub struct TreeView<'a> {
    g: &'a Graph,
    side: &'a Side,
    source: VertexId,
    /// Reverse sweeps ([`QueryEngine::one_to_all_rev`]) store next-hops,
    /// not predecessors; a forward `Path` cannot be extracted from them.
    reverse: bool,
}

impl TreeView<'_> {
    /// The search root.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// Whether `v` was reached from the source.
    #[inline]
    pub fn reached(&self, v: VertexId) -> bool {
        self.side.reached(v)
    }

    /// Cost of the cheapest path to `v`, `INFINITY` when unreachable.
    #[inline]
    pub fn dist(&self, v: VertexId) -> f64 {
        self.side.dist(v)
    }

    /// Predecessor vertex and edge on a cheapest path to `v` (next hop on
    /// reverse views); `None` for the source and unreached vertices. The
    /// label holds the edge; the vertex is its tail, or its head on
    /// reverse views.
    #[inline]
    pub fn parent_of(&self, v: VertexId) -> Option<(VertexId, EdgeId)> {
        let e = self.side.parent(v);
        (e != NO_PARENT).then(|| {
            let (e, edge) = (EdgeId(e), self.g.edge(EdgeId(e)));
            (if self.reverse { edge.to } else { edge.from }, e)
        })
    }

    /// Extracts the tree path to `t` (allocates only the returned path).
    /// Always `None` on reverse views — their parent chains run toward
    /// the root with forward-directed edges, so a `source -> t` path
    /// cannot be assembled from them (debug builds assert instead of
    /// silently returning nothing).
    pub fn path_to(&self, t: VertexId) -> Option<Path> {
        debug_assert!(
            !self.reverse,
            "path_to is not meaningful on a reverse TreeView"
        );
        if self.reverse || !self.reached(t) || t == self.source {
            return None;
        }
        let mut vertices = vec![t];
        let mut edges = Vec::new();
        let mut cur = t;
        while let Some((prev, e)) = self.parent_of(cur) {
            vertices.push(prev);
            edges.push(e);
            cur = prev;
        }
        debug_assert_eq!(cur, self.source, "parent chain must reach the source");
        vertices.reverse();
        edges.reverse();
        Some(Path::from_parts_unchecked(vertices, edges))
    }
}

/// A reusable routing facade over one graph: owns one [`ChSearch`] — a
/// forward search side, sized at construction, and a backward one, sized
/// on first use — and
/// runs every algorithm of this crate on it.
///
/// Create one per worker thread and keep it for the thread's lifetime;
/// queries may freely interleave cost models, sources and constraint sets
/// — the epoch stamps guarantee queries never observe each other's state
/// (asserted bit-for-bit by `tests/engine_reuse.rs`).
pub struct QueryEngine<'g> {
    g: &'g Graph,
    /// The engine's two search sides, shared by every algorithm: the
    /// forward one runs point queries, spur searches, forward sweeps and
    /// every hierarchy walk but a point query's backward one; the
    /// backward one runs that and the reverse sweeps
    /// ([`QueryEngine::one_to_all_rev`]). Beside them, the unpack buffers
    /// and the many-to-many buckets. Nothing in it outlives a call, so
    /// `set_ch`/`set_cch` keep it.
    search: ChSearch,
    /// Cached admissible A* bounds (see [`safe_heuristic_bound`]) for the
    /// two graph-derived cost models — an `O(E)` scan per model that a
    /// transient engine would redo on every query.
    length_bound: Option<f64>,
    travel_time_bound: Option<f64>,
    /// Optional shared ALT landmark table (see
    /// [`QueryEngine::with_landmarks`]); queries whose cost model does
    /// not match the table's metric fall back to the non-ALT heuristics.
    landmarks: Option<Arc<LandmarkTable>>,
    /// Optional shared contraction hierarchy (see [`QueryEngine::with_ch`]):
    /// the strongest backend for unconstrained point-to-point queries,
    /// gated per query exactly like the landmark table.
    ch: Option<Arc<ContractionHierarchy>>,
    /// Optional shared customized CCH (see [`QueryEngine::with_cch`]):
    /// covers whatever metric or custom weight vector it was customized
    /// for; ranked between `Ch` and `Alt`.
    cch: Option<Arc<Cch>>,
    /// Landmark vectors cached for the current query *target* (forward
    /// searches aim at it; refilled only when the target changes, so
    /// Yen's same-target spur storm gathers them once).
    alt_target: NodeVectors,
    /// Metric handles ([`EngineObs::disabled`] unless attached) —
    /// per-backend query counts, fallback reasons and search work.
    obs: EngineObs,
}

/// Where [`QueryEngine::dispatch`] finds the answer of a point-to-point
/// query, with the two ways of reading it.
enum Answer<'e> {
    /// A hierarchy query from `source` to `target`, run on the engine's
    /// search state by whichever reading is asked for.
    Hierarchy {
        view: HierarchyView<'e>,
        search: &'e mut ChSearch,
        source: VertexId,
        target: VertexId,
    },
    /// The parent chain and distance the forward side holds.
    Tree(TreeView<'e>),
}

impl Answer<'_> {
    /// The answer as a simple [`Path`]; `None` when `target` is
    /// unreachable. Both kinds are simple by construction: a tree path
    /// follows parent pointers, and a hierarchy query cuts the cycles an
    /// unpacked walk can carry under zero weights.
    fn path(self, target: VertexId) -> Option<Path> {
        match self {
            Answer::Hierarchy {
                view,
                search,
                source,
                target,
            } => {
                let (edges, vertices) = view.query_path(search, source, target)?;
                Some(Path::from_parts_unchecked(
                    vertices.to_vec(),
                    edges.to_vec(),
                ))
            }
            Answer::Tree(tree) => tree.path_to(target),
        }
    }

    /// The answer's cost under `weights`. A hierarchy path is summed
    /// left to right over its edges while it unpacks
    /// ([`HierarchyView::query_path_cost`], no path assembled) — the same
    /// fold order as Dijkstra's relaxation chain — so it is bit-identical
    /// to the plain engine on the current (possibly freshly customized)
    /// weights whenever the optimum is unique (shortcut-weight sums alone
    /// could differ in the last bits through float re-association), and
    /// to the cost of [`Answer::path`] always.
    fn cost(self, target: VertexId, weights: &[f64]) -> Option<f64> {
        match self {
            Answer::Hierarchy {
                view,
                search,
                source,
                target,
            } => view.query_path_cost(search, source, target, weights),
            Answer::Tree(tree) => {
                let d = tree.dist(target);
                d.is_finite().then_some(d)
            }
        }
    }
}

/// The largest `B` such that `cost(e) >= B · euclid(e.from, e.to)` holds
/// for every edge — i.e. `min_e cost(e) / euclid(e)`, ignoring
/// zero-length hops. With it, `h(v) = euclid(v, target) · B` is an
/// admissible *and consistent* A* heuristic on **any** graph (each edge
/// of a path costs at least `B ·` its straight-line span, and spans
/// chain through the triangle inequality), unlike a fixed
/// `1 metre = 1 cost` assumption, which over-estimates on networks with
/// shortcut edges shorter than their geometry. Returns `0.0` (heuristic
/// off, A* degenerates to Dijkstra) when no edge constrains the bound.
pub fn safe_heuristic_bound(g: &Graph, cost: CostModel<'_>) -> f64 {
    let mut bound = f64::INFINITY;
    for (i, e) in g.edges().enumerate() {
        let span = g.coord(e.from).distance(&g.coord(e.to));
        if span > 1e-9 {
            bound = bound.min(cost.edge_cost(g, EdgeId(i as u32)) / span);
        }
    }
    if bound.is_finite() {
        bound.max(0.0)
    } else {
        0.0
    }
}

impl<'g> QueryEngine<'g> {
    /// Creates an engine for `g`, sizing the forward side: the only
    /// `O(V)` allocation until a reverse sweep or a hierarchy query sizes
    /// the backward one; later queries reuse both. The forward side is
    /// sized here, not at its first search, because where it lands among
    /// the caller's other allocations moves the benchmark's peak RSS.
    pub fn new(g: &'g Graph) -> Self {
        let mut search = ChSearch::default();
        search.fwd.size(g.vertex_count());
        QueryEngine {
            g,
            search,
            length_bound: None,
            travel_time_bound: None,
            landmarks: None,
            ch: None,
            cch: None,
            alt_target: NodeVectors::new(),
            obs: EngineObs::disabled(),
        }
    }

    /// Attaches metric handles: subsequent point-to-point queries count
    /// themselves per backend, record fallback reasons and fold their
    /// settled/push work into the registry (see [`EngineObs`]).
    pub fn with_obs(mut self, obs: EngineObs) -> Self {
        self.obs = obs;
        self
    }

    /// Non-consuming form of [`QueryEngine::with_obs`] for engines living
    /// inside worker pools.
    pub fn set_obs(&mut self, obs: EngineObs) {
        self.obs = obs;
    }

    /// Attaches a precomputed ALT landmark table: every target-directed
    /// query whose cost model matches the table's metric upgrades its
    /// heuristic to `max(ALT triangle bound, Euclidean bound)` — strictly
    /// at least as tight, so searches settle no more vertices and stay
    /// exact. Queries under any other cost model (notably
    /// [`CostModel::Custom`], whose per-edge costs can change between
    /// queries and would break the precomputed metric) silently fall back
    /// to the engine's non-ALT behaviour.
    ///
    /// The table is `Arc`-shared: build once, clone the handle into every
    /// worker's engine.
    ///
    /// # Panics
    /// If the table's graph fingerprint (vertex and edge counts) does not
    /// match this engine's graph — a wrong-graph table would pass every
    /// per-query check yet silently return suboptimal paths.
    pub fn with_landmarks(mut self, table: Arc<LandmarkTable>) -> Self {
        self.set_landmarks(Some(table));
        self
    }

    /// Non-consuming form of [`QueryEngine::with_landmarks`] for engines
    /// that live inside worker pools and cannot be rebuilt by value:
    /// attaches (or with `None`, detaches) the shared ALT table in place,
    /// invalidating the per-query landmark cache. Same fingerprint
    /// panic as the builder form.
    pub fn set_landmarks(&mut self, table: Option<Arc<LandmarkTable>>) {
        if let Some(table) = &table {
            assert_eq!(
                (table.vertex_count(), table.edge_count()),
                (self.g.vertex_count(), self.g.edge_count()),
                "landmark table built for a different graph"
            );
        }
        self.alt_target.invalidate();
        self.landmarks = table;
    }

    /// Whether a query under `cost` would consult the ALT table (i.e. a
    /// table is attached and its metric matches). Exposed so tests and
    /// benchmarks can assert which heuristic regime a query runs in.
    pub fn uses_alt(&self, cost: CostModel<'_>) -> bool {
        self.landmarks.as_ref().is_some_and(|t| t.usable_for(&cost))
    }

    /// Attaches a prebuilt contraction hierarchy: every *unconstrained*
    /// point-to-point query whose cost model matches the hierarchy's
    /// metric dispatches to the CH bidirectional upward search
    /// ([`SearchBackend::Ch`]) instead of Dijkstra/A*. Constrained
    /// searches (Yen spur searches with banned sets) and queries under
    /// any other cost model keep their ALT or plain regime — see
    /// [`SearchBackend`] for the full fallback rules.
    ///
    /// The hierarchy is `Arc`-shared: build once, clone the handle into
    /// every worker's engine. Composes with
    /// [`QueryEngine::with_landmarks`] — attach both and each query gets
    /// the strongest backend it qualifies for.
    ///
    /// # Panics
    /// If the hierarchy's graph fingerprint (vertex and edge counts)
    /// does not match this engine's graph.
    pub fn with_ch(mut self, ch: Arc<ContractionHierarchy>) -> Self {
        self.set_ch(Some(ch));
        self
    }

    /// Non-consuming form of [`QueryEngine::with_ch`]: swaps the shared
    /// hierarchy in place (or detaches it with `None`); the scratch
    /// stays, as it holds nothing past a call. Same fingerprint panic as
    /// the builder form.
    pub fn set_ch(&mut self, ch: Option<Arc<ContractionHierarchy>>) {
        if let Some(ch) = &ch {
            assert_eq!(
                (ch.vertex_count(), ch.edge_count()),
                (self.g.vertex_count(), self.g.edge_count()),
                "contraction hierarchy built for a different graph"
            );
        }
        self.ch = ch;
    }

    /// Whether an unconstrained query under `cost` would run on the CH.
    pub fn uses_ch(&self, cost: CostModel<'_>) -> bool {
        self.ch.as_ref().is_some_and(|c| c.usable_for(&cost))
    }

    /// Attaches a customized contraction hierarchy
    /// ([`crate::algo::cch::CchTopology::customize`]): every
    /// *unconstrained* point-to-point query whose cost model the
    /// customization covers — including a bitwise-matching
    /// [`CostModel::Custom`] vector, which no other index backend can
    /// serve — dispatches to the hierarchy query on the customized
    /// weights.
    ///
    /// Composes with [`QueryEngine::with_ch`] and
    /// [`QueryEngine::with_landmarks`]; a metric-built `Ch` outranks the
    /// denser CCH when both cover a query.
    ///
    /// # Panics
    /// If the customization's graph fingerprint (vertex and edge counts)
    /// does not match this engine's graph.
    pub fn with_cch(mut self, cch: Arc<Cch>) -> Self {
        self.set_cch(Some(cch));
        self
    }

    /// Non-consuming form of [`QueryEngine::with_cch`]: swaps the
    /// customized hierarchy in place (or detaches it with `None`). This
    /// is the entry point the serving layer uses to roll a freshly
    /// re-customized CCH into long-lived worker engines; the scratch
    /// stays, as it holds nothing past a call, so no query can mix
    /// old-weight buckets with new-weight walks. Same fingerprint panic
    /// as the builder form.
    pub fn set_cch(&mut self, cch: Option<Arc<Cch>>) {
        if let Some(cch) = &cch {
            assert_eq!(
                (cch.vertex_count(), cch.edge_count()),
                (self.g.vertex_count(), self.g.edge_count()),
                "CCH customized for a different graph"
            );
        }
        self.cch = cch;
    }

    /// Whether an unconstrained query under `cost` would run on the CCH.
    pub fn uses_cch(&self, cost: CostModel<'_>) -> bool {
        self.cch.as_ref().is_some_and(|c| c.usable_for(&cost))
    }

    /// Resolves the [`SearchBackend`] an unconstrained point-to-point
    /// query under `cost` dispatches through: the strongest attached
    /// index whose metric covers the cost model.
    pub fn backend_for(&self, cost: CostModel<'_>) -> SearchBackend {
        if self.uses_ch(cost) {
            SearchBackend::Ch
        } else if self.uses_cch(cost) {
            SearchBackend::Cch
        } else if self.uses_alt(cost) {
            SearchBackend::Alt
        } else {
            SearchBackend::Plain
        }
    }

    /// Counts a dispatched point-to-point query and every attached index
    /// that outranks the resolved backend, which it skipped because the
    /// index does not cover the cost model.
    fn record_dispatch(&self, backend: SearchBackend) {
        if !self.obs.enabled {
            return;
        }
        let shard = self.obs.shard;
        let resolved = EngineObs::backend_slot(backend);
        self.obs.queries[resolved].add_in_shard(shard, 1);
        let indexes = [
            (self.ch.is_some(), SearchBackend::Ch),
            (self.cch.is_some(), SearchBackend::Cch),
            (self.landmarks.is_some(), SearchBackend::Alt),
        ];
        for (counter, (attached, index)) in self.obs.fallback.iter().zip(indexes) {
            if attached && resolved < EngineObs::backend_slot(index) {
                counter.add_in_shard(shard, 1);
            }
        }
    }

    /// Resolves the backend for a *constrained* search (banned vertex or
    /// edge sets — Yen and diversified spur searches). Never
    /// [`SearchBackend::Ch`]: a banned edge may hide inside a shortcut,
    /// so shortcuts are unsound under bans, while ALT lower bounds stay
    /// admissible (bans only shrink the graph).
    pub fn constrained_backend_for(&self, cost: CostModel<'_>) -> SearchBackend {
        if self.uses_alt(cost) {
            SearchBackend::Alt
        } else {
            SearchBackend::Plain
        }
    }

    /// The view of the attached hierarchy a resolved backend runs on —
    /// the customized CCH when `via_cch`, else the metric-built CH —
    /// beside the engine's search state.
    fn hierarchy(&mut self, via_cch: bool) -> (HierarchyView<'_>, &mut ChSearch) {
        let view = if via_cch {
            let cch = self.cch.as_deref();
            cch.expect("CCH backend resolved without an index").view()
        } else {
            let ch = self.ch.as_deref();
            ch.expect("CH backend resolved without an index").view()
        };
        (view, &mut self.search)
    }

    /// A view of the last Dijkstra/A* search on the forward side
    /// (`reverse == false`) or the backward one.
    fn tree(&self, source: VertexId, reverse: bool) -> TreeView<'_> {
        let side = if reverse {
            &self.search.bwd
        } else {
            &self.search.fwd
        };
        TreeView {
            g: self.g,
            side,
            source,
            reverse,
        }
    }

    /// Which hierarchy an unconstrained query under `cost` runs on:
    /// `Some(false)` the CH, `Some(true)` the customized CCH, `None` when
    /// neither covers it.
    fn via_cch_for(&self, cost: CostModel<'_>) -> Option<bool> {
        if self.uses_ch(cost) {
            Some(false)
        } else {
            self.uses_cch(cost).then_some(true)
        }
    }

    /// The graph this engine routes on.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// Builds the strongest available forward heuristic for a
    /// `source -> target` query, preparing the target-side landmark cache
    /// when ALT applies. A free-standing fn over disjoint fields so
    /// callers can keep the forward side mutably borrowed alongside the
    /// result.
    #[allow(clippy::too_many_arguments)]
    fn forward_heuristic<'a>(
        g: &Graph,
        landmarks: &'a Option<Arc<LandmarkTable>>,
        cache: &'a mut NodeVectors,
        source: VertexId,
        target: VertexId,
        cost: CostModel<'_>,
        per_meter: f64,
    ) -> Heuristic<'a> {
        match landmarks {
            Some(table) if table.usable_for(&cost) => {
                table.prepare(cache, target);
                table.select_active(cache, source);
                Heuristic::Alt {
                    table,
                    cache,
                    anchor: g.coord(target),
                    per_meter,
                }
            }
            _ if per_meter > 0.0 => Heuristic::Euclid {
                anchor: g.coord(target),
                per_meter,
            },
            _ => Heuristic::None,
        }
    }

    /// The per-query bookkeeping every unconstrained point-to-point entry
    /// point shares: resolves the backend for `cost`, counts the dispatch
    /// and the indexes it skipped, and runs `run` on that backend under
    /// [`QueryEngine::counted`].
    fn accounted<T>(
        &mut self,
        cost: CostModel<'_>,
        run: impl FnOnce(&mut Self, SearchBackend) -> T,
    ) -> T {
        let backend = self.backend_for(cost);
        self.record_dispatch(backend);
        self.counted(|this| run(this, backend))
    }

    /// Runs `run` and folds the work it did — over both sides — into the
    /// registry's settled and pushed families.
    fn counted<T>(&mut self, run: impl FnOnce(&mut Self) -> T) -> T {
        let work_before = self.obs.enabled.then(|| self.search.work_counters());
        let out = run(self);
        if let Some((s0, p0)) = work_before {
            let (s1, p1) = self.search.work_counters();
            self.obs.settled.add_in_shard(self.obs.shard, s1 - s0);
            self.obs.pushed.add_in_shard(self.obs.shard, p1 - p0);
        }
        out
    }

    /// The one point-to-point dispatch (`source != target`): runs the
    /// search on the backend [`QueryEngine::backend_for`] resolves — the
    /// hierarchy query, ALT-guided A*, or on `Plain` early-exit Dijkstra
    /// — and hands `read` where the answer lies. `None` when `target` is
    /// unreachable.
    fn dispatch<T>(
        &mut self,
        source: VertexId,
        target: VertexId,
        cost: CostModel<'_>,
        read: impl FnOnce(Answer<'_>) -> Option<T>,
    ) -> Option<T> {
        self.accounted(cost, |this, backend| match backend {
            SearchBackend::Ch | SearchBackend::Cch => {
                let (view, search) = this.hierarchy(backend == SearchBackend::Cch);
                read(Answer::Hierarchy {
                    view,
                    search,
                    source,
                    target,
                })
            }
            SearchBackend::Plain => {
                let g = this.g;
                let side = &mut this.search.fwd;
                dijkstra(side, g, source, Some(target), false, cost.weights(g));
                read(Answer::Tree(this.tree(source, false)))
            }
            SearchBackend::Alt => {
                this.guided_search(source, target, cost, no_bans, f64::INFINITY);
                read(Answer::Tree(this.tree(source, false)))
            }
        })
    }

    /// Forward search toward `target` under the strongest [`Heuristic`]
    /// the engine can justify for `cost` — the ALT triangle bound, else
    /// the cached [`safe_heuristic_bound`] — keyed as plain Dijkstra when
    /// there is none. Returns whether the budget stopped it ([`search`]).
    fn guided_search(
        &mut self,
        source: VertexId,
        target: VertexId,
        cost: CostModel<'_>,
        banned: impl Fn(VertexId, EdgeId) -> bool,
        max_cost: f64,
    ) -> bool {
        let g = self.g;
        let per_meter = self.heuristic_bound(cost);
        let h = Self::forward_heuristic(
            g,
            &self.landmarks,
            &mut self.alt_target,
            source,
            target,
            cost,
            per_meter,
        );
        let (target, weights) = (Some(target), cost.weights(g));
        let side = &mut self.search.fwd;
        if h.is_active() {
            let key = |v, g_score| g_score + h.eval(g, v);
            search(
                side, g, source, target, false, weights, banned, key, max_cost,
            )
        } else {
            let key = dijkstra_key;
            search(
                side, g, source, target, false, weights, banned, key, max_cost,
            )
        }
    }

    /// Cheapest `source -> target` path, or `None` if unreachable or
    /// `source == target`. Dispatched through
    /// [`QueryEngine::backend_for`]: the hierarchy query,
    /// ALT-guided A*, or plain early-exit Dijkstra (same optimal cost in
    /// every regime; tie-breaking among equal-cost optima may differ).
    /// The path is simple in every regime: a hierarchy answer that
    /// revisits a vertex over zero-cost edges has its cycles cut.
    pub fn shortest_path(
        &mut self,
        source: VertexId,
        target: VertexId,
        cost: CostModel<'_>,
    ) -> Option<Path> {
        if source == target {
            return None;
        }
        self.dispatch(source, target, cost, |a| a.path(target))
    }

    /// Cost of the cheapest `source -> target` path without materialising
    /// it — the probe map matching uses for its HMM transition model.
    /// Backend-dispatched exactly like [`QueryEngine::shortest_path`], and
    /// equal in bits to the cost of the path it would return. On the
    /// CH/CCH backends the edge weights are folded in path order while
    /// the shortcuts unpack ([`HierarchyView::query_path_cost`]): no
    /// vertex list is built and no cycle is cut, since a cycle the path
    /// would lose weighs zero and folding it in changes no bit.
    pub fn shortest_path_cost(
        &mut self,
        source: VertexId,
        target: VertexId,
        cost: CostModel<'_>,
    ) -> Option<f64> {
        if source == target {
            return Some(0.0);
        }
        let weights = cost.weights(self.g);
        self.dispatch(source, target, cost, |a| a.cost(target, weights))
    }

    /// One-to-all Dijkstra, returned as a borrowed [`TreeView`] (no
    /// per-query `O(V)` allocation). The view is valid until the next
    /// query on this engine.
    pub fn one_to_all(&mut self, source: VertexId, cost: CostModel<'_>) -> TreeView<'_> {
        let g = self.g;
        dijkstra(
            &mut self.search.fwd,
            g,
            source,
            None,
            false,
            cost.weights(g),
        );
        self.tree(source, false)
    }

    /// Batched many-to-many: the exact `sources × targets` table, one row
    /// at a time — `emit(i, row)` gets the distances from `sources[i]`
    /// to every target (`f64::INFINITY` when unreachable) as soon as its
    /// forward walk finishes. `T` backward plus `S` forward
    /// walks on the attached hierarchy
    /// (`HierarchyView::many_to_many_rows` on the engine's search state)
    /// replace `S × T` point-to-point queries; their work counts in the
    /// settled and pushed families of [`EngineObs`], not as queries.
    /// Returns `false`, having emitted nothing, when no attached
    /// hierarchy covers `cost` (the same per-query metric gate as every
    /// other backend decision); the caller then keeps its pairwise path.
    pub fn many_to_many_rows(
        &mut self,
        sources: &[VertexId],
        targets: &[VertexId],
        cost: CostModel<'_>,
        emit: impl FnMut(usize, &[f64]),
    ) -> bool {
        let Some(via_cch) = self.via_cch_for(cost) else {
            return false;
        };
        self.counted(|this| {
            let (view, search) = this.hierarchy(via_cch);
            view.many_to_many_rows(search, sources, targets, emit);
        });
        true
    }

    /// [`QueryEngine::many_to_many_rows`] collected into a
    /// [`DistanceTable`]; `None` when no attached hierarchy covers
    /// `cost`.
    pub fn many_to_many(
        &mut self,
        sources: &[VertexId],
        targets: &[VertexId],
        cost: CostModel<'_>,
    ) -> Option<DistanceTable> {
        let via_cch = self.via_cch_for(cost)?;
        Some(self.counted(|this| {
            let (view, search) = this.hierarchy(via_cch);
            view.many_to_many(search, sources, targets)
        }))
    }

    /// One-to-all *reverse* Dijkstra: `dist(v)` on the returned view is
    /// the cost of the cheapest `v -> target` path, and `parent_of(v)` is
    /// the *next hop* toward `target` (so `path_to` returns `None` on
    /// reverse views). Runs on the backward side, so it does not disturb
    /// a forward view. This is the sweep the ALT preprocessing
    /// ([`crate::algo::landmarks::LandmarkTable::build`]) fans out across
    /// worker engines.
    pub fn one_to_all_rev(&mut self, target: VertexId, cost: CostModel<'_>) -> TreeView<'_> {
        let g = self.g;
        dijkstra(&mut self.search.bwd, g, target, None, true, cost.weights(g));
        self.tree(target, true)
    }

    /// Cheapest `source -> target` path avoiding banned vertices and
    /// edges — Yen's spur-search engine.
    ///
    /// Spur searches are strongly target-directed, so this runs A* with
    /// the strongest lower bound the engine can justify: the ALT
    /// triangle bound (maxed with the Euclidean bound) when landmarks are
    /// attached and cover the cost model, the cached
    /// [`safe_heuristic_bound`] alone otherwise; `Custom` costs without
    /// landmarks fall back to plain Dijkstra. Bans only remove
    /// edges/vertices — true distances can only grow — so every variant
    /// stays admissible and the returned path is cost-optimal among the
    /// non-banned paths, though tie-breaking among equal-cost optima can
    /// differ between variants.
    ///
    /// An attached [`ContractionHierarchy`] is deliberately **never**
    /// consulted here ([`QueryEngine::constrained_backend_for`]): a
    /// banned edge may hide inside a shortcut, so CH answers would be
    /// unsound under bans.
    ///
    /// `max_cost` is a budget on the returned path's cost: the result is
    /// the unbudgeted one if that costs at most `max_cost` and `None`
    /// otherwise, found out after settling only the vertices the
    /// unbudgeted search settles below the budget. The budget is held
    /// against the search's own keys, whose heuristic part carries float
    /// rounding: a path never comes back costlier than `max_cost`, but one
    /// within a few ulps of it may be missed under an active heuristic —
    /// callers that must not lose it widen the budget by a relative
    /// epsilon, as Yen does. Callers without a bound pass `f64::INFINITY`.
    pub fn constrained_shortest_path(
        &mut self,
        source: VertexId,
        target: VertexId,
        cost: CostModel<'_>,
        banned_vertices: &BitSet,
        banned_edges: &BitSet,
        max_cost: f64,
    ) -> Option<Path> {
        debug_assert_ne!(self.constrained_backend_for(cost), SearchBackend::Ch);
        if source == target
            || banned_vertices.contains(source.0)
            || banned_vertices.contains(target.0)
        {
            return None;
        }
        let (settled_before, _) = self.search.fwd.work();
        let banned = banned_by(banned_vertices, banned_edges);
        let over_budget = self.guided_search(source, target, cost, banned, max_cost);
        // A budgeted stop can leave the target relaxed but not settled,
        // with a tentative distance that is not yet optimal.
        let path = if over_budget {
            None
        } else {
            self.tree(source, false).path_to(target)
        };
        if self.obs.enabled {
            let outcome = match (&path, over_budget) {
                (Some(_), _) => 0,
                (None, true) => 1,
                (None, false) => 2,
            };
            self.obs.spur_searches[outcome].add_in_shard(self.obs.shard, 1);
            let settled = self.search.fwd.work().0 - settled_before;
            self.obs.spur_settled.add_in_shard(self.obs.shard, settled);
        }
        path
    }

    /// The cached [`safe_heuristic_bound`] for `cost`: computed on first
    /// use for `Length`/`TravelTime`, always `0.0` for `Custom` (whose
    /// per-edge costs can change between queries).
    fn heuristic_bound(&mut self, cost: CostModel<'_>) -> f64 {
        let g = self.g;
        match cost {
            CostModel::Length => *self
                .length_bound
                .get_or_insert_with(|| safe_heuristic_bound(g, CostModel::Length)),
            CostModel::TravelTime => *self
                .travel_time_bound
                .get_or_insert_with(|| safe_heuristic_bound(g, CostModel::TravelTime)),
            CostModel::Custom(_) => 0.0,
        }
    }

    /// Lazy Yen top-k iterator whose spur searches all reuse this
    /// engine's forward side (see [`crate::algo::yen`]).
    pub fn yen_iter<'e, 'c>(
        &'e mut self,
        source: VertexId,
        target: VertexId,
        cost: CostModel<'c>,
    ) -> YenIter<'g, 'e, 'c> {
        YenIter::on_engine(self, source, target, cost)
    }

    /// The k cheapest loopless paths from `source` to `target` (fewer if
    /// the graph does not contain k distinct simple paths): the paper's
    /// TkDI candidates.
    pub fn yen_k_shortest(
        &mut self,
        source: VertexId,
        target: VertexId,
        cost: CostModel<'_>,
        k: usize,
    ) -> Vec<(Path, f64)> {
        self.yen_iter(source, target, cost).limit(k).collect()
    }

    /// Selects up to `cfg.k` diverse loopless shortest paths from `source`
    /// to `target`, in cost order, each with its cost: the paper's D-TkDI
    /// candidates (see [`crate::algo::diversified`]). The first (overall
    /// cheapest) path is always kept. The Yen enumeration underneath —
    /// typically several times `cfg.k` paths, each firing a batch of spur
    /// searches — runs on this engine.
    pub fn diversified_top_k(
        &mut self,
        source: VertexId,
        target: VertexId,
        cost: CostModel<'_>,
        cfg: &DiversifiedConfig,
    ) -> Vec<(Path, f64)> {
        let g = self.g;
        let mut kept: Vec<(Path, f64)> = Vec::with_capacity(cfg.k);
        if cfg.k == 0 {
            return kept;
        }
        // Sorted edge sets of the kept paths, so each pair costs one merge walk.
        let mut kept_edges: Vec<Vec<_>> = Vec::with_capacity(cfg.k);
        // The cheapest path is examined (and kept) whatever the scan cap.
        let scan = cfg.max_scan.max(1);
        for (p, c) in self.yen_iter(source, target, cost).limit(scan) {
            let edges = sorted_edge_set(&p);
            let diverse = kept_edges.iter().all(|q| {
                weighted_jaccard_sorted(g, &edges, q, cfg.weight) <= cfg.threshold + 1e-12
            });
            if diverse {
                kept.push((p, c));
                kept_edges.push(edges);
                if kept.len() >= cfg.k {
                    break;
                }
            }
        }
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::{grid_network, GridConfig};
    use crate::geometry::Point;
    use crate::graph::{EdgeAttrs, RoadCategory};

    fn line_graph(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..n)
            .map(|i| b.add_vertex(Point::new(i as f64 * 100.0, 0.0)))
            .collect();
        for w in vs.windows(2) {
            b.add_bidirectional(
                w[0],
                w[1],
                EdgeAttrs::with_default_speed(100.0, RoadCategory::Residential),
            )
            .unwrap();
        }
        b.build()
    }

    #[test]
    fn epoch_reset_isolates_queries() {
        // Query 1 reaches the whole line; query 2 early-exits after one
        // hop. Distances from query 1 must not leak into query 2's view.
        let g = line_graph(50);
        let mut engine = QueryEngine::new(&g);
        let far = engine.one_to_all(VertexId(0), CostModel::Length);
        assert!(far.reached(VertexId(49)));
        assert!((far.dist(VertexId(49)) - 4900.0).abs() < 1e-9);

        engine
            .shortest_path(VertexId(0), VertexId(1), CostModel::Length)
            .unwrap();
        // Early exit: vertex 49 is unreached in the *current* epoch even
        // though its slot still physically holds query 1's values.
        let view = engine.tree(VertexId(0), false);
        assert!(!view.reached(VertexId(49)));
        assert_eq!(view.dist(VertexId(49)), f64::INFINITY);
        assert!(view.parent_of(VertexId(49)).is_none());
    }

    #[test]
    fn epoch_wrap_isolates_queries() {
        // The same two queries as above, with the forward side's epoch
        // wrapping between them: the zeroed stamps must read as stale,
        // not as labels of the query before the wrap.
        let g = line_graph(50);
        let mut engine = QueryEngine::new(&g);
        engine.one_to_all(VertexId(0), CostModel::Length);
        // The next query runs in the last epoch, the one after it in 1
        // again: the first query's epoch.
        engine.search.fwd.set_epoch((u32::MAX >> 1) - 1);
        let far = engine.one_to_all(VertexId(0), CostModel::Length);
        assert!((far.dist(VertexId(49)) - 4900.0).abs() < 1e-9);
        let parent = far.parent_of(VertexId(49));
        assert_eq!(parent.map(|(v, _)| v), Some(VertexId(48)));

        engine
            .shortest_path(VertexId(0), VertexId(1), CostModel::Length)
            .unwrap();
        let view = engine.tree(VertexId(0), false);
        for v in (2..50).map(VertexId) {
            assert!(!view.reached(v), "{v:?} leaked across the wrap");
            assert_eq!(view.dist(v), f64::INFINITY);
            assert!(view.parent_of(v).is_none());
        }
        assert_eq!(
            engine.shortest_path(VertexId(0), VertexId(49), CostModel::Length),
            QueryEngine::new(&g).shortest_path(VertexId(0), VertexId(49), CostModel::Length)
        );
    }

    #[test]
    fn interleaved_cost_models_stay_correct() {
        let g = grid_network(&GridConfig::small_test(), 7);
        let custom: Vec<f64> = (0..g.edge_count()).map(|i| 1.0 + (i % 5) as f64).collect();
        let n = g.vertex_count() as u32;
        let mut engine = QueryEngine::new(&g);
        for (s, t) in [(0, n - 1), (n - 1, 0), (3, n / 2), (n / 2, 3)] {
            let (s, t) = (VertexId(s), VertexId(t));
            for cost in [
                CostModel::Length,
                CostModel::Custom(&custom),
                CostModel::TravelTime,
            ] {
                let fresh = QueryEngine::new(&g).shortest_path(s, t, cost);
                let reused = engine.shortest_path(s, t, cost);
                match (fresh, reused) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.vertices(), b.vertices(), "{s:?}->{t:?}");
                        assert_eq!(a.edges(), b.edges());
                    }
                    (None, None) => {}
                    (a, b) => panic!("reachability mismatch: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn one_to_all_view_matches_materialised_tree() {
        // A tree copied out of a fresh engine's view must equal the view a
        // reused engine hands back after unrelated queries, and every tree
        // path is the early-exit query's path to the same vertex.
        let g = grid_network(&GridConfig::small_test(), 9);
        let s = VertexId(0);
        let tree: Vec<_> = {
            let mut fresh = QueryEngine::new(&g);
            let view = fresh.one_to_all(s, CostModel::Length);
            g.vertices()
                .map(|v| (view.dist(v).to_bits(), view.parent_of(v)))
                .collect()
        };
        let mut engine = QueryEngine::new(&g);
        engine.one_to_all(VertexId(7), CostModel::TravelTime);
        let view = engine.one_to_all(s, CostModel::Length);
        for v in g.vertices() {
            assert_eq!(tree[v.index()], (view.dist(v).to_bits(), view.parent_of(v)));
            if v != s && view.reached(v) {
                let p = view.path_to(v).unwrap();
                p.validate(&g).unwrap();
                assert!((p.length_m(&g) - view.dist(v)).abs() < 1e-9);
                let direct = QueryEngine::new(&g).shortest_path(s, v, CostModel::Length);
                assert_eq!(direct, Some(p));
            }
        }
    }

    #[test]
    fn shortest_path_cost_matches_path_cost() {
        let g = grid_network(&GridConfig::small_test(), 5);
        let n = g.vertex_count() as u32;
        let mut engine = QueryEngine::new(&g);
        for (s, t) in [(0, n - 1), (2, n / 3), (n - 1, 1)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let c = engine.shortest_path_cost(s, t, CostModel::Length);
            let p = engine.shortest_path(s, t, CostModel::Length);
            match (c, p) {
                (Some(c), Some(p)) => assert!((c - p.length_m(&g)).abs() < 1e-9),
                (None, None) => {}
                (c, p) => panic!("mismatch: cost {c:?} vs path {p:?}"),
            }
        }
        assert_eq!(
            engine.shortest_path_cost(VertexId(3), VertexId(3), CostModel::Length),
            Some(0.0)
        );
    }

    #[test]
    fn disconnected_target_stays_unreached_after_reuse() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(1.0, 0.0));
        let v2 = b.add_vertex(Point::new(2.0, 0.0));
        b.add_edge(
            v0,
            v1,
            EdgeAttrs::with_default_speed(1.0, RoadCategory::Rural),
        )
        .unwrap();
        b.add_edge(
            v2,
            v0,
            EdgeAttrs::with_default_speed(1.0, RoadCategory::Rural),
        )
        .unwrap();
        let g = b.build();
        let mut engine = QueryEngine::new(&g);
        // First query from v2 reaches everything (v2 -> v0 -> v1)...
        assert!(engine.shortest_path(v2, v1, CostModel::Length).is_some());
        // ...which must not make v2 look reachable from v0 afterwards.
        assert!(engine.shortest_path(v0, v2, CostModel::Length).is_none());
        assert!(engine
            .shortest_path_cost(v0, v2, CostModel::Length)
            .is_none());
    }

    #[test]
    fn yen_accepts_short_lived_custom_costs_on_long_lived_engine() {
        // Regression guard for the lifetime decoupling: a per-worker
        // engine outliving many per-iteration cost slices (the
        // simulate_fleet pattern) must also work for the Yen/diversified
        // family, not just shortest_path.
        let g = grid_network(&GridConfig::small_test(), 2);
        let t = VertexId((g.vertex_count() - 1) as u32);
        let mut engine = QueryEngine::new(&g);
        for round in 0..3u64 {
            let costs: Vec<f64> = (0..g.edge_count())
                .map(|i| 1.0 + ((i as u64 + round) % 7) as f64)
                .collect();
            let top = engine.yen_k_shortest(VertexId(0), t, CostModel::Custom(&costs), 3);
            assert!(!top.is_empty());
            let div = engine.diversified_top_k(
                VertexId(0),
                t,
                CostModel::Custom(&costs),
                &crate::algo::diversified::DiversifiedConfig::with_k(2),
            );
            assert!(!div.is_empty());
        }
    }

    #[test]
    fn safe_bound_keeps_astar_exact_on_shortcut_edges() {
        // A "shortcut" edge whose length undercuts its straight-line span:
        // under the naive 1-cost-per-metre heuristic, A* would
        // over-estimate through v1 and return the wrong path. The safe
        // bound (min cost/span = 100/1000) keeps the search exact.
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(1000.0, 0.0));
        let v2 = b.add_vertex(Point::new(2000.0, 0.0));
        let a = |len| EdgeAttrs::with_default_speed(len, RoadCategory::Rural);
        b.add_edge(v0, v1, a(100.0)).unwrap(); // shortcut: 100 m over a 1 km span
        b.add_edge(v1, v2, a(100.0)).unwrap();
        b.add_edge(v0, v2, a(900.0)).unwrap(); // direct but costlier (100+100 < 900)
        let g = b.build();
        assert!((safe_heuristic_bound(&g, CostModel::Length) - 0.1).abs() < 1e-12);
        let mut engine = QueryEngine::new(&g);
        let (no_v, no_e) = (BitSet::new(3), BitSet::new(3));
        // An unconstrained spur search is A* under the Euclidean bound.
        let astar = engine
            .constrained_shortest_path(v0, v2, CostModel::Length, &no_v, &no_e, f64::INFINITY)
            .unwrap();
        let dijkstra = engine.shortest_path(v0, v2, CostModel::Length).unwrap();
        assert_eq!(astar.vertices(), dijkstra.vertices(), "A* must stay exact");
        assert_eq!(astar.vertices(), &[v0, v1, v2]);
    }

    #[test]
    fn safe_bound_degenerate_graphs() {
        // All edges span zero distance: no usable bound, A* must fall
        // back to Dijkstra rather than divide by zero.
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Point::new(5.0, 5.0));
        let v1 = b.add_vertex(Point::new(5.0, 5.0));
        b.add_edge(
            v0,
            v1,
            EdgeAttrs::with_default_speed(3.0, RoadCategory::Rural),
        )
        .unwrap();
        let g = b.build();
        assert_eq!(safe_heuristic_bound(&g, CostModel::Length), 0.0);
        let mut engine = QueryEngine::new(&g);
        let (no_v, no_e) = (BitSet::new(2), BitSet::new(1));
        let p = engine
            .constrained_shortest_path(v0, v1, CostModel::Length, &no_v, &no_e, f64::INFINITY)
            .unwrap();
        assert_eq!(p.vertices(), &[v0, v1]);
    }

    #[test]
    fn alt_engine_costs_match_plain_engine_on_grid() {
        // A grid maximises equal-cost ties; ALT may tie-break differently
        // but every cost must be bit-identical (uniform 100 m edges sum
        // exactly in f64).
        use crate::algo::landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable};
        let g = grid_network(&GridConfig::small_test(), 13);
        let table = Arc::new(LandmarkTable::build(
            &g,
            LandmarkMetric::Length,
            &LandmarkConfig::default(),
        ));
        let mut plain = QueryEngine::new(&g);
        let mut alt = QueryEngine::new(&g).with_landmarks(table);
        assert!(alt.uses_alt(CostModel::Length));
        let n = g.vertex_count() as u32;
        let (no_v, no_e) = (BitSet::new(n as usize), BitSet::new(g.edge_count()));
        for (s, t) in [(0, n - 1), (n - 1, 0), (3, n / 2), (n / 3, 2 * n / 3)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let a = plain.shortest_path(s, t, CostModel::Length);
            let b = alt.shortest_path(s, t, CostModel::Length);
            let length = |p: Option<Path>| p.map(|p| p.length_m(&g));
            assert_eq!(length(a), length(b), "{s:?}->{t:?} cost diverged under ALT");
            // Euclid-guided against ALT-guided spur search.
            let spur = |e: &mut QueryEngine<'_>| {
                e.constrained_shortest_path(s, t, CostModel::Length, &no_v, &no_e, f64::INFINITY)
            };
            assert_eq!(length(spur(&mut plain)), length(spur(&mut alt)));
            let ca = plain.shortest_path_cost(s, t, CostModel::Length);
            let cb = alt.shortest_path_cost(s, t, CostModel::Length);
            assert_eq!(ca, cb, "{s:?}->{t:?} cost probe diverged under ALT");
            let ya = plain.yen_k_shortest(s, t, CostModel::Length, 5);
            let yb = alt.yen_k_shortest(s, t, CostModel::Length, 5);
            assert_eq!(ya.len(), yb.len());
            for ((_, a), (_, b)) in ya.iter().zip(yb.iter()) {
                assert_eq!(a, b, "{s:?}->{t:?} Yen cost sequence diverged");
            }
        }
    }

    #[test]
    fn alt_falls_back_on_metric_mismatch_and_custom_costs() {
        use crate::algo::landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable};
        let g = grid_network(&GridConfig::small_test(), 5);
        let table = Arc::new(LandmarkTable::build(
            &g,
            LandmarkMetric::Length,
            &LandmarkConfig::default(),
        ));
        let custom: Vec<f64> = (0..g.edge_count()).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut alt = QueryEngine::new(&g).with_landmarks(Arc::clone(&table));
        assert!(alt.uses_alt(CostModel::Length));
        assert!(!alt.uses_alt(CostModel::TravelTime));
        assert!(!alt.uses_alt(CostModel::Custom(&custom)));
        // Fallback is plain Dijkstra: paths (not just costs) must be
        // bit-identical to an engine without landmarks.
        let mut plain = QueryEngine::new(&g);
        let t = VertexId((g.vertex_count() - 1) as u32);
        let a = plain
            .shortest_path(VertexId(0), t, CostModel::Custom(&custom))
            .unwrap();
        let b = alt
            .shortest_path(VertexId(0), t, CostModel::Custom(&custom))
            .unwrap();
        assert_eq!(a.vertices(), b.vertices());
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn alt_one_to_all_rev_matches_forward_on_bidirectional_graph() {
        let g = grid_network(&GridConfig::small_test(), 9);
        let mut engine = QueryEngine::new(&g);
        let t = VertexId(7);
        assert_eq!(engine.search.bwd.capacity(), 0, "the backward side is lazy");
        let fwd: Vec<f64> = {
            let view = engine.one_to_all(t, CostModel::Length);
            g.vertices().map(|v| view.dist(v)).collect()
        };
        let rev: Vec<f64> = {
            let view = engine.one_to_all_rev(t, CostModel::Length);
            g.vertices().map(|v| view.dist(v)).collect()
        };
        // The grid generator adds every edge bidirectionally with equal
        // length, so d(t, v) == d(v, t) bit-for-bit.
        assert_eq!(fwd, rev);
        // And the reverse sweep must not disturb the forward side.
        let before = engine.one_to_all(VertexId(0), CostModel::Length).dist(t);
        engine.one_to_all_rev(t, CostModel::Length);
        // Forward side epoch moved on: the old view is gone, but a fresh
        // forward query still answers identically.
        let after = engine.one_to_all(VertexId(0), CostModel::Length).dist(t);
        assert_eq!(before, after);
    }

    #[test]
    fn heap_allocation_is_reused_across_queries() {
        let g = grid_network(&GridConfig::small_test(), 1);
        let n = g.vertex_count() as u32;
        let mut engine = QueryEngine::new(&g);
        // First sweep establishes the workload's high-water mark...
        for i in 0..n {
            engine.one_to_all(VertexId(i), CostModel::Length);
        }
        let cap_after_sweep = engine.search.fwd.heap_capacity();
        assert!(cap_after_sweep > 0);
        // ...after which repeating the same queries must not reallocate.
        for i in 0..n {
            engine.one_to_all(VertexId(i), CostModel::Length);
        }
        assert_eq!(
            engine.search.fwd.heap_capacity(),
            cap_after_sweep,
            "steady-state queries must not regrow the heap"
        );
    }

    #[test]
    fn m2m_rows_match_table_rows_bitwise() {
        use crate::algo::ch::{ChConfig, ContractionHierarchy};
        use crate::algo::landmarks::LandmarkMetric;
        use std::sync::Arc;

        let g = grid_network(&GridConfig::small_test(), 11);
        let n = g.vertex_count() as u32;
        let ch = Arc::new(ContractionHierarchy::build(
            &g,
            LandmarkMetric::Length,
            &ChConfig::default(),
        ));
        let mut engine = QueryEngine::new(&g).with_ch(ch);

        let sources: Vec<VertexId> = [0, 3, n / 2, n - 1].map(VertexId).to_vec();
        let targets: Vec<VertexId> = [1, n / 3, 2 * n / 3, n - 2, 7].map(VertexId).to_vec();
        let table = engine
            .many_to_many(&sources, &targets, CostModel::Length)
            .expect("CH covers Length");

        let mut rows = 0;
        let covered = engine.many_to_many_rows(&sources, &targets, CostModel::Length, |i, row| {
            assert_eq!(i, rows, "rows come in source order");
            assert_eq!(row, table.row(i), "row {i} must match bit-for-bit");
            rows += 1;
        });
        assert!(covered);
        assert_eq!(rows, sources.len());

        // A cost model the CH does not cover, or no CH at all, emits
        // nothing.
        let refused = |_: usize, _: &[f64]| panic!("a row without a covering hierarchy");
        assert!(!engine.many_to_many_rows(&sources, &targets, CostModel::TravelTime, refused));
        engine.set_ch(None);
        assert!(!engine.many_to_many_rows(&sources, &targets, CostModel::Length, refused));
    }

    #[test]
    fn m2m_rows_count_their_work_but_no_queries() {
        use crate::algo::ch::{ChConfig, ContractionHierarchy};
        use crate::algo::landmarks::LandmarkMetric;

        let g = grid_network(&GridConfig::small_test(), 11);
        let ch = Arc::new(ContractionHierarchy::build(
            &g,
            LandmarkMetric::Length,
            &ChConfig::default(),
        ));
        let registry = Registry::new();
        let mut engine = QueryEngine::new(&g)
            .with_ch(ch)
            .with_obs(EngineObs::new(&registry));
        let all: Vec<VertexId> = g.vertices().collect();
        let read = |registry: &Registry| {
            let snap = registry.snapshot();
            let total = |name| snap.counter_total(name, &[]);
            let queries = ["plain", "alt", "cch", "ch"]
                .map(|b| snap.counter_total("pathrank_engine_queries_total", &[("backend", b)]));
            (
                total("pathrank_engine_settled_nodes_total"),
                total("pathrank_engine_heap_pushes_total"),
                queries.iter().sum::<u64>(),
            )
        };

        let table = engine.many_to_many(&all, &all, CostModel::Length);
        assert_eq!(table.map(|t| t.shape()), Some((all.len(), all.len())));
        let (settled, pushed, queries) = read(&registry);
        assert!(settled > 0, "a 25 x 25 table settles vertices");
        assert_eq!((settled, pushed), engine.search.work_counters());
        assert_eq!(queries, 0, "a table is not a point query");

        assert!(engine.many_to_many_rows(&all, &all, CostModel::Length, |_, _| {}));
        assert_eq!(read(&registry), (2 * settled, 2 * pushed, 0));
        // A table no hierarchy covers does no work.
        assert!(!engine.many_to_many_rows(&all, &all, CostModel::TravelTime, |_, _| {}));
        assert_eq!(read(&registry), (2 * settled, 2 * pushed, 0));
    }

    /// FNV-1a fold of one search side after a query: `(dist bits,
    /// parent)` of every vertex, unreached ones included.
    fn fold_side(h: &mut u64, engine: &QueryEngine<'_>, reverse: bool) {
        let view = engine.tree(VertexId(0), reverse);
        for v in engine.g.vertices() {
            let (pv, pe) = view
                .parent_of(v)
                .map_or((NO_PARENT, NO_PARENT), |(p, e)| (p.0, e.0));
            for word in [view.dist(v).to_bits(), u64::from(pv), u64::from(pe)] {
                *h = (*h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// Runs one fixed query script through every entry point that drives
    /// the Dijkstra/A* loop and returns the fold of every side state it
    /// left behind, plus the lifetime `(settled, pushed)` counters of the
    /// three sides involved. Equal distances can
    /// hide a changed relaxation order; the counters and parents cannot.
    fn golden_script(g: &Graph, seed: u64) -> (u64, [(u64, u64); 3]) {
        use crate::algo::landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable};
        use pathrank_rng::rngs::StdRng;
        use pathrank_rng::{Rng, SeedableRng};

        let (n, m) = (g.vertex_count() as u32, g.edge_count() as u32);
        let custom: Vec<f64> = (0..m).map(|i| 1.0 + (i * 7 % 13) as f64 * 0.37).collect();
        let models = [
            CostModel::Length,
            CostModel::TravelTime,
            CostModel::Custom(&custom),
        ];
        let table = Arc::new(LandmarkTable::build(
            g,
            LandmarkMetric::Length,
            &LandmarkConfig {
                threads: 1,
                ..LandmarkConfig::default()
            },
        ));
        let mut plain = QueryEngine::new(g);
        let mut alt = QueryEngine::new(g).with_landmarks(table);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pair = move || (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n)));
        let mut h = 0xcbf2_9ce4_8422_2325u64;

        for cost in models {
            let (s, t) = pair();
            plain.one_to_all(s, cost);
            fold_side(&mut h, &plain, false);
            plain.one_to_all_rev(t, cost);
            fold_side(&mut h, &plain, true);
        }
        for i in 0..32 {
            let (s, t) = pair();
            plain.shortest_path(s, t, models[i % 3]);
            fold_side(&mut h, &plain, false);
        }
        for _ in 0..32 {
            let (s, t) = pair();
            alt.shortest_path(s, t, CostModel::Length);
            fold_side(&mut h, &alt, false);
        }
        // Constrained searches: odd rounds carry a finite budget, 0.8× the
        // unconstrained optimum (always over budget) or 1.3× it.
        let mut ban_rng = StdRng::seed_from_u64(seed ^ 0xb4d5);
        for i in 0..32 {
            let (s, t) = pair();
            let cost = models[i % 3];
            let mut bv = BitSet::new(n as usize);
            let mut be = BitSet::new(m as usize);
            for _ in 0..ban_rng.gen_range(0..=n / 16) {
                bv.insert(ban_rng.gen_range(0..n));
            }
            for _ in 0..ban_rng.gen_range(0..=m / 16) {
                be.insert(ban_rng.gen_range(0..m));
            }
            let engine = if i % 4 < 2 { &mut plain } else { &mut alt };
            let max_cost = if i % 2 == 0 {
                f64::INFINITY
            } else {
                let factor = if i % 8 == 1 { 0.8 } else { 1.3 };
                engine.shortest_path_cost(s, t, cost).unwrap_or(1.0) * factor
            };
            engine.constrained_shortest_path(s, t, cost, &bv, &be, max_cost);
            fold_side(&mut h, engine, false);
        }
        assert_eq!(alt.search.bwd.capacity(), 0);
        let counters = [&plain.search.fwd, &plain.search.bwd, &alt.search.fwd].map(Side::work);
        (h, counters)
    }

    #[test]
    fn engine_golden_region() {
        use crate::generators::{region_network, RegionConfig};
        let g = region_network(&RegionConfig::small_test(), 11);
        assert_eq!(
            golden_script(&g, 11),
            (
                10886367447700234715,
                [(1485, 1852), (150, 165), (685, 1029)]
            )
        );
    }

    #[test]
    fn engine_golden_grid() {
        let cfg = GridConfig {
            nx: 24,
            ny: 24,
            jitter: 0.3,
            ..GridConfig::small_test()
        };
        let g = grid_network(&cfg, 5);
        assert_eq!(
            golden_script(&g, 5),
            (
                9551775500771323903,
                [(15291, 19413), (1728, 2009), (5299, 7676)]
            )
        );
    }

    #[test]
    fn cut_cycles_keeps_each_vertex_at_its_first_occurrence() {
        use crate::algo::ch::cut_cycles;
        let walk = |vs: &[u32]| -> (Vec<EdgeId>, Vec<VertexId>) {
            let edges = (0..vs.len() as u32 - 1).map(EdgeId).collect();
            (edges, vs.iter().copied().map(VertexId).collect())
        };
        let mut seen = Side::default();
        let (mut edges, mut vertices) = walk(&[5, 6, 1, 2, 3, 2, 1]);
        cut_cycles(&mut seen, 7, &mut edges, &mut vertices);
        assert_eq!(vertices, walk(&[5, 6, 1]).1);
        assert_eq!(edges, [EdgeId(0), EdgeId(1)]);
        // A cycle through the source leaves the edge that leaves it last.
        let (mut edges, mut vertices) = walk(&[0, 1, 0, 2]);
        cut_cycles(&mut seen, 7, &mut edges, &mut vertices);
        assert_eq!((edges, vertices), (vec![EdgeId(2)], walk(&[0, 2]).1));
        let simple = walk(&[3, 1, 4]);
        let (mut edges, mut vertices) = simple.clone();
        cut_cycles(&mut seen, 7, &mut edges, &mut vertices);
        assert_eq!((edges, vertices), simple);
        // Two cycles, the second through a vertex the first cut away.
        let (mut edges, mut vertices) = walk(&[0, 1, 2, 1, 3, 2, 4]);
        cut_cycles(&mut seen, 7, &mut edges, &mut vertices);
        assert_eq!(vertices, walk(&[0, 1, 3, 2, 4]).1);
        assert_eq!(edges, [EdgeId(0), EdgeId(3), EdgeId(4), EdgeId(5)]);
    }

    /// Classic 5-vertex test graph with a known shortest path structure.
    ///
    /// ```text
    ///      (1)--1--(2)
    ///      / \       \
    ///     4   2       3
    ///    /     \       \
    ///  (0)--8--(3)--1--(4)
    /// ```
    fn weighted() -> Graph {
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..5)
            .map(|i| b.add_vertex(Point::new(i as f64, 0.0)))
            .collect();
        let mut add = |f: usize, t: usize, w: f64| {
            b.add_bidirectional(
                v[f],
                v[t],
                EdgeAttrs::with_default_speed(w, RoadCategory::Residential),
            )
            .unwrap();
        };
        add(0, 1, 4.0);
        add(1, 2, 1.0);
        add(1, 3, 2.0);
        add(0, 3, 8.0);
        add(3, 4, 1.0);
        add(2, 4, 3.0);
        b.build()
    }

    /// A fresh engine's cheapest `source -> 4` path under `Length` that
    /// avoids `banned_vertices` and `banned_edges`, on `weighted()`.
    fn banned_path(
        g: &Graph,
        banned_vertices: &BitSet,
        banned_edges: &BitSet,
        source: u32,
    ) -> Option<Path> {
        QueryEngine::new(g).constrained_shortest_path(
            VertexId(source),
            VertexId(4),
            CostModel::Length,
            banned_vertices,
            banned_edges,
            f64::INFINITY,
        )
    }

    #[test]
    fn one_to_one_matches_hand_result() {
        let g = weighted();
        let p = QueryEngine::new(&g)
            .shortest_path(VertexId(0), VertexId(4), CostModel::Length)
            .unwrap();
        // 0 -> 1 -> 3 -> 4 with cost 4 + 2 + 1 = 7 beats 0 -> 3 -> 4 = 9.
        assert_eq!(
            p.vertices(),
            &[VertexId(0), VertexId(1), VertexId(3), VertexId(4)]
        );
        assert!((p.length_m(&g) - 7.0).abs() < 1e-12);
        p.validate(&g).unwrap();
    }

    #[test]
    fn tree_distances_are_consistent() {
        let g = weighted();
        let mut engine = QueryEngine::new(&g);
        let tree = engine.one_to_all(VertexId(0), CostModel::Length);
        let expect = [0.0, 4.0, 5.0, 6.0, 7.0];
        for (i, &d) in expect.iter().enumerate() {
            let got = tree.dist(VertexId(i as u32));
            assert!((got - d).abs() < 1e-12, "dist[{i}] = {got} != {d}");
        }
        // Every tree path's cost equals the recorded distance.
        for v in (1..5u32).map(VertexId) {
            let p = tree.path_to(v).unwrap();
            assert!((p.length_m(&g) - tree.dist(v)).abs() < 1e-12);
        }
    }

    #[test]
    fn source_equals_target_is_none() {
        let g = weighted();
        let mut engine = QueryEngine::new(&g);
        assert!(engine
            .shortest_path(VertexId(2), VertexId(2), CostModel::Length)
            .is_none());
    }

    #[test]
    fn unreachable_target() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(1.0, 0.0));
        let v2 = b.add_vertex(Point::new(2.0, 0.0));
        b.add_edge(
            v0,
            v1,
            EdgeAttrs::with_default_speed(1.0, RoadCategory::Rural),
        )
        .unwrap();
        let g = b.build();
        let mut engine = QueryEngine::new(&g);
        assert!(engine.shortest_path(v0, v2, CostModel::Length).is_none());
        let tree = engine.one_to_all(v0, CostModel::Length);
        assert!(!tree.reached(v2));
        assert!(tree.path_to(v2).is_none());
    }

    #[test]
    fn banned_vertex_forces_detour() {
        let g = weighted();
        let mut bv = BitSet::new(g.vertex_count());
        let be = BitSet::new(g.edge_count());
        bv.insert(1); // ban vertex 1, killing 0-1-3-4
        let p = banned_path(&g, &bv, &be, 0).unwrap();
        assert_eq!(p.vertices(), &[VertexId(0), VertexId(3), VertexId(4)]);
        assert!((p.length_m(&g) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn banned_edge_forces_detour() {
        let g = weighted();
        let bv = BitSet::new(g.vertex_count());
        let mut be = BitSet::new(g.edge_count());
        // Ban the directed edge 1 -> 3 (find its id).
        let e13 = g.find_edge(VertexId(1), VertexId(3)).unwrap();
        be.insert(e13.0);
        let p = banned_path(&g, &bv, &be, 0).unwrap();
        // Best remaining: 0-1-2-4 = 4+1+3 = 8 vs 0-3-4 = 9.
        assert!((p.length_m(&g) - 8.0).abs() < 1e-12);
        assert_eq!(
            p.vertices(),
            &[VertexId(0), VertexId(1), VertexId(2), VertexId(4)]
        );
    }

    #[test]
    fn banned_source_or_target_returns_none() {
        let g = weighted();
        let mut bv = BitSet::new(g.vertex_count());
        let be = BitSet::new(g.edge_count());
        bv.insert(0);
        assert!(banned_path(&g, &bv, &be, 0).is_none());
        assert!(banned_path(&g, &bv, &be, 2).is_some());
        bv.insert(4);
        assert!(banned_path(&g, &bv, &be, 2).is_none());
    }

    #[test]
    fn travel_time_model_prefers_fast_roads() {
        // Two routes of equal length, one on a highway: fastest differs
        // from shortest.
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(500.0, 500.0));
        let v2 = b.add_vertex(Point::new(500.0, -500.0));
        let v3 = b.add_vertex(Point::new(1000.0, 0.0));
        let mut add = |f, t, w, category| {
            b.add_edge(f, t, EdgeAttrs::with_default_speed(w, category))
                .unwrap();
        };
        add(v0, v1, 1000.0, RoadCategory::Residential);
        add(v1, v3, 1000.0, RoadCategory::Residential);
        add(v0, v2, 1100.0, RoadCategory::Highway);
        add(v2, v3, 1100.0, RoadCategory::Highway);
        let g = b.build();
        let mut engine = QueryEngine::new(&g);
        let short = engine.shortest_path(v0, v3, CostModel::Length).unwrap();
        let fast = engine.shortest_path(v0, v3, CostModel::TravelTime).unwrap();
        assert_eq!(short.vertices()[1], v1);
        assert_eq!(fast.vertices()[1], v2);
    }

    /// Bellman–Ford distances from `s` under `weights`, into `s` over the
    /// reversed edges with `reverse` (slow but obviously correct).
    fn bellman_ford(g: &Graph, s: VertexId, weights: &[f64], reverse: bool) -> Vec<f64> {
        let n = g.vertex_count();
        let mut dist = vec![f64::INFINITY; n];
        dist[s.index()] = 0.0;
        for _ in 0..n {
            let mut changed = false;
            for (e, rec) in g.edges().enumerate() {
                let (from, to) = if reverse {
                    (rec.to, rec.from)
                } else {
                    (rec.from, rec.to)
                };
                let d = dist[from.index()] + weights[e];
                if d < dist[to.index()] {
                    dist[to.index()] = d;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        dist
    }

    /// Random connected-ish digraph: a Hamiltonian cycle (guaranteeing
    /// strong connectivity) plus random extra edges.
    fn random_graph(n: usize, extra: Vec<(usize, usize, u32)>) -> Graph {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..n)
            .map(|i| b.add_vertex(Point::new(i as f64, (i * i % 7) as f64)))
            .collect();
        for i in 0..n {
            b.add_edge(
                vs[i],
                vs[(i + 1) % n],
                EdgeAttrs::with_default_speed(10.0 + i as f64, RoadCategory::Rural),
            )
            .unwrap();
        }
        for (f, t, w) in extra {
            let (f, t) = (f % n, t % n);
            if f != t {
                let _ = b.add_edge(
                    vs[f],
                    vs[t],
                    EdgeAttrs::with_default_speed(1.0 + (w % 100) as f64, RoadCategory::Rural),
                );
            }
        }
        b.build()
    }

    /// `g`'s lengths with every `k`-th entry zeroed: the non-negative
    /// `Custom` vectors a live update may install.
    fn zeroed_lengths(g: &Graph, k: usize) -> Vec<f64> {
        let lengths = CostModel::Length.weights(g).iter().enumerate();
        lengths
            .map(|(e, &w)| if e % k == 0 { 0.0 } else { w })
            .collect()
    }

    use pathrank_testkit::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Forward and reverse one-to-all sweeps equal Bellman–Ford over
        /// the edges and over the reversed edges, on directed graphs,
        /// under the lengths and under a `Custom` vector with zeros.
        #[test]
        fn dijkstra_matches_bellman_ford(
            n in 2usize..24,
            extra in pathrank_testkit::collection::vec((0usize..24, 0usize..24, 0u32..1000), 0..40),
            s in 0usize..24,
            zero_every in 1usize..5,
        ) {
            let g = random_graph(n, extra);
            let s = VertexId((s % n) as u32);
            let zeroed = zeroed_lengths(&g, zero_every);
            let mut engine = QueryEngine::new(&g);
            for cost in [CostModel::Length, CostModel::Custom(&zeroed)] {
                for reverse in [false, true] {
                    let oracle = bellman_ford(&g, s, cost.weights(&g), reverse);
                    let tree = if reverse {
                        engine.one_to_all_rev(s, cost)
                    } else {
                        engine.one_to_all(s, cost)
                    };
                    for (v, &bf) in g.vertices().zip(oracle.iter()) {
                        let dj = tree.dist(v);
                        if bf.is_finite() {
                            prop_assert!((dj - bf).abs() < 1e-9,
                                "dist[{:?}] (reverse {}): dijkstra {} vs bf {}", v, reverse, dj, bf);
                        } else {
                            prop_assert!(!dj.is_finite());
                        }
                    }
                }
            }
        }

        #[test]
        fn tree_paths_cost_equals_distance(
            n in 2usize..20,
            extra in pathrank_testkit::collection::vec((0usize..20, 0usize..20, 0u32..1000), 0..30),
            zero_every in 1usize..5,
        ) {
            let g = random_graph(n, extra);
            let s = VertexId(0);
            let zeroed = zeroed_lengths(&g, zero_every);
            let mut engine = QueryEngine::new(&g);
            for cost in [CostModel::Length, CostModel::Custom(&zeroed)] {
                let tree = engine.one_to_all(s, cost);
                for v in g.vertices().skip(1) {
                    if let Some(p) = tree.path_to(v) {
                        p.validate(&g).unwrap();
                        prop_assert!(p.is_simple(), "shortest paths are simple");
                        prop_assert!((p.cost(&g, cost) - tree.dist(v)).abs() < 1e-9);
                    }
                }
            }
        }
    }
}
