//! The exactness harnesses' shared machinery: one random-graph strategy,
//! [`GraphCase`], whose failures shrink to a small graph; the search
//! backends over one graph, [`Backends`]; one oracle, plain Dijkstra on
//! a fresh engine ([`reference_cost`], [`assert_engine_agrees`]; under
//! bans, on the graph cost passed as a `Custom` vector, which no
//! heuristic guides); and the exactness regimes, written once over any
//! set of backends ([`regimes`]).

// Each harness uses some of these.
#![allow(dead_code)]

pub mod regimes;

use std::fmt;
use std::sync::Arc;

use pathrank::spatial::algo::cch::{Cch, CchConfig, CchTopology};
use pathrank::spatial::algo::ch::{ChConfig, ContractionHierarchy};
use pathrank::spatial::algo::engine::{QueryEngine, SearchBackend};
use pathrank::spatial::algo::landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable};
use pathrank::spatial::builder::GraphBuilder;
use pathrank::spatial::geometry::Point;
use pathrank::spatial::graph::{CostModel, EdgeAttrs, Graph, RoadCategory, VertexId};
use pathrank::spatial::path::Path;
use pathrank_rng::rngs::StdRng;
use pathrank_rng::Rng;
use pathrank_testkit::strategy::Strategy;

/// The most vertices a [`GraphCase`] draws.
pub const MAX_VERTICES: usize = 10;

/// A random directed graph: 2 to [`MAX_VERTICES`] vertices at integer
/// coordinates in a 5 km square, and up to 29 edges (47 for
/// [`GraphCase::multigraph`]) of integer weight `1..60`, built with one
/// attribute recipe. Sparse draws leave disconnected pairs.
///
/// It shrinks by the graph: drop half the edges, then single edges, then
/// a vertex with its edges (the highest first; the ids above it move down
/// one, so every kept edge still joins the same two vertices), then lower
/// weights toward 1. An endpoint is never rewired.
#[derive(Clone, Copy)]
pub struct GraphCase {
    attrs: fn(u32) -> EdgeAttrs,
    parallel: bool,
}

impl GraphCase {
    /// Graphs without parallel edges.
    pub fn new(attrs: fn(u32) -> EdgeAttrs) -> Self {
        GraphCase {
            attrs,
            parallel: false,
        }
    }

    /// Graphs whose repeated `(from, to)` draws become parallel edges.
    pub fn multigraph(attrs: fn(u32) -> EdgeAttrs) -> Self {
        GraphCase {
            attrs,
            parallel: true,
        }
    }
}

/// One graph a [`GraphCase`] drew: vertex coordinates and directed
/// `(from, to, weight)` edges, no self-loops, ends always in range.
#[derive(Clone)]
pub struct DrawnGraph {
    pub coords: Vec<(f64, f64)>,
    pub edges: Vec<(u32, u32, u32)>,
    pub attrs: fn(u32) -> EdgeAttrs,
}

impl DrawnGraph {
    /// The vertex count.
    pub fn n(&self) -> usize {
        self.coords.len()
    }

    /// Builds the graph: edge `i` of the draw is `EdgeId(i)`.
    pub fn graph(&self) -> Graph {
        let mut b = GraphBuilder::new();
        let vs: Vec<VertexId> = self
            .coords
            .iter()
            .map(|&(x, y)| b.add_vertex(Point::new(x, y)))
            .collect();
        for &(f, t, w) in &self.edges {
            b.add_edge(vs[f as usize], vs[t as usize], (self.attrs)(w))
                .unwrap();
        }
        b.build()
    }

    /// The draw without vertex `v` and its edges.
    fn without_vertex(&self, v: u32) -> DrawnGraph {
        let down = |u: u32| if u > v { u - 1 } else { u };
        let mut coords = self.coords.clone();
        coords.remove(v as usize);
        let edges = (self.edges.iter())
            .filter(|&&(f, t, _)| f != v && t != v)
            .map(|&(f, t, w)| (down(f), down(t), w))
            .collect();
        DrawnGraph {
            coords,
            edges,
            attrs: self.attrs,
        }
    }
}

/// What a failing property's report prints: `3 vertices [(x, y), ..],
/// 2 edges [0->1 w5, ..]`.
impl fmt::Debug for DrawnGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} vertices {:?}, {} edges [",
            self.n(),
            self.coords,
            self.edges.len()
        )?;
        for (i, (from, to, w)) in self.edges.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}{from}->{to} w{w}")?;
        }
        write!(f, "]")
    }
}

impl Strategy for GraphCase {
    type Value = DrawnGraph;

    fn sample(&self, rng: &mut StdRng) -> DrawnGraph {
        let n = rng.gen_range(2..=MAX_VERTICES);
        let coords = (0..n)
            .map(|_| (rng.gen_range(0..5000) as f64, rng.gen_range(0..5000) as f64))
            .collect();
        let draws = rng.gen_range(1..if self.parallel { 48 } else { 30 });
        let mut edges: Vec<(u32, u32, u32)> = Vec::with_capacity(draws);
        for _ in 0..draws {
            let from = rng.gen_range(0..n as u32);
            // Any other vertex: no self-loops.
            let to = rng.gen_range(0..n as u32 - 1);
            let to = if to >= from { to + 1 } else { to };
            let w = rng.gen_range(1..60);
            if self.parallel || !edges.iter().any(|&(f, t, _)| (f, t) == (from, to)) {
                edges.push((from, to, w));
            }
        }
        DrawnGraph {
            coords,
            edges,
            attrs: self.attrs,
        }
    }

    fn shrink(&self, value: &DrawnGraph) -> Vec<DrawnGraph> {
        let with_edges = |edges: Vec<(u32, u32, u32)>| DrawnGraph {
            edges,
            ..value.clone()
        };
        let m = value.edges.len();
        let mut out = Vec::new();
        if m >= 2 {
            out.push(with_edges(value.edges[m / 2..].to_vec()));
            out.push(with_edges(value.edges[..m - m / 2].to_vec()));
        }
        for i in 0..m {
            let mut edges = value.edges.clone();
            edges.remove(i);
            out.push(with_edges(edges));
        }
        if value.n() > 2 {
            out.extend((0..value.n() as u32).rev().map(|v| value.without_vertex(v)));
        }
        for (i, &(_, _, w)) in value.edges.iter().enumerate() {
            // 1 first, then ever closer to `w`.
            let lower = std::iter::successors(Some(w - 1).filter(|&d| d > 0), |&d| {
                Some(d / 2).filter(|&d| d > 0)
            });
            for d in lower {
                let mut edges = value.edges.clone();
                edges[i].2 = w - d;
                out.push(with_edges(edges));
            }
        }
        out
    }
}

/// A rural road `w` metres long at its default speed.
pub fn rural(w: u32) -> EdgeAttrs {
    EdgeAttrs::with_default_speed(w as f64, RoadCategory::Rural)
}

/// A rural road `w` metres long at 1.8 km/h, so its travel time is
/// exactly `2 × length`: integer-valued, and both metrics sum exactly in
/// `f64`.
pub fn integer_times(w: u32) -> EdgeAttrs {
    EdgeAttrs {
        length_m: w as f64,
        speed_kmh: 1.8,
        category: RoadCategory::Rural,
    }
}

/// A road `w` metres long whose category, and so free-flow speed,
/// follows `w % 3`.
pub fn mixed_categories(w: u32) -> EdgeAttrs {
    let category = match w % 3 {
        0 => RoadCategory::Arterial,
        1 => RoadCategory::Rural,
        _ => RoadCategory::Residential,
    };
    EdgeAttrs::with_default_speed(w as f64, category)
}

/// A live weight vector: edge `i`'s length times 4, 2 or 1 as `salt`
/// picks — its travel time at 0.9, 1.8 or 3.6 km/h — so every cost
/// stays an integer.
pub fn live_weights(g: &Graph, salt: u64) -> Vec<f64> {
    (g.edges().enumerate())
        .map(|(i, e)| {
            let pick = (i as u64).wrapping_mul(31).wrapping_add(salt) % 3;
            e.attrs.length_m * [4.0, 2.0, 1.0][pick as usize]
        })
        .collect()
}

/// A deterministic custom vector over `m` edges, `1..=17` per edge.
pub fn custom_weights(m: usize, salt: u32) -> Vec<f64> {
    (0..m as u32)
        .map(|i| 1.0 + ((i * salt) % 17) as f64)
        .collect()
}

/// The oracle: plain Dijkstra's `s -> t` cost under `cost` on a fresh
/// engine, `0.0` when `s == t` and `INFINITY` when unreachable — the
/// distance-table contract.
pub fn reference_cost(g: &Graph, s: VertexId, t: VertexId, cost: CostModel<'_>) -> f64 {
    if s == t {
        return 0.0;
    }
    path_cost(g, &QueryEngine::new(g).shortest_path(s, t, cost), cost)
}

/// The cost of `p` under `cost`, `INFINITY` when there is no path.
pub fn path_cost(g: &Graph, p: &Option<Path>, cost: CostModel<'_>) -> f64 {
    p.as_ref().map_or(f64::INFINITY, |p| p.cost(g, cost))
}

/// Every search backend over one graph, each index built once: landmarks
/// and a CH for `metric`, and a CCH topology with one customization,
/// first of `metric` (a harness swaps in others through `cch`).
pub struct Backends<'g> {
    pub g: &'g Graph,
    pub alt: Arc<LandmarkTable>,
    pub ch: Arc<ContractionHierarchy>,
    pub topo: Arc<CchTopology>,
    pub cch: Arc<Cch>,
}

/// The four backends, in the order [`Backends::engines`] yields them.
pub const BACKENDS: [SearchBackend; 4] = [
    SearchBackend::Plain,
    SearchBackend::Alt,
    SearchBackend::Ch,
    SearchBackend::Cch,
];

impl<'g> Backends<'g> {
    /// Three landmarks, with two threads wherever a build fans out.
    pub fn build(g: &'g Graph, metric: LandmarkMetric) -> Self {
        let alt = LandmarkConfig {
            count: 3,
            seed: 0xa17,
            threads: 2,
        };
        let ch = ChConfig { threads: 2 };
        let topo = Arc::new(CchTopology::build(g, &CchConfig { threads: 2 }));
        let graph_cost = match metric {
            LandmarkMetric::Length => CostModel::Length,
            LandmarkMetric::TravelTime => CostModel::TravelTime,
        };
        Backends {
            g,
            alt: Arc::new(LandmarkTable::build(g, metric, &alt)),
            ch: Arc::new(ContractionHierarchy::build(g, metric, &ch)),
            cch: Arc::new(topo.customize(g, &graph_cost)),
            topo,
        }
    }

    /// A fresh engine with `backend`'s index attached (none for `Plain`).
    pub fn engine(&self, backend: SearchBackend) -> QueryEngine<'g> {
        let engine = QueryEngine::new(self.g);
        match backend {
            SearchBackend::Plain => engine,
            SearchBackend::Alt => engine.with_landmarks(Arc::clone(&self.alt)),
            SearchBackend::Ch => engine.with_ch(Arc::clone(&self.ch)),
            SearchBackend::Cch => engine.with_cch(Arc::clone(&self.cch)),
        }
    }

    /// One fresh engine per backend of `backends`.
    pub fn engines<'a>(
        &'a self,
        backends: &'a [SearchBackend],
    ) -> impl Iterator<Item = (SearchBackend, QueryEngine<'g>)> + 'a {
        backends.iter().map(|&b| (b, self.engine(b)))
    }

    /// The backend `backend`'s engine must resolve `cost` to: its own
    /// when its index was built for `cost`, else `Plain`. Worked out from
    /// what was built, not from the engine's gate.
    pub fn resolves_to(&self, backend: SearchBackend, cost: CostModel<'_>) -> SearchBackend {
        let is_metric = |metric: LandmarkMetric| {
            matches!(
                (metric, cost),
                (LandmarkMetric::Length, CostModel::Length)
                    | (LandmarkMetric::TravelTime, CostModel::TravelTime)
            )
        };
        let covered = match (backend, cost) {
            (SearchBackend::Plain, _) => true,
            (SearchBackend::Alt | SearchBackend::Ch, _) => is_metric(self.ch.metric()),
            (SearchBackend::Cch, CostModel::Custom(w)) => {
                self.cch.custom_weights().is_some_and(|c| {
                    c.len() == w.len() && c.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits())
                })
            }
            (SearchBackend::Cch, _) => self.cch.metric().is_some_and(is_metric),
        };
        if covered {
            backend
        } else {
            SearchBackend::Plain
        }
    }
}

/// The engine of each of `backends` against the oracle under `cost`:
/// each resolves `cost` as [`Backends::resolves_to`] says and then
/// answers every ordered pair as [`assert_pair_agrees`] checks.
pub fn assert_backends_agree(
    b: &Backends<'_>,
    backends: &[SearchBackend],
    cost: CostModel<'_>,
    what: &str,
) {
    for (backend, mut engine) in b.engines(backends) {
        let expect = b.resolves_to(backend, cost);
        assert_engine_agrees(&mut engine, expect, cost, &format!("{what}/{backend:?}"));
    }
}

/// `engine` resolves `cost` to `expect` and answers every ordered pair of
/// distinct vertices as the oracle does.
pub fn assert_engine_agrees(
    engine: &mut QueryEngine<'_>,
    expect: SearchBackend,
    cost: CostModel<'_>,
    what: &str,
) {
    assert_eq!(engine.backend_for(cost), expect, "{what}: resolved backend");
    let n = engine.graph().vertex_count() as u32;
    for s in (0..n).map(VertexId) {
        for t in (0..n).map(VertexId) {
            if s != t {
                assert_pair_agrees(engine, s, t, cost, what);
            }
        }
    }
}

/// One `s -> t` query against the oracle, in bits: the path's cost and
/// the `shortest_path_cost` probe equal plain Dijkstra's, the path is a
/// simple, valid chain of edges from `s` to `t`, and a query no index
/// serves returns plain Dijkstra's very path.
pub fn assert_pair_agrees(
    engine: &mut QueryEngine<'_>,
    s: VertexId,
    t: VertexId,
    cost: CostModel<'_>,
    what: &str,
) {
    let g = engine.graph();
    let plain = QueryEngine::new(g).shortest_path(s, t, cost);
    let want = path_cost(g, &plain, cost);
    let got = engine.shortest_path(s, t, cost);
    let found = path_cost(g, &got, cost);
    assert!(
        found.to_bits() == want.to_bits(),
        "{what}: {s:?}->{t:?} costs {found}, Dijkstra {want}"
    );
    let probe = engine
        .shortest_path_cost(s, t, cost)
        .unwrap_or(f64::INFINITY);
    assert!(
        probe.to_bits() == want.to_bits(),
        "{what}: {s:?}->{t:?} probe says {probe}, Dijkstra {want}"
    );
    assert!(
        probe.to_bits() == found.to_bits(),
        "{what}: {s:?}->{t:?} probe says {probe}, its path {found}"
    );
    if let Some(p) = &got {
        p.validate(g)
            .unwrap_or_else(|e| panic!("{what}: {s:?}->{t:?} invalid path: {e:?}"));
        assert!(
            p.is_simple(),
            "{what}: {s:?}->{t:?} revisits a vertex: {p:?}"
        );
        let mut at = s;
        for &e in p.edges() {
            assert_eq!(g.edge(e).from, at, "{what}: {s:?}->{t:?} edges must chain");
            at = g.edge(e).to;
        }
        assert_eq!(at, t, "{what}: {s:?}->{t:?} path must end at the target");
    }
    if engine.backend_for(cost) == SearchBackend::Plain {
        assert_eq!(got, plain, "{what}: {s:?}->{t:?} fallback path");
    }
}
