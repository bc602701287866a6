//! Machine-readable routing benchmark: fresh-allocation baseline vs
//! reused [`QueryEngine`] vs ALT-landmark-guided engine vs
//! contraction-hierarchy-backed engine, written to `BENCH_routing.json`.
//!
//! Measures median ns/query for the routing workloads the training
//! pipeline leans on — repeated one-to-one queries (length and
//! travel-time metrics), one-to-all trees, and Yen top-k. The **fresh**
//! rows run a faithful reconstruction of the seed's pre-engine routing
//! layer (every search allocates fresh `O(V)` `dist`/`parent` vectors, a
//! bitset and a heap; Yen allocates per *spur search*; plain Dijkstra
//! throughout). The **reused** rows run the shipped engine: one
//! `SearchSpace` with generation-stamped O(1) reset, cached A* heuristic
//! bounds, and target-directed spur searches. The **reused_alt** rows
//! additionally attach a precomputed [`LandmarkTable`] (build time under
//! `"alt"`), and the **reused_ch** rows a [`ContractionHierarchy`]
//! (build time under `"ch"`): unconstrained point-to-point queries run
//! the bidirectional upward search, Yen spur searches keep ALT. The
//! `fastest_one_to_one` rows exercise the TravelTime metric through a
//! TravelTime-built landmark table (fastest-path serving). The
//! `snap_throughput` rows race the retired uniform grid against
//! the packed R-tree on the fleet's real GPS fixes (candidate sets
//! asserted identical first). Answers stay exact — asserted against the
//! baseline before timing. The JSON makes the perf trajectory of the
//! routing layer trackable across PRs.
//!
//! The `imported_*` rows run the same workloads on a real (imported)
//! road network: by default the checked-in OSM fixture extract
//! (`fixtures/osm/pathrank_city.osm.xml`, parsed and imported on the
//! fly — import time reported under `"imported_graph"`), or any network
//! passed with `--graph` (raw OSM XML, a persisted import, or a plain
//! graph file).
//!
//! ```text
//! cargo run --release -p pathrank-bench --bin bench_routing \
//!     [-- --quick] [--out FILE] [--graph NETWORK]
//! ```

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use pathrank_obs::{Registry, Series};
use pathrank_spatial::algo::cch::{CchConfig, CchTopology};
use pathrank_spatial::algo::ch::{ChConfig, ContractionHierarchy};
use pathrank_spatial::algo::engine::{EngineObs, QueryEngine};
use pathrank_spatial::algo::landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable};
use pathrank_spatial::generators::{region_network, RegionConfig};
use pathrank_spatial::geometry::{point_segment_distance, Point};
use pathrank_spatial::graph::{CostModel, EdgeId, Graph, VertexId};
use pathrank_spatial::rtree::RTree;
use pathrank_traj::mapmatch::{EdgeIndex, MapMatchConfig, MapMatcher};
use pathrank_traj::simulator::{simulate_fleet, SimulationConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 2020;
const YEN_K: usize = 8;

/// Faithful reconstruction of the seed's pre-engine routing layer, kept
/// here (not in the library) purely as the benchmark baseline: every
/// search allocates its `O(V)` state fresh, exactly like the original
/// `dijkstra.rs::run`, and Yen fires one such fresh search per spur.
mod seed_baseline {
    use std::collections::{BinaryHeap, HashSet};

    use pathrank_spatial::graph::{CostModel, EdgeId, Graph, VertexId};
    use pathrank_spatial::path::Path;
    use pathrank_spatial::util::{BitSet, MinCost};

    struct Tree {
        dist: Vec<f64>,
        parent: Vec<Option<(VertexId, EdgeId)>>,
    }

    /// The seed's shared Dijkstra core: fresh `dist`/`parent`/`settled`
    /// and heap allocations on every call.
    fn run(
        g: &Graph,
        source: VertexId,
        target: Option<VertexId>,
        cost: CostModel<'_>,
        banned_vertices: Option<&BitSet>,
        banned_edges: Option<&BitSet>,
    ) -> Tree {
        let n = g.vertex_count();
        let mut dist = vec![f64::INFINITY; n];
        let mut parent: Vec<Option<(VertexId, EdgeId)>> = vec![None; n];
        let mut settled = BitSet::new(n);
        let mut heap: BinaryHeap<MinCost<VertexId>> = BinaryHeap::new();

        dist[source.index()] = 0.0;
        heap.push(MinCost {
            cost: 0.0,
            item: source,
        });

        while let Some(MinCost { cost: d, item: u }) = heap.pop() {
            if settled.contains(u.0) {
                continue;
            }
            settled.insert(u.0);
            if target == Some(u) {
                break;
            }
            for (v, e) in g.out_edges(u) {
                if settled.contains(v.0) {
                    continue;
                }
                if let Some(bv) = banned_vertices {
                    if bv.contains(v.0) {
                        continue;
                    }
                }
                if let Some(be) = banned_edges {
                    if be.contains(e.0) {
                        continue;
                    }
                }
                let nd = d + cost.edge_cost(g, e);
                if nd < dist[v.index()] {
                    dist[v.index()] = nd;
                    parent[v.index()] = Some((u, e));
                    heap.push(MinCost { cost: nd, item: v });
                }
            }
        }
        Tree { dist, parent }
    }

    fn path_from(g: &Graph, tree: &Tree, source: VertexId, target: VertexId) -> Option<Path> {
        if !tree.dist[target.index()].is_finite() || source == target {
            return None;
        }
        let mut edges = Vec::new();
        let mut cur = target;
        while let Some((prev, e)) = tree.parent[cur.index()] {
            edges.push(e);
            cur = prev;
        }
        edges.reverse();
        Some(Path::from_edges(g, edges).expect("parent chain forms a path"))
    }

    pub fn shortest_path(
        g: &Graph,
        source: VertexId,
        target: VertexId,
        cost: CostModel<'_>,
    ) -> Option<Path> {
        if source == target {
            return None;
        }
        let tree = run(g, source, Some(target), cost, None, None);
        path_from(g, &tree, source, target)
    }

    pub fn one_to_all_dist(g: &Graph, source: VertexId, cost: CostModel<'_>) -> Vec<f64> {
        run(g, source, None, cost, None, None).dist
    }

    /// The seed's Yen loop: every spur search is a fresh-allocation
    /// constrained Dijkstra.
    pub fn yen_k_shortest(
        g: &Graph,
        source: VertexId,
        target: VertexId,
        cost: CostModel<'_>,
        k: usize,
    ) -> Vec<(Path, f64)> {
        let mut accepted: Vec<(Path, f64)> = Vec::new();
        let mut candidates: BinaryHeap<MinCost<Path>> = BinaryHeap::new();
        let mut candidate_seen: HashSet<Vec<VertexId>> = HashSet::new();

        let Some(first) = shortest_path(g, source, target, cost) else {
            return accepted;
        };
        let c = first.cost(g, cost);
        accepted.push((first, c));

        while accepted.len() < k {
            let (prev, _) = accepted.last().expect("non-empty").clone();
            let prev_vertices = prev.vertices().to_vec();
            for i in 0..prev.len() {
                let spur_node = prev_vertices[i];
                let root_vertices = &prev_vertices[..=i];
                let mut banned_vertices = BitSet::new(g.vertex_count());
                let mut banned_edges = BitSet::new(g.edge_count());
                for (p, _) in &accepted {
                    let pv = p.vertices();
                    if pv.len() > i && &pv[..=i] == root_vertices {
                        banned_edges.insert(p.edges()[i].0);
                    }
                }
                for v in &root_vertices[..i] {
                    banned_vertices.insert(v.0);
                }
                if banned_vertices.contains(spur_node.0) || banned_vertices.contains(target.0) {
                    continue;
                }
                if spur_node == target {
                    continue;
                }
                let tree = run(
                    g,
                    spur_node,
                    Some(target),
                    cost,
                    Some(&banned_vertices),
                    Some(&banned_edges),
                );
                let Some(spur) = path_from(g, &tree, spur_node, target) else {
                    continue;
                };
                let total = if i == 0 {
                    spur
                } else {
                    prev.prefix(i)
                        .expect("i in 1..len")
                        .concat(&spur)
                        .expect("root ends at spur")
                };
                if candidate_seen.insert(total.vertices().to_vec()) {
                    let c = total.cost(g, cost);
                    candidates.push(MinCost {
                        cost: c,
                        item: total,
                    });
                }
            }
            match candidates.pop() {
                Some(MinCost { cost, item }) => accepted.push((item, cost)),
                None => break,
            }
        }
        accepted
    }
}

struct Scenario {
    name: &'static str,
    mode: &'static str,
    queries: usize,
    reps: usize,
    median_ns_per_query: f64,
}

/// Runs `pass` (one full sweep over `queries` queries) `reps` times and
/// returns the median ns per query (exact, via the shared obs
/// [`Series`] type).
fn measure(reps: usize, queries: usize, mut pass: impl FnMut()) -> f64 {
    pass(); // warm-up sweep (page in code and graph)
    let mut per_query = Series::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        pass();
        per_query.push(t0.elapsed().as_nanos() as f64 / queries as f64);
    }
    per_query.median()
}

/// Origin/destination pairs in the simulator's trip band, mirroring the
/// workload candidate generation and map matching actually issue.
fn trip_pairs(g: &Graph, count: usize, lo_m: f64, hi_m: f64) -> Vec<(VertexId, VertexId)> {
    let n = g.vertex_count() as u32;
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xbe7c);
    let mut pairs = Vec::with_capacity(count);
    let mut attempts = 0usize;
    while pairs.len() < count && attempts < count * 400 {
        attempts += 1;
        let s = VertexId(rng.gen_range(0..n));
        let t = VertexId(rng.gen_range(0..n));
        if s == t {
            continue;
        }
        let d = g.euclidean(s, t);
        if d < lo_m || d > hi_m {
            continue;
        }
        pairs.push((s, t));
    }
    assert!(
        !pairs.is_empty(),
        "no routable pairs found in the distance band"
    );
    pairs
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_routing.json".to_string());
    // The imported-network rows default to the checked-in fixture. The
    // label (what the JSON reports) stays repo-relative for the default
    // so the committed artifact is machine-independent.
    let graph_arg = args
        .iter()
        .position(|a| a == "--graph")
        .and_then(|i| args.get(i + 1).cloned());
    let graph_label = graph_arg
        .clone()
        .unwrap_or_else(|| "fixtures/osm/pathrank_city.osm.xml".to_string());
    let graph_path = graph_arg.unwrap_or_else(|| {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../fixtures/osm/pathrank_city.osm.xml"
        )
        .to_string()
    });

    let region = if quick {
        RegionConfig::small_test()
    } else {
        RegionConfig::paper_scale()
    };
    let g = region_network(&region, SEED);
    eprintln!(
        "routing bench: {} vertices, {} edges ({})",
        g.vertex_count(),
        g.edge_count(),
        if quick { "quick" } else { "paper scale" }
    );

    let (reps, n_p2p, n_trees, n_yen) = if quick { (5, 24, 4, 2) } else { (9, 64, 8, 4) };
    // Same band the fleet simulator draws trips from at this scale.
    let (lo_m, hi_m) = if quick {
        (300.0, 5_000.0)
    } else {
        (800.0, 15_000.0)
    };
    let p2p = trip_pairs(&g, n_p2p, lo_m, hi_m);
    let yen_pairs = &p2p[..n_yen.min(p2p.len())];
    let tree_sources: Vec<VertexId> = p2p.iter().take(n_trees).map(|&(s, _)| s).collect();

    // Deduplicated endpoint pools for the batched scenarios (≥32×32 at
    // paper scale — the HMM transition-matrix shape).
    let m2m_side = if quick { 8 } else { 32 };
    let mut m2m_sources: Vec<VertexId> = Vec::new();
    let mut m2m_targets: Vec<VertexId> = Vec::new();
    for &(s, t) in &trip_pairs(&g, 6 * m2m_side, lo_m, hi_m) {
        if m2m_sources.len() < m2m_side && !m2m_sources.contains(&s) {
            m2m_sources.push(s);
        }
        if m2m_targets.len() < m2m_side && !m2m_targets.contains(&t) {
            m2m_targets.push(t);
        }
    }
    assert_eq!(
        (m2m_sources.len(), m2m_targets.len()),
        (m2m_side, m2m_side),
        "not enough distinct endpoints in the trip band"
    );

    // ALT preprocessing (timed): the landmark table every `reused_alt`
    // row routes with.
    let t0 = Instant::now();
    let table = Arc::new(LandmarkTable::build(
        &g,
        LandmarkMetric::Length,
        &LandmarkConfig::default(),
    ));
    let alt_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "ALT: {} landmarks precomputed in {alt_build_ms:.1} ms",
        table.k()
    );

    // TravelTime-metric landmark table: the fastest-path serving index.
    let t0 = Instant::now();
    let tt_table = Arc::new(LandmarkTable::build(
        &g,
        LandmarkMetric::TravelTime,
        &LandmarkConfig::default(),
    ));
    let alt_tt_build_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Contraction hierarchy (timed): the index every `reused_ch` row
    // routes with.
    let t0 = Instant::now();
    let ch = Arc::new(ContractionHierarchy::build(
        &g,
        LandmarkMetric::Length,
        &ChConfig::default(),
    ));
    let ch_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "CH: {} shortcuts over {} edges in {ch_build_ms:.1} ms",
        ch.shortcut_count(),
        g.edge_count()
    );

    // TravelTime-metric hierarchy (timed): fastest-path serving on a CH
    // instead of the ALT fallback.
    let t0 = Instant::now();
    let ch_tt = Arc::new(ContractionHierarchy::build(
        &g,
        LandmarkMetric::TravelTime,
        &ChConfig::default(),
    ));
    let ch_tt_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "TT CH: {} shortcuts in {ch_tt_build_ms:.1} ms",
        ch_tt.shortcut_count()
    );

    // Customizable CH: the metric-independent topology is built once
    // (timed), then each metric is a customization pass — the cost a
    // live weight change actually pays, to contrast with the full
    // rebuilds above.
    let t0 = Instant::now();
    let cch_topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
    let cch_topo_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let cch = Arc::new(cch_topo.customize(&g, &CostModel::Length));
    let cch_customize_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let cch_tt = Arc::new(cch_topo.customize(&g, &CostModel::TravelTime));
    let cch_customize_tt_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "CCH: {} arcs ({} fill-ins, {} triangles) in {cch_topo_build_ms:.1} ms; customize {cch_customize_ms:.2} ms length / {cch_customize_tt_ms:.2} ms travel-time",
        cch_topo.arc_count(),
        cch_topo.fill_in_count(),
        cch_topo.triangle_count()
    );

    // The engines' answers must agree with the baseline's before any
    // timing is trusted (equal costs; tie-breaking may differ) — for the
    // plain reused engine, the ALT-guided one *and* the CH-backed one.
    {
        let mut engine = QueryEngine::new(&g);
        let mut alt = QueryEngine::new(&g).with_landmarks(Arc::clone(&table));
        let mut chx = QueryEngine::new(&g)
            .with_landmarks(Arc::clone(&table))
            .with_ch(Arc::clone(&ch));
        let mut tt = QueryEngine::new(&g).with_landmarks(Arc::clone(&tt_table));
        let mut tt_ch_engine = QueryEngine::new(&g).with_ch(Arc::clone(&ch_tt));
        let mut cchx = QueryEngine::new(&g).with_cch(Arc::clone(&cch));
        let mut tt_cch_engine = QueryEngine::new(&g).with_cch(Arc::clone(&cch_tt));
        assert!(alt.uses_alt(CostModel::Length));
        assert!(chx.uses_ch(CostModel::Length));
        assert!(tt.uses_alt(CostModel::TravelTime));
        assert!(tt_ch_engine.uses_ch(CostModel::TravelTime));
        assert!(!tt_ch_engine.uses_ch(CostModel::Length));
        assert!(cchx.uses_cch(CostModel::Length));
        assert!(tt_cch_engine.uses_cch(CostModel::TravelTime));
        assert!(!tt_cch_engine.uses_cch(CostModel::Length));
        for &(s, t) in &p2p {
            let a =
                seed_baseline::shortest_path(&g, s, t, CostModel::Length).map(|p| p.length_m(&g));
            for engine in [&mut engine, &mut alt, &mut chx, &mut cchx] {
                let b = engine
                    .astar_shortest_path(s, t, CostModel::Length)
                    .map(|p| p.length_m(&g));
                match (a, b) {
                    (Some(a), Some(b)) => {
                        assert!((a - b).abs() < 1e-6, "cost mismatch {s:?}->{t:?}")
                    }
                    (None, None) => {}
                    (a, b) => panic!("reachability mismatch {s:?}->{t:?}: {a:?} vs {b:?}"),
                }
            }
            let a = seed_baseline::shortest_path(&g, s, t, CostModel::TravelTime)
                .map(|p| p.travel_time_s(&g));
            for engine in [&mut tt, &mut tt_ch_engine, &mut tt_cch_engine] {
                let b = engine
                    .astar_shortest_path(s, t, CostModel::TravelTime)
                    .map(|p| p.travel_time_s(&g));
                match (a, b) {
                    (Some(a), Some(b)) => {
                        assert!((a - b).abs() < 1e-6, "TT cost mismatch {s:?}->{t:?}")
                    }
                    (None, None) => {}
                    (a, b) => panic!("TT reachability mismatch {s:?}->{t:?}: {a:?} vs {b:?}"),
                }
            }
        }
        for &(s, t) in yen_pairs {
            let a = seed_baseline::yen_k_shortest(&g, s, t, CostModel::Length, YEN_K);
            for engine in [&mut engine, &mut alt, &mut chx] {
                let b = engine.yen_k_shortest(s, t, CostModel::Length, YEN_K);
                assert_eq!(a.len(), b.len(), "yen count mismatch {s:?}->{t:?}");
                for ((_, ca), (_, cb)) in a.iter().zip(b.iter()) {
                    assert!((ca - cb).abs() < 1e-6, "yen cost mismatch {s:?}->{t:?}");
                }
            }
        }
        // The batched table must agree with the pairwise CH probes it
        // replaces, and the bucket one-to-many with the one-to-all tree.
        let table = chx
            .many_to_many(&m2m_sources, &m2m_targets, CostModel::Length)
            .expect("length CH attached");
        for (i, &s) in m2m_sources.iter().enumerate() {
            for (j, &t) in m2m_targets.iter().enumerate() {
                let pairwise = chx
                    .shortest_path_cost(s, t, CostModel::Length)
                    .unwrap_or(f64::INFINITY);
                let batched = table.dist(i, j);
                assert!(
                    (pairwise - batched).abs() < 1e-6
                        || (pairwise.is_infinite() && batched.is_infinite()),
                    "m2m mismatch {s:?}->{t:?}: {pairwise} vs {batched}"
                );
            }
        }
        for &s in &tree_sources {
            let batched = chx
                .one_to_many(s, &m2m_targets, CostModel::Length)
                .expect("length CH attached");
            let view = engine.one_to_all(s, CostModel::Length);
            for (j, &t) in m2m_targets.iter().enumerate() {
                let full = view.dist(t);
                assert!(
                    (full - batched[j]).abs() < 1e-6
                        || (full.is_infinite() && batched[j].is_infinite()),
                    "one_to_many mismatch {s:?}->{t:?}"
                );
            }
        }
    }

    let mut scenarios: Vec<Scenario> = Vec::new();
    let mut record =
        |name: &'static str, mode: &'static str, queries: usize, reps: usize, ns: f64| {
            eprintln!("  {name:<12} {mode:<6} {ns:>12.0} ns/query");
            scenarios.push(Scenario {
                name,
                mode,
                queries,
                reps,
                median_ns_per_query: ns,
            });
        };

    // One-to-one: the transition-probe / spur-search shape. Three rows
    // separate the two effects the engine brings: `reused_dijkstra` is
    // the same algorithm as the baseline (isolating pure state reuse),
    // `reused` is the engine's full point-to-point path (reuse + cached
    // A* bound — the speedup a migrated caller actually gets).
    let fresh = measure(reps, p2p.len(), || {
        for &(s, t) in &p2p {
            std::hint::black_box(seed_baseline::shortest_path(&g, s, t, CostModel::Length));
        }
    });
    record("one_to_one", "fresh", p2p.len(), reps, fresh);
    let mut engine = QueryEngine::new(&g);
    let reused_dijkstra = measure(reps, p2p.len(), || {
        for &(s, t) in &p2p {
            std::hint::black_box(engine.shortest_path(s, t, CostModel::Length));
        }
    });
    record(
        "one_to_one",
        "reused_dijkstra",
        p2p.len(),
        reps,
        reused_dijkstra,
    );
    let mut engine = QueryEngine::new(&g);
    let reused = measure(reps, p2p.len(), || {
        for &(s, t) in &p2p {
            std::hint::black_box(engine.astar_shortest_path(s, t, CostModel::Length));
        }
    });
    record("one_to_one", "reused", p2p.len(), reps, reused);
    let mut engine = QueryEngine::new(&g).with_landmarks(Arc::clone(&table));
    let reused_alt = measure(reps, p2p.len(), || {
        for &(s, t) in &p2p {
            std::hint::black_box(engine.astar_shortest_path(s, t, CostModel::Length));
        }
    });
    record("one_to_one", "reused_alt", p2p.len(), reps, reused_alt);
    let mut engine = QueryEngine::new(&g).with_ch(Arc::clone(&ch));
    let reused_ch = measure(reps, p2p.len(), || {
        for &(s, t) in &p2p {
            std::hint::black_box(engine.shortest_path(s, t, CostModel::Length));
        }
    });
    record("one_to_one", "reused_ch", p2p.len(), reps, reused_ch);
    let mut engine = QueryEngine::new(&g).with_cch(Arc::clone(&cch));
    let reused_cch = measure(reps, p2p.len(), || {
        for &(s, t) in &p2p {
            std::hint::black_box(engine.shortest_path(s, t, CostModel::Length));
        }
    });
    record("one_to_one", "reused_cch", p2p.len(), reps, reused_cch);
    // Observability overhead: the identical CH-backed one-to-one
    // workload with a live metrics registry attached vs the
    // construction-time no-op sink. The search loops carry plain u64
    // work counters either way; a live registry adds a few relaxed
    // pinned-shard counter adds per *query* (not per vertex), so the
    // ratio must hold the < 2% budget the obs layer promises — checked
    // here on the fastest backend, where instrumentation is
    // proportionally largest. The two engines alternate sweep-by-sweep
    // (A/B interleave) so clock drift and thermal throttle cancel out
    // of the ratio instead of landing on one side.
    let mut engine_off = QueryEngine::new(&g).with_ch(Arc::clone(&ch));
    let obs_registry = Registry::new();
    let mut engine_on = QueryEngine::new(&g)
        .with_ch(Arc::clone(&ch))
        .with_obs(EngineObs::new(&obs_registry));
    // Many short interleaved sweeps beat few long ones here: the
    // question is a ~2% ratio, so the medians need enough samples to
    // shrug off scheduler blips. 201 sweeps/side costs single-digit
    // milliseconds even at paper scale.
    let obs_reps = (reps * 3).max(201);
    let mut sweep_off = |acc: Option<&mut Series>| {
        let t0 = Instant::now();
        for &(s, t) in &p2p {
            std::hint::black_box(engine_off.shortest_path(s, t, CostModel::Length));
        }
        if let Some(acc) = acc {
            acc.push(t0.elapsed().as_nanos() as f64 / p2p.len() as f64);
        }
    };
    let mut sweep_on = |acc: Option<&mut Series>| {
        let t0 = Instant::now();
        for &(s, t) in &p2p {
            std::hint::black_box(engine_on.shortest_path(s, t, CostModel::Length));
        }
        if let Some(acc) = acc {
            acc.push(t0.elapsed().as_nanos() as f64 / p2p.len() as f64);
        }
    };
    sweep_off(None); // warm both engines before the first timed sweep
    sweep_on(None);
    let mut off_series = Series::with_capacity(obs_reps);
    let mut on_series = Series::with_capacity(obs_reps);
    for _ in 0..obs_reps {
        sweep_off(Some(&mut off_series));
        sweep_on(Some(&mut on_series));
    }
    let obs_off = off_series.median();
    let obs_on = on_series.median();
    record("one_to_one", "obs_off", p2p.len(), obs_reps, obs_off);
    record("one_to_one", "obs_on", p2p.len(), obs_reps, obs_on);
    let obs_overhead_ratio = obs_on / obs_off;
    let counted = obs_registry
        .snapshot()
        .counter_total("pathrank_engine_queries_total", &[]);
    assert_eq!(
        counted as usize,
        (obs_reps + 1) * p2p.len(),
        "instrumented engine must count every query (warm-up included)"
    );
    let speedup_p2p = fresh / reused;
    let speedup_p2p_cch = fresh / reused_cch;
    let speedup_p2p_alt = fresh / reused_alt;
    let speedup_p2p_ch = fresh / reused_ch;
    let speedup_p2p_reuse_only = fresh / reused_dijkstra;

    // Fastest-path (TravelTime) serving: the fresh baseline vs the
    // TravelTime-metric landmark table the Workbench now carries.
    let fresh_tt = measure(reps, p2p.len(), || {
        for &(s, t) in &p2p {
            std::hint::black_box(seed_baseline::shortest_path(
                &g,
                s,
                t,
                CostModel::TravelTime,
            ));
        }
    });
    record("fastest_one_to_one", "fresh", p2p.len(), reps, fresh_tt);
    let mut engine = QueryEngine::new(&g).with_landmarks(Arc::clone(&tt_table));
    let reused_alt_tt = measure(reps, p2p.len(), || {
        for &(s, t) in &p2p {
            std::hint::black_box(engine.astar_shortest_path(s, t, CostModel::TravelTime));
        }
    });
    record(
        "fastest_one_to_one",
        "reused_alt",
        p2p.len(),
        reps,
        reused_alt_tt,
    );
    let speedup_tt_alt = fresh_tt / reused_alt_tt;
    // The TravelTime-metric hierarchy: fastest-path serving stops
    // falling back to ALT.
    let mut engine = QueryEngine::new(&g).with_ch(Arc::clone(&ch_tt));
    let reused_ch_tt = measure(reps, p2p.len(), || {
        for &(s, t) in &p2p {
            std::hint::black_box(engine.shortest_path(s, t, CostModel::TravelTime));
        }
    });
    record(
        "fastest_one_to_one",
        "reused_ch",
        p2p.len(),
        reps,
        reused_ch_tt,
    );
    let speedup_tt_ch = fresh_tt / reused_ch_tt;
    // The customized hierarchy serving fastest paths — the index live
    // traffic would re-customize instead of rebuilding.
    let mut engine = QueryEngine::new(&g).with_cch(Arc::clone(&cch_tt));
    let reused_cch_tt = measure(reps, p2p.len(), || {
        for &(s, t) in &p2p {
            std::hint::black_box(engine.shortest_path(s, t, CostModel::TravelTime));
        }
    });
    record(
        "fastest_one_to_one",
        "reused_cch",
        p2p.len(),
        reps,
        reused_cch_tt,
    );
    let speedup_tt_cch = fresh_tt / reused_cch_tt;

    // One-to-all trees: the edge-popularity / preprocessing shape. The
    // reused side also skips materialising the O(V) result arrays by
    // reading through the borrowed TreeView.
    let fresh = measure(reps, tree_sources.len(), || {
        for &s in &tree_sources {
            std::hint::black_box(seed_baseline::one_to_all_dist(&g, s, CostModel::Length)[0]);
        }
    });
    record("one_to_all", "fresh", tree_sources.len(), reps, fresh);
    let mut engine = QueryEngine::new(&g);
    let reused = measure(reps, tree_sources.len(), || {
        for &s in &tree_sources {
            std::hint::black_box(engine.one_to_all(s, CostModel::Length).dist(VertexId(0)));
        }
    });
    record("one_to_all", "reused", tree_sources.len(), reps, reused);
    let speedup_tree = fresh / reused;

    // One-to-many: the batched bounded-target shape. The fresh and
    // reused rows pay a full one-to-all sweep and read the targets out;
    // the CH row runs the bucket algorithm (per-target backward sweeps +
    // one forward sweep) and never touches the rest of the graph.
    let fresh = measure(reps, tree_sources.len(), || {
        for &s in &tree_sources {
            let d = seed_baseline::one_to_all_dist(&g, s, CostModel::Length);
            let mut acc = 0.0;
            for &t in &m2m_targets {
                acc += d[t.index()];
            }
            std::hint::black_box(acc);
        }
    });
    record("one_to_many", "fresh", tree_sources.len(), reps, fresh);
    let mut engine = QueryEngine::new(&g);
    let reused = measure(reps, tree_sources.len(), || {
        for &s in &tree_sources {
            let view = engine.one_to_all(s, CostModel::Length);
            let mut acc = 0.0;
            for &t in &m2m_targets {
                acc += view.dist(t);
            }
            std::hint::black_box(acc);
        }
    });
    record("one_to_many", "reused", tree_sources.len(), reps, reused);
    let mut engine = QueryEngine::new(&g).with_ch(Arc::clone(&ch));
    let reused_ch_otm = measure(reps, tree_sources.len(), || {
        for &s in &tree_sources {
            std::hint::black_box(engine.one_to_many(s, &m2m_targets, CostModel::Length));
        }
    });
    record(
        "one_to_many",
        "reused_ch",
        tree_sources.len(),
        reps,
        reused_ch_otm,
    );
    let speedup_one_to_many = reused / reused_ch_otm;

    // Many-to-many: the HMM transition-matrix shape. `pairwise_ch` is
    // what PR 3's matcher effectively does — one independent CH probe
    // per (source, target) pair — against one bucket-based
    // DistanceTable for the whole S×T block.
    let pair_count = m2m_sources.len() * m2m_targets.len();
    let mut engine = QueryEngine::new(&g).with_ch(Arc::clone(&ch));
    let pairwise_ch = measure(reps, pair_count, || {
        for &s in &m2m_sources {
            for &t in &m2m_targets {
                std::hint::black_box(engine.shortest_path_cost(s, t, CostModel::Length));
            }
        }
    });
    record("many_to_many", "pairwise_ch", pair_count, reps, pairwise_ch);
    let m2m_table_ns = measure(reps, pair_count, || {
        std::hint::black_box(engine.many_to_many(&m2m_sources, &m2m_targets, CostModel::Length));
    });
    record("many_to_many", "reused_ch", pair_count, reps, m2m_table_ns);
    let speedup_m2m = pairwise_ch / m2m_table_ns;

    // Map-matching throughput: whole traces through the reusable
    // matcher. `reused_ch` reproduces PR 3's configuration (CH-backed
    // pairwise transition probes through the fleet sp-cache); `m2m`
    // additionally bulk-fills each ping-to-ping block from one
    // DistanceTable. Caches reset per pass so both sides pay cold-fleet
    // costs; matches are asserted identical before timing.
    let sim = if quick {
        SimulationConfig {
            n_vehicles: 4,
            trips_per_vehicle: 1,
            ..SimulationConfig::small_test()
        }
    } else {
        SimulationConfig {
            n_vehicles: 8,
            trips_per_vehicle: 1,
            min_trip_euclid_m: 800.0,
            max_trip_euclid_m: 6_000.0,
            ..SimulationConfig::paper_scale()
        }
    };
    let trips = simulate_fleet(&g, &sim, SEED ^ 0x77);
    let mm_cfg = MapMatchConfig::default();
    {
        let mut on = MapMatcher::new(&g, mm_cfg.clone()).with_ch(Arc::clone(&ch));
        let mut off = MapMatcher::new(&g, mm_cfg.clone())
            .with_ch(Arc::clone(&ch))
            .with_m2m(false);
        for trip in &trips {
            let a = on.match_trace(&trip.trace).map(|p| p.edges().to_vec());
            let b = off.match_trace(&trip.trace).map(|p| p.edges().to_vec());
            assert_eq!(a, b, "m2m bulk fill changed a match");
        }
        assert!(on.stats().m2m_tables > 0, "m2m matcher must build tables");
    }
    let mm_reps = reps.min(5);
    let mut matcher = MapMatcher::new(&g, mm_cfg.clone())
        .with_ch(Arc::clone(&ch))
        .with_m2m(false);
    let mm_pairwise = measure(mm_reps, trips.len(), || {
        matcher.reset_cache();
        for trip in &trips {
            std::hint::black_box(matcher.match_trace(&trip.trace));
        }
    });
    record(
        "mapmatch_throughput",
        "reused_ch",
        trips.len(),
        mm_reps,
        mm_pairwise,
    );
    let mut matcher = MapMatcher::new(&g, mm_cfg.clone()).with_ch(Arc::clone(&ch));
    let mm_m2m = measure(mm_reps, trips.len(), || {
        matcher.reset_cache();
        for trip in &trips {
            std::hint::black_box(matcher.match_trace(&trip.trace));
        }
    });
    record("mapmatch_throughput", "m2m", trips.len(), mm_reps, mm_m2m);
    let speedup_mapmatch = mm_pairwise / mm_m2m;

    // Candidate snapping: the retired uniform grid against the packed
    // R-tree, probed with the fleet's real GPS fixes. The grid returns a
    // cell-superset that the caller must distance-filter (exactly what
    // the matcher's candidate loop used to pay per fix); the R-tree
    // returns the exact in-radius set directly. Both index builds are
    // timed, and candidate sets are asserted identical on every probe
    // before any timing is trusted.
    let probes: Vec<Point> = trips
        .iter()
        .flat_map(|t| t.trace.points.iter().map(|p| p.pos))
        .collect();
    let snap_radius = mm_cfg.candidate_radius_m;
    let t0 = Instant::now();
    let grid_index = EdgeIndex::build(&g, mm_cfg.index_cell_m());
    let grid_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let rtree_index = RTree::build(&g);
    let rtree_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let in_radius = |p: &Point, e: EdgeId| {
        let rec = g.edge(e);
        point_segment_distance(p, &g.coord(rec.from), &g.coord(rec.to)) <= snap_radius
    };
    {
        let mut a: Vec<EdgeId> = Vec::new();
        let mut b: Vec<EdgeId> = Vec::new();
        for p in &probes {
            grid_index.edges_near_into(p, snap_radius, &mut a);
            a.retain(|&e| in_radius(p, e));
            rtree_index.edges_within_into(p, snap_radius, &mut b);
            assert_eq!(a, b, "snap candidate sets diverged at {p:?}");
        }
    }
    let mut snap_buf: Vec<EdgeId> = Vec::new();
    let snap_grid = measure(reps, probes.len(), || {
        for p in &probes {
            grid_index.edges_near_into(p, snap_radius, &mut snap_buf);
            snap_buf.retain(|&e| in_radius(p, e));
            std::hint::black_box(snap_buf.len());
        }
    });
    record("snap_throughput", "grid", probes.len(), reps, snap_grid);
    let snap_rtree = measure(reps, probes.len(), || {
        for p in &probes {
            rtree_index.edges_within_into(p, snap_radius, &mut snap_buf);
            std::hint::black_box(snap_buf.len());
        }
    });
    record("snap_throughput", "rtree", probes.len(), reps, snap_rtree);
    let speedup_snap = snap_grid / snap_rtree;

    // Yen top-k: the candidate-generation shape (hundreds of constrained
    // spur searches per query group).
    let fresh = measure(reps, yen_pairs.len(), || {
        for &(s, t) in yen_pairs {
            std::hint::black_box(seed_baseline::yen_k_shortest(
                &g,
                s,
                t,
                CostModel::Length,
                YEN_K,
            ));
        }
    });
    record("yen_top_k", "fresh", yen_pairs.len(), reps, fresh);
    let mut engine = QueryEngine::new(&g);
    let reused = measure(reps, yen_pairs.len(), || {
        for &(s, t) in yen_pairs {
            std::hint::black_box(engine.yen_k_shortest(s, t, CostModel::Length, YEN_K));
        }
    });
    record("yen_top_k", "reused", yen_pairs.len(), reps, reused);
    let mut engine = QueryEngine::new(&g).with_landmarks(Arc::clone(&table));
    let reused_alt = measure(reps, yen_pairs.len(), || {
        for &(s, t) in yen_pairs {
            std::hint::black_box(engine.yen_k_shortest(s, t, CostModel::Length, YEN_K));
        }
    });
    record("yen_top_k", "reused_alt", yen_pairs.len(), reps, reused_alt);
    // ALT + CH together: the initial unconstrained path of each Yen
    // enumeration takes the CH backend, the spur searches stay ALT.
    let mut engine = QueryEngine::new(&g)
        .with_landmarks(Arc::clone(&table))
        .with_ch(Arc::clone(&ch));
    let reused_ch_yen = measure(reps, yen_pairs.len(), || {
        for &(s, t) in yen_pairs {
            std::hint::black_box(engine.yen_k_shortest(s, t, CostModel::Length, YEN_K));
        }
    });
    record(
        "yen_top_k",
        "reused_ch",
        yen_pairs.len(),
        reps,
        reused_ch_yen,
    );
    let speedup_yen = fresh / reused;
    let speedup_yen_alt = fresh / reused_alt;
    let speedup_yen_ch = fresh / reused_ch_yen;

    // Imported-network rows: the same one-to-one workloads on a real
    // (OSM-imported) road network, so the perf trajectory is tracked on
    // real topology too, not just the generator's.
    let t0 = Instant::now();
    let loaded = pathrank_spatial::io::load_graph_auto(std::path::Path::new(&graph_path))
        .expect("--graph network must load");
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    let og = loaded.graph;
    eprintln!(
        "imported network ({}): {} vertices, {} edges from {graph_path} in {load_ms:.1} ms",
        loaded.kind.label(),
        og.vertex_count(),
        og.edge_count()
    );
    // Trip band scaled to the network's extent.
    let (mut min_x, mut max_x, mut min_y, mut max_y) = (
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::INFINITY,
        f64::NEG_INFINITY,
    );
    for p in og.coords() {
        min_x = min_x.min(p.x);
        max_x = max_x.max(p.x);
        min_y = min_y.min(p.y);
        max_y = max_y.max(p.y);
    }
    let diag = ((max_x - min_x).powi(2) + (max_y - min_y).powi(2)).sqrt();
    let o_pairs = trip_pairs(&og, if quick { 16 } else { 32 }, 0.2 * diag, 0.85 * diag);
    let t0 = Instant::now();
    let o_table = Arc::new(LandmarkTable::build(
        &og,
        LandmarkMetric::Length,
        &LandmarkConfig::default(),
    ));
    let o_alt_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let o_ch = Arc::new(ContractionHierarchy::build(
        &og,
        LandmarkMetric::Length,
        &ChConfig::default(),
    ));
    let o_ch_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let o_ch_tt = Arc::new(ContractionHierarchy::build(
        &og,
        LandmarkMetric::TravelTime,
        &ChConfig::default(),
    ));
    let t0 = Instant::now();
    let o_cch_topo = Arc::new(CchTopology::build(&og, &CchConfig::default()));
    let o_cch_topo_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let o_cch = Arc::new(o_cch_topo.customize(&og, &CostModel::Length));
    let o_cch_customize_ms = t0.elapsed().as_secs_f64() * 1e3;
    let o_cch_tt = Arc::new(o_cch_topo.customize(&og, &CostModel::TravelTime));
    // Exactness on the imported network before any timing is trusted:
    // every backend must agree with the fresh baseline on both metrics.
    {
        let mut alt = QueryEngine::new(&og).with_landmarks(Arc::clone(&o_table));
        let mut chx = QueryEngine::new(&og).with_ch(Arc::clone(&o_ch));
        let mut cchx = QueryEngine::new(&og).with_cch(Arc::clone(&o_cch));
        let mut tt = QueryEngine::new(&og).with_ch(Arc::clone(&o_ch_tt));
        let mut tt_cch = QueryEngine::new(&og).with_cch(Arc::clone(&o_cch_tt));
        assert!(alt.uses_alt(CostModel::Length));
        assert!(chx.uses_ch(CostModel::Length));
        assert!(cchx.uses_cch(CostModel::Length));
        assert!(tt.uses_ch(CostModel::TravelTime));
        assert!(tt_cch.uses_cch(CostModel::TravelTime));
        for &(s, t) in &o_pairs {
            let a =
                seed_baseline::shortest_path(&og, s, t, CostModel::Length).map(|p| p.length_m(&og));
            for engine in [&mut alt, &mut chx, &mut cchx] {
                let b = engine
                    .astar_shortest_path(s, t, CostModel::Length)
                    .map(|p| p.length_m(&og));
                match (a, b) {
                    (Some(a), Some(b)) => {
                        assert!((a - b).abs() < 1e-6, "imported cost mismatch {s:?}->{t:?}")
                    }
                    (None, None) => {}
                    (a, b) => panic!("imported reachability mismatch {s:?}->{t:?}: {a:?} vs {b:?}"),
                }
            }
            let a = seed_baseline::shortest_path(&og, s, t, CostModel::TravelTime)
                .map(|p| p.travel_time_s(&og));
            for engine in [&mut tt, &mut tt_cch] {
                let b = engine
                    .astar_shortest_path(s, t, CostModel::TravelTime)
                    .map(|p| p.travel_time_s(&og));
                match (a, b) {
                    (Some(a), Some(b)) => {
                        assert!((a - b).abs() < 1e-6, "imported TT mismatch {s:?}->{t:?}")
                    }
                    (None, None) => {}
                    (a, b) => {
                        panic!("imported TT reachability mismatch {s:?}->{t:?}: {a:?} vs {b:?}")
                    }
                }
            }
        }
    }
    let o_fresh = measure(reps, o_pairs.len(), || {
        for &(s, t) in &o_pairs {
            std::hint::black_box(seed_baseline::shortest_path(&og, s, t, CostModel::Length));
        }
    });
    record("imported_one_to_one", "fresh", o_pairs.len(), reps, o_fresh);
    let mut engine = QueryEngine::new(&og);
    let o_reused = measure(reps, o_pairs.len(), || {
        for &(s, t) in &o_pairs {
            std::hint::black_box(engine.astar_shortest_path(s, t, CostModel::Length));
        }
    });
    record(
        "imported_one_to_one",
        "reused",
        o_pairs.len(),
        reps,
        o_reused,
    );
    let mut engine = QueryEngine::new(&og).with_landmarks(Arc::clone(&o_table));
    let o_reused_alt = measure(reps, o_pairs.len(), || {
        for &(s, t) in &o_pairs {
            std::hint::black_box(engine.astar_shortest_path(s, t, CostModel::Length));
        }
    });
    record(
        "imported_one_to_one",
        "reused_alt",
        o_pairs.len(),
        reps,
        o_reused_alt,
    );
    let mut engine = QueryEngine::new(&og).with_ch(Arc::clone(&o_ch));
    let o_reused_ch = measure(reps, o_pairs.len(), || {
        for &(s, t) in &o_pairs {
            std::hint::black_box(engine.shortest_path(s, t, CostModel::Length));
        }
    });
    record(
        "imported_one_to_one",
        "reused_ch",
        o_pairs.len(),
        reps,
        o_reused_ch,
    );
    let mut engine = QueryEngine::new(&og).with_cch(Arc::clone(&o_cch));
    let o_reused_cch = measure(reps, o_pairs.len(), || {
        for &(s, t) in &o_pairs {
            std::hint::black_box(engine.shortest_path(s, t, CostModel::Length));
        }
    });
    record(
        "imported_one_to_one",
        "reused_cch",
        o_pairs.len(),
        reps,
        o_reused_cch,
    );
    let o_fresh_tt = measure(reps, o_pairs.len(), || {
        for &(s, t) in &o_pairs {
            std::hint::black_box(seed_baseline::shortest_path(
                &og,
                s,
                t,
                CostModel::TravelTime,
            ));
        }
    });
    record(
        "imported_fastest_one_to_one",
        "fresh",
        o_pairs.len(),
        reps,
        o_fresh_tt,
    );
    let mut engine = QueryEngine::new(&og).with_ch(Arc::clone(&o_ch_tt));
    let o_reused_ch_tt = measure(reps, o_pairs.len(), || {
        for &(s, t) in &o_pairs {
            std::hint::black_box(engine.shortest_path(s, t, CostModel::TravelTime));
        }
    });
    record(
        "imported_fastest_one_to_one",
        "reused_ch",
        o_pairs.len(),
        reps,
        o_reused_ch_tt,
    );
    let mut engine = QueryEngine::new(&og).with_cch(Arc::clone(&o_cch_tt));
    let o_reused_cch_tt = measure(reps, o_pairs.len(), || {
        for &(s, t) in &o_pairs {
            std::hint::black_box(engine.shortest_path(s, t, CostModel::TravelTime));
        }
    });
    record(
        "imported_fastest_one_to_one",
        "reused_cch",
        o_pairs.len(),
        reps,
        o_reused_cch_tt,
    );
    let speedup_imported_ch = o_fresh / o_reused_ch;
    let speedup_imported_alt = o_fresh / o_reused_alt;
    let speedup_imported_tt_ch = o_fresh_tt / o_reused_ch_tt;
    let speedup_imported_cch = o_fresh / o_reused_cch;
    let speedup_imported_tt_cch = o_fresh_tt / o_reused_cch_tt;
    let imported_stats = loaded.stats.clone();

    // Hand-rolled JSON (the workspace deliberately has no serde backend).
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"routing\",");
    let _ = writeln!(json, "  \"unit\": \"ns_per_query_median\",");
    let _ = writeln!(
        json,
        "  \"baseline\": \"seed reconstruction: fresh O(V) allocation per search, Dijkstra-only\","
    );
    let _ = writeln!(
        json,
        "  \"reused\": \"QueryEngine: generation-stamped SearchSpace + cached A* bounds\","
    );
    let _ = writeln!(
        json,
        "  \"reused_alt\": \"QueryEngine + LandmarkTable: ALT triangle-inequality heuristic (exact)\","
    );
    let _ = writeln!(
        json,
        "  \"reused_ch\": \"QueryEngine + ContractionHierarchy: bidirectional upward search with shortcut unpacking (exact)\","
    );
    let _ = writeln!(
        json,
        "  \"alt\": {{\"landmarks\": {}, \"active_per_query\": {}, \"build_ms\": {:.1}, \"travel_time_build_ms\": {:.1}}},",
        table.k(),
        pathrank_spatial::algo::landmarks::ACTIVE_LANDMARKS,
        alt_build_ms,
        alt_tt_build_ms
    );
    let _ = writeln!(
        json,
        "  \"m2m\": \"bucket-based many-to-many over the CH: T backward + S forward upward sweeps fill an exact SxT DistanceTable (exact)\","
    );
    let _ = writeln!(
        json,
        "  \"ch\": {{\"shortcuts\": {}, \"arcs\": {}, \"build_ms\": {:.1}}},",
        ch.shortcut_count(),
        ch.arcs().len(),
        ch_build_ms
    );
    let _ = writeln!(
        json,
        "  \"ch_tt\": {{\"shortcuts\": {}, \"arcs\": {}, \"build_ms\": {:.1}}},",
        ch_tt.shortcut_count(),
        ch_tt.arcs().len(),
        ch_tt_build_ms
    );
    let _ = writeln!(
        json,
        "  \"reused_cch\": \"QueryEngine + customizable CH: fixed metric-independent order, per-metric triangle-relaxation customization (exact)\","
    );
    let _ = writeln!(
        json,
        "  \"cch\": {{\"arcs\": {}, \"fill_ins\": {}, \"triangles\": {}, \"topo_build_ms\": {:.1}, \"customize_ms\": {:.2}, \"customize_tt_ms\": {:.2}}},",
        cch_topo.arc_count(),
        cch_topo.fill_in_count(),
        cch_topo.triangle_count(),
        cch_topo_build_ms,
        cch_customize_ms,
        cch_customize_tt_ms
    );
    let _ = writeln!(
        json,
        "  \"snap_index\": {{\"segments\": {}, \"rtree_build_ms\": {rtree_build_ms:.1}, \"grid_build_ms\": {grid_build_ms:.1}, \"radius_m\": {snap_radius:.1}, \"probes\": {}}},",
        rtree_index.len(),
        probes.len()
    );
    let _ = writeln!(
        json,
        "  \"graph\": {{\"vertices\": {}, \"edges\": {}, \"seed\": {}, \"scale\": \"{}\"}},",
        g.vertex_count(),
        g.edge_count(),
        SEED,
        if quick { "small_test" } else { "paper_scale" }
    );
    let _ = writeln!(json, "  \"yen_k\": {YEN_K},");
    json.push_str("  \"scenarios\": [\n");
    for (i, s) in scenarios.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"mode\": \"{}\", \"queries\": {}, \"reps\": {}, \"median_ns_per_query\": {:.0}}}{}",
            s.name,
            s.mode,
            s.queries,
            s.reps,
            s.median_ns_per_query,
            if i + 1 == scenarios.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"speedup_reused_over_fresh\": {{\"one_to_one\": {speedup_p2p:.3}, \"one_to_all\": {speedup_tree:.3}, \"yen_top_k\": {speedup_yen:.3}}},"
    );
    let _ = writeln!(
        json,
        "  \"speedup_alt_over_fresh\": {{\"one_to_one\": {speedup_p2p_alt:.3}, \"yen_top_k\": {speedup_yen_alt:.3}, \"fastest_one_to_one\": {speedup_tt_alt:.3}}},"
    );
    let _ = writeln!(
        json,
        "  \"speedup_ch_over_fresh\": {{\"one_to_one\": {speedup_p2p_ch:.3}, \"yen_top_k\": {speedup_yen_ch:.3}, \"fastest_one_to_one\": {speedup_tt_ch:.3}}},"
    );
    let _ = writeln!(
        json,
        "  \"speedup_cch_over_fresh\": {{\"one_to_one\": {speedup_p2p_cch:.3}, \"fastest_one_to_one\": {speedup_tt_cch:.3}}},"
    );
    let _ = writeln!(
        json,
        "  \"speedup_snap_rtree_over_grid\": {speedup_snap:.3},"
    );
    let _ = writeln!(
        json,
        "  \"obs_overhead\": {{\"one_to_one_ratio\": {obs_overhead_ratio:.4}, \"budget_ratio\": 1.02}},"
    );
    // The batched layer: one DistanceTable vs the pairwise CH probes it
    // replaces (the HMM transition-matrix shape), bucket one-to-many vs
    // a full reused one-to-all, and whole-trace map-matching throughput
    // with the bulk fill on vs off.
    // The imported-network section: where the rows came from, what the
    // importer did, and the index speedups on real topology.
    let _ = writeln!(
        json,
        "  \"imported_graph\": {{\"source\": {graph_label:?}, \"kind\": \"{}\", \"vertices\": {}, \"edges\": {}, \"load_ms\": {load_ms:.1}, \"total_km\": {:.1}, \"alt_build_ms\": {o_alt_build_ms:.1}, \"ch_build_ms\": {o_ch_build_ms:.1}, \"cch_topo_build_ms\": {o_cch_topo_build_ms:.1}, \"cch_customize_ms\": {o_cch_customize_ms:.2}}},",
        loaded.kind.label(),
        og.vertex_count(),
        og.edge_count(),
        og.total_length_m() / 1000.0
    );
    // Pipeline counters exist only for on-the-fly XML imports (a
    // persisted import records just its final shape).
    if let Some(s) = imported_stats.as_ref().filter(|s| s.raw_ways > 0) {
        let _ = writeln!(
            json,
            "  \"imported_pipeline\": {{\"raw_nodes\": {}, \"raw_ways\": {}, \"kept_ways\": {}, \"oneway_ways\": {}, \"segment_vertices\": {}, \"scc_vertices\": {}, \"final_vertices\": {}}},",
            s.raw_nodes,
            s.raw_ways,
            s.kept_ways,
            s.oneway_ways,
            s.segment_vertices,
            s.scc_vertices,
            s.final_vertices
        );
    }
    let _ = writeln!(
        json,
        "  \"speedup_imported_ch_over_fresh\": {{\"one_to_one\": {speedup_imported_ch:.3}, \"fastest_one_to_one\": {speedup_imported_tt_ch:.3}}},"
    );
    let _ = writeln!(
        json,
        "  \"speedup_imported_alt_over_fresh\": {{\"one_to_one\": {speedup_imported_alt:.3}}},"
    );
    let _ = writeln!(
        json,
        "  \"speedup_imported_cch_over_fresh\": {{\"one_to_one\": {speedup_imported_cch:.3}, \"fastest_one_to_one\": {speedup_imported_tt_cch:.3}}},"
    );
    let _ = writeln!(json, "  \"speedup_m2m_over_pairwise\": {speedup_m2m:.3},");
    let _ = writeln!(
        json,
        "  \"speedup_one_to_many_over_one_to_all\": {speedup_one_to_many:.3},"
    );
    let _ = writeln!(json, "  \"speedup_mapmatch_m2m\": {speedup_mapmatch:.3},");
    // Same-algorithm comparison (Dijkstra both sides): the share of the
    // one-to-one speedup attributable to state reuse alone, with the
    // cached-A*-bound effect factored out. one_to_all is same-algorithm
    // by construction, so it already measures pure reuse.
    let _ = writeln!(
        json,
        "  \"speedup_reuse_only\": {{\"one_to_one\": {speedup_p2p_reuse_only:.3}, \"one_to_all\": {speedup_tree:.3}}}"
    );
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write benchmark json");
    eprintln!(
        "speedups (reused/fresh): one_to_one {speedup_p2p:.2}x, one_to_all {speedup_tree:.2}x, yen {speedup_yen:.2}x"
    );
    eprintln!(
        "speedups (alt/fresh):    one_to_one {speedup_p2p_alt:.2}x, yen {speedup_yen_alt:.2}x, fastest {speedup_tt_alt:.2}x"
    );
    eprintln!(
        "speedups (ch/fresh):     one_to_one {speedup_p2p_ch:.2}x, yen {speedup_yen_ch:.2}x, fastest {speedup_tt_ch:.2}x"
    );
    eprintln!(
        "speedups (cch/fresh):    one_to_one {speedup_p2p_cch:.2}x, fastest {speedup_tt_cch:.2}x (customize {cch_customize_tt_ms:.2} ms vs {ch_tt_build_ms:.1} ms rebuild)"
    );
    eprintln!(
        "speedups (m2m):          table/pairwise {speedup_m2m:.2}x ({m2m_side}x{m2m_side}), one_to_many {speedup_one_to_many:.2}x, mapmatch {speedup_mapmatch:.2}x"
    );
    eprintln!(
        "speedups (snap):         rtree/grid {speedup_snap:.2}x over {} probes",
        probes.len()
    );
    eprintln!(
        "obs overhead:            instrumented/uninstrumented one_to_one {obs_overhead_ratio:.4}x (budget 1.02)"
    );
    eprintln!(
        "speedups (imported):     one_to_one ch {speedup_imported_ch:.2}x / alt {speedup_imported_alt:.2}x, fastest ch {speedup_imported_tt_ch:.2}x -> {out_path}"
    );
}
