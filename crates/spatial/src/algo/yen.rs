//! Yen's algorithm for the top-k loopless shortest paths.
//!
//! Exposed as a lazy iterator ([`YenIter`]) because the diversified top-k
//! strategy (the paper's D-TkDI) consumes shortest paths in cost order until
//! it has accumulated k *diverse* ones — which may require scanning far more
//! than k candidates. The plain TkDI strategy is the first k items of the
//! same iterator ([`QueryEngine::yen_k_shortest`]).
//!
//! Yen's algorithm is the crate's heaviest user of the engine's search
//! labels: every accepted path triggers constrained spur searches along
//! its vertices, all on the forward side of the caller's [`QueryEngine`],
//! which the iterator borrows
//! ([`QueryEngine::yen_iter`]). The iterator yields exactly what the
//! textbook loop (spur from every vertex of every accepted path, kept as
//! the test oracle below) yields, and makes only the searches whose result
//! can still be pulled.
//!
//! A path is identified by its route, the vertex sequence
//! ([`Path::same_route`]): a ban on the step an accepted path takes out of a
//! root covers every parallel edge of that step, so a route comes once, over
//! its cheapest edges, and the enumeration is that of the graph with its
//! parallel edges merged. Three invariants carry the rest:
//!
//! 1. **Spurs below the deviation index are duplicates (Lawler).** A
//!    candidate is `parent[..dev]` plus a spur path from `parent[dev]`, the
//!    cheapest path of its *class*: the routes through the root
//!    `parent[..=dev]` that take none of the steps banned there. Accepting
//!    it splits the class into the path, the class of the same root with
//!    the path's own step banned too, and one class per later root
//!    `path[..=i]` with only the path's step banned — and these are the
//!    searches made, from `i >= dev`. A root below `dev` belongs to a class
//!    split earlier; the textbook search there meets the root and bans of a
//!    search already made and rebuilds a candidate already offered. Classes
//!    are disjoint, so no candidate is offered twice and no seen-set is
//!    kept; and an accepted path sharing a root past `dev` would have been
//!    in this path's class, whose only offer was this path, so past `dev`
//!    the path's own step is the whole ban set.
//! 2. **The bound never drops a pullable candidate.** A consumer that
//!    announced it pulls at most `n` paths ([`YenIter::limit`]) and holds
//!    `a` of them can only ever pull the `n - a` smallest candidates, so
//!    only those are kept, and once that many are queued the largest cost
//!    among them bounds every later spur search: the engine stops at the
//!    first popped key above `bound - root cost` and reports "none". Later
//!    candidates only lower the bound, so what is dropped stays dropped in
//!    the unlimited enumeration's first `n` too. The search holds `g + h`
//!    keys — `g` summed from the spur vertex, `h` a float lower bound that
//!    may overshoot in its last bits — against a cost summed from the
//!    source; the two differ by rounding (~1e-14 relative), so the bound
//!    is widened by `BOUND_SLACK` (1e-9): slack only admits candidates the
//!    queue then discards, it never loses one.
//! 3. **Ties leave in insertion order.** The queue is ordered on `(cost,
//!    insertion sequence)`. A dropped candidate never sits before a kept
//!    one, and the kept ones keep their relative sequence, so the limited
//!    iterator equals the unlimited one's first `n` items even among equal
//!    costs.

use std::collections::BTreeMap;

use crate::algo::engine::QueryEngine;
use crate::graph::{CostModel, EdgeId, VertexId};
use crate::path::Path;
use crate::util::BitSet;

/// Relative widening of the candidate-cost bound handed to spur searches
/// (module docs, invariant 2).
const BOUND_SLACK: f64 = 1e-9;

/// [`f64::total_cmp`] as an integer key, so `(cost, sequence)` orders the
/// candidate queue as a plain tuple.
fn total_order_key(cost: f64) -> i64 {
    let bits = cost.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// A path in the candidate queue or the accepted list.
struct Candidate {
    path: Path,
    cost: f64,
    /// Index of the vertex the path left its parent at; spurs start here.
    dev: usize,
}

/// Lazily yields the loopless shortest paths from `source` to `target` in
/// non-decreasing cost order, each with its total cost. Made by
/// [`QueryEngine::yen_iter`], whose engine every search runs on.
///
/// ```
/// use pathrank_spatial::algo::engine::QueryEngine;
/// use pathrank_spatial::generators::{grid_network, GridConfig};
/// use pathrank_spatial::graph::{CostModel, VertexId};
///
/// let g = grid_network(&GridConfig::small_test(), 3);
/// let mut engine = QueryEngine::new(&g);
/// let mut it = engine.yen_iter(VertexId(0), VertexId(12), CostModel::Length);
/// let (best, c1) = it.next().unwrap();
/// let (_second, c2) = it.next().unwrap();
/// assert!(c1 <= c2);
/// assert!(best.is_simple());
/// ```
pub struct YenIter<'g, 'e, 'c> {
    engine: &'e mut QueryEngine<'g>,
    cost: CostModel<'c>,
    source: VertexId,
    target: VertexId,
    /// The most paths the consumer will pull ([`YenIter::limit`]).
    limit: usize,
    /// Paths yielded so far (the `A` list), in cost order. The last one's
    /// spur searches are made by the next `next()`, so a consumer that
    /// stops pulling never pays for them.
    accepted: Vec<Candidate>,
    /// Candidate queue (the `B` set) on `(cost key, insertion sequence)`,
    /// never longer than the number of paths still to be pulled.
    candidates: BTreeMap<(i64, u64), Candidate>,
    inserted: u64,
    /// All clear between `next()` calls.
    banned_vertices: BitSet,
    banned_edges: BitSet,
    /// The edges banned for the spur search in hand.
    spur_bans: Vec<EdgeId>,
    exhausted: bool,
}

impl<'g, 'e, 'c> YenIter<'g, 'e, 'c> {
    /// Creates the iterator on a borrowed engine (see
    /// [`QueryEngine::yen_iter`]); no search happens until the first
    /// `next()`.
    pub(crate) fn on_engine(
        engine: &'e mut QueryEngine<'g>,
        source: VertexId,
        target: VertexId,
        cost: CostModel<'c>,
    ) -> YenIter<'g, 'e, 'c> {
        let g = engine.graph();
        let (nv, ne) = (g.vertex_count(), g.edge_count());
        YenIter {
            engine,
            cost,
            source,
            target,
            limit: usize::MAX,
            accepted: Vec::new(),
            candidates: BTreeMap::new(),
            inserted: 0,
            banned_vertices: BitSet::new(nv),
            banned_edges: BitSet::new(ne),
            spur_bans: Vec::new(),
            exhausted: false,
        }
    }

    /// Ends the iteration after `n` paths, like `.take(n)` — same paths,
    /// same order — but tells the iterator so beforehand: it then skips
    /// every spur search that cannot produce one of those `n` (module docs,
    /// invariant 2). A limit only ever tightens: what an earlier, lower one
    /// let go of is gone.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = self.limit.min(n);
        self
    }

    /// Makes the spur searches owed for the path accepted last and queues
    /// what they find.
    fn spur_from_last(&mut self) {
        let g = self.engine.graph();
        let prev = self.accepted.last().expect("called after an acceptance");
        let (vertices, edges) = (prev.path.vertices(), prev.path.edges());
        let remaining = self.limit - self.accepted.len();
        let edge_cost = |e: &EdgeId| self.cost.edge_cost(g, *e);

        // The root `vertices[..=i]` grows by one vertex per step: its ban on
        // revisiting itself and its cost are carried along.
        for v in &vertices[..prev.dev] {
            self.banned_vertices.insert(v.0);
        }
        let mut root_cost = edges[..prev.dev].iter().map(edge_cost).sum::<f64>();
        for i in prev.dev..edges.len() {
            let bound = match self.candidates.last_key_value() {
                Some((_, worst)) if self.candidates.len() >= remaining => worst.cost,
                _ => f64::INFINITY,
            };
            let max_cost = bound * (1.0 + BOUND_SLACK) - root_cost;
            if max_cost < 0.0 {
                // Roots only get costlier along the path.
                break;
            }
            // Ban the step every accepted path sharing this root takes next,
            // over each parallel edge, so the search cannot reproduce one.
            // Past `dev` this path is the only such (invariant 1).
            let shares_root = |a: &&[VertexId]| a.starts_with(&vertices[..=i]);
            let accepted = self.accepted.iter().map(|a| a.path.vertices());
            debug_assert!(i == prev.dev || accepted.clone().filter(shares_root).count() == 1);
            let first_sharing = if i == prev.dev {
                0
            } else {
                self.accepted.len() - 1
            };
            self.spur_bans.clear();
            for a in accepted.skip(first_sharing).filter(shares_root) {
                let parallel = g
                    .out_edges(vertices[i])
                    .filter(|(head, _)| *head == a[i + 1]);
                self.spur_bans.extend(parallel.map(|(_, e)| e));
            }
            for e in &self.spur_bans {
                self.banned_edges.insert(e.0);
            }
            let spur = self.engine.constrained_shortest_path(
                vertices[i],
                self.target,
                self.cost,
                &self.banned_vertices,
                &self.banned_edges,
                max_cost,
            );
            for e in &self.spur_bans {
                self.banned_edges.remove(e.0);
            }
            if let Some(spur) = spur {
                let mut total_vertices = Vec::with_capacity(i + 1 + spur.len());
                total_vertices.extend_from_slice(&vertices[..i]);
                total_vertices.extend_from_slice(spur.vertices());
                let mut total_edges = Vec::with_capacity(i + spur.len());
                total_edges.extend_from_slice(&edges[..i]);
                total_edges.extend_from_slice(spur.edges());
                let path = Path::from_parts_unchecked(total_vertices, total_edges);
                debug_assert!(path.is_simple(), "Yen candidates must be loopless");
                // The fold `Path::cost` makes, resumed at the root.
                let cost = spur.edges().iter().fold(root_cost, |c, e| c + edge_cost(e));
                let key = (total_order_key(cost), self.inserted);
                self.candidates
                    .insert(key, Candidate { path, cost, dev: i });
                self.inserted += 1;
                if self.candidates.len() > remaining {
                    self.candidates.pop_last();
                }
            }
            self.banned_vertices.insert(vertices[i].0);
            root_cost += edge_cost(&edges[i]);
        }
        for v in vertices {
            self.banned_vertices.remove(v.0);
        }
    }
}

impl Iterator for YenIter<'_, '_, '_> {
    type Item = (Path, f64);

    fn next(&mut self) -> Option<(Path, f64)> {
        if self.exhausted || self.accepted.len() >= self.limit {
            return None;
        }
        let next = if self.accepted.is_empty() {
            // The unconstrained shortest path "deviates" at the source.
            let g = self.engine.graph();
            let first = self
                .engine
                .shortest_path(self.source, self.target, self.cost);
            first.map(|path| Candidate {
                cost: path.cost(g, self.cost),
                path,
                dev: 0,
            })
        } else {
            self.spur_from_last();
            self.candidates.pop_first().map(|(_, candidate)| candidate)
        };
        let Some(next) = next else {
            self.exhausted = true;
            return None;
        };
        let item = (next.path.clone(), next.cost);
        self.accepted.push(next);
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable};
    use crate::builder::GraphBuilder;
    use crate::generators::{grid_network, region_network, GridConfig, RegionConfig};
    use crate::geometry::Point;
    use crate::graph::{EdgeAttrs, Graph, RoadCategory};
    use crate::util::MinCost;
    use pathrank_rng::rngs::StdRng;
    use pathrank_rng::{Rng, SeedableRng};
    use std::collections::{BinaryHeap, HashSet};
    use std::sync::Arc;

    /// The textbook loop this module implemented before Lawler's rule and
    /// the cost bound: after every accepted path, one constrained search
    /// from **each** of its vertices, bans rebuilt by a prefix compare
    /// against every accepted path, candidates deduplicated in a set of
    /// vertex sequences. Kept as the oracle [`YenIter`] must equal; the one
    /// change is that a ban covers the parallel edges too (the same bans
    /// on a graph without any).
    fn textbook_yen(
        engine: &mut QueryEngine<'_>,
        source: VertexId,
        target: VertexId,
        cost: CostModel<'_>,
        n: usize,
    ) -> Vec<(Path, f64)> {
        let g = engine.graph();
        let mut accepted: Vec<(Path, f64)> = Vec::new();
        let mut candidates: BinaryHeap<MinCost<Path>> = BinaryHeap::new();
        let mut candidate_seen: HashSet<Vec<VertexId>> = HashSet::new();
        let mut banned_vertices = BitSet::new(g.vertex_count());
        let mut banned_edges = BitSet::new(g.edge_count());
        if let Some(p) = engine.shortest_path(source, target, cost) {
            let c = p.cost(g, cost);
            accepted.push((p, c));
        }
        while !accepted.is_empty() && accepted.len() < n {
            let prev = accepted.last().unwrap().0.clone();
            for i in 0..prev.len() {
                let root_vertices = &prev.vertices()[..=i];
                banned_vertices.clear();
                banned_edges.clear();
                for (p, _) in &accepted {
                    let pv = p.vertices();
                    if pv.len() > i && &pv[..=i] == root_vertices {
                        for (head, e) in g.out_edges(pv[i]) {
                            if head == pv[i + 1] {
                                banned_edges.insert(e.0);
                            }
                        }
                    }
                }
                for v in &root_vertices[..i] {
                    banned_vertices.insert(v.0);
                }
                let Some(spur) = engine.constrained_shortest_path(
                    prev.vertices()[i],
                    target,
                    cost,
                    &banned_vertices,
                    &banned_edges,
                    f64::INFINITY,
                ) else {
                    continue;
                };
                let total = match prev.prefix(i) {
                    Some(root) => root.concat(&spur).unwrap(),
                    None => spur,
                };
                if candidate_seen.insert(total.vertices().to_vec()) {
                    candidates.push(MinCost {
                        cost: total.cost(g, cost),
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

    /// `(vertices, cost bits)` of an enumeration, the identity the oracle
    /// comparison is made on.
    fn identity(paths: &[(Path, f64)]) -> Vec<(&[VertexId], u64)> {
        paths
            .iter()
            .map(|(p, c)| (p.vertices(), c.to_bits()))
            .collect()
    }

    /// `g` with a parallel edge, a tenth longer, beside every third edge —
    /// before it or after it in edge order.
    fn with_parallel_edges(g: &Graph) -> Graph {
        let mut b = GraphBuilder::new();
        for &p in g.coords() {
            b.add_vertex(p);
        }
        for (i, e) in g.edges().enumerate() {
            let longer = EdgeAttrs {
                length_m: e.attrs.length_m * 1.1,
                ..e.attrs
            };
            let twins = match i % 6 {
                0 => vec![e.attrs, longer],
                3 => vec![longer, e.attrs],
                _ => vec![e.attrs],
            };
            for attrs in twins {
                b.add_edge(e.from, e.to, attrs).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn yen_matches_textbook_oracle_for_400_paths() {
        let grid = GridConfig {
            nx: 24,
            ny: 24,
            jitter: 0.2,
            ..GridConfig::small_test()
        };
        let graphs = [
            region_network(&RegionConfig::small_test(), 11),
            grid_network(&grid, 24),
            with_parallel_edges(&grid_network(&grid, 24)),
        ];
        for g in &graphs {
            let table = Arc::new(LandmarkTable::build(
                g,
                LandmarkMetric::Length,
                &LandmarkConfig::default(),
            ));
            let mut engines = [
                QueryEngine::new(g),
                QueryEngine::new(g).with_landmarks(table),
            ];
            let n = g.vertex_count() as u32;
            let mut rng = StdRng::seed_from_u64(0x1a31e5);
            // The oracle is the slow side (a second a pair unoptimised):
            // debug runs sample, `cargo test --release -- yen_` does all 64.
            let pairs = if cfg!(debug_assertions) { 6 } else { 64 };
            for _ in 0..pairs {
                let (s, t) = (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n)));
                for engine in &mut engines {
                    let oracle = textbook_yen(engine, s, t, CostModel::Length, 400);
                    let unlimited: Vec<_> =
                        engine.yen_iter(s, t, CostModel::Length).take(400).collect();
                    let limited: Vec<_> = engine
                        .yen_iter(s, t, CostModel::Length)
                        .limit(400)
                        .collect();
                    let alt = engine.uses_alt(CostModel::Length);
                    assert_eq!(
                        identity(&oracle),
                        identity(&unlimited),
                        "{s:?}->{t:?} alt {alt}"
                    );
                    assert_eq!(
                        identity(&oracle),
                        identity(&limited),
                        "{s:?}->{t:?} alt {alt}, limited"
                    );
                }
            }
        }
    }

    /// The classic Yen example graph (Wikipedia): C-D-E-F-G-H with known
    /// top-3: C-E-F-H (5), C-E-G-H (7), C-D-F-H (8).
    fn yen_example() -> (Graph, [VertexId; 6]) {
        let mut b = GraphBuilder::new();
        let c = b.add_vertex(Point::new(0.0, 0.0));
        let d = b.add_vertex(Point::new(1.0, 1.0));
        let e = b.add_vertex(Point::new(1.0, -1.0));
        let f = b.add_vertex(Point::new(2.0, 0.0));
        let g = b.add_vertex(Point::new(2.0, -2.0));
        let h = b.add_vertex(Point::new(3.0, 0.0));
        let a = |w: f64| EdgeAttrs::with_default_speed(w, RoadCategory::Rural);
        b.add_edge(c, d, a(3.0)).unwrap();
        b.add_edge(c, e, a(2.0)).unwrap();
        b.add_edge(d, f, a(4.0)).unwrap();
        b.add_edge(e, d, a(1.0)).unwrap();
        b.add_edge(e, f, a(2.0)).unwrap();
        b.add_edge(e, g, a(3.0)).unwrap();
        b.add_edge(f, g, a(2.0)).unwrap();
        b.add_edge(f, h, a(1.0)).unwrap();
        b.add_edge(g, h, a(2.0)).unwrap();
        (b.build(), [c, d, e, f, g, h])
    }

    #[test]
    fn classic_example_top3() {
        let (g, [c, d, e, f, gg, h]) = yen_example();
        let paths = QueryEngine::new(&g).yen_k_shortest(c, h, CostModel::Length, 3);
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0].0.vertices(), &[c, e, f, h]);
        assert!((paths[0].1 - 5.0).abs() < 1e-12);
        assert_eq!(paths[1].0.vertices(), &[c, e, gg, h]);
        assert!((paths[1].1 - 7.0).abs() < 1e-12);
        assert_eq!(paths[2].0.vertices(), &[c, d, f, h]);
        assert!((paths[2].1 - 8.0).abs() < 1e-12);
    }

    #[test]
    fn engine_yen_matches_free_function() {
        // A fresh engine against one whose space earlier queries have
        // left behind.
        let (g, [c, d, _, _, gg, h]) = yen_example();
        let fresh = QueryEngine::new(&g).yen_k_shortest(c, h, CostModel::Length, 10);
        let mut engine = QueryEngine::new(&g);
        assert!(engine.shortest_path(d, gg, CostModel::Length).is_some());
        assert!(!engine.yen_k_shortest(d, h, CostModel::Length, 3).is_empty());
        let reused = engine.yen_k_shortest(c, h, CostModel::Length, 10);
        assert_eq!(fresh.len(), reused.len());
        for ((pa, ca), (pb, cb)) in fresh.iter().zip(reused.iter()) {
            assert_eq!(pa.vertices(), pb.vertices());
            assert!((ca - cb).abs() < 1e-12);
        }
        // The engine stays usable for ordinary queries afterwards.
        assert!(engine.shortest_path(c, h, CostModel::Length).is_some());
    }

    #[test]
    fn costs_are_non_decreasing_and_paths_unique() {
        let g = grid_network(&GridConfig::small_test(), 99);
        let s = VertexId(0);
        let t = VertexId((g.vertex_count() - 1) as u32);
        let paths = QueryEngine::new(&g).yen_k_shortest(s, t, CostModel::Length, 12);
        assert!(paths.len() >= 2, "grid has many alternatives");
        let mut seen = HashSet::new();
        let mut last = 0.0f64;
        for (p, c) in &paths {
            p.validate(&g).unwrap();
            assert!(p.is_simple(), "Yen paths must be loopless");
            assert_eq!(p.source(), s);
            assert_eq!(p.target(), t);
            assert!((p.cost(&g, CostModel::Length) - c).abs() < 1e-9);
            assert!(*c + 1e-9 >= last, "costs must be non-decreasing");
            last = *c;
            assert!(seen.insert(p.vertices().to_vec()), "paths must be distinct");
        }
    }

    #[test]
    fn exhausts_small_graphs() {
        // A diamond has exactly 3 simple paths 0 -> 3.
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..4)
            .map(|i| b.add_vertex(Point::new(i as f64, 0.0)))
            .collect();
        let a = |w: f64| EdgeAttrs::with_default_speed(w, RoadCategory::Rural);
        b.add_edge(v[0], v[1], a(1.0)).unwrap();
        b.add_edge(v[1], v[3], a(1.0)).unwrap();
        b.add_edge(v[0], v[2], a(2.0)).unwrap();
        b.add_edge(v[2], v[3], a(2.0)).unwrap();
        b.add_edge(v[0], v[3], a(10.0)).unwrap();
        let g = b.build();
        let paths = QueryEngine::new(&g).yen_k_shortest(v[0], v[3], CostModel::Length, 10);
        assert_eq!(paths.len(), 3);
        assert!((paths[0].1 - 2.0).abs() < 1e-12);
        assert!((paths[1].1 - 4.0).abs() < 1e-12);
        assert!((paths[2].1 - 10.0).abs() < 1e-12);
    }

    /// Paths are routes: over parallel edges a route comes once, at its
    /// cheapest, and hides no other route behind it.
    #[test]
    fn yen_parallel_edges_yield_each_route_once_at_its_cheapest() {
        let routes = |n: usize, edges: &[(usize, usize, f64)]| {
            let mut b = GraphBuilder::new();
            let v: Vec<_> = (0..n)
                .map(|i| b.add_vertex(Point::new(i as f64, 0.0)))
                .collect();
            for &(from, to, w) in edges {
                let attrs = EdgeAttrs::with_default_speed(w, RoadCategory::Rural);
                b.add_edge(v[from], v[to], attrs).unwrap();
            }
            let g = b.build();
            QueryEngine::new(&g)
                .yen_iter(v[0], v[n - 1], CostModel::Length)
                .map(|(p, c)| (p.vertices().iter().map(|v| v.0).collect::<Vec<_>>(), c))
                .collect::<Vec<_>>()
        };
        // The first path has a twin.
        assert_eq!(
            routes(
                4,
                &[
                    (0, 1, 1.0),
                    (0, 1, 2.0),
                    (1, 3, 1.0),
                    (0, 2, 5.0),
                    (2, 3, 5.0)
                ]
            ),
            [(vec![0, 1, 3], 2.0), (vec![0, 2, 3], 10.0)]
        );
        // A later path has one, at the vertex another route leaves it from.
        assert_eq!(
            routes(
                5,
                &[
                    (0, 4, 1.0),
                    (0, 1, 1.0),
                    (1, 2, 1.0),
                    (1, 2, 2.0),
                    (2, 4, 1.0),
                    (1, 3, 5.0),
                    (3, 4, 5.0)
                ]
            ),
            [
                (vec![0, 4], 1.0),
                (vec![0, 1, 2, 4], 3.0),
                (vec![0, 1, 3, 4], 11.0)
            ]
        );
        // Two twins of one route, the costlier one found first.
        assert_eq!(
            routes(
                4,
                &[
                    (0, 1, 1.0),
                    (1, 2, 1.0),
                    (1, 2, 11.0),
                    (2, 3, 1.0),
                    (2, 3, 2.0),
                    (0, 3, 5.0)
                ]
            ),
            [(vec![0, 1, 2, 3], 3.0), (vec![0, 3], 5.0)]
        );
    }

    #[test]
    fn unreachable_yields_nothing() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(1.0, 0.0));
        b.add_edge(
            v1,
            v0,
            EdgeAttrs::with_default_speed(1.0, RoadCategory::Rural),
        )
        .unwrap();
        let g = b.build();
        assert!(QueryEngine::new(&g)
            .yen_k_shortest(v0, v1, CostModel::Length, 5)
            .is_empty());
    }

    #[test]
    fn iterator_is_fused_after_exhaustion() {
        let (g, [c, _, _, _, _, h]) = yen_example();
        let mut engine = QueryEngine::new(&g);
        let mut it = engine.yen_iter(c, h, CostModel::Length);
        let mut count = 0;
        while it.next().is_some() {
            count += 1;
            assert!(count < 1000, "must terminate");
        }
        assert!(it.next().is_none());
        assert!(it.next().is_none());
        assert_eq!(count, 7, "the example has seven simple C-H paths");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::geometry::Point;
    use crate::graph::{EdgeAttrs, Graph, RoadCategory};
    use pathrank_testkit::prelude::*;

    /// Brute-force enumeration of all simple routes, each at the cost of
    /// its cheapest parallel edges (oracle, tiny graphs only).
    fn all_simple_paths(g: &Graph, s: VertexId, t: VertexId) -> Vec<f64> {
        fn dfs(
            g: &Graph,
            cur: VertexId,
            t: VertexId,
            visited: &mut Vec<bool>,
            cost: f64,
            out: &mut Vec<f64>,
        ) {
            if cur == t {
                out.push(cost);
                return;
            }
            let mut steps: Vec<(VertexId, f64)> = Vec::new();
            for (v, e) in g.out_edges(cur) {
                let w = g.edge(e).attrs.length_m;
                match steps.iter_mut().find(|(head, _)| *head == v) {
                    Some((_, cheapest)) => *cheapest = cheapest.min(w),
                    None => steps.push((v, w)),
                }
            }
            for (v, w) in steps {
                if !visited[v.index()] {
                    visited[v.index()] = true;
                    dfs(g, v, t, visited, cost + w, out);
                    visited[v.index()] = false;
                }
            }
        }
        let mut visited = vec![false; g.vertex_count()];
        visited[s.index()] = true;
        let mut out = Vec::new();
        dfs(g, s, t, &mut visited, 0.0, &mut out);
        out.sort_by(f64::total_cmp);
        out
    }

    /// A random directed graph from proptest-drawn raw material, with or
    /// without parallel edges.
    fn build(n: usize, edges: Vec<(usize, usize, u32)>, parallel: bool) -> (Graph, Vec<VertexId>) {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..n)
            .map(|i| b.add_vertex(Point::new(i as f64, 0.0)))
            .collect();
        let mut dedup = std::collections::HashSet::new();
        for (f, t, w) in edges {
            let (f, t) = (f % n, t % n);
            if f != t && (dedup.insert((f, t)) || parallel) {
                b.add_edge(
                    vs[f],
                    vs[t],
                    EdgeAttrs::with_default_speed(w as f64, RoadCategory::Rural),
                )
                .unwrap();
            }
        }
        (b.build(), vs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn yen_enumerates_exactly_the_simple_paths_in_order(
            n in 2usize..7,
            edges in pathrank_testkit::collection::vec((0usize..7, 0usize..7, 1u32..50), 1..18),
            parallel in 0u8..2,
        ) {
            let (g, vs) = build(n, edges, parallel == 1);
            let (s, t) = (vs[0], vs[n - 1]);
            let oracle = all_simple_paths(&g, s, t);
            let yen: Vec<f64> = QueryEngine::new(&g).yen_iter(s, t, CostModel::Length)
                .map(|(_, c)| c)
                .collect();
            prop_assert_eq!(yen.len(), oracle.len(),
                "Yen must enumerate every simple route exactly once");
            for (a, b) in yen.iter().zip(oracle.iter()) {
                prop_assert!((a - b).abs() < 1e-9, "cost sequence mismatch: {} vs {}", a, b);
            }
        }

        /// Weights 1..4 make most costs tie, so the `(cost, sequence)` rule
        /// carries the result: every `limit(n)` must be the unlimited
        /// enumeration's first `n` paths, in its order, and the unlimited
        /// enumeration must still be exactly the simple routes, parallel
        /// edges or not.
        #[test]
        fn yen_limit_is_a_prefix_of_the_unlimited_enumeration_on_ties(
            n in 4usize..8,
            edges in pathrank_testkit::collection::vec((0usize..8, 0usize..8, 1u32..4), 12..48),
            parallel in 0u8..2,
        ) {
            let (g, vs) = build(n, edges, parallel == 1);
            let (s, t) = (vs[0], vs[n - 1]);
            let all: Vec<(Path, f64)> = QueryEngine::new(&g).yen_iter(s, t, CostModel::Length).collect();
            let oracle = all_simple_paths(&g, s, t);
            prop_assert_eq!(
                all.iter().map(|(_, c)| *c).collect::<Vec<_>>(),
                oracle,
                "integer costs are exact"
            );
            let distinct: std::collections::HashSet<_> =
                all.iter().map(|(p, _)| p.vertices()).collect();
            prop_assert_eq!(distinct.len(), all.len(), "a path was yielded twice");
            for limit in 0..=all.len() + 1 {
                let limited: Vec<(Path, f64)> =
                    QueryEngine::new(&g).yen_iter(s, t, CostModel::Length).limit(limit).collect();
                prop_assert_eq!(
                    &limited[..],
                    &all[..limit.min(all.len())],
                    "limit({}) is not the unlimited prefix", limit
                );
            }
        }
    }
}
