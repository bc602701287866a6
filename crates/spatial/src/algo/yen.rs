//! Yen's algorithm for the top-k loopless shortest paths.
//!
//! Exposed as a lazy iterator ([`YenIter`]) because the diversified top-k
//! strategy (the paper's D-TkDI) consumes shortest paths in cost order until
//! it has accumulated k *diverse* ones — which may require scanning far more
//! than k candidates. The plain TkDI strategy is the first k items of the
//! same iterator ([`yen_k_shortest`]).
//!
//! Yen's algorithm is the crate's heaviest [`SearchSpace`] customer: every
//! accepted path triggers constrained spur searches along its vertices, all
//! on one [`QueryEngine`] — either an engine borrowed from the caller
//! ([`QueryEngine::yen_iter`]) or a transient one owned by the iterator
//! ([`YenIter::new`]). The iterator yields exactly what the textbook loop
//! (spur from every vertex of every accepted path, kept as the test oracle
//! below) yields, and makes only the searches whose result can still be
//! pulled. Three invariants carry that:
//!
//! 1. **Spurs below the deviation index are duplicates (Lawler).** A
//!    candidate is `parent[..=dev]` plus a spur path, so it shares its
//!    parent's edges before `dev`. The textbook search at `i < dev` is
//!    rooted at `path[..=i]` and bans the next edges of all accepted paths
//!    sharing that root — the path's own next edge is its parent's, so the
//!    path adds no ban, and the root and ban set are those of the search
//!    made when the previous path through that root was accepted (by
//!    induction, a search actually made from some `i >= dev`). The search is
//!    deterministic, so it would rebuild a candidate already offered. An
//!    accepted path therefore spurs from `i >= dev` only.
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
//!    is widened by [`BOUND_SLACK`]: slack only admits candidates the
//!    queue then discards, it never loses one.
//! 3. **Ties leave in insertion order.** The queue is ordered on `(cost,
//!    insertion sequence)`. A dropped candidate never sits before a kept
//!    one, and the kept ones keep their relative sequence, so the limited
//!    iterator equals the unlimited one's first `n` items even among equal
//!    costs.
//!
//! [`SearchSpace`]: crate::algo::engine::SearchSpace

use std::collections::BTreeMap;

use crate::algo::engine::QueryEngine;
use crate::graph::{CostModel, EdgeId, Graph, VertexId};
use crate::path::Path;
use crate::util::BitSet;

/// Relative widening of the candidate-cost bound handed to spur searches
/// (module docs, invariant 2).
const BOUND_SLACK: f64 = 1e-9;

/// End-of-list marker in [`DeviationTrie`]'s intrusive lists.
const NIL: u32 = u32::MAX;

/// Every path offered so far — accepted or queued — as a trie over vertex
/// sequences, so a node is a spur root. It answers the two questions a spur
/// search asks of the history: which edges out of this root have accepted
/// paths taken (the bans), and has this vertex sequence been offered before
/// (the seen-set; [`Path::same_route`] identity, so a route re-found over a
/// parallel edge counts as seen).
struct DeviationTrie {
    nodes: Vec<TrieNode>,
    /// `(edge, next entry)` lists of the edges accepted paths leave a node by.
    taken: Vec<(EdgeId, u32)>,
}

struct TrieNode {
    vertex: VertexId,
    first_child: u32,
    next_sibling: u32,
    first_taken: u32,
}

impl DeviationTrie {
    /// The trie of the empty history; node 0 is the root `[source]`.
    fn new(source: VertexId) -> Self {
        let mut trie = DeviationTrie {
            nodes: Vec::new(),
            taken: Vec::new(),
        };
        trie.push_node(source, NIL);
        trie
    }

    fn push_node(&mut self, vertex: VertexId, next_sibling: u32) -> u32 {
        self.nodes.push(TrieNode {
            vertex,
            first_child: NIL,
            next_sibling,
            first_taken: NIL,
        });
        (self.nodes.len() - 1) as u32
    }

    fn child(&self, node: u32, vertex: VertexId) -> Option<u32> {
        let mut c = self.nodes[node as usize].first_child;
        while c != NIL && self.nodes[c as usize].vertex != vertex {
            c = self.nodes[c as usize].next_sibling;
        }
        (c != NIL).then_some(c)
    }

    /// Records the path `node`'s prefix + `suffix`; `false` if it was
    /// already there. (Offered paths all end at the target and are simple,
    /// so none is a proper prefix of another.)
    fn insert(&mut self, mut node: u32, suffix: &[VertexId]) -> bool {
        let mut new = false;
        for &v in suffix {
            node = match self.child(node, v) {
                Some(c) => c,
                None => {
                    new = true;
                    let siblings = self.nodes[node as usize].first_child;
                    let c = self.push_node(v, siblings);
                    self.nodes[node as usize].first_child = c;
                    c
                }
            };
        }
        new
    }

    /// The edges accepted paths leave `node` by.
    fn taken(&self, node: u32) -> impl Iterator<Item = EdgeId> + '_ {
        let mut t = self.nodes[node as usize].first_taken;
        std::iter::from_fn(move || {
            let &(edge, next) = self.taken.get(t as usize)?;
            t = next;
            Some(edge)
        })
    }

    /// Marks `edge` as taken out of `node` by an accepted path.
    fn take(&mut self, node: u32, edge: EdgeId) {
        if !self.taken(node).any(|e| e == edge) {
            let first = &mut self.nodes[node as usize].first_taken;
            self.taken.push((edge, *first));
            *first = (self.taken.len() - 1) as u32;
        }
    }
}

/// [`f64::total_cmp`] as an integer key, so `(cost, sequence)` orders the
/// candidate queue as a plain tuple.
fn total_order_key(cost: f64) -> i64 {
    let bits = cost.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// A path in the candidate queue (or the last one yielded).
#[derive(Clone)]
struct Candidate {
    path: Path,
    cost: f64,
    /// Index of the vertex the path left its parent at; spurs start here.
    dev: usize,
    /// Trie node of the root `path[..=dev]`.
    dev_node: u32,
}

/// The engine a [`YenIter`] runs its searches on: its own, or one lent by
/// the caller so spur searches share state with the caller's other queries.
enum EngineRef<'g, 'e> {
    /// Boxed so the iterator stays small when the engine is borrowed.
    Owned(Box<QueryEngine<'g>>),
    Borrowed(&'e mut QueryEngine<'g>),
}

impl<'g> EngineRef<'g, '_> {
    fn get(&mut self) -> &mut QueryEngine<'g> {
        match self {
            EngineRef::Owned(engine) => engine,
            EngineRef::Borrowed(engine) => engine,
        }
    }
}

/// Lazily yields the loopless shortest paths from `source` to `target` in
/// non-decreasing cost order, each with its total cost.
///
/// ```
/// use pathrank_spatial::algo::yen::YenIter;
/// use pathrank_spatial::generators::{grid_network, GridConfig};
/// use pathrank_spatial::graph::{CostModel, VertexId};
///
/// let g = grid_network(&GridConfig::small_test(), 3);
/// let mut it = YenIter::new(&g, VertexId(0), VertexId(12), CostModel::Length);
/// let (best, c1) = it.next().unwrap();
/// let (_second, c2) = it.next().unwrap();
/// assert!(c1 <= c2);
/// assert!(best.is_simple());
/// ```
pub struct YenIter<'g, 'e, 'c> {
    engine: EngineRef<'g, 'e>,
    cost: CostModel<'c>,
    source: VertexId,
    target: VertexId,
    /// The most paths the consumer will pull ([`YenIter::limit`]).
    limit: usize,
    yielded: usize,
    /// The path yielded last; its spur searches are made by the next
    /// `next()`, so a consumer that stops pulling never pays for them.
    last: Option<Candidate>,
    /// Candidate queue (the `B` set) on `(cost key, insertion sequence)`,
    /// never longer than the number of paths still to be pulled.
    candidates: BTreeMap<(i64, u64), Candidate>,
    inserted: u64,
    trie: DeviationTrie,
    /// All clear between `next()` calls.
    banned_vertices: BitSet,
    banned_edges: BitSet,
    exhausted: bool,
}

impl<'g, 'c> YenIter<'g, 'g, 'c> {
    /// Creates the iterator over a transient engine of its own; no search
    /// happens until the first `next()`. When the surrounding code already
    /// holds a [`QueryEngine`], prefer [`QueryEngine::yen_iter`], which
    /// reuses it.
    pub fn new(
        g: &'g Graph,
        source: VertexId,
        target: VertexId,
        cost: CostModel<'c>,
    ) -> YenIter<'g, 'g, 'c> {
        Self::with_engine(
            EngineRef::Owned(Box::new(QueryEngine::new(g))),
            source,
            target,
            cost,
        )
    }
}

impl<'g, 'e, 'c> YenIter<'g, 'e, 'c> {
    /// Creates the iterator on a borrowed engine (see
    /// [`QueryEngine::yen_iter`]).
    pub(crate) fn on_engine(
        engine: &'e mut QueryEngine<'g>,
        source: VertexId,
        target: VertexId,
        cost: CostModel<'c>,
    ) -> YenIter<'g, 'e, 'c> {
        Self::with_engine(EngineRef::Borrowed(engine), source, target, cost)
    }

    fn with_engine(
        mut engine: EngineRef<'g, 'e>,
        source: VertexId,
        target: VertexId,
        cost: CostModel<'c>,
    ) -> YenIter<'g, 'e, 'c> {
        let g = engine.get().graph();
        let (nv, ne) = (g.vertex_count(), g.edge_count());
        YenIter {
            engine,
            cost,
            source,
            target,
            limit: usize::MAX,
            yielded: 0,
            last: None,
            candidates: BTreeMap::new(),
            inserted: 0,
            trie: DeviationTrie::new(source),
            banned_vertices: BitSet::new(nv),
            banned_edges: BitSet::new(ne),
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

    /// Makes the spur searches owed for the accepted path `prev` and queues
    /// what they find.
    fn spur_from(&mut self, prev: &Candidate) {
        let g = self.engine.get().graph();
        let (vertices, edges) = (prev.path.vertices(), prev.path.edges());
        let remaining = self.limit - self.yielded;
        let edge_cost = |e: &EdgeId| self.cost.edge_cost(g, *e);

        // The root `vertices[..=i]` grows by one vertex per step: its ban on
        // revisiting itself, its cost and its trie node are carried along.
        for v in &vertices[..prev.dev] {
            self.banned_vertices.insert(v.0);
        }
        let mut root_cost = edges[..prev.dev].iter().map(edge_cost).sum::<f64>();
        let mut root = prev.dev_node;
        for i in prev.dev..edges.len() {
            let bound = match self.candidates.last_key_value() {
                Some((_, worst)) if self.candidates.len() >= remaining => worst.cost,
                _ => f64::INFINITY,
            };
            let max_cost = bound * (1.0 + BOUND_SLACK) - root_cost;
            if max_cost < 0.0 {
                // Roots only get costlier along the path and the bound only
                // falls, so neither this path nor a later one through these
                // roots spurs from them again: their bans may stay unmarked.
                break;
            }
            // Ban the next edge of every accepted path sharing this root
            // (this path's included), so the search cannot reproduce one.
            self.trie.take(root, edges[i]);
            for e in self.trie.taken(root) {
                self.banned_edges.insert(e.0);
            }
            let spur = self.engine.get().constrained_shortest_path(
                vertices[i],
                self.target,
                self.cost,
                &self.banned_vertices,
                &self.banned_edges,
                max_cost,
            );
            for e in self.trie.taken(root) {
                self.banned_edges.remove(e.0);
            }
            if let Some(spur) = spur {
                if self.trie.insert(root, &spur.vertices()[1..]) {
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
                    let candidate = Candidate {
                        path,
                        cost,
                        dev: i,
                        dev_node: root,
                    };
                    self.candidates
                        .insert((total_order_key(cost), self.inserted), candidate);
                    self.inserted += 1;
                    if self.candidates.len() > remaining {
                        self.candidates.pop_last();
                    }
                }
            }
            self.banned_vertices.insert(vertices[i].0);
            root_cost += edge_cost(&edges[i]);
            root = self
                .trie
                .child(root, vertices[i + 1])
                .expect("offered paths are in the trie");
        }
        for v in vertices {
            self.banned_vertices.remove(v.0);
        }
    }
}

impl Iterator for YenIter<'_, '_, '_> {
    type Item = (Path, f64);

    fn next(&mut self) -> Option<(Path, f64)> {
        if self.exhausted || self.yielded >= self.limit {
            return None;
        }
        let next = if self.yielded == 0 {
            // The unconstrained shortest path "deviates" at the source.
            let g = self.engine.get().graph();
            let first = self
                .engine
                .get()
                .shortest_path(self.source, self.target, self.cost);
            first.map(|path| {
                self.trie.insert(0, &path.vertices()[1..]);
                Candidate {
                    cost: path.cost(g, self.cost),
                    path,
                    dev: 0,
                    dev_node: 0,
                }
            })
        } else {
            let last = self.last.take().expect("kept while more may be pulled");
            self.spur_from(&last);
            self.candidates.pop_first().map(|(_, candidate)| candidate)
        };
        let Some(next) = next else {
            self.exhausted = true;
            return None;
        };
        self.yielded += 1;
        if self.yielded < self.limit {
            self.last = Some(next.clone());
        }
        Some((next.path, next.cost))
    }
}

/// The k cheapest loopless paths from `source` to `target` (fewer if the
/// graph does not contain k distinct simple paths).
pub fn yen_k_shortest(
    g: &Graph,
    source: VertexId,
    target: VertexId,
    cost: CostModel<'_>,
    k: usize,
) -> Vec<(Path, f64)> {
    YenIter::new(g, source, target, cost).limit(k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable};
    use crate::builder::GraphBuilder;
    use crate::generators::{grid_network, region_network, GridConfig, RegionConfig};
    use crate::geometry::Point;
    use crate::graph::{EdgeAttrs, RoadCategory};
    use crate::util::MinCost;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BinaryHeap, HashSet};
    use std::sync::Arc;

    /// The textbook loop this module implemented before Lawler's rule, the
    /// cost bound and the trie: after every accepted path, one constrained
    /// search from **each** of its vertices, bans rebuilt by a prefix
    /// compare against every accepted path, candidates deduplicated in a
    /// set of vertex sequences. Kept as the oracle [`YenIter`] must equal.
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
                        banned_edges.insert(p.edges()[i].0);
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
        let paths = yen_k_shortest(&g, c, h, CostModel::Length, 3);
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
        let (g, [c, _, _, _, _, h]) = yen_example();
        let free = yen_k_shortest(&g, c, h, CostModel::Length, 10);
        let mut engine = QueryEngine::new(&g);
        let on_engine = engine.yen_k_shortest(c, h, CostModel::Length, 10);
        assert_eq!(free.len(), on_engine.len());
        for ((pa, ca), (pb, cb)) in free.iter().zip(on_engine.iter()) {
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
        let paths = yen_k_shortest(&g, s, t, CostModel::Length, 12);
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
        let paths = yen_k_shortest(&g, v[0], v[3], CostModel::Length, 10);
        assert_eq!(paths.len(), 3);
        assert!((paths[0].1 - 2.0).abs() < 1e-12);
        assert!((paths[1].1 - 4.0).abs() < 1e-12);
        assert!((paths[2].1 - 10.0).abs() < 1e-12);
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
        assert!(yen_k_shortest(&g, v0, v1, CostModel::Length, 5).is_empty());
    }

    #[test]
    fn iterator_is_fused_after_exhaustion() {
        let (g, [c, _, _, _, _, h]) = yen_example();
        let mut it = YenIter::new(&g, c, h, CostModel::Length);
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
    use crate::graph::{EdgeAttrs, RoadCategory};
    use proptest::prelude::*;

    /// Brute-force enumeration of all simple paths (oracle, tiny graphs
    /// only).
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
            for (v, e) in g.out_edges(cur) {
                if !visited[v.index()] {
                    visited[v.index()] = true;
                    dfs(g, v, t, visited, cost + g.edge(e).attrs.length_m, out);
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

    /// A random directed graph from proptest-drawn raw material.
    fn build(n: usize, edges: Vec<(usize, usize, u32)>) -> (Graph, Vec<VertexId>) {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..n)
            .map(|i| b.add_vertex(Point::new(i as f64, 0.0)))
            .collect();
        let mut dedup = std::collections::HashSet::new();
        for (f, t, w) in edges {
            let (f, t) = (f % n, t % n);
            if f != t && dedup.insert((f, t)) {
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
            edges in proptest::collection::vec((0usize..7, 0usize..7, 1u32..50), 1..18),
        ) {
            let (g, vs) = build(n, edges);
            let (s, t) = (vs[0], vs[n - 1]);
            let oracle = all_simple_paths(&g, s, t);
            let yen: Vec<f64> = YenIter::new(&g, s, t, CostModel::Length)
                .map(|(_, c)| c)
                .collect();
            prop_assert_eq!(yen.len(), oracle.len(),
                "Yen must enumerate every simple path exactly once");
            for (a, b) in yen.iter().zip(oracle.iter()) {
                prop_assert!((a - b).abs() < 1e-9, "cost sequence mismatch: {} vs {}", a, b);
            }
        }

        /// Weights 1..4 make most costs tie, so the `(cost, sequence)` rule
        /// and the seen-set carry the result: every `limit(n)` must be the
        /// unlimited enumeration's first `n` paths, in its order, and the
        /// unlimited enumeration must still be exactly the simple paths.
        #[test]
        fn yen_limit_is_a_prefix_of_the_unlimited_enumeration_on_ties(
            n in 4usize..8,
            edges in proptest::collection::vec((0usize..8, 0usize..8, 1u32..4), 12..48),
        ) {
            let (g, vs) = build(n, edges);
            let (s, t) = (vs[0], vs[n - 1]);
            let all: Vec<(Path, f64)> = YenIter::new(&g, s, t, CostModel::Length).collect();
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
                    YenIter::new(&g, s, t, CostModel::Length).limit(limit).collect();
                prop_assert_eq!(
                    &limited[..],
                    &all[..limit.min(all.len())],
                    "limit({}) is not the unlimited prefix", limit
                );
            }
        }
    }
}
