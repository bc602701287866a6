//! Second-order biased random walks (the node2vec walk model).
//!
//! A walk at vertex `v` that arrived from `t` chooses the next vertex `x`
//! among `v`'s out-neighbours with unnormalised probability
//!
//! * `1/p` if `x == t` (return),
//! * `1`   if `x` is also a neighbour of `t` (stay close, BFS-like),
//! * `1/q` otherwise (move outward, DFS-like),
//!
//! each multiplied by the edge weight (we use 1 for road networks, as the
//! paper's embedding is purely topological).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pathrank_spatial::graph::Graph;

/// Walk generation parameters.
#[derive(Debug, Clone)]
pub struct WalkConfig {
    /// Walks started per vertex.
    pub walks_per_vertex: usize,
    /// Length of each walk (number of vertices).
    pub walk_length: usize,
    /// Return parameter `p` (small p → walks backtrack often).
    pub p: f64,
    /// In-out parameter `q` (small q → walks explore outward).
    pub q: f64,
}

impl Default for WalkConfig {
    fn default() -> Self {
        WalkConfig {
            walks_per_vertex: 10,
            walk_length: 40,
            p: 1.0,
            q: 0.5,
        }
    }
}

/// Pre-sorted adjacency used for the O(log d) "neighbour of t" test.
struct SortedAdjacency {
    neighbors: Vec<Vec<u32>>,
}

impl SortedAdjacency {
    fn new(g: &Graph) -> Self {
        let mut neighbors: Vec<Vec<u32>> = Vec::with_capacity(g.vertex_count());
        for v in g.vertices() {
            let mut ns: Vec<u32> = g.out_edges(v).map(|(w, _)| w.0).collect();
            ns.sort_unstable();
            neighbors.push(ns);
        }
        SortedAdjacency { neighbors }
    }

    #[inline]
    fn contains(&self, v: u32, x: u32) -> bool {
        self.neighbors[v as usize].binary_search(&x).is_ok()
    }

    #[inline]
    fn of(&self, v: u32) -> &[u32] {
        &self.neighbors[v as usize]
    }
}

/// Generates all walks for `g` under `cfg`, deterministically from `seed`.
/// Returns one `Vec<u32>` of vertex ids per walk.
pub fn generate_walks(g: &Graph, cfg: &WalkConfig, seed: u64) -> Vec<Vec<u32>> {
    assert!(cfg.p > 0.0 && cfg.q > 0.0, "p and q must be positive");
    let adj = SortedAdjacency::new(g);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut walks = Vec::with_capacity(g.vertex_count() * cfg.walks_per_vertex);
    let mut weights: Vec<f64> = Vec::new();

    for _ in 0..cfg.walks_per_vertex {
        for start in 0..g.vertex_count() as u32 {
            let mut walk = Vec::with_capacity(cfg.walk_length);
            walk.push(start);
            let mut prev: Option<u32> = None;
            let mut cur = start;
            while walk.len() < cfg.walk_length {
                let ns = adj.of(cur);
                if ns.is_empty() {
                    break;
                }
                let next = match prev {
                    None => ns[rng.gen_range(0..ns.len())],
                    Some(t) => {
                        weights.clear();
                        weights.extend(ns.iter().map(|&x| {
                            if x == t {
                                1.0 / cfg.p
                            } else if adj.contains(t, x) {
                                1.0
                            } else {
                                1.0 / cfg.q
                            }
                        }));
                        ns[sample_index(&weights, &mut rng)]
                    }
                };
                walk.push(next);
                prev = Some(cur);
                cur = next;
            }
            walks.push(walk);
        }
    }
    walks
}

/// Samples an index proportional to `weights` (linear scan — out-degrees in
/// road networks are tiny, so this beats building an alias table per step).
#[inline]
fn sample_index(weights: &[f64], rng: &mut StdRng) -> usize {
    let total: f64 = weights.iter().sum();
    let mut r = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        r -= w;
        if r <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathrank_spatial::builder::GraphBuilder;
    use pathrank_spatial::generators::{grid_network, GridConfig};
    use pathrank_spatial::geometry::Point;
    use pathrank_spatial::graph::{EdgeAttrs, RoadCategory, VertexId};

    #[test]
    fn walks_have_requested_shape() {
        let g = grid_network(&GridConfig::small_test(), 1);
        let cfg = WalkConfig {
            walks_per_vertex: 3,
            walk_length: 12,
            p: 1.0,
            q: 1.0,
        };
        let walks = generate_walks(&g, &cfg, 5);
        assert_eq!(walks.len(), 3 * g.vertex_count());
        for w in &walks {
            assert_eq!(w.len(), 12, "strongly connected grid: full-length walks");
        }
    }

    #[test]
    fn walks_follow_edges() {
        let g = grid_network(&GridConfig::small_test(), 1);
        let walks = generate_walks(&g, &WalkConfig::default(), 5);
        for w in walks.iter().take(30) {
            for pair in w.windows(2) {
                assert!(
                    g.find_edge(VertexId(pair[0]), VertexId(pair[1])).is_some(),
                    "walk steps must follow directed edges"
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = grid_network(&GridConfig::small_test(), 1);
        let cfg = WalkConfig::default();
        assert_eq!(generate_walks(&g, &cfg, 9), generate_walks(&g, &cfg, 9));
        assert_ne!(generate_walks(&g, &cfg, 9), generate_walks(&g, &cfg, 10));
    }

    #[test]
    fn dead_end_truncates_walk() {
        // 0 -> 1 -> 2, no way back: walks from 0 stop at 2.
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(1.0, 0.0));
        let v2 = b.add_vertex(Point::new(2.0, 0.0));
        let a = EdgeAttrs::with_default_speed(1.0, RoadCategory::Rural);
        b.add_edge(v0, v1, a).unwrap();
        b.add_edge(v1, v2, a).unwrap();
        let g = b.build();
        let cfg = WalkConfig {
            walks_per_vertex: 1,
            walk_length: 10,
            p: 1.0,
            q: 1.0,
        };
        let walks = generate_walks(&g, &cfg, 1);
        assert_eq!(walks[0], vec![0, 1, 2]);
        assert_eq!(walks[2], vec![2]);
    }

    #[test]
    fn low_p_increases_backtracking() {
        // On a cycle where every vertex has exactly two out-neighbours, the
        // previous vertex is always a candidate: tiny p must produce more
        // immediate returns than huge p.
        let mut b = GraphBuilder::new();
        let n = 20;
        let vs: Vec<_> = (0..n)
            .map(|i| {
                b.add_vertex(Point::new(
                    (i as f64).cos() * 100.0,
                    (i as f64).sin() * 100.0,
                ))
            })
            .collect();
        let a = EdgeAttrs::with_default_speed(10.0, RoadCategory::Rural);
        for i in 0..n {
            b.add_bidirectional(vs[i], vs[(i + 1) % n], a).unwrap();
        }
        let g = b.build();

        let count_backtracks = |p: f64, seed: u64| {
            let cfg = WalkConfig {
                walks_per_vertex: 5,
                walk_length: 30,
                p,
                q: 1.0,
            };
            let walks = generate_walks(&g, &cfg, seed);
            let mut backtracks = 0usize;
            for w in &walks {
                for win in w.windows(3) {
                    if win[0] == win[2] {
                        backtracks += 1;
                    }
                }
            }
            backtracks
        };
        let low_p = count_backtracks(0.05, 42);
        let high_p = count_backtracks(20.0, 42);
        assert!(
            low_p > high_p * 2,
            "p=0.05 should backtrack far more than p=20 (got {low_p} vs {high_p})"
        );
    }

    #[test]
    #[should_panic(expected = "p and q must be positive")]
    fn rejects_non_positive_p() {
        let g = grid_network(&GridConfig::small_test(), 1);
        let cfg = WalkConfig {
            p: 0.0,
            ..Default::default()
        };
        let _ = generate_walks(&g, &cfg, 1);
    }
}
