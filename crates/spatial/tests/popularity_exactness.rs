//! Exactness harness for `graph::edge_popularity`.
//!
//! * `popularity_matches_parent_walks_*` — the function returns, in bits,
//!   what the parent-walk count it replaced returns (kept below as
//!   [`reference_popularity`]) on generated graphs with parallel edges,
//!   2-cycles, near-zero-length edges (ties everywhere) and vertices no
//!   root reaches. The graph model itself rejects self-loops and
//!   zero-length edges (`builder::tests::rejects_self_loop`), so those
//!   two cannot occur in a tree; the near-zero lengths are the closest
//!   admissible stand-in.
//! * `popularity_golden_region` — an FNV of the scores on the benchmark's
//!   region ×1, recorded at the commit before the subtree-size count.

use pathrank_rng::rngs::StdRng;
use pathrank_rng::{Rng, SeedableRng};
use pathrank_spatial::algo::engine::QueryEngine;
use pathrank_spatial::builder::GraphBuilder;
use pathrank_spatial::generators::{region_network, RegionConfig};
use pathrank_spatial::geometry::Point;
use pathrank_spatial::graph::{
    edge_popularity, CostModel, EdgeAttrs, Graph, RoadCategory, VertexId,
};

/// Edge popularity as it stood before the subtree-size count: every
/// vertex walks its parent chain to the root and bumps each edge on it.
fn reference_popularity(g: &Graph, samples: usize, seed: u64) -> Vec<f64> {
    let n = g.vertex_count();
    let mut counts = vec![0.0f64; g.edge_count()];
    if n == 0 || g.edge_count() == 0 {
        return counts;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut engine = QueryEngine::new(g);
    for _ in 0..samples.max(1) {
        let root = VertexId(rng.gen_range(0..n as u32));
        let tree = engine.one_to_all(root, CostModel::Length);
        for v in g.vertices() {
            let mut cur = v;
            let mut hops = 0usize;
            while let Some((parent, e)) = tree.parent_of(cur) {
                counts[e.index()] += 1.0;
                cur = parent;
                hops += 1;
                if hops > n {
                    break;
                }
            }
        }
    }
    let max = counts.iter().cloned().fold(0.0f64, f64::max);
    if max > 0.0 {
        for c in counts.iter_mut() {
            *c /= max;
        }
    }
    counts
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// A random multigraph on `n` vertices: lengths from a handful of
/// integers (so equal-cost alternatives abound) or `1e-300` (which
/// vanishes next to any other length), a parallel copy of every fifth
/// edge and the reverse of every third. The last fifth of the vertices
/// only has outgoing edges, so no other root reaches them.
fn random_graph(n: usize, m: usize, rng: &mut StdRng) -> Graph {
    let mut b = GraphBuilder::new();
    let vs: Vec<_> = (0..n)
        .map(|_| b.add_vertex(Point::new(rng.gen_range(0.0..1e3), rng.gen_range(0.0..1e3))))
        .collect();
    let sinks_from = n - n / 5;
    for i in 0..m {
        let from = vs[rng.gen_range(0..n)];
        let to = vs[rng.gen_range(0..sinks_from)];
        if from == to {
            continue;
        }
        let len = if rng.gen_range(0..6) == 0 {
            1e-300
        } else {
            rng.gen_range(1..5) as f64
        };
        let a = EdgeAttrs::with_default_speed(len, RoadCategory::Residential);
        b.add_edge(from, to, a).unwrap();
        if i % 5 == 0 {
            b.add_edge(from, to, a).unwrap();
        }
        if i % 3 == 0 && to.index() < sinks_from && from.index() < sinks_from {
            b.add_edge(to, from, a).unwrap();
        }
    }
    b.build()
}

#[test]
fn popularity_matches_parent_walks_on_generated_graphs() {
    let mut rng = StdRng::seed_from_u64(0x909);
    for case in 0..60 {
        let n = rng.gen_range(2..80);
        let m = rng.gen_range(0..4 * n);
        let g = random_graph(n, m, &mut rng);
        let samples = [0, 1, 3, 8][case % 4];
        let seed = rng.gen();
        assert_eq!(
            bits(&edge_popularity(&g, samples, seed)),
            bits(&reference_popularity(&g, samples, seed)),
            "case {case}: n {n}, m {}, samples {samples}",
            g.edge_count()
        );
    }
}

#[test]
fn popularity_matches_parent_walks_on_edge_cases() {
    // No vertices; vertices but no edges; one edge; a path whose far end
    // is reached only from the first vertex.
    let empty = GraphBuilder::new().build();
    assert!(edge_popularity(&empty, 4, 1).is_empty());

    let mut b = GraphBuilder::new();
    let v: Vec<_> = (0..4)
        .map(|i| b.add_vertex(Point::new(i as f64, 0.0)))
        .collect();
    let bare = b.clone().build();
    assert_eq!(
        bits(&edge_popularity(&bare, 4, 1)),
        bits(&reference_popularity(&bare, 4, 1))
    );

    let a = EdgeAttrs::with_default_speed(1.0, RoadCategory::Rural);
    b.add_edge(v[0], v[1], a).unwrap();
    let one = b.clone().build();
    b.add_edge(v[1], v[2], a).unwrap();
    b.add_edge(v[2], v[3], a).unwrap();
    let chain = b.build();
    for g in [&one, &chain] {
        for seed in 0..6 {
            assert_eq!(
                bits(&edge_popularity(g, 5, seed)),
                bits(&reference_popularity(g, 5, seed))
            );
        }
    }
}

#[test]
fn popularity_golden_region() {
    // `benchmark/src/env.rs` `region_config(1)` on its `GRAPH_SEED`, with
    // the root count and seed `simulate_fleet` uses for seed 1.
    let region = RegionConfig {
        town_size: (20, 20),
        ..RegionConfig::paper_scale()
    };
    let g = region_network(&region, 2020);
    let scores = edge_popularity(&g, 48, 2u64.wrapping_add(0x5eed));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in std::iter::once(g.edge_count() as u64).chain(bits(&scores)) {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(
        h,
        0x900a_595e_8a23_f9b3,
        "popularity golden moved (edges {})",
        g.edge_count()
    );
}
