//! End-to-end node2vec driver: walks → SGNS → embedding matrix.

use pathrank_nn::matrix::Matrix;
use pathrank_spatial::graph::Graph;

use crate::skipgram::{train_skipgram, SkipGramConfig};
use crate::walks::{generate_walks, WalkConfig};

/// All node2vec hyper-parameters in one place.
#[derive(Debug, Clone)]
pub struct Node2VecConfig {
    /// Embedding dimensionality `M` (the paper sweeps 64 and 128).
    pub dim: usize,
    /// Walks started per vertex.
    pub walks_per_vertex: usize,
    /// Length of each walk.
    pub walk_length: usize,
    /// Return parameter `p`.
    pub p: f64,
    /// In-out parameter `q` (< 1 explores outward, suiting path tasks).
    pub q: f64,
    /// Skip-gram window.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negative: usize,
    /// SGNS learning rate.
    pub lr: f32,
    /// SGNS epochs over the walk corpus.
    pub epochs: usize,
}

impl Default for Node2VecConfig {
    fn default() -> Self {
        Node2VecConfig {
            dim: 64,
            walks_per_vertex: 10,
            walk_length: 40,
            p: 1.0,
            q: 0.5,
            window: 5,
            negative: 5,
            lr: 0.025,
            epochs: 3,
        }
    }
}

/// Trains node2vec on `g` and returns the `vertex_count × dim` embedding.
pub fn train_node2vec(g: &Graph, cfg: &Node2VecConfig, seed: u64) -> Matrix {
    let walk_cfg = WalkConfig {
        walks_per_vertex: cfg.walks_per_vertex,
        walk_length: cfg.walk_length,
        p: cfg.p,
        q: cfg.q,
    };
    let walks = generate_walks(g, &walk_cfg, seed);
    let sg_cfg = SkipGramConfig {
        dim: cfg.dim,
        window: cfg.window,
        negative: cfg.negative,
        lr: cfg.lr,
        epochs: cfg.epochs,
    };
    train_skipgram(
        &walks,
        g.vertex_count(),
        &sg_cfg,
        seed.wrapping_add(0x9E3779B97F4A7C15),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skipgram::cosine;
    use pathrank_spatial::algo::QueryEngine;
    use pathrank_spatial::generators::{grid_network, GridConfig};
    use pathrank_spatial::graph::{CostModel, VertexId};

    #[test]
    fn shape_and_determinism() {
        let g = grid_network(&GridConfig::small_test(), 2);
        let cfg = Node2VecConfig {
            dim: 16,
            walks_per_vertex: 2,
            walk_length: 10,
            ..Default::default()
        };
        let a = train_node2vec(&g, &cfg, 3);
        let b = train_node2vec(&g, &cfg, 3);
        assert_eq!(a.shape(), (25, 16));
        assert_eq!(a, b);
        assert!(a.is_finite());
    }

    /// Topological sanity: embedding similarity should correlate with
    /// network distance — nearby vertices must look more alike than far
    /// ones, on average.
    #[test]
    fn similarity_tracks_network_distance() {
        let g = grid_network(
            &GridConfig {
                nx: 8,
                ny: 8,
                ..GridConfig::small_test()
            },
            4,
        );
        let cfg = Node2VecConfig {
            dim: 32,
            walks_per_vertex: 10,
            walk_length: 20,
            ..Default::default()
        };
        let emb = train_node2vec(&g, &cfg, 4);

        let mut engine = QueryEngine::new(&g);
        let tree = engine.one_to_all(VertexId(0), CostModel::Length);
        let mut near = Vec::new();
        let mut far = Vec::new();
        let dists: Vec<f64> = g.vertices().map(|v| tree.dist(v)).collect();
        let max_d = dists.iter().cloned().fold(0.0, f64::max);
        for (v, &d) in dists.iter().enumerate().skip(1) {
            let c = cosine(&emb, 0, v);
            if d < max_d * 0.25 {
                near.push(c);
            } else if d > max_d * 0.75 {
                far.push(c);
            }
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len().max(1) as f32;
        assert!(
            mean(&near) > mean(&far),
            "nearby vertices ({:.3}) must embed more similarly than distant ones ({:.3})",
            mean(&near),
            mean(&far)
        );
    }
}
