//! End-to-end node2vec driver: walks → SGNS → embedding matrix.

use pathrank_nn::matrix::Matrix;
use pathrank_spatial::graph::Graph;

use crate::skipgram::{train_skipgram, SkipGramConfig};
use crate::walks::{generate_walks, WalkConfig};

/// All node2vec hyper-parameters in one place: the walks, then the
/// skip-gram trainer over them.
#[derive(Debug, Clone)]
pub struct Node2VecConfig {
    /// Biased second-order walks (the paper's `p`, `q`).
    pub walks: WalkConfig,
    /// SGNS over the walk corpus; `sgns.dim` is the embedding
    /// dimensionality `M` (the paper sweeps 64 and 128).
    pub sgns: SkipGramConfig,
}

impl Default for Node2VecConfig {
    /// [`WalkConfig::default`] and [`SkipGramConfig::default`], but three
    /// SGNS epochs.
    fn default() -> Self {
        Node2VecConfig {
            walks: WalkConfig::default(),
            sgns: SkipGramConfig {
                epochs: 3,
                ..SkipGramConfig::default()
            },
        }
    }
}

/// Trains node2vec on `g` and returns the `vertex_count × dim` embedding.
pub fn train_node2vec(g: &Graph, cfg: &Node2VecConfig, seed: u64) -> Matrix {
    let walks = generate_walks(g, &cfg.walks, seed);
    train_skipgram(
        &walks,
        g.vertex_count(),
        &cfg.sgns,
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
        let mut cfg = Node2VecConfig::default();
        cfg.sgns.dim = 16;
        cfg.walks.walks_per_vertex = 2;
        cfg.walks.walk_length = 10;
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
        let mut cfg = Node2VecConfig::default();
        cfg.sgns.dim = 32;
        cfg.walks.walk_length = 20;
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
