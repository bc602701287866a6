//! Cross-crate integration: invariants that only hold when the substrates
//! compose correctly.

use pathrank::core::candidates::{generate_group_with, CandidateConfig, Strategy};
use pathrank::embed::node2vec::{train_node2vec, Node2VecConfig};
use pathrank::embed::skipgram::SkipGramConfig;
use pathrank::embed::walks::WalkConfig;
use pathrank::nn::matrix::Matrix;
use pathrank::spatial::algo::engine::QueryEngine;
use pathrank::spatial::generators::{region_network, RegionConfig};
use pathrank::spatial::graph::{CostModel, Graph, VertexId};
use pathrank::spatial::io::{read_graph, write_graph};
use pathrank::spatial::similarity::{weighted_jaccard, EdgeWeight};
use pathrank::traj::mapmatch::{MapMatchConfig, MapMatcher};
use pathrank::traj::simulator::{simulate_fleet, SimulationConfig};

fn region() -> Graph {
    region_network(&RegionConfig::small_test(), 33)
}

#[test]
fn graph_serialisation_preserves_routing() {
    let g = region();
    let mut text = Vec::new();
    write_graph(&g, &mut text).unwrap();
    let restored = read_graph(text.as_slice()).unwrap();
    let s = VertexId(1);
    let t = VertexId((g.vertex_count() - 2) as u32);
    let a = QueryEngine::new(&g)
        .shortest_path(s, t, CostModel::Length)
        .unwrap();
    let b = QueryEngine::new(&restored)
        .shortest_path(s, t, CostModel::Length)
        .unwrap();
    assert!(
        a.same_route(&b),
        "routing must be identical on the restored graph"
    );
}

#[test]
fn candidate_groups_contain_the_optimal_path() {
    // The cheapest path must be a candidate under both strategies: TkDI by
    // definition, D-TkDI because the first enumerated path is always kept.
    let g = region();
    let trips = simulate_fleet(&g, &SimulationConfig::small_test(), 34);
    let trajectory = &trips[0].path;
    let sp = QueryEngine::new(&g)
        .shortest_path(trajectory.source(), trajectory.target(), CostModel::Length)
        .expect("connected");
    for strategy in [Strategy::TkDI, Strategy::DTkDI] {
        let cfg = CandidateConfig {
            k: 5,
            ..CandidateConfig::paper_default(strategy)
        };
        let group = generate_group_with(&mut QueryEngine::new(&g), trajectory, &cfg);
        assert!(
            group.candidates.iter().any(|c| c.path.same_route(&sp)),
            "{strategy:?} must include the shortest path"
        );
    }
}

#[test]
fn simulated_trajectory_scores_higher_than_distant_alternatives() {
    // The trajectory labels must order candidates sensibly: the trajectory
    // itself gets 1.0 and every other candidate strictly less unless it is
    // route-identical.
    let g = region();
    let trips = simulate_fleet(&g, &SimulationConfig::small_test(), 35);
    let cfg = CandidateConfig {
        k: 6,
        ..CandidateConfig::paper_default(Strategy::DTkDI)
    };
    let mut engine = QueryEngine::new(&g);
    for trip in trips.iter().take(5) {
        let group = generate_group_with(&mut engine, &trip.path, &cfg);
        assert_eq!(group.candidates[0].score, 1.0);
        for c in &group.candidates[1..] {
            assert!(
                c.score < 1.0 || c.path.same_route(&trip.path),
                "only the trajectory route may score 1.0"
            );
        }
    }
}

#[test]
fn map_matched_path_scores_near_original() {
    // Map matching feeds training: the matched path's similarity to the
    // ground-truth driven path must be high (i.e. labels barely change if
    // we train from matched instead of true paths).
    let g = region();
    let sim = SimulationConfig {
        gps_noise_std_m: 5.0,
        ..SimulationConfig::small_test()
    };
    let trips = simulate_fleet(&g, &sim, 36);
    let mm = MapMatchConfig {
        sigma_m: 6.0,
        ..MapMatchConfig::default()
    };
    let mut matcher = MapMatcher::new(&g, mm);
    let mut total = 0.0;
    let mut n = 0usize;
    for trip in trips.iter().take(6) {
        if let Some(matched) = matcher.match_trace(&trip.trace) {
            total += weighted_jaccard(&g, &matched, &trip.path, EdgeWeight::Length);
            n += 1;
        }
    }
    assert!(n >= 4, "most traces must match");
    assert!(
        total / n as f64 > 0.85,
        "matched paths too dissimilar: {}",
        total / n as f64
    );
}

#[test]
fn node2vec_embeds_every_vertex_for_the_model() {
    let g = region();
    let cfg = Node2VecConfig {
        walks: WalkConfig {
            walks_per_vertex: 2,
            walk_length: 10,
            ..WalkConfig::default()
        },
        sgns: SkipGramConfig {
            dim: 12,
            epochs: 1,
            ..SkipGramConfig::default()
        },
    };
    let emb: Matrix = train_node2vec(&g, &cfg, 37);
    assert_eq!(emb.shape(), (g.vertex_count(), 12));
    assert!(emb.is_finite());
    // No vertex may have an all-zero embedding (every vertex is walked
    // from at least once in a strongly connected graph).
    for v in 0..g.vertex_count() {
        assert!(
            emb.row(v).iter().any(|&x| x != 0.0),
            "vertex {v} has a zero embedding"
        );
    }
}

#[test]
fn yen_paths_share_endpoints_with_query() {
    let g = region();
    let s = VertexId(3);
    let t = VertexId((g.vertex_count() - 5) as u32);
    for (p, cost) in QueryEngine::new(&g).yen_k_shortest(s, t, CostModel::Length, 8) {
        assert_eq!(p.source(), s);
        assert_eq!(p.target(), t);
        assert!(p.is_simple());
        assert!(cost > 0.0);
        p.validate(&g).unwrap();
    }
}
