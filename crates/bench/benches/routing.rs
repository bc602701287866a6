//! M1: routing-algorithm latency on the paper-scale synthetic region —
//! Dijkstra vs A* vs bidirectional, plus Yen top-k and diversified top-k
//! (the training-data generators whose cost dominates preprocessing).
//! Each algorithm is measured through the one-shot free function
//! (transient engine per query), on a reused [`QueryEngine`], and — for
//! the goal-directed workloads — on an engine with ALT landmarks
//! attached (`*_alt` rows; exact, see `spatial::algo::landmarks`); the
//! machine-readable comparison lives in the `bench_routing` binary
//! (`BENCH_routing.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use pathrank_spatial::algo::astar::astar_shortest_path;
use pathrank_spatial::algo::bidijkstra::bidirectional_shortest_path;
use pathrank_spatial::algo::ch::{ChConfig, ContractionHierarchy};
use pathrank_spatial::algo::dijkstra::shortest_path;
use pathrank_spatial::algo::diversified::{diversified_top_k, DiversifiedConfig};
use pathrank_spatial::algo::engine::QueryEngine;
use pathrank_spatial::algo::landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable};
use pathrank_spatial::algo::m2m::M2mSearch;
use pathrank_spatial::algo::yen::yen_k_shortest;
use pathrank_spatial::generators::{region_network, RegionConfig};
use pathrank_spatial::graph::{CostModel, VertexId};

fn routing(c: &mut Criterion) {
    let g = region_network(&RegionConfig::paper_scale(), 2020);
    let n = g.vertex_count() as u32;
    let (s, t) = (VertexId(17 % n), VertexId(n - 23));
    let table = Arc::new(LandmarkTable::build(
        &g,
        LandmarkMetric::Length,
        &LandmarkConfig::default(),
    ));
    let ch = Arc::new(ContractionHierarchy::build(
        &g,
        LandmarkMetric::Length,
        &ChConfig::default(),
    ));

    let mut group = c.benchmark_group("point_to_point");
    group.bench_function("dijkstra", |b| {
        b.iter(|| shortest_path(&g, black_box(s), black_box(t), CostModel::Length))
    });
    group.bench_function("dijkstra_reused", |b| {
        let mut engine = QueryEngine::new(&g);
        b.iter(|| engine.shortest_path(black_box(s), black_box(t), CostModel::Length))
    });
    group.bench_function("astar", |b| {
        b.iter(|| astar_shortest_path(&g, black_box(s), black_box(t), CostModel::Length))
    });
    group.bench_function("astar_reused", |b| {
        let mut engine = QueryEngine::new(&g);
        b.iter(|| engine.astar_shortest_path(black_box(s), black_box(t), CostModel::Length))
    });
    group.bench_function("astar_alt", |b| {
        let mut engine = QueryEngine::new(&g).with_landmarks(Arc::clone(&table));
        b.iter(|| engine.astar_shortest_path(black_box(s), black_box(t), CostModel::Length))
    });
    group.bench_function("ch", |b| {
        let mut engine = QueryEngine::new(&g).with_ch(Arc::clone(&ch));
        b.iter(|| engine.shortest_path(black_box(s), black_box(t), CostModel::Length))
    });
    group.bench_function("bidirectional", |b| {
        b.iter(|| bidirectional_shortest_path(&g, black_box(s), black_box(t), CostModel::Length))
    });
    group.bench_function("bidirectional_reused", |b| {
        let mut engine = QueryEngine::new(&g);
        b.iter(|| engine.bidirectional_shortest_path(black_box(s), black_box(t), CostModel::Length))
    });
    group.finish();

    let mut group = c.benchmark_group("many_to_many");
    // The HMM transition-matrix shape: one 16×16 block, pairwise CH
    // probes vs one bucket-based DistanceTable call.
    let sources: Vec<VertexId> = (0..16u32).map(|i| VertexId((i * 131) % n)).collect();
    let targets: Vec<VertexId> = (0..16u32).map(|i| VertexId((i * 197 + 61) % n)).collect();
    group.bench_function("pairwise_ch_16x16", |b| {
        let mut engine = QueryEngine::new(&g).with_ch(Arc::clone(&ch));
        b.iter(|| {
            for &s in &sources {
                for &t in &targets {
                    black_box(engine.shortest_path_cost(s, t, CostModel::Length));
                }
            }
        })
    });
    group.bench_function("bucket_table_16x16", |b| {
        let mut search = M2mSearch::new(g.vertex_count());
        b.iter(|| black_box(ch.view().many_to_many(&mut search, &sources, &targets)))
    });
    group.finish();

    let mut group = c.benchmark_group("top_k");
    group.sample_size(10);
    for k in [4usize, 8] {
        group.bench_with_input(BenchmarkId::new("yen", k), &k, |b, &k| {
            b.iter(|| yen_k_shortest(&g, s, t, CostModel::Length, black_box(k)))
        });
        group.bench_with_input(BenchmarkId::new("yen_reused", k), &k, |b, &k| {
            let mut engine = QueryEngine::new(&g);
            b.iter(|| engine.yen_k_shortest(s, t, CostModel::Length, black_box(k)))
        });
        group.bench_with_input(BenchmarkId::new("yen_alt", k), &k, |b, &k| {
            let mut engine = QueryEngine::new(&g).with_landmarks(Arc::clone(&table));
            b.iter(|| engine.yen_k_shortest(s, t, CostModel::Length, black_box(k)))
        });
        group.bench_with_input(BenchmarkId::new("yen_ch_alt", k), &k, |b, &k| {
            let mut engine = QueryEngine::new(&g)
                .with_landmarks(Arc::clone(&table))
                .with_ch(Arc::clone(&ch));
            b.iter(|| engine.yen_k_shortest(s, t, CostModel::Length, black_box(k)))
        });
        group.bench_with_input(BenchmarkId::new("diversified", k), &k, |b, &k| {
            let cfg = DiversifiedConfig::with_k(k);
            b.iter(|| diversified_top_k(&g, s, t, CostModel::Length, black_box(&cfg)))
        });
        group.bench_with_input(BenchmarkId::new("diversified_reused", k), &k, |b, &k| {
            let cfg = DiversifiedConfig::with_k(k);
            let mut engine = QueryEngine::new(&g);
            b.iter(|| engine.diversified_top_k(s, t, CostModel::Length, black_box(&cfg)))
        });
    }
    group.finish();
}

criterion_group!(benches, routing);
criterion_main!(benches);
