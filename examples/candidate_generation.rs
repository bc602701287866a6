//! Advanced routing demo: top-k vs *diversified* top-k shortest paths.
//!
//! ```text
//! cargo run --release --example candidate_generation
//! ```
//!
//! Shows why the paper's D-TkDI strategy matters: the plain top-k paths of
//! a road network are near-duplicates of each other, while the diversified
//! top-k paths are genuinely different route alternatives — much better
//! training data for a ranking model (and much better suggestions for a
//! navigation UI). The query is a trip of about twenty hops, because
//! Yen-based diversification runs out on long cross-town queries: on
//! 50–70-hop trips the first few hundred Yen paths are all small detours
//! of the cheapest one, so none of them passes the threshold.

use pathrank::spatial::algo::diversified::DiversifiedConfig;
use pathrank::spatial::algo::engine::QueryEngine;
use pathrank::spatial::generators::{region_network, RegionConfig};
use pathrank::spatial::graph::{CostModel, VertexId};
use pathrank::spatial::path::Path;
use pathrank::spatial::similarity::{weighted_jaccard, EdgeWeight};
use pathrank::spatial::Graph;

fn mean_pairwise_similarity(g: &Graph, paths: &[(Path, f64)]) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for i in 0..paths.len() {
        for j in (i + 1)..paths.len() {
            total += weighted_jaccard(g, &paths[i].0, &paths[j].0, EdgeWeight::Length);
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

fn describe(g: &Graph, label: &str, paths: &[(Path, f64)]) {
    println!("\n== {label} ({} paths) ==", paths.len());
    println!(
        "{:>4} {:>10} {:>10} {:>6}",
        "#", "length_m", "time_s", "hops"
    );
    for (i, (p, _)) in paths.iter().enumerate() {
        println!(
            "{:>4} {:>10.0} {:>10.0} {:>6}",
            i + 1,
            p.length_m(g),
            p.travel_time_s(g),
            p.len()
        );
    }
    println!(
        "mean pairwise weighted-Jaccard: {:.3}",
        mean_pairwise_similarity(g, paths)
    );
}

fn main() {
    let g = region_network(&RegionConfig::paper_scale(), 2020);
    let n = g.vertex_count() as u32;
    let (s, t) = (VertexId(42 % n), VertexId(270 % n));
    println!(
        "network: {} vertices / {} edges; query {:?} -> {:?}",
        g.vertex_count(),
        g.edge_count(),
        s,
        t
    );

    // One engine serves both enumerations: every search reuses its space.
    let mut engine = QueryEngine::new(&g);
    let k = 6;
    let plain = engine.yen_k_shortest(s, t, CostModel::Length, k);
    describe(&g, "TkDI: plain top-k shortest paths", &plain);

    let cfg = DiversifiedConfig {
        threshold: 0.6,
        ..DiversifiedConfig::with_k(k)
    };
    let diverse = engine.diversified_top_k(s, t, CostModel::Length, &cfg);
    describe(&g, "D-TkDI: diversified top-k (threshold 0.6)", &diverse);

    println!(
        "\ndiversification kept {} path(s) within max_scan = {}; mean pairwise overlap \
         {:.3} -> {:.3}",
        diverse.len(),
        cfg.max_scan,
        mean_pairwise_similarity(&g, &plain),
        mean_pairwise_similarity(&g, &diverse)
    );
}
