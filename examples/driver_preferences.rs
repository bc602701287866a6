//! Demonstrates the paper's motivating observation: local drivers choose
//! paths that are neither shortest nor fastest.
//!
//! ```text
//! cargo run --release --example driver_preferences
//! ```
//!
//! Samples several synthetic drivers, routes each between the same O/D
//! pairs under their hidden preference cost, and compares the preferred
//! path against the shortest and fastest paths.

use pathrank::spatial::algo::engine::QueryEngine;
use pathrank::spatial::generators::{region_network, RegionConfig};
use pathrank::spatial::graph::{CostModel, VertexId};
use pathrank::spatial::similarity::{weighted_jaccard, EdgeWeight};
use pathrank::traj::preference::DriverPreference;
use pathrank_rng::rngs::StdRng;
use pathrank_rng::{Rng, SeedableRng};

fn main() {
    let g = region_network(&RegionConfig::paper_scale(), 2020);
    let n = g.vertex_count() as u32;
    let mut rng = StdRng::seed_from_u64(5);

    println!(
        "network: {} vertices / {} edges",
        g.vertex_count(),
        g.edge_count()
    );
    println!(
        "\n{:>7} {:>9} {:>11} {:>11} {:>12} {:>12}",
        "driver", "trip", "detour_len", "detour_time", "sim_shortest", "sim_fastest"
    );

    // One engine answers every query, whatever its cost model.
    let mut engine = QueryEngine::new(&g);
    let mut neither = 0usize;
    let mut total = 0usize;
    for driver in 0..5u64 {
        let pref = DriverPreference::sample(&mut StdRng::seed_from_u64(driver + 1000));
        let costs = pref.edge_costs(&g);
        for trip in 0..4 {
            // Draw an O/D pair with a reasonable separation.
            let (s, t) = loop {
                let s = VertexId(rng.gen_range(0..n));
                let t = VertexId(rng.gen_range(0..n));
                let d = g.euclidean(s, t);
                if s != t && (1_500.0..8_000.0).contains(&d) {
                    break (s, t);
                }
            };
            let (Some(preferred), Some(short), Some(fast)) = (
                engine.shortest_path(s, t, CostModel::Custom(&costs)),
                engine.shortest_path(s, t, CostModel::Length),
                engine.shortest_path(s, t, CostModel::TravelTime),
            ) else {
                continue;
            };
            let sim_s = weighted_jaccard(&g, &preferred, &short, EdgeWeight::Length);
            let sim_f = weighted_jaccard(&g, &preferred, &fast, EdgeWeight::Length);
            total += 1;
            if sim_s < 0.999 && sim_f < 0.999 {
                neither += 1;
            }
            println!(
                "{driver:>7} {trip:>9} {:>10.1}% {:>10.1}% {sim_s:>12.3} {sim_f:>12.3}",
                (preferred.length_m(&g) / short.length_m(&g) - 1.0) * 100.0,
                (preferred.travel_time_s(&g) / fast.travel_time_s(&g) - 1.0) * 100.0,
            );
        }
    }
    println!(
        "\n{neither}/{total} preferred paths are neither the shortest nor the fastest path — \
         the signal PathRank learns to exploit."
    );
}
