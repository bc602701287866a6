//! Graph builders the exactness harnesses share, so every harness draws
//! its graphs from the same recipe.

// Each harness uses some of these.
#![allow(dead_code)]

use pathrank::spatial::builder::GraphBuilder;
use pathrank::spatial::geometry::Point;
use pathrank::spatial::graph::{CostModel, EdgeAttrs, Graph, RoadCategory, VertexId};
use pathrank::spatial::path::Path;

/// Builds a random directed graph from proptest-drawn raw material: `n`
/// vertices at `coords` and one directed edge per `(from, to, w)` with
/// attributes `attrs(w)`. Ends are taken mod `n` and self-loops dropped;
/// a repeated `(from, to)` pair becomes a parallel edge when `parallel`
/// is set and is dropped otherwise.
pub fn build_graph(
    n: usize,
    coords: &[(f64, f64)],
    edges: &[(usize, usize, u32)],
    parallel: bool,
    attrs: fn(u32) -> EdgeAttrs,
) -> Graph {
    let mut b = GraphBuilder::new();
    let vs: Vec<VertexId> = (0..n)
        .map(|i| b.add_vertex(Point::new(coords[i].0, coords[i].1)))
        .collect();
    let mut seen = std::collections::HashSet::new();
    for &(f, t, w) in edges {
        let (f, t) = (f % n, t % n);
        if f != t && (seen.insert((f, t)) || parallel) {
            b.add_edge(vs[f], vs[t], attrs(w)).unwrap();
        }
    }
    b.build()
}

/// A rural road `w` metres long at its default speed.
pub fn rural(w: u32) -> EdgeAttrs {
    EdgeAttrs::with_default_speed(w as f64, RoadCategory::Rural)
}

/// A rural road `w` metres long at 1.8 km/h, so its travel time is
/// exactly `2 × length`: integer-valued, and both metrics sum exactly in
/// `f64`.
pub fn integer_times(w: u32) -> EdgeAttrs {
    EdgeAttrs {
        length_m: w as f64,
        speed_kmh: 1.8,
        category: RoadCategory::Rural,
    }
}

/// A road `w` metres long whose category, and so free-flow speed,
/// follows `w % 3`.
pub fn mixed_categories(w: u32) -> EdgeAttrs {
    let category = match w % 3 {
        0 => RoadCategory::Arterial,
        1 => RoadCategory::Rural,
        _ => RoadCategory::Residential,
    };
    EdgeAttrs::with_default_speed(w as f64, category)
}

/// The cost of `p` under `cost`, or `-1` when there is no path, so
/// reachability and cost compare in one assert.
pub fn cost_of(g: &Graph, p: &Option<Path>, cost: CostModel<'_>) -> f64 {
    p.as_ref().map_or(-1.0, |p| p.cost(g, cost))
}
