//! Deterministic synthetic road-network generators.
//!
//! The paper evaluates on the North Jutland (Denmark) road network, which we
//! cannot redistribute. These generators produce networks with the
//! *structural* properties that matter to PathRank — planar-ish locality,
//! a hierarchy of road classes with different speeds, average degree ≈ 2–4,
//! and many near-optimal alternative routes between any two places:
//!
//! * [`grid_network`] — a jittered Manhattan grid (one town);
//! * [`region_network`] — several grid towns scattered over a region and
//!   stitched together with multi-segment highways: the default stand-in
//!   for the paper's regional network.
//!
//! All generators take an explicit seed and are fully deterministic. Every
//! produced graph is strongly connected (generators keep the largest SCC),
//! and every edge's length is at least the straight-line distance between
//! its endpoints, keeping A*'s heuristic admissible.

use pathrank_rng::rngs::StdRng;
use pathrank_rng::{Rng, SeedableRng};

use crate::builder::GraphBuilder;
use crate::geometry::Point;
use crate::graph::{EdgeAttrs, Graph, RoadCategory, VertexId};

/// Configuration of [`grid_network`].
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Number of vertex columns.
    pub nx: usize,
    /// Number of vertex rows.
    pub ny: usize,
    /// Nominal spacing between adjacent vertices, in metres.
    pub spacing_m: f64,
    /// Coordinate jitter as a fraction of the spacing (0 = perfect grid).
    pub jitter: f64,
    /// Probability of deleting each street segment (introduces dead ends
    /// and irregular blocks; the largest SCC is kept afterwards).
    pub edge_removal: f64,
    /// Extra length factor above the straight-line distance, drawn
    /// uniformly from `[0, wiggle]` per edge (roads are rarely straight).
    pub wiggle: f64,
    /// Every `arterial_every`-th row/column is an arterial road (0 =
    /// residential only).
    pub arterial_every: usize,
}

impl GridConfig {
    /// A 5×5 deterministic grid used throughout unit tests: no edge
    /// removal, so vertex ids are predictable (row-major, 25 vertices).
    pub fn small_test() -> Self {
        GridConfig {
            nx: 5,
            ny: 5,
            spacing_m: 100.0,
            jitter: 0.08,
            edge_removal: 0.0,
            wiggle: 0.15,
            arterial_every: 3,
        }
    }

    /// A mid-size town (~400 vertices) with some irregularity.
    pub fn town() -> Self {
        GridConfig {
            nx: 20,
            ny: 20,
            spacing_m: 120.0,
            jitter: 0.2,
            edge_removal: 0.08,
            wiggle: 0.2,
            arterial_every: 5,
        }
    }
}

/// Generates a jittered Manhattan grid town. See [`GridConfig`].
pub fn grid_network(cfg: &GridConfig, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(cfg.nx * cfg.ny, 4 * cfg.nx * cfg.ny);
    build_grid_into(&mut b, cfg, Point::new(0.0, 0.0), &mut rng);
    finalize_connected(b)
}

/// Adds one grid town to `b` with its lower-left corner at `origin`;
/// returns the ids of the added vertices (row-major).
fn build_grid_into(
    b: &mut GraphBuilder,
    cfg: &GridConfig,
    origin: Point,
    rng: &mut StdRng,
) -> Vec<VertexId> {
    let mut ids = Vec::with_capacity(cfg.nx * cfg.ny);
    for row in 0..cfg.ny {
        for col in 0..cfg.nx {
            let jx = (rng.gen::<f64>() - 0.5) * 2.0 * cfg.jitter * cfg.spacing_m;
            let jy = (rng.gen::<f64>() - 0.5) * 2.0 * cfg.jitter * cfg.spacing_m;
            ids.push(b.add_vertex(Point::new(
                origin.x + col as f64 * cfg.spacing_m + jx,
                origin.y + row as f64 * cfg.spacing_m + jy,
            )));
        }
    }
    // A street along row r (or column c) is arterial when that index is a
    // multiple of `arterial_every`.
    let is_arterial = |idx: usize| cfg.arterial_every > 0 && idx.is_multiple_of(cfg.arterial_every);
    for row in 0..cfg.ny {
        for col in 0..cfg.nx {
            let here = ids[row * cfg.nx + col];
            if col + 1 < cfg.nx {
                let right = ids[row * cfg.nx + col + 1];
                let cat = if is_arterial(row) {
                    RoadCategory::Arterial
                } else {
                    RoadCategory::Residential
                };
                connect_wiggly(b, here, right, cat, cfg.edge_removal, cfg.wiggle, rng);
            }
            if row + 1 < cfg.ny {
                let up = ids[(row + 1) * cfg.nx + col];
                let cat = if is_arterial(col) {
                    RoadCategory::Arterial
                } else {
                    RoadCategory::Residential
                };
                connect_wiggly(b, here, up, cat, cfg.edge_removal, cfg.wiggle, rng);
            }
        }
    }
    ids
}

/// Adds a bidirectional street between `u` and `v` unless removed by the
/// deletion lottery; length is the straight-line distance inflated by a
/// uniform wiggle factor.
fn connect_wiggly(
    b: &mut GraphBuilder,
    u: VertexId,
    v: VertexId,
    cat: RoadCategory,
    removal: f64,
    wiggle: f64,
    rng: &mut StdRng,
) {
    // Draw both variates unconditionally so the vertex/edge layout stays
    // deterministic regardless of which branches execute.
    let drop = rng.gen::<f64>() < removal;
    let factor = 1.0 + rng.gen::<f64>() * wiggle;
    if drop {
        return;
    }
    let dist = b.coord(u).distance(&b.coord(v));
    b.add_bidirectional(
        u,
        v,
        EdgeAttrs::with_default_speed((dist * factor).max(1.0), cat),
    )
    .expect("generated street must be valid");
}

/// Configuration of [`region_network`], the North Jutland stand-in.
#[derive(Debug, Clone)]
pub struct RegionConfig {
    /// Number of grid towns.
    pub n_towns: usize,
    /// Inclusive range of town grid sizes (both axes drawn independently).
    pub town_size: (usize, usize),
    /// Street spacing inside towns, in metres.
    pub street_spacing_m: f64,
    /// Side length of the square region the towns are scattered over, in
    /// metres.
    pub region_extent_m: f64,
    /// Spacing of intermediate vertices along highways, in metres.
    pub highway_vertex_spacing_m: f64,
    /// Number of extra (non-spanning-tree) highway links to add.
    pub extra_highways: usize,
    /// Per-street deletion probability inside towns.
    pub edge_removal: f64,
}

impl RegionConfig {
    /// Tiny two-town region for tests (runs in milliseconds).
    pub fn small_test() -> Self {
        RegionConfig {
            n_towns: 2,
            town_size: (4, 5),
            street_spacing_m: 100.0,
            region_extent_m: 8_000.0,
            highway_vertex_spacing_m: 800.0,
            extra_highways: 1,
            edge_removal: 0.0,
        }
    }

    /// The default experiment scale (~2.5k vertices across 6 towns),
    /// mirroring the regional structure of the paper's road network.
    pub fn paper_scale() -> Self {
        RegionConfig {
            n_towns: 6,
            town_size: (17, 23),
            street_spacing_m: 110.0,
            region_extent_m: 40_000.0,
            highway_vertex_spacing_m: 900.0,
            extra_highways: 3,
            edge_removal: 0.06,
        }
    }
}

/// Generates the regional network: several grid towns placed apart in a
/// square region, joined by multi-segment highways along a spanning tree of
/// town centres (plus a few extra links).
pub fn region_network(cfg: &RegionConfig, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();

    // 1. Place town origins far enough apart.
    let mut origins: Vec<Point> = Vec::with_capacity(cfg.n_towns);
    let min_sep = cfg.region_extent_m / (cfg.n_towns as f64).sqrt() / 1.8;
    let mut attempts = 0;
    while origins.len() < cfg.n_towns && attempts < 10_000 {
        attempts += 1;
        let cand = Point::new(
            rng.gen::<f64>() * cfg.region_extent_m,
            rng.gen::<f64>() * cfg.region_extent_m,
        );
        if origins.iter().all(|p| p.distance(&cand) >= min_sep) {
            origins.push(cand);
        }
    }

    // 2. Build each town; remember per-town vertex ids and centres.
    let mut town_vertices: Vec<Vec<VertexId>> = Vec::with_capacity(origins.len());
    let mut town_centres: Vec<Point> = Vec::with_capacity(origins.len());
    for origin in &origins {
        let (lo, hi) = cfg.town_size;
        let nx = rng.gen_range(lo..=hi);
        let ny = rng.gen_range(lo..=hi);
        let town_cfg = GridConfig {
            nx,
            ny,
            spacing_m: cfg.street_spacing_m,
            jitter: 0.18,
            edge_removal: cfg.edge_removal,
            wiggle: 0.2,
            arterial_every: 4,
        };
        let ids = build_grid_into(&mut b, &town_cfg, *origin, &mut rng);
        town_centres.push(Point::new(
            origin.x + (nx - 1) as f64 * cfg.street_spacing_m / 2.0,
            origin.y + (ny - 1) as f64 * cfg.street_spacing_m / 2.0,
        ));
        town_vertices.push(ids);
    }

    // 3. Spanning tree over town centres (Prim), plus extra links.
    let n = town_centres.len();
    let mut links: Vec<(usize, usize)> = Vec::new();
    if n > 1 {
        let mut in_tree = vec![false; n];
        in_tree[0] = true;
        for _ in 1..n {
            let mut best = (f64::INFINITY, 0usize, 0usize);
            for (i, &it) in in_tree.iter().enumerate() {
                if !it {
                    continue;
                }
                for (j, &jt) in in_tree.iter().enumerate() {
                    if jt {
                        continue;
                    }
                    let d = town_centres[i].distance(&town_centres[j]);
                    if d < best.0 {
                        best = (d, i, j);
                    }
                }
            }
            in_tree[best.2] = true;
            links.push((best.1, best.2));
        }
        let mut added = 0;
        'outer: for i in 0..n {
            for j in (i + 1)..n {
                if added >= cfg.extra_highways {
                    break 'outer;
                }
                if !links.contains(&(i, j)) && !links.contains(&(j, i)) {
                    links.push((i, j));
                    added += 1;
                }
            }
        }
    }

    // 4. Lay a highway per link: the border vertex of each town closest to
    // the other town's centre, chained through intermediate vertices.
    for (i, j) in links {
        let from = closest_vertex(&b, &town_vertices[i], &town_centres[j]);
        let to = closest_vertex(&b, &town_vertices[j], &town_centres[i]);
        lay_highway(&mut b, from, to, cfg.highway_vertex_spacing_m, &mut rng);
    }

    finalize_connected(b)
}

/// The vertex of `candidates` whose coordinate is closest to `target`.
fn closest_vertex(b: &GraphBuilder, candidates: &[VertexId], target: &Point) -> VertexId {
    *candidates
        .iter()
        .min_by(|&&u, &&v| {
            b.coord(u)
                .distance_sq(target)
                .total_cmp(&b.coord(v).distance_sq(target))
        })
        .expect("towns are non-empty")
}

/// Adds a polyline of highway segments from `from` to `to`, inserting
/// intermediate vertices roughly every `spacing_m` metres with mild lateral
/// jitter.
fn lay_highway(
    b: &mut GraphBuilder,
    from: VertexId,
    to: VertexId,
    spacing_m: f64,
    rng: &mut StdRng,
) {
    let a = b.coord(from);
    let z = b.coord(to);
    let dist = a.distance(&z);
    let segments = (dist / spacing_m).ceil().max(1.0) as usize;
    let mut prev = from;
    for s in 1..segments {
        let t = s as f64 / segments as f64;
        let base = a.lerp(&z, t);
        // Lateral jitter perpendicular to the highway direction.
        let jitter = (rng.gen::<f64>() - 0.5) * 0.2 * spacing_m;
        let (dx, dy) = (z.x - a.x, z.y - a.y);
        let norm = (dx * dx + dy * dy).sqrt().max(1e-9);
        let v = b.add_vertex(Point::new(
            base.x - dy / norm * jitter,
            base.y + dx / norm * jitter,
        ));
        connect_highway(b, prev, v, rng);
        prev = v;
    }
    connect_highway(b, prev, to, rng);
}

fn connect_highway(b: &mut GraphBuilder, u: VertexId, v: VertexId, rng: &mut StdRng) {
    let dist = b.coord(u).distance(&b.coord(v));
    let len = dist * (1.0 + rng.gen::<f64>() * 0.05);
    b.add_bidirectional(
        u,
        v,
        EdgeAttrs::with_default_speed(len.max(1.0), RoadCategory::Highway),
    )
    .expect("highway edges are valid");
}

/// Keeps the largest strongly connected component so that every routing
/// query between surviving vertices has an answer.
fn finalize_connected(b: GraphBuilder) -> Graph {
    let g = b.clone().build();
    let scc = g.largest_scc();
    if scc.len() == g.vertex_count() {
        return g;
    }
    let (induced, _) = b.build_induced(&scc);
    induced
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::engine::QueryEngine;
    use crate::graph::CostModel;

    #[test]
    fn grid_is_deterministic() {
        let a = grid_network(&GridConfig::small_test(), 42);
        let b = grid_network(&GridConfig::small_test(), 42);
        assert_eq!(a, b);
        let c = grid_network(&GridConfig::small_test(), 43);
        assert_ne!(a, c, "different seeds give different jitter");
    }

    #[test]
    fn grid_shape_and_connectivity() {
        let g = grid_network(&GridConfig::small_test(), 7);
        assert_eq!(g.vertex_count(), 25);
        // 5x5 grid: 2 * (4*5 + 4*5) directed edges with no removal.
        assert_eq!(g.edge_count(), 80);
        assert_eq!(g.largest_scc().len(), 25);
    }

    #[test]
    fn edge_lengths_at_least_euclidean() {
        for g in [
            grid_network(&GridConfig::town(), 3),
            region_network(&RegionConfig::small_test(), 3),
        ] {
            for e in g.edges() {
                let euclid = g.euclidean(e.from, e.to);
                assert!(
                    e.attrs.length_m >= euclid - 1e-9,
                    "edge length {} below euclidean {}",
                    e.attrs.length_m,
                    euclid
                );
            }
        }
    }

    #[test]
    fn removal_still_strongly_connected() {
        let g = grid_network(&GridConfig::town(), 11);
        let n = g.vertex_count();
        assert!(n > 300, "most of the town should survive, got {n}");
        assert_eq!(g.largest_scc().len(), n);
    }

    #[test]
    fn region_is_connected_and_routable() {
        let g = region_network(&RegionConfig::small_test(), 9);
        assert!(g.vertex_count() > 20);
        assert_eq!(g.largest_scc().len(), g.vertex_count());
        let s = VertexId(0);
        let t = VertexId((g.vertex_count() - 1) as u32);
        let p = QueryEngine::new(&g).shortest_path(s, t, CostModel::Length);
        assert!(p.is_some(), "strongly connected region must be routable");
    }

    #[test]
    fn region_paper_scale_properties() {
        let g = region_network(&RegionConfig::paper_scale(), 2020);
        let n = g.vertex_count();
        assert!(
            (1200..8000).contains(&n),
            "expected ~2.5k vertices, got {n}"
        );
        assert_eq!(g.largest_scc().len(), n);
        // Average out-degree in a road network sits between 1.5 and 4.5.
        let avg = g.edge_count() as f64 / n as f64;
        assert!(
            (1.5..4.5).contains(&avg),
            "unrealistic average degree {avg}"
        );
        // It contains all three main road classes.
        for cat in [
            RoadCategory::Highway,
            RoadCategory::Arterial,
            RoadCategory::Residential,
        ] {
            assert!(
                g.edges().any(|e| e.attrs.category == cat),
                "missing category {cat:?}"
            );
        }
    }

    #[test]
    fn region_is_deterministic() {
        let a = region_network(&RegionConfig::small_test(), 77);
        let b = region_network(&RegionConfig::small_test(), 77);
        assert_eq!(a, b);
    }
}
