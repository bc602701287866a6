//! OSM → [`Graph`] conversion: filtering, projection, SCC pruning and
//! degree-2 chain contraction.

use std::collections::HashMap;

use crate::builder::GraphBuilder;
use crate::error::SpatialError;
use crate::geo::{haversine_m, LocalProjection};
use crate::geometry::Point;
use crate::graph::{EdgeAttrs, Graph, RoadCategory, VertexId};

use super::{highway_class, parse_maxspeed_kmh, way_direction, OsmData, WayDirection};

/// Importer knobs. The defaults produce the graph every existing index
/// expects: car-routable classes only, strongly connected, chains
/// contracted.
#[derive(Debug, Clone)]
pub struct ImportConfig {
    /// Also keep `service` / `track` access roads (off by default: they
    /// multiply the vertex count without adding routing structure).
    pub include_service_roads: bool,
    /// Restrict the graph to its largest strongly-connected component so
    /// every query has an answer (on by default; the synthetic
    /// generators give the same guarantee).
    pub prune_to_largest_scc: bool,
    /// Contract degree-2 pass-through vertices into single edges, with
    /// length and travel time preserved exactly.
    pub contract_chains: bool,
}

impl Default for ImportConfig {
    fn default() -> Self {
        ImportConfig {
            include_service_roads: false,
            prune_to_largest_scc: true,
            contract_chains: true,
        }
    }
}

/// What the importer did, stage by stage — printed by the `import_osm`
/// binary and asserted by the fixture tests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ImportStats {
    /// Nodes in the parsed extract.
    pub raw_nodes: usize,
    /// Ways in the parsed extract.
    pub raw_ways: usize,
    /// Ways kept as routable roads.
    pub kept_ways: usize,
    /// Kept ways that are one-way (either direction).
    pub oneway_ways: usize,
    /// Ways without a `highway` tag (buildings, land use, …).
    pub skipped_non_highway: usize,
    /// Ways with a `highway` value outside [`super::HIGHWAY_CLASSES`]
    /// (footways, cycleways, …) or an excluded service class.
    pub skipped_unroutable_class: usize,
    /// Ways dropped because a node ref is missing from the extract.
    pub skipped_missing_nodes: usize,
    /// Ways dropped for having fewer than two distinct nodes.
    pub skipped_degenerate: usize,
    /// `(highway value, count)` histogram over kept ways, most common
    /// first.
    pub highway_histogram: Vec<(String, usize)>,
    /// Vertex/edge counts of the raw segment graph (one edge per
    /// consecutive node pair).
    pub segment_vertices: usize,
    /// Edges in the raw segment graph.
    pub segment_edges: usize,
    /// Vertex/edge counts after the SCC prune.
    pub scc_vertices: usize,
    /// Edges after the SCC prune.
    pub scc_edges: usize,
    /// Final vertex count (after chain contraction).
    pub final_vertices: usize,
    /// Final edge count.
    pub final_edges: usize,
    /// Total directed edge length of the final graph, in km.
    pub total_km: f64,
}

/// An imported road network: the routable [`Graph`] plus the projection
/// that maps graph coordinates back to WGS84 and what the import did.
#[derive(Debug, Clone)]
pub struct ImportedGraph {
    /// The routable graph, in local planar metres.
    pub graph: Graph,
    /// The lat/lon ↔ planar mapping used at import time.
    pub projection: LocalProjection,
    /// Stage-by-stage import statistics.
    pub stats: ImportStats,
}

/// A directed edge in the intermediate (pre-CSR) representation.
#[derive(Debug, Clone)]
struct RawEdge {
    from: u32,
    to: u32,
    length_m: f64,
    time_s: f64,
    category: RoadCategory,
}

impl RawEdge {
    fn speed_kmh(&self) -> f64 {
        // Preserve travel time exactly: speed is derived, not stored.
        (self.length_m / self.time_s) * 3.6
    }
}

/// Converts a parsed OSM extract into a routable graph. See the module
/// docs for the pipeline; errors are [`SpatialError::Parse`] when the
/// extract contains no routable network at all.
pub fn import_osm(data: &OsmData, cfg: &ImportConfig) -> Result<ImportedGraph, SpatialError> {
    let mut stats = ImportStats {
        raw_nodes: data.nodes.len(),
        raw_ways: data.ways.len(),
        ..ImportStats::default()
    };

    let positions: HashMap<i64, (f64, f64)> =
        data.nodes.iter().map(|n| (n.id, (n.lat, n.lon))).collect();

    // Pass 1: filter ways, collect the used node set and the histogram.
    let mut kept: Vec<(&super::OsmWay, &'static super::HighwayClass)> = Vec::new();
    let mut histogram: HashMap<&str, usize> = HashMap::new();
    for way in &data.ways {
        let Some(value) = way.tag("highway") else {
            stats.skipped_non_highway += 1;
            continue;
        };
        let Some(class) = highway_class(value) else {
            stats.skipped_unroutable_class += 1;
            continue;
        };
        if class.service && !cfg.include_service_roads {
            stats.skipped_unroutable_class += 1;
            continue;
        }
        if way.refs.iter().any(|r| !positions.contains_key(r)) {
            stats.skipped_missing_nodes += 1;
            continue;
        }
        // Count *distinct consecutive* refs: a way needs at least one
        // traversable segment.
        let mut distinct = 1usize;
        for w in way.refs.windows(2) {
            if w[0] != w[1] {
                distinct += 1;
            }
        }
        if way.refs.is_empty() || distinct < 2 {
            stats.skipped_degenerate += 1;
            continue;
        }
        *histogram.entry(class.name).or_default() += 1;
        kept.push((way, class));
    }
    if kept.is_empty() {
        return Err(SpatialError::Parse(
            "extract contains no routable highway ways".into(),
        ));
    }
    let mut histogram: Vec<(String, usize)> = histogram
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    histogram.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    stats.kept_ways = kept.len();
    stats.highway_histogram = histogram;

    // Pass 2: number the used nodes and centre a projection on them.
    let mut vertex_of: HashMap<i64, u32> = HashMap::new();
    let mut lat_lon: Vec<(f64, f64)> = Vec::new();
    for (way, _) in &kept {
        for r in &way.refs {
            if let std::collections::hash_map::Entry::Vacant(e) = vertex_of.entry(*r) {
                e.insert(lat_lon.len() as u32);
                lat_lon.push(positions[r]);
            }
        }
    }
    let projection =
        LocalProjection::centred_on(lat_lon.iter().copied()).expect("kept ways have nodes");
    let coords: Vec<Point> = lat_lon
        .iter()
        .map(|&(la, lo)| projection.project(la, lo))
        .collect();

    // Pass 3: one directed edge per traversable consecutive node pair,
    // with haversine lengths and `maxspeed`-or-default speeds.
    let mut edges: Vec<RawEdge> = Vec::new();
    for (way, class) in &kept {
        let speed = way
            .tag("maxspeed")
            .and_then(parse_maxspeed_kmh)
            .unwrap_or(class.default_speed_kmh);
        let dir = way_direction(way, class);
        if dir != WayDirection::Both {
            stats.oneway_ways += 1;
        }
        for w in way.refs.windows(2) {
            let (a, b) = (w[0], w[1]);
            if a == b {
                continue;
            }
            let (la1, lo1) = positions[&a];
            let (la2, lo2) = positions[&b];
            // Coincident distinct nodes would violate the builder's
            // positive-length invariant; clamp to a centimetre.
            let length_m = haversine_m(la1, lo1, la2, lo2).max(0.01);
            let time_s = length_m / (speed / 3.6);
            let (u, v) = (vertex_of[&a], vertex_of[&b]);
            let seg = |from: u32, to: u32| RawEdge {
                from,
                to,
                length_m,
                time_s,
                category: class.category,
            };
            match dir {
                WayDirection::Forward => edges.push(seg(u, v)),
                WayDirection::Backward => edges.push(seg(v, u)),
                WayDirection::Both => {
                    edges.push(seg(u, v));
                    edges.push(seg(v, u));
                }
            }
        }
    }
    stats.segment_vertices = coords.len();
    stats.segment_edges = edges.len();

    // Pass 4: largest-SCC prune.
    let (mut coords, mut edges) = if cfg.prune_to_largest_scc {
        let probe = build_graph(&coords, &edges);
        let scc = probe.largest_scc();
        let mut keep = vec![false; coords.len()];
        for v in &scc {
            keep[v.index()] = true;
        }
        let mut remap = vec![u32::MAX; coords.len()];
        let mut new_coords = Vec::with_capacity(scc.len());
        for v in &scc {
            remap[v.index()] = new_coords.len() as u32;
            new_coords.push(coords[v.index()]);
        }
        let new_edges: Vec<RawEdge> = edges
            .into_iter()
            .filter(|e| keep[e.from as usize] && keep[e.to as usize])
            .map(|mut e| {
                e.from = remap[e.from as usize];
                e.to = remap[e.to as usize];
                e
            })
            .collect();
        (new_coords, new_edges)
    } else {
        (coords, edges)
    };
    stats.scc_vertices = coords.len();
    stats.scc_edges = edges.len();
    if edges.is_empty() {
        return Err(SpatialError::Parse(
            "no routable edges survive the strongly-connected-component prune".into(),
        ));
    }

    // Pass 5: degree-2 chain contraction.
    if cfg.contract_chains {
        let (c, e) = contract_chains(coords, edges);
        coords = c;
        edges = e;
    }
    stats.final_vertices = coords.len();
    stats.final_edges = edges.len();
    stats.total_km = edges.iter().map(|e| e.length_m).sum::<f64>() / 1000.0;

    Ok(ImportedGraph {
        graph: build_graph(&coords, &edges),
        projection,
        stats,
    })
}

/// Builds a CSR [`Graph`] from the intermediate representation.
fn build_graph(coords: &[Point], edges: &[RawEdge]) -> Graph {
    let mut b = GraphBuilder::with_capacity(coords.len(), edges.len());
    for &p in coords {
        b.add_vertex(p);
    }
    for e in edges {
        b.add_edge(
            VertexId(e.from),
            VertexId(e.to),
            EdgeAttrs {
                length_m: e.length_m,
                speed_kmh: e.speed_kmh(),
                category: e.category,
            },
        )
        .expect("importer produces validated edges");
    }
    b.build()
}

/// Folds a run of consecutive directed edges into one edge: length and
/// travel time are exact sums, and the category comes from the longest
/// constituent.
fn fold_run(edges: &[RawEdge], run: &[u32]) -> RawEdge {
    let mut length_m = 0.0;
    let mut time_s = 0.0;
    let mut category = edges[run[0] as usize].category;
    let mut longest = -1.0f64;
    for &ei in run {
        let e = &edges[ei as usize];
        length_m += e.length_m;
        time_s += e.time_s;
        if e.length_m > longest {
            longest = e.length_m;
            category = e.category;
        }
    }
    RawEdge {
        from: edges[run[0] as usize].from,
        to: edges[*run.last().expect("runs are non-empty") as usize].to,
        length_m,
        time_s,
        category,
    }
}

/// Contracts pass-through vertices: a vertex is *interior* when it is
/// either a two-way chain link (in = out = 2, the same two distinct
/// neighbours on both sides) or a one-way chain link (in = out = 1 with
/// distinct neighbours). Each maximal run of interior vertices between
/// two anchors collapses into one edge whose length and travel time are
/// the exact sums of its constituents (speed is re-derived, category
/// taken from the longest constituent). Runs looping back onto their
/// own anchor split at a deterministic interior vertex (self-loops are
/// forbidden); cycles with no anchor at all are left uncontracted.
fn contract_chains(coords: Vec<Point>, edges: Vec<RawEdge>) -> (Vec<Point>, Vec<RawEdge>) {
    let n = coords.len();
    let mut out_adj: Vec<Vec<u32>> = vec![Vec::new(); n]; // edge indices
    let mut in_adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, e) in edges.iter().enumerate() {
        out_adj[e.from as usize].push(i as u32);
        in_adj[e.to as usize].push(i as u32);
    }

    let mut interior = vec![false; n];
    for v in 0..n {
        let outs = &out_adj[v];
        let ins = &in_adj[v];
        interior[v] = match (ins.len(), outs.len()) {
            (1, 1) => {
                let a = edges[ins[0] as usize].from;
                let b = edges[outs[0] as usize].to;
                a != b && a != v as u32 && b != v as u32
            }
            (2, 2) => {
                let mut o = [edges[outs[0] as usize].to, edges[outs[1] as usize].to];
                let mut i = [edges[ins[0] as usize].from, edges[ins[1] as usize].from];
                o.sort_unstable();
                i.sort_unstable();
                o == i && o[0] != o[1] && o[0] != v as u32 && o[1] != v as u32
            }
            _ => false,
        };
    }

    let mut consumed = vec![false; edges.len()];
    let mut merged: Vec<RawEdge> = Vec::new();

    // Walk every maximal chain from its anchor-side first edge.
    for start in 0..edges.len() {
        if consumed[start] || interior[edges[start].from as usize] {
            continue;
        }
        consumed[start] = true;
        let first = edges[start].clone();
        if !interior[first.to as usize] {
            merged.push(first);
            continue;
        }
        // Accumulate the run.
        let anchor = first.from;
        let mut run_edges: Vec<u32> = vec![start as u32];
        let mut cur = start;
        let mut hops = 0usize;
        loop {
            hops += 1;
            assert!(hops <= edges.len(), "chain walk exceeded edge count");
            let v = edges[cur].to;
            if !interior[v as usize] {
                break;
            }
            let came_from = edges[cur].from;
            // The unique continuation: the out-edge of `v` that does not
            // head straight back where we came from.
            let next = out_adj[v as usize]
                .iter()
                .copied()
                .find(|&e| edges[e as usize].to != came_from)
                .expect("interior vertex has a continuing out-edge");
            debug_assert!(!consumed[next as usize], "chain edges are walked once");
            consumed[next as usize] = true;
            run_edges.push(next);
            cur = next as usize;
        }
        let end = edges[cur].to;
        if end == anchor {
            // A loop back onto its own anchor (a city block ring hanging
            // off one intersection): a single merged edge would be a
            // self-loop, which the graph model forbids. Split the run at
            // its smallest-indexed interior vertex instead — both
            // traversal directions pick the same split, so the two
            // halves contract symmetrically.
            let split = (0..run_edges.len() - 1)
                .min_by_key(|&k| edges[run_edges[k] as usize].to)
                .expect("anchor loops span at least two edges");
            merged.push(fold_run(&edges, &run_edges[..=split]));
            merged.push(fold_run(&edges, &run_edges[split + 1..]));
            continue;
        }
        merged.push(fold_run(&edges, &run_edges));
    }

    // Edges whose tail is interior and that no walk consumed belong to
    // anchor-free cycles (e.g. an isolated ring road); keep them as-is.
    for (i, e) in edges.iter().enumerate() {
        if !consumed[i] {
            merged.push(e.clone());
        }
    }

    // Drop the folded vertices and renumber.
    let mut used = vec![false; n];
    for e in &merged {
        used[e.from as usize] = true;
        used[e.to as usize] = true;
    }
    let mut remap = vec![u32::MAX; n];
    let mut new_coords = Vec::new();
    for (v, &u) in used.iter().enumerate() {
        if u {
            remap[v] = new_coords.len() as u32;
            new_coords.push(coords[v]);
        }
    }
    for e in &mut merged {
        e.from = remap[e.from as usize];
        e.to = remap[e.to as usize];
    }
    (new_coords, merged)
}

#[cfg(test)]
mod tests {
    use super::super::{parse_osm_str, OsmNode, OsmWay};
    use super::*;

    /// Nodes on a ~100 m grid near Aalborg.
    fn node(id: i64, col: f64, row: f64) -> OsmNode {
        OsmNode {
            id,
            lat: 57.0 + row * 0.0009,
            lon: 9.9 + col * 0.00165,
        }
    }

    fn way(id: i64, refs: &[i64], tags: &[(&str, &str)]) -> OsmWay {
        OsmWay {
            id,
            refs: refs.to_vec(),
            tags: tags
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// A 2×3 block with one long residential chain hanging off it:
    ///
    /// ```text
    ///  1 - 2 - 3
    ///  |       |      7 - 8 - 9 (chain into the loop at 3)
    ///  4 - 5 - 6
    /// ```
    fn city() -> OsmData {
        OsmData {
            nodes: vec![
                node(1, 0.0, 1.0),
                node(2, 1.0, 1.0),
                node(3, 2.0, 1.0),
                node(4, 0.0, 0.0),
                node(5, 1.0, 0.0),
                node(6, 2.0, 0.0),
                node(7, 3.0, 1.0),
                node(8, 4.0, 1.0),
                node(9, 5.0, 1.0),
            ],
            ways: vec![
                way(10, &[1, 2, 3], &[("highway", "residential")]),
                way(11, &[4, 5, 6], &[("highway", "residential")]),
                way(12, &[1, 4], &[("highway", "residential")]),
                way(13, &[3, 6], &[("highway", "residential")]),
                way(14, &[3, 7, 8, 9], &[("highway", "residential")]),
            ],
        }
    }

    #[test]
    fn imports_filters_and_counts() {
        let mut data = city();
        // Non-highway, unroutable and missing-node ways are skipped.
        data.ways.push(way(20, &[1, 2], &[("building", "yes")]));
        data.ways.push(way(21, &[1, 2], &[("highway", "footway")]));
        data.ways
            .push(way(22, &[1, 999], &[("highway", "residential")]));
        data.ways
            .push(way(23, &[5, 5], &[("highway", "residential")]));
        let imported = import_osm(&data, &ImportConfig::default()).unwrap();
        let s = &imported.stats;
        assert_eq!(s.raw_ways, 9);
        assert_eq!(s.kept_ways, 5);
        assert_eq!(s.skipped_non_highway, 1);
        assert_eq!(s.skipped_unroutable_class, 1);
        assert_eq!(s.skipped_missing_nodes, 1);
        assert_eq!(s.skipped_degenerate, 1);
        assert_eq!(s.highway_histogram, vec![("residential".to_string(), 5)]);
        // Everything is two-way, so the SCC keeps all nine nodes.
        assert_eq!(s.scc_vertices, 9);
        // The block ring 1-2-3-6-5-4 is a loop anchored at the junction
        // 3: it splits at its smallest interior vertex (node 1) and both
        // halves contract; the appendix 3-7-8-9 folds to a single edge
        // pair. Only 3, 1 and the dead end 9 remain.
        assert_eq!(s.final_vertices, 3);
        assert_eq!(s.final_edges, 6);
        let g = &imported.graph;
        assert_eq!(g.vertex_count(), 3);
        // The contracted graph is still strongly connected.
        assert_eq!(g.largest_scc().len(), 3);
    }

    #[test]
    fn contraction_preserves_length_time_and_geometry() {
        let data = city();
        let loose = import_osm(
            &data,
            &ImportConfig {
                contract_chains: false,
                ..ImportConfig::default()
            },
        )
        .unwrap();
        let tight = import_osm(&data, &ImportConfig::default()).unwrap();
        // Total length and travel time are preserved exactly-ish (sums
        // reassociate, so compare to 1e-9 relative).
        let len_a = loose.graph.total_length_m();
        let len_b = tight.graph.total_length_m();
        assert!((len_a - len_b).abs() < 1e-6 * len_a, "{len_a} vs {len_b}");
        let tt = |g: &Graph| g.edges().map(|e| e.attrs.travel_time_s()).sum::<f64>();
        let (ta, tb) = (tt(&loose.graph), tt(&tight.graph));
        assert!((ta - tb).abs() < 1e-6 * ta, "{ta} vs {tb}");
    }

    #[test]
    fn oneway_ways_get_single_directed_edges() {
        let mut data = city();
        // Make the top street a oneway couplet: 1→2→3 forward,
        // 3→2'→1 via the bottom … simplest: tag way 10 oneway=yes and
        // check the reverse arcs disappear (SCC then routes around).
        data.ways[0]
            .tags
            .push(("oneway".to_string(), "yes".to_string()));
        let imported = import_osm(
            &data,
            &ImportConfig {
                contract_chains: false,
                ..ImportConfig::default()
            },
        )
        .unwrap();
        assert_eq!(imported.stats.oneway_ways, 1);
        let g = &imported.graph;
        // Find the imported vertices for OSM nodes 1 and 2 by position.
        let p1 = imported.projection.project(57.0 + 0.0009, 9.9);
        let p2 = imported.projection.project(57.0 + 0.0009, 9.9 + 0.00165);
        let find = |p: Point| {
            g.vertices()
                .min_by(|&a, &b| {
                    g.coord(a)
                        .distance_sq(&p)
                        .total_cmp(&g.coord(b).distance_sq(&p))
                })
                .unwrap()
        };
        let (v1, v2) = (find(p1), find(p2));
        assert!(g.find_edge(v1, v2).is_some(), "forward arc must exist");
        assert!(g.find_edge(v2, v1).is_none(), "reverse arc must not");
    }

    #[test]
    fn reversed_oneway_flips_the_arcs() {
        let mut fwd = city();
        fwd.ways[4].tags.push(("oneway".into(), "yes".into()));
        let mut rev = city();
        rev.ways[4].tags.push(("oneway".into(), "-1".into()));
        rev.ways[4].refs.reverse();
        // Same geometry, same arcs: `-1` on reversed refs equals `yes`
        // on forward refs.
        let a = import_osm(&fwd, &ImportConfig::default());
        let b = import_osm(&rev, &ImportConfig::default());
        // The dead-end chain is now a one-way appendix, so the SCC prune
        // removes it in both — the two graphs must agree exactly.
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn maxspeed_overrides_class_default() {
        let mut data = city();
        data.ways[0].tags.push(("maxspeed".into(), "30".into()));
        let imported = import_osm(
            &data,
            &ImportConfig {
                contract_chains: false,
                ..ImportConfig::default()
            },
        )
        .unwrap();
        let speeds: std::collections::BTreeSet<i64> = imported
            .graph
            .edges()
            .map(|e| e.attrs.speed_kmh.round() as i64)
            .collect();
        assert!(speeds.contains(&30), "tagged 30 km/h missing: {speeds:?}");
        assert!(speeds.contains(&40), "class default missing: {speeds:?}");
    }

    #[test]
    fn disconnected_fragment_is_pruned() {
        let mut data = city();
        data.nodes.push(node(100, 20.0, 20.0));
        data.nodes.push(node(101, 21.0, 20.0));
        data.ways
            .push(way(30, &[100, 101], &[("highway", "residential")]));
        let imported = import_osm(&data, &ImportConfig::default()).unwrap();
        assert!(imported.stats.segment_vertices > imported.stats.scc_vertices);
        assert_eq!(
            imported.graph.largest_scc().len(),
            imported.graph.vertex_count(),
            "result must be strongly connected"
        );
    }

    #[test]
    fn pure_ring_survives_contraction_uncontracted() {
        // A standalone roundabout: every vertex is interior (one-way
        // in=out=1), so there is no anchor to start a chain walk from.
        let data = OsmData {
            nodes: vec![
                node(1, 0.0, 0.0),
                node(2, 1.0, 0.0),
                node(3, 1.0, 1.0),
                node(4, 0.0, 1.0),
            ],
            ways: vec![way(
                1,
                &[1, 2, 3, 4, 1],
                &[("highway", "tertiary"), ("junction", "roundabout")],
            )],
        };
        let imported = import_osm(&data, &ImportConfig::default()).unwrap();
        assert_eq!(imported.graph.vertex_count(), 4);
        assert_eq!(imported.graph.edge_count(), 4);
        assert_eq!(imported.stats.oneway_ways, 1);
    }

    #[test]
    fn empty_or_unroutable_extracts_error_cleanly() {
        assert!(import_osm(&OsmData::default(), &ImportConfig::default()).is_err());
        let only_footways = parse_osm_str(
            "<osm><node id='1' lat='1' lon='1'/><node id='2' lat='1.001' lon='1'/>\
             <way id='1'><nd ref='1'/><nd ref='2'/><tag k='highway' v='footway'/></way></osm>",
        )
        .unwrap();
        assert!(import_osm(&only_footways, &ImportConfig::default()).is_err());
    }

    #[test]
    fn service_roads_are_gated() {
        let mut data = city();
        data.nodes.push(node(50, 2.5, 0.5));
        data.ways
            .push(way(40, &[6, 50, 3], &[("highway", "service")]));
        let without = import_osm(&data, &ImportConfig::default()).unwrap();
        let with = import_osm(
            &data,
            &ImportConfig {
                include_service_roads: true,
                ..ImportConfig::default()
            },
        )
        .unwrap();
        assert!(with.stats.kept_ways > without.stats.kept_ways);
        assert!(with.stats.total_km > without.stats.total_km);
    }
}
