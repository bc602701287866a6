//! Deterministic synthetic OSM: an XML writer and a city generator.
//!
//! [`write_osm_xml`] serialises any [`OsmData`] back into OSM XML
//! (entities escaped, stable formatting), which lets property tests
//! round-trip arbitrary — including adversarial — documents through the
//! parser, and lets the checked-in fixture extract be regenerated
//! byte-identically (`import_osm --gen-fixture`).
//!
//! [`synthetic_city`] builds a small but realistically messy city the
//! importer has to work for: a jittered residential grid with curvy
//! degree-2 chain segments, a primary ring road, a one-way motorway
//! bypass with link ramps, a one-way couplet (one of them tagged
//! `oneway=-1` with reversed refs), a roundabout, mixed `maxspeed`
//! formats, unroutable ways (footpaths, buildings), a disconnected
//! fragment for the SCC prune to remove, and one way referencing a
//! missing node for the importer to skip.

use std::fmt::Write as _;

use pathrank_rng::rngs::StdRng;
use pathrank_rng::{Rng, SeedableRng};

use super::{OsmData, OsmNode, OsmWay};
use crate::geo::LocalProjection;
use crate::geometry::Point;

/// Escapes an XML attribute value (the five predefined entities).
fn escape(value: &str, out: &mut String) {
    for ch in value.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(ch),
        }
    }
}

/// Serialises `data` as an OSM XML document. Deterministic: the same
/// input always produces the same bytes (coordinates at fixed 7-decimal
/// precision, the resolution of OSM itself).
pub fn write_osm_xml(data: &OsmData) -> String {
    let mut out = String::new();
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    out.push_str("<osm version=\"0.6\" generator=\"pathrank-synth\">\n");
    for n in &data.nodes {
        let _ = writeln!(
            out,
            "  <node id=\"{}\" lat=\"{:.7}\" lon=\"{:.7}\"/>",
            n.id, n.lat, n.lon
        );
    }
    for w in &data.ways {
        let _ = writeln!(out, "  <way id=\"{}\">", w.id);
        for r in &w.refs {
            let _ = writeln!(out, "    <nd ref=\"{r}\"/>");
        }
        for (k, v) in &w.tags {
            out.push_str("    <tag k=\"");
            escape(k, &mut out);
            out.push_str("\" v=\"");
            escape(v, &mut out);
            out.push_str("\"/>\n");
        }
        out.push_str("  </way>\n");
    }
    out.push_str("</osm>\n");
    out
}

/// Knobs for [`synthetic_city`].
#[derive(Debug, Clone)]
pub struct SynthCityConfig {
    /// Street-grid intersections along the x axis.
    pub cols: usize,
    /// Street-grid intersections along the y axis.
    pub rows: usize,
    /// Block edge length in metres.
    pub block_m: f64,
    /// Curve points inserted between adjacent intersections (pure
    /// degree-2 chain vertices the importer should contract away).
    pub curve_points: usize,
    /// Centre of the city (latitude, longitude) — defaults to Aalborg.
    pub centre: (f64, f64),
}

impl Default for SynthCityConfig {
    fn default() -> Self {
        SynthCityConfig {
            cols: 8,
            rows: 6,
            block_m: 160.0,
            curve_points: 2,
            centre: (57.0488, 9.9217), // Aalborg, Denmark
        }
    }
}

/// Accumulates nodes/ways in a local planar frame and converts to
/// lat/lon on the way out.
struct CityBuilder {
    data: OsmData,
    rng: StdRng,
    proj: LocalProjection,
    next_node: i64,
    next_way: i64,
    /// Planar offset so the grid is centred on the projection origin.
    centre_xy: (f64, f64),
}

impl CityBuilder {
    fn node(&mut self, x: f64, y: f64, jitter: f64) -> i64 {
        let id = self.next_node;
        self.next_node += 1;
        let jx = self.rng.gen_range(-jitter..=jitter);
        let jy = self.rng.gen_range(-jitter..=jitter);
        let p = Point::new(x - self.centre_xy.0 + jx, y - self.centre_xy.1 + jy);
        let (lat, lon) = self.proj.unproject(p);
        self.data.nodes.push(OsmNode { id, lat, lon });
        id
    }

    fn way(&mut self, refs: Vec<i64>, tags: &[(&str, &str)]) {
        let id = self.next_way;
        self.next_way += 1;
        self.data.ways.push(OsmWay {
            id,
            refs,
            tags: tags
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
    }

    /// Interior curve nodes between `a` and `b`, bowing perpendicular to
    /// the segment (parabolic, zero at the endpoints).
    fn curve(&mut self, a: (f64, f64), b: (f64, f64), points: usize) -> Vec<i64> {
        let mut refs = Vec::with_capacity(points);
        let (dx, dy) = (b.0 - a.0, b.1 - a.1);
        let len = (dx * dx + dy * dy).sqrt().max(1e-9);
        let (nx, ny) = (-dy / len, dx / len);
        let bow = self.rng.gen_range(-0.12..=0.12) * len;
        for k in 1..=points {
            let t = k as f64 / (points + 1) as f64;
            let off = bow * 4.0 * t * (1.0 - t);
            refs.push(self.node(a.0 + dx * t + nx * off, a.1 + dy * t + ny * off, 0.0));
        }
        refs
    }
}

/// Generates a deterministic synthetic city extract. See the module
/// docs for what it contains; the same `(cfg, seed)` always produces an
/// identical [`OsmData`] (and therefore, through [`write_osm_xml`],
/// identical bytes).
// Index loops over `grid` interleave reads with `CityBuilder` pushes;
// iterator forms would fight the borrow checker for no clarity gain.
#[allow(clippy::needless_range_loop)]
pub fn synthetic_city(cfg: &SynthCityConfig, seed: u64) -> OsmData {
    let w = (cfg.cols - 1) as f64 * cfg.block_m;
    let h = (cfg.rows - 1) as f64 * cfg.block_m;
    let mut b = CityBuilder {
        data: OsmData::default(),
        rng: StdRng::seed_from_u64(seed),
        proj: LocalProjection::new(cfg.centre.0, cfg.centre.1),
        next_node: 1,
        next_way: 1000,
        centre_xy: (w / 2.0, h / 2.0),
    };
    let xy = |r: usize, c: usize| (c as f64 * cfg.block_m, r as f64 * cfg.block_m);

    // Grid intersections.
    let mut grid = vec![vec![0i64; cfg.cols]; cfg.rows];
    for r in 0..cfg.rows {
        for c in 0..cfg.cols {
            let (x, y) = xy(r, c);
            grid[r][c] = b.node(x, y, cfg.block_m * 0.08);
        }
    }

    let residential_speeds = ["30", "40", "50 km/h", "30 mph", ""];

    // Horizontal streets: one way per row, interior curve nodes between
    // intersections. Rows 1 and 2 form a one-way couplet.
    for r in 0..cfg.rows {
        let mut refs = Vec::new();
        for c in 0..cfg.cols {
            refs.push(grid[r][c]);
            if c + 1 < cfg.cols {
                refs.extend(b.curve(xy(r, c), xy(r, c + 1), cfg.curve_points));
            }
        }
        let speed = residential_speeds[r % residential_speeds.len()];
        let mut tags: Vec<(&str, &str)> = vec![("highway", "residential"), ("name", "Row Street")];
        if !speed.is_empty() {
            tags.push(("maxspeed", speed));
        }
        if cfg.rows >= 4 && r == 1 {
            tags.push(("oneway", "yes"));
        }
        if cfg.rows >= 4 && r == 2 {
            // The couplet's partner runs the other way, tagged with the
            // reversed-geometry convention.
            refs.reverse();
            tags.push(("oneway", "-1"));
        }
        b.way(refs, &tags);
    }

    // Vertical streets (tertiary every third column, residential
    // otherwise).
    for c in 0..cfg.cols {
        let mut refs = Vec::new();
        for r in 0..cfg.rows {
            refs.push(grid[r][c]);
            if r + 1 < cfg.rows {
                refs.extend(b.curve(xy(r, c), xy(r + 1, c), cfg.curve_points));
            }
        }
        let class = if c % 3 == 0 {
            "tertiary"
        } else {
            "residential"
        };
        b.way(refs, &[("highway", class), ("name", "Column Street")]);
    }

    // Primary ring road just outside the grid, anchored to the four
    // corner intersections through short secondary connectors.
    let margin = cfg.block_m * 0.9;
    let ring_pts = [
        (-margin, -margin),
        (w / 2.0, -margin * 1.2),
        (w + margin, -margin),
        (w + margin * 1.2, h / 2.0),
        (w + margin, h + margin),
        (w / 2.0, h + margin * 1.2),
        (-margin, h + margin),
        (-margin * 1.2, h / 2.0),
    ];
    let ring_ids: Vec<i64> = ring_pts
        .iter()
        .map(|&(x, y)| b.node(x, y, cfg.block_m * 0.05))
        .collect();
    let mut ring_refs = ring_ids.clone();
    ring_refs.push(ring_ids[0]);
    b.way(
        ring_refs,
        &[
            ("highway", "primary"),
            ("maxspeed", "70"),
            ("name", "Ring Road"),
        ],
    );
    let corners = [
        (0usize, 0usize, 0usize),
        (0, cfg.cols - 1, 2),
        (cfg.rows - 1, cfg.cols - 1, 4),
        (cfg.rows - 1, 0, 6),
    ];
    for &(r, c, ring_idx) in &corners {
        b.way(
            vec![grid[r][c], ring_ids[ring_idx]],
            &[("highway", "secondary")],
        );
    }

    // One-way motorway bypass south of the ring with link ramps at both
    // ends (oneway-by-default classes, no explicit tag).
    let my = -margin - cfg.block_m * 1.4;
    let bypass_w: Vec<i64> = (0..4)
        .map(|k| b.node(w * k as f64 / 3.0, my, 0.0))
        .collect();
    let bypass_e: Vec<i64> = (0..4)
        .map(|k| b.node(w * k as f64 / 3.0, my - 40.0, 0.0))
        .collect();
    b.way(
        bypass_w.clone(),
        &[("highway", "motorway"), ("maxspeed", "110"), ("ref", "E45")],
    );
    let mut east: Vec<i64> = bypass_e.clone();
    east.reverse();
    b.way(
        east,
        &[("highway", "motorway"), ("maxspeed", "110"), ("ref", "E45")],
    );
    // Ramps connect both carriageways to the ring's south vertex.
    let south_ring = ring_ids[1];
    b.way(
        vec![bypass_w[3], south_ring],
        &[("highway", "motorway_link")],
    );
    b.way(
        vec![south_ring, bypass_w[0]],
        &[("highway", "motorway_link")],
    );
    b.way(
        vec![bypass_e[0], south_ring],
        &[("highway", "motorway_link")],
    );
    b.way(
        vec![south_ring, bypass_e[3]],
        &[("highway", "motorway_link")],
    );

    // A roundabout attached east of the grid via two unclassified stubs.
    let (rx, ry) = (w + margin * 2.2, h * 0.35);
    let rr = cfg.block_m * 0.22;
    let round_ids: Vec<i64> = (0..6)
        .map(|k| {
            let a = std::f64::consts::TAU * k as f64 / 6.0;
            b.node(rx + rr * a.cos(), ry + rr * a.sin(), 0.0)
        })
        .collect();
    let mut round_refs = round_ids.clone();
    round_refs.push(round_ids[0]);
    b.way(
        round_refs,
        &[("highway", "tertiary"), ("junction", "roundabout")],
    );
    b.way(
        vec![ring_ids[3], round_ids[3]],
        &[("highway", "unclassified")],
    );
    b.way(
        vec![round_ids[0], grid[cfg.rows / 2][cfg.cols - 1]],
        &[("highway", "unclassified"), ("oneway", "no")],
    );

    // Unroutable extras the importer must skip: a footpath across the
    // park, a building outline, and a service alley (gated by config).
    let park_a = b.node(w * 0.3, h * 0.45, 0.0);
    let park_b = b.node(w * 0.55, h * 0.55, 0.0);
    b.way(
        vec![park_a, park_b],
        &[("highway", "footway"), ("name", "Kildeparken path")],
    );
    b.way(
        vec![grid[0][0], grid[0][1], grid[1][1], grid[1][0], grid[0][0]],
        &[("building", "yes")],
    );
    b.way(
        vec![grid[1][1], park_a],
        &[
            ("highway", "service"),
            ("name", "Alley & Co's \"yard\" <rear>"),
        ],
    );

    // A disconnected village fragment for the SCC prune.
    let vx = -margin - cfg.block_m * 3.0;
    let village: Vec<i64> = (0..3)
        .map(|k| b.node(vx, h + k as f64 * 90.0, 8.0))
        .collect();
    b.way(village, &[("highway", "residential")]);

    // One way referencing a node the extract does not contain — real
    // clipped extracts have these at their borders; the importer must
    // skip it (counted), never fail.
    b.way(
        vec![grid[0][0], 999_999_999],
        &[("highway", "residential"), ("note", "clipped at boundary")],
    );

    b.data
}

#[cfg(test)]
mod tests {
    use super::super::{import_osm, parse_osm_str, ImportConfig};
    use super::*;

    #[test]
    fn writer_escapes_and_round_trips() {
        let data = OsmData {
            nodes: vec![OsmNode {
                id: 7,
                lat: 57.05,
                lon: 9.92,
            }],
            ways: vec![OsmWay {
                id: 8,
                refs: vec![7, 7],
                tags: vec![("name".into(), "A&B <\"quoted\"> 'lane'".into())],
            }],
        };
        let xml = write_osm_xml(&data);
        let back = parse_osm_str(&xml).unwrap();
        assert_eq!(back.ways[0].tag("name"), Some("A&B <\"quoted\"> 'lane'"));
        assert_eq!(back.nodes[0].id, 7);
    }

    #[test]
    fn synthetic_city_is_deterministic() {
        let cfg = SynthCityConfig::default();
        let a = write_osm_xml(&synthetic_city(&cfg, 2020));
        let b = write_osm_xml(&synthetic_city(&cfg, 2020));
        assert_eq!(a, b);
        let c = write_osm_xml(&synthetic_city(&cfg, 2021));
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn synthetic_city_exercises_the_whole_importer() {
        let data = synthetic_city(&SynthCityConfig::default(), 2020);
        let xml = write_osm_xml(&data);
        let parsed = parse_osm_str(&xml).unwrap();
        let imported = import_osm(&parsed, &ImportConfig::default()).unwrap();
        let s = &imported.stats;
        assert!(s.skipped_non_highway >= 1, "building outline");
        assert!(s.skipped_unroutable_class >= 2, "footway + service");
        assert!(s.skipped_missing_nodes >= 1, "clipped way");
        assert!(
            s.oneway_ways >= 5,
            "couplet + motorways + ramps + roundabout"
        );
        assert!(
            s.scc_vertices < s.segment_vertices,
            "village fragment must be pruned"
        );
        assert!(
            s.final_vertices < s.scc_vertices,
            "curve chains must contract"
        );
        assert_eq!(
            imported.graph.largest_scc().len(),
            imported.graph.vertex_count()
        );
        assert!(s.highway_histogram.len() >= 5, "{:?}", s.highway_histogram);
    }

    #[test]
    fn write_then_parse_preserves_topology_and_tags() {
        let data = synthetic_city(&SynthCityConfig::default(), 7);
        let back = parse_osm_str(&write_osm_xml(&data)).unwrap();
        assert_eq!(back.ways, data.ways, "refs and tags must survive exactly");
        assert_eq!(back.nodes.len(), data.nodes.len());
        for (a, b) in back.nodes.iter().zip(&data.nodes) {
            assert_eq!(a.id, b.id);
            // Coordinates survive to the writer's 7-decimal precision.
            assert!((a.lat - b.lat).abs() < 1e-7);
            assert!((a.lon - b.lon).abs() < 1e-7);
        }
    }
}
