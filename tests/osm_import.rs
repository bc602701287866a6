//! OSM ingestion: fixture exactness + malformed-input hardening.
//!
//! Two jobs. First, the checked-in fixture extract
//! (`fixtures/osm/pathrank_city.osm.xml`, regenerable with
//! `import_osm --gen-fixture`) must import into a graph on which every
//! existing exactness harness holds: ALT, CH and the bucket
//! many-to-many all **bit-identical** to plain Dijkstra, one-way edges
//! respected, and a `Workbench` built from the file serving exact
//! shortest/fastest paths through the Plain, ALT and CH backends.
//! Because the fixture bytes are fixed, exact float equality here is
//! deterministic — if it passes once it passes forever.
//!
//! Second, fuzz-style hardening: truncated, entity-laden,
//! attribute-reordered and structurally broken XML, and ways
//! referencing missing nodes, must be rejected or skipped with clear
//! errors — never a panic.

use std::sync::Arc;

use pathrank::spatial::algo::ch::{ChConfig, ContractionHierarchy};
use pathrank::spatial::algo::engine::{QueryEngine, SearchBackend};
use pathrank::spatial::algo::landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable};
use pathrank::spatial::graph::{CostModel, Graph, VertexId};
use pathrank::spatial::io::{load_graph_auto, read_graph, write_graph};
use pathrank::spatial::osm::synth::{synthetic_city, write_osm_xml, SynthCityConfig};
use pathrank::spatial::osm::{
    import_osm, parse_osm_str, ImportConfig, ImportedGraph, OsmData, OsmNode, OsmWay,
};
use pathrank_testkit::prelude::*;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/fixtures/osm/pathrank_city.osm.xml"
);

fn fixture_imported() -> ImportedGraph {
    let xml = std::fs::read_to_string(FIXTURE).expect("fixture is checked in");
    let data = parse_osm_str(&xml).expect("fixture parses");
    import_osm(&data, &ImportConfig::default()).expect("fixture imports")
}

/// Every ordered vertex pair of the fixture graph (it is small enough
/// to sweep exhaustively).
fn all_pairs(g: &Graph) -> Vec<(VertexId, VertexId)> {
    let n = g.vertex_count() as u32;
    (0..n)
        .flat_map(|s| {
            (0..n)
                .filter(move |&t| s != t)
                .map(move |t| (VertexId(s), VertexId(t)))
        })
        .collect()
}

#[test]
fn osm_fixture_imports_with_expected_pipeline() {
    let ig = fixture_imported();
    let s = &ig.stats;
    // The fixture deliberately contains every hazard the importer
    // handles: unroutable ways, a clipped way, a disconnected fragment,
    // one-way streets and contractible chains.
    assert!(s.skipped_non_highway >= 1, "{s:?}");
    assert!(s.skipped_unroutable_class >= 2, "{s:?}");
    assert_eq!(s.skipped_missing_nodes, 1, "{s:?}");
    assert!(s.oneway_ways >= 5, "{s:?}");
    assert!(s.scc_vertices < s.segment_vertices, "SCC must prune");
    assert!(
        s.final_vertices < s.scc_vertices / 2,
        "chain contraction must fold the curve vertices: {s:?}"
    );
    assert!(s.total_km > 10.0, "{s:?}");
    assert!(s.highway_histogram.len() >= 5, "{:?}", s.highway_histogram);
    // Strongly connected.
    let g = &ig.graph;
    assert_eq!(g.largest_scc().len(), g.vertex_count());
    // Contracted lengths dominate the straight line between endpoints
    // (haversine sums can only stretch a chord), so Euclidean
    // heuristics stay admissible on imported networks.
    for (i, e) in g.edges().enumerate() {
        let span = g.euclidean(e.from, e.to);
        assert!(
            e.attrs.length_m >= span * 0.999,
            "edge {i}: length {} under span {span}",
            e.attrs.length_m
        );
    }
    // The persisted form round-trips bit-identically.
    let mut text = Vec::new();
    write_graph(&ig.graph, &mut text).unwrap();
    let back = read_graph(text.as_slice()).unwrap();
    assert_eq!(back, ig.graph);
}

/// The fixture's imported graph, pinned byte for byte: an FNV-1a of its
/// `pathrank-graph v1` text. Any change to filtering, projection, the
/// SCC prune or chain contraction (lengths, speeds, categories, vertex
/// numbering) moves it.
#[test]
fn osm_fixture_graph_is_golden() {
    let mut text = Vec::new();
    write_graph(&fixture_imported().graph, &mut text).unwrap();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &text {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    assert_eq!(
        h,
        0x3114_7165_efa6_4b31,
        "fixture graph moved ({} bytes)",
        text.len()
    );
}

#[test]
fn osm_fixture_respects_oneway_edges() {
    let ig = fixture_imported();
    let g = &ig.graph;
    // One-way streets produce asymmetric adjacency: at least one
    // directed edge whose reverse does not exist (the motorway bypass,
    // the couplet, the roundabout).
    let asymmetric = g
        .edges()
        .filter(|e| g.find_edge(e.to, e.from).is_none())
        .count();
    assert!(asymmetric > 0, "fixture must keep one-way arcs one-way");
    // … and routing around them still works both directions (SCC).
    let mut engine = QueryEngine::new(g);
    for e in g
        .edges()
        .filter(|e| g.find_edge(e.to, e.from).is_none())
        .take(5)
    {
        let back = engine.shortest_path_cost(e.to, e.from, CostModel::Length);
        let fwd = engine.shortest_path_cost(e.from, e.to, CostModel::Length);
        assert!(
            back.is_some() && fwd.is_some(),
            "one-way endpoints routable"
        );
        assert!(
            back.unwrap() > fwd.unwrap(),
            "the detour around a one-way arc must cost more than the arc"
        );
    }
}

#[test]
fn osm_fixture_alt_and_ch_are_bit_identical_to_dijkstra() {
    let ig = fixture_imported();
    let g = &ig.graph;
    let pairs = all_pairs(g);
    for metric in [LandmarkMetric::Length, LandmarkMetric::TravelTime] {
        let cost = match metric {
            LandmarkMetric::Length => CostModel::Length,
            LandmarkMetric::TravelTime => CostModel::TravelTime,
        };
        let table = Arc::new(LandmarkTable::build(g, metric, &LandmarkConfig::default()));
        let ch = Arc::new(ContractionHierarchy::build(g, metric, &ChConfig::default()));
        let mut plain = QueryEngine::new(g);
        let mut alt = QueryEngine::new(g).with_landmarks(Arc::clone(&table));
        let mut chx = QueryEngine::new(g).with_ch(Arc::clone(&ch));
        assert!(alt.uses_alt(cost));
        assert!(chx.uses_ch(cost));
        for &(s, t) in &pairs {
            let a = plain.shortest_path_cost(s, t, cost);
            let b = alt.shortest_path(s, t, cost).map(|p| p.cost(g, cost));
            let c = chx.shortest_path_cost(s, t, cost);
            assert_eq!(a, b, "ALT diverged on {s:?}->{t:?} ({metric:?})");
            assert_eq!(a, c, "CH diverged on {s:?}->{t:?} ({metric:?})");
        }
    }
}

#[test]
fn osm_fixture_m2m_tables_match_pairwise_dijkstra() {
    let ig = fixture_imported();
    let g = &ig.graph;
    let ch = Arc::new(ContractionHierarchy::build(
        g,
        LandmarkMetric::Length,
        &ChConfig::default(),
    ));
    let mut chx = QueryEngine::new(g).with_ch(Arc::clone(&ch));
    let mut plain = QueryEngine::new(g);
    let sources: Vec<VertexId> = (0..g.vertex_count() as u32)
        .step_by(3)
        .map(VertexId)
        .collect();
    let targets: Vec<VertexId> = (1..g.vertex_count() as u32)
        .step_by(4)
        .map(VertexId)
        .collect();
    let table = chx
        .many_to_many(&sources, &targets, CostModel::Length)
        .expect("length CH attached");
    for (i, &s) in sources.iter().enumerate() {
        for (j, &t) in targets.iter().enumerate() {
            let want = if s == t {
                0.0
            } else {
                plain
                    .shortest_path_cost(s, t, CostModel::Length)
                    .unwrap_or(f64::INFINITY)
            };
            // The bucket table accumulates shortcut weights in
            // contraction-tree order while Dijkstra folds along the
            // path, so on real-valued haversine weights the two sums
            // agree to the ulp, not the bit (the integer-weight m2m
            // harness locks the bit-level contract). A relative 1e-12
            // band is ~micrometres on a city network.
            let got = table.dist(i, j);
            assert!(
                (want - got).abs() <= 1e-12 * want.abs().max(1.0),
                "m2m diverged on {s:?}->{t:?}: {want} vs {got}"
            );
        }
    }
}

#[test]
fn osm_workbench_from_fixture_serves_exact_paths_on_all_backends() {
    use pathrank::core::pipeline::{ExperimentConfig, Workbench};
    let wb = Workbench::from_graph_file(FIXTURE, ExperimentConfig::small_test())
        .expect("fixture loads into a Workbench");
    assert!(wb.graph.vertex_count() > 20);
    // The fleet simulation and trajectory pipeline run unchanged on the
    // imported network.
    assert!(
        wb.train_paths.len() + wb.test_paths.len() > 0,
        "imported network must support simulated trajectories"
    );
    let mut plain = QueryEngine::new(&wb.graph);
    let mut fast = wb.query_engine();
    assert_eq!(fast.backend_for(CostModel::Length), SearchBackend::Ch);
    assert_eq!(
        fast.constrained_backend_for(CostModel::Length),
        SearchBackend::Alt
    );
    // Both indexes are length-metric: TravelTime falls through the
    // metric gate to an exact plain search.
    assert_eq!(
        fast.backend_for(CostModel::TravelTime),
        SearchBackend::Plain
    );
    for (s, t) in all_pairs(&wb.graph) {
        for cost in [CostModel::Length, CostModel::TravelTime] {
            let a = plain.shortest_path_cost(s, t, cost);
            let b = fast.shortest_path_cost(s, t, cost);
            assert_eq!(a, b, "workbench engine diverged on {s:?}->{t:?}");
        }
    }
}

#[test]
fn osm_load_graph_auto_serves_all_three_spellings_identically() {
    let dir = std::env::temp_dir().join(format!("pathrank-osm-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let from_xml = load_graph_auto(std::path::Path::new(FIXTURE)).unwrap();
    assert_eq!(from_xml, fixture_imported().graph);
    let persisted = dir.join("fixture.graph");
    write_graph(&from_xml, &mut std::fs::File::create(&persisted).unwrap()).unwrap();
    assert_eq!(load_graph_auto(&persisted).unwrap(), from_xml);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Malformed-input hardening (fuzz-style).
// ---------------------------------------------------------------------

/// Alphabet for adversarial tag values: XML metacharacters, quotes,
/// whitespace and multi-byte unicode.
const ADVERSARIAL: &[char] = &[
    'a', 'b', 'Z', '0', '9', ' ', '&', '<', '>', '"', '\'', ';', '#', '=', '/', 'ø', 'æ', '→',
];
/// Alphabet for tag keys (OSM keys are word-ish).
const KEY_ALPHABET: &[char] = &['a', 'b', 'c', 'x', 'y', 'z', 'A', 'Z', '0', '9', ':', '_'];

fn small_city_xml() -> String {
    write_osm_xml(&synthetic_city(
        &SynthCityConfig {
            cols: 3,
            rows: 3,
            curve_points: 1,
            ..SynthCityConfig::default()
        },
        7,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating a valid document at any byte either errors cleanly or
    /// (only past the closing tag) still parses — never a panic, and
    /// never a silent half-graph.
    #[test]
    fn osm_truncated_xml_is_rejected_never_panics(frac in 0.0f64..1.0) {
        let xml = small_city_xml();
        let body_end = xml.rfind("</osm>").unwrap();
        let cut = ((xml.len() as f64 * frac) as usize).min(xml.len());
        if !xml.is_char_boundary(cut) {
            return Ok(());
        }
        let result = parse_osm_str(&xml[..cut]);
        if cut < body_end + "</osm>".len() {
            prop_assert!(result.is_err(), "cut at {cut} must be rejected");
        } else {
            prop_assert!(result.is_ok());
        }
    }

    /// Attribute order never matters, and entity-laden values decode —
    /// the document is reassembled with shuffled attributes and
    /// adversarial tag values, then must parse to the same data.
    #[test]
    fn osm_attribute_reordering_and_entities_are_handled(
        order in 0usize..6,
        name_idx in pathrank_testkit::collection::vec(0usize..ADVERSARIAL.len(), 0..24),
        id in 1i64..1_000_000,
        lat in -89.0f64..89.0,
        lon in -179.0f64..179.0,
    ) {
        // Entity-heavy alphabet: every XML metacharacter plus unicode.
        let name: String = name_idx.iter().map(|&i| ADVERSARIAL[i]).collect();
        let attrs = [
            format!("id=\"{id}\""),
            format!("lat=\"{lat}\""),
            format!("lon=\"{lon}\""),
        ];
        // One of the six permutations of the three attributes.
        let perm = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]][order];
        let escaped: String = name
            .chars()
            .map(|c| match c {
                '&' => "&amp;".to_string(),
                '<' => "&lt;".to_string(),
                '>' => "&gt;".to_string(),
                '"' => "&quot;".to_string(),
                '\'' => "&apos;".to_string(),
                c => c.to_string(),
            })
            .collect();
        let doc = format!(
            "<osm><node {} {} {}/><way id=\"1\"><nd ref=\"{id}\"/><nd ref=\"{id}\"/>\
             <tag v=\"{escaped}\" k=\"name\"/></way></osm>",
            attrs[perm[0]], attrs[perm[1]], attrs[perm[2]],
        );
        let data = parse_osm_str(&doc).unwrap();
        prop_assert_eq!(data.nodes[0].id, id);
        prop_assert_eq!(data.nodes[0].lat, lat);
        prop_assert_eq!(data.nodes[0].lon, lon);
        prop_assert_eq!(data.ways[0].tag("name"), Some(name.as_str()));
    }

    /// Arbitrary well-formed data written by the synthetic writer
    /// round-trips through the parser exactly.
    #[test]
    fn osm_writer_parser_roundtrip_is_identity(
        n_nodes in 1usize..12,
        refs in pathrank_testkit::collection::vec(0usize..16, 0..12),
        key_idx in pathrank_testkit::collection::vec(0usize..KEY_ALPHABET.len(), 1..12),
        value_idx in pathrank_testkit::collection::vec(0usize..ADVERSARIAL.len(), 0..20),
    ) {
        let key: String = key_idx.iter().map(|&i| KEY_ALPHABET[i]).collect();
        let value: String = value_idx.iter().map(|&i| ADVERSARIAL[i]).collect();
        let data = OsmData {
            nodes: (0..n_nodes)
                .map(|i| OsmNode {
                    id: i as i64 + 1,
                    lat: 50.0 + i as f64 * 0.001,
                    lon: 9.0 - i as f64 * 0.002,
                })
                .collect(),
            ways: vec![OsmWay {
                id: 77,
                refs: refs.iter().map(|&r| (r % n_nodes) as i64 + 1).collect(),
                tags: vec![(key, value)],
            }],
        };
        let back = parse_osm_str(&write_osm_xml(&data)).unwrap();
        prop_assert_eq!(back.ways, data.ways);
        prop_assert_eq!(back.nodes.len(), data.nodes.len());
    }

    /// Ways referencing nodes the extract does not contain are skipped
    /// (and counted) — the importer never panics, and its counters
    /// always reconcile with the raw way count.
    #[test]
    fn osm_import_skips_missing_refs_and_counters_reconcile(
        missing in pathrank_testkit::collection::vec(100i64..200, 0..4),
        classes in pathrank_testkit::collection::vec(0usize..6, 1..6),
    ) {
        let class_names = ["residential", "primary", "footway", "service", "", "motorway"];
        let mut data = OsmData::default();
        for i in 0..6i64 {
            data.nodes.push(OsmNode { id: i + 1, lat: 50.0 + i as f64 * 0.001, lon: 9.0 });
        }
        // A guaranteed-routable two-way ring so the import cannot end up
        // empty.
        data.ways.push(OsmWay {
            id: 1,
            refs: vec![1, 2, 3, 4, 5, 6, 1],
            tags: vec![("highway".into(), "residential".into())],
        });
        for (i, &c) in classes.iter().enumerate() {
            let mut refs = vec![1 + i as i64 % 6, 1 + (i as i64 + 1) % 6];
            if let Some(&m) = missing.get(i % missing.len().max(1)) {
                if i % 2 == 0 {
                    refs.push(m); // dangling ref → way must be skipped
                }
            }
            let mut tags = Vec::new();
            if !class_names[c].is_empty() {
                tags.push(("highway".to_string(), class_names[c].to_string()));
            }
            data.ways.push(OsmWay { id: 10 + i as i64, refs, tags });
        }
        let imported = import_osm(&data, &ImportConfig::default()).unwrap();
        let s = &imported.stats;
        prop_assert_eq!(
            s.kept_ways
                + s.skipped_non_highway
                + s.skipped_unroutable_class
                + s.skipped_missing_nodes
                + s.skipped_degenerate,
            s.raw_ways,
            "{:?}", s
        );
        prop_assert!(s.kept_ways >= 1);
        prop_assert_eq!(
            imported.graph.largest_scc().len(),
            imported.graph.vertex_count()
        );
    }
}
