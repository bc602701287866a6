//! Real road-network ingestion: raw OSM XML → routable, index-ready
//! [`Graph`](crate::graph::Graph)s.
//!
//! The paper's experiments run on a real OSM road network (Aalborg,
//! Denmark); this subsystem is what lets every index and pipeline in the
//! workspace run on such data instead of the synthetic
//! [`crate::generators`]. The pipeline is:
//!
//! 1. **Parse** ([`parse_osm_xml`]) — a dependency-free streaming XML
//!    pull-parser (the workspace has no outside packages, so it is
//!    hand-rolled) extracts nodes (id, lat, lon) and ways (node refs +
//!    tags) into an [`OsmData`].
//!    Malformed input — truncation, mismatched tags, broken entities,
//!    out-of-range coordinates — is rejected with
//!    [`SpatialError::Parse`](crate::error::SpatialError::Parse), never a panic.
//! 2. **Import** ([`import_osm`]) — filters ways by `highway` class
//!    ([`HIGHWAY_CLASSES`]), infers per-edge speeds from `maxspeed` with
//!    per-class defaults, expands `oneway`/reversed geometry into
//!    directed edges, projects lat/lon into local planar metres
//!    ([`crate::geo::LocalProjection`]) and computes
//!    [`crate::geo::haversine_m`] edge lengths, prunes to the largest
//!    strongly-connected component (every routing query has an answer),
//!    and contracts degree-2 chains into single edges — length and
//!    travel time preserved exactly. The result is an [`ImportedGraph`]
//!    whose [`Graph`](crate::graph::Graph) is ready for every existing
//!    index (ALT, CH, many-to-many, the snapping [`crate::rtree::RTree`]).
//! 3. **Persist** — the graph round-trips through the plain
//!    `pathrank-graph v1` format ([`crate::io::write_graph`] /
//!    [`crate::io::read_graph`]), and [`crate::io::load_graph_auto`]
//!    sniffs raw XML and graph files alike.
//!
//! [`synth::write_osm_xml`] and [`synth::synthetic_city`] close the
//! loop for testing: a deterministic synthetic-OSM writer and a city
//! generator with oneway couplets, motorway bypasses, roundabouts,
//! curvy degree-2 chains and disconnected fragments, so property tests
//! can generate adversarial inputs and the checked-in fixture extract
//! is reproducible.

mod import;
pub mod synth;
mod xml;

pub use import::{import_osm, ImportConfig, ImportStats, ImportedGraph};
pub use xml::{parse_osm_str, parse_osm_xml};

use crate::graph::RoadCategory;

/// One OSM node: a WGS84 coordinate with an id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OsmNode {
    /// OSM node id.
    pub id: i64,
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
}

/// One OSM way: an ordered node-ref polyline plus its tags.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OsmWay {
    /// OSM way id.
    pub id: i64,
    /// Ordered node references.
    pub refs: Vec<i64>,
    /// `(key, value)` tags in document order.
    pub tags: Vec<(String, String)>,
}

impl OsmWay {
    /// The value of tag `key`, if present (first occurrence wins).
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed OSM extract: the raw material [`import_osm`] consumes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OsmData {
    /// All nodes, in document order.
    pub nodes: Vec<OsmNode>,
    /// All ways, in document order.
    pub ways: Vec<OsmWay>,
}

/// Routing-relevant properties of one `highway=*` class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HighwayClass {
    /// The OSM tag value (`"residential"`, `"motorway"`, …).
    pub name: &'static str,
    /// The [`RoadCategory`] the class maps to in the graph model.
    pub category: RoadCategory,
    /// Free-flow speed assumed when no parseable `maxspeed` is tagged,
    /// in km/h.
    pub default_speed_kmh: f64,
    /// Whether the class is one-way unless explicitly tagged otherwise
    /// (OSM convention for motorways and their ramps).
    pub oneway_by_default: bool,
    /// Whether the class is a minor access road, excluded unless
    /// [`ImportConfig::include_service_roads`] is set.
    pub service: bool,
}

/// The car-routable `highway=*` classes the importer understands, with
/// their category mapping and default speeds. Ways tagged with any other
/// `highway` value (footways, cycleways, paths, …) are skipped and
/// counted in [`ImportStats::skipped_unroutable_class`].
pub const HIGHWAY_CLASSES: &[HighwayClass] = &[
    hw("motorway", RoadCategory::Highway, 110.0, true, false),
    hw("motorway_link", RoadCategory::Highway, 60.0, true, false),
    hw("trunk", RoadCategory::Highway, 90.0, false, false),
    hw("trunk_link", RoadCategory::Highway, 50.0, false, false),
    hw("primary", RoadCategory::Arterial, 70.0, false, false),
    hw("primary_link", RoadCategory::Arterial, 45.0, false, false),
    hw("secondary", RoadCategory::Arterial, 60.0, false, false),
    hw("secondary_link", RoadCategory::Arterial, 45.0, false, false),
    hw("tertiary", RoadCategory::Residential, 55.0, false, false),
    hw(
        "tertiary_link",
        RoadCategory::Residential,
        40.0,
        false,
        false,
    ),
    hw(
        "unclassified",
        RoadCategory::Residential,
        50.0,
        false,
        false,
    ),
    hw("residential", RoadCategory::Residential, 40.0, false, false),
    hw(
        "living_street",
        RoadCategory::Residential,
        15.0,
        false,
        false,
    ),
    hw("road", RoadCategory::Residential, 40.0, false, false),
    hw("service", RoadCategory::Rural, 25.0, false, true),
    hw("track", RoadCategory::Rural, 20.0, false, true),
];

const fn hw(
    name: &'static str,
    category: RoadCategory,
    default_speed_kmh: f64,
    oneway_by_default: bool,
    service: bool,
) -> HighwayClass {
    HighwayClass {
        name,
        category,
        default_speed_kmh,
        oneway_by_default,
        service,
    }
}

/// Looks up the [`HighwayClass`] for a `highway=*` tag value.
pub fn highway_class(value: &str) -> Option<&'static HighwayClass> {
    HIGHWAY_CLASSES.iter().find(|c| c.name == value)
}

/// Parses an OSM `maxspeed` value into km/h. Handles plain numbers
/// (km/h by convention), explicit `km/h` / `kph` / `mph` units, and the
/// `walk` / `none` keywords; anything else (signal-controlled,
/// multi-valued, garbage) yields `None` and the importer falls back to
/// the highway class default. Zero and negative values are rejected
/// outright (`None`, not clamped): `maxspeed=0` is always a tagging
/// error, and letting it through — even clamped — would misrepresent a
/// live road as impassable. Positive results are clamped into
/// [1, 150] km/h so a denormal or absurd value can neither overflow a
/// travel time to infinity nor mint a teleport edge (the band sits
/// inside the graph-wide
/// [`MIN_EDGE_SPEED_KMH`](crate::graph::MIN_EDGE_SPEED_KMH)..=
/// [`MAX_EDGE_SPEED_KMH`](crate::graph::MAX_EDGE_SPEED_KMH) clamp every
/// edge speed passes through at build time).
pub fn parse_maxspeed_kmh(value: &str) -> Option<f64> {
    let v = value.trim();
    match v {
        "none" => return Some(130.0),
        "walk" => return Some(5.0),
        _ => {}
    }
    let (num, factor) = if let Some(s) = v.strip_suffix("mph") {
        (s, 1.609_344)
    } else if let Some(s) = v.strip_suffix("km/h") {
        (s, 1.0)
    } else if let Some(s) = v.strip_suffix("kph") {
        (s, 1.0)
    } else {
        (v, 1.0)
    };
    num.trim()
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .map(|s| (s * factor).clamp(1.0, 150.0))
}

/// The direction(s) in which a way may be traversed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WayDirection {
    /// Both directions (the default for ordinary streets).
    Both,
    /// Only in node-ref order.
    Forward,
    /// Only against node-ref order (`oneway=-1`).
    Backward,
}

/// Resolves a way's traversal direction from its `oneway` / `junction`
/// tags and its highway class (motorways and roundabouts are one-way by
/// convention unless explicitly tagged otherwise).
pub fn way_direction(way: &OsmWay, class: &HighwayClass) -> WayDirection {
    match way.tag("oneway") {
        Some("yes") | Some("true") | Some("1") => WayDirection::Forward,
        Some("-1") | Some("reverse") => WayDirection::Backward,
        Some("no") | Some("false") | Some("0") => WayDirection::Both,
        _ => {
            if class.oneway_by_default || way.tag("junction") == Some("roundabout") {
                WayDirection::Forward
            } else {
                WayDirection::Both
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highway_classes_cover_the_main_hierarchy() {
        for name in ["motorway", "primary", "residential", "service"] {
            assert!(highway_class(name).is_some(), "{name} missing");
        }
        assert!(highway_class("footway").is_none());
        assert!(highway_class("cycleway").is_none());
        assert!(highway_class("").is_none());
        // Motorways and their ramps are one-way by default; streets not.
        assert!(highway_class("motorway").unwrap().oneway_by_default);
        assert!(highway_class("motorway_link").unwrap().oneway_by_default);
        assert!(!highway_class("residential").unwrap().oneway_by_default);
    }

    #[test]
    fn maxspeed_parsing() {
        assert_eq!(parse_maxspeed_kmh("50"), Some(50.0));
        assert_eq!(parse_maxspeed_kmh(" 80 "), Some(80.0));
        assert_eq!(parse_maxspeed_kmh("50 km/h"), Some(50.0));
        assert_eq!(parse_maxspeed_kmh("60kph"), Some(60.0));
        let mph = parse_maxspeed_kmh("30 mph").unwrap();
        assert!((mph - 48.280_32).abs() < 1e-9, "{mph}");
        assert_eq!(parse_maxspeed_kmh("walk"), Some(5.0));
        assert_eq!(parse_maxspeed_kmh("none"), Some(130.0));
        // Garbage, multi-values and non-positive speeds fall back.
        for bad in ["", "signals", "50;30", "-10", "0", "NaN", "inf"] {
            assert_eq!(parse_maxspeed_kmh(bad), None, "{bad:?}");
        }
        // Clamped into a sane band.
        assert_eq!(parse_maxspeed_kmh("900"), Some(150.0));
        assert_eq!(parse_maxspeed_kmh("0.2"), Some(1.0));
        // Zero is rejected (tagging error), and a denormal — which would
        // overflow `travel_time_s` to infinity unclamped — is lifted to
        // the band floor, never passed through raw.
        assert_eq!(parse_maxspeed_kmh("0"), None);
        assert_eq!(parse_maxspeed_kmh("0.0"), None);
        assert_eq!(parse_maxspeed_kmh("-0"), None);
        assert_eq!(parse_maxspeed_kmh("5e-324"), Some(1.0));
        assert_eq!(parse_maxspeed_kmh("1e-308"), Some(1.0));
    }

    #[test]
    fn oneway_resolution() {
        let class = highway_class("residential").unwrap();
        let mut way = OsmWay {
            id: 1,
            refs: vec![1, 2],
            tags: vec![],
        };
        assert_eq!(way_direction(&way, class), WayDirection::Both);
        way.tags = vec![("oneway".into(), "yes".into())];
        assert_eq!(way_direction(&way, class), WayDirection::Forward);
        way.tags = vec![("oneway".into(), "-1".into())];
        assert_eq!(way_direction(&way, class), WayDirection::Backward);
        way.tags = vec![("oneway".into(), "no".into())];
        assert_eq!(way_direction(&way, class), WayDirection::Both);
        // Roundabouts imply oneway; an explicit tag overrides.
        way.tags = vec![("junction".into(), "roundabout".into())];
        assert_eq!(way_direction(&way, class), WayDirection::Forward);
        way.tags = vec![
            ("junction".into(), "roundabout".into()),
            ("oneway".into(), "no".into()),
        ];
        assert_eq!(way_direction(&way, class), WayDirection::Both);
        // Motorways default to oneway.
        let motorway = highway_class("motorway").unwrap();
        way.tags = vec![];
        assert_eq!(way_direction(&way, motorway), WayDirection::Forward);
        way.tags = vec![("oneway".into(), "no".into())];
        assert_eq!(way_direction(&way, motorway), WayDirection::Both);
    }
}
