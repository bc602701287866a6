//! Plain-text serialisation of road networks and their precomputed
//! search indexes.
//!
//! Two formats, each under its own versioned header:
//!
//! * [`write_graph`] / [`read_graph`] — a [`Graph`] as a stable,
//!   diff-friendly line format (one vertex or edge per line), so that
//!   generated and imported networks can be checked into experiment
//!   repositories and inspected by hand:
//!
//!   ```text
//!   pathrank-graph v1
//!   vertices 3
//!   v 0.0 0.0
//!   v 100.0 0.0
//!   v 200.0 0.0
//!   edges 2
//!   e 0 1 100.0 50.0 R
//!   e 1 2 105.0 50.0 A
//!   ```
//!
//!   Edge lines are `e <from> <to> <length_m> <speed_kmh> <category-tag>`.
//!   The last edge line ends the file.
//! * [`write_ch`] / [`read_ch`] — [`ContractionHierarchy`] indexes: the
//!   metric, the fingerprint, the rank permutation, the elimination
//!   tree the query walks and the search arcs in slot order (original
//!   edges, and shortcuts named by their mid), closed by an `end` line;
//!   the query-time CSR is rebuilt on read. No
//!   binary in this workspace reloads one yet: the `serve` binary builds
//!   its CH and CCH at startup. The CCH topology and ALT landmark tables
//!   have no file format; they are rebuilt from the graph.
//!
//! [`load_graph_auto`] is the one loader behind every experiment
//! binary's `--graph`: it takes a graph file or raw OSM XML.
//!
//! Floats are written with Rust's shortest-round-trip `Display`, so
//! distances survive the text round-trip **bit-identically** — a
//! reloaded graph or index answers exactly like the one that was saved
//! (asserted by the round-trip tests). Readers validate headers, counts,
//! id ranges, tokens per line, the tree and shortcut topology, refuse anything
//! after a file's last record, and reject corrupt input with
//! [`SpatialError::Parse`] rather than building a network or index that
//! would silently mis-route.

use std::io::{BufRead, Write};

use crate::algo::ch::{ChArc, ChArcKind, ContractionHierarchy};
use crate::algo::labels::NO_PARENT;
use crate::algo::landmarks::LandmarkMetric;
use crate::builder::GraphBuilder;
use crate::error::SpatialError;
use crate::geometry::Point;
use crate::graph::{EdgeAttrs, EdgeId, Graph, RoadCategory, VertexId};
use crate::osm::ImportConfig;

const MAGIC: &str = "pathrank-graph v1";
const CH_MAGIC: &str = "pathrank-ch v4";

/// Writes `g` to `out` in the v1 text format.
pub fn write_graph<W: Write>(g: &Graph, out: &mut W) -> std::io::Result<()> {
    writeln!(out, "{MAGIC}")?;
    writeln!(out, "vertices {}", g.vertex_count())?;
    for v in g.vertices() {
        let p = g.coord(v);
        writeln!(out, "v {} {}", p.x, p.y)?;
    }
    writeln!(out, "edges {}", g.edge_count())?;
    for e in g.edges() {
        writeln!(
            out,
            "e {} {} {} {} {}",
            e.from.0,
            e.to.0,
            e.attrs.length_m,
            e.attrs.speed_kmh,
            e.attrs.category.tag() as char
        )?;
    }
    Ok(())
}

/// Reads a graph in the v1 text format. Every vertex and edge line must
/// carry exactly its fields, and nothing may follow the last edge line:
/// a doubled file or a stray token is corruption, not slack.
pub fn read_graph<R: BufRead>(input: R) -> Result<Graph, SpatialError> {
    let mut lines = input.lines();
    let header = next_content_line(&mut lines)?;
    if header != MAGIC {
        return Err(SpatialError::Parse(format!("bad header {header:?}")));
    }
    let vcount = parse_count(&next_content_line(&mut lines)?, "vertices")?;
    let mut b = GraphBuilder::with_capacity(vcount.min(MAX_PREALLOC), 0);
    for i in 0..vcount {
        let line = next_content_line(&mut lines)?;
        let mut it = line.split_ascii_whitespace();
        if it.next() != Some("v") {
            return Err(SpatialError::Parse(format!(
                "expected vertex line {i}, got {line:?}"
            )));
        }
        let x = parse_f64(it.next(), "vertex x")?;
        let y = parse_f64(it.next(), "vertex y")?;
        if !x.is_finite() || !y.is_finite() {
            return Err(SpatialError::Parse(format!(
                "non-finite coordinates on vertex line {i}: {line:?}"
            )));
        }
        no_trailing_tokens(it, &line)?;
        b.add_vertex(Point::new(x, y));
    }
    let ecount = parse_count(&next_content_line(&mut lines)?, "edges")?;
    for i in 0..ecount {
        let line = next_content_line(&mut lines)?;
        let mut it = line.split_ascii_whitespace();
        if it.next() != Some("e") {
            return Err(SpatialError::Parse(format!(
                "expected edge line {i}, got {line:?}"
            )));
        }
        let from = parse_u32(it.next(), "edge from")?;
        let to = parse_u32(it.next(), "edge to")?;
        let length_m = parse_f64(it.next(), "edge length")?;
        let speed_kmh = parse_f64(it.next(), "edge speed")?;
        let tag = match it.next().map(str::as_bytes) {
            Some(&[tag]) => tag,
            Some(_) => {
                return Err(SpatialError::Parse(format!(
                    "edge line {i} has a category tag longer than one byte: {line:?}"
                )))
            }
            None => return Err(SpatialError::Parse("missing category tag".into())),
        };
        let category = RoadCategory::from_tag(tag).ok_or_else(|| {
            SpatialError::Parse(format!("unknown category tag {:?}", tag as char))
        })?;
        no_trailing_tokens(it, &line)?;
        b.add_edge(
            VertexId(from),
            VertexId(to),
            EdgeAttrs {
                length_m,
                speed_kmh,
                category,
            },
        )
        .map_err(|e| SpatialError::Parse(format!("edge {i}: {e}")))?;
    }
    no_trailing_content(&mut lines, "the last edge line")?;
    Ok(b.build())
}

fn metric_tag(metric: LandmarkMetric) -> &'static str {
    match metric {
        LandmarkMetric::Length => "length",
        LandmarkMetric::TravelTime => "travel_time",
    }
}

fn parse_metric(line: &str) -> Result<LandmarkMetric, SpatialError> {
    let mut it = line.split_ascii_whitespace();
    if it.next() != Some("metric") {
        return Err(SpatialError::Parse(format!(
            "expected metric line, got {line:?}"
        )));
    }
    let metric = match it.next() {
        Some("length") => LandmarkMetric::Length,
        Some("travel_time") => LandmarkMetric::TravelTime,
        other => return Err(SpatialError::Parse(format!("unknown metric {other:?}"))),
    };
    no_trailing_tokens(it, line)?;
    Ok(metric)
}

/// `graph <n> <m>` fingerprint line.
fn parse_fingerprint(line: &str) -> Result<(usize, usize), SpatialError> {
    let mut it = line.split_ascii_whitespace();
    if it.next() != Some("graph") {
        return Err(SpatialError::Parse(format!(
            "expected graph fingerprint line, got {line:?}"
        )));
    }
    let n = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| SpatialError::Parse("bad vertex count in fingerprint".into()))?;
    let m = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| SpatialError::Parse("bad edge count in fingerprint".into()))?;
    no_trailing_tokens(it, line)?;
    Ok((n, m))
}

/// Skips blank lines and yields the next trimmed content line.
fn next_content_line(
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
) -> Result<String, SpatialError> {
    loop {
        match lines.next() {
            Some(Ok(l)) => {
                let t = l.trim().to_string();
                if !t.is_empty() {
                    return Ok(t);
                }
            }
            Some(Err(e)) => return Err(SpatialError::Parse(e.to_string())),
            None => return Err(SpatialError::Parse("unexpected end of input".into())),
        }
    }
}

/// Refuses any content line left after the file's last record, `after`.
fn no_trailing_content(
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
    after: &str,
) -> Result<(), SpatialError> {
    match next_content_line(lines) {
        Ok(extra) => Err(SpatialError::Parse(format!(
            "trailing content after {after}: {extra:?}"
        ))),
        Err(_) => Ok(()),
    }
}

/// Caps the element count fed to `Vec::with_capacity` by readers, so a
/// corrupt header claiming billions of entries cannot force a huge
/// allocation (or a capacity overflow) before per-line validation gets
/// a chance to reject the file — the vectors still grow to any honest
/// size.
const MAX_PREALLOC: usize = 1 << 20;

/// A `ranks <r0> <r1> …` line holding a permutation of `0..n`.
fn parse_ranks(line: &str, n: usize) -> Result<Vec<u32>, SpatialError> {
    let mut it = line.split_ascii_whitespace();
    if it.next() != Some("ranks") {
        return Err(SpatialError::Parse(format!(
            "expected ranks line, got {line:?}"
        )));
    }
    let rank: Vec<u32> = it
        .map(|t| t.parse::<u32>())
        .collect::<Result<_, _>>()
        .map_err(|e| SpatialError::Parse(format!("bad rank: {e}")))?;
    if rank.len() != n {
        return Err(SpatialError::Parse(format!(
            "rank line has {} entries, expected {n}",
            rank.len()
        )));
    }
    let mut seen = vec![false; n];
    for &r in &rank {
        if (r as usize) >= n || seen[r as usize] {
            return Err(SpatialError::Parse(format!(
                "ranks are not a permutation of 0..{n} (offending rank {r})"
            )));
        }
        seen[r as usize] = true;
    }
    Ok(rank)
}

/// Writes a contraction hierarchy in the v4 text format: the rank
/// permutation, each vertex's parent in the elimination tree (`-` on a
/// root), one line per search arc in slot order
/// (`a <from> <to> <weight> e <edge>` for an original edge,
/// `a <from> <to> <weight> m <mid>` for a shortcut through vertex `mid`;
/// a weight may be `inf`) and an `end` line, so a file cut anywhere is
/// refused on read.
pub fn write_ch<W: Write>(ch: &ContractionHierarchy, out: &mut W) -> std::io::Result<()> {
    writeln!(out, "{CH_MAGIC}")?;
    writeln!(out, "metric {}", metric_tag(ch.metric()))?;
    writeln!(out, "graph {} {}", ch.vertex_count(), ch.edge_count())?;
    write!(out, "ranks")?;
    for r in ch.ranks() {
        write!(out, " {r}")?;
    }
    writeln!(out)?;
    write!(out, "parents")?;
    for v in (0..ch.vertex_count() as u32).map(VertexId) {
        match ch.view().parent(v) {
            Some(p) => write!(out, " {}", p.0)?,
            None => write!(out, " -")?,
        }
    }
    writeln!(out)?;
    writeln!(out, "arcs {}", ch.arcs().len())?;
    for arc in ch.arcs() {
        let (from, to, w) = (arc.from.0, arc.to.0, arc.weight);
        match arc.kind {
            ChArcKind::Original(e) => writeln!(out, "a {from} {to} {w} e {}", e.0)?,
            ChArcKind::Shortcut(mid) => writeln!(out, "a {from} {to} {w} m {}", mid.0)?,
        }
    }
    writeln!(out, "end")
}

/// Reads a contraction hierarchy in the v4 text format, rebuilding the
/// query-time search graph. Validates the rank permutation, the
/// elimination tree (a forest whose parents rank above their children,
/// with every arc's higher end an ancestor of its lower end — what the
/// query walk relies on), arc endpoints (no self-loops, one arc per
/// vertex pair and direction) and edge ids, and the shortcut topology:
/// every mid ranks below both ends and both legs are arcs of the mid,
/// weighing the shortcut in sum, so unpacking provably terminates. The
/// `end` line must follow the last arc, and nothing may follow it.
/// Corrupt input yields [`SpatialError::Parse`] instead of an index that
/// would mis-route.
pub fn read_ch<R: BufRead>(input: R) -> Result<ContractionHierarchy, SpatialError> {
    let mut lines = input.lines();
    let header = next_content_line(&mut lines)?;
    if header != CH_MAGIC {
        return Err(SpatialError::Parse(format!("bad header {header:?}")));
    }
    let metric = parse_metric(&next_content_line(&mut lines)?)?;
    let (n, m) = parse_fingerprint(&next_content_line(&mut lines)?)?;
    let rank = parse_ranks(&next_content_line(&mut lines)?, n)?;
    let parent = parse_parents(&next_content_line(&mut lines)?, &rank)?;
    let arc_count = parse_count(&next_content_line(&mut lines)?, "arcs")?;
    let mut arcs: Vec<ChArc> = Vec::with_capacity(arc_count.min(MAX_PREALLOC));
    let mut pairs = std::collections::HashSet::with_capacity(arc_count.min(MAX_PREALLOC));
    for i in 0..arc_count {
        let line = next_content_line(&mut lines)?;
        let mut it = line.split_ascii_whitespace();
        if it.next() != Some("a") {
            return Err(SpatialError::Parse(format!(
                "expected arc line {i}, got {line:?}"
            )));
        }
        let from = parse_u32(it.next(), "arc from")?;
        let to = parse_u32(it.next(), "arc to")?;
        if from as usize >= n || to as usize >= n || from == to {
            return Err(SpatialError::Parse(format!(
                "arc {i} has invalid endpoints ({from} -> {to}, {n} vertices)"
            )));
        }
        if !pairs.insert((from, to)) {
            return Err(SpatialError::Parse(format!(
                "duplicate arc for vertex pair {from} -> {to}"
            )));
        }
        let weight = parse_f64(it.next(), "arc weight")?;
        if weight.is_nan() || weight < 0.0 {
            return Err(SpatialError::Parse(format!("arc {i} has weight {weight}")));
        }
        let kind = match it.next() {
            Some("e") => {
                let e = parse_u32(it.next(), "arc edge id")?;
                if e as usize >= m {
                    return Err(SpatialError::Parse(format!(
                        "arc {i} names edge {e} outside the graph's {m} edges"
                    )));
                }
                ChArcKind::Original(EdgeId(e))
            }
            Some("m") => {
                let mid = parse_u32(it.next(), "shortcut mid")?;
                if mid as usize >= n {
                    return Err(SpatialError::Parse(format!(
                        "shortcut arc {i} names mid {mid} outside the graph's {n} vertices"
                    )));
                }
                ChArcKind::Shortcut(VertexId(mid))
            }
            other => {
                return Err(SpatialError::Parse(format!(
                    "arc {i} has unknown kind {other:?}"
                )))
            }
        };
        no_trailing_tokens(it, &line)?;
        arcs.push(ChArc {
            from: VertexId(from),
            to: VertexId(to),
            weight,
            kind,
        });
    }
    let last = next_content_line(&mut lines)?;
    if last != "end" {
        return Err(SpatialError::Parse(format!(
            "expected end after {arc_count} arcs, got {last:?}"
        )));
    }
    no_trailing_content(&mut lines, "the end line")?;
    ContractionHierarchy::assemble(metric, m, rank, parent, arcs).map_err(SpatialError::Parse)
}

/// A `parents <p0> <p1> …` line: each vertex's parent in the
/// elimination tree, `-` on a root. Returned by rank, as the rank of the
/// parent or `NO_PARENT`; whether it is a tree is for the assembler.
fn parse_parents(line: &str, rank: &[u32]) -> Result<Vec<u32>, SpatialError> {
    let n = rank.len();
    let mut it = line.split_ascii_whitespace();
    if it.next() != Some("parents") {
        return Err(SpatialError::Parse(format!(
            "expected parents line, got {line:?}"
        )));
    }
    let mut parent = vec![NO_PARENT; n];
    let mut count = 0;
    for (v, tok) in it.enumerate() {
        if v >= n {
            return Err(SpatialError::Parse(format!(
                "parents line has more than {n} entries"
            )));
        }
        if tok != "-" {
            let p = parse_u32(Some(tok), "parent")?;
            if p as usize >= n {
                return Err(SpatialError::Parse(format!(
                    "vertex {v} has parent {p} outside the graph's {n} vertices"
                )));
            }
            parent[rank[v] as usize] = rank[p as usize];
        }
        count += 1;
    }
    if count != n {
        return Err(SpatialError::Parse(format!(
            "parents line has {count} entries, expected {n}"
        )));
    }
    Ok(parent)
}

/// Loads a road network from `path`, sniffing the format off the first
/// buffered bytes: a graph file (`pathrank-graph v1`) or raw OSM XML
/// (anything starting with `<`), which is imported on the fly with the
/// default [`ImportConfig`]. Both paths stream through the same
/// [`std::io::BufReader`] — a country-scale `.osm.xml` is never
/// materialised in memory. Every experiment binary's `--graph` flag goes
/// through here, so an extract and the graph file `import_osm --out`
/// writes from it are interchangeable.
pub fn load_graph_auto(path: &std::path::Path) -> Result<Graph, SpatialError> {
    let file = std::fs::File::open(path)
        .map_err(|e| SpatialError::Parse(format!("cannot read {}: {e}", path.display())))?;
    let mut reader = std::io::BufReader::new(file);
    // Peek without consuming: the magic line fits comfortably inside
    // the first buffered block.
    let head = reader
        .fill_buf()
        .map_err(|e| SpatialError::Parse(format!("cannot read {}: {e}", path.display())))?;
    let start = head
        .iter()
        .position(|b| !b.is_ascii_whitespace())
        .unwrap_or(head.len());
    let head = &head[start..];
    if head.starts_with(MAGIC.as_bytes()) {
        read_graph(reader)
    } else if head.first() == Some(&b'<') {
        let data = crate::osm::parse_osm_xml(reader)?;
        Ok(crate::osm::import_osm(&data, &ImportConfig::default())?.graph)
    } else {
        Err(SpatialError::Parse(format!(
            "{}: not a pathrank graph or OSM XML",
            path.display()
        )))
    }
}

fn parse_count(line: &str, keyword: &str) -> Result<usize, SpatialError> {
    let mut it = line.split_ascii_whitespace();
    if it.next() != Some(keyword) {
        return Err(SpatialError::Parse(format!(
            "expected {keyword:?} line, got {line:?}"
        )));
    }
    let count = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| SpatialError::Parse(format!("bad count in {line:?}")))?;
    no_trailing_tokens(it, line)?;
    Ok(count)
}

/// Refuses a line with tokens past its last field.
fn no_trailing_tokens<'a>(
    mut rest: impl Iterator<Item = &'a str>,
    line: &str,
) -> Result<(), SpatialError> {
    match rest.next() {
        Some(_) => Err(SpatialError::Parse(format!("trailing tokens on {line:?}"))),
        None => Ok(()),
    }
}

fn parse_f64(tok: Option<&str>, what: &str) -> Result<f64, SpatialError> {
    tok.and_then(|s| s.parse().ok())
        .ok_or_else(|| SpatialError::Parse(format!("missing or invalid {what}")))
}

fn parse_u32(tok: Option<&str>, what: &str) -> Result<u32, SpatialError> {
    tok.and_then(|s| s.parse().ok())
        .ok_or_else(|| SpatialError::Parse(format!("missing or invalid {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid_network, region_network, GridConfig, RegionConfig};

    /// `g` in the v1 text format.
    fn graph_text(g: &Graph) -> String {
        let mut buf = Vec::new();
        write_graph(g, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn roundtrip_grid() {
        let g = grid_network(&GridConfig::small_test(), 13);
        let text = graph_text(&g);
        let back = read_graph(text.as_bytes()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn roundtrip_region() {
        let g = region_network(&RegionConfig::small_test(), 13);
        let back = read_graph(graph_text(&g).as_bytes()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_graph(&b"nonsense"[..]).is_err());
        assert!(read_graph(&b"pathrank-graph v0\nvertices 0\nedges 0\n"[..]).is_err());
    }

    #[test]
    fn rejects_truncated_input() {
        let g = grid_network(&GridConfig::small_test(), 13);
        let text = graph_text(&g);
        let trimmed = text.trim_end();
        for cut in 0..trimmed.len() {
            assert!(
                read_graph(&trimmed.as_bytes()[..cut]).is_err(),
                "prefix of {cut} of {} bytes accepted",
                trimmed.len()
            );
        }
        assert_eq!(read_graph(trimmed.as_bytes()).unwrap(), g);
    }

    #[test]
    fn rejects_malformed_edges() {
        let bad = "pathrank-graph v1\nvertices 2\nv 0 0\nv 1 0\nedges 1\ne 0 5 10 50 R\n";
        assert!(read_graph(bad.as_bytes()).is_err());
        let bad_tag = "pathrank-graph v1\nvertices 2\nv 0 0\nv 1 0\nedges 1\ne 0 1 10 50 X\n";
        assert!(read_graph(bad_tag.as_bytes()).is_err());
        // Non-finite coordinates would reach the R-tree and the A* bound.
        for v in ["v NaN 0", "v inf 0", "v 0 -inf", "v 0 nan"] {
            let text = format!("pathrank-graph v1\nvertices 2\nv 0 0\n{v}\nedges 0\n");
            match read_graph(text.as_bytes()) {
                Err(SpatialError::Parse(msg)) => {
                    assert!(msg.contains("vertex line 1") && msg.contains(v), "{msg}")
                }
                other => panic!("{v:?} accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn tolerates_blank_lines() {
        let g = grid_network(&GridConfig::small_test(), 13);
        let text = graph_text(&g).replace('\n', "\n\n");
        assert_eq!(read_graph(text.as_bytes()).unwrap(), g);
    }

    #[test]
    fn rejects_stray_tokens_and_trailing_content() {
        let g = grid_network(&GridConfig::small_test(), 13);
        let text = graph_text(&g);
        let first_edge = text.lines().find(|l| l.starts_with("e ")).unwrap();
        let first_vertex = text.lines().find(|l| l.starts_with("v ")).unwrap();
        let cases = [
            ("doubled file", format!("{text}{text}")),
            ("extra line", format!("{text}extra stuff\n")),
            (
                "long category tag",
                text.replacen(first_edge, &format!("{first_edge}xyz"), 1),
            ),
            (
                "edge trailing token",
                text.replacen(first_edge, &format!("{first_edge} trailing"), 1),
            ),
            (
                "vertex trailing token",
                text.replacen(first_vertex, &format!("{first_vertex} 99"), 1),
            ),
            (
                "vertex count trailing token",
                text.replacen("vertices 25\n", "vertices 25 9\n", 1),
            ),
            (
                "edge count trailing token",
                text.replacen("edges 80\n", "edges 80 9\n", 1),
            ),
        ];
        for (what, bad) in cases {
            assert_ne!(bad, text, "{what}: the corruption must change the text");
            assert!(
                matches!(read_graph(bad.as_bytes()), Err(SpatialError::Parse(_))),
                "{what} accepted"
            );
        }
    }

    mod imported {
        use super::*;
        use crate::osm::synth::{synthetic_city, write_osm_xml, SynthCityConfig};
        use crate::osm::{import_osm, parse_osm_str, ImportConfig};

        #[test]
        fn load_graph_auto_sniffs_all_three_formats() {
            let dir = std::env::temp_dir().join(format!("pathrank-io-test-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let xml = write_osm_xml(&synthetic_city(&SynthCityConfig::default(), 13));
            let osm = parse_osm_str(&xml).unwrap();
            let g = import_osm(&osm, &ImportConfig::default()).unwrap().graph;

            let xml_path = dir.join("city.osm.xml");
            std::fs::write(&xml_path, &xml).unwrap();
            assert_eq!(load_graph_auto(&xml_path).unwrap(), g);

            let graph_path = dir.join("city.graph");
            std::fs::write(&graph_path, graph_text(&g)).unwrap();
            assert_eq!(load_graph_auto(&graph_path).unwrap(), g);

            let junk_path = dir.join("junk");
            std::fs::write(&junk_path, "not a graph at all").unwrap();
            assert!(load_graph_auto(&junk_path).is_err());
            assert!(load_graph_auto(&dir.join("missing")).is_err());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    mod indexes {
        use super::*;
        use crate::algo::ch::{ChConfig, ChSearch, ContractionHierarchy};
        use crate::algo::landmarks::LandmarkMetric;
        use crate::graph::VertexId;

        /// `ch` in the v4 text format.
        fn ch_text(ch: &ContractionHierarchy) -> String {
            let mut buf = Vec::new();
            write_ch(ch, &mut buf).unwrap();
            String::from_utf8(buf).unwrap()
        }

        fn region() -> Graph {
            region_network(&RegionConfig::small_test(), 23)
        }

        #[test]
        fn ch_roundtrip_serves_identical_queries() {
            // Both build metrics — the TravelTime hierarchy (fastest-path
            // serving) persists through exactly the same format.
            let g = region();
            for metric in [LandmarkMetric::Length, LandmarkMetric::TravelTime] {
                let ch = ContractionHierarchy::build(&g, metric, &ChConfig::default());
                let text = ch_text(&ch);
                let back = read_ch(text.as_bytes()).unwrap();
                assert_eq!(back.metric(), ch.metric());
                assert_eq!(back.vertex_count(), ch.vertex_count());
                assert_eq!(back.edge_count(), ch.edge_count());
                assert_eq!(back.shortcut_count(), ch.shortcut_count());
                assert_eq!(back.ranks(), ch.ranks());
                let mut sa = ChSearch::default();
                let mut sb = ChSearch::default();
                let n = g.vertex_count() as u32;
                for (s, t) in [(0, n - 1), (n / 2, 1), (n - 1, n / 3), (3, n - 2)] {
                    let (s, t) = (VertexId(s), VertexId(t));
                    let ea = ch.view().query_path(&mut sa, s, t).map(|(e, _)| e.to_vec());
                    let eb = back
                        .view()
                        .query_path(&mut sb, s, t)
                        .map(|(e, _)| e.to_vec());
                    assert_eq!(
                        ea, eb,
                        "reloaded {metric:?} CH changed an answer for {s:?}->{t:?}"
                    );
                }
            }
        }

        #[test]
        fn index_headers_are_versioned_and_checked() {
            let g = region();
            // Wrong or missing versions are rejected outright.
            assert!(read_ch(&b"pathrank-ch v0\n"[..]).is_err());
            // A v2 file has no end line, so a cut one read as whole.
            let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
            let v2 = ch_text(&ch)
                .replacen("pathrank-ch v4", "pathrank-ch v2", 1)
                .replace("end\n", "");
            assert!(read_ch(v2.as_bytes()).is_err());
            // A v3 file has no elimination tree, under either header.
            let parents = ch_text(&ch)
                .lines()
                .find(|l| l.starts_with("parents"))
                .map(|l| format!("{l}\n"))
                .unwrap();
            let v3 = ch_text(&ch).replace(&parents, "");
            assert!(read_ch(v3.as_bytes()).is_err());
            assert!(read_ch(v3.replacen("v4", "v3", 1).as_bytes()).is_err());
            // Feeding one format to the other reader fails on the header.
            assert!(read_ch(graph_text(&g).as_bytes()).is_err());
        }

        #[test]
        fn ch_corrupt_input_is_rejected() {
            let g = region();
            let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
            let text = ch_text(&ch);
            assert!(read_ch(&text.as_bytes()[..text.len() / 2]).is_err());
            // An absurd arc count errors on truncation instead of
            // aborting on a huge preallocation.
            let arcs_line = format!("arcs {}", ch.arcs().len());
            let huge = text.replace(&arcs_line, "arcs 18446744073709551615");
            assert!(read_ch(huge.as_bytes()).is_err());
            // A rank out of range / duplicated breaks the permutation.
            let ranks_line = text
                .lines()
                .find(|l| l.starts_with("ranks"))
                .unwrap()
                .to_string();
            let mut toks: Vec<&str> = ranks_line.split_ascii_whitespace().collect();
            toks[1] = "999999";
            assert!(read_ch(text.replace(&ranks_line, &toks.join(" ")).as_bytes()).is_err());
            let dup = {
                let mut t: Vec<&str> = ranks_line.split_ascii_whitespace().collect();
                t[1] = t[2];
                text.replace(&ranks_line, &t.join(" "))
            };
            assert!(read_ch(dup.as_bytes()).is_err());
            // Negative or non-finite weights are rejected.
            let arcs: Vec<ChArc> = ch.arcs().collect();
            let arc_line = |a: usize| {
                let line = text.lines().filter(|l| l.starts_with("a ")).nth(a).unwrap();
                format!("{line}\n")
            };
            let with_token = |a: usize, i: usize, tok: &str| {
                let line = arc_line(a);
                let mut toks: Vec<&str> = line.split_ascii_whitespace().collect();
                toks[i] = tok;
                text.replace(&line, &format!("{}\n", toks.join(" ")))
            };
            assert!(read_ch(with_token(0, 3, "-5").as_bytes()).is_err());
            // Every other refusal names its reason.
            let refusal = |text: &str| match read_ch(text.as_bytes()) {
                Err(SpatialError::Parse(msg)) => msg,
                other => panic!("expected a parse error, got {other:?}"),
            };
            // An original naming an edge outside the graph.
            let original = arcs
                .iter()
                .position(|a| matches!(a.kind, ChArcKind::Original(_)))
                .unwrap();
            let out_of_range = format!("{}", g.edge_count() + 3);
            assert!(refusal(&with_token(original, 5, &out_of_range)).contains("outside the graph"));
            // A self-loop.
            let from = arcs[original].from.0.to_string();
            assert!(refusal(&with_token(original, 2, &from)).contains("invalid endpoints"));
            // A second arc for one vertex pair.
            let (a0, a1) = (arc_line(0), arc_line(1));
            let dup = text.replacen(&a1, &a0, 1);
            assert!(refusal(&dup).contains("duplicate arc"));
            // A shortcut through a mid not ranked below both ends: the
            // top-ranked vertex.
            let (slot, shortcut) = arcs
                .iter()
                .enumerate()
                .find_map(|(i, a)| match a.kind {
                    ChArcKind::Shortcut(mid) => Some((i, (a.from, mid, a.to))),
                    _ => None,
                })
                .expect("region CH has shortcuts");
            let top =
                (0..g.vertex_count()).find(|&v| ch.ranks()[v] as usize == g.vertex_count() - 1);
            let top = top.unwrap().to_string();
            assert!(refusal(&with_token(slot, 5, &top)).contains("not below both ends"));
            // A shortcut whose leg is missing from the file.
            let (from, mid, _) = shortcut;
            let leg = arcs
                .iter()
                .position(|a| (a.from, a.to) == (from, mid))
                .unwrap();
            let missing = text
                .replace(&arc_line(leg), "")
                .replace(&arcs_line, &format!("arcs {}", arcs.len() - 1));
            assert!(refusal(&missing).contains("misses a leg"));
            // A shortcut that does not weigh its legs' sum.
            let heavier = format!("{}", arcs[slot].weight + 1.0);
            assert!(refusal(&with_token(slot, 3, &heavier)).contains("its legs"));
            // An edge count past the 31-bit ids an expansion word holds.
            let graph_line = format!("graph {} {}", g.vertex_count(), g.edge_count());
            let wide = text.replace(
                &graph_line,
                &format!("graph {} 2147483650", g.vertex_count()),
            );
            assert!(refusal(&wide).contains("31-bit"));
            // A v1 file, which named shortcut legs by pool id.
            assert!(
                refusal(&text.replacen("pathrank-ch v4", "pathrank-ch v1", 1))
                    .contains("bad header")
            );
            // Trailing tokens on a count line, content past the last arc.
            let metric_line = "metric length\n";
            let arcs_count = format!("{arcs_line}\n");
            let cases = [
                ("doubled file", format!("{text}{text}")),
                (
                    "extra arc before end",
                    text.replace("end\n", &format!("{}end\n", arc_line(0))),
                ),
                ("extra arc after end", format!("{text}{}", arc_line(0))),
                (
                    "metric trailing token",
                    text.replacen(metric_line, "metric length junk\n", 1),
                ),
                (
                    "fingerprint trailing token",
                    text.replacen(&graph_line, &format!("{graph_line} 7"), 1),
                ),
                (
                    "arc count trailing token",
                    text.replacen(&arcs_count, &format!("{arcs_line} x\n"), 1),
                ),
            ];
            for (what, bad) in cases {
                assert_ne!(bad, text, "{what}: the corruption must change the text");
                assert!(
                    matches!(read_ch(bad.as_bytes()), Err(SpatialError::Parse(_))),
                    "{what} accepted"
                );
            }
        }

        /// The elimination tree is the query walk's precondition: a
        /// parents line that is not a forest over ascending ranks, or a
        /// tree an arc leaves, is refused with the reason, never a panic.
        #[test]
        fn ch_tree_corruption_is_refused() {
            let g = region();
            let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
            let text = ch_text(&ch);
            let line = text.lines().find(|l| l.starts_with("parents")).unwrap();
            let toks: Vec<&str> = line.split_ascii_whitespace().collect();
            let with_parent = |v: usize, tok: &str| {
                let mut toks = toks.clone();
                toks[v + 1] = tok;
                text.replacen(line, &toks.join(" "), 1)
            };
            let refusal = |text: &str| match read_ch(text.as_bytes()) {
                Err(SpatialError::Parse(msg)) => msg,
                other => panic!("expected a parse error, got {other:?}"),
            };
            let rank = ch.ranks();
            let child = (0..g.vertex_count())
                .find(|&v| rank[v] > 0 && ch.view().parent(VertexId(v as u32)).is_some())
                .unwrap();
            // A parent ranked below its child, and the child itself.
            let low = (0..g.vertex_count())
                .find(|&v| rank[v] < rank[child])
                .unwrap();
            assert!(refusal(&with_parent(child, &low.to_string())).contains("not a higher rank"));
            assert!(refusal(&with_parent(child, &child.to_string())).contains("not a higher rank"));
            // A parent outside the graph, a token that is no vertex, and a
            // line one entry short or long.
            let outside = g.vertex_count().to_string();
            assert!(refusal(&with_parent(child, &outside)).contains("outside the graph"));
            assert!(refusal(&with_parent(child, "x")).contains("invalid parent"));
            let short = text.replacen(line, &toks[..toks.len() - 1].join(" "), 1);
            assert!(refusal(&short).contains("entries"));
            let long = text.replacen(line, &format!("{line} -"), 1);
            assert!(refusal(&long).contains("entries"));
            // A forest whose ranks ascend, but that an arc leaves: a vertex
            // with an arc to a higher one made a root.
            let lower = ch
                .arcs()
                .map(|a| {
                    if rank[a.from.index()] < rank[a.to.index()] {
                        a.from
                    } else {
                        a.to
                    }
                })
                .find(|v| ch.view().parent(*v).is_some())
                .unwrap();
            assert!(
                refusal(&with_parent(lower.index(), "-")).contains("leaves the elimination tree")
            );
            assert!(read_ch(text.as_bytes()).is_ok());
        }

        /// A weight of `+∞` — a direction a customization found no path
        /// for — is written as `inf` and read back as itself.
        #[test]
        fn ch_roundtrip_keeps_infinite_weights() {
            let g = region();
            let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
            let text = ch_text(&ch);
            let arcs: Vec<ChArc> = ch.arcs().collect();
            let legs: std::collections::HashSet<_> = arcs
                .iter()
                .filter_map(|a| match a.kind {
                    ChArcKind::Shortcut(mid) => Some([(a.from, mid), (mid, a.to)]),
                    ChArcKind::Original(_) => None,
                })
                .flatten()
                .collect();
            let free = arcs
                .iter()
                .position(|a| {
                    matches!(a.kind, ChArcKind::Original(_)) && !legs.contains(&(a.from, a.to))
                })
                .expect("an original that is no leg");
            let line = text
                .lines()
                .filter(|l| l.starts_with("a "))
                .nth(free)
                .unwrap();
            let mut toks: Vec<&str> = line.split_ascii_whitespace().collect();
            toks[3] = "inf";
            let infinite = text.replacen(line, &toks.join(" "), 1);
            let back = read_ch(infinite.as_bytes()).unwrap();
            assert_eq!(back.arcs().nth(free).unwrap().weight, f64::INFINITY);
            assert_eq!(ch_text(&back), infinite);
            assert!(read_ch(infinite.replacen("inf", "NaN", 1).as_bytes()).is_err());
        }

        /// Every cut of a CH file is refused, none panics: the `end` line
        /// is what tells a whole file from one cut inside its last arc.
        #[test]
        fn ch_every_truncation_is_rejected() {
            let g = grid_network(&GridConfig::small_test(), 13);
            let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
            let text = ch_text(&ch);
            let trimmed = text.trim_end();
            for cut in 0..trimmed.len() {
                assert!(
                    read_ch(&trimmed.as_bytes()[..cut]).is_err(),
                    "prefix of {cut} of {} bytes accepted",
                    trimmed.len()
                );
            }
            assert_eq!(read_ch(trimmed.as_bytes()).unwrap().ranks(), ch.ranks());
        }
    }
}
