//! Plain-text serialisation of road networks and their precomputed
//! search indexes.
//!
//! The format is a stable, diff-friendly line format (one vertex or edge
//! per line) so that generated networks can be checked into experiment
//! repositories and inspected by hand:
//!
//! ```text
//! pathrank-graph v1
//! vertices 3
//! v 0.0 0.0
//! v 100.0 0.0
//! v 200.0 0.0
//! edges 2
//! e 0 1 100.0 50.0 R
//! e 1 2 105.0 50.0 A
//! ```
//!
//! Edge lines are `e <from> <to> <length_m> <speed_kmh> <category-tag>`.
//!
//! The precomputed indexes the engine layer routes with round-trip the
//! same way, each under its own versioned header, so servers can persist
//! them next to the graph and skip the precompute on restart:
//!
//! * [`write_landmarks`] / [`read_landmarks`] — ALT
//!   [`LandmarkTable`]s: the metric, the graph fingerprint, the landmark
//!   ids and the forward/backward distance vectors;
//! * [`write_ch`] / [`read_ch`] — [`ContractionHierarchy`] indexes: the
//!   metric, the fingerprint, the rank permutation and the arc pool
//!   (original edges and shortcuts); the query-time CSR is rebuilt on
//!   read;
//! * [`write_cch`] / [`read_cch`] — the *metric-independent* half of a
//!   customizable hierarchy ([`CchTopology`]): the fingerprint, the
//!   contraction order and the chordal arc topology with its
//!   supporting triangles. No weights are stored — they are re-derived
//!   in milliseconds by `customize` after loading, so one persisted
//!   topology serves every metric, custom cost vector and live-traffic
//!   epoch.
//!
//! Floats are written with Rust's shortest-round-trip `Display`, so
//! distances survive the text round-trip **bit-identically** — a
//! reloaded index answers exactly like the one that was saved (asserted
//! by the round-trip tests). Readers validate headers, counts, id
//! ranges and shortcut topology, and reject corrupt input with
//! [`SpatialError::Parse`] rather than building an index that would
//! silently mis-route.
//!
//! The cache-compact serving form ([`FrozenGraph`]) is the one
//! **binary** format: [`write_frozen`] / [`read_frozen`] persist it as
//! a versioned, alignment-padded little-endian section file (24-byte
//! magic, fixed-width header, a section table of `(tag, offset, len)`
//! entries, 8-byte-aligned payloads, FNV-1a-64 trailer checksum) —
//! fixed-width records at stable offsets, so a future loader can map
//! the arc array straight off disk without a parse step. The writer is
//! deterministic, making the round trip byte-stable, and the reader
//! validates the checksum, every section bound and every record before
//! constructing the graph.

use std::io::{BufRead, Write};

use crate::algo::cch::{CchConfig, CchTopology};
use crate::algo::ch::{ChArc, ChArcKind, ContractionHierarchy};
use crate::algo::landmarks::{LandmarkMetric, LandmarkTable};
use crate::builder::GraphBuilder;
use crate::error::SpatialError;
use crate::frozen::{FrozenArc, FrozenGraph};
use crate::geo::LocalProjection;
use crate::geometry::Point;
use crate::graph::{EdgeAttrs, EdgeId, Graph, RoadCategory, VertexId};
use crate::osm::{ImportConfig, ImportStats, ImportedGraph};

const MAGIC: &str = "pathrank-graph v1";
const LANDMARKS_MAGIC: &str = "pathrank-landmarks v1";
const CH_MAGIC: &str = "pathrank-ch v1";
const CCH_MAGIC: &str = "pathrank-cch v1";
const IMPORTED_MAGIC: &str = "pathrank-osm-graph v1";

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

/// Serialises `g` to a `String` in the v1 text format.
pub fn graph_to_string(g: &Graph) -> String {
    let mut buf = Vec::new();
    write_graph(g, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("format is ASCII")
}

/// Reads the graph body (header line onwards) from a line iterator —
/// shared by [`read_graph`] and the imported-network format, which
/// embeds a complete plain graph section.
fn read_graph_body(
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
) -> Result<Graph, SpatialError> {
    let header = next_content_line(lines)?;
    if header != MAGIC {
        return Err(SpatialError::Parse(format!("bad header {header:?}")));
    }
    let vcount = parse_count(&next_content_line(lines)?, "vertices")?;
    let mut b = GraphBuilder::with_capacity(vcount.min(MAX_PREALLOC), 0);
    for i in 0..vcount {
        let line = next_content_line(lines)?;
        let mut it = line.split_ascii_whitespace();
        if it.next() != Some("v") {
            return Err(SpatialError::Parse(format!(
                "expected vertex line {i}, got {line:?}"
            )));
        }
        let x = parse_f64(it.next(), "vertex x")?;
        let y = parse_f64(it.next(), "vertex y")?;
        b.add_vertex(Point::new(x, y));
    }
    let ecount = parse_count(&next_content_line(lines)?, "edges")?;
    for i in 0..ecount {
        let line = next_content_line(lines)?;
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
        let tag = it
            .next()
            .and_then(|s| s.bytes().next())
            .ok_or_else(|| SpatialError::Parse("missing category tag".into()))?;
        let category = RoadCategory::from_tag(tag).ok_or_else(|| {
            SpatialError::Parse(format!("unknown category tag {:?}", tag as char))
        })?;
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
    Ok(b.build())
}

/// Reads a graph in the v1 text format.
pub fn read_graph<R: BufRead>(input: R) -> Result<Graph, SpatialError> {
    read_graph_body(&mut input.lines())
}

/// Parses a graph from its v1 text representation.
pub fn graph_from_str(s: &str) -> Result<Graph, SpatialError> {
    read_graph(s.as_bytes())
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
    match it.next() {
        Some("length") => Ok(LandmarkMetric::Length),
        Some("travel_time") => Ok(LandmarkMetric::TravelTime),
        other => Err(SpatialError::Parse(format!("unknown metric {other:?}"))),
    }
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

/// Caps the element count fed to `Vec::with_capacity` by readers, so a
/// corrupt header claiming billions of entries cannot force a huge
/// allocation (or a capacity overflow) before per-line validation gets
/// a chance to reject the file — the vectors still grow to any honest
/// size.
const MAX_PREALLOC: usize = 1 << 20;

/// Parses a whitespace-separated vector of exactly `count` distances:
/// non-negative (possibly infinite) floats. Negative or NaN entries are
/// rejected — a tampered distance would silently break the ALT bounds'
/// admissibility, turning corruption into wrong routes instead of an
/// error.
fn parse_f64_row(line: &str, prefix: &str, count: usize) -> Result<Vec<f64>, SpatialError> {
    let mut it = line.split_ascii_whitespace();
    if it.next() != Some(prefix) {
        return Err(SpatialError::Parse(format!(
            "expected {prefix:?} row, got {line:?}"
        )));
    }
    let row: Result<Vec<f64>, _> = it.map(|t| t.parse::<f64>()).collect();
    let row = row.map_err(|e| SpatialError::Parse(format!("bad float in {prefix:?} row: {e}")))?;
    if row.len() != count {
        return Err(SpatialError::Parse(format!(
            "{prefix:?} row has {} values, expected {count}",
            row.len()
        )));
    }
    if let Some(d) = row.iter().find(|d| d.is_nan() || **d < 0.0) {
        return Err(SpatialError::Parse(format!(
            "invalid distance {d} in {prefix:?} row"
        )));
    }
    Ok(row)
}

/// Writes an ALT landmark table in the v1 text format.
pub fn write_landmarks<W: Write>(table: &LandmarkTable, out: &mut W) -> std::io::Result<()> {
    writeln!(out, "{LANDMARKS_MAGIC}")?;
    writeln!(out, "metric {}", metric_tag(table.metric()))?;
    writeln!(out, "graph {} {}", table.vertex_count(), table.edge_count())?;
    write!(out, "landmarks {}", table.k())?;
    for l in table.landmarks() {
        write!(out, " {}", l.0)?;
    }
    writeln!(out)?;
    let n = table.vertex_count();
    let (from, to) = table.raw_vectors();
    for l in 0..table.k() {
        for (prefix, vec) in [("F", from), ("T", to)] {
            write!(out, "{prefix}")?;
            for d in &vec[l * n..(l + 1) * n] {
                write!(out, " {d}")?;
            }
            writeln!(out)?;
        }
    }
    Ok(())
}

/// Serialises an ALT landmark table to a `String`.
pub fn landmarks_to_string(table: &LandmarkTable) -> String {
    let mut buf = Vec::new();
    write_landmarks(table, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("format is ASCII")
}

/// Reads an ALT landmark table in the v1 text format. The caller is
/// responsible for attaching it only to the graph it was built for — the
/// embedded fingerprint is re-checked by
/// [`crate::algo::engine::QueryEngine::with_landmarks`].
pub fn read_landmarks<R: BufRead>(input: R) -> Result<LandmarkTable, SpatialError> {
    let mut lines = input.lines();
    let header = next_content_line(&mut lines)?;
    if header != LANDMARKS_MAGIC {
        return Err(SpatialError::Parse(format!("bad header {header:?}")));
    }
    let metric = parse_metric(&next_content_line(&mut lines)?)?;
    let (n, m) = parse_fingerprint(&next_content_line(&mut lines)?)?;
    let lm_line = next_content_line(&mut lines)?;
    let mut it = lm_line.split_ascii_whitespace();
    if it.next() != Some("landmarks") {
        return Err(SpatialError::Parse(format!(
            "expected landmarks line, got {lm_line:?}"
        )));
    }
    let k: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| SpatialError::Parse("bad landmark count".into()))?;
    let landmarks: Vec<VertexId> = it
        .map(|t| t.parse::<u32>().map(VertexId))
        .collect::<Result<_, _>>()
        .map_err(|e| SpatialError::Parse(format!("bad landmark id: {e}")))?;
    if landmarks.len() != k {
        return Err(SpatialError::Parse(format!(
            "landmark line has {} ids, expected {k}",
            landmarks.len()
        )));
    }
    if let Some(l) = landmarks.iter().find(|l| l.index() >= n) {
        return Err(SpatialError::VertexOutOfBounds { vertex: *l, len: n });
    }
    let mut from = Vec::with_capacity(k.saturating_mul(n).min(MAX_PREALLOC));
    let mut to = Vec::with_capacity(k.saturating_mul(n).min(MAX_PREALLOC));
    for _ in 0..k {
        from.extend(parse_f64_row(&next_content_line(&mut lines)?, "F", n)?);
        to.extend(parse_f64_row(&next_content_line(&mut lines)?, "T", n)?);
    }
    Ok(LandmarkTable::from_raw_parts(
        metric, n, m, landmarks, from, to,
    ))
}

/// Parses an ALT landmark table from its v1 text representation.
pub fn landmarks_from_str(s: &str) -> Result<LandmarkTable, SpatialError> {
    read_landmarks(s.as_bytes())
}

/// Writes a contraction hierarchy in the v1 text format: the rank
/// permutation plus the arc pool (`a <from> <to> <weight> e <edge>` for
/// original edges, `a <from> <to> <weight> s <lo> <hi>` for shortcuts).
pub fn write_ch<W: Write>(ch: &ContractionHierarchy, out: &mut W) -> std::io::Result<()> {
    writeln!(out, "{CH_MAGIC}")?;
    writeln!(out, "metric {}", metric_tag(ch.metric()))?;
    writeln!(out, "graph {} {}", ch.vertex_count(), ch.edge_count())?;
    write!(out, "ranks")?;
    for r in ch.ranks() {
        write!(out, " {r}")?;
    }
    writeln!(out)?;
    writeln!(out, "arcs {}", ch.arcs().len())?;
    for arc in ch.arcs() {
        match arc.kind {
            ChArcKind::Original(e) => writeln!(
                out,
                "a {} {} {} e {}",
                arc.from.0, arc.to.0, arc.weight, e.0
            )?,
            ChArcKind::Shortcut(lo, hi) => writeln!(
                out,
                "a {} {} {} s {lo} {hi}",
                arc.from.0, arc.to.0, arc.weight
            )?,
        }
    }
    Ok(())
}

/// Serialises a contraction hierarchy to a `String`.
pub fn ch_to_string(ch: &ContractionHierarchy) -> String {
    let mut buf = Vec::new();
    write_ch(ch, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("format is ASCII")
}

/// Reads a contraction hierarchy in the v1 text format, rebuilding the
/// query-time search graphs. Validates the rank permutation, arc
/// endpoints and shortcut topology (children must precede their
/// shortcut, so unpacking provably terminates); corrupt input yields
/// [`SpatialError::Parse`] instead of an index that would mis-route.
pub fn read_ch<R: BufRead>(input: R) -> Result<ContractionHierarchy, SpatialError> {
    let mut lines = input.lines();
    let header = next_content_line(&mut lines)?;
    if header != CH_MAGIC {
        return Err(SpatialError::Parse(format!("bad header {header:?}")));
    }
    let metric = parse_metric(&next_content_line(&mut lines)?)?;
    let (n, m) = parse_fingerprint(&next_content_line(&mut lines)?)?;
    let rank_line = next_content_line(&mut lines)?;
    let mut it = rank_line.split_ascii_whitespace();
    if it.next() != Some("ranks") {
        return Err(SpatialError::Parse(format!(
            "expected ranks line, got {rank_line:?}"
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
    let arc_count = parse_count(&next_content_line(&mut lines)?, "arcs")?;
    if arc_count < m {
        return Err(SpatialError::Parse(format!(
            "arc pool ({arc_count}) smaller than the edge count ({m})"
        )));
    }
    let mut arcs: Vec<ChArc> = Vec::with_capacity(arc_count.min(MAX_PREALLOC));
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
        if from as usize >= n || to as usize >= n {
            return Err(SpatialError::Parse(format!(
                "arc {i} endpoint out of range ({from} -> {to}, {n} vertices)"
            )));
        }
        let weight = parse_f64(it.next(), "arc weight")?;
        if !weight.is_finite() || weight < 0.0 {
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
            Some("s") => {
                let lo = parse_u32(it.next(), "shortcut child")?;
                let hi = parse_u32(it.next(), "shortcut child")?;
                if lo as usize >= i || hi as usize >= i {
                    return Err(SpatialError::Parse(format!(
                        "shortcut arc {i} references a non-preceding child ({lo}, {hi})"
                    )));
                }
                ChArcKind::Shortcut(lo, hi)
            }
            other => {
                return Err(SpatialError::Parse(format!(
                    "arc {i} has unknown kind {other:?}"
                )))
            }
        };
        arcs.push(ChArc {
            from: VertexId(from),
            to: VertexId(to),
            weight,
            kind,
        });
    }
    Ok(ContractionHierarchy::assemble(metric, m, rank, arcs))
}

/// Parses a contraction hierarchy from its v1 text representation.
pub fn ch_from_str(s: &str) -> Result<ContractionHierarchy, SpatialError> {
    read_ch(s.as_bytes())
}

/// Writes the metric-independent half of a customizable contraction
/// hierarchy ([`CchTopology`]) in the v1 text format: the graph
/// fingerprint, the rank permutation, and one line per chordal arc
/// (`c <from> <to> o <k> <edges…> t <j> <b c …>`) listing its merged
/// original edges and supporting lower triangles. Weights are not
/// stored; customization re-derives them after loading.
pub fn write_cch<W: Write>(topo: &CchTopology, out: &mut W) -> std::io::Result<()> {
    writeln!(out, "{CCH_MAGIC}")?;
    writeln!(out, "graph {} {}", topo.vertex_count(), topo.edge_count())?;
    write!(out, "ranks")?;
    for r in topo.ranks() {
        write!(out, " {r}")?;
    }
    writeln!(out)?;
    writeln!(out, "arcs {}", topo.arc_count())?;
    for (i, (from, to)) in topo.arc_endpoints().iter().enumerate() {
        let originals = topo.originals_of(i);
        let triangles = topo.triangles_of(i);
        write!(out, "c {} {} o {}", from.0, to.0, originals.len())?;
        for e in originals {
            write!(out, " {}", e.0)?;
        }
        write!(out, " t {}", triangles.len())?;
        for &(b, c) in triangles {
            write!(out, " {b} {c}")?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Serialises a CCH topology to a `String`.
pub fn cch_to_string(topo: &CchTopology) -> String {
    let mut buf = Vec::new();
    write_cch(topo, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("format is ASCII")
}

/// Reads a CCH topology in the v1 text format, recomputing elimination
/// levels and rebuilding the search-graph skeleton. Validates the rank
/// permutation, arc endpoints, per-pair arc uniqueness, edge references
/// and triangle structure (each triangle's legs must connect through an
/// intermediate vertex ranked below both endpoints, which is what makes
/// customization well-ordered and unpacking terminate); corrupt input
/// yields [`SpatialError::Parse`] instead of a topology that would
/// mis-route after customization.
pub fn read_cch<R: BufRead>(input: R) -> Result<CchTopology, SpatialError> {
    let mut lines = input.lines();
    let header = next_content_line(&mut lines)?;
    if header != CCH_MAGIC {
        return Err(SpatialError::Parse(format!("bad header {header:?}")));
    }
    let (n, m) = parse_fingerprint(&next_content_line(&mut lines)?)?;
    let rank_line = next_content_line(&mut lines)?;
    let mut it = rank_line.split_ascii_whitespace();
    if it.next() != Some("ranks") {
        return Err(SpatialError::Parse(format!(
            "expected ranks line, got {rank_line:?}"
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
    let arc_count = parse_count(&next_content_line(&mut lines)?, "arcs")?;
    if u32::try_from(arc_count).is_err() {
        return Err(SpatialError::Parse(format!(
            "{arc_count} arcs do not fit 32-bit arc ids"
        )));
    }
    // Flat in file order, as `CchTopology::finalise` takes them: arc
    // endpoints, the arc of every original edge (`u32::MAX`: none, which
    // doubles as the claimed-once check) and `(owner, b, c)` triangles.
    let mut ends: Vec<(VertexId, VertexId)> = Vec::with_capacity(arc_count.min(MAX_PREALLOC));
    let mut edge_arc = vec![u32::MAX; m];
    let mut triangles: Vec<(u32, u32, u32)> = Vec::new();
    let mut seen_pair = std::collections::HashSet::with_capacity(arc_count.min(MAX_PREALLOC));
    for i in 0..arc_count {
        let line = next_content_line(&mut lines)?;
        let mut it = line.split_ascii_whitespace();
        if it.next() != Some("c") {
            return Err(SpatialError::Parse(format!(
                "expected cch arc line {i}, got {line:?}"
            )));
        }
        let from = parse_u32(it.next(), "arc from")?;
        let to = parse_u32(it.next(), "arc to")?;
        if from as usize >= n || to as usize >= n || from == to {
            return Err(SpatialError::Parse(format!(
                "arc {i} has invalid endpoints ({from} -> {to}, {n} vertices)"
            )));
        }
        if !seen_pair.insert((from, to)) {
            return Err(SpatialError::Parse(format!(
                "duplicate arc for vertex pair {from} -> {to}"
            )));
        }
        if it.next() != Some("o") {
            return Err(SpatialError::Parse(format!(
                "arc {i} is missing its originals section"
            )));
        }
        let k = parse_u32(it.next(), "original count")? as usize;
        let mut last = None;
        for _ in 0..k {
            let e = parse_u32(it.next(), "original edge id")?;
            if e as usize >= m {
                return Err(SpatialError::Parse(format!(
                    "arc {i} names edge {e} outside the graph's {m} edges"
                )));
            }
            if edge_arc[e as usize] != u32::MAX {
                return Err(SpatialError::Parse(format!(
                    "edge {e} is claimed by more than one arc"
                )));
            }
            edge_arc[e as usize] = i as u32;
            if last.is_some_and(|l| e <= l) {
                return Err(SpatialError::Parse(format!(
                    "arc {i} original edges are not strictly ascending"
                )));
            }
            last = Some(e);
        }
        if it.next() != Some("t") {
            return Err(SpatialError::Parse(format!(
                "arc {i} is missing its triangles section"
            )));
        }
        let j = parse_u32(it.next(), "triangle count")? as usize;
        if k == 0 && j == 0 {
            return Err(SpatialError::Parse(format!(
                "fill-in arc {i} has no supporting triangle"
            )));
        }
        for _ in 0..j {
            let b = parse_u32(it.next(), "triangle arc")?;
            let c = parse_u32(it.next(), "triangle arc")?;
            // Supporting arcs live at strictly lower elimination levels,
            // and levels are stored contiguously in ascending order, so
            // in a well-formed file both legs precede this arc.
            if b as usize >= i || c as usize >= i {
                return Err(SpatialError::Parse(format!(
                    "arc {i} triangle references a non-preceding arc ({b}, {c})"
                )));
            }
            let (leg_b, leg_c) = (ends[b as usize], ends[c as usize]);
            let via = leg_b.1;
            if leg_b.0 .0 != from || leg_c.1 .0 != to || leg_c.0 != via {
                return Err(SpatialError::Parse(format!(
                    "arc {i} triangle ({b}, {c}) legs do not connect {from} -> {to}"
                )));
            }
            if rank[via.index()] >= rank[from as usize].min(rank[to as usize]) {
                return Err(SpatialError::Parse(format!(
                    "arc {i} triangle intermediate {} is not ranked below both endpoints",
                    via.0
                )));
            }
            triangles.push((i as u32, b, c));
        }
        if it.next().is_some() {
            return Err(SpatialError::Parse(format!("arc {i} has trailing tokens")));
        }
        ends.push((VertexId(from), VertexId(to)));
    }
    let threads = CchConfig::default().threads;
    Ok(CchTopology::finalise(
        rank, ends, edge_arc, triangles, threads,
    ))
}

/// Parses a CCH topology from its v1 text representation.
pub fn cch_from_str(s: &str) -> Result<CchTopology, SpatialError> {
    read_cch(s.as_bytes())
}

/// Writes an imported road network ([`ImportedGraph`]) in the v1 text
/// format: the projection origin, a complete embedded plain-graph
/// section, then one geometry row per edge (`g <k> x1 y1 … xk yk` —
/// the interior points chain contraction folded into the edge).
pub fn write_imported_graph<W: Write>(ig: &ImportedGraph, out: &mut W) -> std::io::Result<()> {
    writeln!(out, "{IMPORTED_MAGIC}")?;
    writeln!(out, "origin {} {}", ig.projection.lat0, ig.projection.lon0)?;
    write_graph(&ig.graph, out)?;
    writeln!(out, "geometry {}", ig.edge_geometry.len())?;
    for geom in &ig.edge_geometry {
        write!(out, "g {}", geom.len())?;
        for p in geom {
            write!(out, " {} {}", p.x, p.y)?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Serialises an imported road network to a `String`.
pub fn imported_to_string(ig: &ImportedGraph) -> String {
    let mut buf = Vec::new();
    write_imported_graph(ig, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("format is ASCII")
}

/// Reads an imported road network in the v1 text format. Import-time
/// pipeline statistics are not persisted; the returned
/// [`ImportedGraph::stats`] carries only what the file itself knows
/// (final counts and total length).
pub fn read_imported_graph<R: BufRead>(input: R) -> Result<ImportedGraph, SpatialError> {
    let mut lines = input.lines();
    let header = next_content_line(&mut lines)?;
    if header != IMPORTED_MAGIC {
        return Err(SpatialError::Parse(format!("bad header {header:?}")));
    }
    let origin = next_content_line(&mut lines)?;
    let mut it = origin.split_ascii_whitespace();
    if it.next() != Some("origin") {
        return Err(SpatialError::Parse(format!(
            "expected origin line, got {origin:?}"
        )));
    }
    let lat0 = parse_f64(it.next(), "origin latitude")?;
    let lon0 = parse_f64(it.next(), "origin longitude")?;
    if !crate::geo::valid_lat_lon(lat0, lon0) {
        return Err(SpatialError::Parse(format!(
            "origin ({lat0}, {lon0}) out of range"
        )));
    }
    let graph = read_graph_body(&mut lines)?;
    let gcount = parse_count(&next_content_line(&mut lines)?, "geometry")?;
    if gcount != graph.edge_count() {
        return Err(SpatialError::Parse(format!(
            "geometry section has {gcount} rows, graph has {} edges",
            graph.edge_count()
        )));
    }
    let mut edge_geometry: Vec<Vec<Point>> = Vec::with_capacity(gcount.min(MAX_PREALLOC));
    for i in 0..gcount {
        let line = next_content_line(&mut lines)?;
        let mut it = line.split_ascii_whitespace();
        if it.next() != Some("g") {
            return Err(SpatialError::Parse(format!(
                "expected geometry row {i}, got {line:?}"
            )));
        }
        let k: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| SpatialError::Parse(format!("bad point count in geometry row {i}")))?;
        let mut pts = Vec::with_capacity(k.min(MAX_PREALLOC));
        for _ in 0..k {
            let x = parse_f64(it.next(), "geometry x")?;
            let y = parse_f64(it.next(), "geometry y")?;
            if !x.is_finite() || !y.is_finite() {
                return Err(SpatialError::Parse(format!(
                    "non-finite geometry point in row {i}"
                )));
            }
            pts.push(Point::new(x, y));
        }
        if it.next().is_some() {
            return Err(SpatialError::Parse(format!(
                "geometry row {i} has more than {k} points"
            )));
        }
        edge_geometry.push(pts);
    }
    // The geometry section is the end of the format: trailing content
    // (a doubled file, a stale second graph) is corruption, not slack.
    if let Ok(extra) = next_content_line(&mut lines) {
        return Err(SpatialError::Parse(format!(
            "trailing content after the geometry section: {extra:?}"
        )));
    }
    let stats = ImportStats {
        final_vertices: graph.vertex_count(),
        final_edges: graph.edge_count(),
        total_km: graph.total_length_m() / 1000.0,
        ..ImportStats::default()
    };
    Ok(ImportedGraph {
        graph,
        edge_geometry,
        projection: LocalProjection::new(lat0, lon0),
        stats,
    })
}

/// Parses an imported road network from its v1 text representation.
pub fn imported_from_str(s: &str) -> Result<ImportedGraph, SpatialError> {
    read_imported_graph(s.as_bytes())
}

/// How [`load_graph_auto`] recognised a network file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFileKind {
    /// A plain `pathrank-graph v1` file (no geometry, no projection).
    PlainText,
    /// A persisted `pathrank-osm-graph v1` import.
    Imported,
    /// Raw OSM XML, imported on the fly with [`ImportConfig::default`].
    OsmXml,
}

impl GraphFileKind {
    /// Human-readable label (used by the bench binaries' JSON).
    pub fn label(self) -> &'static str {
        match self {
            GraphFileKind::PlainText => "plain",
            GraphFileKind::Imported => "imported",
            GraphFileKind::OsmXml => "osm_xml",
        }
    }
}

/// A network loaded by [`load_graph_auto`]: the graph plus, when the
/// source carried them, the imported extras (geometry, projection,
/// import stats). The graph is stored exactly once — use
/// [`LoadedGraph::into_imported`] to reassemble an [`ImportedGraph`]
/// when the extras are present.
#[derive(Debug)]
pub struct LoadedGraph {
    /// The routable graph.
    pub graph: Graph,
    /// How the file was recognised.
    pub kind: GraphFileKind,
    /// Per-edge interior geometry, absent for plain graph files.
    pub geometry: Option<Vec<Vec<Point>>>,
    /// The lat/lon ↔ planar projection, absent for plain graph files.
    pub projection: Option<LocalProjection>,
    /// Import pipeline statistics (on-the-fly XML imports only; a
    /// persisted import records final counts, a plain file nothing).
    pub stats: Option<ImportStats>,
}

impl LoadedGraph {
    /// Reassembles the [`ImportedGraph`] when the source carried the
    /// imported extras (`None` for plain graph files). Consumes `self`
    /// so the graph is moved, never duplicated.
    pub fn into_imported(self) -> Option<ImportedGraph> {
        match (self.geometry, self.projection) {
            (Some(edge_geometry), Some(projection)) => Some(ImportedGraph {
                graph: self.graph,
                edge_geometry,
                projection,
                stats: self.stats.unwrap_or_default(),
            }),
            _ => None,
        }
    }
}

/// Loads a road network from `path`, sniffing the format off the first
/// buffered bytes: a persisted import (`pathrank-osm-graph v1`), a
/// plain graph (`pathrank-graph v1`), or raw OSM XML (anything starting
/// with `<`), which is imported on the fly with the default
/// [`ImportConfig`]. All three paths stream through the same
/// [`std::io::BufReader`] — a country-scale `.osm.xml` is never
/// materialised in memory. Every bench / CLI `--graph` flag goes
/// through here, so the three spellings of "a real network" are
/// interchangeable.
pub fn load_graph_auto(path: &std::path::Path) -> Result<LoadedGraph, SpatialError> {
    use std::io::BufRead as _;
    let file = std::fs::File::open(path)
        .map_err(|e| SpatialError::Parse(format!("cannot read {}: {e}", path.display())))?;
    let mut reader = std::io::BufReader::new(file);
    // Peek without consuming: the magic lines fit comfortably inside
    // the first buffered block.
    let head = reader
        .fill_buf()
        .map_err(|e| SpatialError::Parse(format!("cannot read {}: {e}", path.display())))?;
    let start = head
        .iter()
        .position(|b| !b.is_ascii_whitespace())
        .unwrap_or(head.len());
    let head = &head[start..];
    if head.starts_with(IMPORTED_MAGIC.as_bytes()) {
        let ig = read_imported_graph(reader)?;
        Ok(LoadedGraph {
            graph: ig.graph,
            kind: GraphFileKind::Imported,
            geometry: Some(ig.edge_geometry),
            projection: Some(ig.projection),
            stats: Some(ig.stats),
        })
    } else if head.starts_with(MAGIC.as_bytes()) {
        Ok(LoadedGraph {
            graph: read_graph(reader)?,
            kind: GraphFileKind::PlainText,
            geometry: None,
            projection: None,
            stats: None,
        })
    } else if head.first() == Some(&b'<') {
        let data = crate::osm::parse_osm_xml(reader)?;
        let ig = crate::osm::import_osm(&data, &ImportConfig::default())?;
        Ok(LoadedGraph {
            graph: ig.graph,
            kind: GraphFileKind::OsmXml,
            geometry: Some(ig.edge_geometry),
            projection: Some(ig.projection),
            stats: Some(ig.stats),
        })
    } else {
        Err(SpatialError::Parse(format!(
            "{}: not a pathrank graph, a persisted import or OSM XML",
            path.display()
        )))
    }
}

/// 24-byte magic of the frozen binary section format: the version
/// string NUL-padded to an 8-byte-aligned width, so every payload that
/// follows the fixed-width header starts aligned.
const FROZEN_MAGIC: &[u8; 24] = b"pathrank-frozen v1\0\0\0\0\0\0";

/// Section tags of the frozen binary format, in file order.
const FROZEN_SECTION_TAGS: [u64; 4] = [1, 2, 3, 4];

/// FNV-1a 64-bit — the trailer checksum of the frozen binary format
/// (dependency-free, byte-order independent, catches the truncations
/// and bit flips a section-table parse alone would miss).
fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Rounds `x` up to the next multiple of 8 (section payloads are padded
/// so every section starts 8-byte aligned — the precondition for a
/// future zero-copy arc-array mapping).
fn align8(x: usize) -> usize {
    (x + 7) & !7
}

/// Serialises a [`FrozenGraph`] to the v1 binary section format.
///
/// Layout, all integers little-endian:
///
/// ```text
/// [ 0..24)  magic "pathrank-frozen v1" NUL-padded
/// [24..56)  header: vertex_count, edge_count, weights_epoch,
///           section_count (4) — four u64s
/// [56..152) section table: 4 × (tag, absolute offset, byte len) u64s
///           tag 1 coords_f32   n × (f32, f32)
///           tag 2 fwd_offsets  (n + 1) × u32
///           tag 3 bwd_offsets  (n + 1) × u32
///           tag 4 arcs         2m × (u32 target, u32 edge_id,
///                                    f64 length_m, f64 travel_time_s)
/// [152.. )  payloads in tag order, each zero-padded to 8-byte alignment
/// [-8..  )  FNV-1a-64 checksum over every preceding byte
/// ```
///
/// The writer is fully deterministic (fixed widths, fixed order), so
/// serialising a reloaded graph reproduces the input byte-for-byte.
pub fn frozen_to_bytes(fz: &FrozenGraph) -> Vec<u8> {
    let n = fz.vertex_count();
    let m = fz.edge_count();
    let coords_len = n * 8;
    let offs_len = (n + 1) * 4;
    let arcs_len = 2 * m * 24;
    let table_end = 24 + 32 + FROZEN_SECTION_TAGS.len() * 24;
    debug_assert_eq!(table_end % 8, 0);
    let coords_off = table_end;
    let fwd_off = coords_off + align8(coords_len);
    let bwd_off = fwd_off + align8(offs_len);
    let arcs_off = bwd_off + align8(offs_len);
    let total = arcs_off + align8(arcs_len) + 8;

    let mut buf = Vec::with_capacity(total);
    buf.extend_from_slice(FROZEN_MAGIC);
    for v in [
        n as u64,
        m as u64,
        fz.weights_epoch(),
        FROZEN_SECTION_TAGS.len() as u64,
    ] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    for (tag, off, len) in [
        (FROZEN_SECTION_TAGS[0], coords_off, coords_len),
        (FROZEN_SECTION_TAGS[1], fwd_off, offs_len),
        (FROZEN_SECTION_TAGS[2], bwd_off, offs_len),
        (FROZEN_SECTION_TAGS[3], arcs_off, arcs_len),
    ] {
        buf.extend_from_slice(&tag.to_le_bytes());
        buf.extend_from_slice(&(off as u64).to_le_bytes());
        buf.extend_from_slice(&(len as u64).to_le_bytes());
    }
    debug_assert_eq!(buf.len(), coords_off);
    for &(x, y) in fz.coords_f32() {
        buf.extend_from_slice(&x.to_le_bytes());
        buf.extend_from_slice(&y.to_le_bytes());
    }
    buf.resize(fwd_off, 0);
    for &o in &fz.fwd_offsets {
        buf.extend_from_slice(&o.to_le_bytes());
    }
    buf.resize(bwd_off, 0);
    for &o in &fz.bwd_offsets {
        buf.extend_from_slice(&o.to_le_bytes());
    }
    buf.resize(arcs_off, 0);
    for a in &fz.arcs {
        buf.extend_from_slice(&a.target.to_le_bytes());
        buf.extend_from_slice(&a.edge_id.to_le_bytes());
        buf.extend_from_slice(&a.length_m.to_le_bytes());
        buf.extend_from_slice(&a.travel_time_s.to_le_bytes());
    }
    buf.resize(total - 8, 0);
    let checksum = fnv1a64(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// Writes a [`FrozenGraph`] in the v1 binary section format (see
/// [`frozen_to_bytes`] for the layout).
pub fn write_frozen<W: Write>(fz: &FrozenGraph, out: &mut W) -> std::io::Result<()> {
    out.write_all(&frozen_to_bytes(fz))
}

/// Parses a [`FrozenGraph`] from its v1 binary representation,
/// validating the magic, the trailer checksum, every section bound and
/// every record; any mismatch is [`SpatialError::Parse`].
pub fn frozen_from_bytes(data: &[u8]) -> Result<FrozenGraph, SpatialError> {
    let parse = |msg: String| SpatialError::Parse(msg);
    let table_end = 24 + 32 + FROZEN_SECTION_TAGS.len() * 24;
    if data.len() < table_end + 8 {
        return Err(parse(format!(
            "frozen section too short: {} bytes",
            data.len()
        )));
    }
    if &data[..24] != FROZEN_MAGIC {
        return Err(parse("bad frozen magic".into()));
    }
    let body = &data[..data.len() - 8];
    let stored = u64::from_le_bytes(data[data.len() - 8..].try_into().expect("8 bytes"));
    if fnv1a64(body) != stored {
        return Err(parse("frozen checksum mismatch".into()));
    }
    let rd_u64 = |off: usize| u64::from_le_bytes(data[off..off + 8].try_into().expect("8 bytes"));
    let n = usize::try_from(rd_u64(24)).map_err(|_| parse("vertex count overflow".into()))?;
    let m = usize::try_from(rd_u64(32)).map_err(|_| parse("edge count overflow".into()))?;
    let weights_epoch = rd_u64(40);
    if rd_u64(48) != FROZEN_SECTION_TAGS.len() as u64 {
        return Err(parse(format!("unexpected section count {}", rd_u64(48))));
    }
    // Expected exact payload sizes; checked arithmetic so a corrupt
    // count cannot overflow the bounds checks below.
    let coords_len = n
        .checked_mul(8)
        .ok_or_else(|| parse("coords overflow".into()))?;
    let offs_len = n
        .checked_add(1)
        .and_then(|c| c.checked_mul(4))
        .ok_or_else(|| parse("offsets overflow".into()))?;
    let arcs_len = m
        .checked_mul(48)
        .ok_or_else(|| parse("arcs overflow".into()))?;
    let expected_lens = [coords_len, offs_len, offs_len, arcs_len];

    let mut sections = [(0usize, 0usize); 4];
    let mut cursor = table_end;
    for (i, section) in sections.iter_mut().enumerate() {
        let base = 56 + i * 24;
        let tag = rd_u64(base);
        if tag != FROZEN_SECTION_TAGS[i] {
            return Err(parse(format!("section {i}: unexpected tag {tag}")));
        }
        let off = usize::try_from(rd_u64(base + 8))
            .map_err(|_| parse(format!("section {i}: offset overflow")))?;
        let len = usize::try_from(rd_u64(base + 16))
            .map_err(|_| parse(format!("section {i}: length overflow")))?;
        if off % 8 != 0 || off != cursor {
            return Err(parse(format!("section {i}: misaligned offset {off}")));
        }
        if len != expected_lens[i] {
            return Err(parse(format!(
                "section {i}: {len} bytes, expected {}",
                expected_lens[i]
            )));
        }
        if off
            .checked_add(align8(len))
            .is_none_or(|end| end > body.len())
        {
            return Err(parse(format!("section {i}: out of bounds")));
        }
        *section = (off, len);
        cursor = off + align8(len);
    }
    if cursor + 8 != data.len() {
        return Err(parse(format!(
            "trailing bytes after frozen sections: {} of {}",
            cursor + 8,
            data.len()
        )));
    }

    let (coords_off, _) = sections[0];
    let mut coords_f32 = Vec::with_capacity(n);
    for i in 0..n {
        let base = coords_off + i * 8;
        let x = f32::from_le_bytes(data[base..base + 4].try_into().expect("4 bytes"));
        let y = f32::from_le_bytes(data[base + 4..base + 8].try_into().expect("4 bytes"));
        if !x.is_finite() || !y.is_finite() {
            return Err(parse(format!("vertex {i}: non-finite coordinate")));
        }
        coords_f32.push((x, y));
    }

    let read_offsets = |off: usize, first: u32, last: u32| -> Result<Vec<u32>, SpatialError> {
        let mut out = Vec::with_capacity(n + 1);
        for i in 0..=n {
            let base = off + i * 4;
            let v = u32::from_le_bytes(data[base..base + 4].try_into().expect("4 bytes"));
            if let Some(&prev) = out.last() {
                if v < prev {
                    return Err(parse(format!("offset {i}: {v} not monotone")));
                }
            }
            out.push(v);
        }
        if out[0] != first || out[n] != last {
            return Err(parse(format!(
                "offset range [{}, {}] does not span [{first}, {last}]",
                out[0], out[n]
            )));
        }
        Ok(out)
    };
    let two_m = u32::try_from(2 * m).map_err(|_| parse("arc count overflow".into()))?;
    let fwd_offsets = read_offsets(sections[1].0, 0, two_m / 2)?;
    let bwd_offsets = read_offsets(sections[2].0, two_m / 2, two_m)?;

    let (arcs_off, _) = sections[3];
    let mut arcs = Vec::with_capacity(2 * m);
    for i in 0..2 * m {
        let base = arcs_off + i * 24;
        let target = u32::from_le_bytes(data[base..base + 4].try_into().expect("4 bytes"));
        let edge_id = u32::from_le_bytes(data[base + 4..base + 8].try_into().expect("4 bytes"));
        let length_m = f64::from_le_bytes(data[base + 8..base + 16].try_into().expect("8 bytes"));
        let travel_time_s =
            f64::from_le_bytes(data[base + 16..base + 24].try_into().expect("8 bytes"));
        if target as usize >= n {
            return Err(parse(format!("arc {i}: target {target} out of range")));
        }
        if edge_id as usize >= m {
            return Err(parse(format!("arc {i}: edge id {edge_id} out of range")));
        }
        if !(length_m.is_finite() && length_m > 0.0) {
            return Err(parse(format!("arc {i}: invalid length {length_m}")));
        }
        if !(travel_time_s.is_finite() && travel_time_s > 0.0) {
            return Err(parse(format!(
                "arc {i}: invalid travel time {travel_time_s}"
            )));
        }
        arcs.push(FrozenArc {
            target,
            edge_id,
            length_m,
            travel_time_s,
        });
    }

    Ok(FrozenGraph {
        vertex_count: u32::try_from(n).map_err(|_| parse("vertex count overflow".into()))?,
        edge_count: u32::try_from(m).map_err(|_| parse("edge count overflow".into()))?,
        fwd_offsets,
        bwd_offsets,
        arcs,
        coords_f32,
        weights_epoch,
    })
}

/// Reads a [`FrozenGraph`] in the v1 binary section format.
pub fn read_frozen<R: std::io::Read>(mut input: R) -> Result<FrozenGraph, SpatialError> {
    let mut data = Vec::new();
    input
        .read_to_end(&mut data)
        .map_err(|e| SpatialError::Parse(e.to_string()))?;
    frozen_from_bytes(&data)
}

fn parse_count(line: &str, keyword: &str) -> Result<usize, SpatialError> {
    let mut it = line.split_ascii_whitespace();
    if it.next() != Some(keyword) {
        return Err(SpatialError::Parse(format!(
            "expected {keyword:?} line, got {line:?}"
        )));
    }
    it.next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| SpatialError::Parse(format!("bad count in {line:?}")))
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

    #[test]
    fn roundtrip_grid() {
        let g = grid_network(&GridConfig::small_test(), 13);
        let text = graph_to_string(&g);
        let back = graph_from_str(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn roundtrip_region() {
        let g = region_network(&RegionConfig::small_test(), 13);
        let back = graph_from_str(&graph_to_string(&g)).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(graph_from_str("nonsense").is_err());
        assert!(graph_from_str("pathrank-graph v0\nvertices 0\nedges 0\n").is_err());
    }

    #[test]
    fn rejects_truncated_input() {
        let g = grid_network(&GridConfig::small_test(), 13);
        let text = graph_to_string(&g);
        let cut = &text[..text.len() / 2];
        assert!(graph_from_str(cut).is_err());
    }

    #[test]
    fn rejects_malformed_edges() {
        let bad = "pathrank-graph v1\nvertices 2\nv 0 0\nv 1 0\nedges 1\ne 0 5 10 50 R\n";
        assert!(graph_from_str(bad).is_err());
        let bad_tag = "pathrank-graph v1\nvertices 2\nv 0 0\nv 1 0\nedges 1\ne 0 1 10 50 X\n";
        assert!(graph_from_str(bad_tag).is_err());
    }

    #[test]
    fn tolerates_blank_lines() {
        let g = grid_network(&GridConfig::small_test(), 13);
        let text = graph_to_string(&g).replace('\n', "\n\n");
        assert_eq!(graph_from_str(&text).unwrap(), g);
    }

    mod frozen_bin {
        use super::*;
        use crate::frozen::FrozenGraph;

        fn frozen() -> FrozenGraph {
            FrozenGraph::freeze(&region_network(&RegionConfig::small_test(), 23))
        }

        #[test]
        fn frozen_roundtrip_is_bit_identical_and_byte_stable() {
            let fz = frozen();
            let bytes = frozen_to_bytes(&fz);
            let back = frozen_from_bytes(&bytes).unwrap();
            // PartialEq covers every field, including f64 weight bits.
            assert_eq!(back, fz);
            // Deterministic writer: the second trip reproduces the bytes.
            assert_eq!(frozen_to_bytes(&back), bytes);
            // The streaming entry points agree with the in-memory ones.
            let mut out = Vec::new();
            write_frozen(&fz, &mut out).unwrap();
            assert_eq!(out, bytes);
            assert_eq!(read_frozen(&bytes[..]).unwrap(), fz);
        }

        #[test]
        fn frozen_rejects_corrupt_input() {
            let fz = frozen();
            let bytes = frozen_to_bytes(&fz);
            // Truncations at every structural boundary.
            for cut in [0, 10, 24, 55, 151, bytes.len() / 2, bytes.len() - 1] {
                assert!(frozen_from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
            }
            // Any single bit flip trips the checksum (or a field check).
            for pos in [0, 30, 60, 200, bytes.len() - 20, bytes.len() - 1] {
                let mut bad = bytes.clone();
                bad[pos] ^= 0x40;
                assert!(frozen_from_bytes(&bad).is_err(), "flip at {pos}");
            }
            // Wrong magic version.
            let mut bad = bytes.clone();
            bad[..24].copy_from_slice(b"pathrank-frozen v9\0\0\0\0\0\0");
            assert!(frozen_from_bytes(&bad).is_err());
            // Trailing content is corruption, not slack.
            let mut doubled = bytes.clone();
            doubled.extend_from_slice(&bytes);
            assert!(frozen_from_bytes(&doubled).is_err());
            let mut padded = bytes.clone();
            padded.extend_from_slice(&[0u8; 8]);
            assert!(frozen_from_bytes(&padded).is_err());
            // The text readers refuse the binary section and vice versa.
            assert!(graph_from_str(std::str::from_utf8(&bytes[..24]).unwrap_or("x")).is_err());
        }

        #[test]
        fn frozen_empty_graph_roundtrips() {
            let fz = FrozenGraph::freeze(&GraphBuilder::new().build());
            let bytes = frozen_to_bytes(&fz);
            assert_eq!(frozen_from_bytes(&bytes).unwrap(), fz);
        }
    }

    mod imported {
        use super::*;
        use crate::osm::synth::{synthetic_city, write_osm_xml, SynthCityConfig};
        use crate::osm::{import_osm_str, ImportConfig, ImportedGraph};

        fn city() -> ImportedGraph {
            let xml = write_osm_xml(&synthetic_city(&SynthCityConfig::default(), 13));
            import_osm_str(&xml, &ImportConfig::default()).unwrap()
        }

        #[test]
        fn imported_roundtrip_is_bit_identical() {
            let ig = city();
            let text = imported_to_string(&ig);
            let back = imported_from_str(&text).unwrap();
            // Shortest-Display floats survive the text round-trip
            // bit-for-bit: graph equality is exact.
            assert_eq!(back.graph, ig.graph);
            assert_eq!(back.edge_geometry, ig.edge_geometry);
            assert_eq!(back.projection.lat0, ig.projection.lat0);
            assert_eq!(back.projection.lon0, ig.projection.lon0);
            // And a second round-trip is byte-stable.
            assert_eq!(imported_to_string(&back), text);
        }

        #[test]
        fn corrupt_imported_input_is_rejected() {
            let ig = city();
            let text = imported_to_string(&ig);
            assert!(imported_from_str(&text[..text.len() / 2]).is_err());
            assert!(imported_from_str(&text[..text.len() * 9 / 10]).is_err());
            assert!(imported_from_str("pathrank-osm-graph v0\n").is_err());
            // An out-of-range origin.
            let lat0 = ig.projection.lat0;
            let bad = text.replace(&format!("origin {lat0}"), "origin 777");
            assert!(imported_from_str(&bad).is_err());
            // A geometry count that disagrees with the edge count.
            let bad = text.replace(&format!("geometry {}", ig.graph.edge_count()), "geometry 3");
            assert!(imported_from_str(&bad).is_err());
            // A non-finite geometry point.
            let row = text
                .lines()
                .find(|l| l.starts_with("g ") && !l.ends_with("g 0"))
                .unwrap()
                .to_string();
            let mut toks: Vec<String> = row.split_ascii_whitespace().map(str::to_string).collect();
            if toks.len() > 2 {
                toks[2] = "NaN".into();
                assert!(imported_from_str(&text.replace(&row, &toks.join(" "))).is_err());
            }
            // Feeding the plain-graph reader an imported file (and vice
            // versa) fails on the header.
            assert!(graph_from_str(&text).is_err());
            assert!(imported_from_str(&graph_to_string(&ig.graph)).is_err());
            // Trailing content (an accidentally doubled file) is
            // corruption, not slack.
            let doubled = format!("{text}{text}");
            assert!(imported_from_str(&doubled).is_err());
            assert!(imported_from_str(&format!("{text}\nextra stuff\n")).is_err());
        }

        #[test]
        fn load_graph_auto_sniffs_all_three_formats() {
            let dir = std::env::temp_dir().join(format!("pathrank-io-test-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let ig = city();

            let xml_path = dir.join("city.osm.xml");
            std::fs::write(
                &xml_path,
                write_osm_xml(&synthetic_city(&SynthCityConfig::default(), 13)),
            )
            .unwrap();
            let from_xml = load_graph_auto(&xml_path).unwrap();
            assert_eq!(from_xml.kind, GraphFileKind::OsmXml);
            assert_eq!(from_xml.graph, ig.graph);
            assert!(from_xml.geometry.is_some() && from_xml.projection.is_some());
            let reassembled = from_xml.into_imported().unwrap();
            assert_eq!(reassembled.edge_geometry, ig.edge_geometry);

            let imp_path = dir.join("city.graph");
            std::fs::write(&imp_path, imported_to_string(&ig)).unwrap();
            let from_imp = load_graph_auto(&imp_path).unwrap();
            assert_eq!(from_imp.kind, GraphFileKind::Imported);
            assert_eq!(from_imp.graph, ig.graph);

            let plain_path = dir.join("city.plain");
            std::fs::write(&plain_path, graph_to_string(&ig.graph)).unwrap();
            let from_plain = load_graph_auto(&plain_path).unwrap();
            assert_eq!(from_plain.kind, GraphFileKind::PlainText);
            assert_eq!(from_plain.graph, ig.graph);
            assert!(from_plain.into_imported().is_none());

            let junk_path = dir.join("junk");
            std::fs::write(&junk_path, "not a graph at all").unwrap();
            assert!(load_graph_auto(&junk_path).is_err());
            assert!(load_graph_auto(&dir.join("missing")).is_err());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    mod indexes {
        use super::*;
        use crate::algo::cch::{CchConfig, CchTopology};
        use crate::algo::ch::{ChConfig, ChSearch, ContractionHierarchy};
        use crate::algo::engine::QueryEngine;
        use crate::algo::landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable};
        use crate::graph::{CostModel, VertexId};
        use std::sync::Arc;

        fn region() -> Graph {
            region_network(&RegionConfig::small_test(), 23)
        }

        #[test]
        fn landmarks_roundtrip_bit_identical() {
            let g = region();
            for metric in [LandmarkMetric::Length, LandmarkMetric::TravelTime] {
                let table = LandmarkTable::build(&g, metric, &LandmarkConfig::default());
                let text = landmarks_to_string(&table);
                let back = landmarks_from_str(&text).unwrap();
                assert_eq!(back.metric(), table.metric());
                assert_eq!(back.vertex_count(), table.vertex_count());
                assert_eq!(back.edge_count(), table.edge_count());
                assert_eq!(back.landmarks(), table.landmarks());
                for l in 0..table.k() {
                    for v in g.vertices() {
                        assert_eq!(
                            back.from_landmark(l, v).to_bits(),
                            table.from_landmark(l, v).to_bits(),
                            "forward vector diverged after round-trip"
                        );
                        assert_eq!(
                            back.to_landmark(l, v).to_bits(),
                            table.to_landmark(l, v).to_bits(),
                            "backward vector diverged after round-trip"
                        );
                    }
                }
            }
        }

        #[test]
        fn reloaded_landmarks_serve_identical_queries() {
            let g = region();
            let table =
                LandmarkTable::build(&g, LandmarkMetric::Length, &LandmarkConfig::default());
            let reloaded = landmarks_from_str(&landmarks_to_string(&table)).unwrap();
            let mut a = QueryEngine::new(&g).with_landmarks(Arc::new(table));
            let mut b = QueryEngine::new(&g).with_landmarks(Arc::new(reloaded));
            assert!(b.uses_alt(CostModel::Length));
            let n = g.vertex_count() as u32;
            for (s, t) in [(0, n - 1), (n / 2, 1), (n / 3, 2 * n / 3)] {
                let (s, t) = (VertexId(s), VertexId(t));
                let pa = a.astar_shortest_path(s, t, CostModel::Length);
                let pb = b.astar_shortest_path(s, t, CostModel::Length);
                assert_eq!(
                    pa.map(|p| p.edges().to_vec()),
                    pb.map(|p| p.edges().to_vec()),
                    "reloaded table changed an answer"
                );
            }
        }

        #[test]
        fn ch_roundtrip_serves_identical_queries() {
            // Both build metrics — the TravelTime hierarchy (fastest-path
            // serving) persists through exactly the same format.
            let g = region();
            for metric in [LandmarkMetric::Length, LandmarkMetric::TravelTime] {
                let ch = ContractionHierarchy::build(&g, metric, &ChConfig::default());
                let text = ch_to_string(&ch);
                let back = ch_from_str(&text).unwrap();
                assert_eq!(back.metric(), ch.metric());
                assert_eq!(back.vertex_count(), ch.vertex_count());
                assert_eq!(back.edge_count(), ch.edge_count());
                assert_eq!(back.shortcut_count(), ch.shortcut_count());
                assert_eq!(back.ranks(), ch.ranks());
                let mut sa = ChSearch::new(g.vertex_count());
                let mut sb = ChSearch::new(g.vertex_count());
                let n = g.vertex_count() as u32;
                for (s, t) in [(0, n - 1), (n / 2, 1), (n - 1, n / 3), (3, n - 2)] {
                    let (s, t) = (VertexId(s), VertexId(t));
                    let ea = ch.view().query_edges(&mut sa, s, t).map(<[_]>::to_vec);
                    let eb = back.view().query_edges(&mut sb, s, t).map(<[_]>::to_vec);
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
            let table =
                LandmarkTable::build(&g, LandmarkMetric::Length, &LandmarkConfig::default());
            let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
            // Wrong or missing versions are rejected outright.
            assert!(landmarks_from_str("pathrank-landmarks v0\n").is_err());
            assert!(ch_from_str("pathrank-ch v0\n").is_err());
            // Feeding one format to the other reader fails on the header.
            assert!(landmarks_from_str(&ch_to_string(&ch)).is_err());
            assert!(ch_from_str(&landmarks_to_string(&table)).is_err());
        }

        #[test]
        fn corrupt_landmark_input_is_rejected() {
            let g = region();
            let table =
                LandmarkTable::build(&g, LandmarkMetric::Length, &LandmarkConfig::default());
            let text = landmarks_to_string(&table);
            // Truncation (anywhere) must error, never mis-build.
            assert!(landmarks_from_str(&text[..text.len() / 2]).is_err());
            assert!(landmarks_from_str(&text[..text.len() * 9 / 10]).is_err());
            // A tampered metric tag.
            assert!(landmarks_from_str(&text.replace("metric length", "metric banana")).is_err());
            // A landmark id outside the graph.
            let k_line = format!("landmarks {}", table.k());
            let bad = text.replace(&k_line, &format!("landmarks {} 99999", table.k() - 1));
            assert!(landmarks_from_str(&bad).is_err());
            // A NaN or negative distance smuggled into a row: either
            // would silently break the triangle bounds' admissibility,
            // so both must be parse errors.
            for bad_value in ["NaN", "-1e9"] {
                let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
                let f_row = lines.iter().position(|l| l.starts_with('F')).unwrap();
                let mut toks: Vec<&str> = lines[f_row].split_ascii_whitespace().collect();
                toks[1] = bad_value;
                lines[f_row] = toks.join(" ");
                assert!(
                    landmarks_from_str(&lines.join("\n")).is_err(),
                    "{bad_value} distance must be rejected"
                );
            }
            // A header claiming an absurd element count must error (on
            // truncation), not abort on a huge preallocation.
            let huge = text.replace(
                &format!("graph {} {}", g.vertex_count(), g.edge_count()),
                "graph 999999999999 5",
            );
            assert!(landmarks_from_str(&huge).is_err());
        }

        #[test]
        fn corrupt_ch_input_is_rejected() {
            let g = region();
            let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
            let text = ch_to_string(&ch);
            assert!(ch_from_str(&text[..text.len() / 2]).is_err());
            // An absurd arc count errors on truncation instead of
            // aborting on a huge preallocation.
            let arcs_line = format!("arcs {}", ch.arcs().len());
            let huge = text.replace(&arcs_line, "arcs 18446744073709551615");
            assert!(ch_from_str(&huge).is_err());
            // A rank out of range / duplicated breaks the permutation.
            let ranks_line = text
                .lines()
                .find(|l| l.starts_with("ranks"))
                .unwrap()
                .to_string();
            let mut toks: Vec<&str> = ranks_line.split_ascii_whitespace().collect();
            toks[1] = "999999";
            assert!(ch_from_str(&text.replace(&ranks_line, &toks.join(" "))).is_err());
            let dup = {
                let mut t: Vec<&str> = ranks_line.split_ascii_whitespace().collect();
                t[1] = t[2];
                text.replace(&ranks_line, &t.join(" "))
            };
            assert!(ch_from_str(&dup).is_err());
            // A shortcut referencing a later arc (expansion would not
            // terminate) is rejected by the topology check.
            let shortcut_line = text
                .lines()
                .find(|l| l.starts_with('a') && l.contains(" s "))
                .expect("region CH has shortcuts")
                .to_string();
            let mut toks: Vec<String> = shortcut_line
                .split_ascii_whitespace()
                .map(str::to_string)
                .collect();
            toks[5] = format!("{}", ch.arcs().len() + 7);
            assert!(ch_from_str(&text.replace(&shortcut_line, &toks.join(" "))).is_err());
            // Negative or non-finite weights are rejected.
            let arc_line = text
                .lines()
                .find(|l| l.starts_with("a "))
                .unwrap()
                .to_string();
            let mut toks: Vec<String> = arc_line
                .split_ascii_whitespace()
                .map(str::to_string)
                .collect();
            toks[3] = "-5".into();
            assert!(ch_from_str(&text.replace(&arc_line, &toks.join(" "))).is_err());
        }

        #[test]
        fn cch_roundtrip_is_byte_stable_and_customizes_identically() {
            let g = region();
            let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
            let text = cch_to_string(&topo);
            let back = Arc::new(cch_from_str(&text).unwrap());
            // Arcs are stored level-sorted, and reloading preserves that
            // order, so re-serialising must reproduce the exact bytes.
            assert_eq!(cch_to_string(&back), text, "round-trip is not byte-stable");
            assert_eq!(back.ranks(), topo.ranks());
            assert_eq!(back.arc_count(), topo.arc_count());
            assert_eq!(back.fill_in_count(), topo.fill_in_count());
            assert_eq!(back.triangle_count(), topo.triangle_count());
            // Weights are not persisted: customization on the reloaded
            // topology must reproduce the original answers bit for bit.
            let n = g.vertex_count() as u32;
            for metric in [LandmarkMetric::Length, LandmarkMetric::TravelTime] {
                let a = topo.customize(&g, &metric.cost_model());
                let b = back.customize(&g, &metric.cost_model());
                let mut sa = ChSearch::new(g.vertex_count());
                let mut sb = ChSearch::new(g.vertex_count());
                for (s, t) in [(0, n - 1), (n / 2, 1), (n - 1, n / 3), (3, n - 2)] {
                    let (s, t) = (VertexId(s), VertexId(t));
                    assert_eq!(
                        a.view().query_cost(&mut sa, s, t).map(f64::to_bits),
                        b.view().query_cost(&mut sb, s, t).map(f64::to_bits),
                        "reloaded CCH changed a {metric:?} cost for {s:?}->{t:?}"
                    );
                    assert_eq!(
                        a.view().query_edges(&mut sa, s, t).map(<[_]>::to_vec),
                        b.view().query_edges(&mut sb, s, t).map(<[_]>::to_vec),
                        "reloaded CCH changed a {metric:?} path for {s:?}->{t:?}"
                    );
                }
            }
        }

        #[test]
        fn cch_flat_build_is_golden_and_roundtrips_array_for_array() {
            // FNV-1a of the serialised topology, pinned on the commit
            // before the flat build: ranks, level-contiguous arc
            // numbering, merged originals and per-arc triangle order are
            // all in the text, so the flat build is a change of
            // representation and nothing else.
            let grid = GridConfig {
                nx: 24,
                ny: 24,
                ..GridConfig::small_test()
            };
            for (g, golden) in [
                (
                    region_network(&RegionConfig::small_test(), 11),
                    0x722e_5f81_4cb3_ebfc,
                ),
                (grid_network(&grid, 5), 0xec63_83fd_4e60_967c),
            ] {
                let topo = CchTopology::build(&g, &CchConfig::default());
                let text = cch_to_string(&topo);
                assert_eq!(fnv1a64(text.as_bytes()), golden, "topology drifted");
                // The reader feeds the same finaliser: every array of the
                // reloaded topology (`PartialEq` covers them all,
                // reverse index and search skeleton included) must equal
                // the built one's.
                assert!(
                    cch_from_str(&text).unwrap() == topo,
                    "reloaded topology differs from the built one"
                );
            }
        }

        #[test]
        fn cch_corrupt_input_is_rejected() {
            let g = region();
            let topo = CchTopology::build(&g, &CchConfig::default());
            let text = cch_to_string(&topo);
            // Wrong version / foreign format fail on the header.
            assert!(cch_from_str("pathrank-cch v0\n").is_err());
            assert!(cch_from_str(&ch_to_string(&ContractionHierarchy::build(
                &g,
                LandmarkMetric::Length,
                &ChConfig::default()
            )))
            .is_err());
            // Truncation (anywhere) must error, never mis-build.
            assert!(cch_from_str(&text[..text.len() / 2]).is_err());
            assert!(cch_from_str(&text[..text.len() * 9 / 10]).is_err());
            // An absurd arc count errors on truncation instead of
            // aborting on a huge preallocation.
            let arcs_line = format!("arcs {}", topo.arc_count());
            assert!(cch_from_str(&text.replace(&arcs_line, "arcs 18446744073709551615")).is_err());
            // A rank out of range / duplicated breaks the permutation.
            let ranks_line = text
                .lines()
                .find(|l| l.starts_with("ranks"))
                .unwrap()
                .to_string();
            let mut toks: Vec<&str> = ranks_line.split_ascii_whitespace().collect();
            toks[1] = "999999";
            assert!(cch_from_str(&text.replace(&ranks_line, &toks.join(" "))).is_err());
            let dup = {
                let mut t: Vec<&str> = ranks_line.split_ascii_whitespace().collect();
                t[1] = t[2];
                text.replace(&ranks_line, &t.join(" "))
            };
            assert!(cch_from_str(&dup).is_err());
            // An arc claiming an edge outside the graph.
            let first_orig = text
                .lines()
                .find(|l| l.starts_with("c ") && !l.contains(" o 0 "))
                .expect("region CCH has arcs with originals")
                .to_string();
            let mut toks: Vec<String> = first_orig
                .split_ascii_whitespace()
                .map(str::to_string)
                .collect();
            let o_pos = toks.iter().position(|t| t == "o").unwrap();
            toks[o_pos + 2] = format!("{}", g.edge_count() + 3);
            assert!(cch_from_str(&text.replace(&first_orig, &toks.join(" "))).is_err());
            // Two arcs claiming the same original edge.
            let mut toks: Vec<String> = first_orig
                .split_ascii_whitespace()
                .map(str::to_string)
                .collect();
            let second_orig = text
                .lines()
                .filter(|l| l.starts_with("c ") && !l.contains(" o 0 "))
                .nth(1)
                .expect("region CCH has at least two arcs with originals")
                .to_string();
            let stolen = second_orig
                .split_ascii_whitespace()
                .nth(
                    second_orig
                        .split_ascii_whitespace()
                        .position(|t| t == "o")
                        .unwrap()
                        + 2,
                )
                .unwrap();
            toks[o_pos + 2] = stolen.to_string();
            assert!(cch_from_str(&text.replace(&first_orig, &toks.join(" "))).is_err());
            // A duplicate (from, to) vertex pair.
            let dup_pair = {
                let second = text
                    .lines()
                    .filter(|l| l.starts_with("c "))
                    .nth(1)
                    .unwrap()
                    .to_string();
                let first_toks: Vec<&str> = first_orig.split_ascii_whitespace().collect();
                let mut t: Vec<String> = second
                    .split_ascii_whitespace()
                    .map(str::to_string)
                    .collect();
                t[1] = first_toks[1].to_string();
                t[2] = first_toks[2].to_string();
                text.replace(&second, &t.join(" "))
            };
            assert!(cch_from_str(&dup_pair).is_err());
            // A triangle referencing a non-preceding arc (customization
            // would read an unsettled weight).
            let tri_line = text
                .lines()
                .find(|l| l.starts_with("c ") && !l.trim_end().ends_with(" t 0"))
                .expect("region CCH has triangles")
                .to_string();
            let mut toks: Vec<String> = tri_line
                .split_ascii_whitespace()
                .map(str::to_string)
                .collect();
            let t_pos = toks.iter().position(|t| t == "t").unwrap();
            toks[t_pos + 2] = format!("{}", topo.arc_count() + 9);
            assert!(cch_from_str(&text.replace(&tri_line, &toks.join(" "))).is_err());
            // A fill-in arc stripped of its triangles has no way to ever
            // receive a finite weight; the reader must refuse it.
            let fill_in = text
                .lines()
                .find(|l| l.starts_with("c ") && l.contains(" o 0 "))
                .expect("region CCH has fill-in arcs")
                .to_string();
            let t_pos = fill_in.find(" t ").unwrap();
            let gutted = format!("{} t 0", &fill_in[..t_pos]);
            assert!(cch_from_str(&text.replace(&fill_in, &gutted)).is_err());
            // Trailing tokens on an arc line are rejected.
            let padded = format!("{} 4", first_orig);
            assert!(cch_from_str(&text.replace(&first_orig, &padded)).is_err());
        }
    }
}
