//! Paths in a road network.
//!
//! A [`Path`] stores both its vertex sequence and the edge ids connecting
//! consecutive vertices. PathRank consumes the vertex sequence (it feeds the
//! GRU); the similarity measures consume the edge sequence (weighted Jaccard
//! is defined over edge sets).

use crate::error::SpatialError;
use crate::graph::{CostModel, EdgeId, Graph, VertexId};

/// A simple (vertex-repetition-free unless stated otherwise) path through a
/// [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    vertices: Vec<VertexId>,
    edges: Vec<EdgeId>,
}

impl Path {
    /// Builds a path from a vertex sequence, resolving each consecutive pair
    /// to the cheapest connecting edge.
    pub fn from_vertices(g: &Graph, vertices: Vec<VertexId>) -> Result<Self, SpatialError> {
        if vertices.len() < 2 {
            return Err(SpatialError::TooShort);
        }
        let mut edges = Vec::with_capacity(vertices.len() - 1);
        for (i, pair) in vertices.windows(2).enumerate() {
            match g.find_edge(pair[0], pair[1]) {
                Some(e) => edges.push(e),
                None => return Err(SpatialError::DisconnectedSequence { at: i }),
            }
        }
        Ok(Path { vertices, edges })
    }

    /// Builds a path from an edge sequence; the vertex sequence is derived.
    /// Fails if consecutive edges do not share a vertex.
    pub fn from_edges(g: &Graph, edges: Vec<EdgeId>) -> Result<Self, SpatialError> {
        if edges.is_empty() {
            return Err(SpatialError::TooShort);
        }
        let mut vertices = Vec::with_capacity(edges.len() + 1);
        vertices.push(g.edge(edges[0]).from);
        for (i, &e) in edges.iter().enumerate() {
            let rec = g.edge(e);
            if rec.from != *vertices.last().expect("non-empty") {
                return Err(SpatialError::DisconnectedSequence { at: i });
            }
            vertices.push(rec.to);
        }
        Ok(Path { vertices, edges })
    }

    /// Constructs a path from parts already known to be consistent.
    ///
    /// Used by the routing algorithms which derive both sequences together.
    /// Panics (debug only) if the parts are inconsistent.
    pub(crate) fn from_parts_unchecked(vertices: Vec<VertexId>, edges: Vec<EdgeId>) -> Self {
        debug_assert_eq!(vertices.len(), edges.len() + 1);
        Path { vertices, edges }
    }

    /// The vertex sequence, source first.
    #[inline]
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// The edge sequence.
    #[inline]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Source vertex.
    #[inline]
    pub fn source(&self) -> VertexId {
        self.vertices[0]
    }

    /// Destination vertex.
    #[inline]
    pub fn target(&self) -> VertexId {
        *self.vertices.last().expect("paths have >= 2 vertices")
    }

    /// Number of edges (a.k.a. hops).
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Paths are never empty; provided for clippy-compliant symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total length in metres.
    pub fn length_m(&self, g: &Graph) -> f64 {
        self.edges.iter().map(|&e| g.edge(e).attrs.length_m).sum()
    }

    /// Total free-flow travel time in seconds.
    pub fn travel_time_s(&self, g: &Graph) -> f64 {
        self.edges
            .iter()
            .map(|&e| g.edge(e).attrs.travel_time_s())
            .sum()
    }

    /// Total cost under an arbitrary [`CostModel`].
    pub fn cost(&self, g: &Graph, model: CostModel<'_>) -> f64 {
        self.edges.iter().map(|&e| model.edge_cost(g, e)).sum()
    }

    /// Whether no vertex occurs twice (loopless / simple path).
    pub fn is_simple(&self) -> bool {
        let mut seen = std::collections::HashSet::with_capacity(self.vertices.len());
        self.vertices.iter().all(|v| seen.insert(*v))
    }

    /// Whether the path's edge sequence is actually connected in `g` and
    /// every edge id is in range. Routing outputs uphold this by
    /// construction; tests use it as an oracle.
    pub fn validate(&self, g: &Graph) -> Result<(), SpatialError> {
        if self.vertices.len() < 2 || self.vertices.len() != self.edges.len() + 1 {
            return Err(SpatialError::TooShort);
        }
        for (i, &e) in self.edges.iter().enumerate() {
            if e.index() >= g.edge_count() {
                return Err(SpatialError::Parse(format!("edge id {} out of range", e.0)));
            }
            let rec = g.edge(e);
            if rec.from != self.vertices[i] || rec.to != self.vertices[i + 1] {
                return Err(SpatialError::DisconnectedSequence { at: i });
            }
        }
        Ok(())
    }

    /// The prefix of this path ending at vertex position `i` (inclusive);
    /// `None` if the prefix would be a single vertex or out of range.
    pub fn prefix(&self, i: usize) -> Option<Path> {
        if i == 0 || i >= self.vertices.len() {
            return None;
        }
        Some(Path {
            vertices: self.vertices[..=i].to_vec(),
            edges: self.edges[..i].to_vec(),
        })
    }

    /// Concatenates `self` with `other`; `other` must start where `self`
    /// ends.
    pub fn concat(&self, other: &Path) -> Result<Path, SpatialError> {
        if self.target() != other.source() {
            return Err(SpatialError::DisconnectedSequence { at: self.len() });
        }
        let mut vertices = self.vertices.clone();
        vertices.extend_from_slice(&other.vertices[1..]);
        let mut edges = self.edges.clone();
        edges.extend_from_slice(&other.edges);
        Ok(Path { vertices, edges })
    }

    /// Whether `self` and `other` have the same vertex sequence.
    pub fn same_route(&self, other: &Path) -> bool {
        self.vertices == other.vertices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::geometry::Point;
    use crate::graph::{EdgeAttrs, RoadCategory};

    /// A 4-cycle 0 -> 1 -> 2 -> 3 -> 0 plus chord 0 -> 2.
    fn ring() -> Graph {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..4)
            .map(|i| b.add_vertex(Point::new(i as f64 * 100.0, 0.0)))
            .collect();
        let a = |len| EdgeAttrs::with_default_speed(len, RoadCategory::Residential);
        b.add_edge(vs[0], vs[1], a(100.0)).unwrap();
        b.add_edge(vs[1], vs[2], a(110.0)).unwrap();
        b.add_edge(vs[2], vs[3], a(120.0)).unwrap();
        b.add_edge(vs[3], vs[0], a(130.0)).unwrap();
        b.add_edge(vs[0], vs[2], a(300.0)).unwrap();
        b.build()
    }

    #[test]
    fn from_vertices_resolves_edges() {
        let g = ring();
        let p = Path::from_vertices(&g, vec![VertexId(0), VertexId(1), VertexId(2)]).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.source(), VertexId(0));
        assert_eq!(p.target(), VertexId(2));
        assert!((p.length_m(&g) - 210.0).abs() < 1e-9);
        p.validate(&g).unwrap();
        assert!(p.is_simple());
    }

    #[test]
    fn from_vertices_rejects_disconnected() {
        let g = ring();
        let err = Path::from_vertices(&g, vec![VertexId(1), VertexId(0)]).unwrap_err();
        assert_eq!(err, SpatialError::DisconnectedSequence { at: 0 });
    }

    #[test]
    fn from_vertices_rejects_short() {
        let g = ring();
        assert_eq!(
            Path::from_vertices(&g, vec![VertexId(0)]).unwrap_err(),
            SpatialError::TooShort
        );
    }

    #[test]
    fn from_edges_roundtrip() {
        let g = ring();
        let p = Path::from_vertices(&g, vec![VertexId(0), VertexId(1), VertexId(2)]).unwrap();
        let q = Path::from_edges(&g, p.edges().to_vec()).unwrap();
        assert!(p.same_route(&q));
    }

    #[test]
    fn from_edges_rejects_gap() {
        let g = ring();
        // Edge 0 is 0->1, edge 2 is 2->3: gap at position 1.
        let err = Path::from_edges(&g, vec![EdgeId(0), EdgeId(2)]).unwrap_err();
        assert_eq!(err, SpatialError::DisconnectedSequence { at: 1 });
    }

    #[test]
    fn prefix_and_concat() {
        let g = ring();
        let p = Path::from_vertices(&g, vec![VertexId(0), VertexId(1), VertexId(2), VertexId(3)])
            .unwrap();
        assert!(p.prefix(0).is_none());
        assert!(p.prefix(4).is_none());
        let pre = p.prefix(2).unwrap();
        assert_eq!(pre.vertices(), &[VertexId(0), VertexId(1), VertexId(2)]);
        let suf = Path::from_vertices(&g, vec![VertexId(2), VertexId(3)]).unwrap();
        let whole = pre.concat(&suf).unwrap();
        assert!(whole.same_route(&p));
        // Mismatched concat fails.
        assert!(suf.concat(&pre).is_err());
    }

    #[test]
    fn non_simple_path_detected() {
        let g = ring();
        let p = Path::from_vertices(
            &g,
            vec![
                VertexId(0),
                VertexId(1),
                VertexId(2),
                VertexId(3),
                VertexId(0),
                VertexId(2),
            ],
        )
        .unwrap();
        assert!(!p.is_simple());
    }

    #[test]
    fn cost_models_agree_with_sums() {
        let g = ring();
        let p = Path::from_vertices(&g, vec![VertexId(0), VertexId(2), VertexId(3)]).unwrap();
        assert!((p.cost(&g, CostModel::Length) - p.length_m(&g)).abs() < 1e-12);
        assert!((p.cost(&g, CostModel::TravelTime) - p.travel_time_s(&g)).abs() < 1e-12);
        let unit = vec![1.0; g.edge_count()];
        assert!((p.cost(&g, CostModel::Custom(&unit)) - p.len() as f64).abs() < 1e-12);
    }
}
