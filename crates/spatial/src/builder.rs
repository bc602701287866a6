//! Mutable construction of [`Graph`]s.

use crate::error::SpatialError;
use crate::geometry::Point;
use crate::graph::{EdgeAttrs, EdgeId, EdgeRecord, Graph, VertexId};

/// Incrementally builds a [`Graph`]; [`GraphBuilder::build`] freezes it into
/// CSR form.
///
/// ```
/// use pathrank_spatial::builder::GraphBuilder;
/// use pathrank_spatial::geometry::Point;
/// use pathrank_spatial::graph::{EdgeAttrs, RoadCategory};
///
/// let mut b = GraphBuilder::new();
/// let u = b.add_vertex(Point::new(0.0, 0.0));
/// let v = b.add_vertex(Point::new(100.0, 0.0));
/// b.add_bidirectional(u, v, EdgeAttrs::with_default_speed(100.0, RoadCategory::Residential))
///     .unwrap();
/// let g = b.build();
/// assert_eq!(g.vertex_count(), 2);
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    coords: Vec<Point>,
    edges: Vec<EdgeRecord>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with pre-allocated capacity.
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        GraphBuilder {
            coords: Vec::with_capacity(vertices),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Number of vertices added so far.
    pub fn vertex_count(&self) -> usize {
        self.coords.len()
    }

    /// Number of directed edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a vertex at `coord` and returns its id.
    pub fn add_vertex(&mut self, coord: Point) -> VertexId {
        let id = VertexId(self.coords.len() as u32);
        self.coords.push(coord);
        id
    }

    /// Coordinate of a previously added vertex.
    pub fn coord(&self, v: VertexId) -> Point {
        self.coords[v.index()]
    }

    /// Adds a directed edge. Fails if either endpoint is unknown, the edge
    /// is a self-loop, or the attributes are not positive and finite.
    pub fn add_edge(
        &mut self,
        from: VertexId,
        to: VertexId,
        attrs: EdgeAttrs,
    ) -> Result<EdgeId, SpatialError> {
        let n = self.coords.len();
        for v in [from, to] {
            if v.index() >= n {
                return Err(SpatialError::VertexOutOfBounds { vertex: v, len: n });
            }
        }
        if from == to {
            return Err(SpatialError::InvalidAttribute(format!(
                "self-loop at vertex {} is not allowed",
                from.0
            )));
        }
        if !(attrs.length_m.is_finite() && attrs.length_m > 0.0) {
            return Err(SpatialError::InvalidAttribute(format!(
                "edge length must be positive and finite, got {}",
                attrs.length_m
            )));
        }
        if !(attrs.speed_kmh.is_finite() && attrs.speed_kmh > 0.0) {
            return Err(SpatialError::InvalidAttribute(format!(
                "edge speed must be positive and finite, got {}",
                attrs.speed_kmh
            )));
        }
        // Denormal (but positive) speeds would survive the check above
        // yet overflow `travel_time_s` to infinity; clamp them into the
        // band the graph documents.
        let mut attrs = attrs;
        attrs.speed_kmh = attrs.speed_kmh.clamp(
            crate::graph::MIN_EDGE_SPEED_KMH,
            crate::graph::MAX_EDGE_SPEED_KMH,
        );
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeRecord { from, to, attrs });
        Ok(id)
    }

    /// Adds the pair of directed edges `(from -> to, to -> from)` with the
    /// same attributes and returns the forward edge id.
    pub fn add_bidirectional(
        &mut self,
        from: VertexId,
        to: VertexId,
        attrs: EdgeAttrs,
    ) -> Result<EdgeId, SpatialError> {
        let fwd = self.add_edge(from, to, attrs)?;
        self.add_edge(to, from, attrs)?;
        Ok(fwd)
    }

    /// Whether a directed edge `from -> to` has already been added.
    pub fn has_edge(&self, from: VertexId, to: VertexId) -> bool {
        self.edges.iter().any(|e| e.from == from && e.to == to)
    }

    /// Freezes the builder into an immutable CSR [`Graph`].
    pub fn build(self) -> Graph {
        let n = self.coords.len();
        let m = self.edges.len();

        let mut out_offsets = vec![0u32; n + 1];
        let mut in_offsets = vec![0u32; n + 1];
        for e in &self.edges {
            out_offsets[e.from.index() + 1] += 1;
            in_offsets[e.to.index() + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }

        let mut out_targets = vec![VertexId(0); m];
        let mut out_edge_ids = vec![EdgeId(0); m];
        let mut in_sources = vec![VertexId(0); m];
        let mut in_edge_ids = vec![EdgeId(0); m];
        let mut out_cursor = out_offsets.clone();
        let mut in_cursor = in_offsets.clone();
        for (i, e) in self.edges.iter().enumerate() {
            let id = EdgeId(i as u32);
            let oc = &mut out_cursor[e.from.index()];
            out_targets[*oc as usize] = e.to;
            out_edge_ids[*oc as usize] = id;
            *oc += 1;
            let ic = &mut in_cursor[e.to.index()];
            in_sources[*ic as usize] = e.from;
            in_edge_ids[*ic as usize] = id;
            *ic += 1;
        }

        Graph {
            coords: self.coords,
            out_offsets,
            out_targets,
            out_edge_ids,
            in_offsets,
            in_sources,
            in_edge_ids,
            length_m: self.edges.iter().map(|e| e.attrs.length_m).collect(),
            travel_time_s: self.edges.iter().map(|e| e.attrs.travel_time_s()).collect(),
            edge_records: self.edges,
            order: Default::default(),
        }
    }

    /// Builds a sub-graph restricted to `keep` (ascending list of vertex
    /// ids). Vertices are re-numbered densely in the order given; edges with
    /// either endpoint outside `keep` are dropped. Returns the new graph and
    /// the mapping `old id -> new id`.
    pub fn build_induced(self, keep: &[VertexId]) -> (Graph, Vec<Option<VertexId>>) {
        let n = self.coords.len();
        let mut remap: Vec<Option<VertexId>> = vec![None; n];
        let mut b = GraphBuilder::with_capacity(keep.len(), self.edges.len());
        for &old in keep {
            let new = b.add_vertex(self.coords[old.index()]);
            remap[old.index()] = Some(new);
        }
        for e in &self.edges {
            if let (Some(nf), Some(nt)) = (remap[e.from.index()], remap[e.to.index()]) {
                b.add_edge(nf, nt, e.attrs)
                    .expect("attrs already validated");
            }
        }
        (b.build(), remap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadCategory;

    fn attrs(len: f64) -> EdgeAttrs {
        EdgeAttrs::with_default_speed(len, RoadCategory::Residential)
    }

    #[test]
    fn rejects_out_of_bounds_vertex() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let err = b.add_edge(v0, VertexId(7), attrs(10.0)).unwrap_err();
        assert!(matches!(err, SpatialError::VertexOutOfBounds { .. }));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        assert!(b.add_edge(v0, v0, attrs(10.0)).is_err());
    }

    #[test]
    fn rejects_bad_attributes() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(1.0, 0.0));
        for bad_len in [0.0, -4.0, f64::NAN, f64::INFINITY] {
            assert!(b.add_edge(v0, v1, attrs(bad_len)).is_err());
        }
        let bad_speed = EdgeAttrs {
            length_m: 5.0,
            speed_kmh: 0.0,
            category: RoadCategory::Rural,
        };
        assert!(b.add_edge(v0, v1, bad_speed).is_err());
    }

    #[test]
    fn clamps_denormal_speed_at_build() {
        use crate::graph::{MAX_EDGE_SPEED_KMH, MIN_EDGE_SPEED_KMH};
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(1.0, 0.0));
        let denormal = EdgeAttrs {
            length_m: 5.0,
            speed_kmh: 1e-310,
            category: RoadCategory::Rural,
        };
        let e = b.add_edge(v0, v1, denormal).unwrap();
        let fast = EdgeAttrs {
            length_m: 5.0,
            speed_kmh: 1e12,
            category: RoadCategory::Rural,
        };
        let e2 = b.add_edge(v1, v0, fast).unwrap();
        let g = b.build();
        assert_eq!(g.edge(e).attrs.speed_kmh, MIN_EDGE_SPEED_KMH);
        assert!(g.edge(e).attrs.travel_time_s().is_finite());
        assert_eq!(g.edge(e2).attrs.speed_kmh, MAX_EDGE_SPEED_KMH);
    }

    #[test]
    fn edge_ids_are_sequential() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(1.0, 0.0));
        let e0 = b.add_edge(v0, v1, attrs(1.0)).unwrap();
        let e1 = b.add_edge(v1, v0, attrs(1.0)).unwrap();
        assert_eq!(e0, EdgeId(0));
        assert_eq!(e1, EdgeId(1));
    }

    #[test]
    fn bidirectional_adds_two_edges() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(1.0, 0.0));
        b.add_bidirectional(v0, v1, attrs(1.0)).unwrap();
        assert_eq!(b.edge_count(), 2);
        assert!(b.has_edge(v0, v1));
        assert!(b.has_edge(v1, v0));
        let g = b.build();
        assert_eq!(g.out_degree(v0), 1);
        assert_eq!(g.in_degree(v0), 1);
    }

    #[test]
    fn build_induced_renumbers_and_filters() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(1.0, 0.0));
        let v2 = b.add_vertex(Point::new(2.0, 0.0));
        b.add_edge(v0, v1, attrs(1.0)).unwrap();
        b.add_edge(v1, v2, attrs(1.0)).unwrap();
        b.add_edge(v2, v0, attrs(1.0)).unwrap();
        let (g, remap) = b.build_induced(&[v0, v2]);
        assert_eq!(g.vertex_count(), 2);
        // Only v2 -> v0 survives.
        assert_eq!(g.edge_count(), 1);
        assert_eq!(remap[v1.index()], None);
        assert_eq!(remap[v0.index()], Some(VertexId(0)));
        assert_eq!(remap[v2.index()], Some(VertexId(1)));
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }
}
