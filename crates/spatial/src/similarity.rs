//! Path similarity measures.
//!
//! The paper labels every candidate training path `P` with the **weighted
//! Jaccard similarity** between `P` and the trajectory path `P_T`:
//!
//! ```text
//!                    Σ_{e ∈ P ∩ P_T} w(e)
//! WJ(P, P_T) = ------------------------------
//!                    Σ_{e ∈ P ∪ P_T} w(e)
//! ```
//!
//! with `w(e)` the edge length (other weightings such as travel time are
//! supported through [`EdgeWeight`]). The same measure drives the
//! diversified top-k selection (D-TkDI), which keeps a newly enumerated path
//! only if it is sufficiently dissimilar from every path already kept.

use crate::graph::{EdgeId, Graph};
use crate::path::Path;

/// Sorted, deduplicated edge ids of a path. Sorting fixes the floating-
/// point summation order, making every similarity value fully
/// deterministic (hash-set iteration order is not).
pub(crate) fn sorted_edge_set(p: &Path) -> Vec<EdgeId> {
    let mut edges: Vec<EdgeId> = p.edges().to_vec();
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Which per-edge weight a similarity measure uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeWeight {
    /// Weight = edge length in metres (the paper's choice).
    Length,
    /// Weight = free-flow travel time in seconds.
    TravelTime,
    /// Weight = 1 per edge (plain set Jaccard).
    Unit,
}

impl EdgeWeight {
    #[inline]
    fn of(&self, g: &Graph, e: EdgeId) -> f64 {
        match self {
            EdgeWeight::Length => g.edge(e).attrs.length_m,
            EdgeWeight::TravelTime => g.edge(e).attrs.travel_time_s(),
            EdgeWeight::Unit => 1.0,
        }
    }
}

/// Weighted Jaccard similarity of two paths' edge sets.
///
/// Result is in `[0, 1]`; 1 iff the edge sets coincide, 0 iff they are
/// disjoint. Symmetric in its arguments.
pub fn weighted_jaccard(g: &Graph, a: &Path, b: &Path, weight: EdgeWeight) -> f64 {
    weighted_jaccard_sorted(g, &sorted_edge_set(a), &sorted_edge_set(b), weight)
}

/// [`weighted_jaccard`] over edge sets already sorted and deduplicated —
/// for callers comparing one path against many, which sort each once.
pub(crate) fn weighted_jaccard_sorted(
    g: &Graph,
    ea: &[EdgeId],
    eb: &[EdgeId],
    weight: EdgeWeight,
) -> f64 {
    let mut inter = 0.0;
    let mut union = 0.0;
    // Sorted-merge walk over both edge sets.
    let (mut i, mut j) = (0usize, 0usize);
    while i < ea.len() || j < eb.len() {
        match (ea.get(i), eb.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                let w = weight.of(g, x);
                inter += w;
                union += w;
                i += 1;
                j += 1;
            }
            (Some(&x), Some(&y)) if x < y => {
                union += weight.of(g, x);
                i += 1;
            }
            (Some(_), Some(&y)) => {
                union += weight.of(g, y);
                j += 1;
            }
            (Some(&x), None) => {
                union += weight.of(g, x);
                i += 1;
            }
            (None, Some(&y)) => {
                union += weight.of(g, y);
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    if union <= 0.0 {
        return 0.0;
    }
    inter / union
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::geometry::Point;
    use crate::graph::{EdgeAttrs, RoadCategory, VertexId};

    /// Two parallel routes 0 -> 1 -> 3 and 0 -> 2 -> 3 plus direct 0 -> 3.
    fn diamond() -> Graph {
        let mut b = GraphBuilder::new();
        let v: Vec<_> = [(0.0, 0.0), (100.0, 50.0), (100.0, -50.0), (200.0, 0.0)]
            .iter()
            .map(|&(x, y)| b.add_vertex(Point::new(x, y)))
            .collect();
        let a = |len| EdgeAttrs::with_default_speed(len, RoadCategory::Residential);
        b.add_edge(v[0], v[1], a(120.0)).unwrap(); // e0
        b.add_edge(v[1], v[3], a(120.0)).unwrap(); // e1
        b.add_edge(v[0], v[2], a(130.0)).unwrap(); // e2
        b.add_edge(v[2], v[3], a(130.0)).unwrap(); // e3
        b.add_edge(v[0], v[3], a(400.0)).unwrap(); // e4
        b.build()
    }

    fn path(g: &Graph, vs: &[u32]) -> Path {
        Path::from_vertices(g, vs.iter().map(|&v| VertexId(v)).collect()).unwrap()
    }

    #[test]
    fn identical_paths_have_similarity_one() {
        let g = diamond();
        let p = path(&g, &[0, 1, 3]);
        for w in [EdgeWeight::Length, EdgeWeight::TravelTime, EdgeWeight::Unit] {
            assert!((weighted_jaccard(&g, &p, &p, w) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn disjoint_paths_have_similarity_zero() {
        let g = diamond();
        let p = path(&g, &[0, 1, 3]);
        let q = path(&g, &[0, 2, 3]);
        assert_eq!(weighted_jaccard(&g, &p, &q, EdgeWeight::Length), 0.0);
    }

    #[test]
    fn jaccard_matches_hand_computation() {
        let g = diamond();
        // p = 0-1-3 (e0, e1: 120 m each) shares no edge with the direct
        // 0-3 (e4: 400 m); partial overlap is checked below.
        let p = path(&g, &[0, 1, 3]);
        let direct = path(&g, &[0, 3]);
        assert_eq!(weighted_jaccard(&g, &p, &direct, EdgeWeight::Length), 0.0);
    }

    #[test]
    fn partial_overlap_weighted_jaccard() {
        let g = diamond();
        let p = path(&g, &[0, 1, 3]); // e0, e1: weights 120 + 120
        let pre = p.prefix(1).unwrap(); // 0 -> 1, edge e0
        let wj = weighted_jaccard(&g, &pre, &p, EdgeWeight::Length);
        assert!((wj - 120.0 / 240.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_jaccard_is_symmetric() {
        let g = diamond();
        let p = path(&g, &[0, 1, 3]);
        let q = path(&g, &[0, 3]);
        for w in [EdgeWeight::Length, EdgeWeight::TravelTime, EdgeWeight::Unit] {
            assert_eq!(
                weighted_jaccard(&g, &p, &q, w),
                weighted_jaccard(&g, &q, &p, w)
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::algo::engine::QueryEngine;
    use crate::generators::{grid_network, GridConfig};
    use crate::graph::{CostModel, VertexId};
    use proptest::prelude::*;

    /// Draws two simple paths between random endpoints of a fixed grid by
    /// enumerating shortest paths and picking by index.
    fn two_paths(
        g: &Graph,
        s: u32,
        t: u32,
        i: usize,
        j: usize,
    ) -> Option<(crate::path::Path, crate::path::Path)> {
        let s = VertexId(s % g.vertex_count() as u32);
        let t = VertexId(t % g.vertex_count() as u32);
        if s == t {
            return None;
        }
        let paths: Vec<_> = QueryEngine::new(g)
            .yen_iter(s, t, CostModel::Length)
            .take(8)
            .map(|(p, _)| p)
            .collect();
        if paths.is_empty() {
            return None;
        }
        let a = paths[i % paths.len()].clone();
        let b = paths[j % paths.len()].clone();
        Some((a, b))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn weighted_jaccard_bounded_symmetric_reflexive(
            s in 0u32..25, t in 0u32..25, i in 0usize..8, j in 0usize..8,
        ) {
            let g = grid_network(&GridConfig::small_test(), 5);
            let Some((a, b)) = two_paths(&g, s, t, i, j) else { return Ok(()) };
            for w in [EdgeWeight::Length, EdgeWeight::TravelTime, EdgeWeight::Unit] {
                let ab = weighted_jaccard(&g, &a, &b, w);
                let ba = weighted_jaccard(&g, &b, &a, w);
                prop_assert!((0.0..=1.0 + 1e-12).contains(&ab));
                prop_assert!((ab - ba).abs() < 1e-12, "symmetry violated");
                prop_assert!((weighted_jaccard(&g, &a, &a, w) - 1.0).abs() < 1e-12);
                // Same route <=> similarity 1 under positive weights.
                if a.same_route(&b) {
                    prop_assert!((ab - 1.0).abs() < 1e-12);
                } else {
                    prop_assert!(ab < 1.0 - 1e-12, "distinct simple routes with the \
                        same endpoints must differ in some edge");
                }
            }
        }
    }
}
