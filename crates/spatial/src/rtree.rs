//! Packed STR-bulk-loaded R-tree over edge chords.
//!
//! The map matcher's candidate lookup: per GPS probe, a query descends a
//! shallow tree of bounding rectangles, pruning whole subtrees by exact
//! point-to-rectangle distance. The tree is
//! bulk-loaded once with the Sort-Tile-Recursive (STR) packing — sort
//! segments by x-centre, cut into vertical slices, sort each slice by
//! y-centre, pack runs of `LEAF_CAP` — which yields near-square leaves
//! with high occupancy and no insertion-time rebalancing. Upper levels
//! simply group `FANOUT` consecutive nodes, valid because STR order is
//! already spatially coherent.
//!
//! Each edge is indexed as one segment, its straight `from -> to` chord
//! — the same line the map matcher projects fixes onto.
//! [`RTree::edges_within`] filters hits by exact
//! [`point_segment_distance`] and returns the ascending list of edge
//! ids — exactly the set a brute-force scan over every chord would
//! return.

use crate::geometry::{point_segment_distance, Point};
use crate::graph::{EdgeId, Graph};

/// Segments per leaf (STR tile size).
const LEAF_CAP: usize = 16;
/// Child nodes per inner node.
const FANOUT: usize = 16;

/// One indexed edge chord, flattened for cache-friendly leaf scans.
#[derive(Debug, Clone, Copy)]
struct Segment {
    ax: f64,
    ay: f64,
    bx: f64,
    by: f64,
    edge: EdgeId,
}

impl Segment {
    #[inline]
    fn new(a: Point, b: Point, edge: EdgeId) -> Self {
        Segment {
            ax: a.x,
            ay: a.y,
            bx: b.x,
            by: b.y,
            edge,
        }
    }

    #[inline]
    fn center_x(&self) -> f64 {
        (self.ax + self.bx) * 0.5
    }

    #[inline]
    fn center_y(&self) -> f64 {
        (self.ay + self.by) * 0.5
    }
}

/// Minimum bounding rectangle of a node.
#[derive(Debug, Clone, Copy)]
struct Mbr {
    minx: f64,
    miny: f64,
    maxx: f64,
    maxy: f64,
}

impl Mbr {
    const EMPTY: Mbr = Mbr {
        minx: f64::INFINITY,
        miny: f64::INFINITY,
        maxx: f64::NEG_INFINITY,
        maxy: f64::NEG_INFINITY,
    };

    #[inline]
    fn add_segment(&mut self, s: &Segment) {
        self.minx = self.minx.min(s.ax.min(s.bx));
        self.miny = self.miny.min(s.ay.min(s.by));
        self.maxx = self.maxx.max(s.ax.max(s.bx));
        self.maxy = self.maxy.max(s.ay.max(s.by));
    }

    #[inline]
    fn add_mbr(&mut self, o: &Mbr) {
        self.minx = self.minx.min(o.minx);
        self.miny = self.miny.min(o.miny);
        self.maxx = self.maxx.max(o.maxx);
        self.maxy = self.maxy.max(o.maxy);
    }

    /// Squared distance from `p` to the rectangle (0 inside).
    #[inline]
    fn dist_sq(&self, p: &Point) -> f64 {
        let dx = (self.minx - p.x).max(0.0).max(p.x - self.maxx);
        let dy = (self.miny - p.y).max(0.0).max(p.y - self.maxy);
        dx * dx + dy * dy
    }
}

/// Packed-leaf R-tree over edge chords; see the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct RTree {
    /// STR-ordered segments; leaf `i` owns
    /// `segments[i * LEAF_CAP .. (i + 1) * LEAF_CAP]` (last leaf short).
    segments: Vec<Segment>,
    /// `levels[0]` = leaf MBRs; `levels[k + 1][i]` covers
    /// `levels[k][i * FANOUT .. (i + 1) * FANOUT]`. The topmost level has
    /// one node. Empty when there are no segments.
    levels: Vec<Vec<Mbr>>,
}

impl RTree {
    /// Builds the index over straight `from -> to` chords of every edge.
    pub fn build(g: &Graph) -> RTree {
        let mut segs = Vec::with_capacity(g.edge_count());
        for (i, e) in g.edges().enumerate() {
            segs.push(Segment::new(
                g.coord(e.from),
                g.coord(e.to),
                EdgeId(i as u32),
            ));
        }
        Self::pack(segs)
    }

    /// STR packing: x-sort, tile into vertical slices, y-sort each slice,
    /// chunk into leaves; then stack levels of `FANOUT` consecutive nodes.
    fn pack(mut segs: Vec<Segment>) -> RTree {
        if segs.is_empty() {
            return RTree {
                segments: segs,
                levels: Vec::new(),
            };
        }
        let leaf_count = segs.len().div_ceil(LEAF_CAP);
        let slices = (leaf_count as f64).sqrt().ceil() as usize;
        let slice_len = segs.len().div_ceil(slices);
        segs.sort_unstable_by(|a, b| a.center_x().total_cmp(&b.center_x()));
        for chunk in segs.chunks_mut(slice_len.max(1)) {
            chunk.sort_unstable_by(|a, b| a.center_y().total_cmp(&b.center_y()));
        }
        let mut leaves = Vec::with_capacity(leaf_count);
        for chunk in segs.chunks(LEAF_CAP) {
            let mut mbr = Mbr::EMPTY;
            for s in chunk {
                mbr.add_segment(s);
            }
            leaves.push(mbr);
        }
        let mut levels = vec![leaves];
        while levels.last().unwrap().len() > 1 {
            let below = levels.last().unwrap();
            let mut above = Vec::with_capacity(below.len().div_ceil(FANOUT));
            for chunk in below.chunks(FANOUT) {
                let mut mbr = Mbr::EMPTY;
                for m in chunk {
                    mbr.add_mbr(m);
                }
                above.push(mbr);
            }
            levels.push(above);
        }
        RTree {
            segments: segs,
            levels,
        }
    }

    /// Number of indexed chords (one per edge).
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the index holds no chords.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Ids of all edges whose chord passes within `radius_m` of `p`,
    /// ascending — exactly the set a brute-force scan over every chord
    /// returns.
    pub fn edges_within(&self, p: &Point, radius_m: f64) -> Vec<EdgeId> {
        let mut out = Vec::new();
        self.edges_within_into(p, radius_m, &mut out);
        out
    }

    /// Allocation-reusing form of [`RTree::edges_within`]: clears `out`
    /// and fills it with the same ascending id set.
    ///
    /// The descent recurses instead of keeping an explicit stack: depth
    /// is the tree height (a handful of levels even at city scale), and
    /// recursion keeps the hot query path free of per-call heap
    /// allocation.
    pub fn edges_within_into(&self, p: &Point, radius_m: f64, out: &mut Vec<EdgeId>) {
        out.clear();
        if self.levels.is_empty() || radius_m < 0.0 || radius_m.is_nan() {
            return;
        }
        let r_sq = radius_m * radius_m;
        let top = self.levels.len() - 1;
        for node in 0..self.levels[top].len() {
            self.descend(top, node, p, radius_m, r_sq, out);
        }
        out.sort_unstable();
    }

    /// DFS into `node` at `level` (0 = leaves), appending every in-radius
    /// edge id to `out`. Children of node `i` are the contiguous run
    /// `i * FANOUT ..` one level down — the packed layout needs no child
    /// pointers.
    fn descend(
        &self,
        level: usize,
        node: usize,
        p: &Point,
        radius_m: f64,
        r_sq: f64,
        out: &mut Vec<EdgeId>,
    ) {
        if self.levels[level][node].dist_sq(p) > r_sq {
            return;
        }
        if level == 0 {
            let lo = node * LEAF_CAP;
            let hi = (lo + LEAF_CAP).min(self.segments.len());
            for s in &self.segments[lo..hi] {
                // Cheap per-segment bounding-box rejection first: the
                // box distance never exceeds the true segment distance,
                // so skipping `box > r` segments cannot drop a hit, and
                // it spares the full projection for most of the leaf.
                let dx = (s.ax.min(s.bx) - p.x).max(0.0).max(p.x - s.ax.max(s.bx));
                let dy = (s.ay.min(s.by) - p.y).max(0.0).max(p.y - s.ay.max(s.by));
                if dx * dx + dy * dy > r_sq {
                    continue;
                }
                let a = Point::new(s.ax, s.ay);
                let b = Point::new(s.bx, s.by);
                // Same predicate as the matcher's caller-side filter and
                // the brute-force ground truth — candidate sets must be
                // identical, not just equal up to boundary rounding.
                if point_segment_distance(p, &a, &b) <= radius_m {
                    out.push(s.edge);
                }
            }
        } else {
            let lo = node * FANOUT;
            let hi = (lo + FANOUT).min(self.levels[level - 1].len());
            for child in lo..hi {
                self.descend(level - 1, child, p, radius_m, r_sq, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::graph::{EdgeAttrs, RoadCategory, VertexId};

    fn grid_graph(side: usize, spacing: f64) -> Graph {
        let mut b = GraphBuilder::new();
        for y in 0..side {
            for x in 0..side {
                b.add_vertex(Point::new(x as f64 * spacing, y as f64 * spacing));
            }
        }
        let at = |x: usize, y: usize| VertexId((y * side + x) as u32);
        for y in 0..side {
            for x in 0..side {
                if x + 1 < side {
                    b.add_bidirectional(
                        at(x, y),
                        at(x + 1, y),
                        EdgeAttrs::with_default_speed(spacing, RoadCategory::Residential),
                    )
                    .unwrap();
                }
                if y + 1 < side {
                    b.add_bidirectional(
                        at(x, y),
                        at(x, y + 1),
                        EdgeAttrs::with_default_speed(spacing, RoadCategory::Residential),
                    )
                    .unwrap();
                }
            }
        }
        b.build()
    }

    fn brute_force(g: &Graph, p: &Point, r: f64) -> Vec<EdgeId> {
        let mut out: Vec<EdgeId> = g
            .edges()
            .enumerate()
            .filter(|(_, e)| point_segment_distance(p, &g.coord(e.from), &g.coord(e.to)) <= r)
            .map(|(i, _)| EdgeId(i as u32))
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn rtree_matches_brute_force_on_a_grid() {
        let g = grid_graph(9, 40.0);
        let tree = RTree::build(&g);
        assert_eq!(tree.len(), g.edge_count());
        for p in [
            Point::new(0.0, 0.0),
            Point::new(123.0, 77.0),
            Point::new(160.0, 160.0),
            Point::new(-35.0, 400.0),
            Point::new(1000.0, 1000.0),
        ] {
            for r in [0.0, 10.0, 45.0, 120.0, 1e4] {
                assert_eq!(tree.edges_within(&p, r), brute_force(&g, &p, r));
            }
        }
    }

    #[test]
    fn rtree_into_reuses_the_buffer() {
        let g = grid_graph(4, 25.0);
        let tree = RTree::build(&g);
        let mut buf = vec![EdgeId(999)];
        tree.edges_within_into(&Point::new(30.0, 30.0), 20.0, &mut buf);
        assert_eq!(buf, tree.edges_within(&Point::new(30.0, 30.0), 20.0));
        tree.edges_within_into(&Point::new(1e6, 1e6), 20.0, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn rtree_empty_graph() {
        let g = GraphBuilder::new().build();
        let tree = RTree::build(&g);
        assert!(tree.is_empty());
        assert!(tree.edges_within(&Point::new(0.0, 0.0), 100.0).is_empty());
    }
}
