//! Property-test harness pinning the R-tree's candidate sets to ground
//! truth.
//!
//! The packed STR R-tree is the map matcher's only snapping index, so it
//! must return exactly the edges a GPS fix can snap to. These properties
//! drive [`RTree::edges_within`] against a brute-force scan over every
//! edge chord, requiring **identical candidate sets** — not merely similar
//! ones.
//!
//! Covered regimes:
//! * `edges_within` equals the brute-force in-radius set (ascending
//!   `EdgeId`) across random probe points and radii,
//!   including radius 0 and probes far outside the network;
//! * the `_into` variant reuses its output buffer without leaking stale
//!   candidates between queries.

use pathrank::spatial::geometry::{point_segment_distance, Point};
use pathrank::spatial::graph::{EdgeId, Graph};
use pathrank::spatial::rtree::RTree;
use pathrank_testkit::prelude::*;

mod common;
use common::{rural, GraphCase};

/// Ground truth: every edge whose chord `from -> to` passes within
/// `radius_m` of `p`, ascending by id.
fn brute_force_within(g: &Graph, p: &Point, radius_m: f64) -> Vec<EdgeId> {
    (0..g.edge_count() as u32)
        .map(EdgeId)
        .filter(|&e| {
            let rec = g.edge(e);
            point_segment_distance(p, &g.coord(rec.from), &g.coord(rec.to)) <= radius_m
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rtree_edges_within_equals_brute_force(
        case in GraphCase::new(rural),
        probes in collection::vec((-500.0f64..5500.0, -500.0f64..5500.0), 1..12),
        radius in 1.0f64..2000.0,
    ) {
        let g = case.graph();
        let rt = RTree::build(&g);
        prop_assert_eq!(rt.len(), g.edge_count());
        let mut out = vec![EdgeId(u32::MAX)]; // stale content must be cleared
        for (x, y) in probes {
            let p = Point::new(x, y);
            // Radius 0 (degenerate: only edges the probe sits on) is
            // checked alongside the drawn radius on every probe.
            for r in [0.0, radius] {
                let expect = brute_force_within(&g, &p, r);
                let got = rt.edges_within(&p, r);
                prop_assert_eq!(
                    got.as_slice(),
                    expect.as_slice(),
                    "edges_within diverged at ({}, {}) r={}", x, y, r
                );
                rt.edges_within_into(&p, r, &mut out);
                prop_assert_eq!(
                    out.as_slice(),
                    expect.as_slice(),
                    "edges_within_into leaked stale candidates at ({}, {})", x, y
                );
            }
        }
    }
}
