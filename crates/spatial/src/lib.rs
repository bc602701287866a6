//! Road-network substrate for the PathRank reproduction.
//!
//! This crate provides everything PathRank needs from a spatial network:
//!
//! * a compact CSR-based directed [`graph::Graph`] with planar vertex
//!   coordinates, per-edge attributes (length, speed, road category) and
//!   one flat weight column per graph metric (length, travel time) — the
//!   only runtime graph: every search relaxes it, and it never changes
//!   once built (live weights are `CostModel::Custom` vectors that a
//!   customized [`algo::cch::Cch`] follows);
//! * deterministic synthetic [`generators`] that produce road networks with
//!   realistic structure (grid towns and multi-town regions connected
//!   by highways) — the substitute for the proprietary North Jutland
//!   network used in the paper;
//! * real road-network ingestion ([`osm`]): a dependency-free streaming
//!   OSM XML parser and an importer (highway filtering, `maxspeed` /
//!   `oneway` handling, [`geo`] haversine lengths, SCC pruning, degree-2
//!   chain contraction) that emits index-ready graphs from real extracts;
//! * routing algorithms: Dijkstra and A* point-to-point, one-to-all and
//!   constrained searches, Yen's top-k shortest paths ([`algo::yen`]) and
//!   the diversified top-k used by the paper's D-TkDI training-data
//!   strategy ([`algo::diversified`]) — all running on the one search
//!   loop of the reusable, generation-stamped query layer in
//!   [`algo::engine`];
//! * path [`similarity`] measures, most importantly the weighted Jaccard
//!   similarity that defines PathRank's ground-truth ranking scores;
//! * a packed STR-bulk-loaded [`rtree::RTree`] over edge chords for GPS
//!   candidate snapping.
//!
//! # Quick example
//!
//! Every search runs on a [`QueryEngine`] the caller holds and reuses:
//!
//! ```
//! use pathrank_spatial::generators::{grid_network, GridConfig};
//! use pathrank_spatial::graph::{CostModel, VertexId};
//! use pathrank_spatial::QueryEngine;
//!
//! let g = grid_network(&GridConfig::small_test(), 7);
//! let mut engine = QueryEngine::new(&g);
//! let p = engine
//!     .shortest_path(VertexId(0), VertexId(24), CostModel::Length)
//!     .expect("grid is strongly connected");
//! assert!(p.length_m(&g) > 0.0);
//! let top3 = engine.yen_k_shortest(VertexId(0), VertexId(24), CostModel::Length, 3);
//! assert!(top3[0].0.same_route(&p));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algo;
pub mod builder;
pub mod error;
pub mod generators;
pub mod geo;
pub mod geometry;
pub mod graph;
pub mod io;
pub mod osm;
pub mod path;
pub mod rtree;
pub mod similarity;
pub mod util;

pub use algo::engine::QueryEngine;
pub use builder::GraphBuilder;
pub use error::SpatialError;
pub use graph::{CostModel, EdgeId, Graph, RoadCategory, VertexId};
pub use path::Path;
pub use rtree::RTree;
