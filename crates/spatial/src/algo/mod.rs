//! Routing algorithms over [`crate::graph::Graph`].
//!
//! * [`engine`] — the reusable query layer every algorithm runs on: one
//!   search loop, Dijkstra and A*, forward and reverse, with or without
//!   bans and a cost budget, behind the [`engine::QueryEngine`] facade,
//!   whose two search sides every hierarchy walk shares;
//! * `labels` — the one generation-stamped label store every search runs
//!   on, Dijkstra/A* and hierarchy walks alike: a
//!   search side holds a 16-byte label (stamp, parent, distance) per
//!   vertex, its heap and its work counters, resets in O(1) and
//!   allocates nothing per query after its first; stamped vertex sets
//!   share its epoch wrap;
//! * [`landmarks`] — ALT preprocessing: landmark distance tables whose
//!   triangle-inequality bounds direct every target-directed search on a
//!   [`engine::QueryEngine`] (see
//!   [`engine::QueryEngine::with_landmarks`]) while provably preserving
//!   exactness;
//! * [`cch`] — customizable contraction hierarchies: a metric-independent
//!   contraction order and chordal topology, which the metric-built CH
//!   starts from too, plus millisecond triangle-relaxation customization,
//!   so live weight changes (traffic, custom cost vectors) re-weight the
//!   index instead of rebuilding it (see
//!   [`engine::QueryEngine::with_cch`]);
//! * [`ch`] — contraction hierarchies: shortcut-based preprocessing that
//!   turns unconstrained point-to-point queries into two walks up an
//!   elimination tree (see [`engine::SearchBackend`] and
//!   [`engine::QueryEngine::with_ch`]), with shortcut unpacking back to
//!   original edge sequences;
//! * [`m2m`] — bucket-based many-to-many distance tables over a
//!   contraction hierarchy: `T` backward plus `S` forward tree walks
//!   fill an exact `S × T` [`m2m::DistanceTable`] instead of `S × T`
//!   full queries (the HMM transition-matrix shape, handed over row by
//!   row for batched serving; see [`engine::QueryEngine::many_to_many`]
//!   and [`engine::QueryEngine::many_to_many_rows`]);
//! * [`yen`] — Yen's algorithm for the top-k loopless shortest paths,
//!   exposed as a lazy iterator (the paper's TkDI training-data strategy);
//! * [`diversified`] — diversified top-k shortest paths (the paper's
//!   D-TkDI strategy): enumerate in cost order, keep a path only if it is
//!   dissimilar enough from every path kept so far.
//!
//! Callers hold a [`engine::QueryEngine`] (one per worker thread) and use
//! its methods: every search, Yen and D-TkDI included, runs on an engine
//! the caller owns. There are no free search functions; plain Dijkstra
//! on a fresh engine is the exactness harnesses' reference oracle.

pub mod cch;
pub mod ch;
pub mod diversified;
pub mod engine;
pub(crate) mod labels;
pub mod landmarks;
pub mod m2m;
mod order;
pub mod yen;

pub use cch::{Cch, CchConfig, CchTopology};
pub use ch::{ChConfig, ChSearch, ContractionHierarchy};
pub use diversified::DiversifiedConfig;
pub use engine::{safe_heuristic_bound, EngineObs, QueryEngine, SearchBackend, TreeView};
pub use landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable, NodeVectors};
pub use m2m::DistanceTable;
pub use yen::YenIter;
