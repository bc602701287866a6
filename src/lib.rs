//! # PathRank — learning to rank paths in spatial networks
//!
//! A from-scratch Rust reproduction of *"Learning to Rank Paths in Spatial
//! Networks"* (Sean Bin Yang and Bin Yang, ICDE 2020).
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! * [`spatial`] — road networks, routing (Dijkstra/A*, contraction
//!   hierarchies), Yen's top-k and diversified top-k shortest paths, path
//!   similarity;
//! * [`traj`] — GPS trajectory simulation with hidden driver preferences
//!   and HMM map matching;
//! * [`nn`] — a minimal tape-based autodiff engine with Embedding, GRU,
//!   LSTM and Linear layers;
//! * [`embed`] — node2vec (biased random walks + skip-gram);
//! * [`core`] — the PathRank model, training-data generation (TkDI and
//!   D-TkDI), training loop, ranking metrics and the end-to-end pipeline.
//!
//! See `examples/quickstart.rs` for a three-minute tour.

pub use pathrank_core as core;
pub use pathrank_embed as embed;
pub use pathrank_nn as nn;
pub use pathrank_obs as obs;
pub use pathrank_spatial as spatial;
pub use pathrank_traj as traj;
