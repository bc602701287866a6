//! node2vec from scratch (Grover & Leskovec, KDD 2016).
//!
//! PathRank embeds every road-network vertex into `R^M` with node2vec and
//! uses the result to initialise its vertex-embedding layer. This crate
//! implements the full method:
//!
//! * [`alias`] — Walker's alias method for O(1) sampling from discrete
//!   distributions (used for negative sampling);
//! * [`walks`] — second-order biased random walks controlled by the
//!   return parameter `p` and in-out parameter `q`;
//! * [`skipgram`] — skip-gram with negative sampling (SGNS) trained by
//!   plain SGD over the generated walks;
//! * [`node2vec`] — the end-to-end driver.
//!
//! ```
//! use pathrank_embed::node2vec::{train_node2vec, Node2VecConfig};
//! use pathrank_spatial::generators::{grid_network, GridConfig};
//!
//! let g = grid_network(&GridConfig::small_test(), 1);
//! let mut cfg = Node2VecConfig::default();
//! cfg.sgns.dim = 16;
//! cfg.walks.walks_per_vertex = 2;
//! cfg.walks.walk_length = 10;
//! let emb = train_node2vec(&g, &cfg, 7);
//! assert_eq!(emb.shape(), (g.vertex_count(), 16));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alias;
pub mod node2vec;
pub mod skipgram;
pub mod walks;

pub use node2vec::{train_node2vec, Node2VecConfig};
