//! PathRank — the paper's primary contribution.
//!
//! PathRank ranks candidate paths between a source and destination the way
//! local drivers would, learned from historical trajectories. This crate
//! wires the substrates together into the full method:
//!
//! * [`candidates`] — training-data generation: for each trajectory path,
//!   build a compact candidate set with **TkDI** (top-k shortest paths) or
//!   **D-TkDI** (diversified top-k, the paper's better strategy) and label
//!   every candidate with its weighted-Jaccard similarity to the
//!   trajectory;
//! * [`model`] — the ranking model: vertex embedding (node2vec-initialised)
//!   → GRU → fully-connected head that regresses the similarity score.
//!   Variants: **PR-A1** (frozen embedding), **PR-A2** (fine-tuned
//!   embedding), **PR-RAND** (random-initialised, for the ablation), plus
//!   LSTM and mean-pool encoders and an optional multi-task auxiliary head;
//! * [`trainer`] — synchronous mini-batch training with parallel gradient
//!   computation, gradient clipping and Adam;
//! * [`metrics`] — MAE, MARE, Kendall τ-b and Spearman ρ, the paper's four
//!   evaluation metrics;
//! * [`eval`] — per-query ranking evaluation plus the non-learning
//!   baselines;
//! * [`pipeline`] — the end-to-end experiment driver used by the
//!   table/figure harness in `pathrank-bench`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod candidates;
pub mod eval;
pub mod metrics;
pub mod model;
pub mod pipeline;
pub mod trainer;

pub use candidates::{CandidateConfig, Strategy, TrainingGroup};
pub use eval::{evaluate_model, EvalResult};
pub use model::{EmbeddingMode, EncoderKind, ModelConfig, PathRankModel};
pub use pipeline::{ExperimentConfig, ExperimentResult, Workbench};
pub use trainer::{train, TrainConfig, TrainReport};
