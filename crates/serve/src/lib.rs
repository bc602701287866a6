//! Concurrent route serving over the PathRank spatial indexes.
//!
//! Everything below `crates/serve` handles *concurrent* traffic — the
//! layer the sequential benchmarks stop short of. The design is a
//! dependency-free thread-per-core server:
//!
//! * each **shard** is one worker thread owning a private
//!   [`QueryEngine`](pathrank_spatial::algo::engine::QueryEngine) over
//!   the `Arc`-shared graph and indexes, fed by a bounded channel;
//! * concurrent one-to-one requests landing in a shard within a short
//!   window are **coalesced** into one bucket many-to-many fill
//!   (`S + T` upward half-sweeps instead of `2·B`) and de-multiplexed
//!   back to their callers;
//! * requests carry **deadlines**; overloaded shards shed
//!   ([`ServeError::QueueFull`], [`ServeError::DeadlineExpired`])
//!   or degrade down the backend ladder (CH/CCH → ALT → plain)
//!   instead of queueing unboundedly;
//! * live weight updates re-customize the CCH off the serving path and
//!   **swap in atomically** — a batch snapshots one `(weights, index)`
//!   pair, so no in-flight query ever sees torn weights.
//!
//! [`fixture`] provides the deterministic integer-weight graphs the
//! exactness harnesses and the `serve` binary run on, and [`tcp`]
//! a minimal line protocol for out-of-process clients.

pub mod fixture;
mod obs;
pub mod server;
pub mod tcp;

pub use server::{
    LiveWeights, Metric, RouteReply, RouteRequest, RouteServer, ServeConfig, ServeError,
    ServeStats, ServerIndexes,
};
