//! Every fixed constant of the benchmark, in one place, so that a later
//! change to any of them is a visible benchmark change. `README.md`
//! repeats the table; `BENCHMARK.json` cannot (its keys are fixed by the
//! driver's contract).

/// Workload names, in the order `--smoke` and the README list them.
pub const WORKLOADS: [&str; 4] = ["rank_tkdi", "rank_dtkdi", "train_offline", "serve_mixed"];

/// The road network is part of the benchmark, not of the seed: the same
/// region for every run, so that seed-to-seed spread is the spread of the
/// traffic, not of the map (measured: a seeded map alone moves Yen's p95
/// by 17 %). `--seed` drives queries, fleet, model and request streams.
pub const GRAPH_SEED: u64 = 2020;
/// Town multiplier over `RegionConfig::paper_scale()`: 4 for the rank and
/// train workloads (10 473 vertices, 36 184 edges), 16 for the serve
/// workload (43 245 vertices, 147 242 edges). Both leave the 4 MiB L2.
pub const REGION_MULT_RANK: usize = 4;
pub const REGION_MULT_SERVE: usize = 16;
/// Fixed town grid so the vertex count does not wander with the map seed.
pub const TOWN_SIZE: usize = 20;

/// Candidate generation: the paper's defaults (`CandidateConfig::
/// paper_default`), scan cap included.
pub const K: usize = 10;
pub const DIVERSITY_THRESHOLD: f64 = 0.5;
pub const MAX_SCAN: usize = 400;
/// Embedding / GRU width.
pub const M: usize = 64;

/// Fleet trips: straight-line distance band, and the hop band the
/// map-matched trajectories are cut to. A trajectory along a highway is
/// left out as well (`env::uses_highway`).
pub const TRIP_MIN_M: f64 = 800.0;
pub const TRIP_MAX_M: f64 = 2_200.0;
pub const MIN_HOPS: usize = 5;
pub const MAX_HOPS: usize = 60;

/// O/D queries of the rank workloads: cross-town trips. Admitted when the
/// shortest path has at most `MAX_HOPS` hops and Yen finds `K`
/// alternatives within `ADMIT_COST_RATIO` of it (see `env::
/// generate_queries`). The band is narrow and long so that every query
/// makes the diversified search work: over the whole 0.8–2.2 km the model
/// is a seventh of the `rank_dtkdi` op, at 2 km a twentieth.
pub const QUERY_MIN_M: f64 = 1_800.0;
pub const QUERY_MAX_M: f64 = 2_200.0;
pub const ADMIT_COST_RATIO: f64 = 1.2;
/// The query list, cycled. Output hash, correctness checks and per-op
/// counts cover exactly its first pass, which every window completes.
pub const RANK_QUERIES: usize = 256;

/// Threads of everything that takes a thread count: trainer, candidate
/// generation, index builds. The machine reports two cores.
pub const THREADS: usize = 2;

/// Fleets: a small one trains the rank workloads' model for one epoch,
/// the larger one is the offline pipeline `train_offline` pays for.
pub const FLEET_RANK: (usize, usize) = (20, 4);
pub const FLEET_TRAIN: (usize, usize) = (60, 5);
pub const TRAIN_FRAC: f64 = 0.8;
/// node2vec sized so that set-up stays seconds (the crate default takes
/// 70 s at 10 k vertices).
pub const N2V_WALKS_PER_VERTEX: usize = 1;
pub const N2V_WALK_LENGTH: usize = 12;
pub const N2V_EPOCHS: usize = 1;

/// Trainer: one op trains one slice.
pub const TRAIN_SLICE: usize = 128;
pub const TRAIN_BATCH: usize = 32;
/// Floor for the fixed-work quality probe's Kendall tau.
pub const TAU_FLOOR: f64 = 0.15;

/// Serving.
pub const SERVE_OUTSTANDING: usize = 32;
/// The shard's admission queue: two seconds of the open-loop rate, so
/// that a stall of the machine shows as latency, not as shed requests
/// (the default, 1 024, overflowed once in twenty runs, on a 0.3 s stall).
pub const SERVE_QUEUE: usize = 8_192;
pub const SERVE_HUBS: usize = 8;
pub const SERVE_POOL: usize = 16_384;
pub const SERVE_P_LENGTH: f64 = 0.5;
pub const SERVE_P_HUB: f64 = 0.5;
pub const UPDATE_EVERY_MS: u64 = 250;
pub const UPDATE_EDGE_SHARE: f64 = 0.005;
pub const CONGESTION_MAX: f64 = 3.0;
/// Open-loop arrival rate (a seeded Poisson stream): set once at two
/// fifths of the closed-loop capacity measured when the benchmark was
/// defined (`ops_per_s` of `serve_mixed` in the README's baseline); never
/// derived at run time.
pub const RATE_RPS: f64 = 4_000.0;
/// The output hash covers the `length` replies among this many leading
/// requests of the closed-loop half, which every window completes.
pub const SERVE_HASH_REQUESTS: usize = 2_048;
pub const LIVE_VERIFY_SAMPLES: usize = 256;
pub const TCP_PROBE_REQUESTS: usize = 2_000;

/// Harness: throughput blocks last at least this long.
pub const BLOCK_MS: u64 = 1_000;
/// A traced run repeats its window this long with spans off: the source
/// of `bench.trace_overhead_ratio` and of the window metrics it reports.
pub const UNTRACED_REPEAT_S: f64 = 5.0;
/// A traced run measures the other workloads' per-layer metrics in side
/// windows this long on its own environment: the driver's contract wants
/// every per-layer metric from every traced run.
pub const SIDE_WINDOW_S: f64 = 1.5;
/// Queries a traced run of a workload without rank queries generates for
/// the rank side windows.
pub const SIDE_QUERIES: usize = 64;
