//! The seeded environment a workload runs in, built stage by stage with
//! every stage timed: the map and its indexes, the offline pipeline
//! (fleet → map matching → candidate groups → node2vec → samples → model)
//! and the rank workloads' queries. Stages that take a thread count get
//! `THREADS`.

use std::sync::Arc;

use pathrank_core::candidates::{
    generate_groups_with_backends, CandidateConfig, Strategy, TrainingGroup,
};
use pathrank_core::model::{ModelConfig, PathRankModel};
use pathrank_core::trainer::{prepare_samples, train, Sample, TrainConfig};
use pathrank_embed::skipgram::{train_skipgram, SkipGramConfig};
use pathrank_embed::walks::{generate_walks, WalkConfig};
use pathrank_nn::matrix::Matrix;
use pathrank_spatial::algo::cch::{CchConfig, CchTopology};
use pathrank_spatial::algo::ch::{ChConfig, ContractionHierarchy};
use pathrank_spatial::algo::diversified::DiversifiedConfig;
use pathrank_spatial::algo::engine::QueryEngine;
use pathrank_spatial::algo::landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable};
use pathrank_spatial::generators::{region_network, RegionConfig};
use pathrank_spatial::graph::{CostModel, EdgeId, Graph, RoadCategory, VertexId};
use pathrank_spatial::path::Path;
use pathrank_spatial::similarity::EdgeWeight;
use pathrank_traj::dataset::TrajectoryDataset;
use pathrank_traj::mapmatch::MapMatchConfig;
use pathrank_traj::simulator::{simulate_fleet, SimulationConfig};

use crate::consts::*;
use crate::rng::{Fnv, Rng};
use crate::sys;
use crate::trace::Span;

/// What to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Town multiplier over the paper-scale region.
    pub mult: usize,
    /// `(vehicles, trips per vehicle)`; `None` skips the offline pipeline.
    pub fleet: Option<(usize, usize)>,
    /// Train the model for one epoch (the rank workloads' ranker).
    pub pretrain: bool,
    /// Rank queries to generate.
    pub queries: usize,
    /// CCH topology and base live weights (what serving needs).
    pub live: bool,
}

/// One timed set-up stage; `name` is the span name (`setup.*`).
#[derive(Debug, Clone, Copy)]
pub struct Stage {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Peak resident set of the process when the stage ended: which stage
    /// sets `peak_rss_mib`.
    pub peak_rss_mib: f64,
}

#[derive(Debug, Clone, Default)]
pub struct Stages(pub Vec<Stage>);

impl Stages {
    pub fn run<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = sys::now_ns();
        let out = f();
        self.0.push(Stage {
            name,
            start_ns,
            end_ns: sys::now_ns(),
            peak_rss_mib: sys::peak_rss_mib(),
        });
        out
    }

    /// Seconds the stage called `name` took; `None` when it did not run.
    pub fn seconds(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// The stages as root spans (lane 0 of the span ids).
    pub fn spans(&self) -> Vec<Span> {
        self.0
            .iter()
            .enumerate()
            .map(|(i, s)| Span {
                id: i as u32 + 1,
                name: s.name,
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                parent: 0,
                request: 0,
            })
            .collect()
    }
}

/// Output of the offline pipeline.
pub struct Offline {
    pub trips: usize,
    pub traces_matched: usize,
    pub train_groups: Vec<TrainingGroup>,
    pub test_groups: Vec<TrainingGroup>,
    pub embedding: Matrix,
    pub samples: Vec<Sample>,
}

pub struct Env {
    pub graph: Arc<Graph>,
    pub landmarks: Arc<LandmarkTable>,
    pub ch: Arc<ContractionHierarchy>,
    pub cch_topology: Option<Arc<CchTopology>>,
    /// Free-flow travel time per edge: the live metric's first generation.
    pub live_base: Vec<f64>,
    pub offline: Option<Offline>,
    pub model: Option<PathRankModel>,
    pub queries: Vec<(VertexId, VertexId)>,
    pub stages: Stages,
    /// Fingerprint of every seeded input this environment holds.
    pub input_hash: u64,
}

pub fn region_config(mult: usize) -> RegionConfig {
    let base = RegionConfig::paper_scale();
    RegionConfig {
        n_towns: base.n_towns * mult,
        town_size: (TOWN_SIZE, TOWN_SIZE),
        region_extent_m: base.region_extent_m * (mult as f64).sqrt(),
        extra_highways: base.extra_highways * mult,
        ..base
    }
}

pub fn candidate_config(strategy: Strategy) -> CandidateConfig {
    CandidateConfig {
        k: K,
        strategy,
        diversity_threshold: DIVERSITY_THRESHOLD,
        max_scan: MAX_SCAN,
        include_trajectory: true,
    }
}

pub fn diversified_config() -> DiversifiedConfig {
    DiversifiedConfig {
        k: K,
        threshold: DIVERSITY_THRESHOLD,
        max_scan: MAX_SCAN,
        weight: EdgeWeight::Length,
    }
}

pub fn model_config(seed: u64) -> ModelConfig {
    ModelConfig {
        seed,
        ..ModelConfig::paper_default(M)
    }
}

pub fn train_config(threads: usize, epochs: usize, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: TRAIN_BATCH,
        threads,
        seed,
        ..TrainConfig::default()
    }
}

impl Env {
    pub fn build(spec: Spec, seed: u64) -> Env {
        let mut st = Stages::default();
        let mut hash = Fnv::default();

        let graph = Arc::new(st.run("setup.region", || {
            region_network(&region_config(spec.mult), GRAPH_SEED)
        }));
        let landmarks = Arc::new(st.run("setup.landmarks", || {
            LandmarkTable::build(
                &graph,
                LandmarkMetric::Length,
                &LandmarkConfig {
                    threads: THREADS,
                    ..LandmarkConfig::default()
                },
            )
        }));
        let ch = Arc::new(st.run("setup.ch", || {
            ContractionHierarchy::build(
                &graph,
                LandmarkMetric::Length,
                &ChConfig {
                    threads: THREADS,
                    ..ChConfig::default()
                },
            )
        }));

        let (cch_topology, live_base) = if spec.live {
            let topo = st.run("setup.cch_topology", || {
                CchTopology::build(&graph, &CchConfig { threads: THREADS })
            });
            let base = (0..graph.edge_count())
                .map(|e| CostModel::TravelTime.edge_cost(&graph, EdgeId(e as u32)))
                .collect();
            (Some(Arc::new(topo)), base)
        } else {
            (None, Vec::new())
        };

        let offline = spec.fleet.map(|fleet| {
            let off = build_offline(&mut st, &graph, &landmarks, &ch, fleet, seed);
            hash.word(off.trips as u64);
            for s in &off.samples {
                hash.word(s.score.to_bits() as u64);
                for &v in &s.vertices {
                    hash.word(v as u64);
                }
            }
            off
        });

        let model = offline.as_ref().map(|off| {
            st.run("setup.model", || {
                let mut model = PathRankModel::new(
                    graph.vertex_count(),
                    Some(off.embedding.clone()),
                    model_config(seed),
                );
                if spec.pretrain {
                    train(&mut model, &off.samples, &train_config(THREADS, 1, seed));
                }
                model
            })
        });

        let queries = if spec.queries > 0 {
            st.run("setup.queries", || {
                let mut engine = QueryEngine::new(&graph)
                    .with_landmarks(Arc::clone(&landmarks))
                    .with_ch(Arc::clone(&ch));
                generate_queries(&mut engine, spec.queries, seed)
            })
        } else {
            Vec::new()
        };
        for &(s, d) in &queries {
            hash.word((s.0 as u64) << 32 | d.0 as u64);
        }

        Env {
            graph,
            landmarks,
            ch,
            cch_topology,
            live_base,
            offline,
            model,
            queries,
            stages: st,
            input_hash: hash.0,
        }
    }

    /// An engine with landmarks and the contraction hierarchy attached.
    pub fn engine(&self) -> QueryEngine<'_> {
        QueryEngine::new(&self.graph)
            .with_landmarks(Arc::clone(&self.landmarks))
            .with_ch(Arc::clone(&self.ch))
    }
}

fn build_offline(
    st: &mut Stages,
    graph: &Graph,
    landmarks: &Arc<LandmarkTable>,
    ch: &Arc<ContractionHierarchy>,
    (vehicles, trips_per_vehicle): (usize, usize),
    seed: u64,
) -> Offline {
    let sim = SimulationConfig {
        n_vehicles: vehicles,
        trips_per_vehicle,
        min_trip_euclid_m: TRIP_MIN_M,
        max_trip_euclid_m: TRIP_MAX_M,
        ..SimulationConfig::paper_scale()
    };
    let trips = st.run("setup.fleet", || {
        simulate_fleet(graph, &sim, seed.wrapping_add(1))
    });
    let dataset = st.run("setup.mapmatch", || {
        TrajectoryDataset::from_map_matching(graph, &trips, &MapMatchConfig::default())
    });
    let traces_matched = dataset.len();
    let mut dataset = dataset.filter_min_hops(MIN_HOPS);
    dataset
        .paths
        .retain(|p| p.len() <= MAX_HOPS && !uses_highway(graph, p));
    let (train_paths, test_paths) = dataset.split(TRAIN_FRAC, seed.wrapping_add(2));

    let ccfg = candidate_config(Strategy::DTkDI);
    let (train_groups, test_groups) = st.run("setup.candidates", || {
        let gen = |paths| {
            generate_groups_with_backends(
                graph,
                paths,
                &ccfg,
                THREADS,
                Some(Arc::clone(landmarks)),
                Some(Arc::clone(ch)),
            )
        };
        (gen(&train_paths), gen(&test_paths))
    });

    let walks = st.run("setup.walks", || {
        let cfg = WalkConfig {
            walks_per_vertex: N2V_WALKS_PER_VERTEX,
            walk_length: N2V_WALK_LENGTH,
            p: 1.0,
            q: 0.5,
        };
        generate_walks(graph, &cfg, seed.wrapping_add(3))
    });
    let embedding = st.run("setup.skipgram", || {
        let cfg = SkipGramConfig {
            dim: M,
            epochs: N2V_EPOCHS,
            ..SkipGramConfig::default()
        };
        train_skipgram(&walks, graph.vertex_count(), &cfg, seed.wrapping_add(4))
    });
    let samples = st.run("setup.prepare", || {
        prepare_samples(graph, &train_groups, false)
    });

    Offline {
        trips: trips.len(),
        traces_matched,
        train_groups,
        test_groups,
        embedding,
        samples,
    }
}

/// Whether a trip runs along a highway. Such a trip has no diverse
/// alternatives: the diversified search scans to its cap, every failed
/// spur search sweeps the whole map, and one group takes 0.3–1.2 s and
/// several MiB in its worker's arena where the others take 10 ms. A seed
/// draws none to three of them, and they alone moved `train_offline`'s
/// `peak_rss_mib` by 13 % and its candidate stage by half between seeds.
fn uses_highway(graph: &Graph, trip: &Path) -> bool {
    trip.edges()
        .iter()
        .any(|&e| graph.edge(e).attrs.category == RoadCategory::Highway)
}

/// Whether s → d may be a rank query: its shortest path has at most
/// `MAX_HOPS` hops (what the fleet's trajectories are cut to) and Yen finds
/// `K` loopless alternatives within `ADMIT_COST_RATIO` of it. The hop limit
/// keeps out the winding 200-hop routes between two highway vertices: their
/// alternatives all overlap, so the diversified search scans to its cap,
/// takes a second and 14 MiB, and a window measures the one or two such
/// queries a seed draws and nothing else.
fn admitted(engine: &mut QueryEngine<'_>, s: VertexId, d: VertexId) -> bool {
    let paths = engine.yen_k_shortest(s, d, CostModel::Length, K);
    paths.len() == K
        && paths[0].0.len() <= MAX_HOPS
        && paths[K - 1].1 <= ADMIT_COST_RATIO * paths[0].1
}

/// Seeded O/D pairs inside the query band that are [`admitted`].
fn generate_queries(
    engine: &mut QueryEngine<'_>,
    n: usize,
    seed: u64,
) -> Vec<(VertexId, VertexId)> {
    let nv = engine.graph().vertex_count();
    let mut rng = Rng::stream(seed, 0x51);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let s = VertexId(rng.below(nv) as u32);
        let d = VertexId(rng.below(nv) as u32);
        let euclid = engine.graph().euclidean(s, d);
        if (QUERY_MIN_M..=QUERY_MAX_M).contains(&euclid) && admitted(engine, s, d) {
            out.push((s, d));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(queries: usize) -> Spec {
        Spec {
            mult: 1,
            fleet: Some((3, 3)),
            pretrain: false,
            queries,
            live: true,
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Env::build(tiny(16), 5);
        let b = Env::build(tiny(16), 5);
        let c = Env::build(tiny(16), 6);
        assert_eq!(a.input_hash, b.input_hash);
        assert_eq!(a.queries, b.queries);
        assert_ne!(a.input_hash, c.input_hash);
        assert_ne!(a.queries, c.queries);
        // The map belongs to the benchmark, not to the seed.
        assert_eq!(a.graph.vertex_count(), c.graph.vertex_count());
        assert_eq!(a.graph.edge_count(), c.graph.edge_count());
    }

    #[test]
    fn every_requested_part_is_built_and_timed() {
        let env = Env::build(tiny(8), 1);
        let off = env.offline.as_ref().unwrap();
        assert!(off.trips > 0 && off.traces_matched > 0);
        assert!(!off.samples.is_empty());
        assert!(off
            .train_groups
            .iter()
            .chain(&off.test_groups)
            .all(|g| !uses_highway(&env.graph, &g.trajectory)));
        assert_eq!(off.embedding.shape(), (env.graph.vertex_count(), M));
        assert!(env.model.is_some());
        assert!(env.cch_topology.is_some());
        assert_eq!(env.live_base.len(), env.graph.edge_count());
        assert_eq!(env.queries.len(), 8);
        for &(s, d) in &env.queries {
            let e = env.graph.euclidean(s, d);
            assert!((QUERY_MIN_M..=QUERY_MAX_M).contains(&e));
        }
        let names: Vec<_> = env.stages.0.iter().map(|s| s.name).collect();
        for want in [
            "setup.region",
            "setup.landmarks",
            "setup.ch",
            "setup.cch_topology",
            "setup.fleet",
            "setup.mapmatch",
            "setup.candidates",
            "setup.walks",
            "setup.skipgram",
            "setup.prepare",
            "setup.model",
            "setup.queries",
        ] {
            assert!(names.contains(&want), "{want} missing from {names:?}");
        }
        assert!(env.stages.seconds("setup.region").unwrap() > 0.0);
        assert_eq!(env.stages.seconds("setup.nothing"), None);

        let bare = Env::build(
            Spec {
                mult: 1,
                fleet: None,
                pretrain: false,
                queries: 0,
                live: false,
            },
            1,
        );
        assert!(bare.offline.is_none() && bare.model.is_none() && bare.queries.is_empty());
        assert_eq!(bare.stages.0.len(), 3);
    }
}
