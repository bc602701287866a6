//! End-to-end experiment pipeline.
//!
//! A [`Workbench`] owns everything that is *shared* across the
//! configurations of one table: the road network, the simulated fleet, the
//! train/test split of its map-matched trajectory paths, per-`M` node2vec
//! embeddings and per-strategy candidate groups (all cached).
//! [`Workbench::run`] then trains and evaluates one PathRank
//! configuration.
//!
//! Trajectories are recovered the way the paper recovers them: every
//! simulated trip's GPS trace goes through one HMM
//! [`pathrank_traj::mapmatch::MapMatcher`], and traces that do not match
//! are dropped. The model never sees the simulator's true paths.
//!
//! Evaluation protocol: following the paper, each training-data strategy
//! is evaluated on *its own* candidate sets over the held-out test
//! trajectories (the "advanced routing" module of the paper's solution
//! overview serves the same kind of candidates at query time that the
//! model was trained to rank). A fixed D-TkDI test bed is also available
//! for baseline comparisons ([`Workbench::test_groups`]).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use pathrank_embed::node2vec::{train_node2vec, Node2VecConfig};
use pathrank_embed::skipgram::SkipGramConfig;
use pathrank_embed::walks::WalkConfig;
use pathrank_nn::matrix::Matrix;
use pathrank_obs::{MetricsSnapshot, Registry};
use pathrank_spatial::algo::ch::{ChConfig, ContractionHierarchy};
use pathrank_spatial::algo::engine::{EngineObs, QueryEngine};
use pathrank_spatial::algo::landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable};
use pathrank_spatial::generators::{region_network, RegionConfig};
use pathrank_spatial::graph::Graph;
use pathrank_spatial::path::Path;
use pathrank_traj::dataset::TrajectoryDataset;
use pathrank_traj::mapmatch::MapMatchConfig;
use pathrank_traj::simulator::{simulate_fleet, SimulationConfig};

use crate::candidates::{generate_groups_with_backends, CandidateConfig, Strategy, TrainingGroup};
use crate::eval::{evaluate_model, EvalResult};
use crate::model::{EmbeddingMode, ModelConfig, PathRankModel};
use crate::trainer::{prepare_samples, train, TrainConfig, TrainReport};

/// Everything the experiment environment needs (network, fleet, splits).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Synthetic region parameters (the North Jutland stand-in).
    pub region: RegionConfig,
    /// Fleet simulation parameters.
    pub sim: SimulationConfig,
    /// node2vec parameters (`dim` is overridden per requested `M`).
    pub n2v: Node2VecConfig,
    /// Drop trajectories with fewer edges than this.
    pub min_hops: usize,
    /// Drop trajectories with more edges than this (bounds BPTT length).
    pub max_hops: usize,
    /// Fraction of trajectories used for training.
    pub train_frac: f64,
    /// Worker threads for candidate generation and training.
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// Milliseconds-scale configuration for unit tests.
    pub fn small_test() -> Self {
        ExperimentConfig {
            region: RegionConfig::small_test(),
            sim: SimulationConfig::small_test(),
            n2v: Node2VecConfig {
                walks: WalkConfig {
                    walks_per_vertex: 3,
                    walk_length: 12,
                    ..WalkConfig::default()
                },
                sgns: SkipGramConfig {
                    epochs: 1,
                    ..SkipGramConfig::default()
                },
            },
            min_hops: 3,
            max_hops: 60,
            train_frac: 0.75,
            threads: 2,
            seed: 2020,
        }
    }

    /// The laptop-scale mirror of the paper's setup: a ~3k-vertex region,
    /// a fleet of drivers with hidden preferences, minutes-scale training.
    pub fn paper_scale() -> Self {
        ExperimentConfig {
            region: RegionConfig::paper_scale(),
            sim: SimulationConfig {
                n_vehicles: 50,
                trips_per_vehicle: 5,
                min_trip_euclid_m: 800.0,
                max_trip_euclid_m: 6_000.0,
                ..SimulationConfig::paper_scale()
            },
            n2v: Node2VecConfig::default(),
            min_hops: 5,
            max_hops: 60,
            train_frac: 0.8,
            threads: 2,
            seed: 2020,
        }
    }
}

/// Outcome of one configuration run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Test-set metrics.
    pub eval: EvalResult,
    /// Training diagnostics.
    pub report: TrainReport,
    /// Number of training ranking groups.
    pub train_groups: usize,
    /// Number of test ranking groups.
    pub test_groups: usize,
    /// Wall-clock seconds for train + eval (excludes cached preprocessing).
    pub seconds: f64,
}

/// Shared experiment state with caching. See the module docs.
pub struct Workbench {
    /// The road network.
    pub graph: Graph,
    /// Training trajectory paths.
    pub train_paths: Vec<Path>,
    /// Held-out test trajectory paths.
    pub test_paths: Vec<Path>,
    cfg: ExperimentConfig,
    embeddings: HashMap<usize, Matrix>,
    train_group_cache: HashMap<String, Vec<TrainingGroup>>,
    test_group_cache: HashMap<String, Vec<TrainingGroup>>,
    /// ALT landmark table (length metric), built on first use.
    landmarks: OnceLock<Arc<LandmarkTable>>,
    /// Contraction hierarchy (length metric), built on first use and
    /// shared by candidate generation and every engine handed out.
    ch: OnceLock<Arc<ContractionHierarchy>>,
    /// Metrics registry every engine this workbench hands out records
    /// into (`pathrank_engine_*`), plus the map matcher's two probe-cache
    /// counters (`pathrank_match_sp_probes_total`,
    /// `pathrank_match_sp_cache_hits_total`). Swap in
    /// [`Registry::disabled`] via [`Workbench::with_graph_and_registry`]
    /// to turn the whole layer into no-op sinks.
    registry: Registry,
}

impl Workbench {
    /// Builds the shared environment: network → fleet → map-matched
    /// trajectory paths → train/test split. The network comes from the
    /// synthetic region generator; see [`Workbench::with_graph`] /
    /// [`Workbench::from_graph_file`] for real (imported) networks.
    pub fn new(cfg: ExperimentConfig) -> Self {
        let graph = region_network(&cfg.region, cfg.seed);
        Self::with_graph(graph, cfg)
    }

    /// Builds the shared environment on an arbitrary road network —
    /// typically one imported from OSM — instead of the synthetic
    /// generator (`cfg.region` is ignored). The fleet simulation,
    /// map-matching, candidate and training pipelines run unchanged; the
    /// graph should be strongly connected (the OSM importer's default)
    /// so every simulated trip is routable.
    pub fn with_graph(graph: Graph, cfg: ExperimentConfig) -> Self {
        Self::with_graph_and_registry(graph, cfg, Registry::new())
    }

    /// Like [`Workbench::with_graph`], but recording into a
    /// caller-supplied metrics registry — [`Registry::disabled`] is the
    /// obs-off escape hatch, a shared live registry lets several
    /// workbenches (or a surrounding server) scrape one snapshot.
    pub fn with_graph_and_registry(
        graph: Graph,
        cfg: ExperimentConfig,
        registry: Registry,
    ) -> Self {
        let trips = simulate_fleet(&graph, &cfg.sim, cfg.seed.wrapping_add(1));
        let (dataset, match_stats) = TrajectoryDataset::from_map_matching_with_stats(
            &graph,
            &trips,
            &MapMatchConfig::default(),
        );
        match_stats.record_into(&registry);
        let mut dataset = dataset.filter_min_hops(cfg.min_hops);
        dataset.paths.retain(|p| p.len() <= cfg.max_hops);
        let (train_paths, test_paths) = dataset.split(cfg.train_frac, cfg.seed.wrapping_add(2));
        Workbench {
            graph,
            train_paths,
            test_paths,
            cfg,
            embeddings: HashMap::new(),
            train_group_cache: HashMap::new(),
            test_group_cache: HashMap::new(),
            landmarks: OnceLock::new(),
            ch: OnceLock::new(),
            registry,
        }
    }

    /// Builds the shared environment from a road-network file: a raw OSM
    /// XML extract or a `pathrank-graph v1` file — whatever
    /// [`pathrank_spatial::io::load_graph_auto`] recognises. This is the
    /// entry point behind every experiment binary's `--graph` flag: the
    /// whole pipeline (ALT/CH indexes, candidate generation, map
    /// matching, training) runs on the real network unchanged.
    pub fn from_graph_file(
        path: impl AsRef<std::path::Path>,
        cfg: ExperimentConfig,
    ) -> Result<Self, pathrank_spatial::SpatialError> {
        let graph = pathrank_spatial::io::load_graph_auto(path.as_ref())?;
        Ok(Self::with_graph(graph, cfg))
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// The workbench's metrics registry (see the `registry` field docs
    /// for the families it carries).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A scrape of everything the workbench's engines and map matching
    /// have recorded so far.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// A reusable routing engine over this workbench's network, for
    /// callers issuing ad-hoc queries (diagnostics, examples), with the
    /// cached ALT landmarks *and* contraction hierarchy attached:
    /// unconstrained point-to-point queries dispatch to the CH,
    /// constrained (spur) searches to ALT, everything else to plain
    /// searches — all exact. The preprocessing stages already hold their
    /// own: candidate generation runs one engine per worker thread and map
    /// matching reuses one across all traces. Every engine handed out
    /// here records its query and search-work counters into
    /// [`Workbench::registry`].
    pub fn query_engine(&self) -> QueryEngine<'_> {
        QueryEngine::new(&self.graph)
            .with_obs(EngineObs::new(&self.registry))
            .with_landmarks(Arc::clone(self.landmark_table()))
            .with_ch(Arc::clone(self.ch_index()))
    }

    /// The workbench's shared ALT landmark table (length metric — what
    /// candidate generation routes on), built once and cached.
    pub fn landmark_table(&self) -> &Arc<LandmarkTable> {
        self.landmarks.get_or_init(|| {
            Arc::new(LandmarkTable::build(
                &self.graph,
                LandmarkMetric::Length,
                &LandmarkConfig {
                    threads: self.cfg.threads.max(1),
                    ..LandmarkConfig::default()
                },
            ))
        })
    }

    /// The workbench's shared contraction hierarchy (length metric),
    /// built once and cached next to the landmark table.
    pub fn ch_index(&self) -> &Arc<ContractionHierarchy> {
        self.ch.get_or_init(|| {
            Arc::new(ContractionHierarchy::build(
                &self.graph,
                LandmarkMetric::Length,
                &ChConfig {
                    threads: self.cfg.threads.max(1),
                },
            ))
        })
    }

    /// The node2vec embedding for dimensionality `dim` (cached).
    pub fn embedding(&mut self, dim: usize) -> Matrix {
        if let Some(m) = self.embeddings.get(&dim) {
            return m.clone();
        }
        let mut n2v = self.cfg.n2v.clone();
        n2v.sgns.dim = dim;
        let m = train_node2vec(&self.graph, &n2v, self.cfg.seed.wrapping_add(3));
        self.embeddings.insert(dim, m.clone());
        m
    }

    fn group_key(ccfg: &CandidateConfig) -> String {
        format!(
            "{:?}|k{}|t{:.4}|s{}|inc{}",
            ccfg.strategy, ccfg.k, ccfg.diversity_threshold, ccfg.max_scan, ccfg.include_trajectory
        )
    }

    /// Labelled training groups for a candidate configuration (cached).
    pub fn train_groups(&mut self, ccfg: &CandidateConfig) -> Vec<TrainingGroup> {
        let key = Self::group_key(ccfg);
        if let Some(gs) = self.train_group_cache.get(&key) {
            return gs.clone();
        }
        let gs = generate_groups_with_backends(
            &self.graph,
            &self.train_paths,
            ccfg,
            self.cfg.threads,
            Some(Arc::clone(self.landmark_table())),
            Some(Arc::clone(self.ch_index())),
        );
        self.train_group_cache.insert(key, gs.clone());
        gs
    }

    /// Labelled test groups generated with the D-TkDI strategy at
    /// candidate-set size `k` (a convenient fixed test bed for baselines
    /// and cross-strategy comparisons).
    pub fn test_groups(&mut self, k: usize) -> Vec<TrainingGroup> {
        let ccfg = CandidateConfig {
            k,
            ..CandidateConfig::paper_default(Strategy::DTkDI)
        };
        self.test_groups_for(&ccfg)
    }

    /// Labelled test groups generated with an arbitrary candidate
    /// configuration. [`Workbench::run`] uses the *training* configuration
    /// here, matching the paper's protocol: each strategy is evaluated on
    /// the candidate sets it would serve at query time.
    pub fn test_groups_for(&mut self, ccfg: &CandidateConfig) -> Vec<TrainingGroup> {
        let key = Self::group_key(ccfg);
        if let Some(gs) = self.test_group_cache.get(&key) {
            return gs.clone();
        }
        let gs = generate_groups_with_backends(
            &self.graph,
            &self.test_paths,
            ccfg,
            self.cfg.threads,
            Some(Arc::clone(self.landmark_table())),
            Some(Arc::clone(self.ch_index())),
        );
        self.test_group_cache.insert(key, gs.clone());
        gs
    }

    /// Trains and evaluates one PathRank configuration.
    pub fn run(
        &mut self,
        mcfg: ModelConfig,
        ccfg: CandidateConfig,
        tcfg: TrainConfig,
    ) -> ExperimentResult {
        self.run_with_model(mcfg, ccfg, tcfg).0
    }

    /// Like [`Workbench::run`] but also hands back the trained model.
    pub fn run_with_model(
        &mut self,
        mcfg: ModelConfig,
        ccfg: CandidateConfig,
        tcfg: TrainConfig,
    ) -> (ExperimentResult, PathRankModel) {
        let pretrained = match mcfg.embedding_mode {
            EmbeddingMode::TrainableRandom => None,
            _ => Some(self.embedding(mcfg.dim)),
        };
        let train_groups = self.train_groups(&ccfg);
        let test_groups = self.test_groups_for(&ccfg);

        let start = Instant::now();
        let samples = prepare_samples(&self.graph, &train_groups, mcfg.multi_task_weight > 0.0);
        let mut model = PathRankModel::new(self.graph.vertex_count(), pretrained, mcfg);
        let report = train(&mut model, &samples, &tcfg);
        let eval = evaluate_model(&model, &test_groups);
        let seconds = start.elapsed().as_secs_f64();

        (
            ExperimentResult {
                eval,
                report,
                train_groups: train_groups.len(),
                test_groups: test_groups.len(),
                seconds,
            },
            model,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::Strategy;

    fn quick_train_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 2,
            batch_size: 8,
            threads: 2,
            ..Default::default()
        }
    }

    #[test]
    fn workbench_builds_consistent_environment() {
        let wb = Workbench::new(ExperimentConfig::small_test());
        assert!(wb.graph.vertex_count() > 10);
        assert!(!wb.train_paths.is_empty());
        assert!(!wb.test_paths.is_empty());
        // Split proportions roughly respected.
        let total = wb.train_paths.len() + wb.test_paths.len();
        let frac = wb.train_paths.len() as f64 / total as f64;
        assert!((frac - 0.75).abs() < 0.1, "split fraction {frac}");
        // Hop bounds respected.
        for p in wb.train_paths.iter().chain(&wb.test_paths) {
            assert!(p.len() >= 3 && p.len() <= 60);
        }
    }

    /// Pins what the model trains and is tested on: an FNV-1a over each
    /// train path's vertex count and vertex ids, then each test path's.
    /// Any change to the fleet, map matching, the trip filters or the
    /// split moves it.
    #[test]
    fn workbench_dataset_is_golden() {
        fn fold(h: u64, word: u32) -> u64 {
            word.to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }
        let wb = Workbench::new(ExperimentConfig::small_test());
        let h = wb
            .train_paths
            .iter()
            .chain(&wb.test_paths)
            .fold(0xcbf2_9ce4_8422_2325, |h, p| {
                let h = fold(h, p.vertices().len() as u32);
                p.vertices().iter().fold(h, |h, v| fold(h, v.0))
            });
        assert_eq!(
            (wb.train_paths.len(), wb.test_paths.len(), h),
            (9, 3, 0x64ae_3785_0fb2_fe98)
        );
    }

    #[test]
    fn workbench_query_engine_routes_on_its_network() {
        use pathrank_spatial::graph::{CostModel, VertexId};
        let wb = Workbench::new(ExperimentConfig::small_test());
        let mut engine = wb.query_engine();
        let t = VertexId((wb.graph.vertex_count() - 1) as u32);
        // Trajectory endpoints are routable by construction; so is the
        // engine over interleaved queries.
        let p1 = engine.shortest_path(VertexId(0), t, CostModel::Length);
        let p2 = engine.shortest_path(t, VertexId(0), CostModel::TravelTime);
        assert!(
            p1.is_some() || p2.is_some(),
            "SCC network must route somewhere"
        );
    }

    #[test]
    fn ch_workbench_engine_matches_plain_engine() {
        use pathrank_spatial::algo::engine::SearchBackend;
        use pathrank_spatial::graph::{CostModel, VertexId};
        let wb = Workbench::new(ExperimentConfig::small_test());
        // The hierarchy and the table are built once and shared by every
        // engine handed out.
        let c1 = Arc::as_ptr(wb.ch_index());
        let c2 = Arc::as_ptr(wb.ch_index());
        assert_eq!(c1, c2, "contraction hierarchy must be cached");
        let t1 = Arc::as_ptr(wb.landmark_table());
        let t2 = Arc::as_ptr(wb.landmark_table());
        assert_eq!(t1, t2, "landmark table must be cached");
        let mut plain = QueryEngine::new(&wb.graph);
        let mut fast = wb.query_engine();
        assert_eq!(fast.backend_for(CostModel::Length), SearchBackend::Ch);
        assert_eq!(
            fast.constrained_backend_for(CostModel::Length),
            SearchBackend::Alt,
            "spur searches must stay off the CH"
        );
        let n = wb.graph.vertex_count() as u32;
        for (s, t) in [(0, n - 1), (n / 2, 1), (n - 1, n / 3)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let a = plain.shortest_path_cost(s, t, CostModel::Length);
            let b = fast.shortest_path_cost(s, t, CostModel::Length);
            assert_eq!(a, b, "{s:?}->{t:?} CH cost diverged");
        }
    }

    #[test]
    fn obs_workbench_registry_collects_engine_and_match_series() {
        use pathrank_spatial::graph::{CostModel, VertexId};
        let wb = Workbench::new(ExperimentConfig::small_test());
        // Map matching already ran inside the constructor.
        let snap = wb.metrics_snapshot();
        assert!(
            snap.counter_total("pathrank_match_sp_probes_total", &[]) > 0,
            "matcher probe counters must reach the registry"
        );
        // Engine queries and search work are recorded per backend.
        let mut engine = wb.query_engine();
        let n = wb.graph.vertex_count() as u32;
        engine.shortest_path_cost(VertexId(0), VertexId(n - 1), CostModel::Length);
        engine.shortest_path_cost(VertexId(n / 2), VertexId(1), CostModel::Length);
        let snap = wb.metrics_snapshot();
        assert_eq!(
            snap.counter_total("pathrank_engine_queries_total", &[("backend", "ch")]),
            2
        );
        assert!(snap.counter_total("pathrank_engine_settled_nodes_total", &[]) > 0);
        // The disabled registry turns the whole layer into no-op sinks.
        let quiet = Workbench::with_graph_and_registry(
            wb.graph.clone(),
            ExperimentConfig::small_test(),
            Registry::disabled(),
        );
        let mut engine = quiet.query_engine();
        engine.shortest_path_cost(VertexId(0), VertexId(n - 1), CostModel::Length);
        assert!(quiet.metrics_snapshot().counters.is_empty());
    }

    #[test]
    fn embedding_cache_returns_identical_matrices() {
        let mut wb = Workbench::new(ExperimentConfig::small_test());
        let a = wb.embedding(16);
        let b = wb.embedding(16);
        assert_eq!(a, b);
        assert_eq!(a.shape(), (wb.graph.vertex_count(), 16));
        let c = wb.embedding(8);
        assert_eq!(c.cols(), 8);
    }

    #[test]
    fn group_caches_are_stable() {
        let mut wb = Workbench::new(ExperimentConfig::small_test());
        let ccfg = CandidateConfig {
            k: 4,
            ..CandidateConfig::paper_default(Strategy::TkDI)
        };
        let a = wb.train_groups(&ccfg);
        let b = wb.train_groups(&ccfg);
        assert_eq!(a.len(), b.len());
        let t1 = wb.test_groups(4);
        let t2 = wb.test_groups(4);
        assert_eq!(t1.len(), t2.len());
        assert_eq!(t1.len(), wb.test_paths.len());
    }

    #[test]
    fn end_to_end_run_produces_sane_metrics() {
        let mut wb = Workbench::new(ExperimentConfig::small_test());
        let mcfg = ModelConfig::paper_default(16);
        let ccfg = CandidateConfig {
            k: 4,
            ..CandidateConfig::paper_default(Strategy::DTkDI)
        };
        let result = wb.run(mcfg, ccfg, quick_train_cfg());
        assert!(result.eval.mae.is_finite());
        assert!(result.eval.mae >= 0.0 && result.eval.mae <= 1.0);
        assert!((-1.0..=1.0).contains(&result.eval.tau));
        assert!((-1.0..=1.0).contains(&result.eval.rho));
        assert!(result.train_groups > 0 && result.test_groups > 0);
        assert_eq!(result.report.epoch_losses.len(), 2);
    }

    #[test]
    fn trained_model_beats_untrained_on_mae() {
        let mut wb = Workbench::new(ExperimentConfig::small_test());
        let ccfg = CandidateConfig {
            k: 4,
            ..CandidateConfig::paper_default(Strategy::DTkDI)
        };
        // Untrained model: evaluate directly.
        let emb = wb.embedding(16);
        let untrained = PathRankModel::new(
            wb.graph.vertex_count(),
            Some(emb),
            ModelConfig::paper_default(16),
        );
        let test = wb.test_groups(4);
        let before = evaluate_model(&untrained, &test);
        // Trained model. 20 epochs: enough budget that the improvement
        // holds for any reasonable rng stream, not just a lucky one.
        let tcfg = TrainConfig {
            epochs: 20,
            lr: 3e-3,
            ..quick_train_cfg()
        };
        let result = wb.run(ModelConfig::paper_default(16), ccfg, tcfg);
        assert!(
            result.eval.mae < before.mae,
            "training must improve MAE: {} -> {}",
            before.mae,
            result.eval.mae
        );
    }
}
