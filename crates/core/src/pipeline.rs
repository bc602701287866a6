//! End-to-end experiment pipeline.
//!
//! A [`Workbench`] owns everything that is *shared* across the
//! configurations of one table: the road network, the simulated fleet, the
//! train/test trajectory split, per-`M` node2vec embeddings and per-strategy
//! candidate groups (all cached). [`Workbench::run`] then trains and
//! evaluates one PathRank configuration.
//!
//! Evaluation protocol: following the paper, each training-data strategy
//! is evaluated on *its own* candidate sets over the held-out test
//! trajectories (the "advanced routing" module of the paper's solution
//! overview serves the same kind of candidates at query time that the
//! model was trained to rank). A fixed D-TkDI test bed is also available
//! for baseline comparisons ([`Workbench::test_groups`]).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use pathrank_embed::node2vec::{train_node2vec, Node2VecConfig};
use pathrank_nn::matrix::Matrix;
use pathrank_obs::{Histogram, MetricsSnapshot, Registry};
use pathrank_spatial::algo::cch::{Cch, CchConfig, CchTopology};
use pathrank_spatial::algo::ch::{ChConfig, ContractionHierarchy};
use pathrank_spatial::algo::engine::{EngineObs, QueryEngine};
use pathrank_spatial::algo::landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable};
use pathrank_spatial::generators::{region_network, RegionConfig};
use pathrank_spatial::graph::{EdgeId, Graph};
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
    /// Recover trajectory paths by HMM map matching (full paper pipeline)
    /// instead of reading the simulator's ground truth (fast path).
    pub use_map_matching: bool,
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
                walks_per_vertex: 3,
                walk_length: 12,
                epochs: 1,
                ..Default::default()
            },
            min_hops: 3,
            max_hops: 60,
            train_frac: 0.75,
            use_map_matching: false,
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
            use_map_matching: false,
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
    /// ALT landmark table for serving-time engines, built on first use.
    landmarks: OnceLock<Arc<LandmarkTable>>,
    /// TravelTime-metric landmark table for fastest-path serving, built
    /// on first use.
    tt_landmarks: OnceLock<Arc<LandmarkTable>>,
    /// Contraction hierarchy (length metric), built on first use and
    /// shared by every CH-backed engine.
    ch: OnceLock<Arc<ContractionHierarchy>>,
    /// TravelTime-metric contraction hierarchy for fastest-path serving,
    /// built on first use (the length CH cannot cover
    /// `CostModel::TravelTime` queries).
    tt_ch: OnceLock<Arc<ContractionHierarchy>>,
    /// Metric-independent CCH topology (order + shortcut structure),
    /// built on first use. Survives weight mutations: only the cheap
    /// customization below re-runs when speeds change.
    cch_topo: OnceLock<Arc<CchTopology>>,
    /// Customized CCH per metric, keyed by the graph's weights epoch at
    /// customization time. A cached entry whose epoch no longer matches
    /// the graph is re-customized, never served stale.
    cch_cache: Mutex<HashMap<LandmarkMetric, Arc<Cch>>>,
    /// Sparse changed-edge log across [`Workbench::set_edge_speeds`]
    /// calls: the contiguous weights-epoch span it covers plus the
    /// changed `(edge, speed)` entries in application order. Lets
    /// [`Workbench::cch_index`] catch a trailing customization up with
    /// a partial `Cch::apply_delta` pass instead of re-relaxing every
    /// triangle. Direct `graph.set_edge_speeds` mutations bypass the
    /// log; the next refresh then simply runs full.
    speed_deltas: Mutex<SpeedDeltaLog>,
    /// Metrics registry every engine this workbench hands out records
    /// into (`pathrank_engine_*`), plus CCH customization timings
    /// (`pathrank_cch_*`) and — when map matching ran — the matcher's
    /// probe-cache counters (`pathrank_match_*`). Swap in
    /// [`Registry::disabled`] via [`Workbench::with_graph_and_registry`]
    /// to turn the whole layer into no-op sinks.
    registry: Registry,
}

/// See [`Workbench::set_edge_speeds`]: the changed-edge entries covering
/// weights epochs `(from_epoch, to_epoch]`, later entries winning.
#[derive(Debug, Default)]
struct SpeedDeltaLog {
    from_epoch: u64,
    to_epoch: u64,
    changes: Vec<(EdgeId, f64)>,
}

impl Workbench {
    /// Builds the shared environment: network → fleet → trajectory paths →
    /// train/test split. The network comes from the synthetic region
    /// generator; see [`Workbench::with_graph`] /
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
        let dataset = if cfg.use_map_matching {
            let (dataset, match_stats) = TrajectoryDataset::from_map_matching_with_stats(
                &graph,
                &trips,
                &MapMatchConfig::default(),
            );
            match_stats.record_into(&registry);
            dataset
        } else {
            TrajectoryDataset::from_true_paths(&trips)
        };
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
            tt_landmarks: OnceLock::new(),
            ch: OnceLock::new(),
            tt_ch: OnceLock::new(),
            cch_topo: OnceLock::new(),
            cch_cache: Mutex::new(HashMap::new()),
            speed_deltas: Mutex::new(SpeedDeltaLog::default()),
            registry,
        }
    }

    /// Builds the shared environment from a road-network file: a raw OSM
    /// XML extract, a persisted `pathrank-osm-graph v1` import, or a
    /// plain `pathrank-graph v1` file — whatever
    /// [`pathrank_spatial::io::load_graph_auto`] recognises. This is the
    /// entry point behind every experiment binary's `--graph` flag: the
    /// whole pipeline (ALT/CH indexes, candidate generation, map
    /// matching, training) runs on the real network unchanged.
    pub fn from_graph_file(
        path: impl AsRef<std::path::Path>,
        cfg: ExperimentConfig,
    ) -> Result<Self, pathrank_spatial::SpatialError> {
        let loaded = pathrank_spatial::io::load_graph_auto(path.as_ref())?;
        Ok(Self::with_graph(loaded.graph, cfg))
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

    /// A scrape of everything the workbench's engines and customization
    /// paths have recorded so far.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// A reusable routing engine over this workbench's network, for
    /// callers issuing ad-hoc queries (serving-time candidate generation,
    /// diagnostics). The preprocessing stages already hold their own:
    /// candidate generation runs one engine per worker thread and map
    /// matching reuses one across all traces. Every engine handed out
    /// here (and by the ALT/CH/CCH variants layered on top) records its
    /// query and search-work counters into [`Workbench::registry`].
    pub fn query_engine(&self) -> QueryEngine<'_> {
        QueryEngine::new(&self.graph).with_obs(EngineObs::new(&self.registry))
    }

    /// Handle for the CCH customization-duration histogram, split by
    /// `kind=full|sparse` — same family the serving layer records, so
    /// dashboards need one query.
    fn cch_customize_ns(&self, kind: &str) -> Histogram {
        self.registry.histogram(
            "pathrank_cch_customize_ns",
            "CCH customization wall time in nanoseconds, by update kind",
            &[("kind", kind)],
        )
    }

    /// The workbench's shared ALT landmark table (length metric — what
    /// candidate serving routes on), built once and cached.
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

    /// Like [`Workbench::query_engine`], but landmark-directed: the
    /// engine serves the same exact answers with tighter searches —
    /// the configuration for query-heavy serving paths.
    pub fn alt_query_engine(&self) -> QueryEngine<'_> {
        self.query_engine()
            .with_landmarks(Arc::clone(self.landmark_table()))
    }

    /// The workbench's shared TravelTime-metric landmark table, for
    /// fastest-path serving (same build API, different metric — the
    /// length table cannot cover `CostModel::TravelTime` queries).
    pub fn travel_time_landmark_table(&self) -> &Arc<LandmarkTable> {
        self.tt_landmarks.get_or_init(|| {
            Arc::new(LandmarkTable::build(
                &self.graph,
                LandmarkMetric::TravelTime,
                &LandmarkConfig {
                    threads: self.cfg.threads.max(1),
                    ..LandmarkConfig::default()
                },
            ))
        })
    }

    /// An engine for fastest-path (TravelTime) serving: the TravelTime
    /// contraction hierarchy for unconstrained point-to-point queries
    /// and batched distance tables, TravelTime ALT landmarks for
    /// everything constrained. Length queries on this engine fall back
    /// to plain searches (the metric gate is per query).
    pub fn fastest_query_engine(&self) -> QueryEngine<'_> {
        self.query_engine()
            .with_landmarks(Arc::clone(self.travel_time_landmark_table()))
            .with_ch(Arc::clone(self.travel_time_ch_index()))
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
                    ..ChConfig::default()
                },
            ))
        })
    }

    /// The workbench's shared TravelTime-metric contraction hierarchy,
    /// so fastest-path serving runs on a hierarchy instead of falling
    /// back to ALT (same build API, different metric). Like the length
    /// CH it round-trips through `spatial::io::write_ch`/`read_ch`, so
    /// servers persist it next to the graph and skip the build on
    /// restart.
    pub fn travel_time_ch_index(&self) -> &Arc<ContractionHierarchy> {
        self.tt_ch.get_or_init(|| {
            Arc::new(ContractionHierarchy::build(
                &self.graph,
                LandmarkMetric::TravelTime,
                &ChConfig {
                    threads: self.cfg.threads.max(1),
                    ..ChConfig::default()
                },
            ))
        })
    }

    /// The strongest serving engine: ALT landmarks *and* the contraction
    /// hierarchy attached. Unconstrained point-to-point queries dispatch
    /// to the CH, constrained (spur) searches to ALT, everything else to
    /// plain searches — all exact.
    pub fn ch_query_engine(&self) -> QueryEngine<'_> {
        self.alt_query_engine().with_ch(Arc::clone(self.ch_index()))
    }

    /// The workbench's shared metric-independent CCH topology
    /// (contraction order plus shortcut structure), built once and kept
    /// across live-weight changes: mutating edge speeds only invalidates
    /// the customized weights ([`Workbench::cch_index`]), never this.
    pub fn cch_topology(&self) -> &Arc<CchTopology> {
        self.cch_topo.get_or_init(|| {
            Arc::new(CchTopology::build(
                &self.graph,
                &CchConfig {
                    threads: self.cfg.threads.max(1),
                },
            ))
        })
    }

    /// Applies a batch of live speed updates through the workbench and
    /// records the changed-edge delta, so the next
    /// [`Workbench::cch_index`] / [`Workbench::live_query_engine`] call
    /// can catch the cached customization up with a sparse partial pass
    /// (`Cch::apply_delta`) instead of re-relaxing every triangle.
    /// Returns the delta
    /// ([`Graph::set_edge_speeds`](pathrank_spatial::graph::Graph::set_edge_speeds)'s
    /// contract): empty means every update was a redundant echo, the
    /// weights epoch stayed put, and no index was invalidated.
    pub fn set_edge_speeds(&mut self, updates: &[(EdgeId, f64)]) -> Vec<(EdgeId, f64)> {
        let before = self.graph.weights_epoch();
        let delta = self.graph.set_edge_speeds(updates);
        if !delta.is_empty() {
            let log = self
                .speed_deltas
                .get_mut()
                .expect("speed delta log poisoned");
            if log.to_epoch != before {
                // A direct graph mutation bypassed the log; restart
                // coverage at the span we can vouch for.
                log.from_epoch = before;
                log.changes.clear();
            }
            log.changes.extend_from_slice(&delta);
            log.to_epoch = self.graph.weights_epoch();
            if log.changes.len() > self.graph.edge_count() {
                // Past a full graph's worth of entries the partial pass
                // stops being cheaper; drop coverage and let the next
                // refresh run full (which also resets this growth).
                log.from_epoch = log.to_epoch;
                log.changes.clear();
            }
        }
        delta
    }

    /// A CCH customized for `metric` at the graph's *current* weights
    /// epoch. Customization (milliseconds) runs on first use per metric
    /// and again after every weight mutation; a cached index whose epoch
    /// trails the graph is replaced, so this can never serve pre-mutation
    /// weights. Callers that perturb speeds (traffic feeds, what-if
    /// simulation) just call this again after
    /// [`Workbench::set_edge_speeds`] — when the sparse delta log covers
    /// the gap, the refresh re-relaxes only the triangles the delta
    /// touched (`Cch::apply_delta`, bit-identical to the full pass) and
    /// costs microseconds instead of milliseconds.
    pub fn cch_index(&self, metric: LandmarkMetric) -> Arc<Cch> {
        let current = self.graph.weights_epoch();
        let mut cache = self.cch_cache.lock().expect("cch cache poisoned");
        if let Some(cch) = cache.get(&metric) {
            if cch.weights_epoch() == current {
                return Arc::clone(cch);
            }
            let log = self.speed_deltas.lock().expect("speed delta log poisoned");
            if log.from_epoch <= cch.weights_epoch() && log.to_epoch == current {
                // The log may start before the cached epoch; the extra
                // entries recompute to their current values and stop
                // immediately, so a superset is always safe.
                let started = Instant::now();
                let mut fresh = (**cch).clone();
                let recomputed = fresh.apply_delta(&self.graph, &log.changes);
                self.cch_customize_ns("sparse")
                    .record_duration(started.elapsed());
                self.registry
                    .histogram(
                        "pathrank_cch_delta_edges",
                        "Edges named by each sparse live-weight delta",
                        &[],
                    )
                    .record(log.changes.len() as u64);
                self.registry
                    .histogram(
                        "pathrank_cch_recomputed_arcs",
                        "Shortcut arcs re-relaxed by each sparse customization (triangle closure size)",
                        &[],
                    )
                    .record(recomputed as u64);
                drop(log);
                let fresh = Arc::new(fresh);
                cache.insert(metric, Arc::clone(&fresh));
                return fresh;
            }
        }
        let topo = self.cch_topology();
        let started = Instant::now();
        let cch = Arc::new(topo.customize(&self.graph, &metric.cost_model()));
        self.cch_customize_ns("full")
            .record_duration(started.elapsed());
        cache.insert(metric, Arc::clone(&cch));
        cch
    }

    /// An engine for live-traffic serving: fastest-path queries run on a
    /// TravelTime CCH customized at the current weights epoch, so the
    /// answers always reflect the latest speed mutations. Re-request the
    /// engine after a weight change — re-customizing costs milliseconds,
    /// not the full-hierarchy rebuild [`Workbench::fastest_query_engine`]
    /// would need.
    pub fn live_query_engine(&self) -> QueryEngine<'_> {
        self.query_engine()
            .with_cch(self.cch_index(LandmarkMetric::TravelTime))
    }

    /// The node2vec embedding for dimensionality `dim` (cached).
    pub fn embedding(&mut self, dim: usize) -> Matrix {
        if let Some(m) = self.embeddings.get(&dim) {
            return m.clone();
        }
        let n2v = Node2VecConfig {
            dim,
            ..self.cfg.n2v.clone()
        };
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
    fn alt_workbench_engine_matches_plain_engine() {
        use pathrank_spatial::graph::{CostModel, VertexId};
        let wb = Workbench::new(ExperimentConfig::small_test());
        // The table is built once and shared by every ALT engine.
        let t1 = Arc::as_ptr(wb.landmark_table());
        let t2 = Arc::as_ptr(wb.landmark_table());
        assert_eq!(t1, t2, "landmark table must be cached");
        let mut plain = wb.query_engine();
        let mut alt = wb.alt_query_engine();
        assert!(alt.uses_alt(CostModel::Length));
        let n = wb.graph.vertex_count() as u32;
        for (s, t) in [(0, n - 1), (n / 2, 1), (n - 1, n / 3)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let a = plain.shortest_path_cost(s, t, CostModel::Length);
            let b = alt.shortest_path_cost(s, t, CostModel::Length);
            assert_eq!(a, b, "{s:?}->{t:?} ALT cost diverged");
        }
    }

    #[test]
    fn ch_workbench_engine_matches_plain_engine() {
        use pathrank_spatial::algo::engine::SearchBackend;
        use pathrank_spatial::graph::{CostModel, VertexId};
        let wb = Workbench::new(ExperimentConfig::small_test());
        // The hierarchy is built once and shared by every CH engine.
        let c1 = Arc::as_ptr(wb.ch_index());
        let c2 = Arc::as_ptr(wb.ch_index());
        assert_eq!(c1, c2, "contraction hierarchy must be cached");
        let mut plain = wb.query_engine();
        let mut fast = wb.ch_query_engine();
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
    fn live_workbench_engine_recustomizes_after_traffic() {
        use pathrank_spatial::algo::engine::SearchBackend;
        use pathrank_spatial::algo::landmarks::LandmarkMetric;
        use pathrank_spatial::graph::{CostModel, EdgeId, VertexId};
        let mut wb = Workbench::new(ExperimentConfig::small_test());
        // The customized CCH is cached while the weights stand still...
        let c1 = Arc::as_ptr(&wb.cch_index(LandmarkMetric::TravelTime));
        let c2 = Arc::as_ptr(&wb.cch_index(LandmarkMetric::TravelTime));
        assert_eq!(c1, c2, "customized CCH must be cached within an epoch");
        // ...and the topology survives weight mutations entirely.
        let topo = Arc::as_ptr(wb.cch_topology());
        // Pre-mutation indexes built against epoch 0.
        wb.travel_time_ch_index();
        wb.travel_time_landmark_table();
        // Traffic arrives: every third edge slows to a crawl.
        let updates: Vec<(EdgeId, f64)> = (0..wb.graph.edge_count())
            .step_by(3)
            .map(|e| (EdgeId(e as u32), 7.2))
            .collect();
        wb.graph.set_edge_speeds(&updates);
        // The stale TravelTime CH/ALT indexes are epoch-gated out: the
        // fastest engine silently falls back to exact plain searches
        // rather than serving pre-mutation weights.
        let stale = wb.fastest_query_engine();
        assert_eq!(
            stale.backend_for(CostModel::TravelTime),
            SearchBackend::Plain,
            "indexes built before a weight mutation must not serve"
        );
        // cch_index re-customizes on the shared topology instead.
        let fresh = wb.cch_index(LandmarkMetric::TravelTime);
        assert_ne!(c1, Arc::as_ptr(&fresh), "stale customization reused");
        assert_eq!(fresh.weights_epoch(), wb.graph.weights_epoch());
        assert_eq!(topo, Arc::as_ptr(wb.cch_topology()), "topology rebuilt");
        // And the live engine answers match plain Dijkstra on the
        // perturbed graph exactly.
        let mut live = wb.live_query_engine();
        assert_eq!(live.backend_for(CostModel::TravelTime), SearchBackend::Cch);
        let mut plain = wb.query_engine();
        let n = wb.graph.vertex_count() as u32;
        for (s, t) in [(0, n - 1), (n / 2, 1), (n - 1, n / 3)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let a = plain.shortest_path_cost(s, t, CostModel::TravelTime);
            let b = live.shortest_path_cost(s, t, CostModel::TravelTime);
            assert_eq!(a, b, "{s:?}->{t:?} live CCH cost diverged");
        }
    }

    #[test]
    fn sparse_speed_deltas_refresh_the_cch_partially_and_exactly() {
        use pathrank_spatial::algo::landmarks::LandmarkMetric;
        use pathrank_spatial::graph::{CostModel, EdgeId, VertexId};
        let mut wb = Workbench::new(ExperimentConfig::small_test());
        let primed = wb.cch_index(LandmarkMetric::TravelTime);
        assert_eq!(primed.weights_epoch(), 0);

        // A redundant echo must not disturb anything: empty delta, same
        // epoch, same cached Arc.
        let echo = wb.graph.edge(EdgeId(0)).attrs.speed_kmh;
        assert!(wb.set_edge_speeds(&[(EdgeId(0), echo)]).is_empty());
        assert_eq!(wb.graph.weights_epoch(), 0);
        assert_eq!(
            Arc::as_ptr(&primed),
            Arc::as_ptr(&wb.cch_index(LandmarkMetric::TravelTime))
        );

        // Two chained sparse batches through the workbench entry point;
        // the delta log spans both, so one partial pass catches up.
        let sparse: Vec<(EdgeId, f64)> = (0..wb.graph.edge_count())
            .step_by(17)
            .map(|e| (EdgeId(e as u32), 6.5))
            .collect();
        assert_eq!(wb.set_edge_speeds(&sparse).len(), sparse.len());
        let more = [(EdgeId(1), 88.0), (EdgeId(3), 12.0)];
        assert!(!wb.set_edge_speeds(&more).is_empty());
        assert_eq!(wb.graph.weights_epoch(), 2);

        let fresh = wb.cch_index(LandmarkMetric::TravelTime);
        assert_ne!(Arc::as_ptr(&primed), Arc::as_ptr(&fresh));
        assert_eq!(fresh.weights_epoch(), wb.graph.weights_epoch());
        // The partially refreshed CCH answers bit-identically to plain
        // Dijkstra on the mutated graph.
        let mut live = wb.live_query_engine();
        let mut plain = wb.query_engine();
        let n = wb.graph.vertex_count() as u32;
        for (s, t) in [(0, n - 1), (n / 2, 1), (n - 1, n / 3), (1, n / 2)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let a = plain.shortest_path_cost(s, t, CostModel::TravelTime);
            let b = live.shortest_path_cost(s, t, CostModel::TravelTime);
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "{s:?}->{t:?} diverged")
                }
                (a, b) => assert_eq!(a, b, "{s:?}->{t:?} reachability diverged"),
            }
        }

        // A direct graph mutation bypasses the log: the next refresh
        // must fall back to a full customization, not trust stale
        // coverage — and still land on the right epoch.
        wb.graph.set_edge_speeds(&[(EdgeId(2), 31.0)]);
        let full = wb.cch_index(LandmarkMetric::TravelTime);
        assert_eq!(full.weights_epoch(), wb.graph.weights_epoch());
        let mut live = wb.live_query_engine();
        let mut plain = wb.query_engine();
        let (s, t) = (VertexId(0), VertexId(n - 1));
        assert_eq!(
            plain.shortest_path_cost(s, t, CostModel::TravelTime),
            live.shortest_path_cost(s, t, CostModel::TravelTime)
        );
    }

    #[test]
    fn travel_time_workbench_engine_serves_fastest_paths() {
        use pathrank_spatial::algo::engine::SearchBackend;
        use pathrank_spatial::algo::landmarks::LandmarkMetric;
        use pathrank_spatial::graph::{CostModel, VertexId};
        let wb = Workbench::new(ExperimentConfig::small_test());
        let t1 = Arc::as_ptr(wb.travel_time_landmark_table());
        let t2 = Arc::as_ptr(wb.travel_time_landmark_table());
        assert_eq!(t1, t2, "TravelTime table must be cached");
        let c1 = Arc::as_ptr(wb.travel_time_ch_index());
        let c2 = Arc::as_ptr(wb.travel_time_ch_index());
        assert_eq!(c1, c2, "TravelTime CH must be cached");
        assert_eq!(
            wb.travel_time_ch_index().metric(),
            LandmarkMetric::TravelTime
        );
        assert_ne!(
            Arc::as_ptr(wb.ch_index()),
            Arc::as_ptr(wb.travel_time_ch_index()),
            "the two metrics get distinct hierarchies"
        );
        let mut plain = wb.query_engine();
        let mut fastest = wb.fastest_query_engine();
        assert_eq!(
            fastest.backend_for(CostModel::TravelTime),
            SearchBackend::Ch,
            "fastest-path serving now runs on the TravelTime CH"
        );
        assert_eq!(
            fastest.constrained_backend_for(CostModel::TravelTime),
            SearchBackend::Alt,
            "constrained fastest-path searches stay on ALT"
        );
        assert_eq!(
            fastest.backend_for(CostModel::Length),
            SearchBackend::Plain,
            "neither TravelTime index may cover length queries"
        );
        let n = wb.graph.vertex_count() as u32;
        for (s, t) in [(0, n - 1), (n / 3, n / 2)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let a = plain.shortest_path_cost(s, t, CostModel::TravelTime);
            let b = fastest.shortest_path_cost(s, t, CostModel::TravelTime);
            assert_eq!(a, b, "{s:?}->{t:?} fastest-path cost diverged");
        }
        // The TravelTime hierarchy persists through the same io layer as
        // the length one: a reloaded index serves identical answers.
        let reloaded = pathrank_spatial::io::ch_from_str(&pathrank_spatial::io::ch_to_string(
            wb.travel_time_ch_index(),
        ))
        .expect("TravelTime CH must round-trip");
        let mut reloaded_engine = wb.query_engine().with_ch(Arc::new(reloaded));
        for (s, t) in [(0, n - 1), (n / 3, n / 2)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let a = fastest.shortest_path_cost(s, t, CostModel::TravelTime);
            let b = reloaded_engine.shortest_path_cost(s, t, CostModel::TravelTime);
            assert_eq!(a, b, "{s:?}->{t:?} reloaded TT CH diverged");
        }
    }

    #[test]
    fn serving_engines_match_plain_engine_across_speed_updates() {
        use pathrank_spatial::graph::{CostModel, VertexId};
        let mut wb = Workbench::new(ExperimentConfig::small_test());
        let n = wb.graph.vertex_count() as u32;
        let agree = |wb: &Workbench| {
            let mut plain = wb.query_engine();
            let mut alt = wb.alt_query_engine();
            for (s, t) in [(0, n - 1), (n / 2, 1), (n - 1, n / 3)] {
                let (s, t) = (VertexId(s), VertexId(t));
                for cost in [CostModel::Length, CostModel::TravelTime] {
                    let a = plain.shortest_path_cost(s, t, cost);
                    let b = alt.shortest_path_cost(s, t, cost);
                    assert_eq!(
                        a.map(f64::to_bits),
                        b.map(f64::to_bits),
                        "{s:?}->{t:?} serving cost diverged"
                    );
                }
            }
        };
        agree(&wb);
        // After a live weight mutation the engines keep answering exactly,
        // on the new travel times.
        let updates: Vec<(pathrank_spatial::graph::EdgeId, f64)> = (0..wb.graph.edge_count())
            .step_by(5)
            .map(|e| (pathrank_spatial::graph::EdgeId(e as u32), 11.0))
            .collect();
        wb.graph.set_edge_speeds(&updates);
        agree(&wb);
    }

    #[test]
    fn obs_workbench_registry_collects_engine_cch_and_match_series() {
        use pathrank_spatial::algo::landmarks::LandmarkMetric;
        use pathrank_spatial::graph::{CostModel, EdgeId, VertexId};
        let mut cfg = ExperimentConfig::small_test();
        cfg.use_map_matching = true;
        let mut wb = Workbench::new(cfg);
        // Map matching already ran inside the constructor.
        let snap = wb.metrics_snapshot();
        assert!(
            snap.counter_total("pathrank_match_sp_probes_total", &[]) > 0,
            "matcher probe counters must reach the registry"
        );
        // Engine queries and search work are recorded per backend.
        let mut engine = wb.ch_query_engine();
        let n = wb.graph.vertex_count() as u32;
        engine.shortest_path_cost(VertexId(0), VertexId(n - 1), CostModel::Length);
        engine.shortest_path_cost(VertexId(n / 2), VertexId(1), CostModel::Length);
        let snap = wb.metrics_snapshot();
        assert_eq!(
            snap.counter_total("pathrank_engine_queries_total", &[("backend", "ch")]),
            2
        );
        assert!(snap.counter_total("pathrank_engine_settled_nodes_total", &[]) > 0);
        // One full customization, then a sparse partial refresh.
        wb.cch_index(LandmarkMetric::TravelTime);
        wb.set_edge_speeds(&[(EdgeId(0), 9.0)]);
        wb.cch_index(LandmarkMetric::TravelTime);
        let snap = wb.metrics_snapshot();
        let full = snap
            .histogram("pathrank_cch_customize_ns", &[("kind", "full")])
            .expect("full customization timed");
        let sparse = snap
            .histogram("pathrank_cch_customize_ns", &[("kind", "sparse")])
            .expect("sparse customization timed");
        assert_eq!(full.count, 1);
        assert_eq!(sparse.count, 1);
        assert_eq!(
            snap.histogram("pathrank_cch_delta_edges", &[])
                .expect("delta size recorded")
                .sum,
            1
        );
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
