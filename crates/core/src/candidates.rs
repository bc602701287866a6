//! Training-data generation — the paper's first contribution.
//!
//! For a trajectory path `P_T` from `s` to `d`, a training group consists
//! of candidate paths from `s` to `d`, each labelled with its ground-truth
//! ranking score `WeightedJaccard(P, P_T)`. The trajectory path itself is
//! included with score 1. Two generation strategies are compared in the
//! paper's Tables 1 and 2:
//!
//! * **TkDI** — the plain top-k shortest paths (Yen);
//! * **D-TkDI** — the *diversified* top-k shortest paths, which covers the
//!   score range far better (plain top-k paths are all nearly identical,
//!   so their labels cluster near one value, starving the regressor of
//!   signal).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pathrank_spatial::algo::ch::ContractionHierarchy;
use pathrank_spatial::algo::diversified::DiversifiedConfig;
use pathrank_spatial::algo::engine::QueryEngine;
use pathrank_spatial::algo::landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable};
use pathrank_spatial::graph::{CostModel, Graph};
use pathrank_spatial::path::Path;
use pathrank_spatial::similarity::{weighted_jaccard, EdgeWeight};

/// Candidate-generation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Plain top-k shortest paths.
    TkDI,
    /// Diversified top-k shortest paths (the paper's winner).
    DTkDI,
}

impl Strategy {
    /// Display name matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::TkDI => "TkDI",
            Strategy::DTkDI => "D-TkDI",
        }
    }
}

/// Parameters of candidate generation.
#[derive(Debug, Clone, Copy)]
pub struct CandidateConfig {
    /// Number of candidate paths per trajectory (k in the paper).
    pub k: usize,
    /// Generation strategy.
    pub strategy: Strategy,
    /// Similarity threshold for D-TkDI (ignored by TkDI).
    pub diversity_threshold: f64,
    /// Cap on paths examined by D-TkDI before giving up.
    pub max_scan: usize,
    /// Whether the trajectory path itself is added (score 1.0).
    pub include_trajectory: bool,
}

impl CandidateConfig {
    /// Paper-style defaults for a strategy: k = 10, diversity threshold
    /// 0.5 (tuned so that D-TkDI actively diversifies on the synthetic
    /// region, whose plain top-k paths are already less redundant than a
    /// real road network's).
    pub fn paper_default(strategy: Strategy) -> Self {
        CandidateConfig {
            k: 10,
            strategy,
            diversity_threshold: 0.5,
            max_scan: 400,
            include_trajectory: true,
        }
    }

    /// The D-TkDI selection these parameters describe (length-weighted
    /// Jaccard, as the ground-truth scores are).
    pub fn diversified(&self) -> DiversifiedConfig {
        DiversifiedConfig {
            k: self.k,
            threshold: self.diversity_threshold,
            max_scan: self.max_scan,
            weight: EdgeWeight::Length,
        }
    }
}

/// One labelled candidate.
#[derive(Debug, Clone)]
pub struct RankedCandidate {
    /// The candidate path.
    pub path: Path,
    /// Ground-truth ranking score: weighted Jaccard to the trajectory.
    pub score: f64,
}

/// All labelled candidates for one trajectory path.
#[derive(Debug, Clone)]
pub struct TrainingGroup {
    /// The trajectory path (ground truth driver behaviour).
    pub trajectory: Path,
    /// Labelled candidates, including the trajectory itself when
    /// configured.
    pub candidates: Vec<RankedCandidate>,
}

impl TrainingGroup {
    /// Number of labelled candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the group carries no candidates.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }
}

/// Generates the labelled candidate group for one trajectory on a
/// caller-provided engine. Candidate generation is the single heaviest
/// routing consumer in the pipeline — up to `max_scan` paths enumerated
/// per trajectory, each firing a constrained spur search per vertex past
/// its deviation point — and all of it reuses the engine's search state.
pub fn generate_group_with(
    engine: &mut QueryEngine<'_>,
    trajectory: &Path,
    cfg: &CandidateConfig,
) -> TrainingGroup {
    let g = engine.graph();
    let (s, d) = (trajectory.source(), trajectory.target());
    let generated: Vec<(Path, f64)> = match cfg.strategy {
        Strategy::TkDI => engine.yen_k_shortest(s, d, CostModel::Length, cfg.k),
        Strategy::DTkDI => engine.diversified_top_k(s, d, CostModel::Length, &cfg.diversified()),
    };

    let mut candidates: Vec<RankedCandidate> = Vec::with_capacity(generated.len() + 1);
    if cfg.include_trajectory {
        candidates.push(RankedCandidate {
            path: trajectory.clone(),
            score: 1.0,
        });
    }
    for (path, _) in generated {
        if cfg.include_trajectory && path.same_route(trajectory) {
            continue; // already present with score 1.0
        }
        let score = weighted_jaccard(g, &path, trajectory, EdgeWeight::Length);
        candidates.push(RankedCandidate { path, score });
    }
    TrainingGroup {
        trajectory: trajectory.clone(),
        candidates,
    }
}

/// Generates groups for many trajectories on `threads` OS threads
/// (candidate generation dominates preprocessing time), with every search
/// index the caller already holds: an ALT table (`None` builds a
/// transient one) and optionally a contraction hierarchy, both built on
/// `g` under the length metric.
///
/// Every worker allocates one [`QueryEngine`] and reuses it for every
/// trajectory it claims; all workers share the one ALT table, so every
/// spur search is landmark-directed. ALT preserves exactness — candidate
/// *costs* are identical to the plain engine's; only tie-breaking among
/// equal-cost optima may differ.
///
/// Each worker engine attaches both indexes and lets the per-query
/// [`pathrank_spatial::algo::engine::SearchBackend`] dispatch sort out
/// the rest: the unconstrained initial shortest path of every Yen /
/// diversified enumeration takes the CH fast path, while the banned-set
/// spur searches — where shortcuts would be unsound — stay ALT-guided.
/// A transient CH is *not* built here: unlike the ALT table, its build
/// cost only amortises across many trajectory batches, so it is worth
/// holding only at the `Workbench` / server level.
pub fn generate_groups_with_backends(
    g: &Graph,
    trajectories: &[Path],
    cfg: &CandidateConfig,
    threads: usize,
    landmarks: Option<Arc<LandmarkTable>>,
    ch: Option<Arc<ContractionHierarchy>>,
) -> Vec<TrainingGroup> {
    let threads = threads.max(1);
    if trajectories.is_empty() {
        return Vec::new();
    }
    let table = landmarks.unwrap_or_else(|| {
        Arc::new(LandmarkTable::build(
            g,
            LandmarkMetric::Length,
            &LandmarkConfig {
                threads,
                ..LandmarkConfig::default()
            },
        ))
    });
    // Group cost is heavy-tailed (a few trajectories cost many times the
    // median), so workers claim one trajectory at a time from a shared
    // cursor instead of owning a fixed chunk, and results are put back in
    // trajectory order: the output does not depend on who claimed what.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut engine = QueryEngine::new(g).with_landmarks(Arc::clone(&table));
        engine.set_ch(ch.clone());
        let mut done = Vec::new();
        loop {
            // Relaxed: the cursor publishes nothing but itself.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(trajectory) = trajectories.get(i) else {
                break done;
            };
            done.push((i, generate_group_with(&mut engine, trajectory, cfg)));
        }
    };
    let mut groups = std::thread::scope(|scope| {
        // The calling thread is one of the `threads` workers.
        let spawned: Vec<_> = (1..threads.min(trajectories.len()))
            .map(|_| scope.spawn(work))
            .collect();
        let mut groups = work();
        for worker in spawned {
            groups.extend(worker.join().expect("candidate worker panicked"));
        }
        groups
    });
    groups.sort_unstable_by_key(|&(i, _)| i);
    groups.into_iter().map(|(_, group)| group).collect()
}

/// Per-trajectory detour factors: `length(trajectory) / length(shortest
/// source→target path)`, the paper's core observation quantified (local
/// drivers deviate from the shortest path; the factor is how much).
///
/// The group probes are batched: every trajectory contributes its
/// `source -> target` pair, and when the engine carries a
/// [`ContractionHierarchy`] covering the length metric, **one**
/// bucket-based [`pathrank_spatial::algo::m2m::DistanceTable`] over the
/// deduplicated endpoint sets answers all of them
/// ([`QueryEngine::many_to_many`]) — instead of one point-to-point
/// search per group. Engines without a usable CH fall back to pairwise
/// cost probes; both paths are exact, so the factors agree to float
/// association.
///
/// Factors are `>= 1` up to float noise; a trajectory that *is* the
/// shortest path scores exactly 1. Degenerate trajectories (zero-length
/// or, defensively, unreachable endpoints) report 1.0.
pub fn trajectory_detour_factors(engine: &mut QueryEngine<'_>, trajectories: &[Path]) -> Vec<f64> {
    let g = engine.graph();
    let mut sources: Vec<_> = trajectories.iter().map(|p| p.source()).collect();
    let mut targets: Vec<_> = trajectories.iter().map(|p| p.target()).collect();
    sources.sort_unstable_by_key(|v| v.0);
    sources.dedup();
    targets.sort_unstable_by_key(|v| v.0);
    targets.dedup();
    let table = engine.many_to_many(&sources, &targets, CostModel::Length);
    trajectories
        .iter()
        .map(|p| {
            let (s, t) = (p.source(), p.target());
            let optimal = match &table {
                Some(tbl) => {
                    let d = tbl.dist_between(s, t).expect("endpoints gathered above");
                    d.is_finite().then_some(d)
                }
                None => engine.shortest_path_cost(s, t, CostModel::Length),
            };
            match optimal {
                Some(d) if d > 0.0 => p.length_m(g) / d,
                _ => 1.0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathrank_spatial::algo::dijkstra::shortest_path;
    use pathrank_spatial::generators::{region_network, RegionConfig};
    use pathrank_spatial::graph::VertexId;
    use pathrank_traj::simulator::{simulate_fleet, SimulationConfig};

    fn setup() -> (Graph, Vec<Path>) {
        let g = region_network(&RegionConfig::small_test(), 8);
        let trips = simulate_fleet(&g, &SimulationConfig::small_test(), 9);
        let paths = trips.into_iter().map(|t| t.path).collect();
        (g, paths)
    }

    #[test]
    fn group_contains_trajectory_with_score_one() {
        let (g, paths) = setup();
        let cfg = CandidateConfig::paper_default(Strategy::DTkDI);
        let group = generate_group_with(&mut QueryEngine::new(&g), &paths[0], &cfg);
        assert!(!group.is_empty());
        assert!(group.candidates[0].path.same_route(&paths[0]));
        assert_eq!(group.candidates[0].score, 1.0);
    }

    #[test]
    fn scores_are_correct_weighted_jaccard() {
        let (g, paths) = setup();
        let cfg = CandidateConfig::paper_default(Strategy::TkDI);
        let group = generate_group_with(&mut QueryEngine::new(&g), &paths[1], &cfg);
        for c in &group.candidates {
            let expect = weighted_jaccard(&g, &c.path, &paths[1], EdgeWeight::Length);
            assert!((c.score - expect).abs() < 1e-12);
            assert!((0.0..=1.0).contains(&c.score));
            assert_eq!(c.path.source(), paths[1].source());
            assert_eq!(c.path.target(), paths[1].target());
        }
    }

    #[test]
    fn no_duplicate_trajectory_when_it_is_shortest() {
        // Use the actual shortest path as "trajectory": TkDI will generate
        // it again; the group must keep exactly one copy.
        let (g, _) = setup();
        let s = VertexId(0);
        let d = VertexId((g.vertex_count() - 1) as u32);
        let sp = shortest_path(&g, s, d, CostModel::Length).unwrap();
        let cfg = CandidateConfig::paper_default(Strategy::TkDI);
        let group = generate_group_with(&mut QueryEngine::new(&g), &sp, &cfg);
        let copies = group
            .candidates
            .iter()
            .filter(|c| c.path.same_route(&sp))
            .count();
        assert_eq!(copies, 1);
        // And that copy is the score-1.0 trajectory entry.
        assert_eq!(group.candidates[0].score, 1.0);
    }

    #[test]
    fn dtkdi_labels_spread_wider_than_tkdi() {
        let (g, paths) = setup();
        let spread = |strategy: Strategy| {
            let cfg = CandidateConfig {
                include_trajectory: false,
                ..CandidateConfig::paper_default(strategy)
            };
            let mut engine = QueryEngine::new(&g);
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            let mut n = 0usize;
            for p in &paths {
                let group = generate_group_with(&mut engine, p, &cfg);
                for c in &group.candidates {
                    lo = lo.min(c.score);
                    hi = hi.max(c.score);
                    n += 1;
                }
            }
            assert!(n > 0);
            hi - lo
        };
        let tk = spread(Strategy::TkDI);
        let dtk = spread(Strategy::DTkDI);
        assert!(
            dtk >= tk - 1e-9,
            "diversified labels must cover at least as wide a range \
             (TkDI {tk:.3} vs D-TkDI {dtk:.3})"
        );
    }

    #[test]
    fn reused_engine_groups_match_one_shot() {
        let (g, paths) = setup();
        for strategy in [Strategy::TkDI, Strategy::DTkDI] {
            let cfg = CandidateConfig::paper_default(strategy);
            let mut engine = QueryEngine::new(&g);
            for p in paths.iter().take(6) {
                let fresh = generate_group_with(&mut QueryEngine::new(&g), p, &cfg);
                let reused = generate_group_with(&mut engine, p, &cfg);
                assert_eq!(fresh.len(), reused.len());
                for (a, b) in fresh.candidates.iter().zip(reused.candidates.iter()) {
                    assert!(a.path.same_route(&b.path));
                    assert_eq!(a.score, b.score, "scores must be bit-identical");
                }
            }
        }
    }

    #[test]
    fn yen_groups_are_independent_of_thread_count() {
        // Workers claim trajectories in whatever order the scheduler
        // allows; the groups must come back in trajectory order and equal
        // the one-thread (sequential) result element for element.
        let (g, paths) = setup();
        let cfg = CandidateConfig::paper_default(Strategy::DTkDI);
        let seq = generate_groups_with_backends(&g, &paths, &cfg, 1, None, None);
        assert_eq!(seq.len(), paths.len());
        for threads in [2, 3, 7] {
            let par = generate_groups_with_backends(&g, &paths, &cfg, threads, None, None);
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(par.iter()) {
                assert_eq!(a.trajectory, b.trajectory, "{threads} threads");
                assert_eq!(a.len(), b.len(), "{threads} threads");
                for (x, y) in a.candidates.iter().zip(b.candidates.iter()) {
                    assert_eq!(x.path, y.path, "{threads} threads");
                    assert_eq!(x.score.to_bits(), y.score.to_bits(), "{threads} threads");
                }
            }
        }
    }

    #[test]
    fn alt_threaded_groups_match_plain_engine_generation() {
        // generate_groups_with_backends runs every worker on ALT landmarks
        // (a transient table when given none); on the
        // float-geometry region network the optimum is unique, so the
        // groups must be identical to a plain (landmark-free) engine's —
        // same candidate routes, bit-identical scores.
        let (g, paths) = setup();
        for strategy in [Strategy::TkDI, Strategy::DTkDI] {
            let cfg = CandidateConfig::paper_default(strategy);
            let alt = generate_groups_with_backends(&g, &paths, &cfg, 2, None, None);
            let mut plain_engine = QueryEngine::new(&g);
            for (group, p) in alt.iter().zip(paths.iter()) {
                let plain = generate_group_with(&mut plain_engine, p, &cfg);
                assert_eq!(group.len(), plain.len());
                for (a, b) in group.candidates.iter().zip(plain.candidates.iter()) {
                    assert!(a.path.same_route(&b.path), "{strategy:?} route diverged");
                    assert_eq!(a.score, b.score, "{strategy:?} score diverged");
                }
            }
        }
    }

    #[test]
    fn ch_backed_groups_match_plain_engine_generation() {
        // Workers attach the CH next to the ALT table; the unconstrained
        // initial path of each enumeration moves to the CH backend while
        // spur searches stay ALT. On the float-geometry region the
        // optimum is unique, so groups must be identical to a plain
        // engine's — same candidate routes, bit-identical scores.
        use pathrank_spatial::algo::ch::{ChConfig, ContractionHierarchy};
        let (g, paths) = setup();
        let ch = Arc::new(ContractionHierarchy::build(
            &g,
            LandmarkMetric::Length,
            &ChConfig::default(),
        ));
        for strategy in [Strategy::TkDI, Strategy::DTkDI] {
            let cfg = CandidateConfig::paper_default(strategy);
            let fast =
                generate_groups_with_backends(&g, &paths, &cfg, 2, None, Some(Arc::clone(&ch)));
            let mut plain_engine = QueryEngine::new(&g);
            for (group, p) in fast.iter().zip(paths.iter()) {
                let plain = generate_group_with(&mut plain_engine, p, &cfg);
                assert_eq!(group.len(), plain.len());
                for (a, b) in group.candidates.iter().zip(plain.candidates.iter()) {
                    assert!(a.path.same_route(&b.path), "{strategy:?} route diverged");
                    assert_eq!(a.score, b.score, "{strategy:?} score diverged");
                }
            }
        }
    }

    #[test]
    fn m2m_batched_detour_factors_match_pairwise_probes() {
        use pathrank_spatial::algo::ch::{ChConfig, ContractionHierarchy};
        let (g, paths) = setup();
        let ch = Arc::new(ContractionHierarchy::build(
            &g,
            LandmarkMetric::Length,
            &ChConfig::default(),
        ));
        let mut batched_engine = QueryEngine::new(&g).with_ch(ch);
        let batched = trajectory_detour_factors(&mut batched_engine, &paths);
        let mut plain_engine = QueryEngine::new(&g);
        let pairwise = trajectory_detour_factors(&mut plain_engine, &paths);
        assert_eq!(batched.len(), paths.len());
        for (i, (a, b)) in batched.iter().zip(pairwise.iter()).enumerate() {
            assert!(
                (a - b).abs() < 1e-9,
                "trajectory {i}: batched {a} vs pairwise {b}"
            );
            assert!(*a >= 1.0 - 1e-9, "detour factor below 1: {a}");
        }
        // Simulated drivers route under hidden preferences, so at least
        // some trajectories must actually detour.
        assert!(
            batched.iter().any(|f| *f > 1.0 + 1e-6),
            "fleet should contain non-shortest trajectories"
        );
    }

    #[test]
    fn k_bounds_candidate_count() {
        let (g, paths) = setup();
        for strategy in [Strategy::TkDI, Strategy::DTkDI] {
            let cfg = CandidateConfig {
                k: 4,
                ..CandidateConfig::paper_default(strategy)
            };
            let group = generate_group_with(&mut QueryEngine::new(&g), &paths[0], &cfg);
            // k candidates plus (possibly) the trajectory itself.
            assert!(group.len() <= 5, "{strategy:?} produced {}", group.len());
        }
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(Strategy::TkDI.label(), "TkDI");
        assert_eq!(Strategy::DTkDI.label(), "D-TkDI");
    }
}
