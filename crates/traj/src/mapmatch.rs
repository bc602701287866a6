//! HMM map matching (Newson & Krumm, 2009 style).
//!
//! Each GPS fix induces a layer of candidate road positions (projections
//! onto nearby edges). Emission likelihood is Gaussian in the projection
//! distance; transition likelihood penalises the difference between the
//! on-network route distance and the straight-line distance between
//! consecutive fixes (drivers rarely detour between two samples). Viterbi
//! decoding picks the most likely candidate sequence, which is then
//! stitched into a connected [`Path`] with shortest-path gap filling.
//!
//! [`MapMatcher`] is the one entry point: callers build it once per
//! graph and match every trace through [`MapMatcher::match_trace`], so
//! the spatial index, the engine and the probe cache serve a whole fleet.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use pathrank_spatial::algo::engine::QueryEngine;
use pathrank_spatial::geometry::{project_onto_segment, Point};
use pathrank_spatial::graph::{CostModel, EdgeId, Graph, VertexId};
use pathrank_spatial::path::Path;
use pathrank_spatial::rtree::RTree;

use crate::gps::GpsTrace;

/// Map matcher parameters.
#[derive(Debug, Clone)]
pub struct MapMatchConfig {
    /// Radius around each fix within which edges become candidates.
    pub candidate_radius_m: f64,
    /// GPS noise standard deviation (emission model), metres.
    pub sigma_m: f64,
    /// Transition scale β: larger tolerates bigger detours between fixes.
    pub beta_m: f64,
    /// Keep at most this many candidates per fix (closest first).
    pub max_candidates: usize,
    /// Weight of the heading-agreement emission term (0 disables it).
    pub heading_weight: f64,
}

impl Default for MapMatchConfig {
    fn default() -> Self {
        MapMatchConfig {
            candidate_radius_m: 60.0,
            sigma_m: 10.0,
            beta_m: 12.0,
            max_candidates: 8,
            heading_weight: 3.0,
        }
    }
}

/// Statistics of a matcher's shortest-path probe cache
/// ([`MapMatcher::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Route-distance probes issued by the HMM transition model.
    pub sp_probes: u64,
    /// Probes answered from the shared cache without a search.
    pub sp_cache_hits: u64,
}

impl MatchStats {
    /// Fraction of probes served from the cache (`0.0` before any probe).
    pub fn hit_rate(&self) -> f64 {
        if self.sp_probes == 0 {
            0.0
        } else {
            self.sp_cache_hits as f64 / self.sp_probes as f64
        }
    }

    /// Folds this snapshot into `registry`'s `pathrank_match_*` counter
    /// families. The counters are cumulative, so call this once per
    /// matcher lifetime (or with per-window deltas) — re-recording the
    /// same snapshot double-counts.
    pub fn record_into(&self, registry: &pathrank_obs::Registry) {
        let add = |name: &str, help: &str, n: u64| {
            registry.counter(name, help, &[]).add(n);
        };
        add(
            "pathrank_match_sp_probes_total",
            "Route-distance probes issued by the HMM transition model",
            self.sp_probes,
        );
        add(
            "pathrank_match_sp_cache_hits_total",
            "Probes answered from the shared fleet cache without a search",
            self.sp_cache_hits,
        );
    }
}

/// Length-metric shortest-path probe cache, keyed by `(source, target)`.
///
/// Vehicles of one fleet drive the same corridors, so consecutive-fix
/// candidate pairs repeat heavily *across* traces — a [`MapMatcher`]
/// keeps one of these for its lifetime (the fleet-level sp-cache).
/// Cached values are exactly what the engine would return, so the cache
/// can never change a match.
#[derive(Debug, Default)]
struct SpCache {
    map: HashMap<(u32, u32), Option<f64>>,
    stats: MatchStats,
}

impl SpCache {
    /// `engine.shortest_path_cost(s, t, CostModel::Length)` through the
    /// cache. The cost-only probe materialises no path, so a miss
    /// allocates nothing on the reused engine.
    fn probe(&mut self, engine: &mut QueryEngine<'_>, s: VertexId, t: VertexId) -> Option<f64> {
        self.stats.sp_probes += 1;
        match self.map.entry((s.0, t.0)) {
            Entry::Occupied(e) => {
                self.stats.sp_cache_hits += 1;
                *e.get()
            }
            Entry::Vacant(e) => *e.insert(engine.shortest_path_cost(s, t, CostModel::Length)),
        }
    }
}

/// On-network distance from candidate `a` to candidate `b`. Read
/// straight off the candidate geometry when both sit on one edge or on
/// consecutive edges sharing a vertex; otherwise the cached
/// shortest-path distance between the two edges plus the partial edges
/// at either end (tail of the first, head of the second).
fn route_dist(
    cache: &mut SpCache,
    engine: &mut QueryEngine<'_>,
    a: &Candidate,
    b: &Candidate,
) -> Option<f64> {
    let g = engine.graph();
    let (ea, eb) = (g.edge(a.edge), g.edge(b.edge));
    if a.edge == b.edge {
        let delta = (b.t - a.t) * ea.attrs.length_m;
        // Small backward jitter is GPS noise, not a loop around the
        // block; treat it as (almost) standing still.
        if delta >= -30.0 {
            return Some(delta.abs());
        }
    }
    let tail = (1.0 - a.t) * ea.attrs.length_m;
    let head = b.t * eb.attrs.length_m;
    if ea.to == eb.from {
        Some(tail + head)
    } else {
        cache.probe(engine, ea.to, eb.from).map(|d| tail + head + d)
    }
}

/// The map matcher: one [`RTree`], one plain [`QueryEngine`] and one
/// shared shortest-path cache serving any number of traces.
///
/// Callers hold a `MapMatcher`, which builds the `O(E)` spatial index
/// once and shares the probe cache across a whole fleet
/// ([`MapMatcher::stats`] reports its hit rate).
pub struct MapMatcher<'g> {
    engine: QueryEngine<'g>,
    index: RTree,
    cfg: MapMatchConfig,
    cache: SpCache,
}

impl<'g> MapMatcher<'g> {
    /// Builds the matcher: bulk-loads the packed [`RTree`] over the
    /// graph's edge chords once and allocates the reusable engine.
    pub fn new(g: &'g Graph, cfg: MapMatchConfig) -> Self {
        MapMatcher {
            engine: QueryEngine::new(g),
            index: RTree::build(g),
            cfg,
            cache: SpCache::default(),
        }
    }

    /// The matcher configuration.
    pub fn config(&self) -> &MapMatchConfig {
        &self.cfg
    }

    /// Cumulative probe-cache statistics across every trace this matcher
    /// has served.
    pub fn stats(&self) -> MatchStats {
        self.cache.stats
    }

    /// The spatial index (built once in [`MapMatcher::new`]; exposed so
    /// tests can assert it is reused across traces).
    pub fn index(&self) -> &RTree {
        &self.index
    }

    /// Matches a GPS trace onto the network, with the index, engine and
    /// probe cache shared across calls.
    ///
    /// Returns `None` when the trace is too short or no consistent
    /// candidate chain exists (e.g. every fix is far from any road).
    pub fn match_trace(&mut self, trace: &GpsTrace) -> Option<Path> {
        match_on(
            &mut self.engine,
            &self.index,
            trace,
            &self.cfg,
            &mut self.cache,
        )
    }
}

#[derive(Debug, Clone, Copy)]
struct Candidate {
    edge: EdgeId,
    /// Fractional position of the projection along the edge chord,
    /// `[0, 1]`.
    t: f64,
    /// Distance from the fix to the projection, metres.
    dist: f64,
    /// Cosine between the vehicle heading and the edge direction.
    heading_cos: f64,
    /// The projected road position itself, computed from the same
    /// formula as `coord(from).lerp(coord(to), t)`.
    pos: Point,
}

/// The matcher core: candidate layers from a prebuilt index, Viterbi
/// over length-metric route distances probed through `sp_cache`,
/// stitching.
fn match_on(
    engine: &mut QueryEngine<'_>,
    index: &RTree,
    trace: &GpsTrace,
    cfg: &MapMatchConfig,
    sp_cache: &mut SpCache,
) -> Option<Path> {
    let g = engine.graph();
    if trace.len() < 2 {
        return None;
    }

    // Movement heading at each fix (central difference), used to
    // disambiguate the two directed twins of a bidirectional street.
    let headings: Vec<Option<(f64, f64)>> = (0..trace.points.len())
        .map(|i| {
            let before = &trace.points[i.saturating_sub(1)].pos;
            let after = &trace.points[(i + 1).min(trace.points.len() - 1)].pos;
            let (dx, dy) = (after.x - before.x, after.y - before.y);
            let norm = (dx * dx + dy * dy).sqrt();
            (norm > 5.0).then_some((dx / norm, dy / norm))
        })
        .collect();

    // Candidate layers; fixes with no nearby road are skipped entirely.
    // `near` is the snapping buffer one index query per fix refills in
    // place.
    let mut near: Vec<EdgeId> = Vec::new();
    let mut layers: Vec<Vec<Candidate>> = Vec::with_capacity(trace.len());
    for (fi, fix) in trace.points.iter().enumerate() {
        index.edges_within_into(&fix.pos, cfg.candidate_radius_m, &mut near);
        let mut cands: Vec<Candidate> = near
            .iter()
            .filter_map(|&e| {
                let rec = g.edge(e);
                let (a, b) = (g.coord(rec.from), g.coord(rec.to));
                let proj = project_onto_segment(&fix.pos, &a, &b);
                if proj.distance > cfg.candidate_radius_m {
                    return None;
                }
                // Heading agreement in [-1, 1]; 1 when driving along the
                // road direction, -1 against it.
                let heading_cos = headings[fi].map_or(0.0, |(hx, hy)| {
                    let (ex, ey) = (b.x - a.x, b.y - a.y);
                    let en = (ex * ex + ey * ey).sqrt().max(1e-9);
                    hx * ex / en + hy * ey / en
                });
                Some(Candidate {
                    edge: e,
                    t: proj.t,
                    dist: proj.distance,
                    heading_cos,
                    pos: proj.point,
                })
            })
            .collect();
        cands.sort_by(|a, b| a.dist.total_cmp(&b.dist));
        cands.truncate(cfg.max_candidates);
        if !cands.is_empty() {
            layers.push(cands);
        }
    }
    if layers.len() < 2 {
        return None;
    }

    // Viterbi: Gaussian emission on projection distance plus a heading
    // agreement bonus that separates direction twins.
    let emission = |c: &Candidate| {
        -(c.dist * c.dist) / (2.0 * cfg.sigma_m * cfg.sigma_m)
            + cfg.heading_weight * (c.heading_cos - 1.0)
    };

    let mut score: Vec<f64> = layers[0].iter().map(emission).collect();
    let mut back: Vec<Vec<usize>> = Vec::with_capacity(layers.len());
    // Road positions come straight off the candidates: `c.pos` is the
    // same `coord(from) + t · (coord(to) - coord(from))` expression an
    // endpoint lerp computes (bit-identical).
    let positions: Vec<Vec<Point>> = layers
        .iter()
        .map(|layer| layer.iter().map(|c| c.pos).collect())
        .collect();

    for li in 1..layers.len() {
        let mut next_score = vec![f64::NEG_INFINITY; layers[li].len()];
        let mut next_back = vec![0usize; layers[li].len()];
        for (j, cand) in layers[li].iter().enumerate() {
            let em = emission(cand);
            for (i, prev) in layers[li - 1].iter().enumerate() {
                if score[i] == f64::NEG_INFINITY {
                    continue;
                }
                let Some(route) = route_dist(sp_cache, engine, prev, cand) else {
                    continue;
                };
                let gc = positions[li - 1][i].distance(&positions[li][j]);
                // Severely detouring transitions are pruned outright.
                if route > 4.0 * gc + 400.0 {
                    continue;
                }
                let trans = -(route - gc).abs() / cfg.beta_m;
                let s = score[i] + trans + em;
                if s > next_score[j] {
                    next_score[j] = s;
                    next_back[j] = i;
                }
            }
        }
        // A fully disconnected layer would strand Viterbi; restart scores
        // from emissions (handles long GPS gaps gracefully).
        if next_score.iter().all(|&s| s == f64::NEG_INFINITY) {
            next_score = layers[li].iter().map(emission).collect();
        }
        score = next_score;
        back.push(next_back);
    }

    // Backtrack the best chain of candidates.
    let mut best = 0usize;
    for (i, &s) in score.iter().enumerate() {
        if s > score[best] {
            best = i;
        }
    }
    if score[best] == f64::NEG_INFINITY {
        return None;
    }
    let mut chain_rev = vec![best];
    for b in back.iter().rev() {
        chain_rev.push(b[*chain_rev.last().expect("non-empty")]);
    }
    chain_rev.reverse();
    let matched: Vec<Candidate> = chain_rev
        .iter()
        .enumerate()
        .map(|(li, &ci)| layers[li][ci])
        .collect();

    stitch(engine, &matched)
}

/// Stitches a candidate chain into a connected path, filling gaps between
/// consecutive matched edges with shortest paths.
fn stitch(engine: &mut QueryEngine<'_>, matched: &[Candidate]) -> Option<Path> {
    let g = engine.graph();
    let mut edges: Vec<EdgeId> = Vec::new();
    for c in matched {
        match edges.last() {
            None => edges.push(c.edge),
            Some(&last) if last == c.edge => {}
            Some(&last) => {
                let (prev, cur) = (g.edge(last), g.edge(c.edge));
                if prev.to != cur.from {
                    match engine.shortest_path(prev.to, cur.from, CostModel::Length) {
                        Some(gap) => edges.extend_from_slice(gap.edges()),
                        None => return None,
                    }
                }
                edges.push(c.edge);
            }
        }
    }
    // Remove immediate back-and-forth artifacts (e, reverse(e)) produced by
    // noisy fixes projecting onto both directions of the same street.
    let mut cleaned: Vec<EdgeId> = Vec::with_capacity(edges.len());
    for e in edges {
        if let Some(&last) = cleaned.last() {
            let (a, b) = (g.edge(last), g.edge(e));
            if a.from == b.to && a.to == b.from {
                cleaned.pop();
                continue;
            }
        }
        cleaned.push(e);
    }
    // Trim barely-touched terminal edges: a first candidate projecting at
    // the very end of its edge (t ≈ 1) means the vehicle only started
    // *after* that edge; symmetrically for the last candidate at t ≈ 0.
    if cleaned.len() >= 2 {
        if matched
            .first()
            .is_some_and(|c| c.t >= 0.9 && cleaned[0] == c.edge)
        {
            cleaned.remove(0);
        }
        if cleaned.len() >= 2
            && matched
                .last()
                .is_some_and(|c| c.t <= 0.1 && *cleaned.last().unwrap() == c.edge)
        {
            cleaned.pop();
        }
    }
    if cleaned.is_empty() {
        return None;
    }
    Path::from_edges(g, cleaned).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{simulate_fleet, SimulationConfig};
    use pathrank_spatial::generators::{region_network, RegionConfig};
    use pathrank_spatial::similarity::{weighted_jaccard, EdgeWeight};

    /// `trace` matched by a matcher of its own, which no earlier trace
    /// warmed.
    fn fresh_match(g: &Graph, trace: &GpsTrace, cfg: &MapMatchConfig) -> Option<Path> {
        MapMatcher::new(g, cfg.clone()).match_trace(trace)
    }

    #[test]
    fn edge_index_finds_nearby_edges() {
        let g = region_network(&RegionConfig::small_test(), 2);
        let matcher = MapMatcher::new(&g, MapMatchConfig::default());
        // A point on a known vertex must see that vertex's incident edges.
        let v = pathrank_spatial::graph::VertexId(0);
        let p = g.coord(v);
        let near = matcher.index().edges_within(&p, 60.0);
        for (_, e) in g.out_edges(v) {
            assert!(near.contains(&e), "index must return incident edge {e:?}");
        }
    }

    #[test]
    fn matches_low_noise_traces_accurately() {
        let g = region_network(&RegionConfig::small_test(), 4);
        let mut sim_cfg = SimulationConfig::small_test();
        sim_cfg.gps_noise_std_m = 4.0;
        sim_cfg.sampling_interval_s = 4.0;
        let trips = simulate_fleet(&g, &sim_cfg, 17);
        let mm = MapMatchConfig {
            sigma_m: 6.0,
            ..Default::default()
        };

        let mut matcher = MapMatcher::new(&g, mm);
        let mut total_sim = 0.0;
        let mut matched_count = 0usize;
        for trip in trips.iter().take(8) {
            let Some(matched) = matcher.match_trace(&trip.trace) else {
                continue;
            };
            matched.validate(&g).unwrap();
            total_sim += weighted_jaccard(&g, &matched, &trip.path, EdgeWeight::Length);
            matched_count += 1;
        }
        assert!(
            matched_count >= 6,
            "most traces must match ({matched_count}/8)"
        );
        let avg = total_sim / matched_count as f64;
        assert!(avg > 0.9, "average matched similarity too low: {avg:.3}");
    }

    #[test]
    fn matcher_reuses_one_index_across_traces() {
        // A MapMatcher must hold one index (and one engine) for its
        // lifetime and still reproduce a fresh matcher's output exactly.
        let g = region_network(&RegionConfig::small_test(), 4);
        let trips = simulate_fleet(&g, &SimulationConfig::small_test(), 17);
        let cfg = MapMatchConfig::default();
        let mut matcher = MapMatcher::new(&g, cfg.clone());
        let index_ptr: *const RTree = matcher.index();
        for trip in trips.iter().take(6) {
            let fresh = fresh_match(&g, &trip.trace, &cfg);
            let hoisted = matcher.match_trace(&trip.trace);
            match (fresh, hoisted) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.vertices(), b.vertices());
                    assert_eq!(a.edges(), b.edges());
                }
                (None, None) => {}
                (a, b) => panic!("match divergence: {a:?} vs {b:?}"),
            }
            assert!(
                std::ptr::eq(index_ptr, matcher.index()),
                "matcher must keep one index across traces"
            );
        }
    }

    #[test]
    fn fleet_sp_cache_hits_across_traces_without_changing_matches() {
        // The fleet-level sp-cache: corridors repeat across a fleet's
        // traces, so the shared cache must (a) actually hit and (b)
        // never change a match (cached values are exactly what the
        // engine would return).
        let g = region_network(&RegionConfig::small_test(), 4);
        let trips = simulate_fleet(&g, &SimulationConfig::small_test(), 17);
        let cfg = MapMatchConfig::default();
        let mut matcher = MapMatcher::new(&g, cfg.clone());
        assert_eq!(matcher.stats(), MatchStats::default());
        for trip in trips.iter().take(8) {
            let fresh = fresh_match(&g, &trip.trace, &cfg);
            let cached = matcher.match_trace(&trip.trace);
            match (fresh, cached) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.vertices(), b.vertices());
                    assert_eq!(a.edges(), b.edges());
                }
                (None, None) => {}
                (a, b) => panic!("cache changed a match: {a:?} vs {b:?}"),
            }
        }
        let stats = matcher.stats();
        assert!(stats.sp_probes > 0, "HMM probes must go through the cache");
        assert!(
            stats.sp_cache_hits > 0,
            "fleet traces share corridors; the cache must hit"
        );
        assert!(stats.hit_rate() > 0.0 && stats.hit_rate() <= 1.0);
    }

    /// Pins every match on a region fleet: one [`MapMatcher`]'s matched
    /// edges per trace, its probe and cache-hit counts, then every
    /// trace's edges from a fresh matcher, folded into one FNV-1a.
    /// Any change to candidate generation, the transition probes, the
    /// probe cache or stitching moves it.
    #[test]
    fn mapmatch_golden_region() {
        fn fold(h: u64, word: u64) -> u64 {
            word.to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }
        fn fold_match(h: u64, m: Option<Path>) -> u64 {
            match m {
                None => fold(h, u64::MAX),
                Some(p) => p
                    .edges()
                    .iter()
                    .fold(fold(h, p.len() as u64), |h, e| fold(h, u64::from(e.0))),
            }
        }
        let g = region_network(&RegionConfig::small_test(), 4);
        let trips = simulate_fleet(&g, &SimulationConfig::small_test(), 17);
        let cfg = MapMatchConfig::default();
        let mut matcher = MapMatcher::new(&g, cfg.clone());
        let mut h = 0xcbf2_9ce4_8422_2325;
        for trip in &trips {
            h = fold_match(h, matcher.match_trace(&trip.trace));
        }
        let stats = matcher.stats();
        h = fold(fold(h, stats.sp_probes), stats.sp_cache_hits);
        for trip in &trips {
            h = fold_match(h, fresh_match(&g, &trip.trace, &cfg));
        }
        assert_eq!(
            (trips.len(), stats.sp_probes, stats.sp_cache_hits, h),
            (12, 3791, 3477, 0x8543_ce87_55ea_3c5a)
        );
    }

    #[test]
    fn short_traces_return_none() {
        let g = region_network(&RegionConfig::small_test(), 4);
        let trace = GpsTrace {
            vehicle: 0,
            points: vec![],
        };
        assert!(fresh_match(&g, &trace, &MapMatchConfig::default()).is_none());
    }

    #[test]
    fn far_away_traces_return_none() {
        let g = region_network(&RegionConfig::small_test(), 4);
        let trace = GpsTrace {
            vehicle: 0,
            points: (0..5)
                .map(|i| crate::gps::GpsPoint {
                    pos: Point::new(-1.0e7 + i as f64, -1.0e7),
                    t_s: i as f64 * 5.0,
                })
                .collect(),
        };
        assert!(fresh_match(&g, &trace, &MapMatchConfig::default()).is_none());
    }
}
