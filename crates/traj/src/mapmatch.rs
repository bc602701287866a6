//! HMM map matching (Newson & Krumm, 2009 style).
//!
//! Each GPS fix induces a layer of candidate road positions (projections
//! onto nearby edges). Emission likelihood is Gaussian in the projection
//! distance; transition likelihood penalises the difference between the
//! on-network route distance and the straight-line distance between
//! consecutive fixes (drivers rarely detour between two samples). Viterbi
//! decoding picks the most likely candidate sequence, which is then
//! stitched into a connected [`Path`] with shortest-path gap filling.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use pathrank_spatial::algo::cch::Cch;
use pathrank_spatial::algo::ch::ContractionHierarchy;
use pathrank_spatial::algo::engine::QueryEngine;
use pathrank_spatial::algo::landmarks::LandmarkTable;
use pathrank_spatial::geometry::{project_onto_polyline, project_onto_segment, Point};
use pathrank_spatial::graph::{CostModel, EdgeId, Graph, VertexId};
use pathrank_spatial::osm::ImportedGraph;
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

/// Statistics of a matcher's shortest-path probe cache and its
/// many-to-many bulk fills ([`MapMatcher::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Route-distance probes issued by the HMM transition model.
    pub sp_probes: u64,
    /// Probes answered from the shared cache without a search.
    pub sp_cache_hits: u64,
    /// Many-to-many transition tables built (one per ping-to-ping block
    /// that still had uncached probe pairs; requires a CH-backed engine).
    pub m2m_tables: u64,
    /// Probe-cache entries bulk-filled by those tables — each is a
    /// pairwise shortest-path search the transition model no longer
    /// issues (the block's `S + T` upward sweeps replace them all).
    pub m2m_pairs: u64,
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

    /// Pairwise probes avoided by the bucket-based many-to-many bulk
    /// fill: transition pairs whose route distance came out of a
    /// [`DistanceTable`](pathrank_spatial::algo::m2m::DistanceTable)
    /// instead of an individual engine search.
    pub fn probes_avoided_by_m2m(&self) -> u64 {
        self.m2m_pairs
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
        add(
            "pathrank_match_m2m_tables_total",
            "Many-to-many transition tables built during matching",
            self.m2m_tables,
        );
        add(
            "pathrank_match_m2m_pairs_total",
            "Probe-cache entries bulk-filled by m2m tables",
            self.m2m_pairs,
        );
    }
}

/// Shortest-path probe cache, keyed by `(source, target, metric)`.
///
/// Vehicles of one fleet drive the same corridors, so consecutive-fix
/// candidate pairs repeat heavily *across* traces — a [`MapMatcher`]
/// keeps one of these for its lifetime (the ROADMAP's fleet-level
/// sp-cache), while the one-shot entry points use a transient per-trace
/// one. Cached values are exactly what the engine would return, so the
/// cache can never change a match. `Custom` cost models bypass the cache
/// entirely (their per-edge costs may change between queries).
#[derive(Debug, Default)]
struct SpCache {
    map: HashMap<(u32, u32, u8), Option<f64>>,
    stats: MatchStats,
}

impl SpCache {
    /// Stable per-metric tag; `None` for uncacheable models.
    fn metric_tag(cost: &CostModel<'_>) -> Option<u8> {
        match cost {
            CostModel::Length => Some(0),
            CostModel::TravelTime => Some(1),
            CostModel::Custom(_) => None,
        }
    }

    /// `engine.shortest_path_cost(s, t, cost)` through the cache.
    fn probe(
        &mut self,
        engine: &mut QueryEngine<'_>,
        s: VertexId,
        t: VertexId,
        cost: CostModel<'_>,
    ) -> Option<f64> {
        let Some(tag) = Self::metric_tag(&cost) else {
            return engine.shortest_path_cost(s, t, cost);
        };
        self.stats.sp_probes += 1;
        match self.map.entry((s.0, t.0, tag)) {
            Entry::Occupied(e) => {
                self.stats.sp_cache_hits += 1;
                *e.get()
            }
            Entry::Vacant(e) => *e.insert(engine.shortest_path_cost(s, t, cost)),
        }
    }

    /// Bulk-fills the cache for one whole trace's transition blocks with
    /// a single bucket-based many-to-many table instead of one
    /// independent probe per candidate pair. Only pairs the transition
    /// model would actually probe ([`Transition::Probe`]) and that are
    /// not cached yet are gathered across every consecutive layer pair;
    /// trace-level batching is what makes the bucket algorithm pay off —
    /// a single ping-to-ping block has barely more pairs than distinct
    /// endpoints, but a trace revisits the same candidate endpoints over
    /// and over, so `S + T` upward sweeps replace several times that
    /// many searches. A break-even gate keeps warm-cache traces (where
    /// almost everything hits anyway) on the plain probe path, and only
    /// the gathered (previously uncached) pairs are written back — a
    /// cached answer is never overwritten. Filled values are the
    /// table's raw shortcut-weight sums: exact, and equal to what an
    /// engine probe would have cached up to float association
    /// (bit-identical on integer-weight graphs; a Viterbi decision
    /// could only differ on a score tie below that association error —
    /// the same class of tie-break caveat every backend switch in this
    /// workspace carries, locked in deterministically by
    /// `tests/m2m_exactness.rs`). A `None` from the engine (no CH
    /// covering the metric) leaves the cache untouched and the per-pair
    /// probes remain the fallback.
    fn bulk_fill(&mut self, engine: &mut QueryEngine<'_>, layers: &[Vec<Candidate>]) {
        let cost = CostModel::Length;
        let tag = Self::metric_tag(&cost).expect("length metric is cacheable");
        let g = engine.graph();
        let mut needed: Vec<(VertexId, VertexId)> = Vec::new();
        let mut seen: HashSet<(u32, u32)> = HashSet::new();
        for w in layers.windows(2) {
            for a in &w[0] {
                for b in &w[1] {
                    if let Transition::Probe(s, t, _) = transition_shape(g, a, b) {
                        if !self.map.contains_key(&(s.0, t.0, tag)) && seen.insert((s.0, t.0)) {
                            needed.push((s, t));
                        }
                    }
                }
            }
        }
        let mut sources: Vec<VertexId> = needed.iter().map(|&(s, _)| s).collect();
        sources.sort_unstable_by_key(|v| v.0);
        sources.dedup();
        let mut targets: Vec<VertexId> = needed.iter().map(|&(_, t)| t).collect();
        targets.sort_unstable_by_key(|v| v.0);
        targets.dedup();
        // Break-even gate: the fill costs ~one upward sweep per distinct
        // endpoint (about what one warm point-to-point probe costs), so
        // it must replace clearly more probes than it runs sweeps —
        // otherwise (e.g. a fleet-warmed cache) plain probing wins.
        if needed.is_empty() || 2 * needed.len() < 3 * (sources.len() + targets.len()) {
            return;
        }
        let Some(table) = engine.many_to_many(&sources, &targets, cost) else {
            return;
        };
        self.stats.m2m_tables += 1;
        for (s, t) in needed {
            let d = table.dist_between(s, t).expect("gathered endpoints");
            self.map.insert((s.0, t.0, tag), d.is_finite().then_some(d));
            self.stats.m2m_pairs += 1;
        }
    }
}

/// How one HMM transition is routed, shared by the per-pair probe path
/// and the many-to-many bulk fill so the two can never disagree about
/// which pairs need a network search.
enum Transition {
    /// Readable straight off the candidate geometry (same edge, or
    /// consecutive edges sharing a vertex): the on-network distance.
    Direct(f64),
    /// Needs the shortest-path distance `.0 -> .1`, to which the fixed
    /// partial-edge contribution `.2` (tail of the first edge + head of
    /// the second) is added.
    Probe(VertexId, VertexId, f64),
}

/// Classifies the transition from candidate `a` to candidate `b`.
fn transition_shape(g: &Graph, a: &Candidate, b: &Candidate) -> Transition {
    let (ea, eb) = (g.edge(a.edge), g.edge(b.edge));
    if a.edge == b.edge {
        let delta = (b.t - a.t) * ea.attrs.length_m;
        // Small backward jitter is GPS noise, not a loop around the
        // block; treat it as (almost) standing still.
        if delta >= -30.0 {
            return Transition::Direct(delta.abs());
        }
    }
    let tail = (1.0 - a.t) * ea.attrs.length_m;
    let head = b.t * eb.attrs.length_m;
    if ea.to == eb.from {
        Transition::Direct(tail + head)
    } else {
        Transition::Probe(ea.to, eb.from, tail + head)
    }
}

/// A reusable matcher: one [`RTree`], one [`QueryEngine`] and one
/// shared shortest-path cache serving any number of traces.
///
/// [`map_match_with`] already reuses a caller's engine, but it still
/// rebuilds the `O(E)` spatial index per trace; batch callers (dataset
/// assembly, servers) hold a `MapMatcher` instead, which hoists the index
/// build out of the per-trace loop entirely and shares the probe cache
/// across a whole fleet ([`MapMatcher::stats`] reports its hit rate).
/// The engine can additionally carry ALT landmarks
/// ([`MapMatcher::with_landmarks`]) or a contraction hierarchy
/// ([`MapMatcher::with_ch`]) so every HMM transition probe and
/// gap-filling search takes the strongest available backend — probes are
/// exact either way, so matches are unaffected apart from equal-cost
/// tie-breaking.
pub struct MapMatcher<'g> {
    engine: QueryEngine<'g>,
    index: RTree,
    cfg: MapMatchConfig,
    cache: SpCache,
    /// Interior edge geometry for imported graphs (aligned with edge
    /// ids); `None` on plain graphs, where every edge is its chord.
    /// Drives both the spatial index build and candidate projection,
    /// so the two always agree about where an edge runs.
    geometry: Option<&'g [Vec<Point>]>,
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
            geometry: None,
        }
    }

    /// [`MapMatcher::new`] for graphs whose edges carry interior
    /// geometry: the R-tree indexes full polylines
    /// ([`RTree::build_with_geometry`]) and candidates project onto
    /// them, so contracted chains — whose chord can be hundreds of
    /// metres from the actual road — still produce candidates near any
    /// point of the road. `geometry` is interior points per edge,
    /// aligned with edge ids.
    ///
    /// # Panics
    /// If `geometry.len() != g.edge_count()`.
    pub fn new_with_geometry(
        g: &'g Graph,
        geometry: &'g [Vec<Point>],
        cfg: MapMatchConfig,
    ) -> Self {
        MapMatcher {
            engine: QueryEngine::new(g),
            index: RTree::build_with_geometry(g, geometry),
            cfg,
            cache: SpCache::default(),
            geometry: Some(geometry),
        }
    }

    /// Convenience [`MapMatcher::new_with_geometry`] over an OSM
    /// [`ImportedGraph`] (graph plus its retained contraction
    /// geometry).
    pub fn for_imported(imported: &'g ImportedGraph, cfg: MapMatchConfig) -> Self {
        Self::new_with_geometry(&imported.graph, &imported.edge_geometry, cfg)
    }

    /// Attaches ALT landmarks to the matcher's engine (see
    /// [`QueryEngine::with_landmarks`]); transition probes fall back to
    /// plain searches automatically if the table's metric ever stops
    /// matching the probes' cost model.
    pub fn with_landmarks(mut self, table: Arc<LandmarkTable>) -> Self {
        self.engine = self.engine.with_landmarks(table);
        self
    }

    /// Attaches a contraction hierarchy (see [`QueryEngine::with_ch`]):
    /// the HMM transition probes and gap-filling searches are exactly the
    /// unconstrained point-to-point shape the CH backend accelerates.
    pub fn with_ch(mut self, ch: Arc<ContractionHierarchy>) -> Self {
        self.engine = self.engine.with_ch(ch);
        self
    }

    /// Attaches a customized CCH (see [`QueryEngine::with_cch`]): same
    /// acceleration shape as [`MapMatcher::with_ch`], but the index is
    /// re-customizable in milliseconds, so congestion-aware matching can
    /// follow live weight changes. The engine's weights-epoch gate drops
    /// the index automatically if the graph's weights mutate after it was
    /// customized.
    pub fn with_cch(mut self, cch: Arc<Cch>) -> Self {
        self.engine = self.engine.with_cch(cch);
        self
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

    /// Matches one trace; equivalent to [`map_match`] but with the index,
    /// engine and probe cache shared across calls.
    pub fn match_trace(&mut self, trace: &GpsTrace) -> Option<Path> {
        match_on(
            &mut self.engine,
            &self.index,
            self.geometry,
            trace,
            &self.cfg,
            &mut self.cache,
        )
    }
}

#[derive(Debug, Clone, Copy)]
struct Candidate {
    edge: EdgeId,
    /// Fractional position of the projection along the edge, `[0, 1]` —
    /// segment fraction for straight edges, *arclength* fraction of the
    /// full polyline for edges with interior geometry.
    t: f64,
    /// Distance from the fix to the projection, metres.
    dist: f64,
    /// Cosine between the vehicle heading and the local road direction
    /// at the projection.
    heading_cos: f64,
    /// The projected road position itself. Computed from the same
    /// formula as `coord(from).lerp(coord(to), t)` on straight edges;
    /// on geometry edges it is the true polyline point, which the
    /// endpoint lerp cannot reconstruct.
    pos: Point,
}

/// Matches a GPS trace onto the network.
///
/// Returns `None` when the trace is too short or no consistent candidate
/// chain exists (e.g. every fix is far from any road).
///
/// One-shot convenience over [`map_match_with`], which reuses a
/// caller-provided [`QueryEngine`] across traces — the HMM transition
/// model probes a shortest path between every candidate pair of
/// consecutive GPS fixes, so matching is routing-query dominated.
pub fn map_match(g: &Graph, trace: &GpsTrace, cfg: &MapMatchConfig) -> Option<Path> {
    map_match_with(&mut QueryEngine::new(g), trace, cfg)
}

/// [`map_match`] on a caller-provided engine: all route-distance probes
/// (many per fix pair) and gap-filling searches reuse the engine's
/// search state instead of allocating per query. Still builds the
/// spatial index per call — batch callers hold a [`MapMatcher`], which
/// hoists that too.
pub fn map_match_with(
    engine: &mut QueryEngine<'_>,
    trace: &GpsTrace,
    cfg: &MapMatchConfig,
) -> Option<Path> {
    if trace.len() < 2 {
        return None;
    }
    let index = RTree::build(engine.graph());
    match_on(engine, &index, None, trace, cfg, &mut SpCache::default())
}

/// The matcher core: candidate layers from a prebuilt index (projecting
/// onto full polylines when `geometry` is given), Viterbi over
/// engine-probed route distances (through `sp_cache`, bulk-filled
/// block-by-block from many-to-many tables when the engine carries a CH
/// covering the probe metric), stitching.
fn match_on(
    engine: &mut QueryEngine<'_>,
    index: &RTree,
    geometry: Option<&[Vec<Point>]>,
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
    // `poly` is a scratch buffer assembling `from -> interior -> to`
    // polylines for geometry edges (reused across candidates); `near`
    // is the snapping buffer one index query per fix refills in place.
    let mut poly: Vec<Point> = Vec::new();
    let mut near: Vec<EdgeId> = Vec::new();
    let mut layers: Vec<Vec<Candidate>> = Vec::with_capacity(trace.len());
    for (fi, fix) in trace.points.iter().enumerate() {
        index.edges_within_into(&fix.pos, cfg.candidate_radius_m, &mut near);
        let mut cands: Vec<Candidate> = near
            .iter()
            .filter_map(|&e| {
                let rec = g.edge(e);
                let (a, b) = (g.coord(rec.from), g.coord(rec.to));
                let interior = geometry.map_or(&[][..], |gm| gm[e.index()].as_slice());
                // (t, distance, projected point, local road direction):
                // straight edges keep the segment projection bit-for-bit;
                // geometry edges project onto the true polyline, whose
                // local direction — not the chord's — feeds the heading
                // term (a hairpin's chord points nowhere useful).
                let (t, dist, pos, dir) = if interior.is_empty() {
                    let proj = project_onto_segment(&fix.pos, &a, &b);
                    (proj.t, proj.distance, proj.point, (b.x - a.x, b.y - a.y))
                } else {
                    poly.clear();
                    poly.push(a);
                    poly.extend_from_slice(interior);
                    poly.push(b);
                    let proj = project_onto_polyline(&fix.pos, &poly);
                    let (sa, sb) = (poly[proj.segment], poly[proj.segment + 1]);
                    (
                        proj.t,
                        proj.distance,
                        proj.point,
                        (sb.x - sa.x, sb.y - sa.y),
                    )
                };
                if dist > cfg.candidate_radius_m {
                    return None;
                }
                // Heading agreement in [-1, 1]; 1 when driving along the
                // road direction, -1 against it.
                let heading_cos = headings[fi].map_or(0.0, |(hx, hy)| {
                    let (ex, ey) = dir;
                    let en = (ex * ex + ey * ey).sqrt().max(1e-9);
                    hx * ex / en + hy * ey / en
                });
                Some(Candidate {
                    edge: e,
                    t,
                    dist,
                    heading_cos,
                    pos,
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
    let route_dist = |sp_cache: &mut SpCache,
                      engine: &mut QueryEngine<'_>,
                      a: &Candidate,
                      b: &Candidate|
     -> Option<f64> {
        match transition_shape(engine.graph(), a, b) {
            Transition::Direct(d) => Some(d),
            // The cost-only probe never materialises a path, so cache
            // misses allocate nothing on the reused engine; a
            // `MapMatcher` carries the cache across traces, so
            // fleet-repeated corridors hit it — and on a CH-backed
            // engine the whole block was bulk-filled beforehand.
            Transition::Probe(s, t, fixed) => sp_cache
                .probe(engine, s, t, CostModel::Length)
                .map(|d| fixed + d),
        }
    };

    let mut score: Vec<f64> = layers[0].iter().map(emission).collect();
    let mut back: Vec<Vec<usize>> = Vec::with_capacity(layers.len());
    // Road positions come straight off the candidates: for straight
    // edges `c.pos` is the same `coord(from) + t · (coord(to) -
    // coord(from))` expression the old endpoint lerp computed
    // (bit-identical); for geometry edges it is the true polyline point.
    let positions: Vec<Vec<Point>> = layers
        .iter()
        .map(|layer| layer.iter().map(|c| c.pos).collect())
        .collect();

    // One DistanceTable call per trace: every probe-shaped candidate
    // pair of every ping-to-ping block lands in the cache before the
    // Viterbi loop reads it (the loop itself is unchanged; see
    // `SpCache::bulk_fill` for the exactness contract).
    if engine.uses_ch(CostModel::Length) {
        sp_cache.bulk_fill(engine, &layers);
    }
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

    /// A contracted hairpin: endpoints 40 m apart on the baseline, but
    /// the road itself loops 300 m north through retained interior
    /// geometry, then continues east to `c`. Edge 0/1 are the two
    /// directions of the hairpin, edge 2/3 the straight continuation.
    fn hairpin_graph() -> (pathrank_spatial::graph::Graph, Vec<Vec<Point>>) {
        use pathrank_spatial::builder::GraphBuilder;
        use pathrank_spatial::graph::{EdgeAttrs, RoadCategory};
        let mut b = GraphBuilder::new();
        let a = b.add_vertex(Point::new(0.0, 0.0));
        let v = b.add_vertex(Point::new(40.0, 0.0));
        let c = b.add_vertex(Point::new(240.0, 0.0));
        // Polyline a -> (0,300) -> (40,300) -> v: 300 + 40 + 300 m.
        b.add_bidirectional(
            a,
            v,
            EdgeAttrs::with_default_speed(640.0, RoadCategory::Residential),
        )
        .unwrap();
        b.add_bidirectional(
            v,
            c,
            EdgeAttrs::with_default_speed(200.0, RoadCategory::Residential),
        )
        .unwrap();
        let g = b.build();
        let up = vec![Point::new(0.0, 300.0), Point::new(40.0, 300.0)];
        let down = vec![Point::new(40.0, 300.0), Point::new(0.0, 300.0)];
        let geometry = vec![up, down, vec![], vec![]];
        (g, geometry)
    }

    #[test]
    fn hairpin_edge_is_invisible_to_the_endpoint_index() {
        // The folded-hairpin regression: the chord index only knows the
        // 40 m chord at y = 0, so a fix at the hairpin's apex — 300 m
        // up, directly ON the road — returns nothing.
        let (g, geometry) = hairpin_graph();
        let apex = Point::new(20.0, 300.0);
        let chords = RTree::build(&g);
        assert!(
            chords.edges_within(&apex, 60.0).is_empty(),
            "the chord index must provably miss the hairpin (the bug)"
        );
        let polylines = RTree::build_with_geometry(&g, &geometry);
        assert_eq!(
            polylines.edges_within(&apex, 60.0),
            [EdgeId(0), EdgeId(1)],
            "polyline index must return both hairpin directions"
        );
        // Straight edges answer identically from both indexes.
        let on_straight = Point::new(140.0, 10.0);
        assert_eq!(
            chords.edges_within(&on_straight, 60.0),
            polylines.edges_within(&on_straight, 60.0)
        );
    }

    #[test]
    fn hairpin_trace_matches_through_the_geometry_matcher() {
        let (g, geometry) = hairpin_graph();
        let trace = GpsTrace {
            vehicle: 0,
            points: [
                Point::new(2.0, 80.0),
                Point::new(-3.0, 220.0),
                Point::new(18.0, 303.0),
                Point::new(43.0, 210.0),
                Point::new(38.0, 60.0),
                Point::new(110.0, 4.0),
                Point::new(210.0, -3.0),
            ]
            .iter()
            .enumerate()
            .map(|(i, &pos)| crate::gps::GpsPoint {
                pos,
                t_s: i as f64 * 5.0,
            })
            .collect(),
        };
        let cfg = MapMatchConfig::default();

        // A chord-built matcher cannot see the hairpin: every fix on
        // the loop has no candidate, so the matched route misses edge 0.
        let mut old = MapMatcher::new(&g, cfg.clone());
        let old_match = old.match_trace(&trace);
        assert!(
            !old_match.is_some_and(|p| p.edges().contains(&EdgeId(0))),
            "endpoint index must lose the hairpin edge (the bug)"
        );

        // The geometry matcher recovers the true route: around the
        // hairpin (edge 0), then the straight continuation (edge 2).
        let mut fixed = MapMatcher::new_with_geometry(&g, &geometry, cfg);
        let p = fixed
            .match_trace(&trace)
            .expect("geometry matcher must match the hairpin trace");
        assert!(
            p.edges().contains(&EdgeId(0)),
            "matched route must include the hairpin, got {:?}",
            p.edges()
        );
        assert!(
            p.edges().contains(&EdgeId(2)),
            "matched route must continue east, got {:?}",
            p.edges()
        );
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

        let mut total_sim = 0.0;
        let mut matched_count = 0usize;
        for trip in trips.iter().take(8) {
            let Some(matched) = map_match(&g, &trip.trace, &mm) else {
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
    fn reused_engine_matches_identically() {
        // One engine across all traces must reproduce the one-shot
        // matcher's output exactly — the map-matching face of the
        // stale-generation bug class.
        let g = region_network(&RegionConfig::small_test(), 4);
        let trips = simulate_fleet(&g, &SimulationConfig::small_test(), 17);
        let cfg = MapMatchConfig::default();
        let mut engine = QueryEngine::new(&g);
        for trip in trips.iter().take(6) {
            let fresh = map_match(&g, &trip.trace, &cfg);
            let reused = map_match_with(&mut engine, &trip.trace, &cfg);
            match (fresh, reused) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.vertices(), b.vertices());
                    assert_eq!(a.edges(), b.edges());
                }
                (None, None) => {}
                (a, b) => panic!("match divergence: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn matcher_reuses_one_index_across_traces() {
        // The ROADMAP fix: `map_match_with` rebuilt the spatial index per
        // trace; a MapMatcher must hold one index for its lifetime and
        // still reproduce the one-shot matcher's output exactly.
        let g = region_network(&RegionConfig::small_test(), 4);
        let trips = simulate_fleet(&g, &SimulationConfig::small_test(), 17);
        let cfg = MapMatchConfig::default();
        let mut matcher = MapMatcher::new(&g, cfg.clone());
        let index_ptr: *const RTree = matcher.index();
        for trip in trips.iter().take(6) {
            let fresh = map_match(&g, &trip.trace, &cfg);
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
    fn alt_matcher_recovers_routes_like_plain_matcher() {
        use pathrank_spatial::algo::landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable};
        use std::sync::Arc;
        let g = region_network(&RegionConfig::small_test(), 4);
        let trips = simulate_fleet(&g, &SimulationConfig::small_test(), 17);
        let table = Arc::new(LandmarkTable::build(
            &g,
            LandmarkMetric::Length,
            &LandmarkConfig::default(),
        ));
        let cfg = MapMatchConfig::default();
        let mut plain = MapMatcher::new(&g, cfg.clone());
        let mut alt = MapMatcher::new(&g, cfg).with_landmarks(table);
        for trip in trips.iter().take(6) {
            // ALT probes return bit-identical route costs, so the Viterbi
            // decisions — and the matched routes — must agree.
            let a = plain.match_trace(&trip.trace);
            let b = alt.match_trace(&trip.trace);
            match (a, b) {
                (Some(a), Some(b)) => assert_eq!(a.edges(), b.edges()),
                (None, None) => {}
                (a, b) => panic!("ALT match divergence: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn fleet_sp_cache_hits_across_traces_without_changing_matches() {
        // The ROADMAP's fleet-level sp-cache: corridors repeat across a
        // fleet's traces, so the shared cache must (a) actually hit and
        // (b) never change a match (cached values are exactly what the
        // engine would return).
        let g = region_network(&RegionConfig::small_test(), 4);
        let trips = simulate_fleet(&g, &SimulationConfig::small_test(), 17);
        let cfg = MapMatchConfig::default();
        let mut matcher = MapMatcher::new(&g, cfg.clone());
        assert_eq!(matcher.stats(), MatchStats::default());
        for trip in trips.iter().take(8) {
            let fresh = map_match(&g, &trip.trace, &cfg);
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
        // Without a CH there is nothing to bulk-fill from.
        assert_eq!(stats.m2m_tables, 0);
        assert_eq!(stats.probes_avoided_by_m2m(), 0);

        // The CH-backed matcher serves the same fleet through bulk
        // many-to-many fills: the avoided-probe counter must move and
        // every remaining probe must hit the pre-filled cache.
        use pathrank_spatial::algo::ch::{ChConfig, ContractionHierarchy};
        use pathrank_spatial::algo::landmarks::LandmarkMetric;
        use std::sync::Arc;
        let ch = Arc::new(ContractionHierarchy::build(
            &g,
            LandmarkMetric::Length,
            &ChConfig::default(),
        ));
        let mut fast = MapMatcher::new(&g, cfg).with_ch(ch);
        for trip in trips.iter().take(8) {
            fast.match_trace(&trip.trace);
        }
        let stats = fast.stats();
        assert!(stats.m2m_tables > 0, "CH matcher must build m2m tables");
        assert!(
            stats.probes_avoided_by_m2m() > 0,
            "bulk fills must avoid pairwise probes"
        );
        // Bulk-filled traces turn former misses into hits; only traces
        // the break-even gate kept on the plain path may still miss.
        assert!(
            stats.hit_rate() > 0.9,
            "bulk-filled fleet should probe almost entirely from cache \
             (hit rate {:.3})",
            stats.hit_rate()
        );
    }

    #[test]
    fn ch_matcher_recovers_routes_like_plain_matcher() {
        use pathrank_spatial::algo::ch::{ChConfig, ContractionHierarchy};
        use pathrank_spatial::algo::landmarks::LandmarkMetric;
        use std::sync::Arc;
        let g = region_network(&RegionConfig::small_test(), 4);
        let trips = simulate_fleet(&g, &SimulationConfig::small_test(), 17);
        let ch = Arc::new(ContractionHierarchy::build(
            &g,
            LandmarkMetric::Length,
            &ChConfig::default(),
        ));
        let cfg = MapMatchConfig::default();
        let mut plain = MapMatcher::new(&g, cfg.clone());
        let mut fast = MapMatcher::new(&g, cfg).with_ch(ch);
        for trip in trips.iter().take(6) {
            // CH probes return exact route costs, so the Viterbi
            // decisions — and the matched routes — must agree (the
            // region's float geometry makes optima unique).
            let a = plain.match_trace(&trip.trace);
            let b = fast.match_trace(&trip.trace);
            match (a, b) {
                (Some(a), Some(b)) => assert_eq!(a.edges(), b.edges()),
                (None, None) => {}
                (a, b) => panic!("CH match divergence: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn m2m_metric_mismatch_falls_back_to_probe_cache() {
        // A TravelTime-metric CH cannot serve the Length transition
        // probes: the bulk fill must stay inert and the sp-cache path
        // must carry the probes, matching the plain matcher exactly.
        use pathrank_spatial::algo::ch::{ChConfig, ContractionHierarchy};
        use pathrank_spatial::algo::landmarks::LandmarkMetric;
        use std::sync::Arc;
        let g = region_network(&RegionConfig::small_test(), 4);
        let trips = simulate_fleet(&g, &SimulationConfig::small_test(), 17);
        let tt_ch = Arc::new(ContractionHierarchy::build(
            &g,
            LandmarkMetric::TravelTime,
            &ChConfig::default(),
        ));
        let cfg = MapMatchConfig::default();
        let mut plain = MapMatcher::new(&g, cfg.clone());
        let mut mismatched = MapMatcher::new(&g, cfg).with_ch(tt_ch);
        for trip in trips.iter().take(6) {
            let a = plain.match_trace(&trip.trace);
            let b = mismatched.match_trace(&trip.trace);
            match (a, b) {
                (Some(a), Some(b)) => assert_eq!(a.edges(), b.edges()),
                (None, None) => {}
                (a, b) => panic!("fallback match divergence: {a:?} vs {b:?}"),
            }
        }
        let stats = mismatched.stats();
        assert_eq!(stats.m2m_tables, 0, "metric gate must block the fill");
        assert_eq!(stats.m2m_pairs, 0);
        assert!(stats.sp_probes > 0, "probes must flow through the cache");
    }

    #[test]
    fn short_traces_return_none() {
        let g = region_network(&RegionConfig::small_test(), 4);
        let trace = GpsTrace {
            vehicle: 0,
            points: vec![],
        };
        assert!(map_match(&g, &trace, &MapMatchConfig::default()).is_none());
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
        assert!(map_match(&g, &trace, &MapMatchConfig::default()).is_none());
    }
}
