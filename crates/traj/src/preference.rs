//! Hidden driver preference models.
//!
//! The paper's central observation is that local drivers choose paths that
//! are neither shortest nor fastest. We reproduce that signal with a
//! per-driver routing cost over edges:
//!
//! ```text
//! cost(e) = (w_len · length(e) + w_time · time(e) · v̄)
//!           · affinity(category(e)) · familiarity(e)
//! ```
//!
//! * `w_len`, `w_time` — each driver's personal trade-off between distance
//!   and time (`v̄` is a speed scale that puts the two on comparable units);
//! * `affinity` — a per-category multiplier (some drivers avoid highways,
//!   some love them);
//! * `familiarity` — mild per-edge multiplicative noise, unique per driver
//!   (drivers take the streets *they* know).
//!
//! Routing on this cost with plain Dijkstra yields consistent,
//! driver-specific behaviour that a ranking model can learn, while the
//! shortest and fastest paths remain systematically different.

use pathrank_rng::rngs::StdRng;
use pathrank_rng::{Rng, SeedableRng};

use pathrank_spatial::graph::{Graph, RoadCategory};

/// A driver's hidden routing preference.
#[derive(Debug, Clone)]
pub struct DriverPreference {
    /// Weight on edge length (metres).
    pub w_len: f64,
    /// Weight on edge travel time (seconds, scaled by `speed_scale`).
    pub w_time: f64,
    /// Speed scale (m/s) that converts seconds into metre-comparable units.
    pub speed_scale: f64,
    /// Multiplier per road category, indexed by [`category_index`].
    pub affinity: [f64; 4],
    /// Extra cost multiplier applied to *unpopular* edges (0 disables the
    /// corridor pull; see [`DriverPreference::edge_costs_with_popularity`]).
    pub popularity_weight: f64,
    /// Standard deviation of the per-edge familiarity factor (log-scale).
    pub familiarity_sigma: f64,
    /// Seed for the driver's private familiarity noise.
    pub familiarity_seed: u64,
}

/// Stable index of a road category into [`DriverPreference::affinity`].
pub fn category_index(cat: RoadCategory) -> usize {
    match cat {
        RoadCategory::Highway => 0,
        RoadCategory::Arterial => 1,
        RoadCategory::Residential => 2,
        RoadCategory::Rural => 3,
    }
}

impl DriverPreference {
    /// Samples a driver.
    ///
    /// Preferences have two components, mirroring what route-choice studies
    /// find in real fleets:
    ///
    /// * a **shared population taste** — drivers like big fast roads beyond
    ///   their pure travel-time advantage and avoid cutting through
    ///   residential streets (this is the *learnable* signal PathRank
    ///   extracts from trajectories);
    /// * **individual variation** — each driver perturbs the shared taste
    ///   (±~15%) and carries private per-edge familiarity noise.
    pub fn sample(rng: &mut StdRng) -> Self {
        let w_len = rng.gen_range(0.3..0.9);
        let w_time = 1.0 - w_len;
        // Population means per category: Highway, Arterial, Residential,
        // Rural. Values below 1 make a category attractive.
        const POPULATION_TASTE: [f64; 4] = [0.72, 0.82, 1.35, 1.12];
        let mut affinity = [0.0; 4];
        for (a, base) in affinity.iter_mut().zip(POPULATION_TASTE) {
            *a = base * rng.gen_range(-0.15..0.15f64).exp();
        }
        DriverPreference {
            w_len,
            w_time,
            speed_scale: rng.gen_range(12.0..22.0),
            affinity,
            popularity_weight: rng.gen_range(0.2..0.45),
            familiarity_sigma: 0.15,
            familiarity_seed: rng.gen(),
        }
    }

    /// A neutral preference: pure shortest-distance routing, no noise.
    /// Useful as a control in tests.
    pub fn neutral() -> Self {
        DriverPreference {
            w_len: 1.0,
            w_time: 0.0,
            speed_scale: 15.0,
            affinity: [1.0; 4],
            popularity_weight: 0.0,
            familiarity_sigma: 0.0,
            familiarity_seed: 0,
        }
    }

    /// Materialises the preference into one positive cost per edge of `g`,
    /// suitable for `CostModel::Custom`.
    pub fn edge_costs(&self, g: &Graph) -> Vec<f64> {
        self.edge_costs_with_popularity(g, None)
    }

    /// Like [`DriverPreference::edge_costs`], additionally discounting
    /// popular corridors.
    ///
    /// `popularity` is a per-edge score in `[0, 1]` (see
    /// `pathrank_spatial::graph::edge_popularity`): drivers gravitate to the
    /// network's major corridors — paths everyone knows — which makes part
    /// of their behaviour *topologically* predictable (the signal a frozen
    /// node2vec embedding can capture).
    pub fn edge_costs_with_popularity(&self, g: &Graph, popularity: Option<&[f64]>) -> Vec<f64> {
        if let Some(pop) = popularity {
            assert_eq!(
                pop.len(),
                g.edge_count(),
                "popularity must cover every edge"
            );
        }
        let mut rng = StdRng::seed_from_u64(self.familiarity_seed);
        let mut costs = Vec::with_capacity(g.edge_count());
        for (i, e) in g.edges().enumerate() {
            let base = self.w_len * e.attrs.length_m
                + self.w_time * e.attrs.travel_time_s() * self.speed_scale;
            let aff = self.affinity[category_index(e.attrs.category)];
            // Log-normal-ish familiarity factor, strictly positive.
            let z = crate::gps::sample_standard_normal(&mut rng);
            let familiarity = (self.familiarity_sigma * z).exp();
            // Unpopular back streets cost up to `popularity_weight` more.
            let corridor = match popularity {
                Some(pop) => 1.0 + self.popularity_weight * (1.0 - pop[i]),
                None => 1.0,
            };
            costs.push((base * aff * familiarity * corridor).max(1e-6));
        }
        costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathrank_spatial::algo::engine::QueryEngine;
    use pathrank_spatial::generators::{region_network, RegionConfig};
    use pathrank_spatial::graph::{CostModel, VertexId};
    use pathrank_spatial::similarity::{weighted_jaccard, EdgeWeight};

    #[test]
    fn costs_are_positive_and_deterministic() {
        let g = region_network(&RegionConfig::small_test(), 1);
        let mut rng = StdRng::seed_from_u64(5);
        let pref = DriverPreference::sample(&mut rng);
        let a = pref.edge_costs(&g);
        let b = pref.edge_costs(&g);
        assert_eq!(a, b, "same driver, same costs");
        assert_eq!(a.len(), g.edge_count());
        assert!(a.iter().all(|&c| c > 0.0 && c.is_finite()));
    }

    #[test]
    fn neutral_preference_reduces_to_length() {
        let g = region_network(&RegionConfig::small_test(), 1);
        let costs = DriverPreference::neutral().edge_costs(&g);
        for (i, e) in g.edges().enumerate() {
            assert!((costs[i] - e.attrs.length_m).abs() < 1e-9);
        }
    }

    #[test]
    fn different_drivers_have_different_costs() {
        let g = region_network(&RegionConfig::small_test(), 1);
        let mut rng = StdRng::seed_from_u64(6);
        let a = DriverPreference::sample(&mut rng).edge_costs(&g);
        let b = DriverPreference::sample(&mut rng).edge_costs(&g);
        assert_ne!(a, b);
    }

    /// The point of the whole model: preferred paths must frequently differ
    /// from both the shortest and the fastest path, yet stay reasonable
    /// (bounded detour).
    #[test]
    fn preferred_paths_differ_from_shortest_and_fastest() {
        let g = region_network(&RegionConfig::small_test(), 3);
        let mut rng = StdRng::seed_from_u64(7);
        let n = g.vertex_count() as u32;
        let mut engine = QueryEngine::new(&g);
        let mut differs = 0usize;
        let mut total = 0usize;
        for driver in 0..6u64 {
            let pref = DriverPreference::sample(&mut StdRng::seed_from_u64(driver + 100));
            let costs = pref.edge_costs(&g);
            for _ in 0..5 {
                let s = VertexId(rng.gen_range(0..n));
                let t = VertexId(rng.gen_range(0..n));
                if s == t {
                    continue;
                }
                let preferred = engine.shortest_path(s, t, CostModel::Custom(&costs));
                let shortest = engine.shortest_path(s, t, CostModel::Length);
                let (Some(p), Some(sh)) = (preferred, shortest) else {
                    continue;
                };
                total += 1;
                // Bounded detour: drivers are biased, not crazy.
                assert!(
                    p.length_m(&g) <= sh.length_m(&g) * 2.5,
                    "preferred path detour factor too large"
                );
                if weighted_jaccard(&g, &p, &sh, EdgeWeight::Length) < 0.999 {
                    differs += 1;
                }
            }
        }
        assert!(total > 10, "need a meaningful sample");
        assert!(
            differs * 3 >= total,
            "at least a third of preferred paths should differ from the \
             shortest path (got {differs}/{total})"
        );
    }
}
