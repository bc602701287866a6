//! Trajectory dataset assembly: from simulated trips, through map
//! matching of their GPS traces, to the train/test trajectory path sets
//! PathRank consumes.

use pathrank_rng::rngs::StdRng;
use pathrank_rng::{seq::SliceRandom, SeedableRng};

use pathrank_spatial::graph::Graph;
use pathrank_spatial::path::Path;

use crate::mapmatch::{MapMatchConfig, MapMatcher};
use crate::simulator::Trip;

/// A set of trajectory paths ready for training-data generation.
#[derive(Debug, Clone)]
pub struct TrajectoryDataset {
    /// Trajectory paths (one per matched trip, in trip order).
    pub paths: Vec<Path>,
}

impl TrajectoryDataset {
    /// Builds the dataset by map-matching each trip's GPS trace (the full
    /// paper pipeline). Trips whose trace cannot be matched are dropped.
    /// One [`MapMatcher`] — a single spatial index, a single plain query
    /// engine and one fleet-wide probe cache — serves every trace.
    pub fn from_map_matching(g: &Graph, trips: &[Trip], cfg: &MapMatchConfig) -> Self {
        Self::from_map_matching_with_stats(g, trips, cfg).0
    }

    /// Like [`TrajectoryDataset::from_map_matching`], but also hands back
    /// the matcher's probe-cache statistics
    /// ([`crate::mapmatch::MatchStats`]) for callers feeding a metrics
    /// registry.
    pub fn from_map_matching_with_stats(
        g: &Graph,
        trips: &[Trip],
        cfg: &MapMatchConfig,
    ) -> (Self, crate::mapmatch::MatchStats) {
        let mut matcher = MapMatcher::new(g, cfg.clone());
        let paths = trips
            .iter()
            .filter_map(|t| matcher.match_trace(&t.trace))
            .collect();
        (TrajectoryDataset { paths }, matcher.stats())
    }

    /// Number of trajectory paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Retains only paths with at least `min_hops` edges (very short trips
    /// carry no ranking signal).
    pub fn filter_min_hops(mut self, min_hops: usize) -> Self {
        self.paths.retain(|p| p.len() >= min_hops);
        self
    }

    /// Shuffles (seeded) and splits into train/test by `train_frac`.
    pub fn split(mut self, train_frac: f64, seed: u64) -> (Vec<Path>, Vec<Path>) {
        assert!(
            (0.0..=1.0).contains(&train_frac),
            "train_frac must be in [0,1]"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        self.paths.shuffle(&mut rng);
        let cut = (self.paths.len() as f64 * train_frac).round() as usize;
        let test = self.paths.split_off(cut.min(self.paths.len()));
        (self.paths, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{simulate_fleet, SimulationConfig};
    use pathrank_spatial::generators::{region_network, RegionConfig};

    fn trips() -> (Graph, Vec<Trip>) {
        let g = region_network(&RegionConfig::small_test(), 31);
        let t = simulate_fleet(&g, &SimulationConfig::small_test(), 32);
        (g, t)
    }

    /// The trips' true paths, in trip order.
    fn true_paths(trips: &[Trip]) -> TrajectoryDataset {
        TrajectoryDataset {
            paths: trips.iter().map(|t| t.path.clone()).collect(),
        }
    }

    #[test]
    fn filter_min_hops_drops_short_paths() {
        let (_, trips) = trips();
        let before = true_paths(&trips);
        let min_len_before = before.paths.iter().map(Path::len).min().unwrap();
        let ds = before.clone().filter_min_hops(min_len_before + 1);
        assert!(ds.len() < trips.len());
        assert!(ds.paths.iter().all(|p| p.len() > min_len_before));
    }

    #[test]
    fn split_is_seeded_and_partitioning() {
        let (_, trips) = trips();
        let n = trips.len();
        let (tr1, te1) = true_paths(&trips).split(0.75, 5);
        let (tr2, te2) = true_paths(&trips).split(0.75, 5);
        assert_eq!(tr1.len() + te1.len(), n);
        assert_eq!(tr1.len(), (n as f64 * 0.75).round() as usize);
        assert_eq!(tr1.len(), tr2.len());
        for (a, b) in tr1.iter().zip(tr2.iter()) {
            assert!(a.same_route(b), "same seed, same split");
        }
        assert_eq!(te1.len(), te2.len());
        // Different seed shuffles differently (overwhelmingly likely).
        let (tr3, _) = true_paths(&trips).split(0.75, 6);
        let identical = tr1.iter().zip(tr3.iter()).all(|(a, b)| a.same_route(b));
        assert!(!identical, "different seeds should differ");
    }

    #[test]
    fn split_extremes() {
        let (_, trips) = trips();
        let (tr, te) = true_paths(&trips).split(1.0, 1);
        assert_eq!(te.len(), 0);
        assert_eq!(tr.len(), trips.len());
        let (tr, te) = true_paths(&trips).split(0.0, 1);
        assert_eq!(tr.len(), 0);
        assert_eq!(te.len(), trips.len());
    }

    #[test]
    fn map_matching_dataset_yields_valid_paths() {
        let (g, trips) = trips();
        let subset: Vec<Trip> = trips.into_iter().take(5).collect();
        let ds = TrajectoryDataset::from_map_matching(&g, &subset, &MapMatchConfig::default());
        assert!(!ds.is_empty(), "at least some traces must match");
        for p in &ds.paths {
            p.validate(&g).unwrap();
        }
    }
}
