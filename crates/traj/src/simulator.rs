//! Fleet simulation: drivers with hidden preferences make trips and emit
//! noisy GPS traces.

use pathrank_rng::rngs::StdRng;
use pathrank_rng::{Rng, SeedableRng};

use pathrank_spatial::algo::engine::QueryEngine;
use pathrank_spatial::geometry::Point;
use pathrank_spatial::graph::{edge_popularity, CostModel, Graph, VertexId};
use pathrank_spatial::path::Path;

use crate::gps::{sample_standard_normal, GpsPoint, GpsTrace};
use crate::preference::DriverPreference;

/// Fleet simulation parameters.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Number of vehicles (the paper's fleet has 183).
    pub n_vehicles: usize,
    /// Trips per vehicle.
    pub trips_per_vehicle: usize,
    /// GPS sampling interval in seconds (1 Hz in the paper's data).
    pub sampling_interval_s: f64,
    /// Standard deviation of GPS noise, metres per axis.
    pub gps_noise_std_m: f64,
    /// Minimum straight-line O/D distance for a trip, metres.
    pub min_trip_euclid_m: f64,
    /// Maximum straight-line O/D distance for a trip, metres.
    pub max_trip_euclid_m: f64,
    /// Drivers travel at `factor × free-flow speed`, drawn per trip from
    /// this range.
    pub speed_factor: (f64, f64),
}

impl SimulationConfig {
    /// A small deterministic fleet for tests.
    pub fn small_test() -> Self {
        SimulationConfig {
            n_vehicles: 3,
            trips_per_vehicle: 4,
            sampling_interval_s: 5.0,
            gps_noise_std_m: 8.0,
            min_trip_euclid_m: 300.0,
            max_trip_euclid_m: 5_000.0,
            speed_factor: (0.8, 1.0),
        }
    }

    /// The default experiment fleet: mirrors the paper's 183 vehicles but
    /// with trip counts sized for a laptop run.
    pub fn paper_scale() -> Self {
        SimulationConfig {
            n_vehicles: 183,
            trips_per_vehicle: 8,
            sampling_interval_s: 5.0,
            gps_noise_std_m: 10.0,
            min_trip_euclid_m: 800.0,
            max_trip_euclid_m: 15_000.0,
            speed_factor: (0.75, 1.05),
        }
    }
}

/// One simulated trip: the path the driver actually drove and the noisy
/// GPS trace observed along it.
#[derive(Debug, Clone)]
pub struct Trip {
    /// Vehicle id in `0..n_vehicles`.
    pub vehicle: u32,
    /// The driver's hidden preferred path (ground truth).
    pub path: Path,
    /// The observed GPS trace.
    pub trace: GpsTrace,
}

/// Simulates the whole fleet deterministically from `seed`.
///
/// Every vehicle gets its own [`DriverPreference`]; each trip routes
/// between a random O/D pair (straight-line distance within the configured
/// band) under that driver's hidden cost, then emits GPS fixes along the
/// path geometry.
pub fn simulate_fleet(g: &Graph, cfg: &SimulationConfig, seed: u64) -> Vec<Trip> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.vertex_count() as u32;
    let mut trips = Vec::with_capacity(cfg.n_vehicles * cfg.trips_per_vehicle);
    // One reused engine routes every trip of the fleet.
    let mut engine = QueryEngine::new(g);
    // Shared corridor popularity: part of every driver's taste, and the
    // topological component of the signal PathRank learns.
    let popularity = edge_popularity(g, 48, seed.wrapping_add(0x5eed));

    for vehicle in 0..cfg.n_vehicles as u32 {
        let pref = DriverPreference::sample(&mut rng);
        let costs = pref.edge_costs_with_popularity(g, Some(&popularity));
        let mut produced = 0usize;
        let mut attempts = 0usize;
        while produced < cfg.trips_per_vehicle && attempts < cfg.trips_per_vehicle * 50 {
            attempts += 1;
            let s = VertexId(rng.gen_range(0..n));
            let t = VertexId(rng.gen_range(0..n));
            if s == t {
                continue;
            }
            let euclid = g.euclidean(s, t);
            if euclid < cfg.min_trip_euclid_m || euclid > cfg.max_trip_euclid_m {
                continue;
            }
            let Some(path) = engine.shortest_path(s, t, CostModel::Custom(&costs)) else {
                continue;
            };
            let factor = rng.gen_range(cfg.speed_factor.0..=cfg.speed_factor.1);
            let trace = emit_trace(g, &path, vehicle, cfg, factor, &mut rng);
            trips.push(Trip {
                vehicle,
                path,
                trace,
            });
            produced += 1;
        }
    }
    trips
}

/// Walks along `path` at `factor ×` free-flow speed, emitting a noisy fix
/// every `sampling_interval_s`.
fn emit_trace(
    g: &Graph,
    path: &Path,
    vehicle: u32,
    cfg: &SimulationConfig,
    speed_factor: f64,
    rng: &mut StdRng,
) -> GpsTrace {
    let mut points = Vec::new();
    let mut t_now = 0.0f64;
    let mut next_sample = 0.0f64;

    let mut emit = |pos: Point, t: f64, rng: &mut StdRng| {
        let nx = sample_standard_normal(rng) * cfg.gps_noise_std_m;
        let ny = sample_standard_normal(rng) * cfg.gps_noise_std_m;
        points.push(GpsPoint {
            pos: Point::new(pos.x + nx, pos.y + ny),
            t_s: t,
        });
    };

    for (i, &e) in path.edges().iter().enumerate() {
        let rec = g.edge(e);
        let a = g.coord(rec.from);
        let b = g.coord(rec.to);
        let speed_ms = (rec.attrs.speed_kmh / 3.6) * speed_factor;
        let duration = rec.attrs.length_m / speed_ms.max(0.1);
        // Emit all samples that fall within this edge's time window.
        while next_sample <= t_now + duration {
            let frac = ((next_sample - t_now) / duration).clamp(0.0, 1.0);
            emit(a.lerp(&b, frac), next_sample, rng);
            next_sample += cfg.sampling_interval_s;
        }
        t_now += duration;
        // Always emit the final vertex so the trace covers the whole path.
        if i == path.edges().len() - 1 {
            emit(b, t_now, rng);
        }
    }
    GpsTrace { vehicle, points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathrank_spatial::generators::{region_network, RegionConfig};

    fn setup() -> (Graph, Vec<Trip>) {
        let g = region_network(&RegionConfig::small_test(), 11);
        let trips = simulate_fleet(&g, &SimulationConfig::small_test(), 21);
        (g, trips)
    }

    #[test]
    fn produces_requested_trip_count() {
        let (_, trips) = setup();
        let cfg = SimulationConfig::small_test();
        assert_eq!(trips.len(), cfg.n_vehicles * cfg.trips_per_vehicle);
    }

    #[test]
    fn trips_are_valid_paths_with_distance_band() {
        let (g, trips) = setup();
        let cfg = SimulationConfig::small_test();
        for trip in &trips {
            trip.path.validate(&g).unwrap();
            let euclid = g.euclidean(trip.path.source(), trip.path.target());
            assert!(euclid >= cfg.min_trip_euclid_m && euclid <= cfg.max_trip_euclid_m);
        }
    }

    #[test]
    fn traces_cover_paths_in_time_and_space() {
        let (g, trips) = setup();
        for trip in &trips {
            assert!(
                trip.trace.len() >= 2,
                "every trip emits at least start and end fixes"
            );
            // Timestamps strictly increase.
            for w in trip.trace.points.windows(2) {
                assert!(w[1].t_s > w[0].t_s);
            }
            // First fix is near the source, last near the target (8 m noise).
            let src = g.coord(trip.path.source());
            let dst = g.coord(trip.path.target());
            assert!(trip.trace.points[0].pos.distance(&src) < 60.0);
            assert!(trip.trace.points.last().unwrap().pos.distance(&dst) < 60.0);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = region_network(&RegionConfig::small_test(), 11);
        let cfg = SimulationConfig::small_test();
        let a = simulate_fleet(&g, &cfg, 5);
        let b = simulate_fleet(&g, &cfg, 5);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(x.path.same_route(&y.path));
            assert_eq!(x.trace, y.trace);
        }
    }

    #[test]
    fn same_vehicle_routes_consistently() {
        // Two trips of one vehicle between the same O/D must take the same
        // path (the preference is fixed per driver).
        let g = region_network(&RegionConfig::small_test(), 11);
        let mut rng = StdRng::seed_from_u64(77);
        let pref = DriverPreference::sample(&mut rng);
        let costs = pref.edge_costs(&g);
        let s = VertexId(0);
        let t = VertexId((g.vertex_count() - 1) as u32);
        let mut engine = QueryEngine::new(&g);
        let p1 = engine
            .shortest_path(s, t, CostModel::Custom(&costs))
            .unwrap();
        let p2 = engine
            .shortest_path(s, t, CostModel::Custom(&costs))
            .unwrap();
        assert!(p1.same_route(&p2));
    }

    #[test]
    fn gps_noise_has_configured_magnitude() {
        let g = region_network(&RegionConfig::small_test(), 11);
        let mut cfg = SimulationConfig::small_test();
        cfg.gps_noise_std_m = 0.0;
        let trips = simulate_fleet(&g, &cfg, 3);
        // With zero noise every fix lies exactly on a path segment.
        for trip in trips.iter().take(3) {
            for fix in &trip.trace.points {
                let min_dist = trip
                    .path
                    .edges()
                    .iter()
                    .map(|&e| {
                        let rec = g.edge(e);
                        pathrank_spatial::geometry::point_segment_distance(
                            &fix.pos,
                            &g.coord(rec.from),
                            &g.coord(rec.to),
                        )
                    })
                    .fold(f64::INFINITY, f64::min);
                assert!(min_dist < 1e-6, "noiseless fix off the path by {min_dist}");
            }
        }
    }
}
