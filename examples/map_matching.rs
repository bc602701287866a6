//! GPS map-matching demo: recover the driven path from a noisy trace.
//!
//! ```text
//! cargo run --release --example map_matching
//! ```
//!
//! Simulates trips with increasing GPS noise and reports how accurately
//! the HMM map matcher recovers the true path (weighted Jaccard between
//! the matched and the driven path).

use pathrank::spatial::generators::{region_network, RegionConfig};
use pathrank::spatial::similarity::{weighted_jaccard, EdgeWeight};
use pathrank::traj::mapmatch::{MapMatchConfig, MapMatcher};
use pathrank::traj::simulator::{simulate_fleet, SimulationConfig};

fn main() {
    let g = region_network(&RegionConfig::small_test(), 7);
    println!(
        "network: {} vertices / {} edges",
        g.vertex_count(),
        g.edge_count()
    );
    println!(
        "\n{:>10} {:>9} {:>9} {:>12}",
        "noise_std", "trips", "matched", "mean_jaccard"
    );

    for noise in [2.0, 5.0, 10.0, 20.0, 35.0] {
        let sim = SimulationConfig {
            n_vehicles: 4,
            trips_per_vehicle: 5,
            gps_noise_std_m: noise,
            sampling_interval_s: 5.0,
            ..SimulationConfig::small_test()
        };
        let trips = simulate_fleet(&g, &sim, 99);
        let mm = MapMatchConfig {
            sigma_m: noise.max(4.0),
            ..MapMatchConfig::default()
        };

        // One matcher per noise level: its index and probe cache serve
        // every trace of the fleet.
        let mut matcher = MapMatcher::new(&g, mm);
        let mut matched = 0usize;
        let mut total_sim = 0.0;
        for trip in &trips {
            if let Some(path) = matcher.match_trace(&trip.trace) {
                total_sim += weighted_jaccard(&g, &path, &trip.path, EdgeWeight::Length);
                matched += 1;
            }
        }
        let mean = if matched > 0 {
            total_sim / matched as f64
        } else {
            0.0
        };
        println!("{noise:>10.0} {:>9} {matched:>9} {mean:>12.3}", trips.len());
    }

    println!(
        "\nAccuracy degrades gracefully with noise; at survey-grade noise the \
         matcher recovers the driven path almost exactly."
    );
}
