//! GPS records and traces.

use pathrank_spatial::geometry::Point;

/// A single GPS fix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsPoint {
    /// Measured position (planar metres, already noisy).
    pub pos: Point,
    /// Seconds since the start of the trip.
    pub t_s: f64,
}

/// A sequence of GPS fixes from one trip of one vehicle.
#[derive(Debug, Clone, PartialEq)]
pub struct GpsTrace {
    /// The vehicle that produced the trace.
    pub vehicle: u32,
    /// Fixes ordered by time.
    pub points: Vec<GpsPoint>,
}

impl GpsTrace {
    /// Number of fixes.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the trace has no fixes.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Duration of the trace in seconds (0 for traces with < 2 fixes).
    pub fn duration_s(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some(a), Some(b)) => b.t_s - a.t_s,
            _ => 0.0,
        }
    }

    /// Sum of straight-line distances between consecutive fixes, in metres.
    pub fn measured_length_m(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| w[0].pos.distance(&w[1].pos))
            .sum()
    }
}

/// Draws one standard normal variate via Box–Muller (`pathrank-rng` has
/// no distributions, so we roll the two-liner ourselves).
pub fn sample_standard_normal(rng: &mut pathrank_rng::rngs::StdRng) -> f64 {
    use pathrank_rng::Rng;
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathrank_rng::SeedableRng;

    #[test]
    fn trace_accessors() {
        let trace = GpsTrace {
            vehicle: 7,
            points: vec![
                GpsPoint {
                    pos: Point::new(0.0, 0.0),
                    t_s: 0.0,
                },
                GpsPoint {
                    pos: Point::new(3.0, 4.0),
                    t_s: 10.0,
                },
                GpsPoint {
                    pos: Point::new(3.0, 10.0),
                    t_s: 20.0,
                },
            ],
        };
        assert_eq!(trace.len(), 3);
        assert!(!trace.is_empty());
        assert_eq!(trace.duration_s(), 20.0);
        assert!((trace.measured_length_m() - 11.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace() {
        let trace = GpsTrace {
            vehicle: 0,
            points: vec![],
        };
        assert!(trace.is_empty());
        assert_eq!(trace.duration_s(), 0.0);
        assert_eq!(trace.measured_length_m(), 0.0);
    }

    #[test]
    fn normal_samples_have_plausible_moments() {
        let mut rng = pathrank_rng::rngs::StdRng::seed_from_u64(99);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }
}
