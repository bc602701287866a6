//! Weight initialisers with explicit seeds.

use pathrank_rng::rngs::StdRng;
use pathrank_rng::Rng;

use crate::matrix::Matrix;

/// Uniform initialisation in `[lo, hi)`.
pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut StdRng) -> Matrix {
    let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// Xavier/Glorot uniform initialisation:
/// `U(-√(6/(fan_in+fan_out)), +√(6/(fan_in+fan_out)))`.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let limit = (6.0 / (rows + cols) as f32).sqrt();
    uniform(rows, cols, -limit, limit, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathrank_rng::SeedableRng;

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = uniform(20, 20, -0.5, 0.5, &mut rng);
        assert!(m.data().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn xavier_limit_scales_with_fan() {
        let mut rng = StdRng::seed_from_u64(2);
        let small = xavier_uniform(4, 4, &mut rng);
        let limit = (6.0f32 / 8.0).sqrt();
        assert!(small.data().iter().all(|&v| v.abs() <= limit));
        let big = xavier_uniform(512, 512, &mut rng);
        let big_limit = (6.0f32 / 1024.0).sqrt();
        assert!(big.data().iter().all(|&v| v.abs() <= big_limit));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = xavier_uniform(8, 8, &mut StdRng::seed_from_u64(7));
        let b = xavier_uniform(8, 8, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = xavier_uniform(8, 8, &mut StdRng::seed_from_u64(8));
        assert_ne!(a, c);
    }
}
