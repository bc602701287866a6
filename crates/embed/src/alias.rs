//! Walker's alias method: O(n) construction, O(1) sampling from an
//! arbitrary discrete distribution.

use pathrank_rng::rngs::StdRng;
use pathrank_rng::Rng;

/// An alias table over `0..n` built from unnormalised weights.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds the table from unnormalised non-negative weights.
    ///
    /// # Panics
    /// If `weights` is empty, contains a negative/non-finite value, or sums
    /// to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(
            !weights.is_empty(),
            "alias table needs at least one outcome"
        );
        let total: f64 = weights
            .iter()
            .inspect(|&&w| assert!(w.is_finite() && w >= 0.0, "bad weight {w}"))
            .sum();
        assert!(total > 0.0, "weights must not all be zero");

        let n = weights.len();
        let mut prob: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
            if prob[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Anything left is 1 up to floating-point error.
        for i in small.into_iter().chain(large) {
            prob[i as usize] = 1.0;
        }
        AliasTable { prob, alias }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Always false: the constructor rejects empty weights.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws one outcome.
    #[inline]
    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[i] {
            i as u32
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathrank_rng::SeedableRng;

    #[test]
    fn uniform_weights_sample_uniformly() {
        let t = AliasTable::new(&[1.0, 1.0, 1.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[t.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            let freq = c as f64 / 40_000.0;
            assert!((freq - 0.25).abs() < 0.02, "freq {freq}");
        }
    }

    #[test]
    fn skewed_weights_match_expectation() {
        let t = AliasTable::new(&[1.0, 3.0]);
        let mut rng = StdRng::seed_from_u64(2);
        let mut ones = 0usize;
        for _ in 0..40_000 {
            if t.sample(&mut rng) == 1 {
                ones += 1;
            }
        }
        let freq = ones as f64 / 40_000.0;
        assert!((freq - 0.75).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn zero_weight_outcome_never_sampled() {
        let t = AliasTable::new(&[0.0, 1.0, 0.0]);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1_000 {
            assert_eq!(t.sample(&mut rng), 1);
        }
    }

    #[test]
    fn single_outcome() {
        let t = AliasTable::new(&[7.0]);
        assert_eq!(t.len(), 1);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(t.sample(&mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "at least one outcome")]
    fn rejects_empty() {
        let _ = AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "must not all be zero")]
    fn rejects_all_zero() {
        let _ = AliasTable::new(&[0.0, 0.0]);
    }
}
