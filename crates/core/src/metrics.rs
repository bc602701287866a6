//! The paper's four evaluation metrics.
//!
//! * **MAE** — mean absolute error between estimated and ground-truth
//!   ranking scores;
//! * **MARE** — mean absolute *relative* error, `Σ|ŝᵢ − sᵢ| / Σ|sᵢ|`
//!   (the aggregate form; the per-item ratio form explodes when a ground
//!   truth is near zero, and the paper's reported MARE ≈ MAE / mean(s)
//!   matches the aggregate form);
//! * **Kendall τ** — rank correlation by concordant/discordant pairs
//!   (τ-b, tie-corrected);
//! * **Spearman ρ** — Pearson correlation of (average) ranks.
//!
//! τ and ρ are computed per ranking query (one trajectory's candidate set)
//! and averaged across queries; MAE/MARE pool all candidates.

/// Mean absolute error.
///
/// # Panics
/// If the slices differ in length or are empty.
pub fn mae(pred: &[f64], truth: &[f64]) -> f64 {
    check(pred, truth);
    let total: f64 = pred.iter().zip(truth).map(|(p, t)| (p - t).abs()).sum();
    total / pred.len() as f64
}

/// Mean absolute relative error, aggregate form `Σ|p−t| / Σ|t|`.
pub fn mare(pred: &[f64], truth: &[f64]) -> f64 {
    check(pred, truth);
    let err: f64 = pred.iter().zip(truth).map(|(p, t)| (p - t).abs()).sum();
    let mass: f64 = truth.iter().map(|t| t.abs()).sum();
    if mass == 0.0 {
        return if err == 0.0 { 0.0 } else { f64::INFINITY };
    }
    err / mass
}

/// Kendall rank correlation coefficient, tie-corrected (τ-b).
///
/// Returns 0 when either ranking is constant (no information).
pub fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    check(a, b);
    let n = a.len();
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    let mut ties_a = 0i64;
    let mut ties_b = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let da = a[i] - a[j];
            let db = b[i] - b[j];
            let ta = da == 0.0;
            let tb = db == 0.0;
            match (ta, tb) {
                (true, true) => {}
                (true, false) => ties_a += 1,
                (false, true) => ties_b += 1,
                (false, false) => {
                    if da.signum() == db.signum() {
                        concordant += 1;
                    } else {
                        discordant += 1;
                    }
                }
            }
        }
    }
    let n0 = (concordant + discordant + ties_a) as f64;
    let n1 = (concordant + discordant + ties_b) as f64;
    if n0 == 0.0 || n1 == 0.0 {
        return 0.0;
    }
    (concordant - discordant) as f64 / (n0 * n1).sqrt()
}

/// Average ranks (1-based), ties receive the mean of their rank range.
pub fn average_ranks(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| values[i].total_cmp(&values[j]));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        // Positions i..=j share the average rank.
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Spearman's rank correlation coefficient (Pearson correlation of average
/// ranks). Returns 0 when either side is constant.
pub fn spearman_rho(a: &[f64], b: &[f64]) -> f64 {
    check(a, b);
    let ra = average_ranks(a);
    let rb = average_ranks(b);
    pearson(&ra, &rb)
}

/// Pearson correlation; 0 when either side has zero variance.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    check(a, b);
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va * vb).sqrt()
}

/// Normalised discounted cumulative gain at cutoff `k`, using the ground
/// truth scores as graded relevance. 1.0 means the predicted order places
/// the most relevant candidates first; returns 1.0 for constant truth
/// (any order is ideal).
pub fn ndcg_at_k(pred: &[f64], truth: &[f64], k: usize) -> f64 {
    check(pred, truth);
    let k = k.min(pred.len());
    let dcg_of = |order: &[usize]| -> f64 {
        order
            .iter()
            .take(k)
            .enumerate()
            .map(|(rank, &i)| truth[i] / ((rank + 2) as f64).log2())
            .sum()
    };
    let mut by_pred: Vec<usize> = (0..pred.len()).collect();
    by_pred.sort_by(|&i, &j| pred[j].total_cmp(&pred[i]));
    let mut by_truth: Vec<usize> = (0..truth.len()).collect();
    by_truth.sort_by(|&i, &j| truth[j].total_cmp(&truth[i]));
    let ideal = dcg_of(&by_truth);
    if ideal == 0.0 {
        return 1.0;
    }
    dcg_of(&by_pred) / ideal
}

/// Whether the prediction's top-ranked candidate is (one of) the truth's
/// top-ranked candidates. Averaged over queries this is the "hit@1" rate —
/// the probability that the system's first suggestion is the path the
/// driver actually prefers.
pub fn top1_hit(pred: &[f64], truth: &[f64]) -> bool {
    check(pred, truth);
    let best_pred = pred
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("non-empty");
    let best_truth = truth.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    truth[best_pred] == best_truth
}

fn check(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "metric inputs must have equal length");
    assert!(!a.is_empty(), "metric inputs must be non-empty");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mae_known_values() {
        assert_eq!(mae(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]), 0.0);
        assert!((mae(&[1.0, 2.0], &[2.0, 4.0]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn mare_known_values() {
        // Σ|p−t| = 3, Σ|t| = 6 → 0.5.
        assert!((mare(&[1.0, 2.0], &[2.0, 4.0]) - 0.5).abs() < 1e-12);
        assert_eq!(mare(&[0.0], &[0.0]), 0.0);
        assert_eq!(mare(&[1.0], &[0.0]), f64::INFINITY);
    }

    #[test]
    fn kendall_perfect_and_reversed() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert!((kendall_tau(&a, &b) - 1.0).abs() < 1e-12);
        let rev = [40.0, 30.0, 20.0, 10.0];
        assert!((kendall_tau(&a, &rev) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn kendall_known_mixed_case() {
        // a = [1,2,3], b = [1,3,2]: pairs (1,2)+, (1,3)+, (2,3)-: tau = 1/3.
        let tau = kendall_tau(&[1.0, 2.0, 3.0], &[1.0, 3.0, 2.0]);
        assert!((tau - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn kendall_with_ties_matches_tau_b() {
        // scipy.stats.kendalltau([1,2,2,3], [1,2,3,4]) = 0.9128709291752769
        let tau = kendall_tau(&[1.0, 2.0, 2.0, 3.0], &[1.0, 2.0, 3.0, 4.0]);
        assert!((tau - 0.912_870_929_175_276_9).abs() < 1e-12, "got {tau}");
    }

    #[test]
    fn kendall_constant_input_is_zero() {
        assert_eq!(kendall_tau(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn average_ranks_with_ties() {
        // values 10, 20, 20, 30 -> ranks 1, 2.5, 2.5, 4.
        assert_eq!(
            average_ranks(&[10.0, 20.0, 20.0, 30.0]),
            vec![1.0, 2.5, 2.5, 4.0]
        );
        // Reversed order is handled through sorting.
        assert_eq!(average_ranks(&[30.0, 10.0]), vec![2.0, 1.0]);
    }

    #[test]
    fn spearman_perfect_monotone() {
        // Any monotone transform gives rho = 1.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [1.0, 4.0, 9.0, 16.0, 25.0];
        assert!((spearman_rho(&a, &b) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = b.iter().map(|x| -x).collect();
        assert!((spearman_rho(&a, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_with_ties_matches_reference() {
        // Ranks of [1,2,2,3] are [1, 2.5, 2.5, 4]; Pearson against
        // [1,2,3,4] gives 4.5/√(4.5·5) = 0.9486832980505138 (scipy agrees).
        let rho = spearman_rho(&[1.0, 2.0, 2.0, 3.0], &[1.0, 2.0, 3.0, 4.0]);
        assert!((rho - 0.948_683_298_050_513_8).abs() < 1e-12, "got {rho}");
    }

    #[test]
    fn spearman_constant_is_zero() {
        assert_eq!(spearman_rho(&[5.0, 5.0, 5.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn pearson_linearity() {
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 4.0, 6.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ndcg_perfect_and_inverted() {
        let truth = [0.1, 0.5, 1.0, 0.3];
        assert!((ndcg_at_k(&truth, &truth, 4) - 1.0).abs() < 1e-12);
        // Inverted ranking is strictly worse but still positive (all
        // relevances are positive).
        let inverted: Vec<f64> = truth.iter().map(|x| -x).collect();
        let n = ndcg_at_k(&inverted, &truth, 4);
        assert!(n < 1.0 && n > 0.0, "got {n}");
    }

    #[test]
    fn ndcg_known_value_at_cutoff_one() {
        // Prediction puts item 0 (truth 0.5) first; ideal puts item 1
        // (truth 1.0) first. NDCG@1 = 0.5 / 1.0.
        let pred = [0.9, 0.1];
        let truth = [0.5, 1.0];
        assert!((ndcg_at_k(&pred, &truth, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ndcg_constant_truth_is_one() {
        assert_eq!(ndcg_at_k(&[3.0, 2.0, 1.0], &[0.0, 0.0, 0.0], 3), 1.0);
    }

    #[test]
    fn top1_hit_cases() {
        assert!(top1_hit(&[0.9, 0.1], &[1.0, 0.2]));
        assert!(!top1_hit(&[0.1, 0.9], &[1.0, 0.2]));
        // Ties in truth: picking either top is a hit.
        assert!(top1_hit(&[0.9, 0.8], &[1.0, 1.0]));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn rejects_mismatched_lengths() {
        let _ = mae(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty() {
        let _ = kendall_tau(&[], &[]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pathrank_testkit::prelude::*;

    fn finite_vec() -> impl Strategy<Value = Vec<f64>> {
        pathrank_testkit::collection::vec(-100.0f64..100.0, 2..20)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn correlations_are_bounded(a in finite_vec(), b in finite_vec()) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            for v in [kendall_tau(a, b), spearman_rho(a, b), pearson(a, b)] {
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&v), "out of range: {v}");
            }
        }

        #[test]
        fn self_correlation_is_one_without_full_ties(a in finite_vec()) {
            // Constant vectors are the degenerate zero case by convention.
            let distinct = a.iter().any(|&x| x != a[0]);
            let tau = kendall_tau(&a, &a);
            let rho = spearman_rho(&a, &a);
            if distinct {
                prop_assert!((tau - 1.0).abs() < 1e-9, "tau {tau}");
                prop_assert!((rho - 1.0).abs() < 1e-9, "rho {rho}");
            } else {
                prop_assert_eq!(tau, 0.0);
                prop_assert_eq!(rho, 0.0);
            }
        }

        #[test]
        fn negation_flips_correlations(a in finite_vec()) {
            prop_assume!(a.iter().any(|&x| x != a[0]));
            let neg: Vec<f64> = a.iter().map(|x| -x).collect();
            prop_assert!((kendall_tau(&a, &neg) + 1.0).abs() < 1e-9);
            prop_assert!((spearman_rho(&a, &neg) + 1.0).abs() < 1e-9);
        }

        #[test]
        fn spearman_invariant_under_monotone_transform(a in finite_vec(), b in finite_vec()) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            // exp is strictly monotone: ranks unchanged.
            let ea: Vec<f64> = a.iter().map(|x| (x / 50.0).exp()).collect();
            let before = spearman_rho(a, b);
            let after = spearman_rho(&ea, b);
            prop_assert!((before - after).abs() < 1e-6, "{before} vs {after}");
            let t_before = kendall_tau(a, b);
            let t_after = kendall_tau(&ea, b);
            prop_assert!((t_before - t_after).abs() < 1e-9);
        }

        #[test]
        fn average_ranks_sum_is_invariant(a in finite_vec()) {
            // Σ ranks = n(n+1)/2 regardless of ties.
            let ranks = average_ranks(&a);
            let n = a.len() as f64;
            let sum: f64 = ranks.iter().sum();
            prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-9);
            // Ranks are within [1, n].
            prop_assert!(ranks.iter().all(|&r| (1.0..=n).contains(&r)));
        }

        #[test]
        fn mae_and_mare_properties(a in finite_vec()) {
            // MAE(x, x) = 0 and MARE(x, x) = 0.
            prop_assert_eq!(mae(&a, &a), 0.0);
            prop_assert_eq!(mare(&a, &a), 0.0);
            // Shifting predictions by +c gives MAE exactly c.
            let shifted: Vec<f64> = a.iter().map(|x| x + 2.5).collect();
            prop_assert!((mae(&shifted, &a) - 2.5).abs() < 1e-9);
        }

        #[test]
        fn ndcg_bounded_and_perfect_on_truth(a in finite_vec()) {
            let nonneg: Vec<f64> = a.iter().map(|x| x.abs()).collect();
            let v = ndcg_at_k(&nonneg, &nonneg, nonneg.len());
            prop_assert!((v - 1.0).abs() < 1e-9, "self NDCG {v}");
        }
    }
}
