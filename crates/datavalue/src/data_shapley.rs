//! Data Shapley with Truncated Monte Carlo estimation
//! (Ghorbani & Zou, §2.3.1 \[24\]).
//!
//! TMC-Shapley makes the exponential exact computation practical: sample a
//! random permutation of the training points, walk it accumulating
//! marginal utility contributions, and **truncate** the walk once the
//! running utility is within a tolerance of the full-data utility (later
//! points then contribute ~0). Estimates are unbiased up to the truncation
//! tolerance and converge at the Monte-Carlo rate.

use crate::utility::{check_finite_values, Utility};
use xai_rand::rngs::StdRng;
use xai_rand::seq::SliceRandom;
use xai_rand::SeedableRng;
use xai_core::{catch_model, DataAttribution, SampleBudget, XaiError, XaiResult};

/// Configuration for [`tmc_shapley`].
#[derive(Clone, Copy, Debug)]
pub struct TmcConfig {
    /// Number of sampled permutations.
    pub permutations: usize,
    /// Truncate a walk when `|U(D) − U(prefix)| <` this tolerance.
    pub truncation_tolerance: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TmcConfig {
    fn default() -> Self {
        Self { permutations: 100, truncation_tolerance: 0.01, seed: 0 }
    }
}

/// Result of a TMC run.
#[derive(Clone, Debug)]
pub struct TmcResult {
    /// The Shapley value estimates.
    pub attribution: DataAttribution,
    /// Utility evaluations actually performed (the truncation savings show
    /// up here: without truncation this would be `permutations · n`).
    pub utility_calls: usize,
}

/// Runs TMC-Shapley.
///
/// # Panics
/// Panics when the utility panics or returns non-finite scores; use
/// [`try_tmc_shapley`] for typed errors.
pub fn tmc_shapley(utility: &dyn Utility, config: TmcConfig) -> TmcResult {
    try_tmc_shapley(utility, config).expect("TMC-Shapley failed; try_tmc_shapley recovers this")
}

/// Fallible twin of [`tmc_shapley`]: a utility that panics or returns
/// non-finite scores yields [`XaiError::ModelFault`] instead of unwinding
/// or leaking NaN into the estimate.
pub fn try_tmc_shapley(utility: &dyn Utility, config: TmcConfig) -> XaiResult<TmcResult> {
    try_tmc_shapley_budgeted(utility, config, SampleBudget::unlimited())
}

/// Rejects a configuration with no permutation walks; shared by both draw
/// layouts.
pub(crate) fn check_config(config: &TmcConfig) -> XaiResult<()> {
    if config.permutations == 0 {
        return Err(XaiError::Unsupported { context: "TMC needs permutations >= 1".into() });
    }
    Ok(())
}

/// Budget-aware fallible TMC-Shapley: stops drawing permutation walks
/// once `budget` is exhausted (metered in utility evaluations, including
/// the two endpoint evaluations) and returns the **best-effort partial
/// estimate** built from the walks that did complete — averaged over that
/// count. Fails with [`XaiError::BudgetExceeded`] only when the budget
/// expires before the first walk. With an eval cap the truncation point
/// is deterministic; with a wall-clock deadline it is machine-dependent.
pub fn try_tmc_shapley_budgeted(
    utility: &dyn Utility,
    config: TmcConfig,
    budget: SampleBudget,
) -> XaiResult<TmcResult> {
    check_config(&config)?;
    let n = utility.n_train();
    let all: Vec<usize> = (0..n).collect();
    let (full_score, empty_score) = catch_model("TMC endpoint evaluation", || {
        (utility.eval(&all), utility.eval(&[]))
    })?;
    if !full_score.is_finite() || !empty_score.is_finite() {
        return Err(XaiError::ModelFault {
            context: format!("TMC endpoints: U(D) = {full_score}, U(∅) = {empty_score}"),
        });
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut sums = vec![0.0; n];
    let mut calls = 2usize;
    let mut perm: Vec<usize> = (0..n).collect();
    let mut prefix: Vec<usize> = Vec::with_capacity(n);
    let mut meter = budget.start();
    meter.record(2);
    let mut done = 0usize;
    for _ in 0..config.permutations {
        if meter.exhausted() {
            break;
        }
        perm.shuffle(&mut rng);
        // Each point joins a walk at most once, so per-point marginals can
        // be collected under panic isolation and accumulated afterwards
        // without changing the floating-point result.
        let (marginals, walk_calls) = catch_model("TMC permutation walk", || {
            prefix.clear();
            let mut marg = vec![0.0; n];
            let mut walk_calls = 0usize;
            let mut prev = empty_score;
            for &point in &perm {
                // Truncation: once the prefix utility has converged to the
                // full-data utility, remaining marginals are ~0.
                if (full_score - prev).abs() < config.truncation_tolerance {
                    break;
                }
                prefix.push(point);
                let cur = utility.eval(&prefix);
                walk_calls += 1;
                marg[point] = cur - prev;
                prev = cur;
            }
            (marg, walk_calls)
        })?;
        check_finite_values(&marginals, "TMC permutation walk")?;
        for (point, &m) in marginals.iter().enumerate() {
            sums[point] += m;
        }
        calls += walk_calls;
        meter.record(walk_calls);
        done += 1;
    }
    if done == 0 {
        return Err(XaiError::BudgetExceeded {
            context: "TMC-Shapley: budget expired before the first permutation walk".into(),
            completed: 0,
        });
    }
    let m = done as f64;
    let values = sums.into_iter().map(|s| s / m).collect();
    Ok(TmcResult {
        attribution: DataAttribution { values, measure: "TMC data Shapley".into() },
        utility_calls: calls,
    })
}

/// Point-removal curve: remove training points in the given order,
/// re-evaluating the utility after each batch — the standard verification
/// plot from Ghorbani & Zou (high-value-first removal should degrade
/// performance fastest). Returns `(n_removed, utility)` pairs.
pub fn removal_curve(
    utility: &dyn Utility,
    order: &[usize],
    batch: usize,
) -> Vec<(usize, f64)> {
    let n = utility.n_train();
    assert!(batch >= 1);
    let mut removed = vec![false; n];
    let mut curve = Vec::new();
    let all: Vec<usize> = (0..n).collect();
    curve.push((0usize, utility.eval(&all)));
    let mut count = 0usize;
    for chunk in order.chunks(batch) {
        for &i in chunk {
            if !removed[i] {
                removed[i] = true;
                count += 1;
            }
        }
        let keep: Vec<usize> = (0..n).filter(|&i| !removed[i]).collect();
        curve.push((count, utility.eval(&keep)));
        if keep.is_empty() {
            break;
        }
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loo::exact_data_shapley;
    use crate::utility::{FnUtility, LogisticUtility};
    use xai_data::inject_label_noise;
    use xai_data::synth::linear_gaussian;
    use xai_models::LogisticConfig;

    #[test]
    fn converges_to_exact_on_a_small_game() {
        let u = FnUtility::new(6, |s: &[usize]| {
            let base: f64 = s.iter().map(|&i| (i + 1) as f64 * 0.1).sum();
            base + f64::from(s.contains(&0) && s.contains(&5)) * 0.5
        });
        let exact = exact_data_shapley(&u);
        let tmc = tmc_shapley(&u, TmcConfig { permutations: 3000, truncation_tolerance: 0.0, seed: 3 });
        for (a, b) in tmc.attribution.values.iter().zip(&exact.values) {
            assert!((a - b).abs() < 0.03, "{a} vs {b}");
        }
    }

    #[test]
    fn truncation_saves_calls_without_destroying_estimates() {
        let u = FnUtility::new(12, |s: &[usize]| 1.0 - 0.5f64.powi(s.len() as i32));
        let no_trunc = tmc_shapley(&u, TmcConfig { permutations: 150, truncation_tolerance: 0.0, seed: 5 });
        let trunc = tmc_shapley(&u, TmcConfig { permutations: 150, truncation_tolerance: 0.02, seed: 5 });
        assert!(
            trunc.utility_calls < no_trunc.utility_calls * 6 / 10,
            "truncation should cut calls substantially: {} vs {}",
            trunc.utility_calls,
            no_trunc.utility_calls
        );
        // Totals stay close (efficiency is preserved up to truncation).
        let sum_a: f64 = no_trunc.attribution.values.iter().sum();
        let sum_b: f64 = trunc.attribution.values.iter().sum();
        assert!((sum_a - sum_b).abs() < 0.1, "{sum_a} vs {sum_b}");
    }

    #[test]
    fn corrupted_labels_get_low_values() {
        let mut train = linear_gaussian(60, &[3.0, -2.0], 0.0, 21);
        let test = linear_gaussian(200, &[3.0, -2.0], 0.0, 22);
        let guilty = inject_label_noise(&mut train, 0.15, 7);
        let u = LogisticUtility::new(&train, &test, LogisticConfig::default());
        let tmc = tmc_shapley(&u, TmcConfig { permutations: 120, truncation_tolerance: 0.005, seed: 9 });
        let p_at_k = tmc.attribution.precision_at_k(&guilty, guilty.len());
        // Random guessing would score ~0.15; Shapley should do much better.
        assert!(p_at_k > 0.45, "precision@k = {p_at_k}");
    }

    #[test]
    fn removal_curve_shape() {
        let u = FnUtility::new(8, |s: &[usize]| s.iter().map(|&i| (i as f64 + 1.0) / 8.0).sum());
        // Remove most valuable first (descending index value).
        let order: Vec<usize> = (0..8).rev().collect();
        let curve = removal_curve(&u, &order, 2);
        assert_eq!(curve[0].0, 0);
        // Utility must be non-increasing for an additive monotone utility.
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12);
        }
        assert_eq!(curve.last().unwrap().0, 8);
    }

    #[test]
    fn deterministic_under_seed() {
        let u = FnUtility::new(6, |s: &[usize]| s.len() as f64);
        let a = tmc_shapley(&u, TmcConfig::default());
        let b = tmc_shapley(&u, TmcConfig::default());
        assert_eq!(a.attribution.values, b.attribution.values);
    }
}
