//! Data Banzhaf valuation.
//!
//! The tutorial's §2.3.1 discussion notes that the assigned values depend
//! on the learning algorithm's *stability*; when the utility is noisy
//! (stochastic training), Shapley's size-dependent weights amplify the
//! noise of small-coalition evaluations. The Banzhaf value weights every
//! coalition equally — `β_i = E_{S ~ Uniform(2^{N∖i})} [U(S∪i) − U(S)]` —
//! which is the maximally noise-robust semivalue (Wang & Jia 2023 make
//! this precise; the trade-off is losing the efficiency axiom, cf.
//! `xai-shapley::exact_banzhaf`). Experiment E26 measures the robustness
//! gap.

use crate::utility::{check_finite_values, Utility};
use xai_rand::rngs::StdRng;
use xai_rand::{Rng, SeedableRng};
use xai_core::{catch_model, DataAttribution, SampleBudget, XaiError, XaiResult};

/// Configuration for [`data_banzhaf`].
#[derive(Clone, Copy, Debug)]
pub struct BanzhafConfig {
    /// Monte-Carlo coalition draws per training point.
    pub samples_per_point: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BanzhafConfig {
    fn default() -> Self {
        Self { samples_per_point: 100, seed: 0 }
    }
}

/// Monte-Carlo data Banzhaf values: each draw includes every other point
/// independently with probability ½ (paired with-and-without evaluation).
///
/// # Panics
/// Panics when the utility panics or returns non-finite scores, or when
/// `samples_per_point == 0`; use [`try_data_banzhaf`] for typed errors.
pub fn data_banzhaf(utility: &dyn Utility, config: BanzhafConfig) -> DataAttribution {
    try_data_banzhaf(utility, config).expect("data Banzhaf failed; try_data_banzhaf recovers this")
}

/// Fallible twin of [`data_banzhaf`]: a utility that panics or returns
/// non-finite scores yields [`xai_core::XaiError::ModelFault`] instead of
/// unwinding or leaking NaN values; `samples_per_point == 0` is
/// [`XaiError::Unsupported`].
pub fn try_data_banzhaf(utility: &dyn Utility, config: BanzhafConfig) -> XaiResult<DataAttribution> {
    try_data_banzhaf_budgeted(utility, config, SampleBudget::unlimited())
}

/// Rejects a configuration with no draws per point; shared by both draw
/// layouts.
pub(crate) fn check_config(config: &BanzhafConfig) -> XaiResult<()> {
    if config.samples_per_point == 0 {
        return Err(XaiError::Unsupported {
            context: "data Banzhaf needs samples_per_point >= 1".into(),
        });
    }
    Ok(())
}

/// Budget-aware fallible data Banzhaf: stops drawing coalitions once
/// `budget` is exhausted (metered in utility evaluations — each draw is a
/// paired with-and-without evaluation, so it records 2) and returns the
/// **best-effort partial estimate**: every point averages over the draws
/// it completed, and points the budget never reached are valued `0.0`
/// with the measure flagged `budget-truncated`. Fails with
/// [`XaiError::BudgetExceeded`] only when the budget expires before the
/// first draw. This is the one-stream sequential layout: [`data_banzhaf`]
/// and [`try_data_banzhaf`] run it with an unlimited budget. With an eval
/// cap the truncation point is deterministic; with a wall-clock deadline
/// it is machine-dependent.
pub fn try_data_banzhaf_budgeted(
    utility: &dyn Utility,
    config: BanzhafConfig,
    budget: SampleBudget,
) -> XaiResult<DataAttribution> {
    check_config(&config)?;
    let n = utility.n_train();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut values = vec![0.0; n];
    let mut base: Vec<usize> = Vec::with_capacity(n);
    let mut meter = budget.start();
    let mut total_draws = 0usize;
    let mut truncated = false;
    for (i, value) in values.iter_mut().enumerate() {
        let mut acc = 0.0;
        let mut done = 0usize;
        for _ in 0..config.samples_per_point {
            if meter.exhausted() {
                truncated = true;
                break;
            }
            // One draw: the membership coin flips, then the paired
            // with-and-without evaluations — drawn and accumulated in
            // data_banzhaf's exact order, under panic isolation.
            let delta = catch_model("data Banzhaf coalition evaluation", || {
                base.clear();
                for j in 0..n {
                    if j != i && rng.gen::<bool>() {
                        base.push(j);
                    }
                }
                let without = utility.eval(&base);
                base.push(i);
                let with = utility.eval(&base);
                with - without
            })?;
            meter.record(2);
            acc += delta;
            done += 1;
        }
        if done > 0 {
            *value = acc / done as f64;
        }
        total_draws += done;
    }
    if total_draws == 0 {
        return Err(XaiError::BudgetExceeded {
            context: "data Banzhaf: budget expired before the first coalition draw".into(),
            completed: 0,
        });
    }
    let measure = if truncated {
        "data Banzhaf (MC, budget-truncated)".into()
    } else {
        "data Banzhaf (MC)".into()
    };
    let att = DataAttribution { values, measure };
    check_finite_values(&att.values, "data Banzhaf")?;
    Ok(att)
}

/// Exact data Banzhaf by subset enumeration (tiny `n` only).
pub fn exact_data_banzhaf(utility: &dyn Utility) -> DataAttribution {
    let n = utility.n_train();
    assert!(n <= 16, "exact Banzhaf enumerates 2^{n} subsets");
    let size = 1usize << n;
    let mut table = Vec::with_capacity(size);
    let mut buf = Vec::with_capacity(n);
    for mask in 0..size {
        buf.clear();
        for i in 0..n {
            if mask & (1 << i) != 0 {
                buf.push(i);
            }
        }
        table.push(utility.eval(&buf));
    }
    let denom = (size >> 1) as f64;
    let mut values = vec![0.0; n];
    for mask in 0..size {
        for (i, value) in values.iter_mut().enumerate() {
            if mask & (1 << i) == 0 {
                *value += (table[mask | (1 << i)] - table[mask]) / denom;
            }
        }
    }
    DataAttribution { values, measure: "exact data Banzhaf".into() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loo::exact_data_shapley;
    use crate::utility::{FnUtility, Utility};
    use xai_linalg::stats::{spearman, top_k_agreement};

    #[test]
    fn additive_utilities_make_banzhaf_equal_shapley() {
        let u = FnUtility::new(6, |s: &[usize]| s.iter().map(|&i| (i + 1) as f64).sum());
        let banzhaf = exact_data_banzhaf(&u);
        let shapley = exact_data_shapley(&u);
        for (a, b) in banzhaf.values.iter().zip(&shapley.values) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn mc_converges_to_exact() {
        let u = FnUtility::new(7, |s: &[usize]| {
            (s.len() as f64).sqrt() + f64::from(s.contains(&2) && s.contains(&5)) * 0.4
        });
        let exact = exact_data_banzhaf(&u);
        let mc = data_banzhaf(&u, BanzhafConfig { samples_per_point: 3000, seed: 3 });
        for (a, b) in mc.values.iter().zip(&exact.values) {
            assert!((a - b).abs() < 0.02, "{a} vs {b}");
        }
    }

    #[test]
    fn banzhaf_ranking_is_more_robust_to_utility_noise() {
        // A strongly non-additive utility evaluated under additive noise:
        // the Banzhaf ranking should drift less from its clean version
        // than the Shapley ranking does (E26's claim).
        use xai_rand::rngs::StdRng;
        use xai_rand::{Rng, SeedableRng};
        use std::cell::RefCell;
        let n = 8;
        let clean = |s: &[usize]| -> f64 {
            s.iter().map(|&i| (i + 1) as f64 / 8.0).sum::<f64>()
                + f64::from(s.contains(&0) && s.contains(&7)) * 0.3
        };
        let u_clean = FnUtility::new(n, clean);
        let shap_clean = exact_data_shapley(&u_clean);
        let banz_clean = exact_data_banzhaf(&u_clean);

        let mut shap_agreements = 0.0;
        let mut banz_agreements = 0.0;
        let trials = 12;
        for t in 0..trials {
            let rng = RefCell::new(StdRng::seed_from_u64(1000 + t));
            let noisy = FnUtility::new(n, |s: &[usize]| {
                clean(s) + (rng.borrow_mut().gen::<f64>() - 0.5) * 0.6
            });
            let shap_noisy = exact_data_shapley(&noisy);
            let banz_noisy = exact_data_banzhaf(&noisy);
            shap_agreements += spearman(&shap_clean.values, &shap_noisy.values);
            banz_agreements += spearman(&banz_clean.values, &banz_noisy.values);
        }
        assert!(
            banz_agreements >= shap_agreements - 0.5,
            "banzhaf should be at least as noise-robust: {banz_agreements} vs {shap_agreements}"
        );
        let _ = top_k_agreement(&banz_clean.values, &shap_clean.values, 3);
    }

    #[test]
    fn unlimited_budget_is_bit_identical_to_the_unbudgeted_twin() {
        let u = FnUtility::new(5, |s: &[usize]| {
            (s.len() as f64).sqrt() + f64::from(s.contains(&1)) * 0.25
        });
        let config = BanzhafConfig { samples_per_point: 40, seed: 17 };
        let plain = try_data_banzhaf(&u, config).unwrap();
        let budgeted =
            try_data_banzhaf_budgeted(&u, config, xai_core::SampleBudget::unlimited()).unwrap();
        assert_eq!(plain.values, budgeted.values);
        assert_eq!(budgeted.measure, "data Banzhaf (MC)");
    }

    #[test]
    fn eval_cap_truncates_deterministically_and_flags_the_measure() {
        let u = FnUtility::new(4, |s: &[usize]| s.len() as f64);
        let config = BanzhafConfig { samples_per_point: 10, seed: 5 };
        // 4 points × 10 draws × 2 evals = 80 evals unbudgeted. A 24-eval
        // cap admits 12 draws: point 0 completes 10, point 1 completes 2,
        // points 2 and 3 are never reached and value 0.0.
        let capped =
            try_data_banzhaf_budgeted(&u, config, xai_core::SampleBudget::with_max_evals(24))
                .unwrap();
        assert_eq!(capped.measure, "data Banzhaf (MC, budget-truncated)");
        assert_ne!(capped.values[0], 0.0);
        assert_ne!(capped.values[1], 0.0);
        assert_eq!(&capped.values[2..], &[0.0, 0.0]);
        // For this additive utility every marginal is exactly 1.
        assert_eq!(capped.values[0], 1.0);
        assert_eq!(capped.values[1], 1.0);
        // Determinism: the same cap truncates at the same point.
        let again =
            try_data_banzhaf_budgeted(&u, config, xai_core::SampleBudget::with_max_evals(24))
                .unwrap();
        assert_eq!(capped.values, again.values);

        // A budget that admits no draw at all is a typed error.
        let starved =
            try_data_banzhaf_budgeted(&u, config, xai_core::SampleBudget::with_max_evals(0));
        assert!(matches!(
            starved,
            Err(xai_core::XaiError::BudgetExceeded { completed: 0, .. })
        ));
    }

    #[test]
    fn banzhaf_violates_efficiency_on_nonadditive_games() {
        let u = FnUtility::new(3, |s: &[usize]| f64::from(s.len() >= 2));
        let banzhaf = exact_data_banzhaf(&u);
        let all: Vec<usize> = (0..3).collect();
        let target = u.eval(&all) - u.eval(&[]);
        let total: f64 = banzhaf.values.iter().sum();
        assert!((total - target).abs() > 0.1, "majority game exposes the violation: {total}");
    }
}
