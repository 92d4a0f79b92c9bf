//! Conditional (on-manifold) expectation games: the observational side of
//! the conditioning debate.
//!
//! Kernel SHAP's marginal game `E[f(x_S, X_{\bar S})]` breaks feature
//! correlations — it evaluates the model on Frankenstein rows that never
//! occur (§2.1.2's critique via \[40\], §2.1.3's motivation for causal
//! variants). The *conditional* game `E[f(X) | X_S ≈ x_S]` stays on the
//! data manifold by averaging over the background rows whose coalition
//! features are **close to the instance's** (an empirical k-NN
//! conditional, the standard non-parametric estimator).
//!
//! The signature behaviour — asserted in tests and experiment E33 —
//! is that correlated-but-model-unused features receive credit under
//! conditional semantics (they proxy for their used neighbours) and zero
//! under marginal semantics.

use crate::game::CooperativeGame;
use xai_linalg::Matrix;

/// The empirical-conditional game.
pub struct ConditionalGame<'a> {
    model: &'a dyn Fn(&[f64]) -> f64,
    instance: &'a [f64],
    background: &'a Matrix,
    /// Per-feature scales for the conditioning distance.
    scales: Vec<f64>,
    /// Neighbours averaged per coalition.
    k: usize,
}

impl<'a> ConditionalGame<'a> {
    /// Builds the game; `k` is the number of nearest background rows
    /// averaged per coalition (the conditional sample).
    pub fn new(
        model: &'a dyn Fn(&[f64]) -> f64,
        instance: &'a [f64],
        background: &'a Matrix,
        k: usize,
    ) -> Self {
        assert!(background.rows() >= k && k >= 1);
        assert_eq!(background.cols(), instance.len());
        let scales = (0..background.cols())
            .map(|j| {
                let s = xai_linalg::stats::std_dev(&background.col(j));
                if s > 1e-9 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Self { model, instance, background, scales, k }
    }
}

impl CooperativeGame for ConditionalGame<'_> {
    fn n_players(&self) -> usize {
        self.instance.len()
    }

    fn value(&self, coalition: &[bool]) -> f64 {
        assert_eq!(coalition.len(), self.n_players());
        let members: Vec<usize> = (0..coalition.len()).filter(|&j| coalition[j]).collect();
        if members.is_empty() {
            // E[f(X)] over the full background.
            let total: f64 = (0..self.background.rows())
                .map(|i| (self.model)(self.background.row(i)))
                .sum();
            return total / self.background.rows() as f64;
        }
        // k nearest background rows in the coalition's subspace.
        let mut order: Vec<usize> = (0..self.background.rows()).collect();
        let dist = |i: usize| -> f64 {
            members
                .iter()
                .map(|&j| {
                    let d = (self.background[(i, j)] - self.instance[j]) / self.scales[j];
                    d * d
                })
                .sum()
        };
        order.sort_by(|&a, &b| dist(a).partial_cmp(&dist(b)).expect("NaN distance").then(a.cmp(&b)));
        // Average the model over the conditional neighbours, with the
        // coalition features pinned to the instance (pure conditioning
        // would leave them as-is; pinning removes residual mismatch).
        let mut probe = vec![0.0; self.instance.len()];
        let mut total = 0.0;
        for &i in order.iter().take(self.k) {
            probe.copy_from_slice(self.background.row(i));
            for &j in &members {
                probe[j] = self.instance[j];
            }
            total += (self.model)(&probe);
        }
        total / self.k as f64
    }
}

impl crate::batch::BatchGame for ConditionalGame<'_> {}

/// Exact conditional Shapley values (coalition enumeration).
pub fn conditional_shapley(
    model: &dyn Fn(&[f64]) -> f64,
    instance: &[f64],
    background: &Matrix,
    k: usize,
) -> Vec<f64> {
    crate::exact::exact_shapley(&ConditionalGame::new(model, instance, background, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_shapley;
    use crate::game::PredictionGame;
    use xai_data::synth::correlated_gaussian;

    /// Model reads only x0; x1 is strongly correlated with x0; x2 weakly.
    fn setup() -> (xai_data::Dataset, impl Fn(&[f64]) -> f64) {
        let data = correlated_gaussian(1500, &[2.0, 0.0, 0.0], 0.85, 0.0, 7);
        (data, |x: &[f64]| x[0])
    }

    #[test]
    fn correlated_proxy_gets_credit_conditionally_but_not_marginally() {
        let (data, model) = setup();
        // An instance with clearly positive x0 (and, by correlation, x1).
        let idx = (0..data.n_rows()).find(|&i| data.row(i)[0] > 1.5 && data.row(i)[1] > 1.0).unwrap();
        let instance = data.row(idx);
        let background = data.x().select_rows(&(0..400).collect::<Vec<_>>());

        let marginal = exact_shapley(&PredictionGame::new(&model, instance, &background));
        let conditional = conditional_shapley(&model, instance, &background, 25);

        // Marginal: all credit on x0, none on the proxy.
        assert!(marginal[1].abs() < 1e-9, "marginal proxy credit {}", marginal[1]);
        // Conditional: the proxy earns real credit.
        assert!(
            conditional[1] > 0.1,
            "conditional proxy credit {} (x0 gets {})",
            conditional[1],
            conditional[0]
        );
        // And x0 still earns the most.
        assert!(conditional[0] > conditional[1]);
    }

    #[test]
    fn efficiency_holds_for_the_conditional_game() {
        let (data, model) = setup();
        let instance = data.row(3);
        let background = data.x().select_rows(&(0..300).collect::<Vec<_>>());
        let game = ConditionalGame::new(&model, instance, &background, 20);
        let phi = conditional_shapley(&model, instance, &background, 20);
        let gap = phi.iter().sum::<f64>() - (game.grand_value() - game.empty_value());
        assert!(gap.abs() < 1e-9, "efficiency gap {gap}");
    }

    #[test]
    fn grand_coalition_recovers_the_prediction() {
        let (data, model) = setup();
        let instance = data.row(5);
        let background = data.x().select_rows(&(0..200).collect::<Vec<_>>());
        let game = ConditionalGame::new(&model, instance, &background, 10);
        assert!((game.grand_value() - model(instance)).abs() < 1e-9);
    }

    #[test]
    fn independent_features_make_conditional_equal_marginal() {
        let data = correlated_gaussian(2000, &[1.5, -1.0, 0.5], 0.0, 0.0, 9);
        let model = |x: &[f64]| 1.5 * x[0] - 1.0 * x[1] + 0.5 * x[2];
        let instance = data.row(11);
        let background = data.x().select_rows(&(0..600).collect::<Vec<_>>());
        let marginal = exact_shapley(&PredictionGame::new(&model, instance, &background));
        // Large k washes out neighbour noise under independence.
        let conditional = conditional_shapley(&model, instance, &background, 300);
        for (m, c) in marginal.iter().zip(&conditional) {
            assert!((m - c).abs() < 0.2, "marginal {m} vs conditional {c}");
        }
    }
}
