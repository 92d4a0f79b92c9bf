//! Causal Shapley values (Heskes et al., §2.1.3 \[30\]).
//!
//! The marginal-expectation game of Kernel SHAP breaks feature
//! correlations: conditioning on a coalition by *replacement* ignores what
//! setting those features would do to the rest of the world. Causal Shapley
//! values replace the game with the **interventional** value
//! `v(S) = E[f(X) | do(X_S = x_S)]` computed on a structural causal model,
//! so downstream features respond to the intervention while upstream ones
//! do not. All Shapley axioms (including symmetry) are kept; only the game
//! changes.

use crate::game::CooperativeGame;
use xai_rand::rngs::StdRng;
use xai_rand::SeedableRng;
use xai_data::scm::{Intervention, LabeledScm};

/// The interventional game over an SCM's feature nodes.
///
/// Uses common random numbers: one pool of exogenous-noise draws is shared
/// by every coalition evaluation, so coalition values are smooth in `S` and
/// the exact-Shapley combination is internally consistent.
pub struct CausalGame<'a> {
    model: &'a dyn Fn(&[f64]) -> f64,
    labeled: &'a LabeledScm,
    instance: &'a [f64],
    noise_pool: Vec<Vec<f64>>,
}

impl<'a> CausalGame<'a> {
    /// Builds the game with `n_samples` Monte-Carlo noise draws.
    pub fn new(
        model: &'a dyn Fn(&[f64]) -> f64,
        labeled: &'a LabeledScm,
        instance: &'a [f64],
        n_samples: usize,
        seed: u64,
    ) -> Self {
        assert_eq!(
            instance.len(),
            labeled.feature_nodes.len(),
            "instance arity must match the SCM's feature count"
        );
        assert!(n_samples > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let noise_pool = (0..n_samples).map(|_| labeled.scm.sample_noise(&mut rng)).collect();
        Self { model, labeled, instance, noise_pool }
    }
}

impl CooperativeGame for CausalGame<'_> {
    fn n_players(&self) -> usize {
        self.instance.len()
    }

    fn value(&self, coalition: &[bool]) -> f64 {
        assert_eq!(coalition.len(), self.n_players());
        let interventions: Vec<Intervention> = coalition
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(f, _)| Intervention {
                node: self.labeled.feature_nodes[f],
                value: self.instance[f],
            })
            .collect();
        let mut total = 0.0;
        let mut features = vec![0.0; self.instance.len()];
        for noise in &self.noise_pool {
            let world = self.labeled.scm.evaluate(noise, &interventions);
            for (slot, &node) in features.iter_mut().zip(&self.labeled.feature_nodes) {
                *slot = world[node];
            }
            total += (self.model)(&features);
        }
        total / self.noise_pool.len() as f64
    }
}

impl crate::batch::BatchGame for CausalGame<'_> {}

/// Exact causal Shapley values (enumeration over feature coalitions).
pub fn causal_shapley(
    model: &dyn Fn(&[f64]) -> f64,
    labeled: &LabeledScm,
    instance: &[f64],
    n_samples: usize,
    seed: u64,
) -> Vec<f64> {
    let game = CausalGame::new(model, labeled, instance, n_samples, seed);
    crate::exact::exact_shapley(&game)
}

/// Total, direct and (by subtraction) indirect effects per feature.
#[derive(Clone, Debug)]
pub struct EffectDecomposition {
    /// `E[f | do(X_i = x_i)] − E[f]`: the feature's full interventional
    /// effect, mediation included.
    pub total: Vec<f64>,
    /// The effect with mediators frozen at their natural values: the model
    /// input's `i`-th slot is set to `x_i` but the world is *not*
    /// re-propagated.
    pub direct: Vec<f64>,
    /// `total − direct`: what flows through causal descendants.
    pub indirect: Vec<f64>,
}

/// Decomposes each feature's singleton effect into direct and indirect
/// parts (the split causal Shapley values are designed to expose, §2.1.3).
pub fn effect_decomposition(
    model: &dyn Fn(&[f64]) -> f64,
    labeled: &LabeledScm,
    instance: &[f64],
    n_samples: usize,
    seed: u64,
) -> EffectDecomposition {
    let game = CausalGame::new(model, labeled, instance, n_samples, seed);
    let base = game.empty_value();
    let n = instance.len();
    let mut total = Vec::with_capacity(n);
    let mut direct = Vec::with_capacity(n);
    for i in 0..n {
        let mut coalition = vec![false; n];
        coalition[i] = true;
        total.push(game.value(&coalition) - base);

        // Direct effect: worlds evolve naturally (no intervention), but the
        // model sees x_i in slot i — mediation is blocked at the model
        // boundary.
        let mut acc = 0.0;
        let mut features = vec![0.0; n];
        for noise in &game.noise_pool {
            let world = labeled.scm.evaluate(noise, &[]);
            for (slot, &node) in features.iter_mut().zip(&labeled.feature_nodes) {
                *slot = world[node];
            }
            features[i] = instance[i];
            acc += model(&features);
        }
        direct.push(acc / game.noise_pool.len() as f64 - base);
    }
    let indirect = total.iter().zip(&direct).map(|(t, d)| t - d).collect();
    EffectDecomposition { total, direct, indirect }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_shapley;
    use crate::game::PredictionGame;
    use xai_data::synth::credit_scm;
    use xai_linalg::Matrix;

    /// Model that looks only at savings (feature 2 of the credit SCM).
    fn savings_only() -> impl Fn(&[f64]) -> f64 {
        |x: &[f64]| x[2]
    }

    #[test]
    fn efficiency_with_common_random_numbers() {
        let labeled = credit_scm();
        let model = savings_only();
        let instance = [14.0, 6.0, 5.0];
        let phi = causal_shapley(&model, &labeled, &instance, 400, 3);
        let game = CausalGame::new(&model, &labeled, &instance, 400, 3);
        let gap = phi.iter().sum::<f64>() - (game.grand_value() - game.empty_value());
        assert!(gap.abs() < 1e-10, "efficiency gap {gap}");
    }

    #[test]
    fn upstream_feature_gets_causal_credit_marginal_gives_none() {
        // The model reads only savings; education influences savings only
        // through the causal chain. Causal Shapley credits education;
        // the marginal (replacement) game gives it nothing.
        let labeled = credit_scm();
        let model = savings_only();
        let instance = [16.0, 7.5, 7.0]; // high education, high savings
        let causal = causal_shapley(&model, &labeled, &instance, 1500, 5);
        assert!(
            causal[0] > 0.3,
            "education must receive causal credit, got {}",
            causal[0]
        );

        // Marginal game on an SCM-sampled background.
        let mut rng = xai_rand::rngs::StdRng::seed_from_u64(9);
        let (xs, _) = labeled.sample_examples(&mut rng, 300);
        let background = Matrix::from_rows(&xs);
        let mgame = PredictionGame::new(&model, &instance, &background);
        let marginal = exact_shapley(&mgame);
        assert!(
            marginal[0].abs() < 1e-9,
            "marginal Shapley cannot see the indirect path, got {}",
            marginal[0]
        );
    }

    #[test]
    fn effect_decomposition_splits_education() {
        let labeled = credit_scm();
        let model = savings_only();
        let instance = [16.0, 7.5, 7.0];
        let dec = effect_decomposition(&model, &labeled, &instance, 1500, 7);
        // Education's effect on a savings-only model is purely indirect.
        assert!(dec.direct[0].abs() < 0.05, "direct education effect {}", dec.direct[0]);
        assert!(dec.indirect[0] > 0.3, "indirect education effect {}", dec.indirect[0]);
        // Savings' effect is purely direct (it has no descendants among features).
        assert!((dec.total[2] - dec.direct[2]).abs() < 0.05);
        // total = direct + indirect by construction.
        for i in 0..3 {
            assert!((dec.total[i] - dec.direct[i] - dec.indirect[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn intervening_downstream_does_not_move_upstream() {
        let labeled = credit_scm();
        // Model reads education only.
        let model = |x: &[f64]| x[0];
        let instance = [10.0, 2.0, 1.0];
        let game = CausalGame::new(&model, &labeled, &instance, 500, 11);
        // do(savings) cannot change education.
        let v_savings = game.value(&[false, false, true]);
        let v_empty = game.empty_value();
        assert!((v_savings - v_empty).abs() < 1e-9);
        // do(education) pins it exactly.
        let v_edu = game.value(&[true, false, false]);
        assert!((v_edu - 10.0).abs() < 1e-9);
    }
}
