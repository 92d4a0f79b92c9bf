//! Golden-oracle tests: a linear model over an independent-feature
//! background has a closed-form Shapley value,
//! `φ_i = w_i · (x_i − mean_i)`, where `mean_i` is the background mean of
//! feature `i`. Every estimator in the crate must reproduce it — the
//! enumerating oracle exactly, Kernel SHAP on a full coalition budget to
//! 1e-10, and the batched games bit-identically to the scalar game.

use xai_core::memo::{CoalitionMemo, GameKey};
use xai_linalg::Matrix;
use xai_models::{batch_regress_fn, regress_fn, LinearRegression};
use xai_shapley::{
    exact_shapley, kernel_shap, BatchPredictionGame, KernelShapConfig, MemoGame, PredictionGame,
};

const N: usize = 8;

fn fixture() -> (LinearRegression, Vec<f64>, Matrix) {
    let coef: Vec<f64> = (0..N).map(|j| (j as f64 - 3.0) * 0.7 + 0.1).collect();
    let model = LinearRegression::from_parameters(-0.25, coef);
    let instance: Vec<f64> = (0..N).map(|j| (j as f64 * 0.9).sin() * 2.0 + 0.3).collect();
    let background = Matrix::from_fn(6, N, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.4 - 2.0);
    (model, instance, background)
}

/// `φ_i = w_i (x_i − mean_i)` for a linear model: the game is additive, so
/// each player's value is its singleton marginal.
fn closed_form(model: &LinearRegression, instance: &[f64], background: &Matrix) -> Vec<f64> {
    (0..N)
        .map(|j| {
            let mean = background.col(j).iter().sum::<f64>() / background.rows() as f64;
            model.coef()[j] * (instance[j] - mean)
        })
        .collect()
}

#[test]
fn exact_shapley_matches_closed_form() {
    let (model, instance, background) = fixture();
    let f = regress_fn(&model);
    let game = PredictionGame::new(&f, &instance, &background);
    let phi = exact_shapley(&game);
    let oracle = closed_form(&model, &instance, &background);
    for (j, (p, o)) in phi.iter().zip(&oracle).enumerate() {
        assert!((p - o).abs() < 1e-10, "phi[{j}] {p} vs closed form {o}");
    }
}

#[test]
fn kernel_shap_on_full_budget_reproduces_exact_shapley() {
    let (model, instance, background) = fixture();
    let f = regress_fn(&model);
    let game = PredictionGame::new(&f, &instance, &background);
    let oracle = exact_shapley(&game);
    // 2^8 − 2 = 254 proper coalitions fit the default budget → exact mode.
    // The ridge is dropped to keep the regression's bias below the bound.
    let cfg = KernelShapConfig { ridge: 1e-12, ..KernelShapConfig::default() };
    let ks = kernel_shap(&game, cfg);
    assert!(ks.exact, "full budget must enumerate");
    assert_eq!(ks.coalitions_used, (1 << N) - 2);
    for (j, (p, o)) in ks.phi.iter().zip(&oracle).enumerate() {
        assert!((p - o).abs() < 1e-10, "phi[{j}] {p} vs exact {o}");
    }
    let closed = closed_form(&model, &instance, &background);
    for (p, o) in ks.phi.iter().zip(&closed) {
        assert!((p - o).abs() < 1e-10);
    }
}

#[test]
fn batched_path_passes_the_same_oracles_bit_identically() {
    let (model, instance, background) = fixture();
    let f = regress_fn(&model);
    let bf = batch_regress_fn(&model);
    let scalar_game = PredictionGame::new(&f, &instance, &background);
    let batch_game = BatchPredictionGame::new(&bf, &instance, &background);
    let cfg = KernelShapConfig { ridge: 1e-12, ..KernelShapConfig::default() };
    let scalar = kernel_shap(&scalar_game, cfg);
    let batched = kernel_shap(&batch_game, cfg);
    assert_eq!(scalar.phi, batched.phi, "batched kernel SHAP must be bit-identical");
    assert_eq!(scalar.base_value, batched.base_value);

    let memo = CoalitionMemo::new(1 << N);
    let cached = MemoGame::new(&batch_game, &memo, GameKey::derive(0, &background, &instance));
    let memoed = kernel_shap(&cached, cfg);
    assert_eq!(scalar.phi, memoed.phi, "memo cache must not perturb bits");

    let oracle = closed_form(&model, &instance, &background);
    for (p, o) in batched.phi.iter().zip(&oracle) {
        assert!((p - o).abs() < 1e-10);
    }

    // The batched game itself is the scalar game, value for value.
    let coalition: Vec<bool> = (0..N).map(|j| j % 3 != 1).collect();
    use xai_shapley::CooperativeGame;
    assert_eq!(scalar_game.value(&coalition), batch_game.value(&coalition));
}
