//! End-to-end determinism guarantees.
//!
//! Every sampling-based explainer in the workspace must be a pure function
//! of its seed: run twice with the same seed, it produces bit-identical
//! output. Plans with `workers > 1` carry a stronger guarantee — their
//! output is also independent of the worker count, because work is split
//! into a fixed chunk grid with `child_seed`-derived streams and reduced
//! in chunk order (see `xai_rand::parallel` and `xai_core::shard`).

use xai_core::{ExplainRequest, Explainer, FnOracle, RunConfig, XaiResult};
use xai_counterfactual::{geco, DiceConfig, DiceMethod, GecoConfig, GecoMethod, Plaf};
use xai_data::synth::german_credit;
use xai_datavalue::{
    data_banzhaf, tmc_shapley, BanzhafConfig, BanzhafMethod, FnUtility, TmcConfig, TmcMethod,
};
use xai_models::{proba_fn, LogisticConfig, LogisticRegression};
use xai_shapley::{
    kernel_shap, permutation_shapley, KernelShapConfig, KernelShapMethod,
    PermutationShapleyMethod, PredictionGame, TableGame,
};

/// The outcome of one explain as comparable text: the canonical bytes,
/// or the error.
fn outcome(result: XaiResult<xai_core::Explanation>) -> String {
    match result {
        Ok(e) => e.to_json_string(),
        Err(e) => format!("error: {e}"),
    }
}

fn model_game() -> (xai_data::Dataset, LogisticRegression) {
    let data = german_credit(150, 5);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    (data, model)
}

#[test]
fn permutation_shapley_is_seed_stable() {
    let (data, model) = model_game();
    let f = proba_fn(&model);
    let background = xai_linalg::Matrix::from_fn(8, data.n_features(), |i, j| data.x()[(i, j)]);
    let instance: Vec<f64> = data.row(11).to_vec();
    let game = PredictionGame::new(&f, &instance, &background);
    let a = permutation_shapley(&game, 60, 5);
    let b = permutation_shapley(&game, 60, 5);
    assert_eq!(a.phi, b.phi);
    assert_eq!(a.std_err, b.std_err);
}

#[test]
fn parallel_shapley_estimators_are_worker_count_invariant() {
    let (data, model) = model_game();
    let background = xai_linalg::Matrix::from_fn(8, data.n_features(), |i, j| data.x()[(i, j)]);
    let instance: Vec<f64> = data.row(11).to_vec();
    let run = |method: &dyn Explainer, workers: usize| {
        let req = ExplainRequest::new(&data)
            .instance(&instance)
            .background(&background)
            .plan(RunConfig::seeded(5).with_workers(workers));
        outcome(method.explain(&model, &req))
    };

    let perms = PermutationShapleyMethod { permutations: 80 };
    assert_eq!(run(&perms, 2), run(&perms, 4), "permutation sampling must not depend on workers");

    // 2^9 − 2 proper coalitions exceed the budget: sampling mode.
    assert!((1usize << data.n_features()) - 2 > 256);
    let kernel = KernelShapMethod {
        config: KernelShapConfig { max_coalitions: 256, ..Default::default() },
    };
    assert_eq!(run(&kernel, 2), run(&kernel, 4), "kernel SHAP sampling must not depend on workers");
}

#[test]
fn sequential_kernel_shap_is_seed_stable() {
    let game = TableGame::new(
        12,
        (0..1usize << 12).map(|m| f64::from(m.count_ones() >= 6)).collect(),
    );
    let cfg = KernelShapConfig { max_coalitions: 200, ..Default::default() };
    let a = kernel_shap(&game, cfg);
    let b = kernel_shap(&game, cfg);
    assert_eq!(a.phi, b.phi);
}

fn utility() -> FnUtility<impl Fn(&[usize]) -> f64> {
    FnUtility::new(9, |s: &[usize]| {
        s.iter().map(|&i| (i + 1) as f64 * 0.07).sum::<f64>()
            + f64::from(s.contains(&2) && s.contains(&7)) * 0.3
    })
}

#[test]
fn data_shapley_and_banzhaf_are_seed_stable() {
    let u = utility();
    let cfg = TmcConfig { permutations: 40, truncation_tolerance: 0.0, seed: 13 };
    assert_eq!(tmc_shapley(&u, cfg).attribution.values, tmc_shapley(&u, cfg).attribution.values);
    let bcfg = BanzhafConfig { samples_per_point: 50, seed: 13 };
    assert_eq!(data_banzhaf(&u, bcfg).values, data_banzhaf(&u, bcfg).values);
}

#[test]
fn parallel_valuation_is_worker_count_invariant() {
    let u = utility();
    let data = german_credit(9, 17);
    let oracle = FnOracle::new(data.n_features(), |_: &[f64]| 0.0);
    // The measure string names the worker count; the values must not
    // depend on it.
    let run = |method: &dyn Explainer, workers: usize| {
        let req = ExplainRequest::new(&data)
            .utility(&u)
            .plan(RunConfig::seeded(17).with_workers(workers));
        method.explain(&oracle, &req).unwrap().as_valuation().unwrap().values.clone()
    };
    let tmc = TmcMethod {
        config: TmcConfig { permutations: 48, truncation_tolerance: 0.0, seed: 17 },
    };
    assert_eq!(run(&tmc, 2), run(&tmc, 4), "TMC Shapley must not depend on workers");

    let banzhaf = BanzhafMethod { config: BanzhafConfig { samples_per_point: 40, seed: 17 } };
    assert_eq!(run(&banzhaf, 2), run(&banzhaf, 4), "Banzhaf must not depend on workers");
}

#[test]
fn geco_is_seed_stable_and_parallel_geco_worker_invariant() {
    let data = german_credit(200, 23);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    let f = proba_fn(&model);
    let plaf = Plaf::from_schema(&data);
    let config = GecoConfig { population: 24, generations: 6, ..GecoConfig::default() };
    let instance = data.row(7);

    let a = geco(&f, &data, instance, &plaf, config, 31);
    let b = geco(&f, &data, instance, &plaf, config, 31);
    assert_eq!(
        a.as_ref().map(|c| c.counterfactual.clone()),
        b.as_ref().map(|c| c.counterfactual.clone()),
        "same seed, same counterfactual"
    );

    let multi_start = GecoMethod { config, starts: 3 };
    let run = |workers: usize| {
        let req = ExplainRequest::new(&data)
            .instance(instance)
            .plan(RunConfig::seeded(31).with_workers(workers));
        outcome(multi_start.explain(&model, &req))
    };
    assert_eq!(run(2), run(4), "multi-start GeCo must not depend on workers");
}

#[test]
fn dice_parallel_restarts_are_worker_count_invariant() {
    let data = german_credit(200, 29);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    let dice = DiceMethod {
        config: DiceConfig { k: 2, iterations: 60, restarts: 3, ..DiceConfig::default() },
    };
    let run = |workers: usize| {
        let req = ExplainRequest::new(&data)
            .instance(data.row(5))
            .plan(RunConfig::seeded(41).with_workers(workers));
        outcome(dice.explain(&model, &req))
    };
    let w4 = run(4);
    assert_eq!(run(2), w4, "DiCE candidates must not depend on workers");
    assert_eq!(run(4), w4, "same seed, same counterfactual set");
}
