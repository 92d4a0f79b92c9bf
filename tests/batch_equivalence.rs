//! Batched-path equivalence harness.
//!
//! The batched inference path (`predict_batch` → `BatchPredictionGame` /
//! masked coalition games / `RunConfig::batched` for LIME and PDP) is a
//! *performance* feature: it must change wall-clock time and nothing
//! else. This suite pins that contract for every model family ×
//! Monte-Carlo explainer pair — the batched estimate is
//! **bit-identical** to the scalar one at the same seed, in the
//! sequential layout and in the chunk grid `workers > 1` runs at every
//! worker count, with and without the coalition memo cache.

use xai_core::{
    CoalitionMemo, ExplainRequest, Explainer, FnOracle, GameKey, ModelOracle, RunConfig,
};
use xai_data::synth::german_credit;
use xai_data::Dataset;
use xai_datavalue::{
    data_banzhaf, tmc_shapley, BanzhafConfig, BanzhafMethod, CachedUtility, FnUtility, TmcConfig,
    TmcMethod,
};
use xai_linalg::Matrix;
use xai_models::{
    batch_from_scalar, batch_proba_fn, batch_regress_fn, proba_fn, regress_fn, DecisionTree,
    ForestConfig, GaussianNb, Gbdt, GbdtConfig, GbdtLoss, Knn, LinearConfig, LinearRegression,
    LogisticConfig, LogisticRegression, Mlp, MlpConfig, MlpTask, RandomForest, TreeConfig,
};
use xai_shapley::{
    kernel_shap, permutation_shapley, BatchPredictionGame, KernelShapConfig, KernelShapMethod,
    MemoGame, PermutationShapleyMethod, PredictionGame,
};
use xai_surrogate::{
    feature_grid, partial_dependence, LimeConfig, LimeExplainer, LimeMethod, PdpMethod,
};

fn credit() -> Dataset {
    german_credit(90, 5)
}

fn background(data: &Dataset) -> Matrix {
    Matrix::from_fn(6, data.n_features(), |i, j| data.x()[(i, (i + j) % data.n_features())])
}

/// Runs every Shapley Monte-Carlo estimator against one model through the
/// scalar and the batched game and demands bitwise equality: the
/// sequential layout over the scalar, materialized and memoized games,
/// and the chunk grid through the trait at every worker count with
/// `batched` off and on, in exact and sampling kernel modes.
fn assert_explainers_bit_identical<F, B>(
    name: &str,
    f: &F,
    bf: &B,
    model: &dyn ModelOracle,
    instance: &[f64],
    bg: &Matrix,
) where
    F: Fn(&[f64]) -> f64 + Sync,
    B: Fn(&Matrix) -> Vec<f64> + Sync,
{
    let scalar_game = PredictionGame::new(f, instance, bg);
    let batch_game = BatchPredictionGame::new(bf, instance, bg);
    let memo = CoalitionMemo::new(1 << 16);
    let cached = MemoGame::new(&batch_game, &memo, GameKey::derive(0, bg, instance));

    // Kernel SHAP, exact mode (n = 9 → 510 coalitions) and sampling mode.
    for cfg in [
        KernelShapConfig { seed: 3, ..KernelShapConfig::default() },
        KernelShapConfig { max_coalitions: 48, seed: 3, ..KernelShapConfig::default() },
    ] {
        let a = kernel_shap(&scalar_game, cfg);
        let b = kernel_shap(&batch_game, cfg);
        assert_eq!(a.phi, b.phi, "{name}: batched kernel SHAP diverged");
        assert_eq!(a.base_value, b.base_value, "{name}: base value diverged");
        let c = kernel_shap(&cached, cfg);
        assert_eq!(a.phi, c.phi, "{name}: cached kernel SHAP diverged");
        let method = KernelShapMethod { config: cfg };
        assert_chunk_grid_bit_identical(name, &method, model, instance, bg);
    }

    // Permutation Shapley, sequential layout and chunk grid.
    let a = permutation_shapley(&scalar_game, 20, 7);
    let b = permutation_shapley(&batch_game, 20, 7);
    assert_eq!(a.phi, b.phi, "{name}: batched permutation Shapley diverged");
    assert_eq!(a.std_err, b.std_err, "{name}: std_err diverged");
    let c = permutation_shapley(&cached, 20, 7);
    assert_eq!(a.phi, c.phi, "{name}: cached permutation Shapley diverged");
    assert_chunk_grid_bit_identical(
        name,
        &PermutationShapleyMethod { permutations: 24 },
        model,
        instance,
        bg,
    );

    // Every permutation walk revisits ∅ and N, so the memo must have hit.
    let hits = memo.stats().hits;
    assert!(hits > 0, "{name}: memo cache never hit");
}

/// The chunk grid a `workers > 1` plan runs: identical bytes at every
/// worker count, over the scalar game and the batched one.
fn assert_chunk_grid_bit_identical(
    name: &str,
    method: &dyn Explainer,
    model: &dyn ModelOracle,
    instance: &[f64],
    bg: &Matrix,
) {
    let data = credit();
    let run = |workers: usize, batched: bool| {
        let plan = RunConfig::seeded(7).with_workers(workers).with_batched(batched);
        let req = ExplainRequest::new(&data).instance(instance).background(bg).plan(plan);
        method.explain(model, &req).unwrap().to_json_string()
    };
    let reference = run(2, false);
    for workers in [2, 4] {
        for batched in [false, true] {
            assert_eq!(
                reference,
                run(workers, batched),
                "{name}: {} chunk grid diverged at workers={workers} batched={batched}",
                method.card().name
            );
        }
    }
}

/// LIME and PDP through the model's batch surface (`batched: true`),
/// bit-identical to the scalar reference loops.
fn assert_surrogates_bit_identical<F>(name: &str, f: &F, model: &dyn ModelOracle, data: &Dataset)
where
    F: Fn(&[f64]) -> f64,
{
    let lime = LimeExplainer::fit(data);
    let cfg = LimeConfig { n_samples: 120, ..LimeConfig::default() };
    let a = lime.explain(f, data.row(4), cfg, 13);
    let req = ExplainRequest::new(data)
        .instance(data.row(4))
        .plan(RunConfig::seeded(13).with_batched(true));
    let b = LimeMethod { config: cfg }.explain(model, &req).unwrap();
    let b = b.as_attribution().unwrap();
    assert_eq!(a.attribution.values, b.values, "{name}: batched LIME diverged");
    assert_eq!(a.attribution.baseline, b.baseline, "{name}: LIME intercept diverged");
    assert_eq!(a.attribution.prediction, b.prediction, "{name}: LIME prediction");

    let grid = feature_grid(data, 1, 5);
    let pa = partial_dependence(f, data, 1, &grid, 40, true);
    let req = ExplainRequest::new(data).feature(1).plan(RunConfig::seeded(0).with_batched(true));
    let pb = PdpMethod { points: 5, max_rows: 40, keep_ice: true }.explain(model, &req).unwrap();
    let pb = pb.as_curve().unwrap();
    assert_eq!(pa.grid, pb.grid, "{name}: PDP grid diverged");
    assert_eq!(pa.pdp, pb.values, "{name}: batched PDP diverged");
    assert_eq!(pa.ice, pb.ice, "{name}: batched ICE diverged");
}

#[test]
fn linear_and_logistic_batched_explainers_are_bit_identical() {
    let data = credit();
    let bg = background(&data);
    let instance = data.row(11);

    let linear = LinearRegression::fit(data.x(), data.y(), LinearConfig::default()).unwrap();
    let f = regress_fn(&linear);
    let bf = batch_regress_fn(&linear);
    assert_explainers_bit_identical("linear", &f, &bf, &linear, instance, &bg);
    assert_surrogates_bit_identical("linear", &f, &linear, &data);

    let logistic = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    let f = proba_fn(&logistic);
    let bf = batch_proba_fn(&logistic);
    assert_explainers_bit_identical("logistic", &f, &bf, &logistic, instance, &bg);
    assert_surrogates_bit_identical("logistic", &f, &logistic, &data);
}

#[test]
fn tree_ensemble_batched_explainers_are_bit_identical() {
    let data = credit();
    let bg = background(&data);
    let instance = data.row(11);

    let tree = DecisionTree::fit(data.x(), data.y(), TreeConfig { max_depth: 5, ..Default::default() });
    let f = proba_fn(&tree);
    let bf = batch_proba_fn(&tree);
    assert_explainers_bit_identical("tree", &f, &bf, &tree, instance, &bg);

    let forest =
        RandomForest::fit(data.x(), data.y(), ForestConfig { n_trees: 8, seed: 2, ..Default::default() });
    let f = proba_fn(&forest);
    let bf = batch_proba_fn(&forest);
    assert_explainers_bit_identical("forest", &f, &bf, &forest, instance, &bg);
    assert_surrogates_bit_identical("forest", &f, &forest, &data);

    let gbdt = Gbdt::fit(
        data.x(),
        data.y(),
        GbdtConfig { n_rounds: 10, loss: GbdtLoss::Logistic, ..Default::default() },
    );
    let f = proba_fn(&gbdt);
    let bf = batch_proba_fn(&gbdt);
    assert_explainers_bit_identical("gbdt", &f, &bf, &gbdt, instance, &bg);
}

#[test]
fn knn_naive_bayes_and_mlp_batched_explainers_are_bit_identical() {
    let data = credit();
    let bg = background(&data);
    let instance = data.row(11);

    let knn = Knn::fit(data.x(), data.y(), 3);
    let f = proba_fn(&knn);
    let bf = batch_proba_fn(&knn);
    assert_explainers_bit_identical("knn", &f, &bf, &knn, instance, &bg);

    let nb = GaussianNb::fit(data.x(), data.y());
    let f = proba_fn(&nb);
    let bf = batch_proba_fn(&nb);
    assert_explainers_bit_identical("naive_bayes", &f, &bf, &nb, instance, &bg);

    let mlp = Mlp::fit(
        data.x(),
        data.y(),
        MlpConfig { hidden: 6, epochs: 3, task: MlpTask::Classification, seed: 4, ..Default::default() },
    );
    let f = proba_fn(&mlp);
    let bf = batch_proba_fn(&mlp);
    assert_explainers_bit_identical("mlp", &f, &bf, &mlp, instance, &bg);
    assert_surrogates_bit_identical("mlp", &f, &mlp, &data);
}

#[test]
fn scalar_fallback_adapter_is_equivalent_to_the_scalar_path() {
    // A model with no vectorized override still rides the batched
    // explainer entry points through `batch_from_scalar`.
    let data = credit();
    let bg = background(&data);
    let instance = data.row(3);
    let f = |x: &[f64]| (x[0] * 0.01 - x[3] * 0.0002).tanh() + x[6] * 0.1;
    let bf = batch_from_scalar(f);
    let oracle = FnOracle::new(data.n_features(), f);
    assert_explainers_bit_identical("closure", &f, &bf, &oracle, instance, &bg);
}

#[test]
fn cached_utility_preserves_tmc_and_banzhaf_bits() {
    // The memoized utility must be invisible to the estimators. The inner
    // utility accumulates in integer arithmetic, so its score is exactly
    // permutation-invariant and the cache's canonical (sorted) evaluation
    // order cannot perturb bits.
    let n = 14;
    let utility = FnUtility::new(n, |s: &[usize]| {
        s.iter().map(|&i| (i * i + 3 * i + 1) as u64).sum::<u64>() as f64 / 64.0
    });
    let cached = CachedUtility::new(&utility);

    let tmc_cfg = TmcConfig { permutations: 30, truncation_tolerance: 0.0, seed: 5 };
    let plain = tmc_shapley(&utility, tmc_cfg);
    let memo = tmc_shapley(&cached, tmc_cfg);
    assert_eq!(plain.attribution.values, memo.attribution.values, "TMC diverged under memo");
    let (hits, misses) = cached.stats();
    assert!(hits > 0, "TMC revisits the empty/grand coalitions every walk");
    assert!(misses < plain.utility_calls, "memo must absorb repeat evaluations");

    let bz_cfg = BanzhafConfig { samples_per_point: 12, seed: 8 };
    let plain_bz = data_banzhaf(&utility, bz_cfg);
    let memo_bz = data_banzhaf(&cached, bz_cfg);
    assert_eq!(plain_bz.values, memo_bz.values, "Banzhaf diverged under memo");

    // The chunk grid accepts the cached wrapper too (Mutex ⇒ Sync) and
    // stays worker-invariant.
    let data = credit();
    let oracle = FnOracle::new(data.n_features(), |_: &[f64]| 0.0);
    let chunked = |method: &dyn Explainer, workers: usize| {
        let plan = RunConfig::seeded(5).with_workers(workers);
        let req = ExplainRequest::new(&data).utility(&cached).plan(plan);
        method.explain(&oracle, &req).unwrap().as_valuation().unwrap().values.clone()
    };
    let tmc = TmcMethod { config: tmc_cfg };
    assert_eq!(chunked(&tmc, 2), chunked(&tmc, 4), "chunked TMC not worker-invariant under memo");
    let bz = BanzhafMethod { config: bz_cfg };
    assert_eq!(chunked(&bz, 2), chunked(&bz, 4), "chunked Banzhaf not worker-invariant under memo");
}
