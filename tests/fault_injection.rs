//! Fault-injection harness for the fallible (`try_*`) explanation
//! pipeline.
//!
//! Every test wraps a model, game, or utility in a fault injector — NaN
//! outputs after the k-th call, a panic on a chosen evaluation, constant
//! predictions, degenerate inputs — and proves that the `try_*` twin of
//! each entry point returns the *right* [`XaiError`] variant (or an `Ok`
//! result flagged `degraded`) instead of panicking or leaking NaN. Plans
//! with `workers > 1` run through `Explainer::explain`, where a panic in
//! a chunk is a [`XaiError::WorkerPanic`] and a NaN keeps its
//! [`XaiError::ModelFault`] identity. The final section pins the
//! determinism contract: on fault-free inputs the chunk grid is
//! bit-identical for every worker count.

use std::sync::atomic::{AtomicUsize, Ordering};

use xai::core::{
    ExplainRequest, Explainer, Explanation, FnOracle, ModelOracle, RunConfig, SampleBudget,
    XaiError, XaiResult,
};
use xai::counterfactual::wachter::GradientModel;
use xai::counterfactual::{
    try_geco, try_wachter_counterfactual, DiceConfig, DiceExplainer, DiceMethod, GecoConfig,
    GecoMethod, Plaf, WachterConfig,
};
use xai::data::synth::linear_gaussian;
use xai::data::Dataset;
use xai::datavalue::{
    try_data_banzhaf, try_leave_one_out, try_tmc_shapley, try_tmc_shapley_budgeted,
    BanzhafConfig, BanzhafMethod, FnUtility, LooMethod, TmcConfig, TmcMethod,
};
use xai::linalg::Matrix;
use xai::models::{LogisticConfig, LogisticRegression, Mlp, MlpConfig};
use xai::shapley::{
    kernel_shap, permutation_shapley, try_antithetic_permutation_shapley, try_kernel_shap,
    try_kernel_shap_attribution, try_permutation_shapley, try_permutation_shapley_budgeted,
    BatchGame, CooperativeGame, KernelShapConfig, KernelShapMethod, PermutationShapleyMethod,
};
use xai::surrogate::{
    partial_dependence, try_partial_dependence, LimeConfig, LimeExplainer, LimeMethod, PdpMethod,
};
use xai_rand::parallel::{par_map_seeded, try_par_map_seeded};

// ---------------------------------------------------------------------------
// Fault injectors
// ---------------------------------------------------------------------------

/// How a [`FaultyGame`] misbehaves.
#[derive(Clone, Copy)]
enum Fault {
    /// Honest weighted-sum game.
    Clean,
    /// Returns NaN from the k-th evaluation onwards (0-based).
    NanAfter(usize),
    /// Panics on the k-th evaluation (0-based).
    PanicAt(usize),
}

/// A cooperative game with an injectable fault and a call counter.
struct FaultyGame {
    n: usize,
    fault: Fault,
    calls: AtomicUsize,
}

impl FaultyGame {
    fn new(n: usize, fault: Fault) -> Self {
        Self { n, fault, calls: AtomicUsize::new(0) }
    }

    fn clean_value(&self, coalition: &[bool]) -> f64 {
        coalition
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| (i + 1) as f64 * 0.1)
            .sum::<f64>()
            + f64::from(coalition.first().copied().unwrap_or(false)
                && coalition.last().copied().unwrap_or(false))
                * 0.3
    }
}

impl CooperativeGame for FaultyGame {
    fn n_players(&self) -> usize {
        self.n
    }

    fn value(&self, coalition: &[bool]) -> f64 {
        let k = self.calls.fetch_add(1, Ordering::Relaxed);
        match self.fault {
            Fault::Clean => self.clean_value(coalition),
            Fault::NanAfter(t) if k >= t => f64::NAN,
            Fault::NanAfter(_) => self.clean_value(coalition),
            Fault::PanicAt(t) if k == t => panic!("injected game fault at call {k}"),
            Fault::PanicAt(_) => self.clean_value(coalition),
        }
    }
}

impl BatchGame for FaultyGame {}

/// A [`FaultyGame`] as a model oracle: over an all-ones instance and a
/// single all-zeros background row, the probe row `x` is the coalition
/// `x[i] != 0`, so the prediction game's values are exactly the game's
/// (same fault schedule, same call counter).
struct FaultyOracle(FaultyGame);

impl ModelOracle for FaultyOracle {
    fn n_features(&self) -> usize {
        self.0.n
    }
    fn predict(&self, x: &[f64]) -> f64 {
        let coalition: Vec<bool> = x.iter().map(|&v| v != 0.0).collect();
        self.0.value(&coalition)
    }
}

/// Runs a Shapley method over the faulty game through the trait.
fn explain_game(
    method: &dyn Explainer,
    n: usize,
    fault: Fault,
    workers: usize,
    batched: bool,
) -> XaiResult<Explanation> {
    let data = fixture_data();
    let instance = vec![1.0; n];
    let background = Matrix::zeros(1, n);
    let req = ExplainRequest::new(&data)
        .instance(&instance)
        .background(&background)
        .plan(RunConfig::seeded(0).with_workers(workers).with_batched(batched));
    method.explain(&FaultyOracle(FaultyGame::new(n, fault)), &req)
}

/// An oracle whose batch surface is `batch` (scalar predictions unused).
struct BatchOracle<B>(usize, B);

impl<B: Fn(&Matrix) -> Vec<f64> + Sync> ModelOracle for BatchOracle<B> {
    fn n_features(&self) -> usize {
        self.0
    }
    fn predict(&self, x: &[f64]) -> f64 {
        clean_model(x)
    }
    fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        (self.1)(rows)
    }
}

/// A small two-feature dataset shared by the model-level fixtures.
fn fixture_data() -> Dataset {
    linear_gaussian(120, &[2.0, -1.0], 0.0, 7)
}

/// The honest model the faulty closures impersonate.
fn clean_model(x: &[f64]) -> f64 {
    let z = 2.0 * x[0] - x[1];
    1.0 / (1.0 + (-z).exp())
}

/// A gradient model with a constant output that never crosses 0.5.
struct StuckModel(f64);

impl GradientModel for StuckModel {
    fn output(&self, _x: &[f64]) -> f64 {
        self.0
    }
    fn gradient(&self, x: &[f64]) -> Vec<f64> {
        vec![0.0; x.len()]
    }
}

/// A gradient model that panics on first contact.
struct ExplodingModel;

impl GradientModel for ExplodingModel {
    fn output(&self, _x: &[f64]) -> f64 {
        panic!("injected gradient-model fault")
    }
    fn gradient(&self, _x: &[f64]) -> Vec<f64> {
        panic!("injected gradient-model fault")
    }
}

// ---------------------------------------------------------------------------
// Kernel SHAP
// ---------------------------------------------------------------------------

#[test]
fn kernel_shap_nan_endpoint_is_a_model_fault() {
    // Call 0 is v(∅): the endpoint check fires before any regression.
    let game = FaultyGame::new(4, Fault::NanAfter(0));
    let err = try_kernel_shap(&game, KernelShapConfig::default()).unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");
    assert!(err.to_string().contains("endpoint"), "{err}");
}

#[test]
fn kernel_shap_endpoint_panic_is_a_model_fault() {
    // A model that panics on the very first (empty-coalition) evaluation
    // must be caught by the endpoint preamble, not unwind to the caller.
    let game = FaultyGame::new(4, Fault::PanicAt(0));
    let err = try_kernel_shap(&game, KernelShapConfig::default()).unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");
    assert!(err.to_string().contains("endpoint"), "{err}");
}

#[test]
fn kernel_shap_nan_coalition_is_a_model_fault() {
    // Endpoints pass; the NaN lands inside the coalition sweep.
    let game = FaultyGame::new(4, Fault::NanAfter(5));
    let err = try_kernel_shap(&game, KernelShapConfig::default()).unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");
}

#[test]
fn kernel_shap_panicking_game_is_caught_sequentially() {
    let game = FaultyGame::new(4, Fault::PanicAt(5));
    let err = try_kernel_shap(&game, KernelShapConfig::default()).unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");
    assert!(err.to_string().contains("injected game fault"), "{err}");

    // The same panic through the trait's sequential layout, either game.
    for batched in [false, true] {
        let err = explain_game(&KernelShapMethod::default(), 4, Fault::PanicAt(5), 1, batched)
            .unwrap_err();
        assert!(matches!(err, XaiError::ModelFault { .. }), "batched={batched}: {err}");
    }
}

#[test]
fn parallel_kernel_shap_panic_is_a_worker_panic() {
    for workers in [2, 4] {
        for batched in [false, true] {
            let err =
                explain_game(&KernelShapMethod::default(), 5, Fault::PanicAt(7), workers, batched)
                    .unwrap_err();
            assert!(
                matches!(err, XaiError::WorkerPanic { .. }),
                "workers={workers} batched={batched}: {err}"
            );
        }
    }
}

#[test]
fn parallel_kernel_shap_nan_is_a_model_fault_not_a_worker_panic() {
    // NaN values inside worker chunks must keep their ModelFault identity.
    let err =
        explain_game(&KernelShapMethod::default(), 5, Fault::NanAfter(9), 3, false).unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");
}

#[test]
fn kernel_shap_ridge_escalation_flags_degraded() {
    // One sampled coalition for three players: the 1×2 design has an
    // exactly rank-deficient Gram (integer entries), so ridge 0.0 is
    // singular by construction and the ladder must take over.
    let game = FaultyGame::new(3, Fault::Clean);
    let config = KernelShapConfig { max_coalitions: 1, ridge: 0.0, seed: 0 };
    let ks = try_kernel_shap(&game, config).expect("ladder recovers the solve");
    assert!(ks.degraded, "escalated solve must be flagged");
    assert!(ks.phi.iter().all(|p| p.is_finite()));
    // Efficiency holds even for degraded estimates (tail by construction).
    let total: f64 = ks.phi.iter().sum();
    let expected = game.clean_value(&[true; 3]) - game.clean_value(&[false; 3]);
    assert!((total - expected).abs() < 1e-9);
}

#[test]
fn clean_kernel_shap_try_twin_is_bit_identical_and_not_degraded() {
    let config = KernelShapConfig::default();
    let plain = kernel_shap(&FaultyGame::new(4, Fault::Clean), config);
    let tried = try_kernel_shap(&FaultyGame::new(4, Fault::Clean), config).unwrap();
    assert_eq!(plain.phi, tried.phi);
    assert!(!tried.degraded);
}

#[test]
fn kernel_shap_attribution_validates_instance_and_background() {
    let model = |x: &[f64]| clean_model(x);
    let names = ["a", "b"];
    let bg = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]);

    let err = try_kernel_shap_attribution(
        &model,
        &[f64::NAN, 1.0],
        &bg,
        &names,
        KernelShapConfig::default(),
    )
    .unwrap_err();
    assert!(matches!(err, XaiError::NonFiniteInput { .. }), "{err}");

    // Every background row equal to the instance: the induced game is
    // constant and must be rejected up front, not solved into garbage.
    let degenerate = Matrix::from_rows(&[vec![1.0, 2.0], vec![1.0, 2.0]]);
    let err = try_kernel_shap_attribution(
        &model,
        &[1.0, 2.0],
        &degenerate,
        &names,
        KernelShapConfig::default(),
    )
    .unwrap_err();
    assert!(matches!(err, XaiError::NonFiniteInput { .. }), "{err}");
    assert!(err.to_string().contains("degenerate"), "{err}");

    // A healthy pair still explains.
    let ok = try_kernel_shap_attribution(
        &model,
        &[1.0, 2.0],
        &bg,
        &names,
        KernelShapConfig::default(),
    )
    .unwrap();
    assert!(ok.values.iter().all(|p| p.is_finite()));
}

// ---------------------------------------------------------------------------
// Permutation Shapley
// ---------------------------------------------------------------------------

#[test]
fn permutation_shapley_nan_game_is_a_model_fault() {
    let game = FaultyGame::new(4, Fault::NanAfter(3));
    let err = try_permutation_shapley(&game, 8, 0).unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");

    let method = PermutationShapleyMethod { permutations: 8 };
    let err = explain_game(&method, 4, Fault::NanAfter(3), 1, true).unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");

    let game = FaultyGame::new(4, Fault::NanAfter(3));
    let err = try_antithetic_permutation_shapley(&game, 8, 0).unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");
}

#[test]
fn permutation_shapley_panicking_game_is_caught_sequentially() {
    let game = FaultyGame::new(4, Fault::PanicAt(6));
    let err = try_permutation_shapley(&game, 8, 0).unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");
}

#[test]
fn parallel_permutation_shapley_separates_panics_from_nan() {
    let method = PermutationShapleyMethod { permutations: 16 };
    for workers in [2, 4] {
        let err = explain_game(&method, 4, Fault::PanicAt(6), workers, false).unwrap_err();
        assert!(matches!(err, XaiError::WorkerPanic { .. }), "workers={workers}: {err}");

        let err = explain_game(&method, 4, Fault::NanAfter(6), workers, false).unwrap_err();
        assert!(matches!(err, XaiError::ModelFault { .. }), "workers={workers}: {err}");

        let err = explain_game(&method, 4, Fault::PanicAt(6), workers, true).unwrap_err();
        assert!(matches!(err, XaiError::WorkerPanic { .. }), "workers={workers}: {err}");
    }
}

#[test]
fn permutation_budget_returns_partial_estimates() {
    let n = 4;
    let game = FaultyGame::new(n, Fault::Clean);
    // Two walks of n + 1 evaluations fit exactly; the third must not start.
    let budget = SampleBudget::with_max_evals(2 * (n + 1));
    let partial = try_permutation_shapley_budgeted(&game, 10, 0, budget).unwrap();
    assert_eq!(partial.permutations, 2, "partial estimate reports its sample count");
    assert!(partial.phi.iter().all(|p| p.is_finite()));

    // An unlimited budget reproduces the plain estimator bit-for-bit.
    let full = try_permutation_shapley_budgeted(&game, 10, 0, SampleBudget::unlimited()).unwrap();
    let plain = permutation_shapley(&game, 10, 0);
    assert_eq!(full.phi, plain.phi);
    assert_eq!(full.permutations, 10);
}

#[test]
fn permutation_budget_expiring_before_first_walk_is_an_error() {
    let game = FaultyGame::new(4, Fault::Clean);
    let budget = SampleBudget::with_deadline(std::time::Duration::ZERO);
    let err = try_permutation_shapley_budgeted(&game, 10, 0, budget).unwrap_err();
    assert!(matches!(err, XaiError::BudgetExceeded { completed: 0, .. }), "{err}");
}

// ---------------------------------------------------------------------------
// LIME and PDP
// ---------------------------------------------------------------------------

#[test]
fn lime_rejects_non_finite_instances_up_front() {
    let data = fixture_data();
    let explainer = LimeExplainer::fit(&data);
    let model = |x: &[f64]| clean_model(x);
    let err = explainer
        .try_explain(&model, &[1.0, f64::INFINITY], LimeConfig::default(), 0)
        .unwrap_err();
    assert!(matches!(err, XaiError::NonFiniteInput { .. }), "{err}");
}

#[test]
fn lime_model_faults_are_typed() {
    let data = fixture_data();
    let explainer = LimeExplainer::fit(&data);
    let instance = data.row(0);

    let nan_model = |_x: &[f64]| f64::NAN;
    let err = explainer.try_explain(&nan_model, instance, LimeConfig::default(), 0).unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");

    let calls = AtomicUsize::new(0);
    let panic_model = |x: &[f64]| {
        if calls.fetch_add(1, Ordering::Relaxed) == 17 {
            panic!("injected LIME model fault");
        }
        clean_model(x)
    };
    let err = explainer.try_explain(&panic_model, instance, LimeConfig::default(), 0).unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");

    // A batched model returning the wrong arity is also a model fault.
    let short_model = BatchOracle(2, |_m: &Matrix| vec![0.5; 3]);
    let req = ExplainRequest::new(&data)
        .instance(instance)
        .plan(RunConfig::seeded(0).with_batched(true));
    let err = LimeMethod::default().explain(&short_model, &req).unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");
}

#[test]
fn lime_ridge_escalation_flags_degraded() {
    // A sub-nano kernel width underflows every locality weight to exactly
    // 0.0, so the weighted Gram is exactly singular at ridge 0.0 and the
    // ladder must recover the solve.
    let data = fixture_data();
    let explainer = LimeExplainer::fit(&data);
    let model = |x: &[f64]| clean_model(x);
    let config = LimeConfig {
        n_samples: 64,
        kernel_width: Some(1e-300),
        ridge: 0.0,
        max_features: None,
    };
    let exp = explainer.try_explain(&model, data.row(0), config, 0).expect("ladder recovers");
    assert!(exp.degraded, "escalated surrogate solve must be flagged");
    assert!(exp.attribution.values.iter().all(|p| p.is_finite()));
}

#[test]
fn clean_lime_try_twin_matches_and_is_not_degraded() {
    let data = fixture_data();
    let explainer = LimeExplainer::fit(&data);
    let model = |x: &[f64]| clean_model(x);
    let plain = explainer.explain(&model, data.row(0), LimeConfig::default(), 3);
    let tried = explainer.try_explain(&model, data.row(0), LimeConfig::default(), 3).unwrap();
    assert_eq!(plain.attribution.values, tried.attribution.values);
    assert!(!tried.degraded);
}

#[test]
fn pdp_validates_inputs_and_types_model_faults() {
    let data = fixture_data();
    let model = |x: &[f64]| clean_model(x);

    let err = try_partial_dependence(&model, &data, 0, &[0.0, f64::NAN], 40, false).unwrap_err();
    assert!(matches!(err, XaiError::NonFiniteInput { .. }), "{err}");

    let nan_model = |_x: &[f64]| f64::NAN;
    let err = try_partial_dependence(&nan_model, &data, 0, &[0.0, 1.0], 40, false).unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");

    let panic_model =
        BatchOracle(2, |_m: &Matrix| -> Vec<f64> { panic!("injected PDP model fault") });
    let req = ExplainRequest::new(&data).feature(0).plan(RunConfig::seeded(0).with_batched(true));
    let err = PdpMethod { points: 2, max_rows: 40, keep_ice: true }
        .explain(&panic_model, &req)
        .unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");

    // Clean twin agreement.
    let plain = partial_dependence(&model, &data, 0, &[0.0, 0.5, 1.0], 40, true);
    let tried = try_partial_dependence(&model, &data, 0, &[0.0, 0.5, 1.0], 40, true).unwrap();
    assert_eq!(plain.pdp, tried.pdp);
    assert_eq!(plain.ice, tried.ice);
}

// ---------------------------------------------------------------------------
// Counterfactuals
// ---------------------------------------------------------------------------

#[test]
fn wachter_reports_non_convergence_and_model_faults() {
    let data = fixture_data();
    let instance = data.row(0);

    let err =
        try_wachter_counterfactual(&StuckModel(0.2), &data, instance, WachterConfig::default())
            .unwrap_err();
    assert!(matches!(err, XaiError::ConvergenceFailure { .. }), "{err}");

    let err =
        try_wachter_counterfactual(&ExplodingModel, &data, instance, WachterConfig::default())
            .unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");

    let err = try_wachter_counterfactual(
        &StuckModel(f64::NAN),
        &data,
        instance,
        WachterConfig::default(),
    )
    .unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");
}

#[test]
fn geco_certifies_its_search() {
    let data = fixture_data();
    let instance = data.row(0);
    let plaf = Plaf::from_schema(&data);
    let config = GecoConfig { population: 16, generations: 4, ..GecoConfig::default() };

    // A model stuck on one side of the boundary can never produce a valid
    // counterfactual: certified non-convergence, not a silent None.
    let stuck = |_x: &[f64]| 0.2;
    let err = try_geco(&stuck, &data, instance, &plaf, config, 0).unwrap_err();
    assert!(matches!(err, XaiError::ConvergenceFailure { .. }), "{err}");

    let panicky = |_x: &[f64]| -> f64 { panic!("injected GeCo model fault") };
    let err = try_geco(&panicky, &data, instance, &plaf, config, 0).unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");

    // In the multi-start search (`workers > 1`) the same panic is a
    // worker panic.
    let panicky = FnOracle::new(2, |_x: &[f64]| -> f64 { panic!("injected GeCo model fault") });
    let req = ExplainRequest::new(&data)
        .instance(instance)
        .plan(RunConfig::seeded(0).with_workers(2));
    let err = GecoMethod { config, starts: 4 }.explain(&panicky, &req).unwrap_err();
    assert!(matches!(err, XaiError::WorkerPanic { .. }), "{err}");

    let err = try_geco(&stuck, &data, &[f64::NAN, 0.0], &plaf, config, 0).unwrap_err();
    assert!(matches!(err, XaiError::NonFiniteInput { .. }), "{err}");
}

#[test]
fn dice_certifies_its_search() {
    let data = fixture_data();
    let explainer = DiceExplainer::fit(&data);
    let instance = data.row(0);
    let config = DiceConfig { k: 2, iterations: 40, restarts: 2, ..DiceConfig::default() };

    let stuck = |_x: &[f64]| 0.2;
    let err = explainer.try_generate(&stuck, instance, config, 0).unwrap_err();
    assert!(matches!(err, XaiError::ConvergenceFailure { .. }), "{err}");

    let err = explainer.try_generate(&stuck, &[f64::NAN, 0.0], config, 0).unwrap_err();
    assert!(matches!(err, XaiError::NonFiniteInput { .. }), "{err}");

    // A healthy model produces a certified-finite set through both paths.
    let model = |x: &[f64]| clean_model(x);
    let cfs = explainer.try_generate(&model, instance, config, 0).unwrap();
    assert!(!cfs.is_empty());
    assert!(cfs.iter().all(|c| c.counterfactual.iter().all(|v| v.is_finite())));
    let oracle = FnOracle::new(2, |x: &[f64]| clean_model(x));
    let req = ExplainRequest::new(&data)
        .instance(instance)
        .plan(RunConfig::seeded(0).with_workers(2));
    let pooled = DiceMethod { config }.explain(&oracle, &req).unwrap();
    assert!(!pooled.as_counterfactuals().unwrap().is_empty());
}

// ---------------------------------------------------------------------------
// Data valuation
// ---------------------------------------------------------------------------

/// Runs a valuation method on `utility` through the trait.
fn explain_valuation(
    method: &dyn Explainer,
    utility: &(dyn xai::core::Utility + Sync),
    workers: usize,
) -> XaiResult<Explanation> {
    let data = fixture_data();
    let oracle = FnOracle::new(2, |x: &[f64]| clean_model(x));
    let req = ExplainRequest::new(&data)
        .utility(utility)
        .plan(RunConfig::seeded(5).with_workers(workers));
    method.explain(&oracle, &req)
}

#[test]
fn loo_typed_errors_and_parallel_bit_identity() {
    let nan_u = FnUtility::new(6, |s: &[usize]| {
        if s.len() == 5 {
            f64::NAN
        } else {
            s.len() as f64
        }
    });
    let err = try_leave_one_out(&nan_u).unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");
    let err = explain_valuation(&LooMethod, &nan_u, 2).unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");

    let panic_u = FnUtility::new(6, |s: &[usize]| {
        if s.contains(&3) && s.len() == 5 {
            panic!("injected utility fault");
        }
        s.len() as f64
    });
    let err = try_leave_one_out(&panic_u).unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");
    let err = explain_valuation(&LooMethod, &panic_u, 2).unwrap_err();
    assert!(matches!(err, XaiError::WorkerPanic { .. }), "{err}");

    // Fault-free: the chunk grid is bit-identical to the sequential sweep
    // at every worker count.
    let u = FnUtility::new(20, |s: &[usize]| {
        s.iter().map(|&i| ((i * i) as f64).sqrt()).sum::<f64>().sin()
    });
    let plain = try_leave_one_out(&u).unwrap();
    for workers in [1, 2, 4] {
        let tried = explain_valuation(&LooMethod, &u, workers).unwrap();
        let tried = &tried.as_valuation().unwrap().values;
        assert_eq!(&plain.values, tried, "workers={workers} diverged");
    }
}

#[test]
fn tmc_shapley_typed_errors_and_budgets() {
    // NaN on mid-size prefixes: endpoints pass, the walk check fires.
    let nan_u = FnUtility::new(6, |s: &[usize]| {
        if s.len() == 2 {
            f64::NAN
        } else {
            s.len() as f64
        }
    });
    let config = TmcConfig { permutations: 4, truncation_tolerance: 0.0, seed: 0 };
    let err = try_tmc_shapley(&nan_u, config).unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");

    let panic_u = FnUtility::new(6, |s: &[usize]| {
        if s.len() == 2 {
            panic!("injected utility fault");
        }
        s.len() as f64
    });
    let err = try_tmc_shapley(&panic_u, config).unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");

    // NaN endpoints are caught before any walk.
    let nan_full = FnUtility::new(6, |s: &[usize]| if s.len() == 6 { f64::NAN } else { 0.0 });
    let err = try_tmc_shapley(&nan_full, config).unwrap_err();
    assert!(err.to_string().contains("endpoint"), "{err}");

    // Budgets: a zero deadline fails, an eval cap returns a partial
    // estimate built from the walks that completed.
    let u = FnUtility::new(6, |s: &[usize]| s.len() as f64);
    let err = try_tmc_shapley_budgeted(
        &u,
        config,
        SampleBudget::with_deadline(std::time::Duration::ZERO),
    )
    .unwrap_err();
    assert!(matches!(err, XaiError::BudgetExceeded { completed: 0, .. }), "{err}");

    // 2 endpoint evals + one full walk of 6 exhausts an 8-eval budget.
    let partial =
        try_tmc_shapley_budgeted(&u, config, SampleBudget::with_max_evals(8)).unwrap();
    assert!(partial.attribution.values.iter().all(|v| v.is_finite()));
    assert_eq!(partial.utility_calls, 8);
}

#[test]
fn parallel_valuation_separates_panics_from_nan_and_stays_deterministic() {
    let config = TmcConfig { permutations: 32, truncation_tolerance: 0.0, seed: 5 };
    let panic_u = FnUtility::new(6, |s: &[usize]| {
        if s.len() == 3 {
            panic!("injected utility fault");
        }
        s.len() as f64
    });
    let tmc = TmcMethod { config };
    let err = explain_valuation(&tmc, &panic_u, 2).unwrap_err();
    assert!(matches!(err, XaiError::WorkerPanic { .. }), "{err}");

    let nan_u = FnUtility::new(6, |s: &[usize]| {
        if s.len() == 3 {
            f64::NAN
        } else {
            s.len() as f64
        }
    });
    let err = explain_valuation(&tmc, &nan_u, 2).unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");

    let bz = BanzhafConfig { samples_per_point: 40, seed: 3 };
    let err = try_data_banzhaf(&nan_u, bz).unwrap_err();
    assert!(matches!(err, XaiError::ModelFault { .. }), "{err}");
    let banzhaf = BanzhafMethod { config: bz };
    let err = explain_valuation(&banzhaf, &panic_u, 2).unwrap_err();
    assert!(matches!(err, XaiError::WorkerPanic { .. }), "{err}");

    // Fault-free chunk grids are bit-identical across worker counts.
    let u = FnUtility::new(8, |s: &[usize]| {
        s.iter().map(|&i| (i + 1) as f64 * 0.1).sum::<f64>()
            + f64::from(s.contains(&1) && s.contains(&6)) * 0.4
    });
    let values = |method: &dyn Explainer, workers: usize| {
        explain_valuation(method, &u, workers).unwrap().as_valuation().unwrap().values.clone()
    };
    let plain_tmc = values(&tmc, 2);
    let plain_bz = values(&banzhaf, 2);
    for workers in [2, 4] {
        assert_eq!(plain_tmc, values(&tmc, workers), "TMC workers={workers} diverged");
        assert_eq!(plain_bz, values(&banzhaf, workers), "Banzhaf workers={workers} diverged");
    }
}

// ---------------------------------------------------------------------------
// Model fitting
// ---------------------------------------------------------------------------

#[test]
fn fitters_reject_bad_inputs_and_certify_non_convergence() {
    let data = fixture_data();

    let mut poisoned = data.x().clone();
    poisoned.row_mut(0)[1] = f64::NAN;
    let err = LogisticRegression::try_fit(&poisoned, data.y(), LogisticConfig::default())
        .unwrap_err();
    assert!(matches!(err, XaiError::NonFiniteInput { .. }), "{err}");

    let strict = LogisticConfig { max_iter: 1, tol: 1e-14, ..LogisticConfig::default() };
    let err = LogisticRegression::try_fit(data.x(), data.y(), strict).unwrap_err();
    assert!(matches!(err, XaiError::ConvergenceFailure { iterations: 1, .. }), "{err}");

    let err = Mlp::try_fit(&poisoned, data.y(), MlpConfig::default()).unwrap_err();
    assert!(matches!(err, XaiError::NonFiniteInput { .. }), "{err}");

    // An exploding learning rate diverges to non-finite weights; the
    // fallible fit withholds the garbage network.
    let hot = MlpConfig { learning_rate: 1e9, epochs: 10, ..MlpConfig::default() };
    match Mlp::try_fit(data.x(), data.y(), hot) {
        Err(XaiError::ConvergenceFailure { .. }) => {}
        Err(other) => panic!("wrong error: {other}"),
        // Bounded activations can survive even this; a returned model must
        // then be fully finite, which try_fit certifies.
        Ok(_) => {}
    }
}

#[test]
fn persistence_and_csv_io_errors_are_typed() {
    let err = xai::models::load_from_file::<LogisticRegression>("/nonexistent/model.json")
        .unwrap_err();
    assert!(matches!(err, XaiError::Io { .. }), "{err}");

    let data = fixture_data();
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    let err = xai::models::save_to_file(&model, "/nonexistent/dir/model.json").unwrap_err();
    assert!(matches!(err, XaiError::Io { .. }), "{err}");

    let err: XaiError = xai::data::csv::load_csv_file(
        "/nonexistent/data.csv",
        "label",
        xai::data::Task::BinaryClassification,
    )
    .unwrap_err()
    .into();
    assert!(matches!(err, XaiError::Io { .. }), "{err}");
}

// ---------------------------------------------------------------------------
// Executor determinism under faults
// ---------------------------------------------------------------------------

#[test]
fn try_par_map_seeded_is_bit_identical_to_the_panicking_twin() {
    use xai_rand::Rng;
    let f = |i: usize, rng: &mut xai_rand::rngs::StdRng| rng.gen::<f64>() + i as f64;
    let reference: Vec<f64> = par_map_seeded(24, 42, 1, f);
    for workers in [1, 2, 4] {
        let plain = par_map_seeded(24, 42, workers, f);
        let tried = try_par_map_seeded(24, 42, workers, f).unwrap();
        assert_eq!(reference, plain, "plain workers={workers} diverged");
        assert_eq!(reference, tried, "try workers={workers} diverged");
    }
}

#[test]
fn lowest_indexed_panicking_task_wins_regardless_of_workers() {
    for workers in [1, 2, 4] {
        let err = try_par_map_seeded(16, 0, workers, |i, _rng| {
            if i == 3 || i == 11 {
                panic!("task {i} down");
            }
            i
        })
        .unwrap_err();
        assert_eq!(err.task, 3, "workers={workers} reported the wrong task");
        assert!(err.message.contains("task 3 down"), "workers={workers}: {}", err.message);
    }
}

#[test]
fn fault_free_parallel_explainers_are_worker_invariant() {
    // The acceptance bar for the whole error layer: on clean inputs the
    // chunk grid reproduces itself bit-for-bit at every worker count and
    // over either game.
    let kernel = KernelShapMethod::default();
    let perms = PermutationShapleyMethod { permutations: 32 };
    let run = |method: &dyn Explainer, workers: usize, batched: bool| {
        explain_game(method, 6, Fault::Clean, workers, batched).unwrap().to_json_string()
    };
    let ks_ref = run(&kernel, 2, false);
    let ps_ref = run(&perms, 2, false);
    for workers in [2, 4] {
        for batched in [false, true] {
            assert_eq!(ks_ref, run(&kernel, workers, batched), "kernel workers={workers} diverged");
            let ps = run(&perms, workers, batched);
            assert_eq!(ps_ref, ps, "permutation workers={workers} diverged");
        }
    }
}
