//! Bit-identity harness for the unified explainer layer (DESIGN.md §9).
//!
//! Every `Explainer` implementation is driven through
//! `Explainer::explain` with a `RunConfig` sweeping workers ∈ {1, 2, 4}
//! and batched ∈ {off, on}. Sequential plans are compared **bit-for-bit**
//! (`==` on `f64`s, no tolerance) against the scalar reference function
//! at the same seed; `workers > 1` plans run the chunk grid, whose bytes
//! `tests/explain_golden.rs` pins, and must agree across worker counts
//! and batch modes.

use xai::prelude::*;
use xai::shapley::{
    exact_shapley, forest_shap, gbdt_shap, tree_expected_value, tree_shap, BatchPredictionGame,
    PredictionGame,
};
use xai_linalg::Matrix;

const WORKER_GRID: [usize; 3] = [1, 2, 4];

fn fixture() -> (Dataset, LogisticRegression) {
    let data = xai::data::synth::german_credit(120, 77);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    (data, model)
}

/// Small background matrix so the coalition sweeps stay fast.
fn background(data: &Dataset, rows: usize) -> Matrix {
    let rows: Vec<Vec<f64>> =
        (0..rows.min(data.n_rows())).map(|i| data.row(i).to_vec()).collect();
    Matrix::from_rows(&rows)
}

fn attribution(e: Explanation) -> FeatureAttribution {
    match e {
        Explanation::Attribution(a) => a,
        other => panic!("expected an attribution, got {other:?}"),
    }
}

#[test]
fn kernel_shap_matrix_is_bit_identical_to_every_legacy_twin() {
    let (data, model) = fixture();
    let bg = background(&data, 30);
    let row = data.row(3).to_vec();
    let f = proba_fn(&model);
    let fb = |m: &Matrix| {
        use xai_models::Classifier;
        model.proba_batch(m)
    };
    let cfg = KernelShapConfig { seed: 11, ..KernelShapConfig::default() };
    let method = KernelShapMethod { config: cfg };

    let mut chunked = Vec::new();
    for workers in WORKER_GRID {
        for batched in [false, true] {
            let req = ExplainRequest::new(&data)
                .instance(&row)
                .background(&bg)
                .plan(RunConfig::seeded(11).with_workers(workers).with_batched(batched));
            let got = attribution(method.explain(&model, &req).unwrap());
            if workers > 1 {
                chunked.push(got.values);
                continue;
            }
            let reference = if batched {
                xai::shapley::kernel_shap(&BatchPredictionGame::new(&fb, &row, &bg), cfg)
            } else {
                xai::shapley::kernel_shap(&PredictionGame::new(&f, &row, &bg), cfg)
            };
            assert_eq!(got.values, reference.phi, "kernel SHAP diverged at batched={batched}");
            assert_eq!(got.baseline, reference.base_value);
        }
    }
    for w in chunked.windows(2) {
        assert_eq!(w[0], w[1], "the kernel SHAP chunk grid must ignore workers and batching");
    }
}

#[test]
fn permutation_shapley_matrix_and_budget_are_bit_identical() {
    let (data, model) = fixture();
    let bg = background(&data, 20);
    let row = data.row(5).to_vec();
    let f = proba_fn(&model);
    let fb = |m: &Matrix| {
        use xai_models::Classifier;
        model.proba_batch(m)
    };
    let perms = 24;
    let method = PermutationShapleyMethod { permutations: perms };

    let mut chunked = Vec::new();
    for workers in WORKER_GRID {
        for batched in [false, true] {
            let req = ExplainRequest::new(&data)
                .instance(&row)
                .background(&bg)
                .plan(RunConfig::seeded(23).with_workers(workers).with_batched(batched));
            let got = attribution(method.explain(&model, &req).unwrap());
            if workers > 1 {
                chunked.push(got.values);
                continue;
            }
            let reference = if batched {
                let game = BatchPredictionGame::new(&fb, &row, &bg);
                xai::shapley::permutation_shapley(&game, perms, 23)
            } else {
                xai::shapley::permutation_shapley(&PredictionGame::new(&f, &row, &bg), perms, 23)
            };
            assert_eq!(
                got.values, reference.phi,
                "permutation Shapley diverged at batched={batched}"
            );
        }
    }
    for w in chunked.windows(2) {
        assert_eq!(w[0], w[1], "the permutation chunk grid must ignore workers and batching");
    }

    // The budgeted path is the budgeted sequential reference (scalar
    // only).
    let budget = SampleBudget::with_max_evals(60);
    let game = PredictionGame::new(&f, &row, &bg);
    let legacy =
        xai::shapley::try_permutation_shapley_budgeted(&game, perms, 23, budget).unwrap();
    let req = ExplainRequest::new(&data)
        .instance(&row)
        .background(&bg)
        .plan(RunConfig::seeded(23).with_budget(budget));
    let got = attribution(method.explain(&model, &req).unwrap());
    assert_eq!(got.values, legacy.phi);
}

#[test]
fn exact_shapley_is_plan_invariant_and_matches_enumeration() {
    let (data, model) = fixture();
    let bg = background(&data, 12);
    let row = data.row(2).to_vec();
    let f = proba_fn(&model);
    let game = PredictionGame::new(&f, &row, &bg);
    let legacy = exact_shapley(&game);

    for workers in WORKER_GRID {
        for batched in [false, true] {
            let req = ExplainRequest::new(&data)
                .instance(&row)
                .background(&bg)
                .plan(RunConfig::seeded(1).with_workers(workers).with_batched(batched));
            let got = attribution(ExactShapleyMethod.explain(&model, &req).unwrap());
            assert_eq!(got.values, legacy, "exact Shapley must ignore the execution plan");
        }
    }
}

#[test]
fn tree_shap_matches_the_structural_walk_for_all_three_model_shapes() {
    let (data, _) = fixture();
    let row = data.row(7).to_vec();
    let req = ExplainRequest::new(&data).instance(&row).plan(RunConfig::seeded(3));

    let tree = DecisionTree::fit(data.x(), data.y(), TreeConfig::default());
    let got = attribution(TreeShapMethod.explain(&tree, &req).unwrap());
    assert_eq!(got.values, tree_shap(&tree, &row));
    assert_eq!(got.baseline, tree_expected_value(&tree));

    let forest = RandomForest::fit(data.x(), data.y(), Default::default());
    let got = attribution(TreeShapMethod.explain(&forest, &req).unwrap());
    let legacy = forest_shap(&forest, &row);
    assert_eq!(got.values, legacy.phi);

    let gbdt = Gbdt::fit(data.x(), data.y(), GbdtConfig::default());
    let got = attribution(TreeShapMethod.explain(&gbdt, &req).unwrap());
    let legacy = gbdt_shap(&gbdt, &row);
    assert_eq!(got.values, legacy.phi);
    assert_eq!(got.baseline, legacy.expected_value);
}

#[test]
fn lime_and_sp_lime_match_their_legacy_entry_points() {
    let (data, model) = fixture();
    let row = data.row(9).to_vec();
    let cfg = LimeConfig { n_samples: 120, ..LimeConfig::default() };
    let explainer = LimeExplainer::fit(&data);
    let f = proba_fn(&model);

    // The model's batch surface matches its scalar one row for row, so
    // batched and scalar plans share the sequential reference draw.
    let reference = explainer.try_explain(&f, &row, cfg, 31).unwrap();
    for batched in [false, true] {
        // Batched runs and single-worker scalar runs reproduce the
        // sequential draw exactly; `workers > 1` on the scalar path takes
        // the chunk grid (a different draw schedule), which must be
        // worker-count invariant.
        let mut parallel_runs = Vec::new();
        for workers in WORKER_GRID {
            let req = ExplainRequest::new(&data)
                .instance(&row)
                .plan(RunConfig::seeded(31).with_workers(workers).with_batched(batched));
            let got =
                attribution(LimeMethod { config: cfg }.explain(&model, &req).unwrap());
            if batched || workers == 1 {
                assert_eq!(got.values, reference.attribution.values, "batched={batched}");
            } else {
                parallel_runs.push(got.values);
            }
        }
        for w in parallel_runs.windows(2) {
            assert_eq!(w[0], w[1], "parallel LIME must be worker-count invariant");
        }
    }

    let pick = xai::surrogate::sp_lime(&explainer, &f, &data, 20, 4, cfg, 31);
    let method = SpLimeMethod { n_candidates: 20, picks: 4, config: cfg };
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(31));
    let got = attribution(method.explain(&model, &req).unwrap());
    assert_eq!(got.values, pick.feature_importance);
}

#[test]
fn pdp_curves_match_the_legacy_functions_in_both_modes() {
    let (data, model) = fixture();
    let f = proba_fn(&model);
    let method = PdpMethod { points: 8, max_rows: 60, keep_ice: true };
    let grid = xai::surrogate::feature_grid(&data, 1, 8);
    let reference = xai::surrogate::try_partial_dependence(&f, &data, 1, &grid, 60, true);
    let reference = reference.unwrap();

    for batched in [false, true] {
        let req = ExplainRequest::new(&data)
            .feature(1)
            .plan(RunConfig::seeded(0).with_batched(batched));
        let got = method.explain(&model, &req).unwrap();
        let curve = match got {
            Explanation::Curve(c) => c,
            other => panic!("expected a curve, got {other:?}"),
        };
        assert_eq!(curve.grid, reference.grid, "batched={batched}");
        assert_eq!(curve.values, reference.pdp, "batched={batched}");
        assert_eq!(curve.ice, reference.ice, "batched={batched}");
    }
}

#[test]
fn integrated_gradients_matches_the_saliency_path_integral() {
    let (data, model) = fixture();
    let row = data.row(4).to_vec();

    struct Adapter<'a>(&'a LogisticRegression);
    impl xai::surrogate::Differentiable for Adapter<'_> {
        fn output(&self, x: &[f64]) -> f64 {
            ModelOracle::predict(self.0, x)
        }
        fn input_gradient(&self, x: &[f64]) -> Vec<f64> {
            ModelOracle::gradient(self.0, x).unwrap()
        }
    }

    let baseline: Vec<f64> = (0..data.x().cols())
        .map(|j| {
            let col = data.x().col(j);
            col.iter().sum::<f64>() / col.len() as f64
        })
        .collect();
    let legacy =
        xai::surrogate::integrated_gradients(&Adapter(&model), &row, &baseline, 32);
    for workers in WORKER_GRID {
        let req = ExplainRequest::new(&data)
            .instance(&row)
            .plan(RunConfig::seeded(0).with_workers(workers));
        let got = attribution(
            IntegratedGradientsMethod { steps: 32 }.explain(&model, &req).unwrap(),
        );
        assert_eq!(got.values, legacy.values, "IG must ignore the worker count");
    }
}

#[test]
fn counterfactual_searches_match_their_legacy_twins_across_workers() {
    let (data, model) = fixture();
    use xai_models::Classifier;
    let row = (0..data.n_rows())
        .map(|i| data.row(i))
        .find(|r| model.proba_one(r) < 0.5)
        .expect("a rejected applicant exists")
        .to_vec();
    let f = proba_fn(&model);

    // Wachter: deterministic descent, plan-invariant.
    let w = xai::counterfactual::try_wachter_counterfactual(
        &model,
        &data,
        &row,
        Default::default(),
    )
    .unwrap();
    for workers in WORKER_GRID {
        let req = ExplainRequest::new(&data)
            .instance(&row)
            .plan(RunConfig::seeded(2).with_workers(workers));
        let got = WachterMethod::default().explain(&model, &req).unwrap();
        assert_eq!(got.as_counterfactuals().unwrap()[0].counterfactual, w.counterfactual);
    }

    // GeCo and DiCE: workers == 1 is the sequential reference search;
    // workers > 1 runs the multi-start search and the candidate pool,
    // which must be worker-count invariant.
    let plaf = Plaf::from_schema(&data);
    let dice = DiceExplainer::fit(&data);
    let mut parallel_runs = Vec::new();
    for workers in WORKER_GRID {
        let req = ExplainRequest::new(&data)
            .instance(&row)
            .plan(RunConfig::seeded(6).with_workers(workers));
        let geco = GecoMethod::default().explain(&model, &req).unwrap();
        let dice_set = DiceMethod::default().explain(&model, &req).unwrap();
        if workers > 1 {
            parallel_runs.push((geco.to_json_string(), dice_set.to_json_string()));
            continue;
        }
        let geco_reference =
            xai::counterfactual::try_geco(&f, &data, &row, &plaf, GecoConfig::default(), 6);
        let geco_cf = &geco.as_counterfactuals().unwrap()[0].counterfactual;
        assert_eq!(geco_cf, &geco_reference.unwrap().counterfactual);
        let dice_reference = dice.try_generate(&f, &row, DiceConfig::default(), 6).unwrap();
        let got_cfs = dice_set.as_counterfactuals().unwrap();
        assert_eq!(got_cfs.len(), dice_reference.len());
        for (a, b) in got_cfs.iter().zip(&dice_reference) {
            assert_eq!(a.counterfactual, b.counterfactual);
        }
    }
    assert_eq!(parallel_runs[0], parallel_runs[1], "GeCo/DiCE diverged across worker counts");
}

#[test]
fn rule_methods_match_their_legacy_entry_points() {
    let (data, model) = fixture();
    let row = data.row(0).to_vec();
    let f = proba_fn(&model);

    let anchors = AnchorsExplainer::fit(&data);
    let legacy = anchors.explain(&f, &row, AnchorsConfig::default(), 13);
    let req = ExplainRequest::new(&data).instance(&row).plan(RunConfig::seeded(13));
    let got = AnchorsMethod::default().explain(&model, &req).unwrap();
    let rule = &got.as_rules().unwrap()[0];
    assert_eq!(rule.conditions.len(), legacy.conditions.len());
    assert_eq!(rule.prediction, legacy.prediction);

    use xai_models::Classifier;
    let labels: Vec<f64> = (0..data.n_rows())
        .map(|i| f64::from(model.proba_one(data.row(i)) >= 0.5))
        .collect();
    let ds = DecisionSet::fit(&data, &labels, IdsConfig::default());
    let got = DecisionSetMethod::default().explain(&model, &req).unwrap();
    assert_eq!(got.as_rules().unwrap().len(), ds.rules().len());
}

#[test]
fn valuation_methods_match_their_legacy_twins_across_workers() {
    let data = xai::data::synth::german_credit(40, 77);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    let test = xai::data::synth::german_credit(20, 78);
    let utility = xai::datavalue::KnnUtility::new(&data, &test, 3);

    let tmc_cfg = TmcConfig { permutations: 6, seed: 19, ..TmcConfig::default() };
    let bz_cfg = xai::datavalue::BanzhafConfig { samples_per_point: 8, seed: 19 };
    let mut parallel_runs = Vec::new();
    for workers in WORKER_GRID {
        let req = ExplainRequest::new(&data)
            .utility(&utility)
            .plan(RunConfig::seeded(19).with_workers(workers));

        // LOO draws nothing: its chunk grid and sequential sweep agree.
        let got = LooMethod.explain(&model, &req).unwrap();
        let loo = xai::datavalue::leave_one_out(&utility).values;
        assert_eq!(got.as_valuation().unwrap().values, loo);

        let tmc = TmcMethod { config: tmc_cfg }.explain(&model, &req).unwrap();
        let banzhaf = BanzhafMethod { config: bz_cfg }.explain(&model, &req).unwrap();
        if workers > 1 {
            let values = |e: &Explanation| e.as_valuation().unwrap().values.clone();
            parallel_runs.push((values(&tmc), values(&banzhaf)));
            continue;
        }
        assert_eq!(
            tmc.as_valuation().unwrap().values,
            tmc_shapley(&utility, tmc_cfg).attribution.values,
            "TMC diverged from the sequential reference"
        );
        assert_eq!(
            banzhaf.as_valuation().unwrap().values,
            xai::datavalue::data_banzhaf(&utility, bz_cfg).values,
            "Banzhaf diverged from the sequential reference"
        );
    }
    assert_eq!(parallel_runs[0], parallel_runs[1], "TMC/Banzhaf diverged across worker counts");
}

#[test]
fn complaint_debugging_matches_the_legacy_influence_ranking() {
    let (data, model) = fixture();
    let query = xai::provenance::PredicateCountQuery::new(&data, |_| true);
    let legacy = xai::provenance::complaint_influence(
        &model,
        &data,
        &query,
        xai::provenance::Complaint::TooHigh,
    );
    for workers in WORKER_GRID {
        let req = ExplainRequest::new(&data).plan(RunConfig::seeded(0).with_workers(workers));
        let got = ComplaintMethod::default().explain(&model, &req).unwrap();
        assert_eq!(got.as_valuation().unwrap().values, legacy.values);
    }
}

#[test]
fn zero_count_configs_are_unsupported_on_every_layout() {
    let (data, model) = fixture();
    let bg = background(&data, 10);
    let row = data.row(1).to_vec();
    let valuation = xai::data::synth::german_credit(12, 77);
    let utility = xai::datavalue::KnnUtility::new(&valuation, &valuation, 3);
    let tiny_lime = LimeConfig { n_samples: 7, ..LimeConfig::default() };

    let local = ExplainRequest::new(&data).instance(&row).background(&bg);
    let global = ExplainRequest::new(&data);
    let valued = ExplainRequest::new(&valuation).utility(&utility);
    let no_coalitions = KernelShapConfig { max_coalitions: 0, ..KernelShapConfig::default() };
    let no_walks = TmcConfig { permutations: 0, ..TmcConfig::default() };
    let no_draws = xai::datavalue::BanzhafConfig { samples_per_point: 0, seed: 0 };
    let sp_lime = |picks, config| SpLimeMethod { n_candidates: 4, picks, config };
    let cases: Vec<(Box<dyn Explainer>, ExplainRequest<'_>)> = vec![
        (Box::new(KernelShapMethod { config: no_coalitions }), local),
        (Box::new(PermutationShapleyMethod { permutations: 0 }), local),
        (Box::new(LimeMethod { config: LimeConfig { n_samples: 0, ..tiny_lime } }), local),
        (Box::new(LimeMethod { config: tiny_lime }), local),
        (Box::new(sp_lime(0, LimeConfig::default())), global),
        (Box::new(sp_lime(2, tiny_lime)), global),
        (Box::new(TmcMethod { config: no_walks }), valued),
        (Box::new(BanzhafMethod { config: no_draws }), valued),
    ];
    for (method, req) in cases {
        let name = method.card().name;
        for workers in [1, 2] {
            let req = req.plan(RunConfig::seeded(3).with_workers(workers));
            let err = method.explain(&model, &req).unwrap_err();
            assert!(
                matches!(err, XaiError::Unsupported { .. }),
                "{name} workers={workers}: {err}"
            );
            let shardable = method.as_shardable().expect("sampled methods are shardable");
            let err = xai::core::backend::dispatch_local(shardable, &model, &req, 2).unwrap_err();
            assert!(matches!(err, XaiError::Unsupported { .. }), "{name} sharded: {err}");
        }
    }
}
