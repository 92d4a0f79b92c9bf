//! Zero-copy masked-evaluation equivalence harness (DESIGN.md §12).
//!
//! The masked coalition path (`ModelOracle::predict_masked` →
//! `MaskedPredictionGame`, optionally wrapped in the cross-request
//! `MemoGame`) is a *performance* feature: it must change wall-clock time
//! and nothing else. This suite pins that contract:
//!
//! - for every model family and every mask pattern (empty, full, each
//!   singleton, seeded random coalitions), the masked game's values are
//!   **bit-identical** to the materializing `BatchPredictionGame` and to
//!   the scalar `PredictionGame`;
//! - the shared `CoalitionMemo` is invisible: memo-on equals memo-off
//!   bitwise through the unified explainers, cold and warm, and the
//!   counters prove the warm run was actually served from the memo;
//! - under serve concurrency, repeated traffic against a memo-enabled
//!   service stays byte-identical to a memo-disabled service and to the
//!   direct `Explainer::explain` twin.

mod common;

use std::sync::Arc;

use xai::core::memo::{CoalitionMemo, GameKey, MemoHandle};
use xai::core::{ExplainRequest, Explainer, ModelOracle, RunConfig};
use xai::prelude::*;
use xai_linalg::Matrix;
use xai_models::{
    persisted_bytes, proba_fn, regress_fn, DecisionTree, ForestConfig, GaussianNb, Gbdt,
    GbdtConfig, GbdtLoss, Knn, LinearConfig, LinearRegression, LogisticConfig, LogisticRegression,
    Mlp, MlpConfig, MlpTask, RandomForest, TreeConfig,
};
use xai_rand::rngs::StdRng;
use xai_rand::{Rng, SeedableRng};
use xai_shapley::{
    BatchGame, BatchPredictionGame, MaskedPredictionGame, MemoGame, PredictionGame,
};

fn credit() -> Dataset {
    xai::data::synth::german_credit(90, 5)
}

fn background(data: &Dataset) -> Matrix {
    Matrix::from_fn(6, data.n_features(), |i, j| data.x()[(i, (i + j) % data.n_features())])
}

/// Empty, grand, every singleton, and eight seeded random coalitions.
fn mask_patterns(d: usize) -> Vec<Vec<bool>> {
    let mut coalitions = vec![vec![false; d], vec![true; d]];
    for i in 0..d {
        let mut c = vec![false; d];
        c[i] = true;
        coalitions.push(c);
    }
    let mut rng = StdRng::seed_from_u64(0xC0A1);
    for _ in 0..8 {
        coalitions.push((0..d).map(|_| rng.gen::<bool>()).collect());
    }
    coalitions
}

/// The core property: for one model, masked evaluation equals the
/// materialized batch game and the scalar game bit-for-bit on every mask
/// pattern, with and without the cross-request memo (cold and warm).
fn assert_masked_bit_identical<F>(name: &str, oracle: &dyn ModelOracle, f: &F, data: &Dataset)
where
    F: Fn(&[f64]) -> f64,
{
    let bg = background(data);
    let instance = data.row(11);
    let coalitions = mask_patterns(instance.len());

    let scalar_game = PredictionGame::new(f, instance, &bg);
    let bf = |m: &Matrix| oracle.predict_batch(m);
    let batch_game = BatchPredictionGame::new(&bf, instance, &bg);
    let masked_game = MaskedPredictionGame::new(oracle, instance, &bg);

    let scalar: Vec<f64> = coalitions.iter().map(|c| scalar_game.value(c)).collect();
    let batched = batch_game.values(&coalitions);
    let masked = masked_game.values(&coalitions);
    assert_eq!(masked, batched, "{name}: masked diverged from materialized batch");
    assert_eq!(masked, scalar, "{name}: masked diverged from scalar");

    // Memo wrap: cold pass computes, warm pass is served entirely from
    // the memo — both bit-identical to the unwrapped game.
    let memo = CoalitionMemo::new(1 << 14);
    let key = GameKey::derive(7, &bg, instance);
    let memoized = MemoGame::new(&masked_game, &memo, key);
    let cold = memoized.values(&coalitions);
    assert_eq!(cold, masked, "{name}: cold memo pass diverged");
    let before = memo.stats();
    let warm = memoized.values(&coalitions);
    assert_eq!(warm, masked, "{name}: warm memo pass diverged");
    let after = memo.stats();
    assert_eq!(
        after.hits - before.hits,
        coalitions.len() as u64,
        "{name}: warm pass must be all memo hits"
    );
}

#[test]
fn linear_and_logistic_masked_paths_are_bit_identical() {
    let data = credit();
    let linear = LinearRegression::fit(data.x(), data.y(), LinearConfig::default()).unwrap();
    assert_masked_bit_identical("linear", &linear, &regress_fn(&linear), &data);

    let logistic = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    assert_masked_bit_identical("logistic", &logistic, &proba_fn(&logistic), &data);
}

#[test]
fn tree_ensemble_masked_paths_are_bit_identical() {
    let data = credit();
    let tree =
        DecisionTree::fit(data.x(), data.y(), TreeConfig { max_depth: 5, ..Default::default() });
    assert_masked_bit_identical("tree", &tree, &proba_fn(&tree), &data);

    let forest = RandomForest::fit(
        data.x(),
        data.y(),
        ForestConfig { n_trees: 8, seed: 2, ..Default::default() },
    );
    assert_masked_bit_identical("forest", &forest, &proba_fn(&forest), &data);

    for loss in [GbdtLoss::Logistic, GbdtLoss::Squared] {
        let gbdt =
            Gbdt::fit(data.x(), data.y(), GbdtConfig { n_rounds: 10, loss, ..Default::default() });
        assert_masked_bit_identical("gbdt", &gbdt, &proba_fn(&gbdt), &data);
    }
}

/// `predict_masked` against `predict_batch` on every materialized
/// coalition view, bit for bit (so `-0.0` and NaN count), for an empty
/// round, a one-mask round and the whole `masks` round. `out` starts with
/// stale contents the call must clear.
fn assert_rounds_bit_identical(
    name: &str,
    oracle: &dyn ModelOracle,
    instance: &[f64],
    bg: &Matrix,
    masks: &[u64],
) {
    let (b, d) = bg.shape();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for round in [&masks[..0], &masks[..1], masks] {
        let mut out = vec![f64::NAN; 3];
        oracle.predict_masked(instance, bg, round, &mut out);
        let mut want = Vec::new();
        for &mask in round {
            let view = Matrix::from_fn(b, d, |i, j| {
                if mask >> j & 1 == 1 { instance[j] } else { bg[(i, j)] }
            });
            want.extend(oracle.predict_batch(&view));
        }
        assert_eq!(bits(&out), bits(&want), "{name}: round of {} masks diverged", round.len());
    }
}

/// The empty and grand coalitions, every singleton, and 16 seeded random
/// coalitions over `d` features.
fn edge_masks(d: usize) -> Vec<u64> {
    let all = (1u64 << d) - 1;
    let mut masks = vec![0, all];
    masks.extend((0..d).map(|j| 1u64 << j));
    let mut rng = StdRng::seed_from_u64(0x5E75);
    masks.extend((0..16).map(|_| rng.gen::<u64>() & all));
    masks
}

/// Row-set routing edge cases for the tree, forest and GBDT kernels:
/// backgrounds past one and two 64-row words, depth-10 trees, instance
/// and background values sitting exactly on split thresholds, and NaN
/// on either side (it compares false, so it routes right).
#[test]
fn tree_ensembles_route_wide_deep_and_edge_backgrounds_bit_identically() {
    let data = xai::data::synth::german_credit(400, 21);
    let d = data.n_features();
    let deep = TreeConfig { max_depth: 10, ..Default::default() };
    let tree = DecisionTree::fit(data.x(), data.y(), deep);
    assert!(tree.depth() > 6, "depth {}", tree.depth());
    let forest = RandomForest::fit(
        data.x(),
        data.y(),
        ForestConfig { n_trees: 6, tree: deep, seed: 3, ..Default::default() },
    );
    let gbdts: Vec<Gbdt> = [GbdtLoss::Logistic, GbdtLoss::Squared]
        .into_iter()
        .map(|loss| {
            let tree =
                TreeConfig { max_depth: 10, min_samples_leaf: 2, ..GbdtConfig::default().tree };
            let config = GbdtConfig { n_rounds: 8, tree, loss, ..Default::default() };
            Gbdt::fit(data.x(), data.y(), config)
        })
        .collect();

    // Every (feature, threshold) split of every tree.
    let mut splits = Vec::new();
    let all_trees = std::iter::once(&tree)
        .chain(forest.trees())
        .chain(gbdts.iter().flat_map(|g| g.trees()));
    for t in all_trees {
        splits.extend(t.nodes().iter().filter(|n| !n.is_leaf()).map(|n| (n.feature, n.threshold)));
    }

    let instance = data.row(3).to_vec();
    let mut on_threshold = instance.clone();
    for &(f, t) in splits.iter().step_by(3) {
        on_threshold[f] = t;
    }
    let mut with_nan = instance.clone();
    with_nan[splits[0].0] = f64::NAN;
    with_nan[splits[1].0] = f64::NAN;

    let masks = edge_masks(d);
    for rows in [130usize, 150] {
        let mut bg = Matrix::from_fn(rows, d, |i, j| data.x()[(i + 40, j)]);
        for i in 0..rows {
            let (f, t) = splits[i % splits.len()];
            bg[(i, f)] = t;
            if i % 7 == 3 {
                bg[(i, splits[(i + 1) % splits.len()].0)] = f64::NAN;
            }
        }
        let instances = [("plain", &instance), ("on_threshold", &on_threshold), ("nan", &with_nan)];
        for (which, x) in instances {
            let name = |family: &str| format!("{family}/{rows} rows/{which} instance");
            assert_rounds_bit_identical(&name("tree"), &tree, x, &bg, &masks);
            assert_rounds_bit_identical(&name("forest"), &forest, x, &bg, &masks);
            for gbdt in &gbdts {
                assert_rounds_bit_identical(&name("gbdt"), gbdt, x, &bg, &masks);
            }
        }
    }
}

/// A lone tree *writes* its leaf value, as `predict_batch` does, so a
/// `-0.0` leaf reads `-0.0` (adding it to `0.0` would give `+0.0`); a
/// one-tree GBDT sums from `0.0` like its batch path.
#[test]
fn a_single_tree_keeps_a_negative_zero_leaf() {
    use xai_models::{SplitCriterion, TreeNode};
    let leaf = |value: f64| TreeNode {
        feature: 0,
        threshold: 0.0,
        left: None,
        right: None,
        value,
        cover: 1.0,
    };
    let root = TreeNode { left: Some(1), right: Some(2), feature: 1, threshold: 0.5, ..leaf(0.5) };
    let nodes = vec![root, leaf(-0.0), leaf(1.0)];
    let tree = DecisionTree::from_parts(nodes, 3, SplitCriterion::Variance);
    let bg = Matrix::from_fn(70, 3, |i, j| (i * 3 + j) as f64 % 2.0);
    let instance = [0.0, 0.0, 1.0];
    let masks = [0b010, 0b000, 0b111, 0b101];

    let mut out = Vec::new();
    tree.predict_masked(&instance, &bg, &masks[..1], &mut out);
    let negative_zero = (-0.0f64).to_bits();
    assert!(out.iter().all(|v| v.to_bits() == negative_zero), "instance routes left: {out:?}");
    assert_rounds_bit_identical("tree/-0.0 leaf", &tree, &instance, &bg, &masks);

    let gbdt = Gbdt::from_parts(0.0, 1.0, vec![tree], GbdtLoss::Squared, 3);
    assert_rounds_bit_identical("gbdt/-0.0 leaf", &gbdt, &instance, &bg, &masks);
}

#[test]
fn knn_naive_bayes_mlp_and_closure_masked_paths_are_bit_identical() {
    let data = credit();
    // k-NN and naive Bayes ride the default gather-into-scratch path.
    let knn = Knn::fit(data.x(), data.y(), 3);
    assert_masked_bit_identical("knn", &knn, &proba_fn(&knn), &data);

    let nb = GaussianNb::fit(data.x(), data.y());
    assert_masked_bit_identical("naive_bayes", &nb, &proba_fn(&nb), &data);

    for task in [MlpTask::Classification, MlpTask::Regression] {
        let mlp = Mlp::fit(
            data.x(),
            data.y(),
            MlpConfig { hidden: 6, epochs: 3, task, seed: 4, ..Default::default() },
        );
        assert_masked_bit_identical("mlp", &mlp, &proba_fn(&mlp), &data);
    }

    // A pure-closure oracle has no masked kernel at all: the blanket
    // default must still be bit-identical.
    let f = |x: &[f64]| (x[0] * 0.01 - x[3] * 0.0002).tanh() + x[6] * 0.1;
    let oracle = xai::core::FnOracle::new(data.n_features(), f);
    assert_masked_bit_identical("closure", &oracle, &f, &data);
}

/// Memo-on vs memo-off through the unified explainers: attaching a
/// `MemoHandle` to the request must not change a single bit of the
/// attribution, cold or warm, sequential or parallel.
#[test]
fn unified_dispatch_is_memo_invariant() {
    let data = credit();
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    let row = data.row(0).to_vec();
    let memo = CoalitionMemo::new(1 << 14);
    let handle = MemoHandle { memo: &memo, model_fingerprint: 42 };

    for workers in [1usize, 2, 4] {
        let plan = RunConfig::seeded(9).with_workers(workers).with_batched(true);
        for method in [
            &KernelShapMethod::default() as &dyn Explainer,
            &PermutationShapleyMethod { permutations: 16 },
        ] {
            let req = ExplainRequest::new(&data).instance(&row).plan(plan);
            let plain = method.explain(&model, &req).unwrap();
            let cold = method.explain(&model, &req.memo(handle)).unwrap();
            let req = ExplainRequest::new(&data).instance(&row).plan(plan);
            let warm = method.explain(&model, &req.memo(handle)).unwrap();
            let plain = plain.as_attribution().unwrap();
            assert_eq!(plain.values, cold.as_attribution().unwrap().values);
            assert_eq!(plain.values, warm.as_attribution().unwrap().values);
        }
    }
    let stats = memo.stats();
    assert!(stats.hits > 0, "warm unified runs must hit the shared memo");
    assert!(stats.entries > 0, "unified runs must populate the shared memo");
}

/// Serve concurrency soak: hammer a memo-enabled service with repeated
/// batched coalition traffic across a worker pool and demand every
/// payload stays byte-identical to (a) the direct explain twin, and
/// (b) a memo-disabled service — while the stats prove the memo worked.
#[test]
fn serve_soak_is_memo_invariant_and_hits_the_memo() {
    let credit = xai::data::synth::german_credit(60, 77);
    let model =
        Arc::new(LogisticRegression::fit(credit.x(), credit.y(), LogisticConfig::default()));
    let instance = credit.row(7).to_vec();

    let build = |memo_capacity: usize| {
        let service = ExplanationService::new(
            common::cheap_registry(),
            ServiceConfig { workers: 4, queue_capacity: 256, cache_capacity: 0, memo_capacity },
        );
        service.register_model("credit", model.clone(), credit.clone(), &persisted_bytes(&*model));
        service
    };
    let memoized = build(1 << 14);
    let plain = build(0);

    let mut requests = Vec::new();
    for seed in 0..4u64 {
        for method in ["Kernel SHAP", "Permutation sampling Shapley"] {
            requests.push(
                ServeRequest::new(method, "credit")
                    .with_instance(&instance)
                    .with_plan(RunConfig::seeded(seed).with_batched(true)),
            );
        }
    }

    // Three rounds of identical traffic: with the result cache disabled,
    // every submission re-executes, so rounds 2 and 3 replay the same
    // coalitions straight into the shared memo.
    for round in 0..3 {
        for request in &requests {
            let a = memoized.submit(request).unwrap().payload;
            let b = plain.submit(request).unwrap().payload;
            assert_eq!(a, b, "round {round}: memo-enabled service diverged");
        }
    }

    let stats = memoized.stats();
    assert_eq!(stats.memo_hits + stats.memo_misses > 0, true, "memo was consulted");
    assert!(stats.memo_hits > 0, "repeat traffic must hit the memo: {stats:?}");
    assert!(memoized.memo_len() > 0, "memo must hold coalition values");
    let plain_stats = plain.stats();
    assert_eq!(plain_stats.memo_hits, 0, "capacity-0 memo must never hit");
    assert_eq!(plain_stats.memo_evictions, 0);
}
