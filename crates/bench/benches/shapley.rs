//! Timing benches for the Shapley estimators (experiments E1/E3 in timing
//! form), plus the parallel-vs-sequential Monte-Carlo comparison. Plain
//! binaries on `xai_bench::timing` — run with `cargo bench -p xai-bench`.

use xai_bench::timing::Group;
use xai_core::backend::dispatch_local;
use xai_core::{CoalitionMemo, ExplainRequest, FnOracle, GameKey, ModelOracle, RunConfig};
use xai_data::synth::{correlated_gaussian, friedman1, german_credit};
use xai_models::{
    proba_fn, Classifier, DecisionTree, Gbdt, GbdtConfig, GbdtLoss, LogisticConfig,
    LogisticRegression, SplitCriterion, TreeConfig,
};
use xai_rand::parallel::default_workers;
use xai_shapley::{
    brute_force_tree_shap, exact_shapley, gbdt_shap, kernel_shap, permutation_shapley, tree_shap,
    BatchPredictionGame, KernelShapConfig, MaskedPredictionGame, MemoGame,
    PermutationShapleyMethod, PredictionGame,
};

/// E1: exact enumeration cost doubles per feature; samplers stay flat.
fn bench_exact_vs_samplers() {
    let data = german_credit(200, 1);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    let mut group = Group::new("shapley_scaling");
    for d in [6usize, 9] {
        let fm = proba_fn(&model);
        let wide = move |x: &[f64]| {
            let folded: Vec<f64> = (0..9).map(|j| x[j % x.len()]).collect();
            fm(&folded)
        };
        let background =
            xai_linalg::Matrix::from_fn(8, d, |i, j| data.x()[(i, (i + j) % data.n_features())]);
        let instance: Vec<f64> = (0..d).map(|j| data.x()[(40, j % data.n_features())]).collect();
        let game = PredictionGame::new(&wide, &instance, &background);
        group.bench(&format!("exact/{d}"), || exact_shapley(&game));
        group.bench(&format!("permutation200/{d}"), || permutation_shapley(&game, 200, 3));
        group.bench(&format!("kernel512/{d}"), || {
            kernel_shap(&game, KernelShapConfig { max_coalitions: 512, ..Default::default() })
        });
    }
    group.finish();
}

/// Scalar vs. batched vs. masked Kernel SHAP on the same
/// wide-folded-logistic configuration as `shapley_scaling`'s `kernel512`
/// entries. The batched path materializes each coalition round into one
/// matrix and runs the model through the blocked `xai_linalg` kernels;
/// the cached variant adds the per-call coalition memo on top. The
/// `masked/` variants skip materialization entirely (DESIGN.md §12):
/// coalitions travel as `u64` masks into `ModelOracle::predict_masked`
/// (at d = 9 the logistic model's masked affine kernel; at d = 6 the
/// arena-backed gather fallback behind a closure oracle), and
/// `masked_memo/` layers the cross-request `CoalitionMemo`, warm across
/// samples. Emits `kernel_shap_batched.json` — the primary input to
/// `scripts/bench_gate.sh`.
fn bench_kernel_shap_batched() {
    let data = german_credit(200, 1);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    let n_features = data.n_features();
    let mut group = Group::new("kernel_shap_batched");
    let mut speedups = Vec::new();
    for d in [6usize, 9] {
        let fm = proba_fn(&model);
        let wide = move |x: &[f64]| {
            let folded: Vec<f64> = (0..9).map(|j| x[j % x.len()]).collect();
            fm(&folded)
        };
        let model_ref = &model;
        let wide_batched = move |m: &xai_linalg::Matrix| {
            // `wide` above, vectorized: fold each row to 9 dims (a memcpy of
            // the first d columns plus the wrapped remainder). At d = 9 the
            // fold is the identity, so the probe matrix passes through.
            if d == 9 {
                return model_ref.proba_batch(m);
            }
            let mut folded = xai_linalg::Matrix::zeros(m.rows(), 9);
            for i in 0..m.rows() {
                let src = m.row(i);
                let dst = folded.row_mut(i);
                dst[..d].copy_from_slice(src);
                for j in d..9 {
                    dst[j] = src[j % d];
                }
            }
            model_ref.proba_batch(&folded)
        };
        let background =
            xai_linalg::Matrix::from_fn(8, d, |i, j| data.x()[(i, (i + j) % n_features)]);
        let instance: Vec<f64> = (0..d).map(|j| data.x()[(40, j % n_features)]).collect();
        let game = PredictionGame::new(&wide, &instance, &background);
        let batch_game = BatchPredictionGame::new(&wide_batched, &instance, &background);
        let cfg = KernelShapConfig { max_coalitions: 512, ..Default::default() };
        let scalar = group.bench(&format!("scalar/{d}"), || kernel_shap(&game, cfg));
        let batched = group.bench(&format!("batched/{d}"), || kernel_shap(&batch_game, cfg));
        // Warm memo across samples: after the first run every coalition hits.
        let game_key = GameKey::derive(1, &background, &instance);
        let cached_memo = CoalitionMemo::new(1 << 14);
        let cached_game = MemoGame::new(&batch_game, &cached_memo, game_key);
        group.bench(&format!("batched_cached/{d}"), || kernel_shap(&cached_game, cfg));
        // Zero-copy masked path: at d = 9 the fold is the identity, so the
        // logistic model itself is the oracle and coalitions run straight
        // through its masked affine kernel; at d = 6 the fold closure has
        // no masked kernel and rides the arena-backed gather default.
        let fold_oracle = FnOracle::new(d, &wide);
        let oracle: &dyn ModelOracle = if d == 9 { model_ref } else { &fold_oracle };
        let masked_game = MaskedPredictionGame::new(oracle, &instance, &background);
        let masked = group.bench(&format!("masked/{d}"), || kernel_shap(&masked_game, cfg));
        // Warm cross-request memo, shared across samples like the one above.
        let memo = CoalitionMemo::new(1 << 14);
        let memo_game = MemoGame::new(&masked_game, &memo, game_key);
        group.bench(&format!("masked_memo/{d}"), || kernel_shap(&memo_game, cfg));
        speedups.push((
            d,
            scalar.as_secs_f64() / batched.as_secs_f64(),
            batched.as_secs_f64() / masked.as_secs_f64(),
        ));
    }
    group.finish();
    for (d, batched, masked) in speedups {
        println!("  batched vs scalar at d={d}: {batched:.2}x; masked vs batched: {masked:.2}x");
    }
}

/// Masked GBDT coalition evaluation at the serving benchmark's
/// `attribution` shape: 30 boosting rounds of depth 3 on a 16-feature
/// table, a 48-row background, and 128 coalition masks in rounds of 1
/// and of 128 through `ModelOracle::predict_masked` (the row-set routing kernel,
/// DESIGN.md §12). Also prints the cost per masked row.
fn bench_masked_gbdt() {
    const WEIGHTS: [f64; 16] = [
        1.5, -1.2, 0.9, -0.7, 0.6, -0.5, 0.4, -0.3, 0.3, -0.2, 0.2, -0.1, 0.1, 0.05, -0.05, 0.0,
    ];
    let table = correlated_gaussian(2100, &WEIGHTS, 0.4, -2.5, 7);
    let train = table.subset(&(0..2000).collect::<Vec<_>>());
    let config = GbdtConfig { n_rounds: 30, ..GbdtConfig::default() };
    let gbdt = Gbdt::fit(train.x(), train.y(), config);
    let background = table.subset(&(2000..2048).collect::<Vec<_>>());
    let background = background.x();
    let instance = table.row(2050).to_vec();
    let mut rng = xai_rand::SplitMix64::new(0x3a5c);
    let masks: Vec<u64> = (0..128).map(|_| rng.next() & 0xffff).collect();
    let mut group = Group::new("masked_gbdt");
    let mut out = Vec::new();
    for n in [1usize, 128] {
        // Every sample scores all 128 masks: 128 one-mask calls, or one
        // 128-mask call.
        let t = group.bench(&format!("predict_masked/{n}"), || {
            for round in masks.chunks(n) {
                ModelOracle::predict_masked(&gbdt, &instance, background, round, &mut out);
            }
            out.len()
        });
        let rows = (masks.len() * background.rows()) as f64;
        println!("  {n} mask(s): {:.1} ns per masked row", t.as_secs_f64() * 1e9 / rows);
    }
    group.finish();
}

/// The tentpole measurement: 1000-permutation Monte-Carlo Shapley,
/// the sequential layout vs. the chunk grid that `workers > 1` plans run
/// (`dispatch_local`), on one executor thread and at the machine's worker
/// count. Prints the speedup; on a single-core host the two are expected
/// to tie (modulo thread overhead).
fn bench_parallel_mc_shapley() {
    let data = german_credit(200, 1);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    let d = data.n_features();
    let fm = proba_fn(&model);
    let background = xai_linalg::Matrix::from_fn(12, d, |i, j| data.x()[(i, j)]);
    let instance: Vec<f64> = data.row(40).to_vec();
    let game = PredictionGame::new(&fm, &instance, &background);
    let workers = default_workers();
    let method = PermutationShapleyMethod { permutations: 1000 };
    let chunk_grid = |workers: usize| {
        let req = ExplainRequest::new(&data)
            .instance(&instance)
            .background(&background)
            .plan(RunConfig::seeded(3).with_workers(workers));
        dispatch_local(&method, &model, &req, workers)
    };

    let mut group = Group::new("mc_shapley_1k").samples(7);
    let seq = group.bench("sequential_1000perms", || permutation_shapley(&game, 1000, 3));
    let par1 = group.bench("parallel_1worker", || chunk_grid(1));
    let parn = group.bench(&format!("parallel_{workers}workers"), || chunk_grid(workers));
    group.finish();
    println!(
        "  speedup vs sequential: {:.2}x ({workers} workers, {} cores)",
        seq.as_secs_f64() / parn.as_secs_f64(),
        default_workers(),
    );
    println!("  executor overhead at 1 worker: {:.2}x", par1.as_secs_f64() / seq.as_secs_f64());
}

/// E3: TreeSHAP vs brute force on a single tree.
fn bench_treeshap() {
    let data = friedman1(500, 3, 0.2);
    let tree = DecisionTree::fit(
        data.x(),
        data.y(),
        TreeConfig {
            max_depth: 6,
            criterion: SplitCriterion::Variance,
            min_samples_leaf: 5,
            ..TreeConfig::default()
        },
    );
    let x = data.row(0).to_vec();
    let mut group = Group::new("treeshap");
    group.bench("tree_shap_poly", || tree_shap(&tree, &x));
    group.bench("brute_force_2^d", || brute_force_tree_shap(&tree, &x));
    group.finish();
}

/// E3b: ensemble explanation cost.
fn bench_gbdt_shap() {
    let data = friedman1(500, 5, 0.2);
    let gbdt = Gbdt::fit(
        data.x(),
        data.y(),
        GbdtConfig { n_rounds: 100, loss: GbdtLoss::Squared, ..GbdtConfig::default() },
    );
    let x = data.row(0).to_vec();
    let mut group = Group::new("gbdt_shap");
    group.bench("gbdt_shap_100_trees", || gbdt_shap(&gbdt, &x));
    group.finish();
}

fn main() {
    bench_exact_vs_samplers();
    bench_kernel_shap_batched();
    bench_masked_gbdt();
    bench_parallel_mc_shapley();
    bench_treeshap();
    bench_gbdt_shap();
}
