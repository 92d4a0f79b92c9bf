//! Timing benches for data valuation and influence (E13/E14 in timing
//! form), including the parallel TMC executor. Plain binaries on
//! `xai_bench::timing` — run with `cargo bench -p xai-bench`.

use xai_bench::timing::Group;
use xai_data::synth::linear_gaussian;
use xai_core::{ExplainRequest, Explainer, FnOracle, RunConfig};
use xai_datavalue::{
    influence_on_test_loss, knn_shapley, leave_one_out, retraining_ground_truth, tmc_shapley,
    LogisticUtility, Solver, TmcConfig, TmcMethod,
};
use xai_models::{LogisticConfig, LogisticRegression};
use xai_rand::parallel::default_workers;

fn bench_valuation() {
    let train = linear_gaussian(60, &[2.0, -1.0], 0.0, 5);
    let test = linear_gaussian(200, &[2.0, -1.0], 0.0, 6);
    let config = LogisticConfig { l2: 1e-2, ..LogisticConfig::default() };
    let u = LogisticUtility::new(&train, &test, config);
    let workers = default_workers();
    let cfg = TmcConfig { permutations: 50, truncation_tolerance: 0.01, seed: 1 };

    let mut group = Group::new("valuation_n60").samples(7);
    group.bench("leave_one_out", || leave_one_out(&u));
    let seq = group.bench("tmc_50perms", || tmc_shapley(&u, cfg));
    // `workers > 1` runs TMC's chunk grid; the utility ignores the oracle.
    let chunked = TmcMethod { config: cfg };
    let oracle = FnOracle::new(train.n_features(), |_: &[f64]| 0.0);
    let req = ExplainRequest::new(&train)
        .utility(&u)
        .plan(RunConfig::seeded(cfg.seed).with_workers(workers.max(2)));
    let par = group.bench(&format!("tmc_50perms_parallel_{workers}w"), || {
        chunked.explain(&oracle, &req)
    });
    group.finish();
    println!("  tmc speedup vs sequential: {:.2}x ({workers} workers)", seq.as_secs_f64() / par.as_secs_f64());

    // KNN-Shapley: closed form over 2000 points.
    let big_train = linear_gaussian(2000, &[2.0, -1.0], 0.0, 7);
    let big_test = linear_gaussian(100, &[2.0, -1.0], 0.0, 8);
    let mut group = Group::new("knn_shapley").samples(7);
    group.bench("knn_shapley_n2000", || knn_shapley(&big_train, &big_test, 5));
    group.finish();
}

fn bench_influence() {
    let train = linear_gaussian(400, &[2.0, -1.0, 0.5], 0.0, 9);
    let test = linear_gaussian(200, &[2.0, -1.0, 0.5], 0.0, 10);
    let config = LogisticConfig { l2: 1e-2, ..LogisticConfig::default() };
    let model = LogisticRegression::fit(train.x(), train.y(), config);

    let mut group = Group::new("influence_n400").samples(7);
    group.bench("influence_cholesky", || {
        influence_on_test_loss(&model, &train, &test, Solver::Cholesky)
    });
    group.bench("influence_cg", || {
        influence_on_test_loss(&model, &train, &test, Solver::ConjugateGradient)
    });
    group.bench("loo_retraining_ground_truth", || {
        retraining_ground_truth(&model, &train, &test, config)
    });
    group.finish();
}

fn main() {
    bench_valuation();
    bench_influence();
}
