//! Incremental-engine equivalence harness.
//!
//! The incremental-training utility engine is a *performance* feature: it
//! must change wall-clock time and nothing else the estimators can
//! observe. This suite pins that contract with a **checking utility** — a
//! wrapper that evaluates every subset through both the
//! retrain-from-scratch path and the incremental path and asserts they
//! agree to ≤ 1e-8 *on every visited subset*, not just on the final
//! attribution — across LOO, TMC Shapley, and Banzhaf drivers, at multiple
//! seeds and worker counts.

use xai_data::synth::linear_gaussian;
use xai_data::Dataset;
use xai_core::{ExplainRequest, Explainer, FnOracle, RunConfig};
use xai_datavalue::{
    data_banzhaf, data_banzhaf_incremental, leave_one_out, leave_one_out_incremental,
    tmc_shapley, tmc_shapley_incremental, BanzhafConfig, BanzhafMethod, FnUtility,
    IncrementalUtility, LogisticUtility, LooMethod, RidgeUtility, RidgeValuationModel, TmcConfig,
    TmcMethod, Utility, WarmLogisticModel,
};
use xai_models::LogisticConfig;

const TOL: f64 = 1e-8;
const LAMBDA: f64 = 1e-3;

fn ridge_data(n: usize, seed: u64) -> (Dataset, Dataset) {
    let train = linear_gaussian(n, &[2.0, -1.0, 0.5], 0.0, seed);
    let test = linear_gaussian(60, &[2.0, -1.0, 0.5], 0.0, seed + 1000);
    (train, test)
}

/// Wraps a scratch/incremental pair so that *every* evaluation any driver
/// issues is cross-checked to the tolerance before being returned.
fn checking<'a>(
    scratch: &'a RidgeUtility<'a>,
    inc: &'a IncrementalUtility<RidgeValuationModel<'a>>,
) -> FnUtility<impl Fn(&[usize]) -> f64 + 'a> {
    FnUtility::new(scratch.n_train(), move |s: &[usize]| {
        let a = scratch.eval(s);
        let b = inc.eval(s);
        assert!(
            (a - b).abs() <= TOL,
            "subset of size {}: scratch {a} vs incremental {b} (diff {})",
            s.len(),
            (a - b).abs()
        );
        b
    })
}

#[test]
fn every_visited_subset_agrees_across_loo_tmc_and_banzhaf_at_multiple_seeds() {
    for seed in [1u64, 9, 33] {
        let (train, test) = ridge_data(24, seed);
        let scratch = RidgeUtility::new(&train, &test, LAMBDA);
        let inc = IncrementalUtility::new(RidgeValuationModel::new(&train, &test, LAMBDA));
        let check = checking(&scratch, &inc);

        let loo = leave_one_out(&check);
        assert_eq!(loo.values.len(), 24);

        for tmc_seed in [seed, seed + 7] {
            let cfg = TmcConfig { permutations: 6, truncation_tolerance: 0.0, seed: tmc_seed };
            let r = tmc_shapley(&check, cfg);
            assert!(r.utility_calls > 0);
        }

        let bz = data_banzhaf(&check, BanzhafConfig { samples_per_point: 5, seed: seed + 2 });
        assert_eq!(bz.values.len(), 24);

        let stats = inc.stats();
        assert!(stats.evals > 24, "the harness must actually exercise the engine: {stats:?}");
        assert!(
            stats.adds + stats.removes > stats.rebuilds,
            "delta path must carry most of the load: {stats:?}"
        );
    }
}

#[test]
fn parallel_drivers_hold_the_per_subset_bound_at_every_worker_count() {
    let (train, test) = ridge_data(20, 5);
    let scratch = RidgeUtility::new(&train, &test, LAMBDA);
    // Scratch baselines are worker-invariant, so compute them once.
    let tmc_method = TmcMethod {
        config: TmcConfig { permutations: 8, truncation_tolerance: 0.0, seed: 17 },
    };
    let bz_method = BanzhafMethod { config: BanzhafConfig { samples_per_point: 4, seed: 19 } };
    let oracle = FnOracle::new(train.n_features(), |_: &[f64]| 0.0);
    // `workers > 1` runs each method's chunk grid through the trait.
    let chunked = |method: &dyn Explainer, utility: &(dyn Utility + Sync), seed, workers| {
        let req = ExplainRequest::new(&train)
            .utility(utility)
            .plan(RunConfig::seeded(seed).with_workers(workers));
        method.explain(&oracle, &req).unwrap().as_valuation().unwrap().clone()
    };
    let tmc_base = chunked(&tmc_method, &scratch, 17, 2);
    let bz_base = chunked(&bz_method, &scratch, 19, 2);
    let loo_base = leave_one_out(&scratch);

    for workers in [2usize, 4] {
        let inc = IncrementalUtility::new(RidgeValuationModel::new(&train, &test, LAMBDA));
        let check = checking(&scratch, &inc);

        // The checking utility asserts the ≤1e-8 bound inside the worker
        // threads; the aggregate must then track the scratch baseline to
        // the accumulated tolerance.
        let tmc = chunked(&tmc_method, &check, 17, workers);
        for (a, b) in tmc.values.iter().zip(&tmc_base.values) {
            assert!((a - b).abs() < 1e-6, "workers={workers}: TMC {a} vs {b}");
        }
        let bz = chunked(&bz_method, &check, 19, workers);
        for (a, b) in bz.values.iter().zip(&bz_base.values) {
            assert!((a - b).abs() < 1e-6, "workers={workers}: Banzhaf {a} vs {b}");
        }
        let loo = chunked(&LooMethod, &check, 0, workers);
        for (a, b) in loo.values.iter().zip(&loo_base.values) {
            assert!((a - b).abs() < 1e-6, "workers={workers}: LOO {a} vs {b}");
        }
    }
}

#[test]
fn incremental_drivers_match_their_scratch_counterparts_end_to_end() {
    let (train, test) = ridge_data(18, 3);
    let scratch = RidgeUtility::new(&train, &test, LAMBDA);

    let inc = IncrementalUtility::new(RidgeValuationModel::new(&train, &test, LAMBDA));
    let a = leave_one_out(&scratch);
    let b = leave_one_out_incremental(&inc);
    for (x, y) in a.values.iter().zip(&b.values) {
        assert!((x - y).abs() <= 2.0 * TOL, "LOO: {x} vs {y}");
    }

    let cfg = TmcConfig { permutations: 10, truncation_tolerance: 0.0, seed: 4 };
    let inc = IncrementalUtility::new(RidgeValuationModel::new(&train, &test, LAMBDA));
    let a = tmc_shapley(&scratch, cfg);
    let b = tmc_shapley_incremental(&inc, cfg);
    assert_eq!(a.utility_calls, b.utility_calls, "same walks, same call count");
    for (x, y) in a.attribution.values.iter().zip(&b.attribution.values) {
        assert!((x - y).abs() < 1e-6, "TMC: {x} vs {y}");
    }

    let bz_cfg = BanzhafConfig { samples_per_point: 6, seed: 11 };
    let inc = IncrementalUtility::new(RidgeValuationModel::new(&train, &test, LAMBDA));
    let a = data_banzhaf(&scratch, bz_cfg);
    let b = data_banzhaf_incremental(&inc, bz_cfg);
    for (x, y) in a.values.iter().zip(&b.values) {
        assert!((x - y).abs() < 1e-6, "Banzhaf: {x} vs {y}");
    }
    // n ≤ 64, so the driver layers the memo cache: the engine only ever
    // sees cache misses, bounded by the number of *distinct* coalitions.
    // On a 6-point set 360 driver queries can hit at most 2⁶ subsets, so
    // repeats are guaranteed and the engine must see far fewer evals.
    let (small_train, small_test) = ridge_data(6, 23);
    let inc = IncrementalUtility::new(RidgeValuationModel::new(&small_train, &small_test, LAMBDA));
    let dense_cfg = BanzhafConfig { samples_per_point: 30, seed: 29 };
    data_banzhaf_incremental(&inc, dense_cfg);
    let queries = 2 * 30 * 6;
    let stats = inc.stats();
    assert!(
        stats.evals <= 64 && stats.evals < queries,
        "memo cache must absorb repeat coalitions: {} of {queries}",
        stats.evals
    );
}

#[test]
fn warm_logistic_engine_matches_scratch_logistic_across_drivers() {
    let train = linear_gaussian(22, &[2.0, -1.0], 0.0, 71);
    let test = linear_gaussian(100, &[2.0, -1.0], 0.0, 72);
    let config = LogisticConfig { l2: 1e-2, ..LogisticConfig::default() };
    let scratch = LogisticUtility::new(&train, &test, config);

    for seed in [2u64, 13] {
        let inc = IncrementalUtility::new(WarmLogisticModel::new(&train, &test, config));
        let check = FnUtility::new(scratch.n_train(), |s: &[usize]| {
            let a = scratch.eval(s);
            let b = inc.eval(s);
            // Both paths Newton-converge to the same optimum (or the warm
            // path certifies failure and refits cold), so the accuracy —
            // a step function of the weights — must agree exactly.
            assert!((a - b).abs() < 1e-9, "size {}: scratch {a} vs warm {b}", s.len());
            b
        });
        let cfg = TmcConfig { permutations: 4, truncation_tolerance: 0.0, seed };
        tmc_shapley(&check, cfg);
        leave_one_out(&check);
        let (warm, cold) = inc.inspect(|m| (m.warm_fits(), m.cold_refits()));
        assert!(
            warm > cold,
            "warm starts must dominate over certified fallbacks: warm={warm} cold={cold}"
        );
    }
}
