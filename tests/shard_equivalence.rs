//! The shard equivalence matrix (DESIGN.md §11): every shardable method
//! × shard counts {1, 2, 4, 7} × in-process vs process-pool execution,
//! asserted **bit-identical** (byte-compared canonical JSON) against the
//! unsharded `Explainer::explain` run at the same seed. Budgeted runs
//! shard too: a `SampleBudget` resolves into the draw grid, so the
//! sharded budgeted run reproduces the explicit smaller configuration.

use xai::core::backend::dispatch_local;
use xai::datavalue::BanzhafConfig;
use xai::models::Persist;
use xai::prelude::*;
use xai_rules::AnchorsConfig;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn worker_pool() -> ProcessPoolBackend {
    ProcessPoolBackend::new(PoolConfig::new(env!("CARGO_BIN_EXE_xai-shard-worker")))
}

/// Runs the plan as `n_shards` `xai-shard-worker` processes.
fn run_on_pool(
    method: &dyn ShardableExplainer,
    model: &LogisticRegression,
    req: &ExplainRequest<'_>,
    n_shards: usize,
    pool: &ProcessPoolBackend,
) -> XaiResult<Explanation> {
    let job = BackendJob::new(method, model, req, n_shards).with_model_json(model.save());
    pool.execute(&job).map(|outcome| outcome.explanation)
}

/// A classification fixture sized for debug-mode test runs.
fn fixture(rows: usize, seed: u64) -> (Dataset, LogisticRegression) {
    let data = xai::data::synth::german_credit(rows, seed);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    (data, model)
}

/// The core assertion: the unsharded parallel run, the in-process
/// sharded run and the process-pool sharded run all produce the same
/// bytes, at every shard count.
fn assert_shard_equivalence(
    method: &dyn ShardableExplainer,
    model: &LogisticRegression,
    req: &ExplainRequest<'_>,
    label: &str,
) {
    let reference = method
        .explain(model, req)
        .unwrap_or_else(|e| panic!("{label}: unsharded explain failed: {e:?}"))
        .to_json_string();
    let pool = worker_pool();
    for n_shards in SHARD_COUNTS {
        let in_process = dispatch_local(method, model, req, n_shards)
            .unwrap_or_else(|e| panic!("{label}: in-process n_shards={n_shards} failed: {e:?}"))
            .to_json_string();
        assert_eq!(in_process, reference, "{label}: in-process diverged at n_shards={n_shards}");

        let pooled = run_on_pool(method, model, req, n_shards, &pool)
            .unwrap_or_else(|e| panic!("{label}: process pool n_shards={n_shards} failed: {e:?}"))
            .to_json_string();
        assert_eq!(pooled, reference, "{label}: process pool diverged at n_shards={n_shards}");
    }
}

#[test]
fn kernel_shap_shards_in_both_exact_and_sampled_mode() {
    let (data, model) = fixture(60, 7);
    let row = data.row(0).to_vec();
    let req = ExplainRequest::new(&data)
        .instance(&row)
        .plan(RunConfig::seeded(11).with_workers(2));
    // Default budget covers 2^7 coalitions: exact enumeration.
    let exact = KernelShapMethod::default();
    assert_shard_equivalence(&exact, &model, &req, "kernel SHAP (exact)");
    // A tight coalition budget forces the sampled estimator.
    let sampled = KernelShapMethod {
        config: KernelShapConfig { max_coalitions: 96, ..KernelShapConfig::default() },
    };
    assert_shard_equivalence(&sampled, &model, &req, "kernel SHAP (sampled)");
}

#[test]
fn permutation_shapley_shards() {
    let (data, model) = fixture(60, 8);
    let row = data.row(3).to_vec();
    let req = ExplainRequest::new(&data)
        .instance(&row)
        .plan(RunConfig::seeded(23).with_workers(2));
    let method = PermutationShapleyMethod { permutations: 40 };
    assert_shard_equivalence(&method, &model, &req, "permutation Shapley");
}

#[test]
fn lime_shards() {
    let (data, model) = fixture(60, 9);
    let row = data.row(5).to_vec();
    let req = ExplainRequest::new(&data)
        .instance(&row)
        .plan(RunConfig::seeded(31).with_workers(2));
    let method =
        LimeMethod { config: LimeConfig { n_samples: 96, ..LimeConfig::default() } };
    assert_shard_equivalence(&method, &model, &req, "LIME");
}

#[test]
fn sp_lime_shards() {
    let (data, model) = fixture(50, 10);
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(13).with_workers(2));
    let method = SpLimeMethod {
        n_candidates: 10,
        picks: 3,
        config: LimeConfig { n_samples: 64, ..LimeConfig::default() },
    };
    assert_shard_equivalence(&method, &model, &req, "SP-LIME");
}

#[test]
fn anchors_shards() {
    let (data, model) = fixture(60, 12);
    let row = data.row(0).to_vec();
    let req = ExplainRequest::new(&data)
        .instance(&row)
        .plan(RunConfig::seeded(17).with_workers(2));
    let method = AnchorsMethod {
        config: AnchorsConfig {
            precision_target: 0.9,
            max_samples_per_round: 600,
            ..AnchorsConfig::default()
        },
        pool: 4,
    };
    assert_shard_equivalence(&method, &model, &req, "Anchors");
}

#[test]
fn dice_shards() {
    let (data, model) = fixture(60, 14);
    let row = data.row(2).to_vec();
    let req = ExplainRequest::new(&data)
        .instance(&row)
        .plan(RunConfig::seeded(6).with_workers(2));
    let method = DiceMethod {
        config: DiceConfig { k: 2, iterations: 60, restarts: 2, ..DiceConfig::default() },
    };
    assert_shard_equivalence(&method, &model, &req, "DiCE");
}

#[test]
fn leave_one_out_shards() {
    let (data, model) = fixture(20, 21);
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(19).with_workers(2));
    assert_shard_equivalence(&LooMethod, &model, &req, "leave-one-out");
}

#[test]
fn tmc_data_shapley_shards() {
    let (data, model) = fixture(10, 22);
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(19).with_workers(2));
    let method =
        TmcMethod { config: TmcConfig { permutations: 20, ..TmcConfig::default() } };
    assert_shard_equivalence(&method, &model, &req, "TMC data Shapley");
}

#[test]
fn data_banzhaf_shards() {
    let (data, model) = fixture(10, 24);
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(19).with_workers(2));
    let method =
        BanzhafMethod { config: BanzhafConfig { samples_per_point: 6, seed: 0 } };
    assert_shard_equivalence(&method, &model, &req, "data Banzhaf");
}

#[test]
fn budgeted_kernel_shap_shards_like_the_explicit_config() {
    let (data, model) = fixture(60, 25);
    let row = data.row(1).to_vec();
    // A budget of 64 evals on a 96-coalition config resolves the draw
    // grid to 64 coalitions — the same grid the explicit 64-coalition
    // config produces, so the two runs are bit-identical.
    let budgeted = KernelShapMethod {
        config: KernelShapConfig { max_coalitions: 96, ..KernelShapConfig::default() },
    };
    let explicit = KernelShapMethod {
        config: KernelShapConfig { max_coalitions: 64, ..KernelShapConfig::default() },
    };
    let budgeted_req = ExplainRequest::new(&data).instance(&row).plan(
        RunConfig::seeded(11)
            .with_workers(2)
            .with_budget(SampleBudget::with_max_evals(64)),
    );
    let explicit_req = ExplainRequest::new(&data)
        .instance(&row)
        .plan(RunConfig::seeded(11).with_workers(2));
    let reference = explicit.explain(&model, &explicit_req).unwrap().to_json_string();
    let pool = worker_pool();
    for n_shards in SHARD_COUNTS {
        let sharded = dispatch_local(&budgeted, &model, &budgeted_req, n_shards)
            .unwrap()
            .to_json_string();
        assert_eq!(sharded, reference, "budgeted kernel SHAP diverged at n_shards={n_shards}");
        let pooled = run_on_pool(&budgeted, &model, &budgeted_req, n_shards, &pool)
            .unwrap()
            .to_json_string();
        assert_eq!(pooled, reference, "budgeted pool kernel SHAP at n_shards={n_shards}");
    }
}

#[test]
fn budgeted_lime_shards_like_the_explicit_config() {
    let (data, model) = fixture(60, 26);
    let row = data.row(4).to_vec();
    let budgeted =
        LimeMethod { config: LimeConfig { n_samples: 96, ..LimeConfig::default() } };
    let explicit =
        LimeMethod { config: LimeConfig { n_samples: 64, ..LimeConfig::default() } };
    let budgeted_req = ExplainRequest::new(&data).instance(&row).plan(
        RunConfig::seeded(31)
            .with_workers(2)
            .with_budget(SampleBudget::with_max_evals(64)),
    );
    let explicit_req = ExplainRequest::new(&data)
        .instance(&row)
        .plan(RunConfig::seeded(31).with_workers(2));
    let reference = explicit.explain(&model, &explicit_req).unwrap().to_json_string();
    let pool = worker_pool();
    for n_shards in SHARD_COUNTS {
        let sharded = dispatch_local(&budgeted, &model, &budgeted_req, n_shards)
            .unwrap()
            .to_json_string();
        assert_eq!(sharded, reference, "budgeted LIME diverged at n_shards={n_shards}");
        let pooled = run_on_pool(&budgeted, &model, &budgeted_req, n_shards, &pool)
            .unwrap()
            .to_json_string();
        assert_eq!(pooled, reference, "budgeted pool LIME at n_shards={n_shards}");
    }
}
