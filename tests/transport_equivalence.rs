//! The transport equivalence matrix (DESIGN.md §13): every shardable
//! method × shard counts {1, 2, 4, 7}, executed over two real loopback
//! `xai-shard-worker --listen` daemons, asserted **bit-identical**
//! (byte-compared canonical JSON) against the unsharded
//! `Explainer::explain` run at the same seed. Fallback is disabled
//! (`FallbackPolicy::Fail`) so any transport problem fails the test
//! loudly instead of silently degrading to the in-process runner; every
//! run additionally asserts `degraded == false`.

use std::time::Duration;

use xai::datavalue::BanzhafConfig;
use xai::models::Persist;
use xai::prelude::*;
use xai::shard::ShardableExplainer;
use xai::transport::DaemonHandle;
use xai_rules::AnchorsConfig;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn worker_exe() -> &'static str {
    env!("CARGO_BIN_EXE_xai-shard-worker")
}

/// Two healthy daemons and a fail-fast cluster config over them.
fn cluster() -> (Vec<DaemonHandle>, ClusterConfig) {
    let daemons: Vec<DaemonHandle> = (0..2)
        .map(|_| DaemonHandle::spawn(worker_exe(), &[]).expect("spawn daemon"))
        .collect();
    let mut config =
        ClusterConfig::new(daemons.iter().map(|d| d.addr().to_string()));
    config.connect_timeout = Duration::from_secs(5);
    config.io_timeout = Duration::from_secs(120);
    config.fallback = FallbackPolicy::Fail;
    (daemons, config)
}

/// A classification fixture sized for debug-mode test runs.
fn fixture(rows: usize, seed: u64) -> (Dataset, LogisticRegression) {
    let data = xai::data::synth::german_credit(rows, seed);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    (data, model)
}

/// The core assertion: the cluster-transported run produces the same
/// bytes as the unsharded run, at every shard count, without degrading.
fn assert_transport_equivalence(
    method: &dyn ShardableExplainer,
    model: &LogisticRegression,
    req: &ExplainRequest<'_>,
    label: &str,
) {
    let reference = method
        .explain(model, req)
        .unwrap_or_else(|e| panic!("{label}: unsharded explain failed: {e:?}"))
        .to_json_string();
    let (_daemons, config) = cluster();
    let backend = ClusterBackend::from_config(config).expect("cluster backend");
    for n_shards in SHARD_COUNTS {
        let job = BackendJob::new(method, model, req, n_shards).with_model_json(model.save());
        let outcome = backend
            .execute(&job)
            .unwrap_or_else(|e| panic!("{label}: cluster n_shards={n_shards} failed: {e:?}"));
        assert!(!outcome.degraded, "{label}: degraded at n_shards={n_shards}");
        assert_eq!(
            outcome.explanation.to_json_string(),
            reference,
            "{label}: cluster transport diverged at n_shards={n_shards}"
        );
    }
}

#[test]
fn kernel_shap_transports() {
    let (data, model) = fixture(60, 7);
    let row = data.row(0).to_vec();
    let req = ExplainRequest::new(&data)
        .instance(&row)
        .plan(RunConfig::seeded(11).with_workers(2));
    let sampled = KernelShapMethod {
        config: KernelShapConfig { max_coalitions: 64, ..KernelShapConfig::default() },
    };
    assert_transport_equivalence(&sampled, &model, &req, "kernel SHAP (sampled)");
}

#[test]
fn permutation_shapley_transports() {
    let (data, model) = fixture(60, 8);
    let row = data.row(3).to_vec();
    let req = ExplainRequest::new(&data)
        .instance(&row)
        .plan(RunConfig::seeded(23).with_workers(2));
    let method = PermutationShapleyMethod { permutations: 40 };
    assert_transport_equivalence(&method, &model, &req, "permutation Shapley");
}

#[test]
fn lime_transports() {
    let (data, model) = fixture(60, 9);
    let row = data.row(5).to_vec();
    let req = ExplainRequest::new(&data)
        .instance(&row)
        .plan(RunConfig::seeded(31).with_workers(2));
    let method =
        LimeMethod { config: LimeConfig { n_samples: 96, ..LimeConfig::default() } };
    assert_transport_equivalence(&method, &model, &req, "LIME");
}

#[test]
fn sp_lime_transports() {
    let (data, model) = fixture(50, 10);
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(13).with_workers(2));
    let method = SpLimeMethod {
        n_candidates: 10,
        picks: 3,
        config: LimeConfig { n_samples: 64, ..LimeConfig::default() },
    };
    assert_transport_equivalence(&method, &model, &req, "SP-LIME");
}

#[test]
fn anchors_transports() {
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
    assert_transport_equivalence(&method, &model, &req, "Anchors");
}

#[test]
fn dice_transports() {
    let (data, model) = fixture(60, 14);
    let row = data.row(2).to_vec();
    let req = ExplainRequest::new(&data)
        .instance(&row)
        .plan(RunConfig::seeded(6).with_workers(2));
    let method = DiceMethod {
        config: DiceConfig { k: 2, iterations: 60, restarts: 2, ..DiceConfig::default() },
    };
    assert_transport_equivalence(&method, &model, &req, "DiCE");
}

#[test]
fn leave_one_out_transports() {
    let (data, model) = fixture(20, 21);
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(19).with_workers(2));
    assert_transport_equivalence(&LooMethod, &model, &req, "leave-one-out");
}

#[test]
fn tmc_data_shapley_transports() {
    let (data, model) = fixture(10, 22);
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(19).with_workers(2));
    let method =
        TmcMethod { config: TmcConfig { permutations: 20, ..TmcConfig::default() } };
    assert_transport_equivalence(&method, &model, &req, "TMC data Shapley");
}

#[test]
fn data_banzhaf_transports() {
    let (data, model) = fixture(10, 24);
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(19).with_workers(2));
    let method =
        BanzhafMethod { config: BanzhafConfig { samples_per_point: 6, seed: 0 } };
    assert_transport_equivalence(&method, &model, &req, "data Banzhaf");
}

#[test]
fn one_shot_cluster_backend_matches_and_reports_health() {
    let (data, model) = fixture(60, 7);
    let row = data.row(0).to_vec();
    let req = ExplainRequest::new(&data)
        .instance(&row)
        .plan(RunConfig::seeded(11).with_workers(2));
    let method = KernelShapMethod {
        config: KernelShapConfig { max_coalitions: 64, ..KernelShapConfig::default() },
    };
    let reference = method.explain(&model, &req).unwrap().to_json_string();
    let (_daemons, config) = cluster();
    let backend = ClusterBackend::from_config(config).unwrap();
    let job = BackendJob::new(&method, &model, &req, 4).with_model_json(model.save());
    let outcome = backend.execute(&job).unwrap();
    let stats = backend.runner().stats();
    assert!(!outcome.degraded);
    assert_eq!(outcome.explanation.to_json_string(), reference);
    assert_eq!(stats.transport_failures, 0, "healthy cluster saw failures");
    assert!(stats.attempts >= 4, "four shards need at least four dispatches");
}
