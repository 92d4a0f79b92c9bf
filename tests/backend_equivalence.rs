//! The execution-backend equivalence matrix (DESIGN.md §14): every
//! shardable method × backends {Local, ProcessPool, Cluster} × shard
//! counts {1, 2, 4}, byte-compared against the direct
//! `Explainer::explain` run at the same seed — one contract, three
//! substrates, zero byte drift. Kernel SHAP also runs, scalar and
//! batched, on every other decodable model family (linear regression,
//! decision tree, GBDT). On top of the matrix: serve-path
//! requests routed through each backend match serve-local bytes, a
//! dead-cluster fault schedule degrades in-process with the `degraded`
//! marker set and identical bytes, cluster runs reuse endpoint sessions
//! (connection-count instrumentation), and `ClusterRunner::stats` counts
//! every shard-cache hit and miss exactly once, also when two serve
//! workers run cluster jobs at the same time.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use xai::datavalue::BanzhafConfig;
use xai::models::Persist;
use xai::prelude::*;
use xai::serve::{register_persist, workspace_service};
use xai::transport::DaemonHandle;
use xai_rules::AnchorsConfig;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn worker_exe() -> &'static str {
    env!("CARGO_BIN_EXE_xai-shard-worker")
}

fn spawn_daemons(n: usize) -> Vec<DaemonHandle> {
    (0..n).map(|_| DaemonHandle::spawn(worker_exe(), &[]).expect("spawn daemon")).collect()
}

/// A fail-fast cluster config over live daemons: any transport problem
/// fails the test loudly instead of silently degrading.
fn cluster_config(daemons: &[DaemonHandle]) -> ClusterConfig {
    let mut config = ClusterConfig::new(daemons.iter().map(|d| d.addr().to_string()));
    config.connect_timeout = Duration::from_secs(5);
    config.io_timeout = Duration::from_secs(120);
    config.hedge_after = None;
    config.fallback = FallbackPolicy::Fail;
    config
}

/// A loopback address that refuses connections: bind an ephemeral port,
/// then drop the listener.
fn refused_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    listener.local_addr().expect("local addr").to_string()
}

/// A classification fixture sized for debug-mode test runs.
fn fixture(rows: usize, seed: u64) -> (Dataset, LogisticRegression) {
    let data = xai::data::synth::german_credit(rows, seed);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    (data, model)
}

/// The core assertion: all three backends produce the same bytes as the
/// direct `Explainer::explain` run, at every shard count, without
/// degrading.
fn assert_backend_equivalence<M: ModelOracle + Persist>(
    method: &dyn ShardableExplainer,
    model: &M,
    req: &ExplainRequest<'_>,
    label: &str,
) {
    let reference = method
        .explain(model, req)
        .unwrap_or_else(|e| panic!("{label}: direct explain failed: {e:?}"))
        .to_json_string();
    let daemons = spawn_daemons(2);
    let local = LocalBackend;
    let pool = ProcessPoolBackend::new(PoolConfig::new(worker_exe()));
    let cluster = ClusterBackend::from_config(cluster_config(&daemons)).expect("cluster backend");
    let backends: [&dyn ExecutionBackend; 3] = [&local, &pool, &cluster];
    for backend in backends {
        let name = backend.kind().as_str();
        for n_shards in SHARD_COUNTS {
            let job =
                BackendJob::new(method, model, req, n_shards).with_model_json(model.save());
            let outcome = backend
                .execute(&job)
                .unwrap_or_else(|e| panic!("{label}: {name} n_shards={n_shards} failed: {e:?}"));
            assert!(!outcome.degraded, "{label}: {name} degraded at n_shards={n_shards}");
            assert_eq!(
                outcome.explanation.to_json_string(),
                reference,
                "{label}: {name} diverged at n_shards={n_shards}"
            );
        }
    }
}

#[test]
fn kernel_shap_runs_on_every_backend() {
    let (data, model) = fixture(60, 7);
    let row = data.row(0).to_vec();
    let req = ExplainRequest::new(&data)
        .instance(&row)
        .plan(RunConfig::seeded(11).with_workers(2));
    let sampled = KernelShapMethod {
        config: KernelShapConfig { max_coalitions: 64, ..KernelShapConfig::default() },
    };
    assert_backend_equivalence(&sampled, &model, &req, "kernel SHAP (sampled)");
}

#[test]
fn permutation_shapley_runs_on_every_backend() {
    let (data, model) = fixture(60, 8);
    let row = data.row(3).to_vec();
    let req = ExplainRequest::new(&data)
        .instance(&row)
        .plan(RunConfig::seeded(23).with_workers(2));
    let method = PermutationShapleyMethod { permutations: 40 };
    assert_backend_equivalence(&method, &model, &req, "permutation Shapley");
}

#[test]
fn lime_runs_on_every_backend() {
    let (data, model) = fixture(60, 9);
    let row = data.row(5).to_vec();
    let req = ExplainRequest::new(&data)
        .instance(&row)
        .plan(RunConfig::seeded(31).with_workers(2));
    let method = LimeMethod { config: LimeConfig { n_samples: 96, ..LimeConfig::default() } };
    assert_backend_equivalence(&method, &model, &req, "LIME");
}

#[test]
fn sp_lime_runs_on_every_backend() {
    let (data, model) = fixture(50, 10);
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(13).with_workers(2));
    let method = SpLimeMethod {
        n_candidates: 10,
        picks: 3,
        config: LimeConfig { n_samples: 64, ..LimeConfig::default() },
    };
    assert_backend_equivalence(&method, &model, &req, "SP-LIME");
}

#[test]
fn anchors_runs_on_every_backend() {
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
    assert_backend_equivalence(&method, &model, &req, "Anchors");
}

#[test]
fn dice_runs_on_every_backend() {
    let (data, model) = fixture(60, 14);
    let row = data.row(2).to_vec();
    let req = ExplainRequest::new(&data)
        .instance(&row)
        .plan(RunConfig::seeded(6).with_workers(2));
    let method = DiceMethod {
        config: DiceConfig { k: 2, iterations: 60, restarts: 2, ..DiceConfig::default() },
    };
    assert_backend_equivalence(&method, &model, &req, "DiCE");
}

#[test]
fn leave_one_out_runs_on_every_backend() {
    let (data, model) = fixture(20, 21);
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(19).with_workers(2));
    assert_backend_equivalence(&LooMethod, &model, &req, "leave-one-out");
}

#[test]
fn tmc_data_shapley_runs_on_every_backend() {
    let (data, model) = fixture(10, 22);
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(19).with_workers(2));
    let method = TmcMethod { config: TmcConfig { permutations: 20, ..TmcConfig::default() } };
    assert_backend_equivalence(&method, &model, &req, "TMC data Shapley");
}

#[test]
fn data_banzhaf_runs_on_every_backend() {
    let (data, model) = fixture(10, 24);
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(19).with_workers(2));
    let method = BanzhafMethod { config: BanzhafConfig { samples_per_point: 6, seed: 0 } };
    assert_backend_equivalence(&method, &model, &req, "data Banzhaf");
}

/// Kernel SHAP on one model of another decodable family, with the scalar
/// and the batched (masked) game: pool workers and daemons rebuild the
/// model through the one model decoder.
fn assert_kernel_shap_equivalence<M>(data: &Dataset, model: &M, label: &str)
where
    M: ModelOracle + Persist,
{
    let row = data.row(1).to_vec();
    let method = KernelShapMethod {
        config: KernelShapConfig { max_coalitions: 48, ..KernelShapConfig::default() },
    };
    for batched in [false, true] {
        let req = ExplainRequest::new(data)
            .instance(&row)
            .plan(RunConfig::seeded(5).with_workers(2).with_batched(batched));
        assert_backend_equivalence(&method, model, &req, &format!("{label} batched={batched}"));
    }
}

#[test]
fn kernel_shap_on_linear_regression_runs_on_every_backend() {
    let data = xai::data::synth::friedman1(40, 26, 0.2);
    let model = LinearRegression::fit(data.x(), data.y(), xai::models::LinearConfig::default())
        .expect("OLS fit");
    assert_kernel_shap_equivalence(&data, &model, "Kernel SHAP on linear regression");
}

#[test]
fn kernel_shap_on_a_decision_tree_runs_on_every_backend() {
    let data = xai::data::synth::german_credit(60, 27);
    let model =
        DecisionTree::fit(data.x(), data.y(), TreeConfig { max_depth: 4, ..TreeConfig::default() });
    assert_kernel_shap_equivalence(&data, &model, "Kernel SHAP on a decision tree");
}

#[test]
fn kernel_shap_on_gbdt_runs_on_every_backend() {
    let data = xai::data::synth::german_credit(60, 28);
    let model = Gbdt::fit(data.x(), data.y(), GbdtConfig { n_rounds: 6, ..GbdtConfig::default() });
    assert_kernel_shap_equivalence(&data, &model, "Kernel SHAP on GBDT");
}

// ---------------------------------------------------------------------------
// Serve-path routing
// ---------------------------------------------------------------------------

#[test]
fn serve_requests_match_bytes_across_all_three_backends() {
    let (data, model) = fixture(60, 7);
    let service = workspace_service(ServiceConfig::default());
    register_persist(&service, "credit", model, data.clone());

    let daemons = spawn_daemons(2);
    let runner = Arc::new(ClusterRunner::new(cluster_config(&daemons)).expect("runner"));
    service.set_backend(Arc::new(ClusterBackend::new(Arc::clone(&runner))));
    service.set_backend(Arc::new(ProcessPoolBackend::new(PoolConfig::new(worker_exe()))));
    assert_eq!(service.backend_kinds().len(), 2);

    let plan = RunConfig::seeded(11).with_workers(2);
    let request = |backend: BackendChoice| {
        ServeRequest::new("Kernel SHAP", "credit")
            .with_instance(data.row(0))
            .with_plan(plan.with_backend(backend))
    };
    let local = service.submit(&request(BackendChoice::Local)).expect("serve local");
    let pooled =
        service.submit(&request(BackendChoice::process_pool(2))).expect("serve process pool");
    let clustered = service.submit(&request(BackendChoice::cluster(4))).expect("serve cluster");

    assert_eq!(pooled.payload, local.payload, "process-pool serve diverged from local");
    assert_eq!(clustered.payload, local.payload, "cluster serve diverged from local");
    assert!(!local.degraded && !pooled.degraded && !clustered.degraded);

    let stats = service.stats();
    assert_eq!(stats.local_completed, 1);
    assert_eq!(stats.pool_completed, 1);
    assert_eq!(stats.cluster_completed, 1);
    assert_eq!(stats.degraded, 0);
    assert_eq!(stats.failed, 0);
}

#[test]
fn serve_rejects_backends_that_are_not_registered() {
    let (data, model) = fixture(30, 4);
    let service = workspace_service(ServiceConfig::default());
    register_persist(&service, "credit", model, data.clone());
    let request = ServeRequest::new("Kernel SHAP", "credit")
        .with_instance(data.row(0))
        .with_plan(RunConfig::seeded(3).with_workers(2).with_backend(BackendChoice::cluster(2)));
    let err = service.submit(&request).expect_err("no cluster backend is registered");
    assert!(
        matches!(err, XaiError::Unsupported { .. }),
        "expected a typed Unsupported rejection, got {err:?}"
    );
}

// ---------------------------------------------------------------------------
// Degraded fallback
// ---------------------------------------------------------------------------

#[test]
fn dead_cluster_degrades_in_process_with_identical_bytes() {
    let (data, model) = fixture(30, 9);
    let method = KernelShapMethod {
        config: KernelShapConfig { max_coalitions: 48, ..KernelShapConfig::default() },
    };
    let row = data.row(1).to_vec();
    let req = ExplainRequest::new(&data)
        .instance(&row)
        .plan(RunConfig::seeded(5).with_workers(2));
    let reference = method.explain(&model, &req).unwrap().to_json_string();

    let mut config = ClusterConfig::new(vec![refused_addr(), refused_addr()]);
    config.connect_timeout = Duration::from_millis(500);
    config.io_timeout = Duration::from_millis(500);
    config.retry = RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
        jitter_seed: 0,
    };
    config.fallback = FallbackPolicy::InProcess;
    let backend = ClusterBackend::from_config(config).expect("cluster backend");
    let job = BackendJob::new(&method, &model, &req, 2).with_model_json(model.save());
    let outcome = backend.execute(&job).expect("fallback must carry the job");
    assert!(outcome.degraded, "a dead cluster must set the degraded marker");
    assert_eq!(
        outcome.explanation.to_json_string(),
        reference,
        "degraded fallback changed the bytes"
    );
}

#[test]
fn serve_surfaces_the_degraded_marker_and_counter() {
    let (data, model) = fixture(30, 9);
    let service = workspace_service(ServiceConfig::default());
    register_persist(&service, "credit", model, data.clone());

    let mut config = ClusterConfig::new(vec![refused_addr()]);
    config.connect_timeout = Duration::from_millis(500);
    config.io_timeout = Duration::from_millis(500);
    config.retry = RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
        jitter_seed: 0,
    };
    config.fallback = FallbackPolicy::InProcess;
    service.set_backend(Arc::new(ClusterBackend::from_config(config).expect("backend")));

    let plan = RunConfig::seeded(11).with_workers(2);
    let local = ServeRequest::new("Kernel SHAP", "credit")
        .with_instance(data.row(0))
        .with_plan(plan);
    let clustered = ServeRequest::new("Kernel SHAP", "credit")
        .with_instance(data.row(0))
        .with_plan(plan.with_backend(BackendChoice::cluster(2)));

    let reference = service.submit(&local).expect("serve local");
    let degraded = service.submit(&clustered).expect("fallback must carry the request");
    assert!(degraded.degraded, "the response must carry the degraded marker");
    assert!(!degraded.cached);
    assert_eq!(degraded.payload, reference.payload, "degraded serve changed the bytes");

    let stats = service.stats();
    assert_eq!(stats.degraded, 1);
    assert_eq!(stats.cluster_completed, 1, "a degraded run still completes");
    assert_eq!(stats.cluster_failed, 0);
}

// ---------------------------------------------------------------------------
// Session reuse and the shard cache
// ---------------------------------------------------------------------------

#[test]
fn cluster_runs_reuse_endpoint_sessions() {
    let (data, model) = fixture(20, 21);
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(19).with_workers(2));
    let daemons = spawn_daemons(2);
    let mut config = cluster_config(&daemons);
    // Disable the shard cache so the second run must touch the network.
    config.shard_cache_capacity = 0;
    let backend = ClusterBackend::from_config(config).expect("backend");
    let runner = backend.runner();
    // One shard per endpoint: connection counts are deterministic because
    // no two shards ever contend for the same endpoint's session pool.
    let n_shards = 2;
    let job = BackendJob::new(&LooMethod, &model, &req, n_shards).with_model_json(model.save());

    let first = backend.execute(&job).expect("run 1");
    let after_first = runner.stats();
    assert_eq!(after_first.connections_opened, 2, "first run opens one connection per shard");
    assert_eq!(after_first.sessions_reused, 0, "nothing to reuse on a cold pool");
    assert_eq!(after_first.shard_cache_hits, 0, "cache is disabled");

    let second = backend.execute(&job).expect("run 2");
    let after_second = runner.stats();
    assert_eq!(
        second.explanation.to_json_string(),
        first.explanation.to_json_string(),
        "session reuse changed the bytes"
    );
    assert_eq!(
        after_second.connections_opened, after_first.connections_opened,
        "the second run must ride the pooled sessions, not reconnect"
    );
    assert_eq!(
        after_second.sessions_reused, n_shards as u64,
        "every shard of the second run should reuse a session: {after_second:?}"
    );
}

#[test]
fn shard_cache_answers_repeated_cluster_runs() {
    let (data, model) = fixture(20, 21);
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(19).with_workers(2));
    let daemons = spawn_daemons(2);
    let backend = ClusterBackend::from_config(cluster_config(&daemons)).expect("backend");
    let runner = backend.runner();
    let n_shards = 4;
    let job = BackendJob::new(&LooMethod, &model, &req, n_shards).with_model_json(model.save());

    let first = backend.execute(&job).expect("run 1");
    let after_first = runner.stats();
    assert_eq!(after_first.shard_cache_hits, 0);
    assert_eq!(after_first.shard_cache_misses, n_shards as u64);

    let second = backend.execute(&job).expect("run 2");
    let after_second = runner.stats();
    assert_eq!(
        after_second.shard_cache_hits,
        n_shards as u64,
        "the identical second run must be answered from the shard cache"
    );
    assert_eq!(after_second.shard_cache_misses, n_shards as u64, "no new misses");
    assert_eq!(
        second.explanation.to_json_string(),
        first.explanation.to_json_string(),
        "shard-cache hits changed the bytes"
    );
}

#[test]
fn serve_counts_shard_cache_hits() {
    let (data, model) = fixture(20, 21);
    // Disable the serve-level result cache so the second submit actually
    // reaches the backend (and its shard cache) again.
    let service =
        workspace_service(ServiceConfig { cache_capacity: 0, ..ServiceConfig::default() });
    register_persist(&service, "credit", model, data.clone());
    let daemons = spawn_daemons(2);
    let backend = ClusterBackend::from_config(cluster_config(&daemons)).expect("backend");
    let runner = Arc::clone(backend.runner());
    service.set_backend(Arc::new(backend));

    let request = ServeRequest::new("Leave-one-out", "credit").with_plan(
        RunConfig::seeded(19).with_workers(2).with_backend(BackendChoice::cluster(2)),
    );
    let cold = service.submit(&request).expect("cold submit");
    let warm = service.submit(&request).expect("warm submit");
    assert!(!warm.cached, "the result cache is disabled; this hit the backend");
    assert_eq!(warm.payload, cold.payload);

    let stats = runner.stats();
    assert_eq!(stats.shard_cache_misses, 2, "cold run misses once per shard");
    assert_eq!(stats.shard_cache_hits, 2, "warm run hits once per shard");
    assert_eq!(service.stats().cluster_completed, 2);
}

#[test]
fn concurrent_serve_workers_count_each_shard_once() {
    const REQUESTS: u64 = 4;
    const SHARDS: usize = 2;
    let (data, model) = fixture(20, 21);
    // Two serve workers run cluster jobs at the same time; the result
    // cache is off so every submit reaches the backend's shard cache.
    let service = workspace_service(ServiceConfig {
        workers: 2,
        cache_capacity: 0,
        ..ServiceConfig::default()
    });
    register_persist(&service, "credit", model, data.clone());
    let daemons = spawn_daemons(2);
    let backend = ClusterBackend::from_config(cluster_config(&daemons)).expect("backend");
    let runner = Arc::clone(backend.runner());
    service.set_backend(Arc::new(backend));

    // Distinct seeds give distinct descriptor bytes, hence distinct keys.
    let request = |i: u64| {
        ServeRequest::new("Leave-one-out", "credit").with_plan(
            RunConfig::seeded(100 + i)
                .with_workers(2)
                .with_backend(BackendChoice::cluster(SHARDS)),
        )
    };
    // Both clients start together so their cluster jobs overlap.
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for thread in 0..2 {
            let (service, request, start) = (&service, &request, &start);
            scope.spawn(move || {
                start.wait();
                for i in (thread..REQUESTS).step_by(2) {
                    // The repeat starts after its cold run has finished, so
                    // each of its shards is a hit.
                    let cold = service.submit(&request(i)).expect("cold submit");
                    let warm = service.submit(&request(i)).expect("warm submit");
                    assert_eq!(warm.payload, cold.payload, "request {i}");
                }
            });
        }
    });

    let stats = runner.stats();
    let shards = REQUESTS * SHARDS as u64;
    assert_eq!(stats.shard_cache_misses, shards, "one miss per cold shard: {stats:?}");
    assert_eq!(stats.shard_cache_hits, shards, "one hit per repeated shard: {stats:?}");
    assert_eq!(service.stats().cluster_completed, 2 * REQUESTS);
}
