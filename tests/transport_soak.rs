//! Transport soak (DESIGN.md §13): one shared `ClusterBackend` over two
//! loopback daemons, hammered by concurrent client threads running
//! different methods at different shard counts, every single result
//! byte-compared against its unsharded reference. Sustained concurrent
//! load must never corrupt a byte, leak a failure, or degrade endpoint
//! health.

use std::time::Duration;

use xai::models::Persist;
use xai::prelude::*;
use xai::shard::ShardableExplainer;
use xai::transport::{BreakerState, DaemonHandle};

const CLIENT_THREADS: usize = 4;
const ROUNDS: usize = 3;

fn worker_exe() -> &'static str {
    env!("CARGO_BIN_EXE_xai-shard-worker")
}

/// One soak workload: a method, its request plan seed, and a fixture.
struct Workload {
    label: &'static str,
    method: Box<dyn ShardableExplainer + Send + Sync>,
    data: Dataset,
    model: LogisticRegression,
    instance: Option<usize>,
    seed: u64,
}

fn workloads() -> Vec<Workload> {
    let classify = |rows: usize, seed: u64| {
        let data = xai::data::synth::german_credit(rows, seed);
        let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        (data, model)
    };
    let (kernel_data, kernel_model) = classify(40, 7);
    let (lime_data, lime_model) = classify(40, 9);
    let (loo_data, loo_model) = classify(12, 21);
    vec![
        Workload {
            label: "kernel SHAP",
            method: Box::new(KernelShapMethod {
                config: KernelShapConfig { max_coalitions: 48, ..KernelShapConfig::default() },
            }),
            data: kernel_data,
            model: kernel_model,
            instance: Some(0),
            seed: 11,
        },
        Workload {
            label: "LIME",
            method: Box::new(LimeMethod {
                config: LimeConfig { n_samples: 64, ..LimeConfig::default() },
            }),
            data: lime_data,
            model: lime_model,
            instance: Some(5),
            seed: 31,
        },
        Workload {
            label: "leave-one-out",
            method: Box::new(LooMethod),
            data: loo_data,
            model: loo_model,
            instance: None,
            seed: 19,
        },
    ]
}

#[test]
fn concurrent_soak_is_byte_stable_and_keeps_endpoints_healthy() {
    let daemons: Vec<DaemonHandle> = (0..2)
        .map(|_| DaemonHandle::spawn(worker_exe(), &[]).expect("spawn daemon"))
        .collect();
    let mut config = ClusterConfig::new(daemons.iter().map(|d| d.addr().to_string()));
    config.connect_timeout = Duration::from_secs(5);
    config.io_timeout = Duration::from_secs(120);
    config.fallback = FallbackPolicy::Fail;
    let backend = ClusterBackend::from_config(config).expect("cluster backend");
    let runner = backend.runner();

    let loads = workloads();
    // Pre-compute each workload's unsharded reference bytes once.
    let references: Vec<(String, Vec<f64>)> = loads
        .iter()
        .map(|w| {
            let row = w.instance.map(|i| w.data.row(i).to_vec()).unwrap_or_default();
            let mut req =
                ExplainRequest::new(&w.data).plan(RunConfig::seeded(w.seed).with_workers(2));
            if w.instance.is_some() {
                req = req.instance(&row);
            }
            (w.method.explain(&w.model, &req).unwrap().to_json_string(), row)
        })
        .collect();

    std::thread::scope(|scope| {
        for thread in 0..CLIENT_THREADS {
            let backend = &backend;
            let loads = &loads;
            let references = &references;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for (i, w) in loads.iter().enumerate() {
                        // Spread shard counts across threads and rounds.
                        let n_shards = [1, 2, 4, 7][(thread + round + i) % 4];
                        let (reference, row) = &references[i];
                        let mut req = ExplainRequest::new(&w.data)
                            .plan(RunConfig::seeded(w.seed).with_workers(2));
                        if w.instance.is_some() {
                            req = req.instance(row);
                        }
                        let job = BackendJob::new(w.method.as_ref(), &w.model, &req, n_shards)
                            .with_model_json(w.model.save());
                        let outcome = backend
                            .execute(&job)
                            .unwrap_or_else(|e| {
                                panic!(
                                    "{}: thread {thread} round {round} n_shards={n_shards}: {e:?}",
                                    w.label
                                )
                            });
                        assert!(!outcome.degraded, "{}: degraded under soak", w.label);
                        assert_eq!(
                            outcome.explanation.to_json_string(),
                            *reference,
                            "{}: bytes diverged at thread {thread} round {round} n_shards={n_shards}",
                            w.label
                        );
                    }
                }
            });
        }
    });

    let stats = runner.stats();
    assert_eq!(stats.transport_failures, 0, "healthy soak saw failures: {stats:?}");
    assert_eq!(stats.hedges, 0, "no hedging was configured: {stats:?}");
    for health in runner.health() {
        assert_eq!(health.state, BreakerState::Closed, "{health:?}");
        assert_eq!(health.failures, 0, "{health:?}");
        assert!(health.successes > 0, "{health:?}");
    }
}
