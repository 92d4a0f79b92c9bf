//! One request, three execution substrates (DESIGN.md §14): the same
//! `ServeRequest` submitted to an `ExplanationService` on the local
//! worker pool, on a process pool of `xai-shard-worker` children, and
//! across two loopback shard daemons — every payload byte-identical.
//! Then the backend trait driven directly, plus the shard cache and
//! session reuse instrumentation.
//!
//! ```sh
//! cargo build && cargo run --example backend_demo
//! ```
//!
//! (A debug `cargo build` first, so the sibling `xai-shard-worker`
//! binary exists for the process-pool and cluster legs.)

use std::sync::Arc;

use xai::models::Persist;
use xai::prelude::*;
use xai::serve::{register_persist, workspace_service, ServiceConfig};
use xai::shard::sibling_worker_exe;
use xai::transport::DaemonHandle;

fn main() {
    let data = xai::data::synth::german_credit(80, 7);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    let row = data.row(0).to_vec();

    let Some(worker) = sibling_worker_exe() else {
        println!("xai-shard-worker binary not found next to this example;");
        println!("run `cargo build` first to exercise the remote backends.");
        return;
    };

    // ── 1. A service with all three backends registered ─────────────
    let service = workspace_service(ServiceConfig::default());
    register_persist(&service, "credit", model.clone(), data.clone());

    let daemons: Vec<DaemonHandle> = (0..2)
        .map(|_| DaemonHandle::spawn(&worker, &[]).expect("spawn daemon"))
        .collect();
    println!("shard daemons:");
    for d in &daemons {
        println!("  xai-shard-worker --listen {}", d.addr());
    }
    service.set_backend(Arc::new(ProcessPoolBackend::new(PoolConfig::new(&worker))));
    let config = ClusterConfig::new(daemons.iter().map(|d| d.addr().to_string()));
    let cluster = ClusterBackend::from_config(config).unwrap();
    let runner = Arc::clone(cluster.runner());
    service.set_backend(Arc::new(cluster));

    // ── 2. One request on each substrate: identical bytes ───────────
    let plan = RunConfig::seeded(11).with_workers(2);
    let request = |backend: BackendChoice| {
        ServeRequest::new("Kernel SHAP", "credit")
            .with_instance(&row)
            .with_plan(plan.with_backend(backend))
    };
    let local = service.submit(&request(BackendChoice::Local)).unwrap();
    println!("\nlocal backend: {} bytes of canonical JSON", local.payload.len());
    for choice in [BackendChoice::process_pool(2), BackendChoice::cluster(4)] {
        let response = service.submit(&request(choice)).unwrap();
        assert_eq!(response.payload, local.payload);
        assert!(!response.degraded);
        println!("{} backend: bit-identical to the local run", choice.kind().as_str());
    }
    let stats = service.stats();
    println!(
        "serve stats: local {} / pool {} / cluster {} completed, {} shard-cache misses",
        stats.local_completed,
        stats.pool_completed,
        stats.cluster_completed,
        runner.stats().shard_cache_misses
    );

    // ── 3. The trait driven directly, cache and sessions visible ────
    let req = ExplainRequest::new(&data).instance(&row).plan(plan);
    let method = KernelShapMethod {
        config: KernelShapConfig { max_coalitions: 128, ..KernelShapConfig::default() },
    };
    let reference = method.explain(&model, &req).unwrap().to_json_string();
    let backends: Vec<Box<dyn ExecutionBackend>> = vec![
        Box::new(LocalBackend),
        Box::new(ProcessPoolBackend::new(PoolConfig::new(&worker))),
        Box::new(ClusterBackend::new(Arc::clone(&runner))),
    ];
    for backend in &backends {
        let job = BackendJob::new(&method, &model, &req, 4).with_model_json(model.save());
        let outcome = backend.execute(&job).unwrap();
        assert_eq!(outcome.explanation.to_json_string(), reference);
        println!("ExecutionBackend::{}: 4 shards, identical bytes", backend.kind().as_str());
    }
    // The identical cluster job again: answered from the shard cache
    // over reused sessions.
    let hits_before = runner.stats().shard_cache_hits;
    let job = BackendJob::new(&method, &model, &req, 4).with_model_json(model.save());
    let outcome = backends[2].execute(&job).unwrap();
    assert_eq!(outcome.explanation.to_json_string(), reference);
    let stats = runner.stats();
    println!(
        "repeat cluster job: {} shard-cache hits, {} sessions reused, \
         {} connections ever opened",
        stats.shard_cache_hits - hits_before,
        stats.sessions_reused,
        stats.connections_opened
    );
}
