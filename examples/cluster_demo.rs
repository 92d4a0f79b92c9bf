//! Cluster-transported explanation runs (DESIGN.md §13): two local
//! `xai-shard-worker --listen` daemons on loopback, a `ClusterBackend`
//! whose failure-first `ClusterRunner` ships shard descriptors to them
//! over the length-prefixed TCP protocol, and the merged explanation asserted
//! bit-identical to the single-machine run — then a demonstration of
//! graceful degradation when every endpoint is unreachable.
//!
//! ```sh
//! cargo build && cargo run --example cluster_demo
//! ```
//!
//! (A debug `cargo build` first, so the sibling `xai-shard-worker`
//! binary exists to spawn the daemons from.)

use std::time::Duration;

use xai::models::Persist;
use xai::prelude::*;
use xai::shard::sibling_worker_exe;
use xai::transport::DaemonHandle;

fn main() {
    let data = xai::data::synth::german_credit(80, 7);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    let row = data.row(0).to_vec();
    let req = ExplainRequest::new(&data)
        .instance(&row)
        .plan(RunConfig::seeded(11).with_workers(2));
    let method = KernelShapMethod {
        config: KernelShapConfig { max_coalitions: 128, ..KernelShapConfig::default() },
    };

    // ── 1. The single-machine reference run ─────────────────────────
    let reference_bytes = method.explain(&model, &req).unwrap().to_json_string();
    println!("unsharded Kernel SHAP: {} bytes of canonical JSON", reference_bytes.len());

    let Some(worker) = sibling_worker_exe() else {
        println!("\nxai-shard-worker binary not found next to this example;");
        println!("run `cargo build` first to exercise the cluster leg.");
        return;
    };

    // ── 2. Two shard daemons on ephemeral loopback ports ────────────
    let daemons: Vec<DaemonHandle> = (0..2)
        .map(|_| DaemonHandle::spawn(&worker, &[]).expect("spawn daemon"))
        .collect();
    println!("\nshard daemons:");
    for d in &daemons {
        println!("  xai-shard-worker --listen {}", d.addr());
    }

    // ── 3. Cluster execution at several shard counts ────────────────
    let config = ClusterConfig::new(daemons.iter().map(|d| d.addr().to_string()));
    let cluster = ClusterBackend::from_config(config).unwrap();
    let runner = cluster.runner();
    for n_shards in [1usize, 2, 4, 7] {
        let job = BackendJob::new(&method, &model, &req, n_shards).with_model_json(model.save());
        let outcome = cluster.execute(&job).unwrap();
        assert_eq!(outcome.explanation.to_json_string(), reference_bytes);
        assert!(!outcome.degraded);
        println!("cluster n_shards = {n_shards}: bit-identical to the reference");
    }
    let stats = runner.stats();
    println!(
        "transport: {} dispatches, {} retries, {} transport failures",
        stats.attempts, stats.retries, stats.transport_failures
    );
    for h in runner.health() {
        println!("  endpoint {}: {:?}, {} ok / {} failed", h.addr, h.state, h.successes, h.failures);
    }

    // ── 4. Graceful degradation: kill the cluster, keep the bytes ───
    drop(daemons);
    let mut dead_config = ClusterConfig::new(runner.config().endpoints.clone());
    dead_config.connect_timeout = Duration::from_millis(500);
    dead_config.retry.max_attempts = 2;
    dead_config.fallback = FallbackPolicy::InProcess;
    let dead = ClusterBackend::from_config(dead_config).unwrap();
    let job = BackendJob::new(&method, &model, &req, 4).with_model_json(model.save());
    let outcome = dead.execute(&job).unwrap();
    assert_eq!(outcome.explanation.to_json_string(), reference_bytes);
    assert!(outcome.degraded);
    println!(
        "\ncluster gone: degraded to the in-process runner ({} transport failures), \
         same bytes.",
        dead.runner().stats().transport_failures
    );
}
