//! Sharded explanation runs (DESIGN.md §11): one estimation job split
//! into deterministic shards, executed three ways — unsharded, sharded
//! in-process (`LocalBackend`), and sharded across local daemon
//! processes (`ProcessPoolBackend`) — all producing the same bytes.
//!
//! The shard plan partitions the estimator's *random draws* (here the
//! sampled coalitions of Kernel SHAP), so each shard replays exactly
//! its slice of the seed stream and the merge is bit-identical to the
//! single-machine run at any shard count.
//!
//! ```sh
//! cargo build && cargo run --example shard_demo
//! ```
//!
//! (A debug `cargo build` first, so the sibling `xai-shard-worker`
//! binary exists for the process-pool leg.)

use xai::prelude::*;
use xai::shard::{build_descriptors, sibling_worker_exe};
use xai_models::Persist;

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
    let reference = method.explain(&model, &req).unwrap();
    let reference_bytes = reference.to_json_string();
    println!("unsharded Kernel SHAP: {} bytes of canonical JSON", reference_bytes.len());

    // ── 2. What travels between machines: the shard descriptors ────
    let descriptors = build_descriptors(&method, &req, model.save(), 2).unwrap();
    println!("\nshard plan at n_shards = 2:");
    for d in &descriptors {
        println!(
            "  shard {}/{}: chunks [{}, {}) of {} draws, fingerprint {}",
            d.shard, d.n_shards, d.chunk_start, d.chunk_end, d.total_draws, d.fingerprint
        );
    }

    // ── 3. In-process sharded execution, several shard counts ───────
    for n_shards in [1usize, 2, 4, 7] {
        let job = BackendJob::new(&method, &model, &req, n_shards);
        let sharded = LocalBackend.execute(&job).unwrap().explanation;
        assert_eq!(sharded.to_json_string(), reference_bytes);
        println!("in-process  n_shards = {n_shards}: bit-identical to the reference");
    }

    // ── 4. Process-pool execution: descriptors framed over TCP to local
    //       daemons the pool spawns, merged back by the coordinator ──
    let Some(worker) = sibling_worker_exe() else {
        println!("\nxai-shard-worker binary not found next to this example;");
        println!("run `cargo build` first to exercise the process-pool leg.");
        return;
    };
    let pool = ProcessPoolBackend::new(PoolConfig::new(worker));
    for n_shards in [2usize, 4] {
        let job = BackendJob::new(&method, &model, &req, n_shards).with_model_json(model.save());
        let pooled = pool.execute(&job).unwrap().explanation;
        assert_eq!(pooled.to_json_string(), reference_bytes);
        println!("process pool n_shards = {n_shards}: bit-identical to the reference");
    }

    println!("\nevery execution strategy produced the same bytes.");
}
