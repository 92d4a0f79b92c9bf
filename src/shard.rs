//! Shard execution on the worker side (DESIGN.md §11).
//!
//! The core shard layer ([`xai_core::shard`], re-exported here) cuts an
//! estimator's draw grid into self-contained [`ShardDescriptor`]s and
//! merges [`ShardResult`]s bit-identically to the unsharded run. This
//! module adds only the worker side, which needs the full workspace:
//! [`execute_wire_text`] runs one descriptor end to end. The model comes
//! from the one model decoder ([`xai_models::decode_model`]) and the
//! method from the one method table ([`crate::unified::all_explainers`],
//! by card name, rebuilt through
//! [`ShardableExplainer::rebuild_from_config`]). The `xai-shard-worker`
//! binary serves it over TCP ([`crate::transport::run_daemon`]).
//!
//! The coordinator side on one machine is
//! [`xai_core::backend::ProcessPoolBackend`]: it spawns
//! [`PoolConfig::max_procs`] local daemons on first use and runs every
//! shard plan on them through a [`crate::transport::ClusterRunner`], so
//! it shares the cluster's wire protocol, supervision and typed errors;
//! [`PoolConfig::deadline`] bounds each shard's response, so a stuck
//! daemon can never hang the caller.
//!
//! ```no_run
//! use xai::models::Persist;
//! use xai::prelude::*;
//!
//! let data = xai::data::synth::german_credit(80, 7);
//! let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
//! let row = data.row(0).to_vec();
//! let req = ExplainRequest::new(&data)
//!     .instance(&row)
//!     .plan(RunConfig::seeded(7).with_workers(2));
//! let method = KernelShapMethod::default();
//! let pool = ProcessPoolBackend::new(PoolConfig::new("target/debug/xai-shard-worker"));
//! let job = BackendJob::new(&method, &model, &req, 4).with_model_json(model.save());
//! let sharded = pool.execute(&job).unwrap().explanation;
//! let local = method.explain(&model, &req).unwrap();
//! assert_eq!(sharded.to_json_string(), local.to_json_string());
//! ```

use std::path::PathBuf;

use xai_core::{XaiError, XaiResult};
use xai_rand::parallel::panic_message;

pub use xai_core::backend::PoolConfig;
pub use xai_core::shard::*;

/// Executes one wire-form descriptor end to end: parse, rebuild the
/// model (verifying the fingerprint against its canonical bytes),
/// rebuild the method, run the chunk range. The shard daemon
/// ([`crate::transport::run_daemon`]) runs every descriptor through it.
/// An unknown or unshardable method, an unknown model kind and a
/// fingerprint mismatch are typed [`XaiError::Parse`] errors.
pub fn execute_wire_text(input: &str) -> XaiResult<ShardResult> {
    let desc = ShardDescriptor::from_json_str(input)?;
    let (model, bytes) = xai_models::decode_model(&desc.model)?;
    let fingerprint = fingerprint_hex(&bytes);
    if fingerprint != desc.fingerprint {
        return Err(wire_error(format!(
            "ShardDescriptor: model fingerprint mismatch (descriptor {}, model {fingerprint})",
            desc.fingerprint
        )));
    }
    let catalogued = crate::unified::all_explainers()
        .into_iter()
        .find(|e| e.card().name == desc.method)
        .ok_or_else(|| wire_error(format!("shard method: unknown method '{}'", desc.method)))?;
    let explainer = catalogued
        .as_shardable()
        .ok_or_else(|| wire_error(format!("shard method: '{}' is not shardable", desc.method)))?
        .rebuild_from_config(&desc.config)?;
    execute_descriptor(&desc, explainer.as_ref(), model.as_ref())
}

/// [`execute_wire_text`] with panics caught: a panic becomes a typed
/// [`XaiError::WorkerPanic`] (task 0; the coordinator pins the shard
/// index), so the daemon answers with a `worker_panic` envelope instead
/// of dying. `injected_panic`, when set, is raised in place of execution
/// (the `XAI_TRANSPORT_FAULT=panic` hook).
pub(crate) fn execute_caught(text: &str, injected_panic: Option<&str>) -> XaiResult<ShardResult> {
    std::panic::catch_unwind(|| {
        if let Some(message) = injected_panic {
            panic!("{message}");
        }
        execute_wire_text(text)
    })
    .unwrap_or_else(|payload| {
        Err(XaiError::WorkerPanic { task: 0, message: panic_message(payload) })
    })
}

/// Locates the sibling `xai-shard-worker` binary next to the current
/// executable — the layout `cargo` produces for examples and test
/// binaries. Returns `None` when it is not built, so callers can skip
/// gracefully instead of failing.
pub fn sibling_worker_exe() -> Option<PathBuf> {
    let mut dir = std::env::current_exe().ok()?;
    dir.pop();
    // Test and example binaries live one level deeper (deps/, examples/).
    for candidate in [dir.clone(), dir.parent()?.to_path_buf()] {
        let exe = candidate.join(format!("xai-shard-worker{}", std::env::consts::EXE_SUFFIX));
        if exe.is_file() {
            return Some(exe);
        }
    }
    None
}
