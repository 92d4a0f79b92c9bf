//! Process-pool shard execution (DESIGN.md §11).
//!
//! The core shard layer ([`xai_core::shard`], re-exported here) cuts an
//! estimator's draw grid into self-contained [`ShardDescriptor`]s and
//! merges [`ShardResult`]s bit-identically to the unsharded run. This
//! module adds only the worker side, which needs the full workspace:
//!
//! - [`execute_wire_text`] — one descriptor end to end. The model comes
//!   from the one model decoder ([`xai_models::decode_model`]) and the
//!   method from the one method table ([`crate::unified::all_explainers`],
//!   by card name, rebuilt through
//!   [`ShardableExplainer::from_config_json`]).
//! - [`run_worker`] — the worker side, wrapped by the
//!   `xai-shard-worker` binary: parse, execute, answer. A worker exits 0
//!   even on typed failures (the error travels in the envelope); only
//!   catastrophic states exit non-zero.
//!
//! The coordinator side is [`xai_core::backend::ProcessPoolBackend`]:
//! one OS process per shard (waves of `max_procs`), descriptor on the
//! worker's stdin, canonical result or error envelope on its stdout,
//! typed errors for every worker failure mode and a hard deadline so a
//! stuck worker can never hang the caller.
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

use std::io::Read;
use std::path::PathBuf;
use std::time::Duration;

use xai_core::{XaiError, XaiResult};
use xai_rand::parallel::panic_message;

pub use xai_core::backend::PoolConfig;
pub use xai_core::shard::*;

/// Executes one wire-form descriptor end to end: parse, rebuild the
/// model (verifying the fingerprint against its canonical bytes),
/// rebuild the method, run the chunk range. Shared by the stdin worker
/// ([`run_worker`]) and the TCP daemon (`xai::transport`). An unknown
/// or unshardable method, an unknown model kind and a fingerprint
/// mismatch are typed [`XaiError::Parse`] errors.
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
        .from_config_json(&desc.config)?;
    execute_descriptor(&desc, explainer.as_ref(), model.as_ref())
}

/// [`execute_wire_text`] with panics caught: a panic becomes a typed
/// [`XaiError::WorkerPanic`] (task 0; the coordinator pins the shard
/// index), so the stdin worker and the TCP daemon answer with a
/// `worker_panic` envelope instead of dying. `injected_panic`, when set,
/// is raised in place of execution (the fault-injection hooks).
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

/// The `xai-shard-worker` entry point: read one [`ShardDescriptor`] from
/// stdin, write one canonical [`ShardResult`] — or a shard error
/// envelope — to stdout, and return the process exit code.
///
/// Handled paths always exit 0; the pool distinguishes success from
/// typed failure by the payload, not the exit code, so an envelope is
/// never mistaken for a crash. A caught panic becomes a `worker_panic`
/// envelope. The `XAI_SHARD_FAULT` variable (`panic`, `garbage`, `exit`,
/// `hang`) injects failure modes for the supervision tests.
pub fn run_worker() -> i32 {
    let fault = std::env::var("XAI_SHARD_FAULT").unwrap_or_default();
    match fault.as_str() {
        "garbage" => {
            println!("this is not shard JSON {{");
            return 0;
        }
        "exit" => return 3,
        "hang" => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
        _ => {}
    }
    let mut input = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut input) {
        let err = XaiError::from_io(&e, "reading shard descriptor from stdin");
        println!("{}", error_to_json(&err).to_json());
        return 0;
    }
    let injected = (fault == "panic").then_some("injected shard worker fault");
    let text = match execute_caught(&input, injected) {
        Ok(result) => result.to_json_string(),
        Err(e) => error_to_json(&e).to_json(),
    };
    println!("{text}");
    0
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
