//! Process-pool shard execution (DESIGN.md §11).
//!
//! The core shard layer ([`xai_core::shard`], re-exported here) cuts an
//! estimator's draw grid into self-contained [`ShardDescriptor`]s and
//! merges [`ShardResult`]s bit-identically to the unsharded run. This
//! module adds the pieces only the facade can provide — it knows every
//! method and every persistable model:
//!
//! - [`shardable`] — the method factory: taxonomy card name + canonical
//!   config JSON → a boxed [`ShardableExplainer`].
//! - [`PersistedModel`] / [`resolve_model`] — rebuild any persisted
//!   workspace model from its descriptor JSON, usable as a
//!   [`ModelOracle`].
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

use xai_core::{Json, ModelOracle, XaiError, XaiResult};
use xai_models::Persist;
use xai_rand::parallel::panic_message;

pub use xai_core::backend::PoolConfig;
pub use xai_core::shard::*;

use xai_counterfactual::DiceMethod;
use xai_datavalue::{BanzhafMethod, LooMethod, TmcMethod};
use xai_rules::AnchorsMethod;
use xai_shapley::{KernelShapMethod, PermutationShapleyMethod};
use xai_surrogate::{LimeMethod, SpLimeMethod};

// ---------------------------------------------------------------------------
// Method factory
// ---------------------------------------------------------------------------

/// Rebuilds a shardable method from its taxonomy card name and canonical
/// config JSON — the worker-side counterpart of
/// [`ShardableExplainer::config_json`]. Unknown methods and malformed
/// configs are typed [`XaiError::Parse`] errors.
pub fn shardable(method: &str, config: &Json) -> XaiResult<Box<dyn ShardableExplainer>> {
    Ok(match method {
        "Permutation sampling Shapley" => {
            Box::new(PermutationShapleyMethod::from_config_json(config)?)
        }
        "Kernel SHAP" => Box::new(KernelShapMethod::from_config_json(config)?),
        "LIME" => Box::new(LimeMethod::from_config_json(config)?),
        "SP-LIME" => Box::new(SpLimeMethod::from_config_json(config)?),
        "Anchors" => Box::new(AnchorsMethod::from_config_json(config)?),
        "DiCE" => Box::new(DiceMethod::from_config_json(config)?),
        "Leave-one-out" => Box::new(LooMethod::from_config_json(config)?),
        "Data Shapley (TMC)" => Box::new(TmcMethod::from_config_json(config)?),
        "Data Banzhaf" => Box::new(BanzhafMethod::from_config_json(config)?),
        other => {
            return Err(wire_error(format!("shard method: '{other}' is not shardable")));
        }
    })
}

// ---------------------------------------------------------------------------
// Model resolution
// ---------------------------------------------------------------------------

/// Any workspace model that can travel in a descriptor: the [`Persist`]
/// implementors, rebuilt from their persisted JSON and usable as a
/// [`ModelOracle`] by delegation.
pub enum PersistedModel {
    /// Ordinary least squares / ridge regression.
    Linear(xai_models::LinearRegression),
    /// Binary logistic regression.
    Logistic(xai_models::LogisticRegression),
    /// A single CART decision tree.
    Tree(xai_models::DecisionTree),
    /// Gradient-boosted decision trees.
    Gbdt(xai_models::Gbdt),
}

impl PersistedModel {
    fn oracle(&self) -> &dyn ModelOracle {
        match self {
            PersistedModel::Linear(m) => m,
            PersistedModel::Logistic(m) => m,
            PersistedModel::Tree(m) => m,
            PersistedModel::Gbdt(m) => m,
        }
    }

    /// The persisted JSON form (round-trips through [`resolve_model`]).
    pub fn save(&self) -> Json {
        match self {
            PersistedModel::Linear(m) => m.save(),
            PersistedModel::Logistic(m) => m.save(),
            PersistedModel::Tree(m) => m.save(),
            PersistedModel::Gbdt(m) => m.save(),
        }
    }
}

impl ModelOracle for PersistedModel {
    fn n_features(&self) -> usize {
        self.oracle().n_features()
    }
    fn predict(&self, x: &[f64]) -> f64 {
        self.oracle().predict(x)
    }
    fn predict_batch(&self, rows: &xai_linalg::Matrix) -> Vec<f64> {
        self.oracle().predict_batch(rows)
    }
    fn gradient(&self, x: &[f64]) -> Option<Vec<f64>> {
        self.oracle().gradient(x)
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.oracle().as_any()
    }
}

/// Rebuilds a model from descriptor JSON, dispatching on its persisted
/// `"kind"` tag. Unknown kinds and malformed payloads are typed
/// [`XaiError::Parse`] errors.
pub fn resolve_model(json: &Json) -> XaiResult<PersistedModel> {
    const WHAT: &str = "shard model";
    Ok(match str_field(json, "kind", WHAT)?.as_str() {
        "linear_regression" => PersistedModel::Linear(Persist::load(json)?),
        "logistic_regression" => PersistedModel::Logistic(Persist::load(json)?),
        "decision_tree" => PersistedModel::Tree(Persist::load(json)?),
        "gbdt" => PersistedModel::Gbdt(Persist::load(json)?),
        other => return Err(wire_error(format!("{WHAT}: unknown model kind '{other}'"))),
    })
}

// ---------------------------------------------------------------------------
// The worker side
// ---------------------------------------------------------------------------

/// Executes one wire-form descriptor end to end: parse, rebuild the
/// model (verifying the fingerprint), rebuild the method, run the chunk
/// range. Shared by the stdin worker ([`run_worker`]) and the TCP daemon
/// (`xai::transport`).
pub fn execute_wire_text(input: &str) -> XaiResult<ShardResult> {
    let desc = ShardDescriptor::from_json_str(input)?;
    let model = resolve_model(&desc.model)?;
    let fingerprint = fingerprint_hex(model.save().to_json().as_bytes());
    if fingerprint != desc.fingerprint {
        return Err(wire_error(format!(
            "ShardDescriptor: model fingerprint mismatch (descriptor {}, model {fingerprint})",
            desc.fingerprint
        )));
    }
    let explainer = shardable(&desc.method, &desc.config)?;
    execute_descriptor(&desc, explainer.as_ref(), &model)
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
