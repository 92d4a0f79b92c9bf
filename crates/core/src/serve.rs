//! The explanation-serving engine (DESIGN.md §10): explanations as
//! *queries* rather than library calls.
//!
//! The paper's data-management thesis is that an explanation request is
//! declarative data — a method name, a model handle, an instance and an
//! execution plan — that an engine admits, plans, caches and executes,
//! exactly like a database query. This module is that engine, in-process
//! and dependency-free:
//!
//! - [`ServeRequest`] is the wire form: it round-trips through
//!   [`Json`] (`from_json`/`to_json`) with **typed** parse errors
//!   ([`XaiError::Parse`] / [`XaiError::NonFiniteInput`]), and its
//!   canonical serialization is hashed into the cache key.
//! - [`ExplanationService`] owns a registered model set (each model
//!   fingerprinted by hashing its persisted bytes), the runnable
//!   [`Registry`], a fixed pool of worker threads, a **bounded**
//!   submission queue with admission control ([`XaiError::QueueFull`]),
//!   and an LRU result cache keyed on
//!   `(model fingerprint, canonical request hash)`.
//! - [`ServeStats`] is a point-in-time snapshot of the engine's
//!   counters: submissions, rejections, completions, failures, cache
//!   hits/misses/evictions.
//!
//! # Determinism under concurrency
//!
//! Every runnable method is a pure function of
//! `(model, data, request-with-plan)`: stochastic draws come from
//! `StdRng::seed_from_u64(plan.seed)` streams and `workers > 1` plans run
//! the method's deterministic chunk grid on `plan.workers` executor
//! threads. The serving pool adds an *outer* layer of concurrency
//! — which requests run when, and on which worker — that cannot perturb
//! results: pool size, queue order and thread interleaving are invisible
//! to the explainers. Cached payloads are the canonical JSON bytes of
//! the explanation, so a cache hit is byte-equal to the cold miss that
//! populated it.
//!
//! # Budgets and degradation
//!
//! The plan's [`SampleBudget`] travels with the request; budgeted
//! methods stop drawing at the cap and return a best-effort partial
//! estimate (the PR 4 fault layer), so a deadline on a serving request
//! degrades gracefully instead of timing out the worker.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use xai_data::Dataset;
use xai_rand::parallel::panic_message;

use crate::cache::Lru;
use crate::error::{SampleBudget, XaiError, XaiResult};
use crate::explainer::{
    CurveExplanation, DegradationPolicy, ExplainRequest, Explanation, ModelOracle, RunConfig,
};
use crate::explanation::{
    Condition, Counterfactual, DataAttribution, FeatureAttribution, Op, RuleExplanation,
};
use crate::json_parse::parse_json;
use crate::report::Json;
use crate::taxonomy::Registry;

// ---------------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a hash of a byte string.
///
/// Used for both halves of the result-cache key: the model fingerprint
/// (over the model's persisted bytes, see `xai_models::persist`) and the
/// request hash (over [`ServeRequest::to_json_string`]). FNV-1a is not
/// cryptographic — it pins *identity*, not integrity.
pub fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// JSON helpers (typed Parse errors)
// ---------------------------------------------------------------------------

fn perr(context: impl Into<String>) -> XaiError {
    XaiError::Parse { context: context.into() }
}

fn str_field(json: &Json, key: &str, what: &str) -> XaiResult<String> {
    match json.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(_) => Err(perr(format!("{what}: '{key}' must be a string"))),
        None => Err(perr(format!("{what}: missing required field '{key}'"))),
    }
}

fn num_field(json: &Json, key: &str, what: &str) -> XaiResult<f64> {
    json.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| perr(format!("{what}: '{key}' must be a number")))
}

fn nums_field(json: &Json, key: &str, what: &str) -> XaiResult<Vec<f64>> {
    let arr = json
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| perr(format!("{what}: '{key}' must be an array of numbers")))?;
    arr.iter()
        .enumerate()
        .map(|(i, v)| {
            v.as_num().ok_or_else(|| perr(format!("{what}: {key}[{i}] is not a number")))
        })
        .collect()
}

fn strs_field(json: &Json, key: &str, what: &str) -> XaiResult<Vec<String>> {
    let arr = json
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| perr(format!("{what}: '{key}' must be an array of strings")))?;
    arr.iter()
        .enumerate()
        .map(|(i, v)| match v {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(perr(format!("{what}: {key}[{i}] is not a string"))),
        })
        .collect()
}

/// JSON numbers standing for counts/indices/seeds must be non-negative
/// integers representable exactly in an `f64` (≤ 2^53).
fn integer_field(v: f64, what: &str) -> XaiResult<u64> {
    const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if !v.is_finite() || v < 0.0 || v.fract() != 0.0 || v > MAX_EXACT {
        return Err(perr(format!("{what} must be a non-negative integer, got {v}")));
    }
    Ok(v as u64)
}

// ---------------------------------------------------------------------------
// ServeRequest: the wire form
// ---------------------------------------------------------------------------

/// A declarative explanation request: what [`ExplanationService::submit`]
/// accepts and what travels as JSON.
///
/// The request *is* data — method name, registered-model name, optional
/// instance and feature index, and the full [`RunConfig`] execution plan.
/// [`ServeRequest::to_json`] emits a **canonical** form (fixed field
/// order, every field present) whose bytes feed
/// [`ServeRequest::canonical_hash`]; semantically equal requests hash
/// equally regardless of how sparse their inbound JSON was.
///
/// Wire format (canonical):
///
/// ```json
/// {"method": "Kernel SHAP", "model": "credit", "instance": [..] | null,
///  "feature": 1 | null,
///  "plan": {"seed": 7, "workers": 1, "batched": false,
///           "max_evals": 500 | null, "max_duration_ms": 50 | null,
///           "degradation": "best_effort" | "strict"}}
/// ```
///
/// Seeds are carried as JSON numbers, so wire seeds are limited to the
/// exactly-representable range `0..=2^53`; [`ServeRequest::from_json`]
/// rejects anything else with a typed [`XaiError::Parse`].
#[derive(Clone, Debug, PartialEq)]
pub struct ServeRequest {
    /// Taxonomy card name of the method to run (e.g. `"Kernel SHAP"`).
    pub method: String,
    /// Name the model was registered under.
    pub model: String,
    /// The instance to explain, for local methods.
    pub instance: Option<Vec<f64>>,
    /// Feature column index, for curve methods (PDP/ICE).
    pub feature: Option<usize>,
    /// The execution plan: seed, workers, batching, budget, degradation.
    pub plan: RunConfig,
}

impl ServeRequest {
    /// A request for `method` against registered model `model`, with the
    /// default plan and no instance/feature.
    pub fn new(method: impl Into<String>, model: impl Into<String>) -> Self {
        Self {
            method: method.into(),
            model: model.into(),
            instance: None,
            feature: None,
            plan: RunConfig::default(),
        }
    }

    /// Sets the instance to explain.
    pub fn with_instance(mut self, x: &[f64]) -> Self {
        self.instance = Some(x.to_vec());
        self
    }

    /// Sets the swept feature index (curve methods).
    pub fn with_feature(mut self, j: usize) -> Self {
        self.feature = Some(j);
        self
    }

    /// Sets the execution plan.
    pub fn with_plan(mut self, plan: RunConfig) -> Self {
        self.plan = plan;
        self
    }

    /// Canonical JSON form: fixed field order, every field present.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("method", Json::str(&*self.method)),
            ("model", Json::str(&*self.model)),
            (
                "instance",
                match &self.instance {
                    Some(xs) => Json::nums(xs),
                    None => Json::Null,
                },
            ),
            (
                "feature",
                match self.feature {
                    Some(j) => Json::Num(j as f64),
                    None => Json::Null,
                },
            ),
            ("plan", plan_to_json(&self.plan)),
        ])
    }

    /// Canonical compact JSON text — the bytes behind
    /// [`ServeRequest::canonical_hash`].
    pub fn to_json_string(&self) -> String {
        self.to_json().to_json()
    }

    /// FNV-1a hash of the canonical serialization; the request half of
    /// the result-cache key.
    pub fn canonical_hash(&self) -> u64 {
        fingerprint_bytes(self.to_json_string().as_bytes())
    }

    /// Parses a request from a [`Json`] tree.
    ///
    /// Strict: unknown fields, wrong types, fractional/negative counts
    /// and workers `< 1` are [`XaiError::Parse`]; non-finite instance
    /// coordinates (e.g. the literal `1e999`, which parses to `+Inf`)
    /// are [`XaiError::NonFiniteInput`]. Absent `instance`, `feature`
    /// and `plan` (or explicit `null`s) fall back to the defaults.
    pub fn from_json(json: &Json) -> XaiResult<ServeRequest> {
        let Json::Obj(fields) = json else {
            return Err(perr("ServeRequest: expected a JSON object"));
        };
        for (key, _) in fields {
            if !matches!(key.as_str(), "method" | "model" | "instance" | "feature" | "plan") {
                return Err(perr(format!("ServeRequest: unknown field '{key}'")));
            }
        }
        let method = str_field(json, "method", "ServeRequest")?;
        let model = str_field(json, "model", "ServeRequest")?;
        let instance = match json.get("instance") {
            None | Some(Json::Null) => None,
            Some(Json::Arr(items)) => {
                let mut xs = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    match item.as_num() {
                        Some(v) if v.is_finite() => xs.push(v),
                        Some(v) => {
                            return Err(XaiError::NonFiniteInput {
                                context: format!("ServeRequest: instance[{i}] is {v}"),
                            })
                        }
                        None => {
                            return Err(perr(format!(
                                "ServeRequest: instance[{i}] is not a number"
                            )))
                        }
                    }
                }
                Some(xs)
            }
            Some(_) => {
                return Err(perr("ServeRequest: 'instance' must be an array of numbers or null"))
            }
        };
        let feature = match json.get("feature") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let n = v
                    .as_num()
                    .ok_or_else(|| perr("ServeRequest: 'feature' must be a number or null"))?;
                Some(integer_field(n, "ServeRequest feature")? as usize)
            }
        };
        let plan = match json.get("plan") {
            None | Some(Json::Null) => RunConfig::default(),
            Some(p) => parse_plan(p)?,
        };
        Ok(ServeRequest { method, model, instance, feature, plan })
    }

    /// Parses a request from JSON text.
    pub fn from_json_str(text: &str) -> XaiResult<ServeRequest> {
        Self::from_json(&parse_json(text)?)
    }
}

/// Canonical JSON form of an execution plan: fixed field order, every
/// field present. Shared by [`ServeRequest`] and the shard descriptors.
pub(crate) fn plan_to_json(p: &RunConfig) -> Json {
    Json::obj(vec![
        ("seed", Json::Num(p.seed as f64)),
        ("workers", Json::Num(p.workers as f64)),
        ("batched", Json::Bool(p.batched)),
        (
            "max_evals",
            match p.budget.max_evals {
                Some(n) => Json::Num(n as f64),
                None => Json::Null,
            },
        ),
        (
            "max_duration_ms",
            match p.budget.max_duration {
                Some(d) => Json::Num(d.as_millis() as f64),
                None => Json::Null,
            },
        ),
        (
            "degradation",
            Json::str(match p.degradation {
                DegradationPolicy::BestEffort => "best_effort",
                DegradationPolicy::Strict => "strict",
            }),
        ),
        ("backend", p.backend.to_json()),
    ])
}

pub(crate) fn parse_plan(json: &Json) -> XaiResult<RunConfig> {
    let Json::Obj(fields) = json else {
        return Err(perr("ServeRequest: 'plan' must be an object or null"));
    };
    for (key, _) in fields {
        if !matches!(
            key.as_str(),
            "seed"
                | "workers"
                | "batched"
                | "max_evals"
                | "max_duration_ms"
                | "degradation"
                | "backend"
        ) {
            return Err(perr(format!("ServeRequest plan: unknown field '{key}'")));
        }
    }
    let mut plan = RunConfig::default();
    if let Some(v) = json.get("seed") {
        let n = v.as_num().ok_or_else(|| perr("ServeRequest plan: 'seed' must be a number"))?;
        plan.seed = integer_field(n, "ServeRequest plan seed")?;
    }
    if let Some(v) = json.get("workers") {
        let n = v.as_num().ok_or_else(|| perr("ServeRequest plan: 'workers' must be a number"))?;
        let w = integer_field(n, "ServeRequest plan workers")? as usize;
        if w == 0 {
            return Err(perr("ServeRequest plan: workers must be >= 1"));
        }
        plan.workers = w;
    }
    if let Some(v) = json.get("batched") {
        plan.batched = match v {
            Json::Bool(b) => *b,
            _ => return Err(perr("ServeRequest plan: 'batched' must be a boolean")),
        };
    }
    let mut budget = SampleBudget::unlimited();
    match json.get("max_evals") {
        None | Some(Json::Null) => {}
        Some(v) => {
            let n =
                v.as_num().ok_or_else(|| perr("ServeRequest plan: 'max_evals' must be a number"))?;
            budget.max_evals = Some(integer_field(n, "ServeRequest plan max_evals")? as usize);
        }
    }
    match json.get("max_duration_ms") {
        None | Some(Json::Null) => {}
        Some(v) => {
            let n = v
                .as_num()
                .ok_or_else(|| perr("ServeRequest plan: 'max_duration_ms' must be a number"))?;
            let ms = integer_field(n, "ServeRequest plan max_duration_ms")?;
            budget.max_duration = Some(Duration::from_millis(ms));
        }
    }
    plan.budget = budget;
    if let Some(v) = json.get("degradation") {
        plan.degradation = match v {
            Json::Str(s) if s == "best_effort" => DegradationPolicy::BestEffort,
            Json::Str(s) if s == "strict" => DegradationPolicy::Strict,
            _ => {
                return Err(perr(
                    "ServeRequest plan: 'degradation' must be \"best_effort\" or \"strict\"",
                ))
            }
        };
    }
    // Absent or null means the in-process default, so pre-backend wire
    // forms keep parsing (and hashing) exactly as before.
    match json.get("backend") {
        None | Some(Json::Null) => {}
        Some(v) => plan.backend = crate::backend::BackendChoice::from_json(v)?,
    }
    Ok(plan)
}

// ---------------------------------------------------------------------------
// Explanation wire serde
// ---------------------------------------------------------------------------

fn op_name(op: Op) -> &'static str {
    match op {
        Op::Le => "le",
        Op::Gt => "gt",
        Op::Eq => "eq",
    }
}

fn op_from_name(s: &str) -> XaiResult<Op> {
    match s {
        "le" => Ok(Op::Le),
        "gt" => Ok(Op::Gt),
        "eq" => Ok(Op::Eq),
        other => Err(perr(format!("rule condition: unknown op '{other}'"))),
    }
}

fn condition_to_json(c: &Condition) -> Json {
    Json::obj(vec![
        ("feature", Json::Num(c.feature as f64)),
        ("name", Json::str(&*c.feature_name)),
        ("op", Json::str(op_name(c.op))),
        ("value", Json::Num(c.value)),
    ])
}

fn condition_from_json(json: &Json) -> XaiResult<Condition> {
    let feature = integer_field(num_field(json, "feature", "rule condition")?, "condition feature")?
        as usize;
    let feature_name = str_field(json, "name", "rule condition")?;
    let op = op_from_name(&str_field(json, "op", "rule condition")?)?;
    let value = num_field(json, "value", "rule condition")?;
    Ok(Condition { feature, feature_name, op, value })
}

fn rule_to_json(r: &RuleExplanation) -> Json {
    Json::obj(vec![
        ("conditions", Json::Arr(r.conditions.iter().map(condition_to_json).collect())),
        ("prediction", Json::Num(r.prediction)),
        ("precision", Json::Num(r.precision)),
        ("coverage", Json::Num(r.coverage)),
    ])
}

fn rule_from_json(json: &Json) -> XaiResult<RuleExplanation> {
    let conditions = json
        .get("conditions")
        .and_then(Json::as_arr)
        .ok_or_else(|| perr("rule: 'conditions' must be an array"))?
        .iter()
        .map(condition_from_json)
        .collect::<XaiResult<Vec<_>>>()?;
    Ok(RuleExplanation {
        conditions,
        prediction: num_field(json, "prediction", "rule")?,
        precision: num_field(json, "precision", "rule")?,
        coverage: num_field(json, "coverage", "rule")?,
    })
}

fn counterfactual_to_json(c: &Counterfactual) -> Json {
    Json::obj(vec![
        ("original", Json::nums(&c.original)),
        ("counterfactual", Json::nums(&c.counterfactual)),
        ("original_output", Json::Num(c.original_output)),
        ("counterfactual_output", Json::Num(c.counterfactual_output)),
        (
            "changed_features",
            Json::Arr(c.changed_features.iter().map(|&j| Json::Num(j as f64)).collect()),
        ),
        ("distance", Json::Num(c.distance)),
    ])
}

fn counterfactual_from_json(json: &Json) -> XaiResult<Counterfactual> {
    let changed = nums_field(json, "changed_features", "counterfactual")?
        .into_iter()
        .map(|v| integer_field(v, "counterfactual changed feature").map(|n| n as usize))
        .collect::<XaiResult<Vec<_>>>()?;
    Ok(Counterfactual {
        original: nums_field(json, "original", "counterfactual")?,
        counterfactual: nums_field(json, "counterfactual", "counterfactual")?,
        original_output: num_field(json, "original_output", "counterfactual")?,
        counterfactual_output: num_field(json, "counterfactual_output", "counterfactual")?,
        changed_features: changed,
        distance: num_field(json, "distance", "counterfactual")?,
    })
}

impl Explanation {
    /// Structured, loss-free wire form of the explanation, tagged by
    /// `"kind"`. Unlike [`crate::report::ToReport`] (a human-facing
    /// report where rule conditions are display strings), every field
    /// here parses back: [`Explanation::from_json`] restores a value
    /// that compares equal, and serializing *that* reproduces the bytes
    /// (Rust's shortest-round-trip float formatting).
    pub fn to_json(&self) -> Json {
        match self {
            Explanation::Attribution(a) => Json::obj(vec![
                ("kind", Json::str("feature_attribution")),
                ("features", Json::strs(&a.feature_names)),
                ("values", Json::nums(&a.values)),
                ("baseline", Json::Num(a.baseline)),
                ("prediction", Json::Num(a.prediction)),
            ]),
            Explanation::Rules(rules) => Json::obj(vec![
                ("kind", Json::str("rules")),
                ("rules", Json::Arr(rules.iter().map(rule_to_json).collect())),
            ]),
            Explanation::Counterfactuals(cfs) => Json::obj(vec![
                ("kind", Json::str("counterfactuals")),
                (
                    "counterfactuals",
                    Json::Arr(cfs.iter().map(counterfactual_to_json).collect()),
                ),
            ]),
            Explanation::DataValuation(v) => Json::obj(vec![
                ("kind", Json::str("data_valuation")),
                ("measure", Json::str(&*v.measure)),
                ("values", Json::nums(&v.values)),
            ]),
            Explanation::Curve(c) => Json::obj(vec![
                ("kind", Json::str("curve")),
                ("feature", Json::Num(c.feature as f64)),
                ("grid", Json::nums(&c.grid)),
                ("values", Json::nums(&c.values)),
                (
                    "ice",
                    match &c.ice {
                        Some(rows) => Json::Arr(rows.iter().map(|r| Json::nums(r)).collect()),
                        None => Json::Null,
                    },
                ),
            ]),
        }
    }

    /// Compact JSON text of [`Explanation::to_json`] — the cached
    /// payload bytes.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_json()
    }

    /// Parses an explanation from its wire form, dispatching on `"kind"`
    /// with typed [`XaiError::Parse`] errors.
    pub fn from_json(json: &Json) -> XaiResult<Explanation> {
        match str_field(json, "kind", "Explanation")?.as_str() {
            "feature_attribution" => {
                let names = strs_field(json, "features", "feature_attribution")?;
                let values = nums_field(json, "values", "feature_attribution")?;
                if names.len() != values.len() {
                    return Err(perr(format!(
                        "feature_attribution: {} names vs {} values",
                        names.len(),
                        values.len()
                    )));
                }
                Ok(Explanation::Attribution(FeatureAttribution {
                    feature_names: names,
                    values,
                    baseline: num_field(json, "baseline", "feature_attribution")?,
                    prediction: num_field(json, "prediction", "feature_attribution")?,
                }))
            }
            "rules" => {
                let rules = json
                    .get("rules")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| perr("rules: 'rules' must be an array"))?
                    .iter()
                    .map(rule_from_json)
                    .collect::<XaiResult<Vec<_>>>()?;
                Ok(Explanation::Rules(rules))
            }
            "counterfactuals" => {
                let cfs = json
                    .get("counterfactuals")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| perr("counterfactuals: 'counterfactuals' must be an array"))?
                    .iter()
                    .map(counterfactual_from_json)
                    .collect::<XaiResult<Vec<_>>>()?;
                Ok(Explanation::Counterfactuals(cfs))
            }
            "data_valuation" => Ok(Explanation::DataValuation(DataAttribution {
                values: nums_field(json, "values", "data_valuation")?,
                measure: str_field(json, "measure", "data_valuation")?,
            })),
            "curve" => {
                let ice = match json.get("ice") {
                    None | Some(Json::Null) => None,
                    Some(Json::Arr(rows)) => Some(
                        rows.iter()
                            .enumerate()
                            .map(|(i, row)| {
                                row.as_arr()
                                    .ok_or_else(|| perr(format!("curve: ice[{i}] is not an array")))?
                                    .iter()
                                    .map(|v| {
                                        v.as_num().ok_or_else(|| {
                                            perr(format!("curve: ice[{i}] holds a non-number"))
                                        })
                                    })
                                    .collect::<XaiResult<Vec<f64>>>()
                            })
                            .collect::<XaiResult<Vec<_>>>()?,
                    ),
                    Some(_) => return Err(perr("curve: 'ice' must be an array of arrays or null")),
                };
                Ok(Explanation::Curve(CurveExplanation {
                    feature: integer_field(num_field(json, "feature", "curve")?, "curve feature")?
                        as usize,
                    grid: nums_field(json, "grid", "curve")?,
                    values: nums_field(json, "values", "curve")?,
                    ice,
                }))
            }
            other => Err(perr(format!("Explanation: unknown kind '{other}'"))),
        }
    }

    /// Parses an explanation from JSON text.
    pub fn from_json_str(text: &str) -> XaiResult<Explanation> {
        Self::from_json(&parse_json(text)?)
    }
}

// ---------------------------------------------------------------------------
// Service configuration, stats, response
// ---------------------------------------------------------------------------

/// Sizing knobs of an [`ExplanationService`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads executing requests (≥ 1).
    pub workers: usize,
    /// Bounded submission-queue capacity; a submit finding the queue at
    /// capacity is rejected with [`XaiError::QueueFull`].
    pub queue_capacity: usize,
    /// LRU result-cache capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
    /// Shared [`CoalitionMemo`](crate::memo::CoalitionMemo) capacity in
    /// coalition values; `0` disables cross-request memoization. Unlike
    /// the result cache (whole responses, exact request match), the memo
    /// caches per-coalition model evaluations keyed on (model fingerprint,
    /// background, instance, mask), so it accelerates *different* requests
    /// that revisit the same coalitions — e.g. Kernel SHAP and permutation
    /// sampling against the same row, or re-explains at a new seed.
    pub memo_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self { workers: 2, queue_capacity: 64, cache_capacity: 128, memo_capacity: 65_536 }
    }
}

/// Point-in-time snapshot of the engine's counters.
///
/// Invariants once the engine is idle: `completed + failed` equals the
/// number of admitted submissions, and `cache_hits + cache_misses` also
/// equals it — the cache is consulted exactly once per executed request.
/// `rejected` counts [`XaiError::QueueFull`] admissions failures, which
/// never reach the queue or the cache. Shard-cache counters are not
/// copied here: the cluster runner that owns the shard cache reports
/// them ([`crate::transport::ClusterRunner::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests rejected by admission control (`QueueFull`).
    pub rejected: u64,
    /// Requests that produced an explanation (cached or computed).
    pub completed: u64,
    /// Requests whose execution returned an error.
    pub failed: u64,
    /// Results served from the cache.
    pub cache_hits: u64,
    /// Results computed because the cache had no entry.
    pub cache_misses: u64,
    /// Cache entries displaced by capacity pressure.
    pub cache_evictions: u64,
    /// Coalition values served from the shared cross-request memo instead
    /// of the model (zero when `memo_capacity` is 0 or no coalition method
    /// ran batched).
    pub memo_hits: u64,
    /// Coalition memo lookups that missed and were evaluated live.
    pub memo_misses: u64,
    /// Coalition memo entries dropped by capacity eviction.
    pub memo_evictions: u64,
    /// Requests executed to completion on the in-process [`LocalBackend`]
    /// path (the default when a request carries no `backend` field).
    ///
    /// [`LocalBackend`]: crate::backend::LocalBackend
    pub local_completed: u64,
    /// Requests that failed while executing locally.
    pub local_failed: u64,
    /// Requests executed to completion on a registered process-pool backend.
    pub pool_completed: u64,
    /// Requests that failed on the process-pool backend.
    pub pool_failed: u64,
    /// Requests executed to completion on a registered cluster backend
    /// (including degraded in-process fallbacks, which still complete).
    pub cluster_completed: u64,
    /// Requests that failed on the cluster backend.
    pub cluster_failed: u64,
    /// Requests whose cluster execution fell back in-process under
    /// [`FallbackPolicy::InProcess`](crate::transport::FallbackPolicy).
    pub degraded: u64,
}

impl ServeStats {
    /// The snapshot as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("submitted", Json::Num(self.submitted as f64)),
            ("rejected", Json::Num(self.rejected as f64)),
            ("completed", Json::Num(self.completed as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("cache_hits", Json::Num(self.cache_hits as f64)),
            ("cache_misses", Json::Num(self.cache_misses as f64)),
            ("cache_evictions", Json::Num(self.cache_evictions as f64)),
            ("memo_hits", Json::Num(self.memo_hits as f64)),
            ("memo_misses", Json::Num(self.memo_misses as f64)),
            ("memo_evictions", Json::Num(self.memo_evictions as f64)),
            ("local_completed", Json::Num(self.local_completed as f64)),
            ("local_failed", Json::Num(self.local_failed as f64)),
            ("pool_completed", Json::Num(self.pool_completed as f64)),
            ("pool_failed", Json::Num(self.pool_failed as f64)),
            ("cluster_completed", Json::Num(self.cluster_completed as f64)),
            ("cluster_failed", Json::Num(self.cluster_failed as f64)),
            ("degraded", Json::Num(self.degraded as f64)),
        ])
    }
}

/// A served explanation: the canonical payload bytes plus provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeResponse {
    /// Method that produced the explanation.
    pub method: String,
    /// Registered model name it ran against.
    pub model: String,
    /// Fingerprint of the model's persisted bytes at execution time.
    pub fingerprint: u64,
    /// True when the payload came from the result cache.
    pub cached: bool,
    /// True when a cluster-backed execution fell back in-process under
    /// [`FallbackPolicy::InProcess`](crate::transport::FallbackPolicy).
    /// The payload is still byte-identical to the non-degraded result;
    /// this marker only records the substrate change.
    pub degraded: bool,
    /// Canonical JSON of the explanation ([`Explanation::to_json_string`]).
    /// Cache hits return the exact bytes the cold miss stored.
    pub payload: String,
}

impl ServeResponse {
    /// Parses the payload back into a typed [`Explanation`].
    pub fn explanation(&self) -> XaiResult<Explanation> {
        Explanation::from_json_str(&self.payload)
    }

    /// The full response envelope as JSON (fingerprint in hex so the
    /// 64-bit value survives the f64 number representation).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("method", Json::str(&*self.method)),
            ("model", Json::str(&*self.model)),
            ("fingerprint", Json::str(format!("{:016x}", self.fingerprint))),
            ("cached", Json::Bool(self.cached)),
            ("degraded", Json::Bool(self.degraded)),
            (
                "explanation",
                parse_json(&self.payload).expect("payload is service-serialized JSON"),
            ),
        ])
    }

    /// Compact JSON text of [`ServeResponse::to_json`].
    pub fn to_json_string(&self) -> String {
        self.to_json().to_json()
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

struct RegisteredModel {
    oracle: Arc<dyn ModelOracle + Send + Sync>,
    data: Dataset,
    fingerprint: u64,
    /// The persisted bytes parsed as JSON, when they are JSON — required
    /// for non-local backends, which ship the model to workers by value.
    /// Serializing this object reproduces the registered bytes exactly,
    /// so worker-side fingerprint verification stays sound.
    model_json: Option<Json>,
}

struct Slot {
    result: Mutex<Option<XaiResult<ServeResponse>>>,
    ready: Condvar,
}

struct Job {
    request: ServeRequest,
    slot: Arc<Slot>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

#[derive(Default)]
struct StatCells {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    local_completed: AtomicU64,
    local_failed: AtomicU64,
    pool_completed: AtomicU64,
    pool_failed: AtomicU64,
    cluster_completed: AtomicU64,
    cluster_failed: AtomicU64,
    degraded: AtomicU64,
}

struct Inner {
    registry: Registry,
    config: ServiceConfig,
    models: Mutex<HashMap<String, Arc<RegisteredModel>>>,
    queue: Mutex<QueueState>,
    queue_cond: Condvar,
    /// Canonical payloads by (model fingerprint, canonical request hash).
    cache: Lru<(u64, u64), String>,
    memo: crate::memo::CoalitionMemo,
    stats: StatCells,
    /// Execution backends registered via [`ExplanationService::set_backend`],
    /// keyed by kind. Requests whose plan selects an unregistered kind are
    /// rejected at validation with a typed `Unsupported` error.
    backends: Mutex<HashMap<crate::backend::BackendKind, Arc<dyn crate::backend::ExecutionBackend>>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The in-process explanation-serving engine; see the module docs for
/// the architecture and `DESIGN.md` §10 for the full semantics.
///
/// Construction spawns the worker pool; [`Drop`] signals shutdown,
/// drains the queue and joins every worker, so pending submissions are
/// answered before the service disappears.
pub struct ExplanationService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl ExplanationService {
    /// Builds a service over `registry` and spawns `config.workers`
    /// worker threads. Panics if `config.workers == 0`.
    pub fn new(registry: Registry, config: ServiceConfig) -> Self {
        assert!(config.workers >= 1, "ExplanationService needs at least one worker");
        let inner = Arc::new(Inner {
            registry,
            config,
            models: Mutex::new(HashMap::new()),
            queue: Mutex::new(QueueState { jobs: VecDeque::new(), shutdown: false }),
            queue_cond: Condvar::new(),
            cache: Lru::new(config.cache_capacity),
            memo: crate::memo::CoalitionMemo::new(config.memo_capacity),
            stats: StatCells::default(),
            backends: Mutex::new(HashMap::new()),
        });
        let workers = (0..config.workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("xai-serve-{w}"))
                    .spawn(move || worker_loop(&inner, w))
                    .expect("spawn serving worker")
            })
            .collect();
        Self { inner, workers }
    }

    /// Registers (or replaces) a model under `name`.
    ///
    /// `persisted` are the model's canonical persisted bytes (e.g.
    /// `xai_models::persist::persisted_bytes`); their FNV-1a hash
    /// becomes the model's fingerprint and is returned. Replacing a
    /// model changes the fingerprint, which silently invalidates all
    /// cached results for the old version — stale entries can never be
    /// served because cache keys embed the fingerprint.
    pub fn register_model(
        &self,
        name: impl Into<String>,
        oracle: Arc<dyn ModelOracle + Send + Sync>,
        data: Dataset,
        persisted: &[u8],
    ) -> u64 {
        let fingerprint = fingerprint_bytes(persisted);
        // Keep the parsed persisted form when it is JSON: non-local
        // backends need it to build shard descriptors whose serialized
        // model bytes reproduce `persisted` (and thus this fingerprint).
        let model_json = std::str::from_utf8(persisted)
            .ok()
            .and_then(|s| parse_json(s).ok())
            .filter(|j| matches!(j, Json::Obj(_)));
        lock(&self.inner.models)
            .insert(name.into(), Arc::new(RegisteredModel { oracle, data, fingerprint, model_json }));
        fingerprint
    }

    /// Registers (or replaces) an execution backend for its
    /// [`kind`](crate::backend::ExecutionBackend::kind). Requests whose
    /// plan selects that kind are routed through it; the in-process
    /// local path needs no registration.
    pub fn set_backend(&self, backend: Arc<dyn crate::backend::ExecutionBackend>) {
        lock(&self.inner.backends).insert(backend.kind(), backend);
    }

    /// Kinds with a registered backend, sorted.
    pub fn backend_kinds(&self) -> Vec<crate::backend::BackendKind> {
        let mut kinds: Vec<_> = lock(&self.inner.backends).keys().copied().collect();
        kinds.sort();
        kinds
    }

    /// Fingerprint of the model registered under `name`, if any.
    pub fn model_fingerprint(&self, name: &str) -> Option<u64> {
        lock(&self.inner.models).get(name).map(|m| m.fingerprint)
    }

    /// Registered model names, sorted.
    pub fn model_names(&self) -> Vec<String> {
        let mut names: Vec<String> = lock(&self.inner.models).keys().cloned().collect();
        names.sort();
        names
    }

    /// The taxonomy registry the service resolves methods from.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// The sizing configuration the service was built with.
    pub fn config(&self) -> ServiceConfig {
        self.inner.config
    }

    /// Current number of cached results.
    pub fn cache_len(&self) -> usize {
        self.inner.cache.len()
    }

    /// Snapshot of the engine counters.
    pub fn stats(&self) -> ServeStats {
        let s = &self.inner.stats;
        let cache = self.inner.cache.stats();
        let memo = self.inner.memo.stats();
        ServeStats {
            submitted: s.submitted.load(Ordering::SeqCst),
            rejected: s.rejected.load(Ordering::SeqCst),
            completed: s.completed.load(Ordering::SeqCst),
            failed: s.failed.load(Ordering::SeqCst),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            memo_hits: memo.hits,
            memo_misses: memo.misses,
            memo_evictions: memo.evictions,
            local_completed: s.local_completed.load(Ordering::SeqCst),
            local_failed: s.local_failed.load(Ordering::SeqCst),
            pool_completed: s.pool_completed.load(Ordering::SeqCst),
            pool_failed: s.pool_failed.load(Ordering::SeqCst),
            cluster_completed: s.cluster_completed.load(Ordering::SeqCst),
            cluster_failed: s.cluster_failed.load(Ordering::SeqCst),
            degraded: s.degraded.load(Ordering::SeqCst),
        }
    }

    /// Coalition values currently resident in the cross-request memo.
    pub fn memo_len(&self) -> usize {
        self.inner.memo.stats().entries as usize
    }

    /// Pre-admission validation: typed errors for requests that could
    /// never execute, charged before any queue capacity is consumed.
    fn validate(&self, request: &ServeRequest) -> XaiResult<()> {
        if self.inner.registry.get(&request.method).is_none() {
            return Err(perr(format!("unknown method '{}'", request.method)));
        }
        if !self.inner.registry.is_runnable(&request.method) {
            return Err(XaiError::Unsupported {
                context: format!(
                    "method '{}' is catalogued but has no runnable explainer attached",
                    request.method
                ),
            });
        }
        let entry = lock(&self.inner.models)
            .get(&request.model)
            .cloned()
            .ok_or_else(|| perr(format!("unknown model '{}'", request.model)))?;
        if let Some(instance) = &request.instance {
            if let Some(i) = instance.iter().position(|v| !v.is_finite()) {
                return Err(XaiError::NonFiniteInput {
                    context: format!("ServeRequest: instance[{i}] is {}", instance[i]),
                });
            }
            let arity = entry.oracle.n_features();
            if instance.len() != arity {
                return Err(perr(format!(
                    "instance arity {} does not match model '{}' arity {arity}",
                    instance.len(),
                    request.model
                )));
            }
        }
        if let Some(j) = request.feature {
            let d = entry.data.n_features();
            if j >= d {
                return Err(perr(format!(
                    "feature index {j} out of range for model '{}' with {d} features",
                    request.model
                )));
            }
        }
        if !request.plan.backend.is_local() {
            let kind = request.plan.backend.kind();
            let explainer = self
                .inner
                .registry
                .get_explainer(&request.method)
                .expect("is_runnable checked above");
            if explainer.as_shardable().is_none() {
                return Err(XaiError::Unsupported {
                    context: format!(
                        "method '{}' is not shardable and cannot run on the {} backend",
                        request.method,
                        kind.as_str()
                    ),
                });
            }
            if entry.model_json.is_none() {
                return Err(XaiError::Unsupported {
                    context: format!(
                        "model '{}' was registered without JSON persisted bytes, which the \
                         {} backend needs to ship it to workers",
                        request.model,
                        kind.as_str()
                    ),
                });
            }
            if !lock(&self.inner.backends).contains_key(&kind) {
                return Err(XaiError::Unsupported {
                    context: format!(
                        "no {} backend is registered with this service (ExplanationService::set_backend)",
                        kind.as_str()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Submits a request and blocks until a worker answers it.
    ///
    /// Failure modes, all typed: [`XaiError::Parse`] for unknown
    /// method/model, arity or range mismatches; [`XaiError::NonFiniteInput`]
    /// for NaN/±Inf instances; [`XaiError::QueueFull`] when admission
    /// control rejects; plus whatever the explainer itself returns
    /// (`BudgetExceeded`, `Unsupported`, …).
    pub fn submit(&self, request: &ServeRequest) -> XaiResult<ServeResponse> {
        self.validate(request)?;
        let slot = Arc::new(Slot { result: Mutex::new(None), ready: Condvar::new() });
        {
            let mut q = lock(&self.inner.queue);
            if q.shutdown {
                return Err(XaiError::Unsupported {
                    context: "ExplanationService is shutting down".into(),
                });
            }
            if q.jobs.len() >= self.inner.config.queue_capacity {
                self.inner.stats.rejected.fetch_add(1, Ordering::SeqCst);
                return Err(XaiError::QueueFull { capacity: self.inner.config.queue_capacity });
            }
            q.jobs.push_back(Job { request: request.clone(), slot: Arc::clone(&slot) });
            self.inner.stats.submitted.fetch_add(1, Ordering::SeqCst);
            self.inner.queue_cond.notify_one();
        }
        let mut result = lock(&slot.result);
        while result.is_none() {
            result = slot.ready.wait(result).unwrap_or_else(PoisonError::into_inner);
        }
        result.take().expect("slot filled")
    }

    /// JSON-in/JSON-out submission: parses `text` as a [`ServeRequest`],
    /// submits it, and returns the response envelope as compact JSON.
    pub fn submit_json(&self, text: &str) -> XaiResult<String> {
        let request = ServeRequest::from_json_str(text)?;
        Ok(self.submit(&request)?.to_json_string())
    }
}

impl Drop for ExplanationService {
    fn drop(&mut self) {
        {
            let mut q = lock(&self.inner.queue);
            q.shutdown = true;
        }
        self.inner.queue_cond.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &Inner, worker_index: usize) {
    loop {
        let job = {
            let mut q = lock(&inner.queue);
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break Some(job);
                }
                if q.shutdown {
                    break None;
                }
                q = inner.queue_cond.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(job) = job else { return };
        let result = catch_unwind(AssertUnwindSafe(|| execute(inner, &job.request)))
            .unwrap_or_else(|payload| {
                Err(XaiError::WorkerPanic { task: worker_index, message: panic_message(payload) })
            });
        match &result {
            Ok(_) => inner.stats.completed.fetch_add(1, Ordering::SeqCst),
            Err(_) => inner.stats.failed.fetch_add(1, Ordering::SeqCst),
        };
        *lock(&job.slot.result) = Some(result);
        job.slot.ready.notify_all();
    }
}

/// Executes one admitted request on a worker: cache lookup, then the
/// actual `Explainer::explain` call on a miss. The cache is consulted
/// exactly once per executed request, so `hits + misses` equals the
/// number of admitted submissions.
fn execute(inner: &Inner, request: &ServeRequest) -> XaiResult<ServeResponse> {
    let entry = lock(&inner.models)
        .get(&request.model)
        .cloned()
        .ok_or_else(|| perr(format!("model '{}' was unregistered mid-flight", request.model)))?;
    let explainer = inner
        .registry
        .get_explainer(&request.method)
        .ok_or_else(|| perr(format!("unknown method '{}'", request.method)))?;
    let key = (entry.fingerprint, request.canonical_hash());

    if let Some(payload) = inner.cache.get(&key) {
        return Ok(ServeResponse {
            method: request.method.clone(),
            model: request.model.clone(),
            fingerprint: entry.fingerprint,
            cached: true,
            degraded: false,
            payload,
        });
    }

    let mut req = ExplainRequest::new(&entry.data).plan(request.plan);
    if let Some(x) = &request.instance {
        req = req.instance(x);
    }
    if let Some(j) = request.feature {
        req = req.feature(j);
    }

    let choice = request.plan.backend;
    let (explanation, degraded) = if choice.is_local() {
        if inner.memo.capacity() > 0 {
            // Shared cross-request coalition memo (DESIGN.md §12): batched
            // coalition methods consult it before calling the model. Keyed
            // under the model fingerprint, so replacing a model invalidates
            // its memoized coalition values exactly like the result cache.
            req = req.memo(crate::memo::MemoHandle {
                memo: &inner.memo,
                model_fingerprint: entry.fingerprint,
            });
        }
        let result = explainer.explain(&*entry.oracle, &req);
        record_backend(&inner.stats, choice.kind(), result.is_ok());
        (result?, false)
    } else {
        let backend = lock(&inner.backends).get(&choice.kind()).cloned().ok_or_else(|| {
            XaiError::Unsupported {
                context: format!(
                    "no {} backend is registered with this service",
                    choice.kind().as_str()
                ),
            }
        })?;
        let shardable = explainer.as_shardable().ok_or_else(|| XaiError::Unsupported {
            context: format!("method '{}' is not shardable", request.method),
        })?;
        let model_json = entry.model_json.clone().ok_or_else(|| XaiError::Unsupported {
            context: format!(
                "model '{}' has no JSON persisted bytes for backend execution",
                request.model
            ),
        })?;
        let job = crate::backend::BackendJob::new(
            shardable,
            &*entry.oracle,
            &req,
            choice.shards().unwrap_or(1),
        )
        .with_model_json(model_json);
        let result = backend.execute(&job);
        record_backend(&inner.stats, choice.kind(), result.is_ok());
        let outcome = result?;
        if outcome.degraded {
            inner.stats.degraded.fetch_add(1, Ordering::SeqCst);
        }
        (outcome.explanation, outcome.degraded)
    };

    // The encoder's buffer grows by doubling. Copy the text out once, so
    // the response and the cache each hold an exact-capacity buffer and
    // the growth buffer is freed whole. (Shrinking it in place with
    // `shrink_to_fit` raised peak RSS on servebench's `valuation`
    // workload instead of lowering it.)
    let payload = String::from(explanation.to_json_string().as_str());
    inner.cache.insert(key, payload.clone());
    Ok(ServeResponse {
        method: request.method.clone(),
        model: request.model.clone(),
        fingerprint: entry.fingerprint,
        cached: false,
        degraded,
        payload,
    })
}

/// Bumps the per-backend completed/failed counter for one executed request.
fn record_backend(stats: &StatCells, kind: crate::backend::BackendKind, ok: bool) {
    use crate::backend::BackendKind;
    let cell = match (kind, ok) {
        (BackendKind::Local, true) => &stats.local_completed,
        (BackendKind::Local, false) => &stats.local_failed,
        (BackendKind::ProcessPool, true) => &stats.pool_completed,
        (BackendKind::ProcessPool, false) => &stats.pool_failed,
        (BackendKind::Cluster, true) => &stats.cluster_completed,
        (BackendKind::Cluster, false) => &stats.cluster_failed,
    };
    cell.fetch_add(1, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explainer::{Explainer, FnOracle};
    use crate::taxonomy::{method_card, workspace_registry, MethodCard};
    use xai_data::{Schema, Task};
    use xai_linalg::Matrix;

    fn tiny_dataset() -> Dataset {
        let schema = Schema::new(
            vec![
                xai_data::Feature::numeric("a", 0.0, 10.0),
                xai_data::Feature::numeric("b", 0.0, 10.0),
                xai_data::Feature::numeric("c", 0.0, 10.0),
            ],
            "y",
        );
        let x = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
            vec![2.0, 4.0, 8.0],
        ]);
        Dataset::new(schema, x, vec![0.0, 1.0, 1.0, 0.0], Task::BinaryClassification)
    }

    /// A deterministic stand-in explainer attached to the "Kernel SHAP"
    /// card: values are the instance scaled by `seed + 1`, so distinct
    /// seeds give distinct results and equal requests give equal bytes.
    struct StubMethod;

    impl Explainer for StubMethod {
        fn card(&self) -> MethodCard {
            method_card("Kernel SHAP")
        }

        fn explain(
            &self,
            model: &dyn ModelOracle,
            req: &ExplainRequest<'_>,
        ) -> XaiResult<Explanation> {
            let x = req.need_instance("stub")?;
            let scale = (req.plan.seed + 1) as f64;
            Ok(Explanation::Attribution(FeatureAttribution {
                feature_names: req.feature_names(),
                values: x.iter().map(|v| v * scale).collect(),
                baseline: 0.0,
                prediction: model.predict(x),
            }))
        }
    }

    /// A stub on the "LIME" card that always panics, to exercise the
    /// worker-pool panic fence.
    struct PanickingMethod;

    impl Explainer for PanickingMethod {
        fn card(&self) -> MethodCard {
            method_card("LIME")
        }

        fn explain(
            &self,
            _model: &dyn ModelOracle,
            _req: &ExplainRequest<'_>,
        ) -> XaiResult<Explanation> {
            panic!("stub explainer exploded")
        }
    }

    fn stub_registry() -> Registry {
        let mut registry = workspace_registry();
        registry.register_explainer(Arc::new(StubMethod)).unwrap();
        registry.register_explainer(Arc::new(PanickingMethod)).unwrap();
        registry
    }

    fn stub_service(config: ServiceConfig) -> ExplanationService {
        let service = ExplanationService::new(stub_registry(), config);
        let oracle = Arc::new(FnOracle::new(3, |x: &[f64]| x.iter().sum()));
        service.register_model("toy", oracle, tiny_dataset(), b"toy-model-v1");
        service
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fingerprint_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fingerprint_bytes(b"model-a"), fingerprint_bytes(b"model-b"));
    }

    #[test]
    fn request_round_trips_canonically() {
        let request = ServeRequest::new("Kernel SHAP", "credit")
            .with_instance(&[1.0, -2.5, 0.0])
            .with_feature(1)
            .with_plan(
                RunConfig::seeded(7)
                    .with_workers(2)
                    .with_batched(true)
                    .with_budget(SampleBudget::with_max_evals(500))
                    .strict(),
            );
        let text = request.to_json_string();
        let back = ServeRequest::from_json_str(&text).unwrap();
        assert_eq!(back, request);
        assert_eq!(back.to_json_string(), text);
        assert_eq!(back.canonical_hash(), request.canonical_hash());
    }

    #[test]
    fn sparse_request_hashes_like_its_canonical_form() {
        let sparse = ServeRequest::from_json_str(r#"{"method":"LIME","model":"m"}"#).unwrap();
        let explicit = ServeRequest::new("LIME", "m");
        assert_eq!(sparse, explicit);
        assert_eq!(sparse.canonical_hash(), explicit.canonical_hash());
        assert_eq!(sparse.plan, RunConfig::default());
    }

    #[test]
    fn malformed_requests_are_typed_parse_errors() {
        let cases = [
            r#"[1, 2]"#,
            r#"{"model":"m"}"#,
            r#"{"method":"LIME"}"#,
            r#"{"method":"LIME","model":"m","bogus":1}"#,
            r#"{"method":"LIME","model":"m","instance":"nope"}"#,
            r#"{"method":"LIME","model":"m","instance":[1,"x"]}"#,
            r#"{"method":"LIME","model":"m","feature":1.5}"#,
            r#"{"method":"LIME","model":"m","plan":{"workers":0}}"#,
            r#"{"method":"LIME","model":"m","plan":{"seed":-1}}"#,
            r#"{"method":"LIME","model":"m","plan":{"turbo":true}}"#,
            r#"{"method":"LIME","model":"m","plan":{"degradation":"yolo"}}"#,
        ];
        for text in cases {
            let err = ServeRequest::from_json_str(text).unwrap_err();
            assert!(matches!(err, XaiError::Parse { .. }), "{text} gave {err:?}");
        }
    }

    #[test]
    fn non_finite_instance_is_a_typed_error() {
        let err =
            ServeRequest::from_json_str(r#"{"method":"LIME","model":"m","instance":[1,1e999]}"#)
                .unwrap_err();
        assert!(matches!(err, XaiError::NonFiniteInput { .. }), "{err:?}");
    }

    #[test]
    fn explanations_round_trip_bit_exactly() {
        let samples = vec![
            Explanation::Attribution(FeatureAttribution {
                feature_names: vec!["a".into(), "b".into()],
                values: vec![0.1 + 0.2, -1.5e-13],
                baseline: 0.25,
                prediction: -0.75,
            }),
            Explanation::Rules(vec![RuleExplanation {
                conditions: vec![
                    Condition { feature: 0, feature_name: "a".into(), op: Op::Le, value: 3.5 },
                    Condition { feature: 2, feature_name: "c".into(), op: Op::Eq, value: 1.0 },
                ],
                prediction: 1.0,
                precision: 0.95,
                coverage: 0.4,
            }]),
            Explanation::Counterfactuals(vec![Counterfactual {
                original: vec![1.0, 2.0],
                counterfactual: vec![1.0, 3.25],
                original_output: 0.2,
                counterfactual_output: 0.8,
                changed_features: vec![1],
                distance: 1.25,
            }]),
            Explanation::DataValuation(DataAttribution {
                values: vec![0.5, -0.125, 0.0],
                measure: "data shapley (accuracy)".into(),
            }),
            Explanation::Curve(CurveExplanation {
                feature: 1,
                grid: vec![0.0, 0.5, 1.0],
                values: vec![0.1, 0.2, 0.3],
                ice: Some(vec![vec![0.0, 0.1, 0.2], vec![0.2, 0.3, 0.4]]),
            }),
        ];
        for explanation in samples {
            let text = explanation.to_json_string();
            let back = Explanation::from_json_str(&text).unwrap();
            assert_eq!(back.to_json_string(), text);
        }
    }

    #[test]
    fn malformed_explanations_are_typed_parse_errors() {
        let cases = [
            r#"{"features":["a"],"values":[1]}"#,
            r#"{"kind":"hologram"}"#,
            r#"{"kind":"feature_attribution","features":["a","b"],"values":[1],"baseline":0,"prediction":0}"#,
            r#"{"kind":"rules","rules":[{"conditions":[{"feature":0,"name":"a","op":"xor","value":1}],"prediction":1,"precision":1,"coverage":1}]}"#,
            r#"{"kind":"curve","feature":0,"grid":[0],"values":[0],"ice":"none"}"#,
        ];
        for text in cases {
            let err = Explanation::from_json_str(text).unwrap_err();
            assert!(matches!(err, XaiError::Parse { .. }), "{text} gave {err:?}");
        }
    }

    #[test]
    fn lru_cache_evicts_least_recently_used() {
        let cache: Lru<(u64, u64), String> = Lru::new(2);
        assert!(!cache.insert((0, 1), "one".into()));
        assert!(!cache.insert((0, 2), "two".into()));
        assert!(cache.get(&(0, 1)).is_some()); // refresh (0,1)
        assert!(cache.insert((0, 3), "three".into())); // displaces (0,2)
        assert!(cache.get(&(0, 2)).is_none());
        assert!(cache.get(&(0, 1)).is_some());
        assert!(cache.get(&(0, 3)).is_some());
        // Replacing an existing key is not an eviction.
        assert!(!cache.insert((0, 3), "three'".into()));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn service_serves_computes_and_caches() {
        let service = stub_service(ServiceConfig::default());
        let request = ServeRequest::new("Kernel SHAP", "toy")
            .with_instance(&[1.0, 2.0, 3.0])
            .with_plan(RunConfig::seeded(4));
        let cold = service.submit(&request).unwrap();
        assert!(!cold.cached);
        let explanation = cold.explanation().unwrap();
        let attribution = explanation.as_attribution().unwrap();
        assert_eq!(attribution.values, vec![5.0, 10.0, 15.0]);
        assert_eq!(attribution.prediction, 6.0);

        let warm = service.submit(&request).unwrap();
        assert!(warm.cached);
        assert_eq!(warm.payload, cold.payload);
        assert_eq!(warm.fingerprint, cold.fingerprint);

        // A different seed is a different canonical request: cache miss.
        let other = service
            .submit(&request.clone().with_plan(RunConfig::seeded(5)))
            .unwrap();
        assert!(!other.cached);
        assert_ne!(other.payload, cold.payload);

        let stats = service.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 2);
    }

    #[test]
    fn submit_json_round_trips_the_envelope() {
        let service = stub_service(ServiceConfig::default());
        let request =
            ServeRequest::new("Kernel SHAP", "toy").with_instance(&[1.0, 2.0, 3.0]);
        let envelope = service.submit_json(&request.to_json_string()).unwrap();
        let parsed = parse_json(&envelope).unwrap();
        assert_eq!(parsed.get("method").and_then(Json::as_str), Some("Kernel SHAP"));
        assert_eq!(parsed.get("cached"), Some(&Json::Bool(false)));
        let explanation = Explanation::from_json(parsed.get("explanation").unwrap()).unwrap();
        assert!(explanation.as_attribution().is_some());
    }

    #[test]
    fn validation_failures_are_typed_and_not_admitted() {
        let service = stub_service(ServiceConfig::default());
        let instance = [1.0, 2.0, 3.0];

        let unknown_method =
            ServeRequest::new("Gradient hologram", "toy").with_instance(&instance);
        assert!(matches!(service.submit(&unknown_method), Err(XaiError::Parse { .. })));

        // Catalogued card with no runnable explainer attached.
        let not_runnable = ServeRequest::new("TreeSHAP", "toy").with_instance(&instance);
        assert!(matches!(service.submit(&not_runnable), Err(XaiError::Unsupported { .. })));

        let unknown_model = ServeRequest::new("Kernel SHAP", "nope").with_instance(&instance);
        assert!(matches!(service.submit(&unknown_model), Err(XaiError::Parse { .. })));

        let bad_arity = ServeRequest::new("Kernel SHAP", "toy").with_instance(&[1.0]);
        assert!(matches!(service.submit(&bad_arity), Err(XaiError::Parse { .. })));

        let bad_feature =
            ServeRequest::new("Kernel SHAP", "toy").with_instance(&instance).with_feature(9);
        assert!(matches!(service.submit(&bad_feature), Err(XaiError::Parse { .. })));

        let nan_instance =
            ServeRequest::new("Kernel SHAP", "toy").with_instance(&[1.0, f64::NAN, 3.0]);
        assert!(matches!(service.submit(&nan_instance), Err(XaiError::NonFiniteInput { .. })));

        let stats = service.stats();
        assert_eq!(stats.submitted, 0);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.cache_hits + stats.cache_misses, 0);
    }

    #[test]
    fn explainer_panics_become_worker_panic_errors() {
        let service = stub_service(ServiceConfig::default());
        let request = ServeRequest::new("LIME", "toy").with_instance(&[1.0, 2.0, 3.0]);
        match service.submit(&request) {
            Err(XaiError::WorkerPanic { message, .. }) => {
                assert!(message.contains("stub explainer exploded"));
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        let stats = service.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 0);
        // The worker survives its job's panic and keeps serving.
        let ok = service
            .submit(&ServeRequest::new("Kernel SHAP", "toy").with_instance(&[1.0, 2.0, 3.0]));
        assert!(ok.is_ok());
    }

    #[test]
    fn queue_full_is_admission_control() {
        // One worker, capacity-1 queue. A gate inside the model blocks
        // the worker; a second submission fills the queue; a third is
        // rejected with QueueFull before touching any compute.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let entered = Arc::new((Mutex::new(0usize), Condvar::new()));
        let service = Arc::new({
            let service = ExplanationService::new(
                stub_registry(),
                ServiceConfig { workers: 1, queue_capacity: 1, cache_capacity: 8, memo_capacity: 0 },
            );
            let (gate, entered) = (Arc::clone(&gate), Arc::clone(&entered));
            let oracle = FnOracle::new(3, move |x: &[f64]| {
                {
                    let (count, signal) = &*entered;
                    *lock(count) += 1;
                    signal.notify_all();
                }
                let (open, opened) = &*gate;
                let mut open = lock(open);
                while !*open {
                    open = opened.wait(open).unwrap_or_else(PoisonError::into_inner);
                }
                x.iter().sum()
            });
            service.register_model("toy", Arc::new(oracle), tiny_dataset(), b"gated-model");
            service
        });

        let request = |seed: u64| {
            ServeRequest::new("Kernel SHAP", "toy")
                .with_instance(&[1.0, 2.0, 3.0])
                .with_plan(RunConfig::seeded(seed))
        };
        let worker_bound = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.submit(&request(1)))
        };
        // Wait until the worker is provably inside the gated model.
        {
            let (count, signal) = &*entered;
            let mut count = lock(count);
            while *count == 0 {
                count = signal.wait(count).unwrap_or_else(PoisonError::into_inner);
            }
        }
        let queued = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.submit(&request(2)))
        };
        // Wait until the second submission occupies the queue slot.
        while service.stats().submitted < 2 {
            std::thread::yield_now();
        }
        let rejected = service.submit(&request(3));
        assert!(
            matches!(rejected, Err(XaiError::QueueFull { capacity: 1 })),
            "{rejected:?}"
        );
        assert_eq!(service.stats().rejected, 1);

        // Open the gate; both admitted requests complete.
        {
            let (open, opened) = &*gate;
            *lock(open) = true;
            opened.notify_all();
        }
        assert!(worker_bound.join().unwrap().is_ok());
        assert!(queued.join().unwrap().is_ok());
        let stats = service.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.cache_hits + stats.cache_misses, stats.submitted);
    }

    #[test]
    fn cache_capacity_bounds_entries_and_counts_evictions() {
        let service = stub_service(ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            cache_capacity: 2,
            memo_capacity: 0,
        });
        for seed in 0..4 {
            let request = ServeRequest::new("Kernel SHAP", "toy")
                .with_instance(&[1.0, 2.0, 3.0])
                .with_plan(RunConfig::seeded(seed));
            service.submit(&request).unwrap();
        }
        assert_eq!(service.cache_len(), 2);
        let stats = service.stats();
        assert_eq!(stats.cache_misses, 4);
        assert_eq!(stats.cache_evictions, 2);
    }

    #[test]
    fn drop_answers_pending_work_and_joins_workers() {
        let service = stub_service(ServiceConfig { workers: 2, ..ServiceConfig::default() });
        let request = ServeRequest::new("Kernel SHAP", "toy").with_instance(&[1.0, 2.0, 3.0]);
        service.submit(&request).unwrap();
        drop(service); // must not hang
    }

    #[test]
    fn model_replacement_changes_fingerprint_and_cache_keys() {
        let service = stub_service(ServiceConfig::default());
        let request = ServeRequest::new("Kernel SHAP", "toy").with_instance(&[1.0, 2.0, 3.0]);
        let before = service.submit(&request).unwrap();

        let oracle = Arc::new(FnOracle::new(3, |x: &[f64]| 2.0 * x.iter().sum::<f64>()));
        let fp = service.register_model("toy", oracle, tiny_dataset(), b"toy-model-v2");
        assert_ne!(fp, before.fingerprint);
        assert_eq!(service.model_fingerprint("toy"), Some(fp));

        // Same request, new model version: the old cache entry is
        // unreachable (key embeds the fingerprint), so this is a miss.
        let after = service.submit(&request).unwrap();
        assert!(!after.cached);
        assert_eq!(after.fingerprint, fp);
        assert_ne!(after.payload, before.payload);
    }
}
