//! Deterministic shard plans over an estimator's random draws
//! (DESIGN.md §11).
//!
//! The fixed-chunk `xai-rand` executor already makes every Monte-Carlo
//! estimator a pure function of `(seed, chunk grid)`: chunk `c` draws
//! from the stream `child_seed(seed, c)` and partials are reduced in
//! chunk order. This module scales that invariant past one process. A
//! *shard* is a contiguous range of global chunk indices; because every
//! chunk's stream and position are fixed by the grid — never by the
//! worker count, the shard count, or which process ran it — the
//! concatenation of per-chunk partials across shards is byte-identical
//! to the single-process parallel run, at any shard count.
//!
//! The pieces:
//!
//! - [`ShardableExplainer`] — the contract a method opts into: expose
//!   the draw grid ([`DrawGrid`]), compute a serializable partial for a
//!   chunk range (`explain_chunks`), and run the merge epilogue over the
//!   ordered per-chunk partials (`merge_chunks`). Partials carry
//!   **per-chunk** payloads, not pre-reduced shard sums: floating-point
//!   addition is non-associative, so the merge must fold chunks in
//!   exactly the order the single-process path does.
//! - [`shard_chunk_ranges`] — the deterministic partitioner: balanced
//!   contiguous chunk ranges, disjoint and covering.
//! - [`ShardDescriptor`] / [`ShardResult`] — the canonical JSON wire
//!   forms (fixed field order, strict typed parsing like
//!   [`crate::serve::ServeRequest`]) that let a shard run in another OS
//!   process, on this machine or another, and ship its partial back.
//! - [`crate::backend::ExecutionBackend`] runs a shard plan: in-process
//!   ([`crate::backend::LocalBackend`], shards as tasks on the fork-join
//!   executor) or on `xai-shard-worker` daemons, local
//!   ([`crate::backend::ProcessPoolBackend`]) or remote
//!   ([`crate::backend::ClusterBackend`]).
//! - [`execute_descriptor`] — the worker side of a shard daemon:
//!   rebuild the request from a descriptor, run the chunk range, return
//!   the result. The facade (`xai::shard`) supplies the method table and
//!   the model decoder, and each method rebuilds itself from its config
//!   ([`ShardableExplainer::rebuild_from_config`]).

use std::ops::Range;

use xai_data::{Dataset, Feature, FeatureKind, Mutability, Schema, Task};
use xai_linalg::Matrix;

use crate::error::{XaiError, XaiResult};
use crate::explainer::{ExplainRequest, Explainer, Explanation, ModelOracle};
use crate::report::Json;
use crate::serve::{fingerprint_bytes, parse_plan, plan_to_json};

// ---------------------------------------------------------------------------
// Wire helpers (typed Parse errors): the one set of typed JSON field
// readers, shared with serve, the model codec and the method crates
// ---------------------------------------------------------------------------

/// Builds the typed [`XaiError::Parse`] every wire helper reports.
pub fn wire_error(context: impl Into<String>) -> XaiError {
    XaiError::Parse { context: context.into() }
}

/// Required string field.
pub fn str_field(json: &Json, key: &str, what: &str) -> XaiResult<String> {
    match json.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(_) => Err(wire_error(format!("{what}: '{key}' must be a string"))),
        None => Err(wire_error(format!("{what}: missing required field '{key}'"))),
    }
}

/// Required numeric field.
pub fn num_field(json: &Json, key: &str, what: &str) -> XaiResult<f64> {
    json.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| wire_error(format!("{what}: '{key}' must be a number")))
}

/// Required array-of-numbers field.
pub fn nums_field(json: &Json, key: &str, what: &str) -> XaiResult<Vec<f64>> {
    let arr = json
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| wire_error(format!("{what}: '{key}' must be an array of numbers")))?;
    arr.iter()
        .enumerate()
        .map(|(i, v)| {
            v.as_num().ok_or_else(|| wire_error(format!("{what}: {key}[{i}] is not a number")))
        })
        .collect()
}

/// Required array-of-strings field.
pub fn strs_field(json: &Json, key: &str, what: &str) -> XaiResult<Vec<String>> {
    let arr = json
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| wire_error(format!("{what}: '{key}' must be an array of strings")))?;
    arr.iter()
        .enumerate()
        .map(|(i, v)| match v {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(wire_error(format!("{what}: {key}[{i}] is not a string"))),
        })
        .collect()
}

/// Required array field (any element type).
pub fn arr_field<'a>(json: &'a Json, key: &str, what: &str) -> XaiResult<&'a [Json]> {
    json.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| wire_error(format!("{what}: '{key}' must be an array")))
}

/// A JSON number standing for a count, index or seed: a non-negative
/// integer exactly representable in an `f64` (≤ 2^53).
pub fn exact_integer(v: f64, what: impl std::fmt::Display) -> XaiResult<u64> {
    const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if !v.is_finite() || v < 0.0 || v.fract() != 0.0 || v > MAX_EXACT {
        return Err(wire_error(format!("{what} must be a non-negative integer, got {v}")));
    }
    Ok(v as u64)
}

/// Required non-negative integer field ([`exact_integer`]).
pub fn index_field(json: &Json, key: &str, what: &str) -> XaiResult<usize> {
    let v = num_field(json, key, what)?;
    Ok(exact_integer(v, format_args!("{what}: '{key}'"))? as usize)
}

/// Standard partial payload: a `{"chunks": [...]}` object wrapping the
/// per-chunk payloads of one shard, in global chunk order.
pub fn chunks_json(chunks: Vec<Json>) -> Json {
    Json::obj(vec![("chunks", Json::Arr(chunks))])
}

/// Serializes a value vector for a shard partial, refusing non-finite
/// entries (the model's fault, not the wire's) as a typed
/// [`XaiError::ModelFault`] before JSON could degrade them to `null`.
pub fn shard_nums(what: &str, vals: &[f64]) -> XaiResult<Json> {
    if let Some(i) = vals.iter().position(|v| !v.is_finite()) {
        return Err(XaiError::ModelFault { context: format!("{what}: value {i} is {}", vals[i]) });
    }
    Ok(Json::nums(vals))
}

/// Refuses a budgeted plan on behalf of `method`, which has no budgeted
/// execution path.
pub fn reject_budget(method: &str, req: &ExplainRequest<'_>) -> XaiResult<()> {
    if req.plan.budgeted() {
        return Err(XaiError::Unsupported {
            context: format!("{method} has no budgeted execution path; clear RunConfig::budget"),
        });
    }
    Ok(())
}

/// Flattens ordered shard partials back into the global per-chunk
/// payload sequence. The inverse of [`chunks_json`] across shards.
pub fn flatten_chunks<'a>(partials: &'a [Json], what: &str) -> XaiResult<Vec<&'a Json>> {
    let mut out = Vec::new();
    for (s, p) in partials.iter().enumerate() {
        let chunks = p
            .get("chunks")
            .and_then(Json::as_arr)
            .ok_or_else(|| wire_error(format!("{what}: shard {s} partial lacks 'chunks'")))?;
        out.extend(chunks.iter());
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The draw grid and the partitioner
// ---------------------------------------------------------------------------

/// A method's fixed chunk grid: how many random draws (coalitions,
/// permutations, probes, candidates, row visits) the run makes, and how
/// many draws each executor chunk covers. Both are pure functions of the
/// method config and the request — never of worker or shard counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrawGrid {
    /// Total random draws in the run.
    pub total_draws: usize,
    /// Draws per chunk (the last chunk may be ragged).
    pub chunk_size: usize,
}

impl DrawGrid {
    /// Number of chunks in the grid.
    pub fn n_chunks(&self) -> usize {
        self.total_draws.div_ceil(self.chunk_size)
    }

    /// The draw range covered by global chunk `c`.
    pub fn chunk_range(&self, c: usize) -> Range<usize> {
        let start = c * self.chunk_size;
        start..((start + self.chunk_size).min(self.total_draws))
    }
}

/// Partitions `n_chunks` global chunk indices into `n_shards` balanced
/// contiguous ranges `[(start, end); n_shards]`. Shards are disjoint,
/// ordered, and cover `0..n_chunks`; when `n_shards > n_chunks` the
/// trailing shards are empty.
pub fn shard_chunk_ranges(n_chunks: usize, n_shards: usize) -> Vec<(usize, usize)> {
    assert!(n_shards >= 1, "need at least one shard");
    (0..n_shards)
        .map(|s| ((s * n_chunks) / n_shards, ((s + 1) * n_chunks) / n_shards))
        .collect()
}

// ---------------------------------------------------------------------------
// The shardable contract
// ---------------------------------------------------------------------------

/// A method whose random draws partition into deterministic shards.
///
/// The contract: for any shard count `m`, splitting the grid with
/// [`shard_chunk_ranges`], running `explain_chunks` per shard (in any
/// process), ordering the partials by shard index and folding them
/// through `merge_chunks` is **bit-identical** to the single-process
/// `Explainer::explain` at the same request (with `workers > 1`, which
/// runs this chunk grid through [`crate::backend::dispatch_local`]).
pub trait ShardableExplainer: Explainer {
    /// The draw grid for this request, with any eval budget already
    /// resolved into `total_draws`. Errors mirror `explain`:
    /// `Unsupported` for request shapes the shard layer cannot cover.
    fn draw_grid(&self, req: &ExplainRequest<'_>) -> XaiResult<DrawGrid>;

    /// Computes the serializable partial for global chunks
    /// `chunks.start..chunks.end`, as a `{"chunks": [...]}` payload in
    /// chunk order. Chunk `c` must draw from `child_seed(plan.seed, c)`,
    /// whichever process runs it.
    fn explain_chunks(
        &self,
        model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        chunks: Range<usize>,
    ) -> XaiResult<Json>;

    /// Runs the merge epilogue over the shard partials, ordered by shard
    /// index, reproducing the unsharded explanation bit-for-bit.
    fn merge_chunks(
        &self,
        model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        partials: Vec<Json>,
    ) -> XaiResult<Explanation>;

    /// The method configuration as canonical JSON, so a descriptor can
    /// reconstruct this explainer in another process.
    fn config_json(&self) -> Json;

    /// Rebuilds this method from a [`ShardableExplainer::config_json`]
    /// document — the worker-side inverse, called on the catalogued
    /// instance of the descriptor's card. Malformed configs are typed
    /// [`XaiError::Parse`] errors; so is a method that cannot be rebuilt
    /// (the default, for wrappers that only decorate another method).
    fn rebuild_from_config(&self, _config: &Json) -> XaiResult<Box<dyn ShardableExplainer>> {
        Err(wire_error(format!(
            "shard method: '{}' cannot be rebuilt from a config",
            self.card().name
        )))
    }
}

// ---------------------------------------------------------------------------
// Dataset wire serde (descriptors must be self-contained)
// ---------------------------------------------------------------------------

fn mutability_name(m: Mutability) -> &'static str {
    match m {
        Mutability::Free => "free",
        Mutability::IncreaseOnly => "increase_only",
        Mutability::DecreaseOnly => "decrease_only",
        Mutability::Immutable => "immutable",
    }
}

fn mutability_from(name: &str) -> XaiResult<Mutability> {
    Ok(match name {
        "free" => Mutability::Free,
        "increase_only" => Mutability::IncreaseOnly,
        "decrease_only" => Mutability::DecreaseOnly,
        "immutable" => Mutability::Immutable,
        other => return Err(wire_error(format!("dataset: unknown mutability '{other}'"))),
    })
}

/// Canonical JSON form of a dataset: schema, rows and targets.
pub fn dataset_to_json(data: &Dataset) -> Json {
    let features = data
        .schema()
        .features()
        .iter()
        .map(|f| {
            let mut fields = vec![("name", Json::str(&*f.name))];
            match &f.kind {
                FeatureKind::Numeric { min, max } => {
                    fields.push(("kind", Json::str("numeric")));
                    fields.push(("min", Json::Num(*min)));
                    fields.push(("max", Json::Num(*max)));
                }
                FeatureKind::Categorical { categories } => {
                    fields.push(("kind", Json::str("categorical")));
                    fields.push(("categories", Json::strs(categories)));
                }
            }
            fields.push(("mutability", Json::str(mutability_name(f.mutability))));
            fields.push(("protected", Json::Bool(f.protected)));
            Json::obj(fields)
        })
        .collect();
    let rows = (0..data.n_rows()).map(|i| Json::nums(data.row(i))).collect();
    Json::obj(vec![
        ("target", Json::str(data.schema().target())),
        (
            "task",
            Json::str(match data.task() {
                Task::Regression => "regression",
                Task::BinaryClassification => "binary_classification",
            }),
        ),
        ("features", Json::Arr(features)),
        ("x", Json::Arr(rows)),
        ("y", Json::nums(data.y())),
    ])
}

/// Rebuilds a dataset from its canonical JSON form.
pub fn dataset_from_json(json: &Json) -> XaiResult<Dataset> {
    const WHAT: &str = "shard dataset";
    let target = str_field(json, "target", WHAT)?;
    let task = match str_field(json, "task", WHAT)?.as_str() {
        "regression" => Task::Regression,
        "binary_classification" => Task::BinaryClassification,
        other => return Err(wire_error(format!("{WHAT}: unknown task '{other}'"))),
    };
    let mut features = Vec::new();
    for (i, fj) in arr_field(json, "features", WHAT)?.iter().enumerate() {
        let what = format!("{WHAT} feature[{i}]");
        let name = str_field(fj, "name", &what)?;
        let kind = match str_field(fj, "kind", &what)?.as_str() {
            "numeric" => FeatureKind::Numeric {
                min: num_field(fj, "min", &what)?,
                max: num_field(fj, "max", &what)?,
            },
            "categorical" => FeatureKind::Categorical {
                categories: strs_field(fj, "categories", &what)?,
            },
            other => return Err(wire_error(format!("{what}: unknown kind '{other}'"))),
        };
        let mutability = mutability_from(&str_field(fj, "mutability", &what)?)?;
        let protected = match fj.get("protected") {
            Some(Json::Bool(b)) => *b,
            _ => return Err(wire_error(format!("{what}: 'protected' must be a boolean"))),
        };
        features.push(Feature { name, kind, mutability, protected });
    }
    let n_features = features.len();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for (i, rj) in arr_field(json, "x", WHAT)?.iter().enumerate() {
        let row = rj
            .as_arr()
            .ok_or_else(|| wire_error(format!("{WHAT}: x[{i}] is not an array")))?
            .iter()
            .map(|v| v.as_num().ok_or_else(|| wire_error(format!("{WHAT}: x[{i}] has a non-number"))))
            .collect::<XaiResult<Vec<f64>>>()?;
        if row.len() != n_features {
            return Err(wire_error(format!(
                "{WHAT}: x[{i}] has {} values for {n_features} features",
                row.len()
            )));
        }
        rows.push(row);
    }
    let y = nums_field(json, "y", WHAT)?;
    if y.len() != rows.len() {
        return Err(wire_error(format!(
            "{WHAT}: {} targets for {} rows",
            y.len(),
            rows.len()
        )));
    }
    if rows.is_empty() {
        return Err(wire_error(format!("{WHAT}: dataset has no rows")));
    }
    let x = Matrix::from_rows(&rows);
    Ok(Dataset::new(Schema::new(features, &target), x, y, task))
}

// ---------------------------------------------------------------------------
// ShardDescriptor / ShardResult: the wire forms
// ---------------------------------------------------------------------------

/// A self-contained, serializable unit of shard work: which method (and
/// config), which model (persisted form + fingerprint), which request
/// (dataset, instance, feature, plan), and which contiguous range of the
/// draw grid's chunks this shard covers. The seed-stream coordinates are
/// `(plan.seed, chunk_start..chunk_end)`: chunk `c` always draws from
/// `child_seed(plan.seed, c)`, wherever it runs.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardDescriptor {
    /// Taxonomy card name of the method.
    pub method: String,
    /// Method configuration (method-specific canonical JSON).
    pub config: Json,
    /// Hex FNV-1a fingerprint of the model's persisted bytes.
    pub fingerprint: String,
    /// Shard index in `0..n_shards`.
    pub shard: usize,
    /// Total shard count of the plan.
    pub n_shards: usize,
    /// First global chunk index covered (inclusive).
    pub chunk_start: usize,
    /// One past the last global chunk index covered.
    pub chunk_end: usize,
    /// Total draws in the run's grid.
    pub total_draws: usize,
    /// Draws per chunk of the grid.
    pub chunk_size: usize,
    /// The model's persisted JSON form.
    pub model: Json,
    /// The dataset in canonical JSON form ([`dataset_to_json`]).
    pub dataset: Json,
    /// The instance to explain, for local methods.
    pub instance: Option<Vec<f64>>,
    /// Feature column index, for curve methods.
    pub feature: Option<usize>,
    /// The execution plan (seed, workers, batched, budget, degradation).
    pub plan: crate::explainer::RunConfig,
}

impl ShardDescriptor {
    /// The draw grid this descriptor was cut from.
    pub fn grid(&self) -> DrawGrid {
        DrawGrid { total_draws: self.total_draws, chunk_size: self.chunk_size }
    }

    /// Canonical JSON form: fixed field order, every field present.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::str("shard_descriptor")),
            ("method", Json::str(&*self.method)),
            ("config", self.config.clone()),
            ("fingerprint", Json::str(&*self.fingerprint)),
            ("shard", Json::Num(self.shard as f64)),
            ("n_shards", Json::Num(self.n_shards as f64)),
            ("chunk_start", Json::Num(self.chunk_start as f64)),
            ("chunk_end", Json::Num(self.chunk_end as f64)),
            ("total_draws", Json::Num(self.total_draws as f64)),
            ("chunk_size", Json::Num(self.chunk_size as f64)),
            ("model", self.model.clone()),
            ("dataset", self.dataset.clone()),
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

    /// Canonical compact JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_json()
    }

    /// Strict parse from a [`Json`] tree: unknown fields, wrong types and
    /// inconsistent ranges are typed [`XaiError::Parse`] errors;
    /// non-finite instance coordinates are [`XaiError::NonFiniteInput`].
    pub fn from_json(json: &Json) -> XaiResult<ShardDescriptor> {
        const WHAT: &str = "ShardDescriptor";
        let Json::Obj(fields) = json else {
            return Err(wire_error(format!("{WHAT}: expected a JSON object")));
        };
        for (key, _) in fields {
            if !matches!(
                key.as_str(),
                "kind"
                    | "method"
                    | "config"
                    | "fingerprint"
                    | "shard"
                    | "n_shards"
                    | "chunk_start"
                    | "chunk_end"
                    | "total_draws"
                    | "chunk_size"
                    | "model"
                    | "dataset"
                    | "instance"
                    | "feature"
                    | "plan"
            ) {
                return Err(wire_error(format!("{WHAT}: unknown field '{key}'")));
            }
        }
        let kind = str_field(json, "kind", WHAT)?;
        if kind != "shard_descriptor" {
            return Err(wire_error(format!("{WHAT}: kind must be 'shard_descriptor', got '{kind}'")));
        }
        let method = str_field(json, "method", WHAT)?;
        let config = match json.get("config") {
            Some(c @ Json::Obj(_)) => c.clone(),
            _ => return Err(wire_error(format!("{WHAT}: 'config' must be an object"))),
        };
        let fingerprint = str_field(json, "fingerprint", WHAT)?;
        if fingerprint.len() != 16 || !fingerprint.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(wire_error(format!(
                "{WHAT}: 'fingerprint' must be 16 hex characters, got '{fingerprint}'"
            )));
        }
        let shard = index_field(json, "shard", WHAT)?;
        let n_shards = index_field(json, "n_shards", WHAT)?;
        if n_shards == 0 || shard >= n_shards {
            return Err(wire_error(format!(
                "{WHAT}: shard {shard} out of range for {n_shards} shards"
            )));
        }
        let chunk_start = index_field(json, "chunk_start", WHAT)?;
        let chunk_end = index_field(json, "chunk_end", WHAT)?;
        let total_draws = index_field(json, "total_draws", WHAT)?;
        let chunk_size = index_field(json, "chunk_size", WHAT)?;
        if chunk_size == 0 {
            return Err(wire_error(format!("{WHAT}: chunk_size must be >= 1")));
        }
        let n_chunks = total_draws.div_ceil(chunk_size);
        if chunk_start > chunk_end || chunk_end > n_chunks {
            return Err(wire_error(format!(
                "{WHAT}: chunk range {chunk_start}..{chunk_end} invalid for {n_chunks} chunks"
            )));
        }
        let model = match json.get("model") {
            Some(m @ Json::Obj(_)) => m.clone(),
            _ => return Err(wire_error(format!("{WHAT}: 'model' must be an object"))),
        };
        let dataset = match json.get("dataset") {
            Some(d @ Json::Obj(_)) => d.clone(),
            _ => return Err(wire_error(format!("{WHAT}: 'dataset' must be an object"))),
        };
        let instance = match json.get("instance") {
            None | Some(Json::Null) => None,
            Some(Json::Arr(items)) => {
                let mut xs = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    match item.as_num() {
                        Some(v) if v.is_finite() => xs.push(v),
                        Some(v) => {
                            return Err(XaiError::NonFiniteInput {
                                context: format!("{WHAT}: instance[{i}] is {v}"),
                            })
                        }
                        None => {
                            return Err(wire_error(format!("{WHAT}: instance[{i}] is not a number")))
                        }
                    }
                }
                Some(xs)
            }
            Some(_) => {
                return Err(wire_error(format!(
                    "{WHAT}: 'instance' must be an array of numbers or null"
                )))
            }
        };
        let feature = match json.get("feature") {
            None | Some(Json::Null) => None,
            Some(_) => Some(index_field(json, "feature", WHAT)?),
        };
        let plan = match json.get("plan") {
            Some(p) => parse_plan(p)?,
            None => return Err(wire_error(format!("{WHAT}: missing required field 'plan'"))),
        };
        Ok(ShardDescriptor {
            method,
            config,
            fingerprint,
            shard,
            n_shards,
            chunk_start,
            chunk_end,
            total_draws,
            chunk_size,
            model,
            dataset,
            instance,
            feature,
            plan,
        })
    }

    /// Parses a descriptor from JSON text.
    pub fn from_json_str(text: &str) -> XaiResult<ShardDescriptor> {
        Self::from_json(&crate::json_parse::parse_json(text)?)
    }
}

/// One shard's serialized partial, as shipped back by a worker.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardResult {
    /// Taxonomy card name of the method.
    pub method: String,
    /// Hex model fingerprint, echoed from the descriptor.
    pub fingerprint: String,
    /// Shard index.
    pub shard: usize,
    /// Total shard count of the plan.
    pub n_shards: usize,
    /// The `{"chunks": [...]}` partial payload.
    pub partial: Json,
}

impl ShardResult {
    /// Canonical JSON form: fixed field order.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::str("shard_result")),
            ("method", Json::str(&*self.method)),
            ("fingerprint", Json::str(&*self.fingerprint)),
            ("shard", Json::Num(self.shard as f64)),
            ("n_shards", Json::Num(self.n_shards as f64)),
            ("partial", self.partial.clone()),
        ])
    }

    /// Canonical compact JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_json()
    }

    /// Strict parse with typed [`XaiError::Parse`] errors.
    pub fn from_json(json: &Json) -> XaiResult<ShardResult> {
        const WHAT: &str = "ShardResult";
        let Json::Obj(fields) = json else {
            return Err(wire_error(format!("{WHAT}: expected a JSON object")));
        };
        for (key, _) in fields {
            if !matches!(key.as_str(), "kind" | "method" | "fingerprint" | "shard" | "n_shards" | "partial")
            {
                return Err(wire_error(format!("{WHAT}: unknown field '{key}'")));
            }
        }
        let kind = str_field(json, "kind", WHAT)?;
        if kind != "shard_result" {
            return Err(wire_error(format!("{WHAT}: kind must be 'shard_result', got '{kind}'")));
        }
        let method = str_field(json, "method", WHAT)?;
        let fingerprint = str_field(json, "fingerprint", WHAT)?;
        let shard = index_field(json, "shard", WHAT)?;
        let n_shards = index_field(json, "n_shards", WHAT)?;
        if n_shards == 0 || shard >= n_shards {
            return Err(wire_error(format!(
                "{WHAT}: shard {shard} out of range for {n_shards} shards"
            )));
        }
        let partial = match json.get("partial") {
            Some(p @ Json::Obj(_)) => p.clone(),
            _ => return Err(wire_error(format!("{WHAT}: 'partial' must be an object"))),
        };
        Ok(ShardResult { method, fingerprint, shard, n_shards, partial })
    }

    /// Parses a result from JSON text.
    pub fn from_json_str(text: &str) -> XaiResult<ShardResult> {
        Self::from_json(&crate::json_parse::parse_json(text)?)
    }
}

// ---------------------------------------------------------------------------
// Building, executing and merging descriptors
// ---------------------------------------------------------------------------

/// Hex rendering of a model fingerprint, as carried in descriptors.
pub fn fingerprint_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fingerprint_bytes(bytes))
}

/// Cuts a request into `n_shards` self-contained descriptors.
///
/// `model_json` is the model's persisted JSON form (the fingerprint is
/// hashed from its canonical bytes). Requests carrying borrowed state
/// that cannot travel — an explicit background matrix, a test set, a
/// caller-supplied utility — are rejected as [`XaiError::Unsupported`];
/// such runs can still shard in-process via
/// [`crate::backend::LocalBackend`].
pub fn build_descriptors(
    explainer: &dyn ShardableExplainer,
    req: &ExplainRequest<'_>,
    model_json: Json,
    n_shards: usize,
) -> XaiResult<Vec<ShardDescriptor>> {
    assert!(n_shards >= 1, "need at least one shard");
    if req.background.is_some() || req.test.is_some() || req.utility.is_some() {
        return Err(XaiError::Unsupported {
            context: "process-pool sharding needs a self-contained request; \
                      explicit background/test/utility references cannot travel in a descriptor \
                      (use LocalBackend for in-process sharding)"
                .into(),
        });
    }
    let grid = explainer.draw_grid(req)?;
    let bounds = shard_chunk_ranges(grid.n_chunks(), n_shards);
    let fingerprint = fingerprint_hex(model_json.to_json().as_bytes());
    let dataset = dataset_to_json(req.data);
    let method = explainer.card().name.to_string();
    let config = explainer.config_json();
    Ok(bounds
        .iter()
        .enumerate()
        .map(|(s, &(start, end))| ShardDescriptor {
            method: method.clone(),
            config: config.clone(),
            fingerprint: fingerprint.clone(),
            shard: s,
            n_shards,
            chunk_start: start,
            chunk_end: end,
            total_draws: grid.total_draws,
            chunk_size: grid.chunk_size,
            model: model_json.clone(),
            dataset: dataset.clone(),
            instance: req.instance.map(<[f64]>::to_vec),
            feature: req.feature,
            plan: req.plan,
        })
        .collect())
}

/// Worker-side execution: rebuilds the request from a descriptor, checks
/// the descriptor's grid against the method's own, runs the chunk range
/// and wraps the partial as a [`ShardResult`].
pub fn execute_descriptor(
    desc: &ShardDescriptor,
    explainer: &dyn ShardableExplainer,
    model: &dyn ModelOracle,
) -> XaiResult<ShardResult> {
    let data = dataset_from_json(&desc.dataset)?;
    let mut req = ExplainRequest::new(&data).plan(desc.plan);
    if let Some(instance) = &desc.instance {
        req = req.instance(instance);
    }
    if let Some(j) = desc.feature {
        req = req.feature(j);
    }
    let grid = explainer.draw_grid(&req)?;
    if grid != desc.grid() {
        return Err(wire_error(format!(
            "ShardDescriptor: grid mismatch — descriptor says {} draws × chunk {}, \
             method computes {} × {}",
            desc.total_draws, desc.chunk_size, grid.total_draws, grid.chunk_size
        )));
    }
    let partial = explainer.explain_chunks(model, &req, desc.chunk_start..desc.chunk_end)?;
    Ok(ShardResult {
        method: desc.method.clone(),
        fingerprint: desc.fingerprint.clone(),
        shard: desc.shard,
        n_shards: desc.n_shards,
        partial,
    })
}

/// Validates a complete result set and returns the partials ordered by
/// shard index — the merge can then run regardless of arrival order.
/// Incomplete, duplicated or mixed result sets are typed
/// [`XaiError::Parse`] errors.
pub fn order_partials(results: Vec<ShardResult>) -> XaiResult<Vec<Json>> {
    const WHAT: &str = "shard merge";
    let Some(first) = results.first() else {
        return Err(wire_error(format!("{WHAT}: no shard results")));
    };
    let n_shards = first.n_shards;
    let (method, fingerprint) = (first.method.clone(), first.fingerprint.clone());
    if results.len() != n_shards {
        return Err(wire_error(format!(
            "{WHAT}: got {} results for {n_shards} shards",
            results.len()
        )));
    }
    let mut slots: Vec<Option<Json>> = vec![None; n_shards];
    for r in results {
        if r.method != method || r.fingerprint != fingerprint || r.n_shards != n_shards {
            return Err(wire_error(format!(
                "{WHAT}: mixed result sets (method '{}' fp {} n_shards {} vs '{method}' fp {fingerprint} n_shards {n_shards})",
                r.method, r.fingerprint, r.n_shards
            )));
        }
        if slots[r.shard].is_some() {
            return Err(wire_error(format!("{WHAT}: duplicate result for shard {}", r.shard)));
        }
        slots[r.shard] = Some(r.partial);
    }
    Ok(slots.into_iter().map(|s| s.expect("all slots filled by count + dedup check")).collect())
}

/// Orders a result set and runs the merge epilogue. The counterpart of
/// [`crate::backend::dispatch_local`] for partials gathered from worker
/// processes.
pub fn merge_shard_results(
    explainer: &dyn ShardableExplainer,
    model: &dyn ModelOracle,
    req: &ExplainRequest<'_>,
    results: Vec<ShardResult>,
) -> XaiResult<Explanation> {
    let partials = order_partials(results)?;
    explainer.merge_chunks(model, req, partials)
}

// ---------------------------------------------------------------------------
// Error envelope: how a worker ships a typed failure over the wire
// ---------------------------------------------------------------------------

/// Serializes an [`XaiError`] as a canonical error envelope
/// (`{"kind":"shard_error","class":...,"context":...,"detail":...}`), so
/// a shard daemon can answer a typed failure in a response frame and
/// keep serving.
pub fn error_to_json(e: &XaiError) -> Json {
    let (class, context, detail, io_kind) = match e {
        XaiError::NonFiniteInput { context } => ("non_finite_input", context.clone(), None, None),
        XaiError::SingularSystem { context } => ("singular_system", context.clone(), None, None),
        XaiError::ConvergenceFailure { context, iterations } => {
            ("convergence_failure", context.clone(), Some(*iterations as f64), None)
        }
        XaiError::ModelFault { context } => ("model_fault", context.clone(), None, None),
        XaiError::BudgetExceeded { context, completed } => {
            ("budget_exceeded", context.clone(), Some(*completed as f64), None)
        }
        XaiError::WorkerPanic { task, message } => {
            ("worker_panic", message.clone(), Some(*task as f64), None)
        }
        XaiError::Io { kind, context } => ("io", context.clone(), None, Some(*kind)),
        XaiError::Parse { context } => ("parse", context.clone(), None, None),
        XaiError::Unsupported { context } => ("unsupported", context.clone(), None, None),
        XaiError::QueueFull { capacity } => {
            ("queue_full", String::new(), Some(*capacity as f64), None)
        }
    };
    Json::obj(vec![
        ("kind", Json::str("shard_error")),
        ("class", Json::str(class)),
        ("io_kind", io_kind.map_or(Json::Null, |k| Json::str(k.as_str()))),
        ("context", Json::str(context)),
        ("detail", detail.map_or(Json::Null, Json::Num)),
    ])
}

/// True when `json` is a shard error envelope.
pub fn is_error_envelope(json: &Json) -> bool {
    json.get("kind").and_then(Json::as_str) == Some("shard_error")
}

/// Parses an error envelope back into the typed [`XaiError`].
pub fn error_from_json(json: &Json) -> XaiResult<XaiError> {
    const WHAT: &str = "shard error envelope";
    if !is_error_envelope(json) {
        return Err(wire_error(format!("{WHAT}: kind must be 'shard_error'")));
    }
    let class = str_field(json, "class", WHAT)?;
    let context = str_field(json, "context", WHAT)?;
    let detail = match json.get("detail") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_num()
                .ok_or_else(|| wire_error(format!("{WHAT}: 'detail' must be a number or null")))?,
        ),
    };
    let need_detail = |what: &str| {
        detail
            .map(|d| d as usize)
            .ok_or_else(|| wire_error(format!("{WHAT}: class '{what}' needs a 'detail' field")))
    };
    Ok(match class.as_str() {
        "non_finite_input" => XaiError::NonFiniteInput { context },
        "singular_system" => XaiError::SingularSystem { context },
        "convergence_failure" => XaiError::ConvergenceFailure {
            context,
            iterations: need_detail("convergence_failure")?,
        },
        "model_fault" => XaiError::ModelFault { context },
        "budget_exceeded" => XaiError::BudgetExceeded {
            context,
            completed: need_detail("budget_exceeded")?,
        },
        "worker_panic" => XaiError::WorkerPanic {
            task: need_detail("worker_panic")?,
            message: context,
        },
        "io" => {
            let name = str_field(json, "io_kind", WHAT)?;
            let kind = crate::error::IoKind::parse(&name)
                .ok_or_else(|| wire_error(format!("{WHAT}: unknown io_kind '{name}'")))?;
            XaiError::Io { kind, context }
        }
        "parse" => XaiError::Parse { context },
        "unsupported" => XaiError::Unsupported { context },
        "queue_full" => XaiError::QueueFull { capacity: need_detail("queue_full")? },
        other => return Err(wire_error(format!("{WHAT}: unknown class '{other}'"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_are_disjoint_and_covering() {
        for n_chunks in 0..40 {
            for n_shards in 1..10 {
                let bounds = shard_chunk_ranges(n_chunks, n_shards);
                assert_eq!(bounds.len(), n_shards);
                assert_eq!(bounds[0].0, 0);
                assert_eq!(bounds[n_shards - 1].1, n_chunks);
                for w in bounds.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "ranges must tile");
                }
                let sizes: Vec<usize> = bounds.iter().map(|(a, b)| b - a).collect();
                let (min, max) =
                    (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "balanced partition: {sizes:?}");
            }
        }
    }

    #[test]
    fn grid_chunks_tile_the_draw_range() {
        let grid = DrawGrid { total_draws: 21, chunk_size: 4 };
        assert_eq!(grid.n_chunks(), 6);
        let mut covered = 0;
        for c in 0..grid.n_chunks() {
            let r = grid.chunk_range(c);
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, 21);
    }

    #[test]
    fn error_envelope_roundtrips_every_class() {
        let errors = vec![
            XaiError::NonFiniteInput { context: "x".into() },
            XaiError::SingularSystem { context: "s".into() },
            XaiError::ConvergenceFailure { context: "c".into(), iterations: 7 },
            XaiError::ModelFault { context: "m".into() },
            XaiError::BudgetExceeded { context: "b".into(), completed: 3 },
            XaiError::WorkerPanic { task: 2, message: "boom".into() },
            XaiError::Io { kind: crate::error::IoKind::Refused, context: "i".into() },
            XaiError::Io { kind: crate::error::IoKind::Reset, context: "i".into() },
            XaiError::Io { kind: crate::error::IoKind::Timeout, context: "i".into() },
            XaiError::Io { kind: crate::error::IoKind::ShortRead, context: "i".into() },
            XaiError::Io { kind: crate::error::IoKind::NotFound, context: "i".into() },
            XaiError::Io { kind: crate::error::IoKind::Other, context: "i".into() },
            XaiError::Parse { context: "p".into() },
            XaiError::Unsupported { context: "u".into() },
            XaiError::QueueFull { capacity: 8 },
        ];
        for e in errors {
            let j = error_to_json(&e);
            assert!(is_error_envelope(&j));
            let back = error_from_json(&j).unwrap();
            assert_eq!(back, e);
            // And through text.
            let re = crate::json_parse::parse_json(&j.to_json()).unwrap();
            assert_eq!(error_from_json(&re).unwrap(), e);
        }
    }

    #[test]
    fn flatten_preserves_chunk_order() {
        let p0 = chunks_json(vec![Json::Num(0.0), Json::Num(1.0)]);
        let p1 = chunks_json(vec![Json::Num(2.0)]);
        let partials = [p0, p1];
        let flat = flatten_chunks(&partials, "test").unwrap();
        let vals: Vec<f64> = flat.iter().map(|j| j.as_num().unwrap()).collect();
        assert_eq!(vals, vec![0.0, 1.0, 2.0]);
        assert!(flatten_chunks(&[Json::obj(vec![])], "test").is_err());
    }
}
