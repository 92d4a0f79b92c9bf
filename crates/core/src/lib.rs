//! # xai-core
//!
//! The unifying layer of the `xai` workspace: everything here is shared by
//! every method crate and by downstream users.
//!
//! - [`taxonomy`] — the tutorial's organizing dimensions (intrinsic vs
//!   post-hoc, model-agnostic vs model-specific, local vs global vs
//!   training-data) as types, plus a queryable [`taxonomy::Registry`] of
//!   all implemented methods;
//! - [`explainer`] — the unified layer (DESIGN.md §9): the object-safe
//!   [`explainer::Explainer`] trait, the [`explainer::RunConfig`] execution
//!   plan, and the [`explainer::ModelOracle`] model surface that every
//!   method family is driven through;
//! - [`explanation`] — the four output forms: feature attributions, rules,
//!   counterfactuals, and data attributions;
//! - [`eval`] — automated faithfulness (deletion/insertion), fidelity and
//!   stability protocols;
//! - [`report`] — a dependency-free JSON writer so explanations can leave
//!   the process;
//! - [`error`] — the unified [`XaiError`] taxonomy behind every fallible
//!   `try_*` entry point, plus [`SampleBudget`] for best-effort
//!   Monte-Carlo estimation;
//! - [`validate`] — up-front NaN/Inf and degenerate-background rejection;
//! - [`cache`] — the one cache primitive: [`cache::Lru`], a bounded,
//!   thread-safe, exact-LRU map with hit/miss/eviction counters that
//!   every cache in the workspace is built on;
//! - [`serve`] — the explanation-serving engine (DESIGN.md §10): requests
//!   as JSON data, a worker pool with admission control, and a
//!   fingerprint-keyed LRU result cache;
//! - [`memo`] — the shared cross-request coalition memo (DESIGN.md §12):
//!   coalition values keyed on (model, background, instance, mask)
//!   fingerprints so repeated serve traffic skips oracle calls;
//! - [`shard`] — deterministic shard plans (DESIGN.md §11): an
//!   estimator's random draws partitioned into serializable
//!   [`shard::ShardDescriptor`]s whose partials merge bit-identically to
//!   the unsharded run;
//! - [`transport`] — the multi-node shard transport (DESIGN.md §13): a
//!   zero-dependency length-prefixed TCP protocol shipping descriptors to
//!   remote daemons, wrapped in a failure-first [`transport::ClusterRunner`]
//!   with retry, hedging, circuit breaking, and graceful in-process
//!   degradation;
//! - [`backend`] — the unified execution substrate (DESIGN.md §14): the
//!   object-safe [`backend::ExecutionBackend`] trait, the one way to run a
//!   shard plan, with [`backend::LocalBackend`],
//!   [`backend::ProcessPoolBackend`] and [`backend::ClusterBackend`]
//!   implementations, all merging shard partials bit-identically.

pub mod backend;
pub mod cache;
pub mod error;
pub mod eval;
pub mod explainer;
pub mod json_parse;
pub mod explanation;
pub mod memo;
pub mod report;
pub mod serve;
pub mod shard;
pub mod taxonomy;
pub mod transport;
pub mod validate;

pub use backend::{
    dispatch_local, BackendChoice, BackendJob, BackendKind, BackendOutcome, ClusterBackend,
    ExecutionBackend, LocalBackend, PoolConfig, ProcessPoolBackend,
};
pub use cache::{CacheStats, Lru};
pub use error::{catch_model, BudgetMeter, IoKind, SampleBudget, XaiError, XaiResult};
pub use explainer::{
    CurveExplanation, DegradationPolicy, ExecPlan, ExplainRequest, Explainer, Explanation,
    FnOracle, ModelOracle, RunConfig, Utility,
};
pub use explanation::{
    Condition, Counterfactual, DataAttribution, FeatureAttribution, Op, RuleExplanation,
};
pub use json_parse::{parse_json, ParseError};
pub use memo::{fingerprint_f64s, CoalitionMemo, GameKey, MemoHandle};
pub use report::{Json, ToReport};
pub use serve::{
    fingerprint_bytes, ExplanationService, ServeRequest, ServeResponse, ServeStats, ServiceConfig,
};
pub use shard::{
    build_descriptors, execute_descriptor, merge_shard_results, shard_chunk_ranges, DrawGrid,
    ShardDescriptor, ShardResult, ShardableExplainer,
};
pub use transport::{
    read_frame, serve_connection, write_frame, BreakerState, ClusterConfig, ClusterRunner,
    ClusterStats, EndpointHealth, FallbackPolicy, RetryPolicy, FRAME_MAGIC, MAX_FRAME_BYTES,
};
pub use taxonomy::{
    method_card, workspace_registry, Access, ExplanationForm, MethodCard, Registry, Scope,
    SharedExplainer, Stage, WORKSPACE_CARDS,
};
