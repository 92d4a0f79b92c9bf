//! Unified execution backends (DESIGN.md §14).
//!
//! Running a shard plan means one loop: cut the request into
//! [`ShardDescriptor`]s, execute them somewhere, merge the partials
//! bit-identically. [`ExecutionBackend::execute`] over a [`BackendJob`]
//! (explainer + model + request + shard count) is the one public way to
//! run it, and [`LocalBackend`] (threads in this process),
//! [`ProcessPoolBackend`] (`xai-shard-worker` daemons it spawns on this
//! machine) and [`ClusterBackend`] (daemons at given TCP addresses) are
//! its three implementations. Both remote backends ship descriptors
//! through a [`crate::transport::ClusterRunner`], so remote work has one
//! wire protocol, one supervisor and one fault plan.
//! The serving engine ([`crate::serve::ExplanationService`]) routes
//! requests through the same trait, selected by the typed
//! [`BackendChoice`] travelling inside every
//! [`crate::explainer::RunConfig`].
//!
//! The invariant every backend upholds: **the explanation bytes are
//! identical to the unsharded `Explainer::explain` run** (with
//! `workers > 1`, which runs this same chunk grid in process) for every
//! shard count, every backend, and every fault schedule. Where work runs
//! is an operational choice; what it computes never is. That determinism
//! is also what makes the cluster runner's shard cache sound: a shard's
//! result is a pure function of (model fingerprint, descriptor bytes), so
//! a hedged, retried, or repeated shard can be answered from cache
//! ([`descriptor_cache_key`]) without risking a wrong byte.
//!
//! Failure semantics per backend:
//!
//! - [`LocalBackend`]: errors surface exactly as `explain` would raise
//!   them; there is no transport to degrade.
//! - [`ProcessPoolBackend`]: transport failures are retried onto a
//!   sibling daemon, never hedged, and never degraded
//!   ([`FallbackPolicy::Fail`]): what survives the retries is a typed
//!   error ([`XaiError::ModelFault`] for a daemon that exited abnormally,
//!   [`XaiError::BudgetExceeded`] past [`PoolConfig::deadline`],
//!   [`XaiError::Parse`] for garbage), and the failed daemons are
//!   replaced before the next job.
//! - [`ClusterBackend`]: transport failures are retried, hedged and
//!   breaker-routed by the [`ClusterRunner`]; when the whole cluster is
//!   unreachable and [`FallbackPolicy::InProcess`] allows, the job
//!   degrades to [`LocalBackend`] semantics and the outcome carries
//!   `degraded: true`.
//!
//! On both remote backends, execution failures (typed envelopes such as
//! [`XaiError::WorkerPanic`] from a worker that *ran* the shard) are
//! deterministic and are never retried or degraded.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::error::{XaiError, XaiResult};
use crate::explainer::{ExplainRequest, Explanation, ModelOracle};
use crate::report::Json;
use crate::serve::fingerprint_bytes;
use crate::shard::{
    build_descriptors, merge_shard_results, shard_chunk_ranges, wire_error, ShardDescriptor,
    ShardableExplainer,
};
use crate::transport::{ClusterConfig, ClusterRunner, DaemonHandle, FallbackPolicy};
use xai_rand::parallel::try_par_map_seeded;

// ---------------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------------

/// The three execution substrates, as a plain discriminant (used as the
/// key under which backends register with the serving engine).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BackendKind {
    /// Threads in this process.
    Local,
    /// `xai-shard-worker --listen` daemons spawned on this machine.
    ProcessPool,
    /// `xai-shard-worker --listen` daemons over TCP.
    Cluster,
}

impl BackendKind {
    /// The wire name (`"local"`, `"process_pool"`, `"cluster"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::Local => "local",
            BackendKind::ProcessPool => "process_pool",
            BackendKind::Cluster => "cluster",
        }
    }
}

/// The most shard descriptors one plan may be cut into. Every descriptor
/// carries a copy of the dataset and runs on its own supervisor thread,
/// so a shard count that arrives in a request is refused above this
/// before anything is built.
pub const MAX_SHARDS: usize = 256;

/// Where a run should execute, as carried by
/// [`crate::explainer::RunConfig::backend`]. `Local` is the default and
/// the only choice that needs no shard count; the remote choices name
/// how many [`ShardDescriptor`]s the plan is cut into.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendChoice {
    /// Run in-process (threads); the historical behaviour.
    #[default]
    Local,
    /// Fan out across `shards` descriptors shipped to daemons on this
    /// machine.
    ProcessPool {
        /// Number of shard descriptors (>= 1).
        shards: usize,
    },
    /// Fan out across `shards` descriptors shipped to TCP daemons.
    Cluster {
        /// Number of shard descriptors (>= 1).
        shards: usize,
    },
}

impl BackendChoice {
    /// A process-pool choice over `shards` descriptors.
    ///
    /// # Panics
    /// Unless `1 <= shards <=` [`MAX_SHARDS`].
    pub fn process_pool(shards: usize) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "process-pool shards must be in 1..={MAX_SHARDS}"
        );
        BackendChoice::ProcessPool { shards }
    }

    /// A cluster choice over `shards` descriptors.
    ///
    /// # Panics
    /// Unless `1 <= shards <=` [`MAX_SHARDS`].
    pub fn cluster(shards: usize) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "cluster shards must be in 1..={MAX_SHARDS}"
        );
        BackendChoice::Cluster { shards }
    }

    /// The substrate this choice names.
    pub fn kind(&self) -> BackendKind {
        match self {
            BackendChoice::Local => BackendKind::Local,
            BackendChoice::ProcessPool { .. } => BackendKind::ProcessPool,
            BackendChoice::Cluster { .. } => BackendKind::Cluster,
        }
    }

    /// The shard count for remote choices; `None` for `Local`.
    pub fn shards(&self) -> Option<usize> {
        match self {
            BackendChoice::Local => None,
            BackendChoice::ProcessPool { shards } | BackendChoice::Cluster { shards } => {
                Some(*shards)
            }
        }
    }

    /// Whether this is the in-process default.
    pub fn is_local(&self) -> bool {
        matches!(self, BackendChoice::Local)
    }

    /// Canonical wire form: `{"kind": "...", "shards": N|null}`.
    pub fn to_json(&self) -> Json {
        let shards = match self.shards() {
            Some(n) => Json::Num(n as f64),
            None => Json::Null,
        };
        Json::obj(vec![("kind", Json::str(self.kind().as_str())), ("shards", shards)])
    }

    /// Strict parse of the wire form: unknown fields and kinds are typed
    /// [`XaiError::Parse`] errors; `local` must not carry a shard count;
    /// remote kinds require an integer `shards` in `1..=`[`MAX_SHARDS`].
    pub fn from_json(json: &Json) -> XaiResult<Self> {
        const WHAT: &str = "ExecPlan backend";
        let Json::Obj(fields) = json else {
            return Err(wire_error(format!("{WHAT}: expected an object")));
        };
        for (key, _) in fields {
            if !matches!(key.as_str(), "kind" | "shards") {
                return Err(wire_error(format!("{WHAT}: unknown field '{key}'")));
            }
        }
        let kind = json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| wire_error(format!("{WHAT}: missing string field 'kind'")))?;
        let shards = match json.get("shards") {
            None | Some(Json::Null) => None,
            Some(Json::Num(n)) => {
                if n.fract() != 0.0 || *n < 1.0 || *n > MAX_SHARDS as f64 {
                    return Err(wire_error(format!(
                        "{WHAT}: 'shards' must be an integer in 1..={MAX_SHARDS}, got {n}"
                    )));
                }
                Some(*n as usize)
            }
            Some(_) => {
                return Err(wire_error(format!("{WHAT}: 'shards' must be a number or null")));
            }
        };
        match (kind, shards) {
            ("local", None) => Ok(BackendChoice::Local),
            ("local", Some(_)) => {
                Err(wire_error(format!("{WHAT}: 'local' does not take a shard count")))
            }
            ("process_pool", Some(shards)) => Ok(BackendChoice::ProcessPool { shards }),
            ("cluster", Some(shards)) => Ok(BackendChoice::Cluster { shards }),
            ("process_pool" | "cluster", None) => {
                Err(wire_error(format!("{WHAT}: '{kind}' requires 'shards'")))
            }
            (other, _) => Err(wire_error(format!("{WHAT}: unknown kind '{other}'"))),
        }
    }
}

// ---------------------------------------------------------------------------
// The job and its outcome
// ---------------------------------------------------------------------------

/// Everything a backend needs to execute one explanation: the shardable
/// method, the live model oracle (used for merging and for in-process
/// execution), the request, the model's persisted JSON (required by the
/// remote backends, whose workers rebuild the model from it), and the
/// shard count.
pub struct BackendJob<'a> {
    /// The method to run.
    pub explainer: &'a dyn ShardableExplainer,
    /// The live model (merge epilogues and local execution call it).
    pub model: &'a dyn ModelOracle,
    /// The request, including its [`crate::explainer::RunConfig`].
    pub req: &'a ExplainRequest<'a>,
    /// The model's persisted JSON, when available. Remote backends
    /// require it; [`LocalBackend`] ignores it.
    pub model_json: Option<Json>,
    /// How many shard descriptors to cut the plan into (>= 1).
    pub n_shards: usize,
}

impl<'a> BackendJob<'a> {
    /// A job over the given method, model and request.
    pub fn new(
        explainer: &'a dyn ShardableExplainer,
        model: &'a dyn ModelOracle,
        req: &'a ExplainRequest<'a>,
        n_shards: usize,
    ) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        BackendJob { explainer, model, req, model_json: None, n_shards }
    }

    /// Attaches the model's persisted JSON (enables remote backends).
    pub fn with_model_json(mut self, model_json: Json) -> Self {
        self.model_json = Some(model_json);
        self
    }

    fn require_model_json(&self, backend: &str) -> XaiResult<Json> {
        self.model_json.clone().ok_or_else(|| XaiError::Unsupported {
            context: format!(
                "{backend} backend needs the model's persisted JSON; \
                 attach it with BackendJob::with_model_json"
            ),
        })
    }
}

/// What a backend produced: the merged explanation (bit-identical across
/// backends) and whether the run degraded to in-process execution.
/// Execution counters (transport, sessions, shard cache) live on the
/// backend that keeps them, e.g. [`ClusterRunner::stats`].
#[derive(Clone, Debug)]
pub struct BackendOutcome {
    /// The merged explanation.
    pub explanation: Explanation,
    /// True when a cluster job fell back to the in-process runner under
    /// [`FallbackPolicy::InProcess`]. The bytes are identical either way.
    pub degraded: bool,
}

impl BackendOutcome {
    fn fresh(explanation: Explanation) -> Self {
        BackendOutcome { explanation, degraded: false }
    }
}

/// The one execution contract: take a job, run its shard plan somewhere,
/// merge bit-identically. Object-safe so the serving engine can hold a
/// heterogeneous registry of `Arc<dyn ExecutionBackend>`.
pub trait ExecutionBackend: Send + Sync {
    /// Which substrate this backend runs on.
    fn kind(&self) -> BackendKind;

    /// Executes the job to a merged explanation. Implementations must
    /// keep the bytes identical to the unsharded `explain` at the same
    /// plan (`workers > 1`), for any shard count and fault schedule.
    fn execute(&self, job: &BackendJob<'_>) -> XaiResult<BackendOutcome>;
}

// ---------------------------------------------------------------------------
// Shard-level result cache key
// ---------------------------------------------------------------------------

/// The shard-result cache key for a descriptor (see
/// [`ClusterRunner`]'s shard cache): the FNV-1a hash of its model
/// fingerprint and the FNV-1a hash of its canonical JSON bytes. The
/// descriptor bytes embed the method, config, request, plan, and chunk
/// range, so two keys collide only for byte-identical work (up to hash
/// collisions, which only ever cost a false hit of an identical job).
pub fn descriptor_cache_key(desc: &ShardDescriptor) -> (u64, u64) {
    (
        fingerprint_bytes(desc.fingerprint.as_bytes()),
        fingerprint_bytes(desc.to_json_string().as_bytes()),
    )
}

// ---------------------------------------------------------------------------
// Local backend: threads in this process
// ---------------------------------------------------------------------------

/// The shared dispatch core of the in-process runner: cut the draw grid
/// into `n_shards` ranges, run `explain_chunks` per shard on the seeded
/// fork-join executor (`plan.workers` threads), merge in shard order.
/// [`LocalBackend`] is this function, and every shardable method's
/// `Explainer::explain` runs its `workers > 1` plans through it with one
/// shard per worker.
pub fn dispatch_local(
    explainer: &dyn ShardableExplainer,
    model: &dyn ModelOracle,
    req: &ExplainRequest<'_>,
    n_shards: usize,
) -> XaiResult<Explanation> {
    assert!(n_shards >= 1, "need at least one shard");
    let grid = explainer.draw_grid(req)?;
    let bounds = shard_chunk_ranges(grid.n_chunks(), n_shards);
    let shard_results = try_par_map_seeded(n_shards, 0, req.plan.workers, |s, _rng| {
        let (start, end) = bounds[s];
        explainer.explain_chunks(model, req, start..end)
    })
    .map_err(XaiError::from)?;
    // Sequence in shard order so the lowest-indexed failing shard wins,
    // independent of scheduling.
    let partials = shard_results.into_iter().collect::<XaiResult<Vec<Json>>>()?;
    explainer.merge_chunks(model, req, partials)
}

/// In-process execution: shards become tasks on the fork-join executor.
/// No transport, no cache, no degradation — errors surface exactly as
/// `explain` would raise them.
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalBackend;

impl ExecutionBackend for LocalBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Local
    }

    fn execute(&self, job: &BackendJob<'_>) -> XaiResult<BackendOutcome> {
        dispatch_local(job.explainer, job.model, job.req, job.n_shards).map(BackendOutcome::fresh)
    }
}

// ---------------------------------------------------------------------------
// Process-pool backend: supervised local xai-shard-worker daemons
// ---------------------------------------------------------------------------

/// How the process pool launches and supervises its daemons.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Path to the `xai-shard-worker` executable.
    pub worker_exe: PathBuf,
    /// How many `xai-shard-worker --listen` daemons the pool runs (>= 1).
    pub max_procs: usize,
    /// Per-shard response bound: a daemon that has not answered a shard
    /// within it is past its deadline ([`XaiError::BudgetExceeded`]).
    pub deadline: Duration,
    /// Extra environment variables for every daemon (used by the
    /// fault-injection tests; empty in normal operation).
    pub env: Vec<(String, String)>,
}

impl PoolConfig {
    /// A pool over the given worker executable: one daemon per unit of
    /// the executor's default parallelism, a generous 60 s deadline.
    pub fn new(worker_exe: impl Into<PathBuf>) -> Self {
        PoolConfig {
            worker_exe: worker_exe.into(),
            max_procs: xai_rand::parallel::default_workers(),
            deadline: Duration::from_secs(60),
            env: Vec::new(),
        }
    }
}

/// One set of pool daemons and the runner over their addresses. Dropping
/// it kills and reaps every daemon, a hung one included.
struct Generation {
    daemons: Vec<DaemonHandle>,
    runner: Arc<ClusterRunner>,
}

impl Generation {
    fn spawn(pool: &PoolConfig) -> XaiResult<Generation> {
        let env: Vec<(&str, &str)> =
            pool.env.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        let daemons = (0..pool.max_procs)
            .map(|_| DaemonHandle::spawn(&pool.worker_exe, &env))
            .collect::<XaiResult<Vec<_>>>()?;
        let mut config = ClusterConfig::new(daemons.iter().map(|d| d.addr().to_string()));
        config.io_timeout = pool.deadline;
        config.fallback = FallbackPolicy::Fail;
        let runner = Arc::new(ClusterRunner::new(config)?);
        Ok(Generation { daemons, runner })
    }
}

/// OS-process execution on this machine: a [`ClusterRunner`] over
/// [`PoolConfig::max_procs`] local `xai-shard-worker --listen` daemons
/// that the pool spawns on first use and replaces when one has exited.
/// It is the cluster transport with the endpoints owned, so it has the
/// same wire protocol, supervision and fault plan:
///
/// - the runner's config is [`ClusterConfig::new`] over the daemons'
///   addresses with `io_timeout` = [`PoolConfig::deadline`] and
///   [`FallbackPolicy::Fail`], so a pool failure is always a typed error
///   and never silently degraded;
/// - every other field keeps the runner's default: transport-class
///   failures are retried onto a sibling daemon, nothing is hedged (the
///   daemons share this machine's CPUs), and the shard cache is on
///   (sound because shards are deterministic);
/// - execution envelopes ([`XaiError::WorkerPanic`] with the shard
///   index, [`XaiError::ModelFault`], …) pass through unchanged and are
///   never retried;
/// - on a transport failure the daemons are dropped (killed and reaped)
///   and the next `execute` spawns fresh ones. The error is
///   [`XaiError::ModelFault`] when a daemon had exited abnormally;
///   otherwise it is the runner's own: [`XaiError::BudgetExceeded`] for
///   a daemon silent past the deadline, [`XaiError::Parse`] for garbage.
///
/// `new` starts nothing, so a missing binary is a typed
/// [`XaiError::Io`] from `execute`.
pub struct ProcessPoolBackend {
    pool: PoolConfig,
    generation: Mutex<Option<Generation>>,
}

impl ProcessPoolBackend {
    /// A backend over the given pool configuration.
    pub fn new(pool: PoolConfig) -> Self {
        ProcessPoolBackend { pool, generation: Mutex::new(None) }
    }

    fn lock(&self) -> MutexGuard<'_, Option<Generation>> {
        self.generation.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The live generation's runner, spawning the daemons if there are
    /// none or replacing them if any has exited.
    fn runner(&self) -> XaiResult<Arc<ClusterRunner>> {
        let mut slot = self.lock();
        if let Some(generation) = slot.as_mut() {
            if generation.daemons.iter_mut().all(|d| d.try_wait().is_none()) {
                return Ok(Arc::clone(&generation.runner));
            }
        }
        *slot = None;
        Ok(Arc::clone(&slot.insert(Generation::spawn(&self.pool)?).runner))
    }

    /// Drops `runner`'s generation, unless a concurrent `execute` already
    /// replaced it, and names a daemon that had exited abnormally.
    fn retire(&self, runner: &Arc<ClusterRunner>) -> Option<XaiError> {
        let mut generation = self.lock().take_if(|g| Arc::ptr_eq(&g.runner, runner))?;
        generation.daemons.iter_mut().find_map(|d| {
            let status = d.try_wait().filter(|status| !status.success())?;
            Some(XaiError::ModelFault {
                context: format!("shard daemon {} exited abnormally ({status})", d.addr()),
            })
        })
    }
}

impl ExecutionBackend for ProcessPoolBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::ProcessPool
    }

    fn execute(&self, job: &BackendJob<'_>) -> XaiResult<BackendOutcome> {
        let model_json = job.require_model_json("process-pool")?;
        let descs = build_descriptors(job.explainer, job.req, model_json, job.n_shards)?;
        let runner = self.runner()?;
        match runner.run_classified(&descs) {
            Ok(results) => merge_shard_results(job.explainer, job.model, job.req, results)
                .map(BackendOutcome::fresh),
            Err(failure) if failure.is_execution() => Err(failure.into_error()),
            Err(failure) => Err(self.retire(&runner).unwrap_or_else(|| failure.into_error())),
        }
    }
}

// ---------------------------------------------------------------------------
// Cluster backend: TCP daemons behind the ClusterRunner
// ---------------------------------------------------------------------------

/// TCP execution across `xai-shard-worker --listen` daemons, supervised
/// by a shared [`ClusterRunner`] (retry, hedging, circuit breakers,
/// persistent sessions, shard cache). Cloning the `Arc` lets the serving
/// engine and direct callers share one set of connections, breakers and
/// cache.
pub struct ClusterBackend {
    runner: Arc<ClusterRunner>,
}

impl ClusterBackend {
    /// A backend over an existing (possibly shared) runner.
    pub fn new(runner: Arc<ClusterRunner>) -> Self {
        ClusterBackend { runner }
    }

    /// Builds a fresh runner from `config`.
    pub fn from_config(config: ClusterConfig) -> XaiResult<Self> {
        Ok(ClusterBackend::new(Arc::new(ClusterRunner::new(config)?)))
    }

    /// The underlying runner (for health/stats inspection).
    pub fn runner(&self) -> &Arc<ClusterRunner> {
        &self.runner
    }
}

impl ExecutionBackend for ClusterBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Cluster
    }

    /// Builds descriptors, ships them through the runner's supervision
    /// (retry/hedging/breakers/sessions/cache) and merges bit-identically
    /// — or degrades to [`dispatch_local`] with a `degraded` marker when
    /// the whole cluster is unreachable and [`FallbackPolicy::InProcess`]
    /// allows. Execution failures (typed envelopes from a worker that ran
    /// the shard) are deterministic and are returned as-is, never retried
    /// or degraded.
    fn execute(&self, job: &BackendJob<'_>) -> XaiResult<BackendOutcome> {
        let model_json = job.require_model_json("cluster")?;
        let descs = build_descriptors(job.explainer, job.req, model_json, job.n_shards)?;
        match self.runner.run_classified(&descs) {
            Ok(results) => merge_shard_results(job.explainer, job.model, job.req, results)
                .map(BackendOutcome::fresh),
            Err(failure) if failure.is_execution() => Err(failure.into_error()),
            Err(failure) => match self.runner.config().fallback {
                FallbackPolicy::Fail => Err(failure.into_error()),
                FallbackPolicy::InProcess => {
                    let explanation =
                        dispatch_local(job.explainer, job.model, job.req, job.n_shards)?;
                    Ok(BackendOutcome { explanation, degraded: true })
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Lru;
    use crate::json_parse::parse_json;
    use crate::shard::ShardResult;

    #[test]
    fn backend_choice_wire_round_trips() {
        for choice in [
            BackendChoice::Local,
            BackendChoice::process_pool(4),
            BackendChoice::cluster(2),
            BackendChoice::cluster(MAX_SHARDS),
        ] {
            let json = choice.to_json();
            assert_eq!(BackendChoice::from_json(&json).unwrap(), choice, "{}", json.to_json());
        }
    }

    #[test]
    fn backend_choice_parse_is_strict() {
        for bad in [
            r#"{"kind": "warp", "shards": 2}"#,
            r#"{"kind": "local", "shards": 2}"#,
            r#"{"kind": "cluster"}"#,
            r#"{"kind": "cluster", "shards": 0}"#,
            r#"{"kind": "cluster", "shards": 1.5}"#,
            r#"{"kind": "cluster", "shards": 257}"#,
            r#"{"kind": "process_pool", "shards": 4294967295}"#,
            r#"{"kind": "cluster", "shards": 2, "turbo": true}"#,
            r#"{"shards": 2}"#,
            r#"["cluster", 2]"#,
        ] {
            let json = parse_json(bad).unwrap();
            let err = BackendChoice::from_json(&json).unwrap_err();
            assert!(matches!(err, XaiError::Parse { .. }), "{bad}: {err:?}");
        }
    }

    #[test]
    fn constructors_refuse_shard_counts_above_the_cap() {
        let huge = u32::MAX as usize;
        assert!(std::panic::catch_unwind(|| BackendChoice::cluster(huge)).is_err());
        assert!(std::panic::catch_unwind(|| BackendChoice::process_pool(huge)).is_err());
        assert!(std::panic::catch_unwind(|| BackendChoice::cluster(MAX_SHARDS + 1)).is_err());
    }

    #[test]
    fn shard_cache_is_lru_with_counters() {
        fn result(shard: usize) -> ShardResult {
            ShardResult {
                method: "test".into(),
                fingerprint: format!("{shard:016x}"),
                shard,
                n_shards: 8,
                partial: Json::obj(vec![("chunks", Json::Arr(vec![]))]),
            }
        }
        fn key(shard: usize) -> (u64, u64) {
            descriptor_cache_key(&ShardDescriptor {
                method: "test".into(),
                config: Json::obj(vec![]),
                fingerprint: "00".into(),
                shard,
                n_shards: 8,
                chunk_start: shard,
                chunk_end: shard + 1,
                total_draws: 8,
                chunk_size: 1,
                model: Json::obj(vec![]),
                dataset: Json::obj(vec![]),
                instance: None,
                feature: None,
                plan: crate::explainer::RunConfig::default(),
            })
        }
        let cache = Lru::new(2);
        assert!(cache.get(&key(0)).is_none());
        cache.insert(key(0), result(0));
        cache.insert(key(1), result(1));
        assert_eq!(cache.get(&key(0)).unwrap().shard, 0);
        // 1 is now least recently used; inserting 2 evicts it.
        cache.insert(key(2), result(2));
        assert!(cache.get(&key(1)).is_none());
        assert_eq!(cache.get(&key(2)).unwrap().shard, 2);
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let cache = Lru::new(0);
        let desc = ShardDescriptor {
            method: "test".into(),
            config: Json::obj(vec![]),
            fingerprint: "00".into(),
            shard: 0,
            n_shards: 1,
            chunk_start: 0,
            chunk_end: 1,
            total_draws: 1,
            chunk_size: 1,
            model: Json::obj(vec![]),
            dataset: Json::obj(vec![]),
            instance: None,
            feature: None,
            plan: crate::explainer::RunConfig::default(),
        };
        let result = ShardResult {
            method: "test".into(),
            fingerprint: "00".into(),
            shard: 0,
            n_shards: 1,
            partial: Json::obj(vec![("chunks", Json::Arr(vec![]))]),
        };
        cache.insert(descriptor_cache_key(&desc), result);
        assert!(cache.get(&descriptor_cache_key(&desc)).is_none());
        assert_eq!(cache.stats().entries, 0);
    }
}
