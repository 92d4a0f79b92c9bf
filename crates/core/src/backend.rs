//! Unified execution backends (DESIGN.md §14).
//!
//! Running a shard plan means one loop: cut the request into
//! [`ShardDescriptor`]s, execute them somewhere, merge the partials
//! bit-identically. [`ExecutionBackend::execute`] over a [`BackendJob`]
//! (explainer + model + request + shard count) is the one public way to
//! run it, and [`LocalBackend`] (threads in this process),
//! [`ProcessPoolBackend`] (`xai-shard-worker` OS processes) and
//! [`ClusterBackend`] (TCP daemons behind a
//! [`crate::transport::ClusterRunner`]) are its three implementations.
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
//! - [`ProcessPoolBackend`]: worker failures are typed
//!   ([`XaiError::WorkerPanic`], [`XaiError::ModelFault`],
//!   [`XaiError::Parse`], [`XaiError::BudgetExceeded`] past the wave
//!   deadline) and never silently retried — a pool lives on one machine,
//!   so a deterministic failure would only repeat.
//! - [`ClusterBackend`]: transport failures are retried, hedged and
//!   breaker-routed by the [`ClusterRunner`]; when the whole cluster is
//!   unreachable and [`FallbackPolicy::InProcess`] allows, the job
//!   degrades to [`LocalBackend`] semantics and the outcome carries
//!   `degraded: true`. Execution failures (typed envelopes from a worker
//!   that *ran* the shard) are deterministic and are never retried or
//!   degraded.

use std::io::{Read as _, Write as _};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{IoKind, XaiError, XaiResult};
use crate::explainer::{ExplainRequest, Explanation, ModelOracle};
use crate::json_parse::parse_json;
use crate::report::Json;
use crate::serve::fingerprint_bytes;
use crate::shard::{
    build_descriptors, error_from_json, is_error_envelope, merge_shard_results,
    shard_chunk_ranges, wire_error, ShardDescriptor, ShardResult, ShardableExplainer,
};
use crate::transport::{ClusterRunner, FallbackPolicy};
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
    /// `xai-shard-worker` OS processes on this machine.
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

/// Where a run should execute, as carried by
/// [`crate::explainer::RunConfig::backend`]. `Local` is the default and
/// the only choice that needs no shard count; the remote choices name
/// how many [`ShardDescriptor`]s the plan is cut into.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendChoice {
    /// Run in-process (threads); the historical behaviour.
    #[default]
    Local,
    /// Fan out across `shards` worker processes on this machine.
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
    /// A process-pool choice over `shards` descriptors (>= 1).
    pub fn process_pool(shards: usize) -> Self {
        assert!(shards >= 1, "process-pool backend needs at least one shard");
        BackendChoice::ProcessPool { shards }
    }

    /// A cluster choice over `shards` descriptors (>= 1).
    pub fn cluster(shards: usize) -> Self {
        assert!(shards >= 1, "cluster backend needs at least one shard");
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
    /// remote kinds require an integer `shards >= 1`.
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
                if n.fract() != 0.0 || *n < 1.0 || *n > u32::MAX as f64 {
                    return Err(wire_error(format!(
                        "{WHAT}: 'shards' must be an integer >= 1, got {n}"
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
// Process-pool backend: xai-shard-worker OS processes
// ---------------------------------------------------------------------------

/// How the process pool launches and supervises its workers.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Path to the `xai-shard-worker` executable.
    pub worker_exe: PathBuf,
    /// Maximum concurrently running worker processes (a wave).
    pub max_procs: usize,
    /// Wall-clock deadline per wave; a straggler past it is killed and
    /// the run fails with [`XaiError::BudgetExceeded`]. `None` waits
    /// indefinitely for well-behaved workers.
    pub deadline: Option<Duration>,
    /// Extra environment variables for every worker (used by the
    /// fault-injection tests; empty in normal operation).
    pub env: Vec<(String, String)>,
}

impl PoolConfig {
    /// A pool over the given worker executable: workers capped at the
    /// executor's default parallelism, a generous 60 s wave deadline.
    pub fn new(worker_exe: impl Into<PathBuf>) -> Self {
        PoolConfig {
            worker_exe: worker_exe.into(),
            max_procs: xai_rand::parallel::default_workers(),
            deadline: Some(Duration::from_secs(60)),
            env: Vec::new(),
        }
    }
}

/// One supervised worker process and the threads shuttling its pipes.
struct Running {
    child: Child,
    shard: usize,
    status: Option<ExitStatus>,
    writer: Option<std::thread::JoinHandle<()>>,
    reader: Option<std::thread::JoinHandle<std::io::Result<String>>>,
}

impl Running {
    /// Kills the child if still alive and joins the pipe threads. Safe to
    /// call on an already-reaped worker.
    fn abort(&mut self) {
        if self.status.is_none() {
            let _ = self.child.kill();
            self.status = self.child.wait().ok();
        }
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

fn spawn_worker(desc: &ShardDescriptor, pool: &PoolConfig) -> XaiResult<Running> {
    let mut cmd = Command::new(&pool.worker_exe);
    cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::null());
    for (k, v) in &pool.env {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().map_err(|e| {
        XaiError::from_io(&e, format_args!("spawning shard worker '{}'", pool.worker_exe.display()))
    })?;
    let mut stdin = child.stdin.take().expect("stdin was piped");
    let text = desc.to_json_string();
    // Writer thread: a worker that never reads (or dies early) must not
    // deadlock us on a full pipe; EPIPE is simply ignored.
    let writer = std::thread::spawn(move || {
        let _ = stdin.write_all(text.as_bytes());
    });
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        stdout.read_to_string(&mut out).map(|_| out)
    });
    Ok(Running { child, shard: desc.shard, status: None, writer: Some(writer), reader: Some(reader) })
}

/// Waits for every worker in the wave, killing stragglers at the
/// deadline.
fn await_wave(wave: &mut [Running], pool: &PoolConfig, completed_before: usize) -> XaiResult<()> {
    let start = Instant::now();
    loop {
        let mut finished = 0;
        for r in wave.iter_mut() {
            if r.status.is_none() {
                match r.child.try_wait() {
                    Ok(Some(st)) => r.status = Some(st),
                    Ok(None) => continue,
                    Err(e) => {
                        return Err(XaiError::from_io(
                            &e,
                            format_args!("waiting for shard worker {}", r.shard),
                        ))
                    }
                }
            }
            finished += 1;
        }
        if finished == wave.len() {
            return Ok(());
        }
        if let Some(deadline) = pool.deadline {
            if start.elapsed() > deadline {
                return Err(XaiError::BudgetExceeded {
                    context: format!(
                        "shard process pool: wave exceeded the {deadline:?} deadline \
                         ({finished} of {} workers finished)",
                        wave.len()
                    ),
                    completed: completed_before + finished,
                });
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Interprets one finished worker: exit status, stdout bytes, envelope
/// or result.
fn collect_worker(r: &mut Running) -> XaiResult<ShardResult> {
    let status = r.status.expect("worker was awaited");
    let output = match r.reader.take().expect("reader not yet joined").join() {
        Ok(Ok(text)) => text,
        Ok(Err(e)) => {
            return Err(XaiError::from_io(
                &e,
                format_args!("reading shard worker {} stdout", r.shard),
            ))
        }
        Err(_) => {
            return Err(XaiError::io(
                IoKind::Other,
                format!("shard worker {} stdout reader thread panicked", r.shard),
            ))
        }
    };
    if let Some(w) = r.writer.take() {
        let _ = w.join();
    }
    if !status.success() {
        return Err(XaiError::ModelFault {
            context: format!("shard worker for shard {} exited abnormally ({status})", r.shard),
        });
    }
    let json = parse_json(output.trim()).map_err(|_| {
        wire_error(format!(
            "shard worker {} wrote unparseable output ({} bytes)",
            r.shard,
            output.len()
        ))
    })?;
    if is_error_envelope(&json) {
        let err = error_from_json(&json)?;
        // The worker may not know its shard index at panic time; pin it.
        return Err(match err {
            XaiError::WorkerPanic { message, .. } => {
                XaiError::WorkerPanic { task: r.shard, message }
            }
            other => other,
        });
    }
    ShardResult::from_json(&json)
}

/// Executes descriptors in waves of [`PoolConfig::max_procs`] worker
/// processes: descriptor on stdin, result (or envelope) on stdout.
fn run_pool_descriptors(
    descs: &[ShardDescriptor],
    pool: &PoolConfig,
) -> XaiResult<Vec<ShardResult>> {
    assert!(pool.max_procs >= 1, "need at least one worker process");
    let mut results = Vec::with_capacity(descs.len());
    for batch in descs.chunks(pool.max_procs) {
        let mut wave: Vec<Running> = Vec::with_capacity(batch.len());
        let outcome = (|| {
            for desc in batch {
                wave.push(spawn_worker(desc, pool)?);
            }
            await_wave(&mut wave, pool, results.len())?;
            for r in &mut wave {
                results.push(collect_worker(r)?);
            }
            Ok(())
        })();
        if let Err(e) = outcome {
            for r in &mut wave {
                r.abort();
            }
            return Err(e);
        }
    }
    Ok(results)
}

/// OS-process execution on this machine: waves of `xai-shard-worker`
/// processes, each fed one descriptor on stdin. Worker failure modes all
/// surface as typed errors, never a hang: a panicking worker is
/// [`XaiError::WorkerPanic`], garbage output is [`XaiError::Parse`], an
/// abnormal exit is [`XaiError::ModelFault`], and a straggler past
/// [`PoolConfig::deadline`] is killed and reported as
/// [`XaiError::BudgetExceeded`].
pub struct ProcessPoolBackend {
    pool: PoolConfig,
}

impl ProcessPoolBackend {
    /// A backend over the given pool configuration.
    pub fn new(pool: PoolConfig) -> Self {
        ProcessPoolBackend { pool }
    }
}

impl ExecutionBackend for ProcessPoolBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::ProcessPool
    }

    fn execute(&self, job: &BackendJob<'_>) -> XaiResult<BackendOutcome> {
        let model_json = job.require_model_json("process-pool")?;
        let descs = build_descriptors(job.explainer, job.req, model_json, job.n_shards)?;
        let results = run_pool_descriptors(&descs, &self.pool)?;
        merge_shard_results(job.explainer, job.model, job.req, results).map(BackendOutcome::fresh)
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
    pub fn from_config(config: crate::transport::ClusterConfig) -> XaiResult<Self> {
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

    #[test]
    fn backend_choice_wire_round_trips() {
        for choice in [
            BackendChoice::Local,
            BackendChoice::process_pool(4),
            BackendChoice::cluster(2),
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
