//! Tracing from outside the program: wrapper objects that delegate every
//! call to the real `Explainer`, `ShardableExplainer`, `ModelOracle` and
//! `ExecutionBackend` and record what crossed each layer boundary.
//!
//! Coarse boundaries (a served request, an explain call, a backend
//! execution, a coordinator-side shard step) become [`Span`]s kept in
//! memory. Model-oracle calls are far too many to keep one by one: they
//! feed counters, and their duration is charged as child time to the span
//! open on the calling thread, so every span knows its self time.

use std::any::Any;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use xai::core::backend::{BackendJob, BackendKind, BackendOutcome, ExecutionBackend};
use xai::core::shard::{DrawGrid, ShardableExplainer};
use xai::core::taxonomy::SharedExplainer;
use xai::core::{ExplainRequest, Explainer, Explanation, Json, MethodCard, ModelOracle, XaiResult};
use xai::linalg::Matrix;

/// One recorded span. `parent` is 0 for a root; `key` is the request key
/// (the plan seed the generator made unique per request).
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time covered by child spans and oracle calls on the same thread.
    pub child_ns: u64,
    pub ok: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn self_ns(&self) -> u64 {
        self.duration_ns().saturating_sub(self.child_ns)
    }
}

/// Oracle-call counters, split by entry point.
#[derive(Default)]
pub struct ModelCounters {
    pub scalar_calls: AtomicU64,
    pub scalar_ns: AtomicU64,
    pub batch_calls: AtomicU64,
    pub batch_rows: AtomicU64,
    pub batch_ns: AtomicU64,
    pub masked_calls: AtomicU64,
    pub masked_rows: AtomicU64,
    pub masked_ns: AtomicU64,
}

/// A point-in-time copy of [`ModelCounters`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ModelTotals {
    pub scalar_calls: u64,
    pub scalar_ns: u64,
    pub batch_calls: u64,
    pub batch_rows: u64,
    pub batch_ns: u64,
    pub masked_calls: u64,
    pub masked_rows: u64,
    pub masked_ns: u64,
}

impl ModelCounters {
    pub fn snapshot(&self) -> ModelTotals {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ModelTotals {
            scalar_calls: get(&self.scalar_calls),
            scalar_ns: get(&self.scalar_ns),
            batch_calls: get(&self.batch_calls),
            batch_rows: get(&self.batch_rows),
            batch_ns: get(&self.batch_ns),
            masked_calls: get(&self.masked_calls),
            masked_rows: get(&self.masked_rows),
            masked_ns: get(&self.masked_ns),
        }
    }
}

impl ModelTotals {
    /// The counts accumulated since `before`.
    pub fn since(&self, before: &ModelTotals) -> ModelTotals {
        ModelTotals {
            scalar_calls: self.scalar_calls - before.scalar_calls,
            scalar_ns: self.scalar_ns - before.scalar_ns,
            batch_calls: self.batch_calls - before.batch_calls,
            batch_rows: self.batch_rows - before.batch_rows,
            batch_ns: self.batch_ns - before.batch_ns,
            masked_calls: self.masked_calls - before.masked_calls,
            masked_rows: self.masked_rows - before.masked_rows,
            masked_ns: self.masked_ns - before.masked_ns,
        }
    }
}

/// The in-memory span store shared by every wrapper of one traced run.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    pub models: ModelCounters,
}

/// An open span on the current thread: its id and the child time
/// accumulated so far.
struct Frame {
    id: u64,
    child_ns: u64,
}

thread_local! {
    static OPEN: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Adds `ns` of child time to the innermost span open on this thread.
fn charge_parent(ns: u64) {
    OPEN.with(|open| {
        if let Some(top) = open.borrow_mut().last_mut() {
            top.child_ns += ns;
        }
    });
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            models: ModelCounters::default(),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `ok` classifies the result.
    pub fn span<T>(
        &self,
        name: &'static str,
        key: u64,
        f: impl FnOnce() -> T,
        ok: impl Fn(&T) -> bool,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().map_or(0, |f| f.id);
            open.push(Frame { id, child_ns: 0 });
            parent
        });
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let frame = OPEN
            .with(|open| open.borrow_mut().pop())
            .expect("span frame pushed above");
        charge_parent(end_ns - start_ns);
        let span = Span {
            id,
            parent,
            name,
            key,
            start_ns,
            end_ns,
            child_ns: frame.child_ns,
            ok: ok(&out),
        };
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .push(span);
        out
    }

    /// Takes every span recorded so far.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span store poisoned by a panicking recorder"),
        )
    }

    /// Times one oracle call and charges it to the open span.
    fn model_call<T>(&self, calls: &AtomicU64, ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let dt = start.elapsed().as_nanos() as u64;
        calls.fetch_add(1, Ordering::Relaxed);
        ns.fetch_add(dt, Ordering::Relaxed);
        charge_parent(dt);
        out
    }
}

/// The short per-method span name for a catalogued card.
pub fn explain_span_name(card: &str) -> &'static str {
    match card {
        "Kernel SHAP" => "explainer.kernel_shap",
        "Permutation sampling Shapley" => "explainer.permutation",
        "LIME" => "explainer.lime",
        "TreeSHAP" => "explainer.treeshap",
        "Partial dependence / ICE" => "explainer.pdp",
        "Leave-one-out" => "explainer.loo",
        "Data Shapley (TMC)" => "explainer.tmc",
        "Data Banzhaf" => "explainer.banzhaf",
        _ => "explainer.other",
    }
}

/// An `Explainer` (and, when the inner one is, a `ShardableExplainer`)
/// that records an `explainer.<method>` span per explain call and
/// `shard.*` spans for the coordinator-side shard steps.
pub struct TracedExplainer {
    inner: SharedExplainer,
    name: &'static str,
    rec: Arc<Recorder>,
}

impl TracedExplainer {
    pub fn wrap(inner: SharedExplainer, rec: &Arc<Recorder>) -> SharedExplainer {
        let name = explain_span_name(inner.card().name);
        Arc::new(TracedExplainer {
            inner,
            name,
            rec: Arc::clone(rec),
        })
    }

    fn shardable(&self) -> &dyn ShardableExplainer {
        self.inner
            .as_shardable()
            .expect("shard calls reach only wrappers of shardable explainers")
    }
}

impl Explainer for TracedExplainer {
    fn card(&self) -> MethodCard {
        self.inner.card()
    }

    fn explain(&self, model: &dyn ModelOracle, req: &ExplainRequest<'_>) -> XaiResult<Explanation> {
        self.rec.span(
            self.name,
            req.plan.seed,
            || self.inner.explain(model, req),
            Result::is_ok,
        )
    }

    fn as_shardable(&self) -> Option<&dyn ShardableExplainer> {
        self.inner
            .as_shardable()
            .map(|_| self as &dyn ShardableExplainer)
    }
}

impl ShardableExplainer for TracedExplainer {
    fn draw_grid(&self, req: &ExplainRequest<'_>) -> XaiResult<DrawGrid> {
        self.rec.span(
            "shard.draw_grid",
            req.plan.seed,
            || self.shardable().draw_grid(req),
            Result::is_ok,
        )
    }

    fn explain_chunks(
        &self,
        model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        chunks: Range<usize>,
    ) -> XaiResult<Json> {
        self.shardable().explain_chunks(model, req, chunks)
    }

    fn merge_chunks(
        &self,
        model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        partials: Vec<Json>,
    ) -> XaiResult<Explanation> {
        self.rec.span(
            "shard.merge",
            req.plan.seed,
            || self.shardable().merge_chunks(model, req, partials),
            Result::is_ok,
        )
    }

    fn config_json(&self) -> Json {
        self.shardable().config_json()
    }
}

/// A `ModelOracle` that counts and times every oracle entry point.
pub struct TracedModel {
    inner: Arc<dyn ModelOracle + Send + Sync>,
    rec: Arc<Recorder>,
}

impl TracedModel {
    pub fn wrap(
        inner: Arc<dyn ModelOracle + Send + Sync>,
        rec: &Arc<Recorder>,
    ) -> Arc<dyn ModelOracle + Send + Sync> {
        Arc::new(TracedModel {
            inner,
            rec: Arc::clone(rec),
        })
    }
}

impl ModelOracle for TracedModel {
    fn n_features(&self) -> usize {
        self.inner.n_features()
    }

    fn predict(&self, x: &[f64]) -> f64 {
        let m = &self.rec.models;
        self.rec
            .model_call(&m.scalar_calls, &m.scalar_ns, || self.inner.predict(x))
    }

    fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        let m = &self.rec.models;
        m.batch_rows
            .fetch_add(rows.rows() as u64, Ordering::Relaxed);
        self.rec.model_call(&m.batch_calls, &m.batch_ns, || {
            self.inner.predict_batch(rows)
        })
    }

    fn predict_masked(
        &self,
        instance: &[f64],
        background: &Matrix,
        masks: &[u64],
        out: &mut Vec<f64>,
    ) {
        let m = &self.rec.models;
        m.masked_rows
            .fetch_add((masks.len() * background.rows()) as u64, Ordering::Relaxed);
        self.rec.model_call(&m.masked_calls, &m.masked_ns, || {
            self.inner.predict_masked(instance, background, masks, out)
        })
    }

    fn gradient(&self, x: &[f64]) -> Option<Vec<f64>> {
        self.inner.gradient(x)
    }

    fn as_any(&self) -> Option<&dyn Any> {
        self.inner.as_any()
    }
}

/// An `ExecutionBackend` that records a `backend.execute` span per job.
pub struct TracedBackend {
    inner: Arc<dyn ExecutionBackend>,
    rec: Arc<Recorder>,
}

impl TracedBackend {
    pub fn wrap(
        inner: Arc<dyn ExecutionBackend>,
        rec: &Arc<Recorder>,
    ) -> Arc<dyn ExecutionBackend> {
        Arc::new(TracedBackend {
            inner,
            rec: Arc::clone(rec),
        })
    }
}

impl ExecutionBackend for TracedBackend {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn execute(&self, job: &BackendJob<'_>) -> XaiResult<BackendOutcome> {
        self.rec.span(
            "backend.execute",
            job.req.plan.seed,
            || self.inner.execute(job),
            Result::is_ok,
        )
    }
}

/// Links every root span recorded on a service thread (an explain call or
/// a backend execution) to the client's `serve.submit` span with the same
/// request key whose interval contains it.
pub fn link_roots(spans: &mut [Span]) {
    let mut submits: std::collections::HashMap<u64, Vec<(u64, u64, u64)>> = Default::default();
    for s in spans.iter().filter(|s| s.name == "serve.submit") {
        submits
            .entry(s.key)
            .or_default()
            .push((s.start_ns, s.end_ns, s.id));
    }
    for s in spans
        .iter_mut()
        .filter(|s| s.parent == 0 && s.name != "serve.submit")
    {
        if let Some(candidates) = submits.get(&s.key) {
            if let Some(&(_, _, id)) = candidates
                .iter()
                .find(|(start, end, _)| *start <= s.start_ns && s.end_ns <= *end)
            {
                s.parent = id;
            }
        }
    }
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"key\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"ok\":{}}}",
            s.id,
            s.parent,
            s.name,
            s.key,
            s.start_ns,
            s.end_ns,
            s.self_ns(),
            s.ok
        )?;
    }
    out.flush()
}

/// The shard daemon of a traced `cluster` run. It serves connections
/// like `xai::transport::run_daemon` (announce `listening on {addr}`,
/// one persistent framed session per connection), but times every
/// `execute_wire_text` call: descriptor parse, model rebuild and
/// fingerprint check, and the shard's chunk range. That is the remote
/// side of a shard, which the coordinator cannot see. Each line `dump`
/// on stdin answers one stdout line with the times recorded since the
/// last dump, in ns, separated by spaces; end of stdin exits.
pub fn run_timed_daemon(addr: &str) -> i32 {
    use std::io::{BufRead, Write};
    let listener = match std::net::TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("servebench: cannot listen on {addr}: {e}");
            return 2;
        }
    };
    match listener.local_addr() {
        Ok(local) => println!("listening on {local}"),
        Err(e) => {
            eprintln!("servebench: no local address: {e}");
            return 2;
        }
    }
    let _ = std::io::stdout().flush();
    let times: Arc<Mutex<Vec<u64>>> = Arc::default();
    let log = Arc::clone(&times);
    std::thread::spawn(move || {
        for line in std::io::stdin().lock().lines() {
            let Ok(line) = line else { break };
            if line.trim() == "dump" {
                let taken = std::mem::take(&mut *log.lock().expect("daemon log"));
                let text: Vec<String> = taken.iter().map(u64::to_string).collect();
                println!("{}", text.join(" "));
                let _ = std::io::stdout().flush();
            }
        }
        std::process::exit(0);
    });
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let times = Arc::clone(&times);
        std::thread::spawn(move || {
            let execute = |text: &str| {
                let start = Instant::now();
                let result = xai::shard::execute_wire_text(text);
                let ns = start.elapsed().as_nanos() as u64;
                times.lock().expect("daemon log").push(ns);
                result
            };
            let timeout = std::time::Duration::from_secs(600);
            if let Err(e) = xai::transport::serve_connection(&stream, timeout, &execute) {
                eprintln!("servebench: daemon connection failed: {e}");
            }
        });
    }
    0
}
