//! Fault injection for the cluster transport (DESIGN.md §13): every
//! failure class a daemon can exhibit — connection refused, process
//! killed mid-stream, hung socket, garbage frames, partial writes,
//! worker panics — must terminate in bounded time with either a
//! successful re-dispatch (bit-identical bytes) or a *typed* `XaiError`
//! that names the failure class. Never a hang, never a wrong byte.
//!
//! Daemon-side faults are injected with `XAI_TRANSPORT_FAULT`
//! (`mode[:N]` faults the first `N` connections, then behaves); refused
//! connections use a loopback port with no listener. Everything is
//! offline and self-contained.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use xai::models::Persist;
use xai::prelude::*;
use xai::transport::DaemonHandle;
use xai_core::IoKind;

fn worker_exe() -> &'static str {
    env!("CARGO_BIN_EXE_xai-shard-worker")
}

/// A loopback address that refuses connections: bind an ephemeral port,
/// then drop the listener.
fn refused_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    listener.local_addr().expect("local addr").to_string()
}

/// A daemon with the given `XAI_TRANSPORT_FAULT` spec ("" for healthy).
fn daemon(fault: &str) -> DaemonHandle {
    let envs: Vec<(&str, &str)> =
        if fault.is_empty() { vec![] } else { vec![("XAI_TRANSPORT_FAULT", fault)] };
    DaemonHandle::spawn(worker_exe(), &envs).expect("spawn daemon")
}

/// A small fixture + request so fault tests spend their time in the
/// transport, not the estimator.
fn fixture() -> (Dataset, LogisticRegression) {
    let data = xai::data::synth::german_credit(12, 5);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    (data, model)
}

/// A config tuned for fast fault detection: short deadlines, quick
/// retries, no fallback unless the test opts in.
fn fast_config(endpoints: Vec<String>) -> ClusterConfig {
    let mut config = ClusterConfig::new(endpoints);
    config.connect_timeout = Duration::from_millis(1500);
    config.io_timeout = Duration::from_millis(1500);
    config.retry = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(100),
        jitter_seed: 0,
    };
    config.fallback = FallbackPolicy::Fail;
    config
}

/// Runs leave-one-out over the cluster and returns (outcome, reference
/// bytes) — LOO is deterministic and cheap, so every fault test can
/// assert exact bytes.
fn run_loo(
    backend: &ClusterBackend,
    data: &Dataset,
    model: &LogisticRegression,
    n_shards: usize,
) -> XaiResult<(String, bool)> {
    let req = ExplainRequest::new(data).plan(RunConfig::seeded(19).with_workers(2));
    let reference = LooMethod.explain(model, &req).unwrap().to_json_string();
    let job = BackendJob::new(&LooMethod, model, &req, n_shards).with_model_json(model.save());
    let outcome = backend.execute(&job)?;
    assert_eq!(
        outcome.explanation.to_json_string(),
        reference,
        "fault recovery changed the bytes"
    );
    Ok((reference, outcome.degraded))
}

#[test]
fn refused_endpoint_reroutes_to_the_survivor() {
    let (data, model) = fixture();
    let live = daemon("");
    let backend =
        ClusterBackend::from_config(fast_config(vec![refused_addr(), live.addr().to_string()]))
            .unwrap();
    let (_bytes, degraded) = run_loo(&backend, &data, &model, 4).expect("survivor must carry");
    assert!(!degraded);
    let stats = backend.runner().stats();
    assert!(stats.transport_failures >= 1, "the refused endpoint was never touched: {stats:?}");
}

#[test]
fn all_refused_is_a_typed_refusal_in_bounded_time() {
    let (data, model) = fixture();
    let backend =
        ClusterBackend::from_config(fast_config(vec![refused_addr(), refused_addr()])).unwrap();
    let started = Instant::now();
    let err = run_loo(&backend, &data, &model, 2).expect_err("nothing was listening");
    assert!(
        matches!(err, XaiError::Io { kind: IoKind::Refused, .. }),
        "wanted a typed refusal, got {err:?}"
    );
    assert!(started.elapsed() < Duration::from_secs(30), "took {:?}", started.elapsed());
}

#[test]
fn all_refused_degrades_to_in_process_with_identical_bytes() {
    let (data, model) = fixture();
    let mut config = fast_config(vec![refused_addr(), refused_addr()]);
    config.fallback = FallbackPolicy::InProcess;
    let backend = ClusterBackend::from_config(config).unwrap();
    // run_loo asserts the bytes against the unsharded reference; the
    // fallback must be marked.
    let (_bytes, degraded) = run_loo(&backend, &data, &model, 4).expect("fallback must carry");
    assert!(degraded, "in-process fallback must set the degraded marker");
}

#[test]
fn killed_daemon_reroutes_to_the_survivor() {
    let (data, model) = fixture();
    let doomed = daemon("kill");
    let live = daemon("");
    let backend = ClusterBackend::from_config(fast_config(vec![
        doomed.addr().to_string(),
        live.addr().to_string(),
    ]))
    .unwrap();
    let (_bytes, degraded) = run_loo(&backend, &data, &model, 4).expect("survivor must carry");
    assert!(!degraded);
    assert!(backend.runner().stats().transport_failures >= 1);
}

#[test]
fn hung_daemon_times_out_and_redispatches() {
    let (data, model) = fixture();
    let stuck = daemon("hang");
    let live = daemon("");
    let backend = ClusterBackend::from_config(fast_config(vec![
        stuck.addr().to_string(),
        live.addr().to_string(),
    ]))
    .unwrap();
    let started = Instant::now();
    let (_bytes, degraded) = run_loo(&backend, &data, &model, 2).expect("survivor must carry");
    assert!(!degraded);
    assert!(backend.runner().stats().transport_failures >= 1, "the hang was never noticed");
    assert!(started.elapsed() < Duration::from_secs(30), "took {:?}", started.elapsed());
}

#[test]
fn all_hung_is_a_typed_deadline_in_bounded_time() {
    let (data, model) = fixture();
    let a = daemon("hang");
    let b = daemon("hang");
    let mut config = fast_config(vec![a.addr().to_string(), b.addr().to_string()]);
    config.retry.max_attempts = 2;
    let backend = ClusterBackend::from_config(config).unwrap();
    let started = Instant::now();
    let err = run_loo(&backend, &data, &model, 2).expect_err("every worker hung");
    assert!(
        matches!(err, XaiError::BudgetExceeded { .. }),
        "a blown response deadline must be BudgetExceeded, got {err:?}"
    );
    assert!(started.elapsed() < Duration::from_secs(60), "took {:?}", started.elapsed());
}

#[test]
fn one_garbage_frame_is_retried_to_success() {
    let (data, model) = fixture();
    let flaky = daemon("garbage:1");
    let backend =
        ClusterBackend::from_config(fast_config(vec![flaky.addr().to_string()])).unwrap();
    let (_bytes, degraded) = run_loo(&backend, &data, &model, 2).expect("retry must succeed");
    assert!(!degraded);
    let stats = backend.runner().stats();
    assert!(stats.retries >= 1, "the garbage frame was never retried: {stats:?}");
    assert!(stats.transport_failures >= 1);
}

#[test]
fn persistent_garbage_is_a_typed_parse_error() {
    let (data, model) = fixture();
    let liar = daemon("garbage");
    let backend =
        ClusterBackend::from_config(fast_config(vec![liar.addr().to_string()])).unwrap();
    let err = run_loo(&backend, &data, &model, 2).expect_err("the daemon only lies");
    assert!(
        matches!(err, XaiError::Parse { .. }),
        "garbage frames must be Parse errors, got {err:?}"
    );
}

#[test]
fn one_partial_write_is_retried_to_success() {
    let (data, model) = fixture();
    let flaky = daemon("partial:1");
    let backend =
        ClusterBackend::from_config(fast_config(vec![flaky.addr().to_string()])).unwrap();
    let (_bytes, degraded) = run_loo(&backend, &data, &model, 2).expect("retry must succeed");
    assert!(!degraded);
    assert!(backend.runner().stats().transport_failures >= 1);
}

#[test]
fn persistent_partial_writes_are_short_reads() {
    let (data, model) = fixture();
    let truncator = daemon("partial");
    let backend =
        ClusterBackend::from_config(fast_config(vec![truncator.addr().to_string()])).unwrap();
    let err = run_loo(&backend, &data, &model, 2).expect_err("every frame is truncated");
    assert!(
        matches!(
            err,
            XaiError::Io { kind: IoKind::ShortRead, .. }
                | XaiError::Io { kind: IoKind::Reset, .. }
        ),
        "a truncated frame must be a short read (or reset at the cut), got {err:?}"
    );
}

#[test]
fn breaker_trips_open_and_shortcircuits_dead_endpoints() {
    let (data, model) = fixture();
    let mut config = fast_config(vec![refused_addr()]);
    config.breaker_threshold = 2;
    config.breaker_cooldown = Duration::from_secs(300); // no half-open during the test
    config.retry.max_attempts = 5;
    let backend = ClusterBackend::from_config(config).unwrap();
    let err = run_loo(&backend, &data, &model, 3).expect_err("nothing was listening");
    assert!(matches!(err, XaiError::Io { .. }), "{err:?}");
    let health = backend.runner().health();
    assert_eq!(health[0].state, xai::transport::BreakerState::Open, "{health:?}");
    assert!(health[0].trips >= 1);
    // Once open, attempts are short-circuited before touching the socket:
    // far fewer real failures than shards × attempts.
    assert!(
        health[0].failures < 3 * 5,
        "breaker did not short-circuit: {} socket-level failures",
        health[0].failures
    );
}

#[test]
fn hedging_rescues_a_straggler() {
    let (data, model) = fixture();
    let stuck = daemon("hang");
    let live = daemon("");
    let mut config =
        ClusterConfig::new([stuck.addr().to_string(), live.addr().to_string()]);
    config.connect_timeout = Duration::from_secs(2);
    config.io_timeout = Duration::from_secs(30);
    config.retry.max_attempts = 1; // the hedge, not a retry, must save the run
    config.hedge_after = Some(Duration::from_millis(300));
    config.fallback = FallbackPolicy::Fail;
    let backend = ClusterBackend::from_config(config).unwrap();
    // One shard: its primary is the hung endpoint, the hedge goes to the
    // healthy one.
    let started = Instant::now();
    let (_bytes, degraded) = run_loo(&backend, &data, &model, 1).expect("the hedge must win");
    assert!(!degraded);
    let stats = backend.runner().stats();
    assert!(stats.hedges >= 1, "no hedge was launched: {stats:?}");
    assert!(stats.hedge_wins >= 1, "the hedge never won: {stats:?}");
    assert_eq!(stats.retries, 0, "hedging must not consume retry budget: {stats:?}");
    assert!(started.elapsed() < Duration::from_secs(20), "took {:?}", started.elapsed());
}

#[test]
fn worker_panic_is_typed_never_retried_and_never_fallen_back() {
    let (data, model) = fixture();
    let poisoned = daemon("panic");
    let mut config = fast_config(vec![poisoned.addr().to_string()]);
    // Even a permissive fallback policy must NOT mask an execution
    // error: the panic is a property of the shard, not the transport.
    config.fallback = FallbackPolicy::InProcess;
    let backend = ClusterBackend::from_config(config).unwrap();
    let err = run_loo(&backend, &data, &model, 2).expect_err("the worker panics");
    match err {
        XaiError::WorkerPanic { task, message } => {
            assert_eq!(task, 0, "the lowest-indexed failing shard must win");
            assert!(message.contains("injected"), "panic message lost: {message}");
        }
        other => panic!("a worker panic must stay WorkerPanic, got {other:?}"),
    }
    let stats = backend.runner().stats();
    assert_eq!(stats.retries, 0, "execution errors must not be retried: {stats:?}");
}
