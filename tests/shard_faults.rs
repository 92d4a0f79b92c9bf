//! Fault injection for the shard process pool (DESIGN.md §11): worker
//! panics, garbage output, abnormal exits and hangs must each surface
//! as the matching typed `XaiError` — never as a hang or a crash of the
//! coordinating process. Faults are injected through the worker's
//! `XAI_SHARD_FAULT` environment hook, so the real binary and the real
//! wire path are exercised end to end.

use std::time::{Duration, Instant};

use xai::models::Persist;
use xai::prelude::*;

fn fixture() -> (Dataset, LogisticRegression) {
    let data = xai::data::synth::german_credit(12, 41);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    (data, model)
}

fn faulty_pool(mode: &str) -> PoolConfig {
    let mut pool = PoolConfig::new(env!("CARGO_BIN_EXE_xai-shard-worker"));
    pool.env.push(("XAI_SHARD_FAULT".into(), mode.into()));
    pool
}

fn run(pool: &PoolConfig) -> XaiResult<Explanation> {
    let (data, model) = fixture();
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(19).with_workers(2));
    let job = BackendJob::new(&LooMethod, &model, &req, 3).with_model_json(model.save());
    ProcessPoolBackend::new(pool.clone()).execute(&job).map(|outcome| outcome.explanation)
}

#[test]
fn a_panicking_worker_is_a_typed_worker_panic() {
    match run(&faulty_pool("panic")) {
        Err(XaiError::WorkerPanic { task, message }) => {
            assert!(task < 3, "task should be the shard index, got {task}");
            assert!(
                message.contains("injected shard worker fault"),
                "panic payload should survive the wire: {message}"
            );
        }
        other => panic!("expected XaiError::WorkerPanic, got {other:?}"),
    }
}

#[test]
fn garbage_worker_output_is_a_typed_parse_error() {
    match run(&faulty_pool("garbage")) {
        Err(XaiError::Parse { context }) => {
            assert!(
                context.contains("unparseable"),
                "context should say the output was unparseable: {context}"
            );
        }
        other => panic!("expected XaiError::Parse, got {other:?}"),
    }
}

#[test]
fn an_abnormal_worker_exit_is_a_typed_model_fault() {
    match run(&faulty_pool("exit")) {
        Err(XaiError::ModelFault { context }) => {
            assert!(
                context.contains("exited abnormally"),
                "context should carry the exit status: {context}"
            );
        }
        other => panic!("expected XaiError::ModelFault, got {other:?}"),
    }
}

#[test]
fn a_hung_worker_is_killed_at_the_deadline_not_awaited_forever() {
    let mut pool = faulty_pool("hang");
    pool.deadline = Some(Duration::from_millis(300));
    let started = Instant::now();
    match run(&pool) {
        Err(XaiError::BudgetExceeded { context, completed }) => {
            assert!(context.contains("deadline"), "context should name the deadline: {context}");
            assert_eq!(completed, 0, "no hung shard should count as completed");
        }
        other => panic!("expected XaiError::BudgetExceeded, got {other:?}"),
    }
    // The coordinator must abort stragglers promptly rather than wait
    // out the children; well under the test harness timeout.
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "deadline abort took {:?}",
        started.elapsed()
    );
}

#[test]
fn a_missing_worker_binary_is_a_typed_io_error() {
    let pool = PoolConfig::new("/nonexistent/xai-shard-worker");
    assert!(matches!(run(&pool), Err(XaiError::Io { .. })));
}

#[test]
fn a_healthy_pool_still_matches_the_unsharded_run() {
    // Guard: the fault hook must be inert when the variable is unset.
    let (data, model) = fixture();
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(19).with_workers(2));
    let reference = LooMethod.explain(&model, &req).unwrap().to_json_string();
    let pool = PoolConfig::new(env!("CARGO_BIN_EXE_xai-shard-worker"));
    let pooled = run(&pool).unwrap().to_json_string();
    assert_eq!(pooled, reference);
}
