//! Fault injection for the shard process pool (DESIGN.md §11, §14):
//! daemon panics, garbage output, abnormal exits and hangs must each
//! surface as the matching typed `XaiError` — never as a hang or a crash
//! of the coordinating process — and a failed pool must spawn fresh
//! daemons for its next job. Faults are injected through the daemon's
//! `XAI_TRANSPORT_FAULT` environment hook (set via `PoolConfig::env`), so
//! the real binary and the real wire path are exercised end to end. The
//! worker's own decode paths (method by card name, model by kind,
//! fingerprint check) are driven directly through `execute_wire_text`.

use std::time::{Duration, Instant};

use xai::models::Persist;
use xai::prelude::*;
use xai::shard::build_descriptors;

fn fixture() -> (Dataset, LogisticRegression) {
    let data = xai::data::synth::german_credit(12, 41);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    (data, model)
}

fn faulty_pool(mode: &str) -> PoolConfig {
    let mut pool = PoolConfig::new(env!("CARGO_BIN_EXE_xai-shard-worker"));
    pool.env.push(("XAI_TRANSPORT_FAULT".into(), mode.into()));
    pool
}

fn run_on(backend: &ProcessPoolBackend) -> XaiResult<Explanation> {
    let (data, model) = fixture();
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(19).with_workers(2));
    let job = BackendJob::new(&LooMethod, &model, &req, 3).with_model_json(model.save());
    backend.execute(&job).map(|outcome| outcome.explanation)
}

fn run(pool: &PoolConfig) -> XaiResult<Explanation> {
    run_on(&ProcessPoolBackend::new(pool.clone()))
}

fn reference() -> String {
    let (data, model) = fixture();
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(19).with_workers(2));
    LooMethod.explain(&model, &req).unwrap().to_json_string()
}

#[test]
fn a_panicking_worker_is_a_typed_worker_panic() {
    match run(&faulty_pool("panic")) {
        Err(XaiError::WorkerPanic { task, message }) => {
            // Every shard panics; the lowest-indexed failure wins.
            assert_eq!(task, 0, "task should be the shard index");
            assert!(
                message.contains("injected transport fault"),
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
                context.contains("garbage frame"),
                "context should say the output was not a frame: {context}"
            );
        }
        other => panic!("expected XaiError::Parse, got {other:?}"),
    }
}

fn assert_exited_abnormally(outcome: XaiResult<Explanation>) {
    match outcome {
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
fn an_abnormal_worker_exit_is_a_typed_model_fault() {
    assert_exited_abnormally(run(&faulty_pool("kill")));
}

#[test]
fn a_failed_pool_spawns_fresh_daemons_for_the_next_job() {
    // Were the dead daemons kept, the second job would be refused at
    // connect (`Io`) instead of killing a fresh daemon again.
    let backend = ProcessPoolBackend::new(faulty_pool("kill"));
    assert_exited_abnormally(run_on(&backend));
    assert_exited_abnormally(run_on(&backend));
}

#[test]
fn a_hung_worker_is_killed_at_the_deadline_not_awaited_forever() {
    let mut pool = faulty_pool("hang");
    pool.deadline = Duration::from_millis(300);
    let started = Instant::now();
    match run(&pool) {
        Err(XaiError::BudgetExceeded { context, completed }) => {
            assert!(context.contains("deadline"), "context should name the deadline: {context}");
            assert_eq!(completed, 0, "no hung shard should count as completed");
        }
        other => panic!("expected XaiError::BudgetExceeded, got {other:?}"),
    }
    // The coordinator must abort stragglers promptly rather than wait
    // out the daemons; well under the test harness timeout.
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
    let pool = PoolConfig::new(env!("CARGO_BIN_EXE_xai-shard-worker"));
    assert_eq!(run(&pool).unwrap().to_json_string(), reference());
}

#[test]
fn one_pool_serves_repeated_jobs_on_its_daemons() {
    let backend = ProcessPoolBackend::new(PoolConfig::new(env!("CARGO_BIN_EXE_xai-shard-worker")));
    let reference = reference();
    for round in 0..2 {
        assert_eq!(run_on(&backend).unwrap().to_json_string(), reference, "round {round}");
    }
}

/// A valid descriptor edited to each case the worker must refuse before
/// running anything: an unknown method, a catalogued method that cannot
/// shard, an unknown model kind and a model that does not match the
/// fingerprint. Each is a typed `Parse` error.
#[test]
fn the_worker_refuses_undecodable_descriptors_with_typed_parse_errors() {
    let (data, model) = fixture();
    let row = data.row(0).to_vec();
    let req = ExplainRequest::new(&data).instance(&row).plan(RunConfig::seeded(3).with_workers(2));
    let method = KernelShapMethod::default();
    let valid = build_descriptors(&method, &req, model.save(), 1).unwrap().remove(0);
    xai::shard::execute_wire_text(&valid.to_json_string()).expect("the unedited descriptor runs");

    let config = LogisticConfig { l2: 3.0, ..LogisticConfig::default() };
    let other = LogisticRegression::fit(data.x(), data.y(), config);
    // (expected context, edited descriptor)
    let edits: [(&str, ShardDescriptor); 4] = [
        ("unknown method", ShardDescriptor { method: "No such method".into(), ..valid.clone() }),
        ("not shardable", ShardDescriptor { method: "TreeSHAP".into(), ..valid.clone() }),
        (
            "unknown model kind",
            ShardDescriptor {
                model: Json::obj(vec![("kind", Json::str("random_forest"))]),
                ..valid.clone()
            },
        ),
        ("fingerprint mismatch", ShardDescriptor { model: other.save(), ..valid.clone() }),
    ];
    for (expected, desc) in edits {
        match xai::shard::execute_wire_text(&desc.to_json_string()) {
            Err(XaiError::Parse { context }) => assert!(context.contains(expected), "{context}"),
            other => panic!("{expected}: expected a typed Parse error, got {other:?}"),
        }
    }
}
