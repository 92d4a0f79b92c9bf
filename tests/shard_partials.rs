//! The partial formats of Kernel SHAP and LIME (DESIGN.md §11): a shard
//! ships only what the model computed — one value per coalition, one
//! target per probe — and the merge redraws the seeded draws. Each chunk
//! therefore holds exactly as many numbers as its draw range, and a merge
//! fed a chunk of the wrong length, or a non-number, refuses it as a
//! typed `Parse` error instead of fitting on it.

use xai::core::shard::{chunks_json, shard_chunk_ranges};
use xai::prelude::*;

fn fixture() -> (Dataset, LogisticRegression) {
    let data = xai::data::synth::german_credit(60, 7);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    (data, model)
}

/// Kernel SHAP in exact mode (its 2^9 - 2 = 510 coalitions fit the default budget),
/// Kernel SHAP in sampled mode, and LIME.
fn methods() -> Vec<(&'static str, Box<dyn ShardableExplainer>)> {
    vec![
        ("kernel SHAP (exact)", Box::new(KernelShapMethod::default())),
        (
            "kernel SHAP (sampled)",
            Box::new(KernelShapMethod {
                config: KernelShapConfig {
                    max_coalitions: 100,
                    ..KernelShapConfig::default()
                },
            }),
        ),
        (
            "LIME",
            Box::new(LimeMethod {
                config: LimeConfig {
                    n_samples: 100,
                    ..LimeConfig::default()
                },
            }),
        ),
    ]
}

/// The chunk payloads of one partial.
fn chunks(partial: &Json) -> Vec<Json> {
    partial
        .get("chunks")
        .and_then(Json::as_arr)
        .expect("partial carries chunks")
        .to_vec()
}

#[test]
fn every_chunk_carries_one_number_per_draw() {
    let (data, model) = fixture();
    let row = data.row(0).to_vec();
    let req = ExplainRequest::new(&data)
        .instance(&row)
        .plan(RunConfig::seeded(5).with_workers(2));
    for (label, method) in methods() {
        let grid = method.draw_grid(&req).unwrap();
        assert!(
            grid.n_chunks() >= 2,
            "{label}: the fixture needs a multi-chunk grid"
        );
        let mut partials = Vec::new();
        for (start, end) in shard_chunk_ranges(grid.n_chunks(), 2) {
            let partial = method.explain_chunks(&model, &req, start..end).unwrap();
            let payloads = chunks(&partial);
            assert_eq!(
                payloads.len(),
                end - start,
                "{label}: chunk count of shard {start}..{end}"
            );
            for (i, chunk) in payloads.iter().enumerate() {
                let c = start + i;
                let values = chunk
                    .as_arr()
                    .unwrap_or_else(|| panic!("{label}: chunk {c}"));
                assert_eq!(
                    values.len(),
                    grid.chunk_range(c).len(),
                    "{label}: chunk {c} length"
                );
                assert!(
                    values.iter().all(|v| v.as_num().is_some()),
                    "{label}: chunk {c}"
                );
            }
            partials.push(partial);
        }
        // The numbers alone reproduce the unsharded explanation.
        let merged = method.merge_chunks(&model, &req, partials).unwrap();
        let reference = method.explain(&model, &req).unwrap();
        assert_eq!(
            merged.to_json_string(),
            reference.to_json_string(),
            "{label}"
        );
    }
}

#[test]
fn merges_refuse_short_long_and_non_numeric_chunks() {
    let (data, model) = fixture();
    let row = data.row(1).to_vec();
    let req = ExplainRequest::new(&data)
        .instance(&row)
        .plan(RunConfig::seeded(8).with_workers(2));
    type Tamper = fn(&mut Vec<Json>);
    let tampers: [(&str, Tamper); 4] = [
        ("one number short", |v| {
            v.pop();
        }),
        ("one number long", |v| v.push(Json::Num(0.5))),
        ("a string for a number", |v| v[0] = Json::str("0.5")),
        ("a nested array for a number", |v| {
            v[1] = Json::nums(&[0.0, 1.0])
        }),
    ];
    for (label, method) in methods() {
        let grid = method.draw_grid(&req).unwrap();
        let full = method
            .explain_chunks(&model, &req, 0..grid.n_chunks())
            .unwrap();
        for (what, tamper) in tampers {
            // Tamper with the first chunk and with the ragged last one.
            for c in [0, grid.n_chunks() - 1] {
                let mut payloads = chunks(&full);
                let Json::Arr(values) = &mut payloads[c] else {
                    panic!("{label}: chunk {c} is not an array");
                };
                tamper(values);
                let outcome = method.merge_chunks(&model, &req, vec![chunks_json(payloads)]);
                let named = format!("chunk {c}");
                assert!(
                    matches!(&outcome, Err(XaiError::Parse { context }) if context.contains(&named)),
                    "{label}, {what} in chunk {c}: {outcome:?}"
                );
            }
        }
        // A missing chunk is refused too.
        let mut payloads = chunks(&full);
        payloads.pop();
        let outcome = method.merge_chunks(&model, &req, vec![chunks_json(payloads)]);
        assert!(
            matches!(outcome, Err(XaiError::Parse { .. })),
            "{label}: {outcome:?}"
        );
    }
}
