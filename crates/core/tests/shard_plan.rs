//! Seeded property suite for the shard plan layer (DESIGN.md §11):
//! shard ranges are disjoint and covering, descriptors survive a JSON
//! round trip byte-for-byte, and merging shard results in any arrival
//! order is byte-identical. Runs against a toy `ShardableExplainer`
//! whose chunk payloads are pure functions of `child_seed(seed, chunk)`,
//! so every property is exercised without the cost of a real estimator.

use xai_core::backend::dispatch_local;
use xai_core::shard::{
    build_descriptors, chunks_json, execute_descriptor, flatten_chunks, merge_shard_results,
    num_field, shard_chunk_ranges, DrawGrid, ShardDescriptor, ShardResult, ShardableExplainer,
};
use xai_core::taxonomy::method_card;
use xai_core::{
    DataAttribution, ExplainRequest, Explainer, Explanation, Json, MethodCard, ModelOracle,
    RunConfig, XaiError, XaiResult,
};
use xai_data::synth::german_credit;
use xai_rand::rngs::StdRng;
use xai_rand::{child_seed, Rng, SeedableRng};

/// A deterministic stand-in estimator: chunk `c` contributes the sum of
/// its draws from stream `child_seed(seed, c)`, and the merge folds the
/// per-chunk sums in order. Cheap, seeded, and sensitive to any chunk
/// lost, duplicated or reordered.
struct ToyMethod {
    draws: usize,
}

const CHUNK: usize = 3;

impl Explainer for ToyMethod {
    fn card(&self) -> MethodCard {
        // The card only supplies the descriptor's method name here.
        method_card("Kernel SHAP")
    }

    fn explain(&self, model: &dyn ModelOracle, req: &ExplainRequest<'_>) -> XaiResult<Explanation> {
        let grid = self.draw_grid(req)?;
        let partial = self.explain_chunks(model, req, 0..grid.n_chunks())?;
        self.merge_chunks(model, req, vec![partial])
    }
}

impl ShardableExplainer for ToyMethod {
    fn draw_grid(&self, _req: &ExplainRequest<'_>) -> XaiResult<DrawGrid> {
        Ok(DrawGrid { total_draws: self.draws, chunk_size: CHUNK })
    }

    fn explain_chunks(
        &self,
        _model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        chunks: std::ops::Range<usize>,
    ) -> XaiResult<Json> {
        let grid = self.draw_grid(req)?;
        let mut out = Vec::with_capacity(chunks.len());
        for c in chunks {
            let mut rng = StdRng::seed_from_u64(child_seed(req.plan.seed, c as u64));
            let sum: f64 = grid.chunk_range(c).map(|_| rng.gen::<f64>()).sum();
            out.push(Json::obj(vec![("sum", Json::Num(sum))]));
        }
        Ok(chunks_json(out))
    }

    fn merge_chunks(
        &self,
        _model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        partials: Vec<Json>,
    ) -> XaiResult<Explanation> {
        let grid = self.draw_grid(req)?;
        let flat = flatten_chunks(&partials, "toy merge")?;
        if flat.len() != grid.n_chunks() {
            return Err(XaiError::Parse {
                context: format!("toy merge: {} chunks for {}", flat.len(), grid.n_chunks()),
            });
        }
        let mut total = 0.0;
        for c in &flat {
            total += num_field(c, "sum", "toy merge")?;
        }
        Ok(Explanation::DataValuation(DataAttribution {
            values: vec![total],
            measure: "toy chunk sum".into(),
        }))
    }

    fn config_json(&self) -> Json {
        Json::obj(vec![("draws", Json::Num(self.draws as f64))])
    }
}

struct NullModel;

impl ModelOracle for NullModel {
    fn n_features(&self) -> usize {
        7
    }
    fn predict(&self, _x: &[f64]) -> f64 {
        0.0
    }
}

fn toy_model_json() -> Json {
    Json::obj(vec![("kind", Json::str("toy"))])
}

#[test]
fn shards_are_disjoint_and_cover_the_full_draw_range() {
    let data = german_credit(10, 5);
    for draws in [0usize, 1, 3, 7, 16, 41] {
        let method = ToyMethod { draws };
        let req = ExplainRequest::new(&data).plan(RunConfig::seeded(9));
        let grid = method.draw_grid(&req).unwrap();
        for n_shards in 1..9 {
            let descs =
                build_descriptors(&method, &req, toy_model_json(), n_shards).unwrap();
            assert_eq!(descs.len(), n_shards, "one descriptor per shard");
            // Contiguous tiling of the chunk index space, in shard order.
            let mut next = 0;
            for (s, d) in descs.iter().enumerate() {
                assert_eq!(d.shard, s);
                assert_eq!(d.n_shards, n_shards);
                assert_eq!(d.chunk_start, next, "shards must tile without gaps");
                assert!(d.chunk_end >= d.chunk_start, "ranges must be forward");
                next = d.chunk_end;
            }
            assert_eq!(next, grid.n_chunks(), "shards must cover every chunk");
            // Every descriptor carries the same grid coordinates.
            for d in &descs {
                assert_eq!(d.grid(), grid);
            }
        }
    }
}

#[test]
fn shard_ranges_stay_balanced() {
    for n_chunks in 0..50 {
        for n_shards in 1..12 {
            let bounds = shard_chunk_ranges(n_chunks, n_shards);
            let sizes: Vec<usize> = bounds.iter().map(|(a, b)| b - a).collect();
            let min = sizes.iter().min().unwrap();
            let max = sizes.iter().max().unwrap();
            assert!(max - min <= 1, "unbalanced split {sizes:?}");
            assert_eq!(sizes.iter().sum::<usize>(), n_chunks);
        }
    }
}

#[test]
fn descriptors_are_stable_under_json_round_trip() {
    let data = german_credit(12, 3);
    let row = data.row(0).to_vec();
    let method = ToyMethod { draws: 17 };
    let req = ExplainRequest::new(&data)
        .instance(&row)
        .plan(RunConfig::seeded(42).with_workers(3));
    for d in build_descriptors(&method, &req, toy_model_json(), 4).unwrap() {
        let text = d.to_json_string();
        let parsed = ShardDescriptor::from_json_str(&text).unwrap();
        assert_eq!(parsed, d, "round trip must preserve every field");
        assert_eq!(parsed.to_json_string(), text, "canonical text must be a fixed point");
    }
}

#[test]
fn results_are_stable_under_json_round_trip() {
    let data = german_credit(12, 4);
    let method = ToyMethod { draws: 11 };
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(5));
    for d in build_descriptors(&method, &req, toy_model_json(), 3).unwrap() {
        let result = execute_descriptor(&d, &method, &NullModel).unwrap();
        let text = result.to_json_string();
        let parsed = ShardResult::from_json_str(&text).unwrap();
        assert_eq!(parsed, result);
        assert_eq!(parsed.to_json_string(), text);
    }
}

#[test]
fn merging_in_any_shard_order_is_byte_identical() {
    let data = german_credit(12, 6);
    let method = ToyMethod { draws: 23 };
    let model = NullModel;
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(77).with_workers(2));
    let reference = method.explain(&model, &req).unwrap().to_json_string();

    for n_shards in [1usize, 2, 4, 7] {
        let descs = build_descriptors(&method, &req, toy_model_json(), n_shards).unwrap();
        let results: Vec<ShardResult> =
            descs.iter().map(|d| execute_descriptor(d, &method, &model).unwrap()).collect();
        // Arrival order must not matter: identity, reversed, and every
        // rotation all merge to the same bytes.
        let mut orders: Vec<Vec<ShardResult>> = vec![results.clone()];
        let mut reversed = results.clone();
        reversed.reverse();
        orders.push(reversed);
        for rot in 1..results.len() {
            let mut rotated = results.clone();
            rotated.rotate_left(rot);
            orders.push(rotated);
        }
        for order in orders {
            let merged = merge_shard_results(&method, &model, &req, order).unwrap();
            assert_eq!(
                merged.to_json_string(),
                reference,
                "n_shards={n_shards} diverged from the unsharded run"
            );
        }
    }
}

#[test]
fn in_process_sharding_matches_at_every_shard_count() {
    let data = german_credit(12, 8);
    let method = ToyMethod { draws: 29 };
    let model = NullModel;
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(3).with_workers(2));
    let reference = method.explain(&model, &req).unwrap().to_json_string();
    for n_shards in [1usize, 2, 4, 7, 11, 29] {
        let sharded = dispatch_local(&method, &model, &req, n_shards).unwrap();
        assert_eq!(sharded.to_json_string(), reference, "n_shards={n_shards}");
    }
}

#[test]
fn incomplete_duplicate_and_mixed_result_sets_are_typed_errors() {
    let data = german_credit(12, 9);
    let method = ToyMethod { draws: 12 };
    let model = NullModel;
    let req = ExplainRequest::new(&data).plan(RunConfig::seeded(1));
    let descs = build_descriptors(&method, &req, toy_model_json(), 3).unwrap();
    let results: Vec<ShardResult> =
        descs.iter().map(|d| execute_descriptor(d, &method, &model).unwrap()).collect();

    let missing = results[..2].to_vec();
    assert!(matches!(
        merge_shard_results(&method, &model, &req, missing),
        Err(XaiError::Parse { .. })
    ));

    let mut duplicated = results.clone();
    duplicated[2] = duplicated[0].clone();
    assert!(matches!(
        merge_shard_results(&method, &model, &req, duplicated),
        Err(XaiError::Parse { .. })
    ));

    let mut mixed = results.clone();
    mixed[1].fingerprint = "0000000000000000".into();
    assert!(matches!(
        merge_shard_results(&method, &model, &req, mixed),
        Err(XaiError::Parse { .. })
    ));
}

#[test]
fn requests_with_borrowed_state_cannot_become_descriptors() {
    let data = german_credit(12, 10);
    let background = german_credit(6, 11);
    let method = ToyMethod { draws: 8 };
    let req = ExplainRequest::new(&data)
        .background(background.x())
        .plan(RunConfig::seeded(2));
    assert!(matches!(
        build_descriptors(&method, &req, toy_model_json(), 2),
        Err(XaiError::Unsupported { .. })
    ));
}
