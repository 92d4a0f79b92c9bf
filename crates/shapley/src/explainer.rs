//! Unified-layer `Explainer` impls for the Shapley family (DESIGN.md §9):
//! exact enumeration, permutation sampling, Kernel SHAP and TreeSHAP, all
//! driven through `xai_core::Explainer::explain` with one `RunConfig`.
//!
//! Dispatch contract (pinned by `tests/explain_golden.rs`): `workers == 1`
//! runs the estimator's one-stream sequential layout; `workers > 1` runs
//! its chunk grid on the executor through
//! [`xai_core::backend::dispatch_local`] — the same `explain_chunks` →
//! `merge_chunks` code the process pool and the cluster run. Both layouts
//! evaluate one coalition game, picked from the input's arity by
//! `with_game`; `RunConfig::batched` selects nothing. A `SampleBudget`
//! is honoured by permutation sampling and by Kernel SHAP on the
//! sequential layout (budgeted Kernel SHAP at eval cap `k` equals an
//! unbudgeted run with `max_coalitions = k` bit for bit); deterministic
//! enumerators (exact Shapley, TreeSHAP) and budget + `workers > 1`
//! combinations report [`XaiError::Unsupported`] rather than silently
//! ignoring the cap.

use xai_core::shard::{
    chunks_json, flatten_chunks, index_field, num_field, nums_field, reject_budget, shard_nums,
    wire_error, DrawGrid, ShardableExplainer,
};
use xai_core::backend::dispatch_local;
use xai_core::taxonomy::method_card;
use xai_core::{
    catch_model, validate, DegradationPolicy, ExplainRequest, Explainer, Explanation,
    FeatureAttribution, Json, MethodCard, ModelOracle, XaiError, XaiResult,
};
use xai_linalg::Matrix;
use xai_models::{DecisionTree, Gbdt, RandomForest};
use xai_rand::child_seed;
use xai_rand::rngs::StdRng;
use xai_rand::SeedableRng;

use crate::batch::{BatchGame, BatchPredictionGame};
use crate::exact::{exact_shapley, MAX_EXACT_PLAYERS};
use crate::game::PredictionGame;
use crate::kernel::{self, KernelShapConfig};
use crate::masked::{MaskedPredictionGame, MemoGame, MAX_MASKED_PLAYERS};
use crate::sampling;
use crate::tree::{forest_shap, gbdt_shap, tree_expected_value, tree_shap};

/// Feature names from the request schema when the arity matches, else
/// positional `x{j}` names (the request's dataset may describe a
/// different space than a caller-supplied background).
fn names_for(req: &ExplainRequest<'_>, n: usize) -> Vec<String> {
    let names = req.feature_names();
    if names.len() == n {
        names
    } else {
        (0..n).map(|j| format!("x{j}")).collect()
    }
}

/// Baseline (mean background prediction) and instance prediction under
/// panic isolation, with model-fault checks on both.
fn endpoints(
    model: &dyn ModelOracle,
    instance: &[f64],
    background: &Matrix,
) -> XaiResult<(f64, f64)> {
    let (base, pred) = catch_model("Shapley endpoint evaluation", || {
        let preds = model.predict_batch(background);
        let base = preds.iter().sum::<f64>() / preds.len().max(1) as f64;
        (base, model.predict(instance))
    })?;
    if !base.is_finite() || !pred.is_finite() {
        return Err(XaiError::ModelFault {
            context: format!("Shapley endpoints evaluated to base {base}, prediction {pred}"),
        });
    }
    Ok((base, pred))
}

/// Runs `f` over the one coalition game every estimator here evaluates:
/// the zero-copy [`MaskedPredictionGame`] whenever the arity fits the
/// `u64` coalition bitmask (wrapped in a [`MemoGame`] when the request
/// carries a shared memo handle), and the materializing
/// [`BatchPredictionGame`] above [`MAX_MASKED_PLAYERS`] features, where no
/// bitmask exists. Both games equal the scalar [`PredictionGame`] bit for
/// bit at every seed and worker count — see `crates/shapley/src/batch.rs`
/// docs.
fn with_game<R>(
    model: &dyn ModelOracle,
    instance: &[f64],
    background: &Matrix,
    req: &ExplainRequest<'_>,
    f: impl FnOnce(&(dyn BatchGame + Sync)) -> R,
) -> R {
    if instance.len() <= MAX_MASKED_PLAYERS {
        let game = MaskedPredictionGame::new(model, instance, background);
        match req.memo {
            Some(h) => {
                let key = xai_core::GameKey::derive(h.model_fingerprint, background, instance);
                f(&MemoGame::new(&game, h.memo, key))
            }
            None => f(&game),
        }
    } else {
        let fb = |m: &Matrix| model.predict_batch(m);
        let game = BatchPredictionGame::new(&fb, instance, background);
        f(&game)
    }
}

/// Rejects a budget on a plan whose layout does not meter one: budgets
/// run on the sequential layout only.
fn reject_unmetered_budget(method: &str, req: &ExplainRequest<'_>) -> XaiResult<()> {
    if req.plan.budgeted() && req.plan.parallel() {
        return Err(XaiError::Unsupported {
            context: format!("budgeted {method} is sequential; set workers = 1"),
        });
    }
    Ok(())
}

/// Exact Shapley values by coalition enumeration (§2.1.2) through the
/// unified layer. Enumeration is deterministic, so `seed`, `workers` and
/// `batched` do not change the result.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactShapleyMethod;

impl Explainer for ExactShapleyMethod {
    fn card(&self) -> MethodCard {
        method_card("Exact Shapley")
    }

    fn explain(&self, model: &dyn ModelOracle, req: &ExplainRequest<'_>) -> XaiResult<Explanation> {
        reject_budget("exact Shapley", req)?;
        let instance = req.need_instance("exact Shapley")?;
        let background = req.background_or_data();
        validate::background("exact Shapley", instance, background)?;
        let n = instance.len();
        if n > MAX_EXACT_PLAYERS {
            return Err(XaiError::Unsupported {
                context: format!(
                    "exact Shapley enumerates 2^n coalitions; {n} features exceeds the cap of {MAX_EXACT_PLAYERS}"
                ),
            });
        }
        let f = |x: &[f64]| model.predict(x);
        let game = PredictionGame::new(&f, instance, background);
        let phi = catch_model("exact Shapley enumeration", || exact_shapley(&game))?;
        validate::finite_slice("exact Shapley attribution", &phi).map_err(|_| {
            XaiError::ModelFault { context: "exact Shapley produced non-finite values".into() }
        })?;
        let (base, pred) = endpoints(model, instance, background)?;
        Ok(Explanation::Attribution(FeatureAttribution::new(
            names_for(req, n),
            phi,
            base,
            pred,
        )))
    }
}

/// Permutation-sampling Monte-Carlo Shapley (§2.1.2) through the unified
/// layer; honours `RunConfig::budget` on the sequential layout.
#[derive(Clone, Copy, Debug)]
pub struct PermutationShapleyMethod {
    /// Permutation walks to draw.
    pub permutations: usize,
}

impl Default for PermutationShapleyMethod {
    fn default() -> Self {
        Self { permutations: 200 }
    }
}

impl Explainer for PermutationShapleyMethod {
    fn card(&self) -> MethodCard {
        method_card("Permutation sampling Shapley")
    }

    fn explain(&self, model: &dyn ModelOracle, req: &ExplainRequest<'_>) -> XaiResult<Explanation> {
        let instance = req.need_instance("permutation Shapley")?;
        let background = req.background_or_data();
        validate::background("permutation Shapley", instance, background)?;
        reject_unmetered_budget("permutation Shapley", req)?;
        if req.plan.parallel() {
            return dispatch_local(self, model, req, req.plan.workers);
        }
        let plan = req.plan;
        let sampled = with_game(model, instance, background, req, |game| {
            let perms = self.permutations;
            sampling::try_permutation_shapley_budgeted(game, perms, plan.seed, plan.budget)
        })?;
        let (base, pred) = endpoints(model, instance, background)?;
        Ok(Explanation::Attribution(FeatureAttribution::new(
            names_for(req, sampled.phi.len()),
            sampled.phi,
            base,
            pred,
        )))
    }

    fn as_shardable(&self) -> Option<&dyn ShardableExplainer> {
        Some(self)
    }
}

impl ShardableExplainer for PermutationShapleyMethod {
    fn draw_grid(&self, req: &ExplainRequest<'_>) -> XaiResult<DrawGrid> {
        if req.plan.budgeted() {
            return Err(XaiError::Unsupported {
                context: "budgeted permutation Shapley is sequential; \
                          the chunk grid covers unbudgeted plans only"
                    .into(),
            });
        }
        req.need_instance("permutation Shapley")?;
        sampling::check_permutations(self.permutations)?;
        Ok(DrawGrid { total_draws: self.permutations, chunk_size: sampling::PERMS_PER_CHUNK })
    }

    fn explain_chunks(
        &self,
        model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        chunks: std::ops::Range<usize>,
    ) -> XaiResult<Json> {
        let instance = req.need_instance("permutation Shapley")?;
        let background = req.background_or_data();
        validate::background("permutation Shapley", instance, background)?;
        let grid = self.draw_grid(req)?;
        with_game(model, instance, background, req, |game| {
            let mut out = Vec::with_capacity(chunks.len());
            let mut coalitions = Vec::new();
            for c in chunks {
                let mut rng = StdRng::seed_from_u64(child_seed(req.plan.seed, c as u64));
                let count = grid.chunk_range(c).len();
                let (sum, sum_sq) = sampling::chunk_sums(game, count, &mut rng, &mut coalitions);
                out.push(Json::obj(vec![
                    ("sum", shard_nums("permutation Shapley chunk sums", &sum)?),
                    ("sum_sq", shard_nums("permutation Shapley chunk sums", &sum_sq)?),
                ]));
            }
            Ok(chunks_json(out))
        })
    }

    fn merge_chunks(
        &self,
        model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        partials: Vec<Json>,
    ) -> XaiResult<Explanation> {
        const WHAT: &str = "permutation Shapley merge";
        let instance = req.need_instance("permutation Shapley")?;
        let background = req.background_or_data();
        validate::background("permutation Shapley", instance, background)?;
        let grid = self.draw_grid(req)?;
        let flat = flatten_chunks(&partials, WHAT)?;
        if flat.len() != grid.n_chunks() {
            return Err(wire_error(format!(
                "{WHAT}: got {} chunk partials for a {}-chunk grid",
                flat.len(),
                grid.n_chunks()
            )));
        }
        let chunk_sums = flat
            .iter()
            .map(|c| {
                Ok((nums_field(c, "sum", WHAT)?, nums_field(c, "sum_sq", WHAT)?))
            })
            .collect::<XaiResult<Vec<_>>>()?;
        let sampled = sampling::merge_chunk_sums(chunk_sums, self.permutations)?;
        let (base, pred) = endpoints(model, instance, background)?;
        Ok(Explanation::Attribution(FeatureAttribution::new(
            names_for(req, sampled.phi.len()),
            sampled.phi,
            base,
            pred,
        )))
    }

    fn config_json(&self) -> Json {
        Json::obj(vec![("permutations", Json::Num(self.permutations as f64))])
    }

    fn rebuild_from_config(&self, config: &Json) -> XaiResult<Box<dyn ShardableExplainer>> {
        let permutations = index_field(config, "permutations", "permutation Shapley config")?;
        if permutations == 0 {
            return Err(wire_error("permutation Shapley config: permutations must be >= 1"));
        }
        Ok(Box::new(Self { permutations }))
    }
}

/// Kernel SHAP weighted regression (§2.1.2) through the unified layer.
/// `RunConfig::degradation == Strict` refuses ridge-escalated solves that
/// the legacy path returned with a `degraded` flag.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelShapMethod {
    /// Coalition budget / ridge / seed defaults; `RunConfig::seed`
    /// overrides the seed at explain time.
    pub config: KernelShapConfig,
}

impl Explainer for KernelShapMethod {
    fn card(&self) -> MethodCard {
        method_card("Kernel SHAP")
    }

    fn explain(&self, model: &dyn ModelOracle, req: &ExplainRequest<'_>) -> XaiResult<Explanation> {
        let instance = req.need_instance("Kernel SHAP")?;
        let background = req.background_or_data();
        validate::background("kernel SHAP", instance, background)?;
        reject_unmetered_budget("Kernel SHAP", req)?;
        if req.plan.parallel() {
            return dispatch_local(self, model, req, req.plan.workers);
        }
        let config = KernelShapConfig { seed: req.plan.seed, ..self.config };
        let ks = with_game(model, instance, background, req, |game| {
            kernel::try_kernel_shap_budgeted(game, config, req.plan.budget)
        })?;
        if ks.degraded && req.plan.degradation == DegradationPolicy::Strict {
            return Err(XaiError::SingularSystem {
                context: "kernel SHAP solve needed ridge escalation; \
                          strict degradation policy refuses the estimate"
                    .into(),
            });
        }
        let pred = catch_model("kernel SHAP instance prediction", || model.predict(instance))?;
        Ok(Explanation::Attribution(FeatureAttribution::new(
            names_for(req, ks.phi.len()),
            ks.phi,
            ks.base_value,
            pred,
        )))
    }

    fn as_shardable(&self) -> Option<&dyn ShardableExplainer> {
        Some(self)
    }
}

impl KernelShapMethod {
    /// Parses one serialized coalition triple `[[0/1...], weight, value]`.
    fn parse_triple(t: &Json, i: usize) -> XaiResult<(Vec<bool>, f64, f64)> {
        let parts = t
            .as_arr()
            .filter(|a| a.len() == 3)
            .ok_or_else(|| wire_error(format!("Kernel SHAP merge: triple {i} malformed")))?;
        let mask = parts[0]
            .as_arr()
            .ok_or_else(|| wire_error(format!("Kernel SHAP merge: triple {i} mask malformed")))?
            .iter()
            .map(|b| match b.as_num() {
                Some(v) if v == 0.0 => Ok(false),
                Some(v) if v == 1.0 => Ok(true),
                _ => Err(wire_error(format!("Kernel SHAP merge: triple {i} mask bit invalid"))),
            })
            .collect::<XaiResult<Vec<bool>>>()?;
        let w = parts[1]
            .as_num()
            .ok_or_else(|| wire_error(format!("Kernel SHAP merge: triple {i} weight invalid")))?;
        let v = parts[2]
            .as_num()
            .ok_or_else(|| wire_error(format!("Kernel SHAP merge: triple {i} value invalid")))?;
        Ok((mask, w, v))
    }
}

impl ShardableExplainer for KernelShapMethod {
    fn draw_grid(&self, req: &ExplainRequest<'_>) -> XaiResult<DrawGrid> {
        let instance = req.need_instance("Kernel SHAP")?;
        kernel::check_config(&self.config)?;
        let n = instance.len();
        let plan = &req.plan;
        if plan.budget.max_duration.is_some() {
            return Err(XaiError::Unsupported {
                context: "sharded Kernel SHAP honours eval-cap budgets only; \
                          wall-clock deadlines cannot partition deterministically"
                    .into(),
            });
        }
        let exact = kernel::exact_mode(n, self.config.max_coalitions);
        let planned = if exact { (1usize << n) - 2 } else { self.config.max_coalitions };
        let total = match plan.budget.max_evals {
            None => planned,
            Some(_) if exact => {
                return Err(XaiError::Unsupported {
                    context: "budgeted sharding of the exact Kernel SHAP enumeration is not \
                              supported; lower max_coalitions to force sampling mode"
                        .into(),
                })
            }
            Some(0) => {
                return Err(XaiError::BudgetExceeded {
                    context: "kernel SHAP: budget expired before the first coalition evaluation"
                        .into(),
                    completed: 0,
                })
            }
            Some(k) => planned.min(k),
        };
        Ok(DrawGrid { total_draws: total, chunk_size: kernel::COALITIONS_PER_CHUNK })
    }

    fn explain_chunks(
        &self,
        model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        chunks: std::ops::Range<usize>,
    ) -> XaiResult<Json> {
        let instance = req.need_instance("Kernel SHAP")?;
        let background = req.background_or_data();
        validate::background("kernel SHAP", instance, background)?;
        let grid = self.draw_grid(req)?;
        let config = KernelShapConfig { seed: req.plan.seed, ..self.config };
        with_game(model, instance, background, req, |game| {
            let mut out = Vec::with_capacity(chunks.len());
            for c in chunks {
                let triples = kernel::chunk_triples(game, config, c, grid.chunk_range(c));
                let mut chunk = Vec::with_capacity(triples.len());
                for (mask, w, v) in triples {
                    if !v.is_finite() {
                        return Err(XaiError::ModelFault {
                            context: format!("coalition evaluation returned {v}"),
                        });
                    }
                    chunk.push(Json::Arr(vec![
                        Json::Arr(
                            mask.iter().map(|&b| Json::Num(if b { 1.0 } else { 0.0 })).collect(),
                        ),
                        Json::Num(w),
                        Json::Num(v),
                    ]));
                }
                out.push(Json::Arr(chunk));
            }
            Ok(chunks_json(out))
        })
    }

    fn merge_chunks(
        &self,
        model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        partials: Vec<Json>,
    ) -> XaiResult<Explanation> {
        const WHAT: &str = "Kernel SHAP merge";
        let instance = req.need_instance("Kernel SHAP")?;
        let background = req.background_or_data();
        validate::background("kernel SHAP", instance, background)?;
        let n = instance.len();
        let (ends, short) = with_game(model, instance, background, req, |game| {
            kernel::endpoints(game)
        })?;
        let ks = if let Some(s) = short {
            s
        } else {
            let grid = self.draw_grid(req)?;
            let flat = flatten_chunks(&partials, WHAT)?;
            if flat.len() != grid.n_chunks() {
                return Err(wire_error(format!(
                    "{WHAT}: got {} chunk partials for a {}-chunk grid",
                    flat.len(),
                    grid.n_chunks()
                )));
            }
            let mut triples = Vec::with_capacity(grid.total_draws);
            for chunk in flat {
                let items = chunk
                    .as_arr()
                    .ok_or_else(|| wire_error(format!("{WHAT}: chunk partial is not an array")))?;
                for (i, t) in items.iter().enumerate() {
                    triples.push(Self::parse_triple(t, i)?);
                }
            }
            let exact = kernel::exact_mode(n, self.config.max_coalitions)
                && req.plan.budget.max_evals.is_none();
            kernel::solve_chunks(n, &ends, vec![triples], self.config.ridge, exact)?
        };
        if ks.degraded && req.plan.degradation == DegradationPolicy::Strict {
            return Err(XaiError::SingularSystem {
                context: "kernel SHAP solve needed ridge escalation; \
                          strict degradation policy refuses the estimate"
                    .into(),
            });
        }
        let pred = catch_model("kernel SHAP instance prediction", || model.predict(instance))?;
        Ok(Explanation::Attribution(FeatureAttribution::new(
            names_for(req, ks.phi.len()),
            ks.phi,
            ks.base_value,
            pred,
        )))
    }

    fn config_json(&self) -> Json {
        Json::obj(vec![
            ("max_coalitions", Json::Num(self.config.max_coalitions as f64)),
            ("ridge", Json::Num(self.config.ridge)),
        ])
    }

    /// The seed is not part of the config — it always comes from the plan.
    fn rebuild_from_config(&self, config: &Json) -> XaiResult<Box<dyn ShardableExplainer>> {
        let max_coalitions = index_field(config, "max_coalitions", "Kernel SHAP config")?;
        if max_coalitions == 0 {
            return Err(wire_error("Kernel SHAP config: max_coalitions must be >= 1"));
        }
        let ridge = num_field(config, "ridge", "Kernel SHAP config")?;
        Ok(Box::new(Self { config: KernelShapConfig { max_coalitions, ridge, seed: 0 } }))
    }
}

/// TreeSHAP (§2.1.2) through the unified layer: downcasts the oracle to a
/// tree-structured model (`Gbdt`, `RandomForest`, `DecisionTree`) and
/// walks its structure. Polynomial and exact, so `seed` / `workers` /
/// `batched` do not change the result; non-tree models report
/// [`XaiError::Unsupported`].
#[derive(Clone, Copy, Debug, Default)]
pub struct TreeShapMethod;

impl Explainer for TreeShapMethod {
    fn card(&self) -> MethodCard {
        method_card("TreeSHAP")
    }

    fn explain(&self, model: &dyn ModelOracle, req: &ExplainRequest<'_>) -> XaiResult<Explanation> {
        reject_budget("TreeSHAP", req)?;
        let instance = req.need_instance("TreeSHAP")?;
        validate::finite_slice("TreeSHAP instance", instance)?;
        let any = model.as_any().ok_or_else(|| XaiError::Unsupported {
            context: "TreeSHAP needs tree internals; the model oracle offers no downcast".into(),
        })?;
        let (phi, base, pred) = if let Some(g) = any.downcast_ref::<Gbdt>() {
            let e = catch_model("TreeSHAP over GBDT", || gbdt_shap(g, instance))?;
            let pred = g.margin(instance);
            (e.phi, e.expected_value, pred)
        } else if let Some(f) = any.downcast_ref::<RandomForest>() {
            let e = catch_model("TreeSHAP over forest", || forest_shap(f, instance))?;
            let pred = f.predict_value(instance);
            (e.phi, e.expected_value, pred)
        } else if let Some(t) = any.downcast_ref::<DecisionTree>() {
            let phi = catch_model("TreeSHAP over tree", || tree_shap(t, instance))?;
            let pred = t.predict_value(instance);
            (phi, tree_expected_value(t), pred)
        } else {
            return Err(XaiError::Unsupported {
                context: "TreeSHAP supports Gbdt, RandomForest and DecisionTree models".into(),
            });
        };
        Ok(Explanation::Attribution(FeatureAttribution::new(
            names_for(req, phi.len()),
            phi,
            base,
            pred,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_core::taxonomy::{Access, Scope};
    use xai_core::RunConfig;
    use xai_data::synth::german_credit;
    use xai_models::{GbdtConfig, LogisticConfig, LogisticRegression};

    #[test]
    fn cards_come_from_the_catalogue() {
        assert_eq!(ExactShapleyMethod.card().name, "Exact Shapley");
        assert_eq!(KernelShapMethod::default().card().access, Access::ModelAgnostic);
        assert_eq!(TreeShapMethod.card().access, Access::ModelSpecific);
        assert_eq!(PermutationShapleyMethod::default().card().scope, Scope::Local);
    }

    #[test]
    fn kernel_shap_trait_path_runs_and_checks_efficiency() {
        let data = german_credit(60, 5);
        let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let row = data.row(0).to_vec();
        let req = ExplainRequest::new(&data).instance(&row).plan(RunConfig::seeded(9));
        let e = KernelShapMethod::default().explain(&model, &req).unwrap();
        let attr = e.as_attribution().unwrap();
        assert_eq!(attr.values.len(), data.x().cols());
        assert!(attr.efficiency_gap() < 1e-6, "gap {}", attr.efficiency_gap());
    }

    #[test]
    fn local_methods_demand_an_instance() {
        let data = german_credit(40, 6);
        let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let req = ExplainRequest::new(&data);
        for method in [
            &ExactShapleyMethod as &dyn Explainer,
            &PermutationShapleyMethod::default(),
            &KernelShapMethod::default(),
            &TreeShapMethod,
        ] {
            assert!(matches!(
                method.explain(&model, &req),
                Err(XaiError::Unsupported { .. })
            ));
        }
    }

    #[test]
    fn tree_shap_requires_tree_internals() {
        let data = german_credit(40, 7);
        let row = data.row(1).to_vec();
        let logit = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let req = ExplainRequest::new(&data).instance(&row);
        assert!(matches!(
            TreeShapMethod.explain(&logit, &req),
            Err(XaiError::Unsupported { .. })
        ));
        let gbdt = xai_models::Gbdt::fit(data.x(), data.y(), GbdtConfig::default());
        let e = TreeShapMethod.explain(&gbdt, &req).unwrap();
        assert!(e.as_attribution().unwrap().efficiency_gap() < 1e-8);
    }

    #[test]
    fn budget_on_a_parallel_plan_is_rejected() {
        let data = german_credit(40, 8);
        let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let row = data.row(0).to_vec();
        let plan = RunConfig::seeded(1)
            .with_workers(2)
            .with_budget(xai_core::SampleBudget::with_max_evals(10));
        let req = ExplainRequest::new(&data).instance(&row).plan(plan);
        assert!(matches!(
            PermutationShapleyMethod::default().explain(&model, &req),
            Err(XaiError::Unsupported { .. })
        ));
        // Kernel SHAP's budget path is likewise sequential only.
        assert!(matches!(
            KernelShapMethod::default().explain(&model, &req),
            Err(XaiError::Unsupported { .. })
        ));
    }

    #[test]
    fn budgeted_kernel_shap_equals_a_shorter_unbudgeted_run() {
        let data = german_credit(40, 8);
        let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let row = data.row(0).to_vec();
        // Sampling mode (max_coalitions well under 2^9 - 2): capping the
        // eval budget at 24 must consume exactly the first 24 draws of
        // the seed-11 stream, i.e. equal max_coalitions = 24 bit for bit.
        let capped = KernelShapMethod {
            config: KernelShapConfig { max_coalitions: 200, ..KernelShapConfig::default() },
        };
        let plan = RunConfig::seeded(11).with_budget(xai_core::SampleBudget::with_max_evals(24));
        let req = ExplainRequest::new(&data).instance(&row).plan(plan);
        let budgeted = capped.explain(&model, &req).unwrap();
        let short = KernelShapMethod {
            config: KernelShapConfig { max_coalitions: 24, ..KernelShapConfig::default() },
        };
        let req = ExplainRequest::new(&data).instance(&row).plan(RunConfig::seeded(11));
        let unbudgeted = short.explain(&model, &req).unwrap();
        assert_eq!(
            budgeted.as_attribution().unwrap().values,
            unbudgeted.as_attribution().unwrap().values
        );

        // A budget that cannot admit even one coalition is typed.
        let plan = RunConfig::seeded(11).with_budget(xai_core::SampleBudget::with_max_evals(0));
        let req = ExplainRequest::new(&data).instance(&row).plan(plan);
        assert!(matches!(
            capped.explain(&model, &req),
            Err(XaiError::BudgetExceeded { completed: 0, .. })
        ));
    }
}
