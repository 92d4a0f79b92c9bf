//! Unified-layer `Explainer` impls for the counterfactual family
//! (DESIGN.md §9): Wachter gradient descent, GeCo's genetic search under
//! plausibility/feasibility constraints, and DiCE's diverse set.
//!
//! Dispatch contract (pinned by `tests/explain_golden.rs`): `workers > 1`
//! runs GeCo's multi-start search (start `t` at `child_seed(seed, t + 1)`,
//! best result in start order) and DiCE's candidate pool (`k · restarts`
//! independent searches, candidate `c` at `child_seed(seed, c)`, merged
//! by a greedy diverse selection) — both worker-count invariant though a
//! different search schedule than `workers == 1`. DiCE's pool is its
//! chunk grid, run through [`xai_core::backend::dispatch_local`] like
//! every shard backend; GeCo is not shardable and keeps its multi-start
//! body here. Wachter is deterministic gradient descent with no random
//! draws, so every execution plan returns the same result. None of the
//! searches evaluates in batches or meters a budget; a `SampleBudget` is
//! rejected as [`XaiError::Unsupported`].

use xai_core::backend::dispatch_local;
use xai_core::shard::{
    chunks_json, flatten_chunks, index_field, num_field, nums_field, reject_budget, wire_error,
    DrawGrid, ShardableExplainer,
};
use xai_core::taxonomy::method_card;
use xai_core::{
    catch_model, validate, Counterfactual, ExplainRequest, Explainer, Explanation, Json,
    MethodCard, ModelOracle, XaiError, XaiResult,
};
use xai_rand::child_seed;
use xai_rand::rngs::StdRng;
use xai_rand::SeedableRng;

use crate::dice::{DiceConfig, DiceExplainer};
use crate::distance::FeatureScales;
use crate::geco::{certify_counterfactual, geco, try_geco, GecoConfig, Plaf};
use crate::wachter::{try_wachter_counterfactual, GradientModel, WachterConfig};

/// Adapter: the Wachter gradient surface over any oracle that advertises
/// a gradient.
struct OracleGradient<'a>(&'a dyn ModelOracle);

impl GradientModel for OracleGradient<'_> {
    fn output(&self, x: &[f64]) -> f64 {
        self.0.predict(x)
    }
    fn gradient(&self, x: &[f64]) -> Vec<f64> {
        self.0.gradient(x).expect("gradient availability checked before dispatch")
    }
}

/// Wachter-style gradient counterfactuals (§2.1.4) through the unified
/// layer; needs a differentiable model.
#[derive(Clone, Copy, Debug, Default)]
pub struct WachterMethod {
    /// Annealing schedule and step sizes.
    pub config: WachterConfig,
}

impl Explainer for WachterMethod {
    fn card(&self) -> MethodCard {
        method_card("Wachter counterfactuals")
    }

    fn explain(&self, model: &dyn ModelOracle, req: &ExplainRequest<'_>) -> XaiResult<Explanation> {
        reject_budget("Wachter counterfactuals", req)?;
        let instance = req.need_instance("Wachter counterfactuals")?;
        if model.gradient(instance).is_none() {
            return Err(XaiError::Unsupported {
                context: "Wachter counterfactual search needs a differentiable model; \
                          this oracle offers no gradient"
                    .into(),
            });
        }
        let adapter = OracleGradient(model);
        let cf = try_wachter_counterfactual(&adapter, req.data, instance, self.config)?;
        Ok(Explanation::Counterfactuals(vec![cf]))
    }
}

/// GeCo genetic counterfactual search (§2.1.4) through the unified
/// layer; feasibility rules come from the dataset schema's mutability
/// annotations ([`Plaf::from_schema`]).
#[derive(Clone, Copy, Debug)]
pub struct GecoMethod {
    /// Population / generation schedule.
    pub config: GecoConfig,
    /// Restarts of the multi-start search (`workers > 1`).
    pub starts: usize,
}

impl Default for GecoMethod {
    fn default() -> Self {
        Self { config: GecoConfig::default(), starts: 4 }
    }
}

impl Explainer for GecoMethod {
    fn card(&self) -> MethodCard {
        method_card("GeCo")
    }

    fn explain(&self, model: &dyn ModelOracle, req: &ExplainRequest<'_>) -> XaiResult<Explanation> {
        reject_budget("GeCo", req)?;
        let instance = req.need_instance("GeCo")?;
        let plaf = Plaf::from_schema(req.data);
        let f = |x: &[f64]| model.predict(x);
        let cf = if req.plan.parallel() {
            self.multi_start(&f, req.data, instance, &plaf, req.plan.seed, req.plan.workers)?
        } else {
            try_geco(&f, req.data, instance, &plaf, self.config, req.plan.seed)?
        };
        Ok(Explanation::Counterfactuals(vec![cf]))
    }
}

impl GecoMethod {
    /// Multi-start GeCo on the seeded executor: `starts` independent
    /// genetic searches, start `t` seeded with `child_seed(seed, t + 1)`,
    /// keeping the best valid counterfactual under GeCo's lexicographic
    /// criterion (fewest changes, then closest). Results are compared in
    /// start order, so the output is a pure function of `(seed, starts)`
    /// — bit-identical across worker counts. A panic inside one start
    /// yields [`XaiError::WorkerPanic`] naming the lowest-indexed start.
    fn multi_start(
        &self,
        model: &(dyn Fn(&[f64]) -> f64 + Sync),
        data: &xai_data::Dataset,
        instance: &[f64],
        plaf: &Plaf,
        seed: u64,
        workers: usize,
    ) -> XaiResult<Counterfactual> {
        if self.starts == 0 {
            return Err(XaiError::Unsupported { context: "GeCo needs starts >= 1".into() });
        }
        validate::finite_matrix("GeCo training data", data.x())?;
        validate::finite_slice("GeCo instance", instance)?;
        let scales = FeatureScales::fit(data);
        let candidates = xai_rand::parallel::try_par_map_seeded(self.starts, seed, workers, |t, _| {
            geco(model, data, instance, plaf, self.config, child_seed(seed, t as u64 + 1))
        })?;
        let found = candidates.into_iter().flatten().min_by(|a, b| {
            a.sparsity().cmp(&b.sparsity()).then(
                scales
                    .l1(instance, &a.counterfactual)
                    .total_cmp(&scales.l1(instance, &b.counterfactual)),
            )
        });
        certify_counterfactual(found, "parallel GeCo search", self.starts * self.config.generations)
    }
}

/// DiCE diverse counterfactuals (§2.1.4) through the unified layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiceMethod {
    /// Set size, diversity/proximity trade-off and search schedule.
    pub config: DiceConfig,
}

impl Explainer for DiceMethod {
    fn card(&self) -> MethodCard {
        method_card("DiCE")
    }

    fn explain(&self, model: &dyn ModelOracle, req: &ExplainRequest<'_>) -> XaiResult<Explanation> {
        reject_budget("DiCE", req)?;
        let instance = req.need_instance("DiCE")?;
        if req.plan.parallel() {
            return dispatch_local(self, model, req, req.plan.workers);
        }
        let explainer = DiceExplainer::fit(req.data);
        let f = |x: &[f64]| model.predict(x);
        let cfs = explainer.try_generate(&f, instance, self.config, req.plan.seed)?;
        Ok(Explanation::Counterfactuals(cfs))
    }

    fn as_shardable(&self) -> Option<&dyn ShardableExplainer> {
        Some(self)
    }
}

impl DiceMethod {
    /// Rebuilds the method from its canonical shard-config JSON.
    pub fn from_config_json(config: &Json) -> XaiResult<Self> {
        const WHAT: &str = "DiCE config";
        Ok(Self {
            config: DiceConfig {
                k: index_field(config, "k", WHAT)?,
                proximity_weight: num_field(config, "proximity_weight", WHAT)?,
                diversity_weight: num_field(config, "diversity_weight", WHAT)?,
                sparsity_weight: num_field(config, "sparsity_weight", WHAT)?,
                iterations: index_field(config, "iterations", WHAT)?,
                restarts: index_field(config, "restarts", WHAT)?,
            },
        })
    }

    /// Size of the candidate pool the chunk layout searches.
    fn pool(&self) -> usize {
        (self.config.k * self.config.restarts.max(1)).max(1)
    }
}

impl ShardableExplainer for DiceMethod {
    fn draw_grid(&self, req: &ExplainRequest<'_>) -> XaiResult<DrawGrid> {
        reject_budget("DiCE", req)?;
        req.need_instance("DiCE")?;
        Ok(DrawGrid { total_draws: self.pool(), chunk_size: 1 })
    }

    fn explain_chunks(
        &self,
        model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        chunks: std::ops::Range<usize>,
    ) -> XaiResult<Json> {
        let instance = req.need_instance("DiCE")?;
        validate::finite_slice("DiCE instance", instance)?;
        let explainer = DiceExplainer::fit(req.data);
        let f = |x: &[f64]| model.predict(x);
        let original_output = catch_model("DiCE original prediction", || f(instance))?;
        let target_positive = original_output < 0.5;
        let mut out = Vec::with_capacity(chunks.len());
        for c in chunks {
            let mut rng = StdRng::seed_from_u64(child_seed(req.plan.seed, c as u64));
            let candidate = catch_model("DiCE local search", || {
                explainer.pool_candidate(&f, instance, target_positive, self.config, &mut rng)
            })?;
            out.push(match candidate {
                None => Json::Null,
                Some((cf, loss)) => {
                    if !loss.is_finite() || cf.iter().any(|v| !v.is_finite()) {
                        return Err(XaiError::ModelFault {
                            context: "DiCE local search produced a non-finite candidate".into(),
                        });
                    }
                    Json::obj(vec![("cf", Json::nums(&cf)), ("loss", Json::Num(loss))])
                }
            });
        }
        Ok(chunks_json(out))
    }

    fn merge_chunks(
        &self,
        model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        partials: Vec<Json>,
    ) -> XaiResult<Explanation> {
        const WHAT: &str = "DiCE merge";
        let instance = req.need_instance("DiCE")?;
        validate::finite_slice("DiCE instance", instance)?;
        let grid = self.draw_grid(req)?;
        let flat = flatten_chunks(&partials, WHAT)?;
        if flat.len() != grid.n_chunks() {
            return Err(wire_error(format!(
                "{WHAT}: got {} pool candidates for a {}-candidate pool",
                flat.len(),
                grid.n_chunks()
            )));
        }
        let d = instance.len();
        let candidates = flat
            .into_iter()
            .enumerate()
            .map(|(i, c)| match c {
                Json::Null => Ok(None),
                _ => {
                    let cf = nums_field(c, "cf", WHAT)?;
                    if cf.len() != d {
                        return Err(wire_error(format!(
                            "{WHAT}: candidate {i} has {} features, want {d}",
                            cf.len()
                        )));
                    }
                    Ok(Some((cf, num_field(c, "loss", WHAT)?)))
                }
            })
            .collect::<XaiResult<Vec<_>>>()?;
        let explainer = DiceExplainer::fit(req.data);
        let f = |x: &[f64]| model.predict(x);
        let original_output = catch_model("DiCE original prediction", || f(instance))?;
        let chosen = explainer.select_diverse(&candidates, self.config);
        let results = catch_model("DiCE counterfactual certification", || {
            chosen
                .into_iter()
                .map(|cf| {
                    let cf_output = f(&cf);
                    Counterfactual::new(
                        instance.to_vec(),
                        cf.clone(),
                        original_output,
                        cf_output,
                        explainer.distance(instance, &cf),
                    )
                })
                .collect::<Vec<_>>()
        })?;
        let cfs = crate::dice::certify_set(results, "pooled DiCE search", self.config)?;
        Ok(Explanation::Counterfactuals(cfs))
    }

    fn config_json(&self) -> Json {
        Json::obj(vec![
            ("k", Json::Num(self.config.k as f64)),
            ("proximity_weight", Json::Num(self.config.proximity_weight)),
            ("diversity_weight", Json::Num(self.config.diversity_weight)),
            ("sparsity_weight", Json::Num(self.config.sparsity_weight)),
            ("iterations", Json::Num(self.config.iterations as f64)),
            ("restarts", Json::Num(self.config.restarts as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_core::taxonomy::{Access, Scope};
    use xai_core::{ExplanationForm, RunConfig};
    use xai_data::synth::german_credit;
    use xai_models::{LogisticConfig, LogisticRegression};

    fn rejected_row(data: &xai_data::Dataset, model: &LogisticRegression) -> Vec<f64> {
        use xai_models::Classifier;
        (0..data.n_rows())
            .map(|i| data.row(i))
            .find(|r| model.proba_one(r) < 0.5)
            .expect("some rejected applicant exists")
            .to_vec()
    }

    #[test]
    fn cards_come_from_the_catalogue() {
        assert_eq!(WachterMethod::default().card().access, Access::ModelSpecific);
        assert_eq!(GecoMethod::default().card().scope, Scope::Local);
        assert_eq!(DiceMethod::default().card().form, ExplanationForm::Counterfactual);
    }

    #[test]
    fn all_three_searches_flip_a_rejection() {
        let data = german_credit(150, 31);
        let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let row = rejected_row(&data, &model);
        let req = ExplainRequest::new(&data).instance(&row).plan(RunConfig::seeded(5));

        for method in [
            &WachterMethod::default() as &dyn Explainer,
            &GecoMethod::default(),
            &DiceMethod::default(),
        ] {
            let e = method.explain(&model, &req).unwrap();
            let cfs = e.as_counterfactuals().unwrap();
            assert!(!cfs.is_empty(), "{} found no counterfactual", method.card().name);
            for cf in cfs {
                assert!(
                    cf.counterfactual_output >= 0.5,
                    "{} returned a non-flipping counterfactual",
                    method.card().name
                );
            }
        }
    }

    #[test]
    fn wachter_requires_a_gradient_surface() {
        let data = german_credit(60, 32);
        let gbdt = xai_models::Gbdt::fit(data.x(), data.y(), xai_models::GbdtConfig::default());
        let row = data.row(0).to_vec();
        let req = ExplainRequest::new(&data).instance(&row);
        assert!(matches!(
            WachterMethod::default().explain(&gbdt, &req),
            Err(XaiError::Unsupported { .. })
        ));
    }
}
