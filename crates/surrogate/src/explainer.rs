//! Unified-layer `Explainer` impls for the surrogate family (DESIGN.md
//! §9): LIME, SP-LIME, PDP/ICE and integrated-gradients saliency.
//!
//! Dispatch contract (pinned by `tests/explain_golden.rs`): LIME and PDP
//! evaluate the model through its batch surface (`predict_batch`);
//! `RunConfig::batched` selects nothing. `workers > 1` runs LIME's and
//! SP-LIME's chunk grids on the executor through
//! [`xai_core::backend::dispatch_local`], the same `explain_chunks` →
//! `merge_chunks` code the shard backends run: LIME's chunk `c` draws
//! from the `child_seed(seed, c)` stream (a different neighbourhood than
//! the one-stream sequential layout, which budgeted LIME plans keep at
//! any worker count), while SP-LIME's per-candidate seeds make both
//! layouts agree bit for bit. PDP and integrated gradients are
//! deterministic single passes with no random draws for the executor to
//! steer. A `SampleBudget` is honoured by LIME on the sequential layout
//! (an eval cap of `k` equals an unbudgeted run with `n_samples = k` bit
//! for bit); SP-LIME, PDP/ICE and integrated gradients reject budgets as
//! [`XaiError::Unsupported`] rather than silently ignoring the cap.

use xai_core::backend::dispatch_local;
use xai_core::shard::{
    arr_field, chunks_json, flatten_chunks, index_field, num_field, nums_field, reject_budget,
    shard_nums, wire_error, DrawGrid, ShardableExplainer,
};
use xai_core::taxonomy::method_card;
use xai_core::{
    catch_model, validate, CurveExplanation, DegradationPolicy, ExplainRequest, Explainer,
    Explanation, FeatureAttribution, Json, MethodCard, ModelOracle, RunConfig, XaiError, XaiResult,
};
use xai_linalg::stats::mean;
use xai_linalg::Matrix;
use xai_rand::child_seed;
use xai_rand::rngs::StdRng;
use xai_rand::SeedableRng;

use crate::lime::{self, LimeConfig, LimeExplainer, LimeProbe};
use crate::pdp::{self, feature_grid};
use crate::saliency::{integrated_gradients, Differentiable};
use crate::sp_lime::{self, sp_lime};

/// Applies `RunConfig::degradation` to a finished LIME fit — shared by
/// the direct dispatch and the shard merge so both refuse an escalated
/// ridge identically under the strict policy.
fn lime_strict(exp: lime::LimeExplanation, plan: &RunConfig) -> XaiResult<FeatureAttribution> {
    if exp.degraded && plan.degradation == DegradationPolicy::Strict {
        return Err(XaiError::SingularSystem {
            context: "LIME surrogate fit needed ridge escalation; \
                      strict degradation policy refuses the estimate"
                .into(),
        });
    }
    Ok(exp.attribution)
}

/// LIME local surrogate regression (§2.1.1) through the unified layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct LimeMethod {
    /// Neighbourhood size, kernel width, ridge and sparsity settings;
    /// `RunConfig::seed` picks the perturbation stream.
    pub config: LimeConfig,
}

impl Explainer for LimeMethod {
    fn card(&self) -> MethodCard {
        method_card("LIME")
    }

    fn explain(&self, model: &dyn ModelOracle, req: &ExplainRequest<'_>) -> XaiResult<Explanation> {
        let instance = req.need_instance("LIME")?;
        let plan = req.plan;
        if plan.parallel() && !plan.budgeted() {
            return dispatch_local(self, model, req, plan.workers);
        }
        let explainer = LimeExplainer::fit(req.data);
        let f = |m: &Matrix| model.predict_batch(m);
        let exp = explainer.sequential(&f, instance, self.config, plan.seed, plan.budget)?;
        Ok(Explanation::Attribution(lime_strict(exp, &req.plan)?))
    }

    fn as_shardable(&self) -> Option<&dyn ShardableExplainer> {
        Some(self)
    }
}

/// Parses the LIME settings of a shard config (LIME's own, or the `lime`
/// object inside SP-LIME's).
fn lime_config_from_json(config: &Json) -> XaiResult<LimeConfig> {
    const WHAT: &str = "LIME config";
    let n_samples = index_field(config, "n_samples", WHAT)?;
    if n_samples < 8 {
        return Err(wire_error(format!("{WHAT}: n_samples must be >= 8, got {n_samples}")));
    }
    let kernel_width = match config.get("kernel_width") {
        Some(Json::Null) | None => None,
        Some(_) => Some(num_field(config, "kernel_width", WHAT)?),
    };
    let ridge = num_field(config, "ridge", WHAT)?;
    let max_features = match config.get("max_features") {
        Some(Json::Null) | None => None,
        Some(_) => Some(index_field(config, "max_features", WHAT)?),
    };
    Ok(LimeConfig { n_samples, kernel_width, ridge, max_features })
}

impl ShardableExplainer for LimeMethod {
    fn draw_grid(&self, req: &ExplainRequest<'_>) -> XaiResult<DrawGrid> {
        req.need_instance("LIME")?;
        lime::check_samples(self.config.n_samples)?;
        if req.plan.budget.max_duration.is_some() {
            return Err(XaiError::Unsupported {
                context: "wall-clock LIME budgets are not shardable; \
                          use SampleBudget::with_max_evals"
                    .into(),
            });
        }
        let total = match req.plan.budget.max_evals {
            Some(k) => {
                let n = self.config.n_samples.min(k);
                if n < 8 {
                    return Err(XaiError::BudgetExceeded {
                        context: format!(
                            "LIME: budget admits {n} of the minimum 8 neighbourhood probes"
                        ),
                        completed: n,
                    });
                }
                n
            }
            None => self.config.n_samples,
        };
        Ok(DrawGrid { total_draws: total, chunk_size: lime::PROBES_PER_CHUNK })
    }

    fn explain_chunks(
        &self,
        model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        chunks: std::ops::Range<usize>,
    ) -> XaiResult<Json> {
        let instance = req.need_instance("LIME")?;
        validate::finite_slice("LIME instance", instance)?;
        let grid = self.draw_grid(req)?;
        let explainer = LimeExplainer::fit(req.data);
        let width = lime::width_for(self.config, instance.len());
        let f = |m: &Matrix| model.predict_batch(m);
        let mut out = Vec::with_capacity(chunks.len());
        for c in chunks {
            let mut rng = StdRng::seed_from_u64(child_seed(req.plan.seed, c as u64));
            let probes =
                explainer.probe_chunk(&f, instance, width, grid.chunk_range(c).len(), &mut rng)?;
            let rows = probes
                .into_iter()
                .map(|(mut row, weight, target)| {
                    row.push(weight);
                    row.push(target);
                    shard_nums("LIME probe row", &row)
                })
                .collect::<XaiResult<Vec<Json>>>()?;
            out.push(Json::obj(vec![("rows", Json::Arr(rows))]));
        }
        Ok(chunks_json(out))
    }

    fn merge_chunks(
        &self,
        model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        partials: Vec<Json>,
    ) -> XaiResult<Explanation> {
        const WHAT: &str = "LIME merge";
        let instance = req.need_instance("LIME")?;
        validate::finite_slice("LIME instance", instance)?;
        let grid = self.draw_grid(req)?;
        let flat = flatten_chunks(&partials, WHAT)?;
        if flat.len() != grid.n_chunks() {
            return Err(wire_error(format!(
                "{WHAT}: got {} chunk partials for a {}-chunk grid",
                flat.len(),
                grid.n_chunks()
            )));
        }
        let explainer = LimeExplainer::fit(req.data);
        let d = explainer.n_features();
        let mut probes: Vec<LimeProbe> = Vec::with_capacity(grid.total_draws);
        for chunk in flat {
            for (i, row) in arr_field(chunk, "rows", WHAT)?.iter().enumerate() {
                let vals = row
                    .as_arr()
                    .ok_or_else(|| wire_error(format!("{WHAT}: probe row {i} is not an array")))?
                    .iter()
                    .map(|v| {
                        v.as_num().ok_or_else(|| {
                            wire_error(format!("{WHAT}: probe row {i} has a non-numeric entry"))
                        })
                    })
                    .collect::<XaiResult<Vec<f64>>>()?;
                if vals.len() != d + 2 {
                    return Err(wire_error(format!(
                        "{WHAT}: probe row {i} has {} entries, want {}",
                        vals.len(),
                        d + 2
                    )));
                }
                probes.push((vals[..d].to_vec(), vals[d], vals[d + 1]));
            }
        }
        let prediction = catch_model("LIME instance prediction", || model.predict(instance))?;
        let width = lime::width_for(self.config, instance.len());
        let exp = explainer.fit_probes(probes, width, prediction, self.config)?;
        Ok(Explanation::Attribution(lime_strict(exp, &req.plan)?))
    }

    fn config_json(&self) -> Json {
        Json::obj(vec![
            ("n_samples", Json::Num(self.config.n_samples as f64)),
            (
                "kernel_width",
                self.config.kernel_width.map_or(Json::Null, Json::Num),
            ),
            ("ridge", Json::Num(self.config.ridge)),
            (
                "max_features",
                self.config.max_features.map_or(Json::Null, |k| Json::Num(k as f64)),
            ),
        ])
    }

    fn rebuild_from_config(&self, config: &Json) -> XaiResult<Box<dyn ShardableExplainer>> {
        Ok(Box::new(Self { config: lime_config_from_json(config)? }))
    }
}

/// SP-LIME submodular pick (§2.1.1): a global view assembled from LIME
/// explanations, reported as per-feature importance.
#[derive(Clone, Copy, Debug)]
pub struct SpLimeMethod {
    /// Rows explained as candidates for the pick.
    pub n_candidates: usize,
    /// Instances the submodular pick may select.
    pub picks: usize,
    /// LIME settings used for every candidate explanation.
    pub config: LimeConfig,
}

impl Default for SpLimeMethod {
    fn default() -> Self {
        Self { n_candidates: 50, picks: 5, config: LimeConfig::default() }
    }
}

impl Explainer for SpLimeMethod {
    fn card(&self) -> MethodCard {
        method_card("SP-LIME")
    }

    fn explain(&self, model: &dyn ModelOracle, req: &ExplainRequest<'_>) -> XaiResult<Explanation> {
        reject_budget("SP-LIME", req)?;
        self.check_config()?;
        validate::finite_matrix("SP-LIME dataset", req.data.x())?;
        if req.plan.parallel() {
            return dispatch_local(self, model, req, req.plan.workers);
        }
        let explainer = LimeExplainer::fit(req.data);
        let f = |x: &[f64]| model.predict(x);
        let pick = catch_model("SP-LIME candidate explanation", || {
            sp_lime(
                &explainer,
                &f,
                req.data,
                self.n_candidates,
                self.picks,
                self.config,
                req.plan.seed,
            )
        })?;
        validate::finite_slice("SP-LIME feature importance", &pick.feature_importance).map_err(
            |_| XaiError::ModelFault {
                context: "SP-LIME produced non-finite feature importance".into(),
            },
        )?;
        // Global importance has no single instance: baseline/prediction
        // carry no meaning and are reported as zero.
        Ok(Explanation::Attribution(FeatureAttribution::new(
            req.feature_names(),
            pick.feature_importance,
            0.0,
            0.0,
        )))
    }

    fn as_shardable(&self) -> Option<&dyn ShardableExplainer> {
        Some(self)
    }
}

impl SpLimeMethod {
    /// Rejects a pick of nothing or candidate neighbourhoods too small to
    /// fit; shared by both layouts.
    fn check_config(&self) -> XaiResult<()> {
        if self.picks == 0 {
            return Err(XaiError::Unsupported { context: "SP-LIME needs picks >= 1".into() });
        }
        lime::check_samples(self.config.n_samples)
    }
}

impl ShardableExplainer for SpLimeMethod {
    fn draw_grid(&self, req: &ExplainRequest<'_>) -> XaiResult<DrawGrid> {
        reject_budget("SP-LIME", req)?;
        self.check_config()?;
        Ok(DrawGrid {
            total_draws: sp_lime::candidate_count(req.data, self.n_candidates),
            chunk_size: 1,
        })
    }

    fn explain_chunks(
        &self,
        model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        chunks: std::ops::Range<usize>,
    ) -> XaiResult<Json> {
        validate::finite_matrix("SP-LIME dataset", req.data.x())?;
        self.draw_grid(req)?;
        let explainer = LimeExplainer::fit(req.data);
        let f = |x: &[f64]| model.predict(x);
        let mut out = Vec::with_capacity(chunks.len());
        for c in chunks {
            let row = sp_lime::candidate_row(&explainer, &f, req.data, c, self.config, req.plan.seed)?;
            out.push(Json::obj(vec![(
                "w",
                shard_nums("SP-LIME candidate explanation", &row)?,
            )]));
        }
        Ok(chunks_json(out))
    }

    fn merge_chunks(
        &self,
        _model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        partials: Vec<Json>,
    ) -> XaiResult<Explanation> {
        const WHAT: &str = "SP-LIME merge";
        validate::finite_matrix("SP-LIME dataset", req.data.x())?;
        let grid = self.draw_grid(req)?;
        let flat = flatten_chunks(&partials, WHAT)?;
        if flat.len() != grid.n_chunks() {
            return Err(wire_error(format!(
                "{WHAT}: got {} chunk partials for a {}-chunk grid",
                flat.len(),
                grid.n_chunks()
            )));
        }
        let d = req.data.n_features();
        let mut w = Matrix::zeros(flat.len(), d);
        for (i, chunk) in flat.iter().enumerate() {
            let row = nums_field(chunk, "w", WHAT)?;
            if row.len() != d {
                return Err(wire_error(format!(
                    "{WHAT}: candidate row {i} has {} entries, want {d}",
                    row.len()
                )));
            }
            w.row_mut(i).copy_from_slice(&row);
        }
        let pick = sp_lime::pick_from_w(w, self.picks);
        validate::finite_slice("SP-LIME feature importance", &pick.feature_importance).map_err(
            |_| XaiError::ModelFault {
                context: "SP-LIME produced non-finite feature importance".into(),
            },
        )?;
        Ok(Explanation::Attribution(FeatureAttribution::new(
            req.feature_names(),
            pick.feature_importance,
            0.0,
            0.0,
        )))
    }

    fn config_json(&self) -> Json {
        Json::obj(vec![
            ("n_candidates", Json::Num(self.n_candidates as f64)),
            ("picks", Json::Num(self.picks as f64)),
            ("lime", ShardableExplainer::config_json(&LimeMethod { config: self.config })),
        ])
    }

    fn rebuild_from_config(&self, config: &Json) -> XaiResult<Box<dyn ShardableExplainer>> {
        const WHAT: &str = "SP-LIME config";
        let n_candidates = index_field(config, "n_candidates", WHAT)?;
        let picks = index_field(config, "picks", WHAT)?;
        if picks == 0 {
            return Err(wire_error(format!("{WHAT}: picks must be >= 1")));
        }
        let lime = config
            .get("lime")
            .ok_or_else(|| wire_error(format!("{WHAT}: missing required field 'lime'")))?;
        let config = lime_config_from_json(lime)?;
        Ok(Box::new(Self { n_candidates, picks, config }))
    }
}

/// Partial dependence / ICE curves (Molnar §2 framing) through the
/// unified layer; needs `ExplainRequest::feature`.
#[derive(Clone, Copy, Debug)]
pub struct PdpMethod {
    /// Grid resolution over the feature's 5–95 % quantile range.
    pub points: usize,
    /// Row subsample cap for the background average.
    pub max_rows: usize,
    /// Keep the per-row ICE curves alongside the mean PDP.
    pub keep_ice: bool,
}

impl Default for PdpMethod {
    fn default() -> Self {
        Self { points: 20, max_rows: 200, keep_ice: true }
    }
}

impl Explainer for PdpMethod {
    fn card(&self) -> MethodCard {
        method_card("Partial dependence / ICE")
    }

    fn explain(&self, model: &dyn ModelOracle, req: &ExplainRequest<'_>) -> XaiResult<Explanation> {
        reject_budget("PDP/ICE", req)?;
        let feature = req.feature.ok_or_else(|| XaiError::Unsupported {
            context: "PDP/ICE sweeps one feature and needs ExplainRequest::feature".into(),
        })?;
        if feature >= req.data.n_features() {
            return Err(XaiError::Unsupported {
                context: format!(
                    "PDP/ICE feature index {feature} out of range for {} features",
                    req.data.n_features()
                ),
            });
        }
        let grid = feature_grid(req.data, feature, self.points);
        let f = |m: &Matrix| model.predict_batch(m);
        let pd = pdp::try_sweep(&f, req.data, feature, &grid, self.max_rows, self.keep_ice)?;
        Ok(Explanation::Curve(CurveExplanation {
            feature: pd.feature,
            grid: pd.grid,
            values: pd.pdp,
            ice: pd.ice,
        }))
    }
}

/// Adapter: the saliency family's gradient surface over any oracle that
/// advertises a gradient.
struct OracleDiff<'a>(&'a dyn ModelOracle);

impl Differentiable for OracleDiff<'_> {
    fn output(&self, x: &[f64]) -> f64 {
        self.0.predict(x)
    }
    fn input_gradient(&self, x: &[f64]) -> Vec<f64> {
        self.0.gradient(x).expect("gradient availability checked before dispatch")
    }
}

/// Integrated gradients (§2.4 saliency) through the unified layer: path
/// integral from the dataset's mean point to the instance. The method is
/// a deterministic single pass with no random draws, so every execution
/// plan (`seed`, `workers`, `batched`) returns the same result; models
/// without a gradient surface report [`XaiError::Unsupported`].
#[derive(Clone, Copy, Debug)]
pub struct IntegratedGradientsMethod {
    /// Riemann steps along the straight-line path.
    pub steps: usize,
}

impl Default for IntegratedGradientsMethod {
    fn default() -> Self {
        Self { steps: 50 }
    }
}

impl Explainer for IntegratedGradientsMethod {
    fn card(&self) -> MethodCard {
        method_card("Integrated gradients")
    }

    fn explain(&self, model: &dyn ModelOracle, req: &ExplainRequest<'_>) -> XaiResult<Explanation> {
        reject_budget("integrated gradients", req)?;
        let instance = req.need_instance("integrated gradients")?;
        validate::finite_slice("integrated gradients instance", instance)?;
        if model.gradient(instance).is_none() {
            return Err(XaiError::Unsupported {
                context: "integrated gradients needs a differentiable model; \
                          this oracle offers no gradient"
                    .into(),
            });
        }
        let background = req.background_or_data();
        let baseline: Vec<f64> = (0..background.cols()).map(|j| mean(&background.col(j))).collect();
        if baseline.len() != instance.len() {
            return Err(XaiError::Unsupported {
                context: format!(
                    "integrated gradients baseline has {} features, instance {}",
                    baseline.len(),
                    instance.len()
                ),
            });
        }
        let diff = OracleDiff(model);
        let attr = catch_model("integrated gradients path integral", || {
            integrated_gradients(&diff, instance, &baseline, self.steps)
        })?;
        validate::finite_slice("integrated gradients attribution", &attr.values).map_err(|_| {
            XaiError::ModelFault {
                context: "integrated gradients produced non-finite values".into(),
            }
        })?;
        // Re-label with schema names (the free function only knows `x{j}`).
        let names = req.feature_names();
        let attr = if names.len() == attr.values.len() {
            FeatureAttribution::new(names, attr.values, attr.baseline, attr.prediction)
        } else {
            attr
        };
        Ok(Explanation::Attribution(attr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_core::taxonomy::Scope;
    use xai_core::RunConfig;
    use xai_data::synth::german_credit;
    use xai_models::{LogisticConfig, LogisticRegression, Mlp, MlpConfig};

    #[test]
    fn cards_come_from_the_catalogue() {
        assert_eq!(LimeMethod::default().card().name, "LIME");
        assert_eq!(SpLimeMethod::default().card().scope, Scope::Global);
        assert_eq!(PdpMethod::default().card().scope, Scope::Global);
        assert_eq!(IntegratedGradientsMethod::default().card().section, "2.4");
    }

    #[test]
    fn lime_trait_path_runs_batched_and_scalar_identically() {
        let data = german_credit(80, 21);
        let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let row = data.row(2).to_vec();
        let config = LimeConfig { n_samples: 120, ..LimeConfig::default() };
        let scalar = LimeMethod { config }
            .explain(&model, &ExplainRequest::new(&data).instance(&row).plan(RunConfig::seeded(4)))
            .unwrap();
        let batched = LimeMethod { config }
            .explain(
                &model,
                &ExplainRequest::new(&data)
                    .instance(&row)
                    .plan(RunConfig::seeded(4).with_batched(true)),
            )
            .unwrap();
        assert_eq!(
            scalar.as_attribution().unwrap().values,
            batched.as_attribution().unwrap().values
        );
    }

    #[test]
    fn pdp_needs_a_feature_and_returns_a_curve() {
        let data = german_credit(60, 22);
        let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let req = ExplainRequest::new(&data);
        assert!(matches!(
            PdpMethod::default().explain(&model, &req),
            Err(XaiError::Unsupported { .. })
        ));
        let e = PdpMethod::default().explain(&model, &req.feature(0)).unwrap();
        let curve = e.as_curve().unwrap();
        assert_eq!(curve.feature, 0);
        assert_eq!(curve.grid.len(), curve.values.len());
        assert!(curve.ice.is_some());
    }

    #[test]
    fn integrated_gradients_needs_a_gradient_surface() {
        let data = german_credit(60, 23);
        let row = data.row(0).to_vec();
        let req = ExplainRequest::new(&data).instance(&row);
        let mlp = Mlp::fit(data.x(), data.y(), MlpConfig::default());
        let e = IntegratedGradientsMethod::default().explain(&mlp, &req).unwrap();
        assert_eq!(e.as_attribution().unwrap().values.len(), data.x().cols());

        // Tree models advertise no gradient.
        let gbdt = xai_models::Gbdt::fit(data.x(), data.y(), xai_models::GbdtConfig::default());
        assert!(matches!(
            IntegratedGradientsMethod::default().explain(&gbdt, &req),
            Err(XaiError::Unsupported { .. })
        ));
    }

    #[test]
    fn sp_lime_reports_global_importance() {
        let data = german_credit(50, 24);
        let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let method = SpLimeMethod {
            n_candidates: 10,
            picks: 3,
            config: LimeConfig { n_samples: 60, ..LimeConfig::default() },
        };
        let e = method.explain(&model, &ExplainRequest::new(&data)).unwrap();
        let attr = e.as_attribution().unwrap();
        assert_eq!(attr.values.len(), data.x().cols());
        assert!(attr.values.iter().all(|v| *v >= 0.0));
    }
}
