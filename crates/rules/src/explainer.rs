//! Unified-layer `Explainer` impls for the rule family (DESIGN.md §9):
//! Anchors (local sufficient rules) and interpretable decision sets fit
//! as a global rule surrogate of the model under explanation.
//!
//! Dispatch contract: `workers > 1` runs a *pool* of independent Anchors
//! searches — candidate `p` at seed `child_seed(seed, p)` — and keeps the
//! best rule (highest precision, then shortest, then widest coverage).
//! The pool is the method's chunk grid, run on the executor through
//! [`xai_core::backend::dispatch_local`] like every shard backend, so it
//! is worker-count invariant. Decision-set mining is a deterministic
//! pass with no random draws, so every execution plan returns the same
//! rule set. A `SampleBudget` is rejected as [`XaiError::Unsupported`]
//! by both methods.

use xai_core::backend::dispatch_local;
use xai_core::shard::{
    arr_field, chunks_json, flatten_chunks, index_field, num_field, reject_budget, str_field,
    wire_error, DrawGrid, ShardableExplainer,
};
use xai_core::taxonomy::method_card;
use xai_core::{
    catch_model, validate, Condition, ExplainRequest, Explainer, Explanation, Json, MethodCard,
    ModelOracle, Op, RuleExplanation, XaiError, XaiResult,
};
use xai_rand::child_seed;

use crate::anchors::{AnchorsConfig, AnchorsExplainer};
use crate::ids::{DecisionSet, IdsConfig};

/// `true` when `a` beats `b` under the pool ranking: higher precision,
/// then shorter rule, then wider coverage. Strict comparisons keep the
/// selection stable — on a full tie the earlier candidate wins, so the
/// pool result does not depend on evaluation order.
fn beats(a: &RuleExplanation, b: &RuleExplanation) -> bool {
    if a.precision != b.precision {
        return a.precision > b.precision;
    }
    if a.conditions.len() != b.conditions.len() {
        return a.conditions.len() < b.conditions.len();
    }
    a.coverage > b.coverage
}

/// The pool merge: best rule first-wins under [`beats`].
fn select_best(rules: Vec<RuleExplanation>) -> Option<RuleExplanation> {
    let mut best: Option<RuleExplanation> = None;
    for rule in rules {
        if best.as_ref().is_none_or(|b| beats(&rule, b)) {
            best = Some(rule);
        }
    }
    best
}

fn op_str(op: Op) -> &'static str {
    match op {
        Op::Le => "le",
        Op::Gt => "gt",
        Op::Eq => "eq",
    }
}

/// Canonical wire form of one anchor rule; non-finite statistics are the
/// model's fault and refuse to serialize (they would mangle to `null`).
fn rule_to_json(rule: &RuleExplanation) -> XaiResult<Json> {
    let stats = [rule.prediction, rule.precision, rule.coverage];
    if let Some(v) = stats
        .iter()
        .chain(rule.conditions.iter().map(|c| &c.value))
        .find(|v| !v.is_finite())
    {
        return Err(XaiError::ModelFault {
            context: format!("Anchors rule contains non-finite value {v}"),
        });
    }
    let conditions = rule
        .conditions
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("feature", Json::Num(c.feature as f64)),
                ("feature_name", Json::str(c.feature_name.clone())),
                ("op", Json::str(op_str(c.op))),
                ("value", Json::Num(c.value)),
            ])
        })
        .collect();
    Ok(Json::obj(vec![
        ("conditions", Json::Arr(conditions)),
        ("prediction", Json::Num(rule.prediction)),
        ("precision", Json::Num(rule.precision)),
        ("coverage", Json::Num(rule.coverage)),
    ]))
}

fn rule_from_json(json: &Json, what: &str) -> XaiResult<RuleExplanation> {
    let mut conditions = Vec::new();
    for (i, c) in arr_field(json, "conditions", what)?.iter().enumerate() {
        let op = match str_field(c, "op", what)?.as_str() {
            "le" => Op::Le,
            "gt" => Op::Gt,
            "eq" => Op::Eq,
            other => {
                return Err(wire_error(format!(
                    "{what}: condition {i} has unknown op '{other}'"
                )))
            }
        };
        conditions.push(Condition {
            feature: index_field(c, "feature", what)?,
            feature_name: str_field(c, "feature_name", what)?,
            op,
            value: num_field(c, "value", what)?,
        });
    }
    Ok(RuleExplanation {
        conditions,
        prediction: num_field(json, "prediction", what)?,
        precision: num_field(json, "precision", what)?,
        coverage: num_field(json, "coverage", what)?,
    })
}

/// Anchors (§2.2) through the unified layer: a high-precision sufficient
/// rule for one prediction.
#[derive(Clone, Copy, Debug)]
pub struct AnchorsMethod {
    /// Precision target, confidence and length cap of the bandit search.
    pub config: AnchorsConfig,
    /// Independent searches raced when `workers > 1`; the best rule
    /// (highest precision, then shortest, then widest coverage) wins.
    /// `workers == 1` runs a single search at the plan seed.
    pub pool: usize,
}

impl Default for AnchorsMethod {
    fn default() -> Self {
        Self { config: AnchorsConfig::default(), pool: 4 }
    }
}

impl Explainer for AnchorsMethod {
    fn card(&self) -> MethodCard {
        method_card("Anchors")
    }

    fn explain(&self, model: &dyn ModelOracle, req: &ExplainRequest<'_>) -> XaiResult<Explanation> {
        reject_budget("Anchors", req)?;
        let instance = req.need_instance("Anchors")?;
        validate::finite_slice("Anchors instance", instance)?;
        validate::finite_matrix("Anchors dataset", req.data.x())?;
        if req.plan.parallel() {
            return dispatch_local(self, model, req, req.plan.workers);
        }
        let explainer = AnchorsExplainer::fit(req.data);
        let f = |x: &[f64]| model.predict(x);
        let rule = catch_model("Anchors bandit search", || {
            explainer.explain(&f, instance, self.config, req.plan.seed)
        })?;
        Ok(Explanation::Rules(vec![rule]))
    }

    fn as_shardable(&self) -> Option<&dyn ShardableExplainer> {
        Some(self)
    }
}

impl ShardableExplainer for AnchorsMethod {
    fn draw_grid(&self, req: &ExplainRequest<'_>) -> XaiResult<DrawGrid> {
        reject_budget("Anchors", req)?;
        req.need_instance("Anchors")?;
        Ok(DrawGrid { total_draws: self.pool.max(1), chunk_size: 1 })
    }

    fn explain_chunks(
        &self,
        model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        chunks: std::ops::Range<usize>,
    ) -> XaiResult<Json> {
        let instance = req.need_instance("Anchors")?;
        validate::finite_slice("Anchors instance", instance)?;
        validate::finite_matrix("Anchors dataset", req.data.x())?;
        let explainer = AnchorsExplainer::fit(req.data);
        let f = |x: &[f64]| model.predict(x);
        let mut out = Vec::with_capacity(chunks.len());
        for c in chunks {
            let rule = catch_model("Anchors bandit search", || {
                explainer.explain(&f, instance, self.config, child_seed(req.plan.seed, c as u64))
            })?;
            out.push(rule_to_json(&rule)?);
        }
        Ok(chunks_json(out))
    }

    fn merge_chunks(
        &self,
        _model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        partials: Vec<Json>,
    ) -> XaiResult<Explanation> {
        const WHAT: &str = "Anchors merge";
        req.need_instance("Anchors")?;
        let grid = self.draw_grid(req)?;
        let flat = flatten_chunks(&partials, WHAT)?;
        if flat.len() != grid.n_chunks() {
            return Err(wire_error(format!(
                "{WHAT}: got {} pool candidates for a {}-candidate pool",
                flat.len(),
                grid.n_chunks()
            )));
        }
        let rules = flat
            .into_iter()
            .map(|r| rule_from_json(r, WHAT))
            .collect::<XaiResult<Vec<_>>>()?;
        let best = select_best(rules)
            .ok_or_else(|| wire_error(format!("{WHAT}: empty candidate pool")))?;
        Ok(Explanation::Rules(vec![best]))
    }

    fn config_json(&self) -> Json {
        Json::obj(vec![
            ("pool", Json::Num(self.pool as f64)),
            ("precision_target", Json::Num(self.config.precision_target)),
            ("delta", Json::Num(self.config.delta)),
            ("max_items", Json::Num(self.config.max_items as f64)),
            ("batch_size", Json::Num(self.config.batch_size as f64)),
            (
                "max_samples_per_round",
                Json::Num(self.config.max_samples_per_round as f64),
            ),
        ])
    }

    fn rebuild_from_config(&self, config: &Json) -> XaiResult<Box<dyn ShardableExplainer>> {
        const WHAT: &str = "Anchors config";
        let pool = index_field(config, "pool", WHAT)?;
        if pool == 0 {
            return Err(wire_error(format!("{WHAT}: pool must be >= 1")));
        }
        Ok(Box::new(Self {
            config: AnchorsConfig {
                precision_target: num_field(config, "precision_target", WHAT)?,
                delta: num_field(config, "delta", WHAT)?,
                max_items: index_field(config, "max_items", WHAT)?,
                batch_size: index_field(config, "batch_size", WHAT)?,
                max_samples_per_round: index_field(config, "max_samples_per_round", WHAT)?,
            },
            pool,
        }))
    }
}

/// Interpretable decision sets (§2.2) through the unified layer, fit as
/// a *global rule surrogate*: the model's own hard labels over the
/// request dataset become the target, so the mined rules describe the
/// model rather than the raw data.
#[derive(Clone, Copy, Debug, Default)]
pub struct DecisionSetMethod {
    /// Support, length and set-size caps of the mining step.
    pub config: IdsConfig,
}

impl Explainer for DecisionSetMethod {
    fn card(&self) -> MethodCard {
        method_card("Interpretable decision sets")
    }

    fn explain(&self, model: &dyn ModelOracle, req: &ExplainRequest<'_>) -> XaiResult<Explanation> {
        reject_budget("Interpretable decision sets", req)?;
        validate::finite_matrix("decision set dataset", req.data.x())?;
        let rules = catch_model("decision set surrogate fit", || {
            let labels: Vec<f64> = (0..req.data.n_rows())
                .map(|i| f64::from(model.predict(req.data.row(i)) >= 0.5))
                .collect();
            DecisionSet::fit(req.data, &labels, self.config).rules()
        })?;
        Ok(Explanation::Rules(rules))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_core::taxonomy::{Scope, Stage};
    use xai_core::{ExplanationForm, RunConfig};
    use xai_data::synth::german_credit;
    use xai_models::{LogisticConfig, LogisticRegression};

    #[test]
    fn cards_come_from_the_catalogue() {
        assert_eq!(AnchorsMethod::default().card().scope, Scope::Local);
        assert_eq!(AnchorsMethod::default().card().form, ExplanationForm::Rules);
        assert_eq!(DecisionSetMethod::default().card().stage, Stage::Intrinsic);
    }

    #[test]
    fn anchors_trait_path_yields_a_rule_for_the_instance() {
        let data = german_credit(120, 41);
        let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let row = data.row(0).to_vec();
        let req = ExplainRequest::new(&data).instance(&row).plan(RunConfig::seeded(2));
        let e = AnchorsMethod::default().explain(&model, &req).unwrap();
        let rules = e.as_rules().unwrap();
        assert_eq!(rules.len(), 1);
        assert!(rules[0].matches(&row), "anchor must cover its own instance");
    }

    #[test]
    fn decision_set_describes_the_model_not_the_labels() {
        let data = german_credit(150, 42);
        let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let req = ExplainRequest::new(&data);
        let e = DecisionSetMethod::default().explain(&model, &req).unwrap();
        let rules = e.as_rules().unwrap();
        assert!(!rules.is_empty(), "surrogate mined no rules");
        // The mined rules must agree with the model's own labels more
        // often than chance on the training rows.
        use xai_models::Classifier;
        let ds = {
            let labels: Vec<f64> = (0..data.n_rows())
                .map(|i| f64::from(model.proba_one(data.row(i)) >= 0.5))
                .collect();
            crate::ids::DecisionSet::fit(&data, &labels, IdsConfig::default())
        };
        let agree = (0..data.n_rows())
            .filter(|&i| {
                (ds.predict_one(data.row(i)) >= 0.5)
                    == (model.proba_one(data.row(i)) >= 0.5)
            })
            .count();
        assert!(agree * 2 > data.n_rows(), "agreement {agree}/{}", data.n_rows());
    }

    #[test]
    fn anchors_demands_an_instance() {
        let data = german_credit(50, 43);
        let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        assert!(matches!(
            AnchorsMethod::default().explain(&model, &ExplainRequest::new(&data)),
            Err(XaiError::Unsupported { .. })
        ));
    }
}
