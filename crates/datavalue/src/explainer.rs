//! Unified-layer `Explainer` impls for the data-valuation family
//! (DESIGN.md §9): leave-one-out, truncated Monte-Carlo data Shapley and
//! data Banzhaf, all scoring *training points* rather than features.
//!
//! The utility being attributed comes from [`ExplainRequest::utility`]
//! when the caller supplies one; otherwise each method falls back to the
//! workspace default — retraining a logistic model on the request
//! dataset and scoring it on [`ExplainRequest::test_or_data`]. The
//! `model` oracle argument is unused by that fallback (valuation
//! explains the *training set × learner* pair, not a fitted model), but
//! stays in the signature so the family is callable through the same
//! trait as everything else.
//!
//! Dispatch contract (pinned by `tests/explain_golden.rs`): `workers > 1`
//! runs each method's chunk grid — permutation chunks (TMC), per-point
//! coalition streams (Banzhaf) and fixed point chunks (LOO) — on the
//! executor through [`xai_core::backend::dispatch_local`], the same
//! `explain_chunks` → `merge_chunks` code every shard backend runs
//! (DESIGN.md §11). TMC's and Banzhaf's chunk streams are a different
//! draw schedule than their one-stream sequential layouts; LOO draws
//! nothing, so its two layouts agree bit for bit. `RunConfig::budget` is
//! honoured by TMC (via [`try_tmc_shapley_budgeted`]) and by Banzhaf (via
//! [`try_data_banzhaf_budgeted`]), each on the sequential path only —
//! budget + `workers > 1` is rejected as [`XaiError::Unsupported`], as is
//! a budget on LOO, whose deterministic point sweep has no draw stream to
//! truncate. No method here evaluates in batches, so `batched` is a
//! no-op.

use xai_core::backend::dispatch_local;
use xai_core::shard::{
    chunks_json, flatten_chunks, index_field, num_field, nums_field, reject_budget, shard_nums,
    wire_error, DrawGrid, ShardableExplainer,
};
use xai_core::taxonomy::method_card;
use xai_core::{
    DataAttribution, ExplainRequest, Explainer, Explanation, Json, MethodCard, ModelOracle,
    XaiError, XaiResult,
};
use xai_models::LogisticConfig;
use xai_rand::rngs::StdRng;
use xai_rand::{child_seed, SeedableRng};

use crate::banzhaf::{self, try_data_banzhaf_budgeted, BanzhafConfig};
use crate::data_shapley::{self, try_tmc_shapley_budgeted, TmcConfig};
use crate::loo::{self, try_leave_one_out};
use crate::parallel;
use crate::utility::{check_finite_values, LogisticUtility, Utility};

/// The utility a valuation request resolves to: the caller's own, or the
/// default logistic retraining utility built on the request data.
enum Util<'a> {
    Borrowed(&'a (dyn Utility + Sync)),
    Logistic(LogisticUtility<'a>),
}

impl Utility for Util<'_> {
    fn eval(&self, subset: &[usize]) -> f64 {
        match self {
            Util::Borrowed(u) => u.eval(subset),
            Util::Logistic(u) => u.eval(subset),
        }
    }
    fn n_train(&self) -> usize {
        match self {
            Util::Borrowed(u) => u.n_train(),
            Util::Logistic(u) => u.n_train(),
        }
    }
}

fn resolve_utility<'a>(req: &ExplainRequest<'a>) -> Util<'a> {
    match req.utility {
        Some(u) => Util::Borrowed(u),
        None => Util::Logistic(LogisticUtility::new(
            req.data,
            req.test_or_data(),
            LogisticConfig::default(),
        )),
    }
}

/// Leave-one-out data valuation (§2.3.1) through the unified layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct LooMethod;

impl Explainer for LooMethod {
    fn card(&self) -> MethodCard {
        method_card("Leave-one-out")
    }

    fn explain(&self, model: &dyn ModelOracle, req: &ExplainRequest<'_>) -> XaiResult<Explanation> {
        reject_budget("Leave-one-out", req)?;
        if req.plan.parallel() {
            return dispatch_local(self, model, req, req.plan.workers);
        }
        Ok(Explanation::DataValuation(try_leave_one_out(&resolve_utility(req))?))
    }

    fn as_shardable(&self) -> Option<&dyn ShardableExplainer> {
        Some(self)
    }
}

impl LooMethod {
    /// Rebuilds the method from its canonical shard-config JSON (LOO has
    /// no tunables, so any object is accepted).
    pub fn from_config_json(_config: &Json) -> XaiResult<Self> {
        Ok(Self)
    }
}

impl ShardableExplainer for LooMethod {
    fn draw_grid(&self, req: &ExplainRequest<'_>) -> XaiResult<DrawGrid> {
        reject_budget("Leave-one-out", req)?;
        let n = resolve_utility(req).n_train();
        Ok(DrawGrid { total_draws: n, chunk_size: loo::POINTS_PER_CHUNK })
    }

    fn explain_chunks(
        &self,
        _model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        chunks: std::ops::Range<usize>,
    ) -> XaiResult<Json> {
        let utility = resolve_utility(req);
        let grid = self.draw_grid(req)?;
        let n = utility.n_train();
        let all: Vec<usize> = (0..n).collect();
        let full =
            xai_core::catch_model("leave-one-out full-set retraining", || utility.eval(&all))?;
        let mut out = Vec::with_capacity(chunks.len());
        for c in chunks {
            // LOO draws no randomness; chunk c is a pure function of its range.
            let values = loo::loo_chunk_values(&utility, full, grid.chunk_range(c));
            out.push(Json::obj(vec![(
                "values",
                shard_nums("leave-one-out chunk values", &values)?,
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
        const WHAT: &str = "leave-one-out merge";
        let grid = self.draw_grid(req)?;
        let flat = flatten_chunks(&partials, WHAT)?;
        if flat.len() != grid.n_chunks() {
            return Err(wire_error(format!(
                "{WHAT}: got {} chunk partials for a {}-chunk grid",
                flat.len(),
                grid.n_chunks()
            )));
        }
        let mut values = Vec::with_capacity(grid.total_draws);
        for (c, chunk) in flat.iter().enumerate() {
            let chunk_values = nums_field(chunk, "values", WHAT)?;
            if chunk_values.len() != grid.chunk_range(c).len() {
                return Err(wire_error(format!(
                    "{WHAT}: chunk {c} carries {} values for a {}-point range",
                    chunk_values.len(),
                    grid.chunk_range(c).len()
                )));
            }
            values.extend(chunk_values);
        }
        check_finite_values(&values, "leave-one-out")?;
        Ok(Explanation::DataValuation(DataAttribution {
            values,
            measure: "leave-one-out utility change".into(),
        }))
    }

    fn config_json(&self) -> Json {
        Json::obj(vec![])
    }
}

/// Truncated Monte-Carlo data Shapley (§2.3.1) through the unified
/// layer. The only valuation method with a budgeted path: a
/// `RunConfig::budget` meters utility evaluations (sequential execution
/// only — combine it with `workers > 1` and the request is rejected).
#[derive(Clone, Copy, Debug, Default)]
pub struct TmcMethod {
    /// Permutation count and truncation tolerance; the config's own
    /// `seed` is overridden by `RunConfig::seed`.
    pub config: TmcConfig,
}

impl Explainer for TmcMethod {
    fn card(&self) -> MethodCard {
        method_card("Data Shapley (TMC)")
    }

    fn explain(&self, model: &dyn ModelOracle, req: &ExplainRequest<'_>) -> XaiResult<Explanation> {
        let plan = req.plan;
        if plan.parallel() {
            return dispatch_local(self, model, req, plan.workers);
        }
        let config = TmcConfig { seed: plan.seed, ..self.config };
        let att = try_tmc_shapley_budgeted(&resolve_utility(req), config, plan.budget)?;
        Ok(Explanation::DataValuation(att.attribution))
    }

    fn as_shardable(&self) -> Option<&dyn ShardableExplainer> {
        Some(self)
    }
}

impl TmcMethod {
    /// Rebuilds the method from its canonical shard-config JSON.
    pub fn from_config_json(config: &Json) -> XaiResult<Self> {
        let permutations = index_field(config, "permutations", "TMC config")?;
        if permutations == 0 {
            return Err(wire_error("TMC config: permutations must be >= 1"));
        }
        let truncation_tolerance = num_field(config, "truncation_tolerance", "TMC config")?;
        Ok(Self { config: TmcConfig { permutations, truncation_tolerance, seed: 0 } })
    }
}

impl ShardableExplainer for TmcMethod {
    fn draw_grid(&self, req: &ExplainRequest<'_>) -> XaiResult<DrawGrid> {
        // The chunk layout meters no budget.
        reject_budget("Data Shapley (TMC) with workers > 1", req)?;
        data_shapley::check_config(&self.config)?;
        Ok(DrawGrid {
            total_draws: self.config.permutations,
            chunk_size: parallel::PERMS_PER_CHUNK,
        })
    }

    fn explain_chunks(
        &self,
        _model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        chunks: std::ops::Range<usize>,
    ) -> XaiResult<Json> {
        let config = TmcConfig { seed: req.plan.seed, ..self.config };
        let utility = resolve_utility(req);
        let grid = self.draw_grid(req)?;
        let (full_score, empty_score) = parallel::tmc_endpoints(&utility)?;
        let mut out = Vec::with_capacity(chunks.len());
        for c in chunks {
            let mut rng = StdRng::seed_from_u64(child_seed(config.seed, c as u64));
            let sums = parallel::tmc_chunk_sums(
                &utility,
                config,
                grid.chunk_range(c).len(),
                full_score,
                empty_score,
                &mut rng,
            );
            out.push(Json::obj(vec![("sums", shard_nums("TMC chunk sums", &sums)?)]));
        }
        Ok(chunks_json(out))
    }

    fn merge_chunks(
        &self,
        _model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        partials: Vec<Json>,
    ) -> XaiResult<Explanation> {
        const WHAT: &str = "TMC merge";
        let utility = resolve_utility(req);
        let grid = self.draw_grid(req)?;
        let n = utility.n_train();
        let flat = flatten_chunks(&partials, WHAT)?;
        if flat.len() != grid.n_chunks() {
            return Err(wire_error(format!(
                "{WHAT}: got {} chunk partials for a {}-chunk grid",
                flat.len(),
                grid.n_chunks()
            )));
        }
        let mut chunk_sums = Vec::with_capacity(flat.len());
        for (c, chunk) in flat.iter().enumerate() {
            let sums = nums_field(chunk, "sums", WHAT)?;
            if sums.len() != n {
                return Err(wire_error(format!(
                    "{WHAT}: chunk {c} carries {} sums for {n} training points",
                    sums.len()
                )));
            }
            chunk_sums.push(sums);
        }
        let att = parallel::tmc_finish(chunk_sums, self.config.permutations, req.plan.workers)?;
        Ok(Explanation::DataValuation(att))
    }

    fn config_json(&self) -> Json {
        Json::obj(vec![
            ("permutations", Json::Num(self.config.permutations as f64)),
            ("truncation_tolerance", Json::Num(self.config.truncation_tolerance)),
        ])
    }
}

/// Monte-Carlo data Banzhaf valuation (§2.3.1) through the unified
/// layer; the uniform-coalition estimator that is provably most robust
/// to noisy utilities. A `RunConfig::budget` meters utility evaluations
/// (sequential execution only — combined with `workers > 1` the request
/// is rejected, mirroring TMC).
#[derive(Clone, Copy, Debug, Default)]
pub struct BanzhafMethod {
    /// Coalition draws per training point; the config's own `seed` is
    /// overridden by `RunConfig::seed`.
    pub config: BanzhafConfig,
}

impl Explainer for BanzhafMethod {
    fn card(&self) -> MethodCard {
        method_card("Data Banzhaf")
    }

    fn explain(&self, model: &dyn ModelOracle, req: &ExplainRequest<'_>) -> XaiResult<Explanation> {
        let plan = req.plan;
        if plan.parallel() {
            return dispatch_local(self, model, req, plan.workers);
        }
        let config = BanzhafConfig { seed: plan.seed, ..self.config };
        let att = try_data_banzhaf_budgeted(&resolve_utility(req), config, plan.budget)?;
        Ok(Explanation::DataValuation(att))
    }

    fn as_shardable(&self) -> Option<&dyn ShardableExplainer> {
        Some(self)
    }
}

impl BanzhafMethod {
    /// Rebuilds the method from its canonical shard-config JSON.
    pub fn from_config_json(config: &Json) -> XaiResult<Self> {
        let samples_per_point = index_field(config, "samples_per_point", "Banzhaf config")?;
        if samples_per_point == 0 {
            return Err(wire_error("Banzhaf config: samples_per_point must be >= 1"));
        }
        Ok(Self { config: BanzhafConfig { samples_per_point, seed: 0 } })
    }
}

impl ShardableExplainer for BanzhafMethod {
    fn draw_grid(&self, req: &ExplainRequest<'_>) -> XaiResult<DrawGrid> {
        reject_budget("Data Banzhaf", req)?;
        banzhaf::check_config(&self.config)?;
        let n = resolve_utility(req).n_train();
        // One chunk per training point: point i draws from child_seed(seed, i).
        Ok(DrawGrid { total_draws: n, chunk_size: 1 })
    }

    fn explain_chunks(
        &self,
        _model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        chunks: std::ops::Range<usize>,
    ) -> XaiResult<Json> {
        let config = BanzhafConfig { seed: req.plan.seed, ..self.config };
        let utility = resolve_utility(req);
        let mut out = Vec::with_capacity(chunks.len());
        for c in chunks {
            let mut rng = StdRng::seed_from_u64(child_seed(config.seed, c as u64));
            let value = parallel::banzhaf_point(&utility, config, c, &mut rng);
            if !value.is_finite() {
                return Err(XaiError::ModelFault {
                    context: format!("data Banzhaf: point {c} value is {value}"),
                });
            }
            out.push(Json::obj(vec![("value", Json::Num(value))]));
        }
        Ok(chunks_json(out))
    }

    fn merge_chunks(
        &self,
        _model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        partials: Vec<Json>,
    ) -> XaiResult<Explanation> {
        const WHAT: &str = "data Banzhaf merge";
        let grid = self.draw_grid(req)?;
        let flat = flatten_chunks(&partials, WHAT)?;
        if flat.len() != grid.n_chunks() {
            return Err(wire_error(format!(
                "{WHAT}: got {} point partials for {} training points",
                flat.len(),
                grid.n_chunks()
            )));
        }
        let values = flat
            .iter()
            .map(|chunk| num_field(chunk, "value", WHAT))
            .collect::<XaiResult<Vec<_>>>()?;
        let att = parallel::banzhaf_finish(values, req.plan.workers)?;
        Ok(Explanation::DataValuation(att))
    }

    fn config_json(&self) -> Json {
        Json::obj(vec![("samples_per_point", Json::Num(self.config.samples_per_point as f64))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::FnUtility;
    use xai_core::taxonomy::{Scope, Stage};
    use xai_core::{RunConfig, SampleBudget};
    use xai_data::synth::german_credit;
    use xai_models::{LogisticRegression, Regressor};

    /// A cheap additive utility: value of a subset is the sum of its
    /// members' indices (so point i is worth exactly i under LOO).
    fn additive(n: usize) -> FnUtility<impl Fn(&[usize]) -> f64> {
        FnUtility::new(n, |s: &[usize]| s.iter().map(|&i| i as f64).sum())
    }

    fn fit_model(data: &xai_data::Dataset) -> LogisticRegression {
        LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default())
    }

    #[test]
    fn cards_come_from_the_catalogue() {
        assert_eq!(LooMethod.card().scope, Scope::TrainingData);
        assert_eq!(TmcMethod::default().card().stage, Stage::PostHoc);
        assert_eq!(BanzhafMethod::default().card().name, "Data Banzhaf");
    }

    #[test]
    fn loo_trait_path_matches_legacy_and_is_worker_invariant() {
        let u = additive(8);
        let data = german_credit(20, 7);
        let model = fit_model(&data);
        let legacy = crate::loo::leave_one_out(&u);
        for workers in [1usize, 2, 4] {
            let req = ExplainRequest::new(&data)
                .utility(&u)
                .plan(RunConfig::seeded(3).with_workers(workers));
            let e = LooMethod.explain(&model, &req).unwrap();
            assert_eq!(e.as_valuation().unwrap().values, legacy.values, "workers={workers}");
        }
    }

    #[test]
    fn tmc_trait_path_matches_the_sequential_estimator() {
        let u = additive(8);
        let data = german_credit(20, 8);
        let model = fit_model(&data);
        let config = TmcConfig { permutations: 12, seed: 9, ..TmcConfig::default() };
        let method = TmcMethod { config };

        let seq = crate::data_shapley::tmc_shapley(&u, config);
        let req = ExplainRequest::new(&data).utility(&u).plan(RunConfig::seeded(9));
        let e = method.explain(&model, &req).unwrap();
        assert_eq!(e.as_valuation().unwrap().values, seq.attribution.values);

        // workers > 1 runs the chunk grid: worker-count invariant.
        let chunked = |workers| {
            let req = ExplainRequest::new(&data)
                .utility(&u)
                .plan(RunConfig::seeded(9).with_workers(workers));
            method.explain(&model, &req).unwrap().as_valuation().unwrap().values.clone()
        };
        assert_eq!(chunked(2), chunked(4));
    }

    #[test]
    fn banzhaf_trait_path_matches_legacy_at_the_plan_seed() {
        let u = additive(8);
        let data = german_credit(20, 11);
        let model = fit_model(&data);
        let config = BanzhafConfig { samples_per_point: 16, seed: 0 };
        let legacy =
            crate::banzhaf::data_banzhaf(&u, BanzhafConfig { seed: 21, ..config });
        let req = ExplainRequest::new(&data).utility(&u).plan(RunConfig::seeded(21));
        let e = BanzhafMethod { config }.explain(&model, &req).unwrap();
        assert_eq!(e.as_valuation().unwrap().values, legacy.values);
    }

    #[test]
    fn tmc_honours_a_sequential_budget_and_rejects_a_parallel_one() {
        let u = additive(8);
        let data = german_credit(20, 12);
        let model = fit_model(&data);
        let budget = SampleBudget::with_max_evals(40);
        let req = ExplainRequest::new(&data)
            .utility(&u)
            .plan(RunConfig::seeded(4).with_budget(budget));
        let e = TmcMethod::default().explain(&model, &req).unwrap();
        assert_eq!(e.as_valuation().unwrap().values.len(), 8);

        let req = ExplainRequest::new(&data)
            .utility(&u)
            .plan(RunConfig::seeded(4).with_budget(budget).with_workers(2));
        assert!(matches!(
            TmcMethod::default().explain(&model, &req),
            Err(XaiError::Unsupported { .. })
        ));
        let req = ExplainRequest::new(&data)
            .utility(&u)
            .plan(RunConfig::seeded(4).with_budget(budget));
        assert!(matches!(
            LooMethod.explain(&model, &req),
            Err(XaiError::Unsupported { .. })
        ));
    }

    #[test]
    fn default_utility_retrains_logistic_on_the_request_data() {
        let data = german_credit(16, 13);
        let model = fit_model(&data);
        let req = ExplainRequest::new(&data).plan(RunConfig::seeded(2));
        let e = LooMethod.explain(&model, &req).unwrap();
        let vals = &e.as_valuation().unwrap().values;
        assert_eq!(vals.len(), data.n_rows());
        assert!(vals.iter().all(|v| v.is_finite()));
        // Sanity: the unused oracle really is unused — a regressor fit
        // elsewhere gives the same valuation.
        let other = xai_models::LinearRegression::fit(
            data.x(),
            data.y(),
            xai_models::LinearConfig::default(),
        )
        .unwrap();
        let _ = other.predict_one(data.row(0));
        let e2 = LooMethod.explain(&other, &req).unwrap();
        assert_eq!(e2.as_valuation().unwrap().values, *vals);
    }
}
