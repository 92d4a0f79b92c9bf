//! The unified explainer layer (DESIGN.md §9): one object-safe trait and
//! one execution plan over every explanation family in the workspace.
//!
//! Every method is reached through a single shape:
//!
//! - [`Explainer`] — `card()` (taxonomy metadata) + `explain()` (run it);
//! - [`RunConfig`] (alias [`ExecPlan`]) — seed, worker count, batch
//!   switch, [`SampleBudget`], and [`DegradationPolicy`] in one value, so
//!   scalar/batched/parallel/budgeted execution is *configuration* of one
//!   method rather than separate functions;
//! - [`ExplainRequest`] — the inputs every family draws from (dataset,
//!   instance, background, held-out test set, utility, feature index);
//! - [`Explanation`] — a sum type over the workspace's output forms;
//! - [`ModelOracle`] — the model surface the trait dispatches on without
//!   `xai-core` depending on `xai-models` (which depends on this crate):
//!   a prediction oracle with optional batch, gradient and downcast
//!   capabilities that model-specific methods can probe at runtime.
//!
//! Determinism contract (`tests/explain_golden.rs` pins the bytes): each
//! sampled estimator has at most two draw layouts. `workers == 1` runs
//! the one-stream sequential layout, which also meters a budget;
//! `workers > 1` runs the method's [`crate::shard::ShardableExplainer`]
//! chunk grid on the executor through [`crate::backend::dispatch_local`],
//! the same code the process pool and the cluster run. Chunk `c` draws
//! from `child_seed(seed, c)`, so the result is worker-count-invariant
//! but intentionally distinct from the sequential stream. `batched` only
//! picks the model surface or coalition game both layouts evaluate
//! through, and never changes draws or bits.

use std::any::Any;

use crate::error::{SampleBudget, XaiError, XaiResult};
use crate::explanation::{Counterfactual, DataAttribution, FeatureAttribution, RuleExplanation};
use crate::taxonomy::{ExplanationForm, MethodCard};
use xai_data::Dataset;
use xai_linalg::Matrix;

/// How a method should respond when it can only produce a degraded result
/// (e.g. Kernel SHAP / LIME falling back to the ridge-escalation ladder on
/// a singular local system).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DegradationPolicy {
    /// Return the degraded estimate (flagged internally) — the default,
    /// matching the legacy free functions.
    #[default]
    BestEffort,
    /// Refuse: surface [`XaiError::SingularSystem`] instead of returning
    /// an estimate built on an escalated ridge.
    Strict,
}

/// The execution plan for one `explain` call: every execution switch in
/// one value.
///
/// | field | what it selects |
/// |---|---|
/// | `seed` | the stream every stochastic draw comes from |
/// | `workers` | `1`: the sequential layout; `> 1`: the chunk grid on that many threads |
/// | `batched` | nothing: accepted for wire compatibility |
/// | `budget` | best-effort estimation from a metered prefix (sequential layout) |
/// | `degradation` | strict rejection of ridge-escalated solves |
/// | `backend` | where the chunk grid runs: in process, process pool or cluster |
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunConfig {
    /// PRNG seed for every stochastic draw the method makes.
    pub seed: u64,
    /// Worker threads; `1` selects the sequential sampling stream,
    /// `> 1` the chunk grid (worker-count-invariant) on that many
    /// executor threads.
    pub workers: usize,
    /// Accepted for wire compatibility; selects nothing. Every explainer
    /// evaluates its model through one batched surface whatever this
    /// says, and the serve and shard codecs still carry the field, so it
    /// stays part of canonical request bytes and cache keys.
    pub batched: bool,
    /// Evaluation/wall-clock budget for Monte-Carlo methods.
    pub budget: SampleBudget,
    /// What to do when only a degraded estimate is available.
    pub degradation: DegradationPolicy,
    /// Where the run executes ([`crate::backend::BackendChoice`]):
    /// in-process (the default), the OS-process pool, or the TCP
    /// cluster. Backends are bit-identical; this picks a substrate, not
    /// a result.
    pub backend: crate::backend::BackendChoice,
}

/// The tentpole alias: an execution plan *is* a run configuration.
pub type ExecPlan = RunConfig;

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            workers: 1,
            batched: false,
            budget: SampleBudget::unlimited(),
            degradation: DegradationPolicy::BestEffort,
            backend: crate::backend::BackendChoice::Local,
        }
    }
}

impl RunConfig {
    /// Sequential, unlimited plan at `seed`.
    pub fn seeded(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker count (`>= 1`).
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "RunConfig workers must be >= 1");
        self.workers = workers;
        self
    }

    /// Sets the inert `batched` field (see [`RunConfig::batched`]).
    pub fn with_batched(mut self, batched: bool) -> Self {
        self.batched = batched;
        self
    }

    /// Attaches a sample budget.
    pub fn with_budget(mut self, budget: SampleBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Switches to [`DegradationPolicy::Strict`].
    pub fn strict(mut self) -> Self {
        self.degradation = DegradationPolicy::Strict;
        self
    }

    /// Selects the execution backend.
    pub fn with_backend(mut self, backend: crate::backend::BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// True when the plan selects the parallel sampling streams.
    pub fn parallel(&self) -> bool {
        self.workers > 1
    }

    /// True when a finite budget is attached.
    pub fn budgeted(&self) -> bool {
        !self.budget.is_unlimited()
    }
}

/// The model surface the unified layer dispatches on.
///
/// `xai-models` depends on `xai-core`, so the trait lives here and is
/// implemented there for every concrete model (classifiers expose their
/// positive-class probability, regressors their prediction — the same
/// convention as the legacy `proba_fn`/`regress_fn` adapters). Methods
/// that need more than a prediction oracle probe the optional
/// capabilities: [`gradient`](ModelOracle::gradient) for saliency/Wachter,
/// [`as_any`](ModelOracle::as_any) for structure-walking methods
/// (TreeSHAP, provenance) that downcast to a concrete model type.
pub trait ModelOracle: Sync {
    /// Input dimensionality.
    fn n_features(&self) -> usize;

    /// Scalar prediction (probability of the positive class for
    /// classifiers, predicted value for regressors).
    fn predict(&self, x: &[f64]) -> f64;

    /// Batched prediction over the rows of `rows`; overridden by concrete
    /// models to hit their vectorized kernels, so the batched trait path
    /// is bit-identical to the legacy `batch_*_fn` adapters.
    fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        rows.iter_rows().map(|r| self.predict(r)).collect()
    }

    /// Masked (zero-copy) coalition prediction, DESIGN.md §12. For each
    /// mask in `masks`, scores every background row's coalition view —
    /// `instance[k]` where bit `k` is set, the background value otherwise —
    /// and appends `background.rows()` predictions per mask to `out`
    /// (coalition-major). `out` is cleared first.
    ///
    /// The default gathers each view into an arena-leased scratch matrix
    /// and calls [`predict_batch`](ModelOracle::predict_batch), so it is
    /// bit-identical to materialized evaluation for any model whose batch
    /// path honours the row-independence contract. Models in `xai-models`
    /// override this with truly zero-copy masked kernels.
    ///
    /// # Panics
    /// Panics when arities disagree or `background.cols() > 64`.
    fn predict_masked(&self, instance: &[f64], background: &Matrix, masks: &[u64], out: &mut Vec<f64>) {
        let (b, d) = background.shape();
        assert_eq!(instance.len(), d, "predict_masked instance arity mismatch");
        assert!(d <= 64, "predict_masked supports at most 64 features, got {d}");
        out.clear();
        out.reserve(masks.len() * b);
        xai_linalg::arena::with_scratch_matrix(b, d, |scratch| {
            for &mask in masks {
                for bi in 0..b {
                    let src = background.row(bi);
                    let dst = scratch.row_mut(bi);
                    for (k, s) in dst.iter_mut().enumerate() {
                        *s = if mask >> k & 1 == 1 { instance[k] } else { src[k] };
                    }
                }
                out.extend_from_slice(&self.predict_batch(scratch));
            }
        });
    }

    /// Gradient of the prediction w.r.t. the input, when the model is
    /// differentiable.
    fn gradient(&self, x: &[f64]) -> Option<Vec<f64>> {
        let _ = x;
        None
    }

    /// Runtime downcast hook for model-specific methods.
    fn as_any(&self) -> Option<&dyn Any> {
        None
    }
}

impl<M: ModelOracle + ?Sized> ModelOracle for &M {
    fn n_features(&self) -> usize {
        (**self).n_features()
    }
    fn predict(&self, x: &[f64]) -> f64 {
        (**self).predict(x)
    }
    fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        (**self).predict_batch(rows)
    }
    fn predict_masked(&self, instance: &[f64], background: &Matrix, masks: &[u64], out: &mut Vec<f64>) {
        (**self).predict_masked(instance, background, masks, out)
    }
    fn gradient(&self, x: &[f64]) -> Option<Vec<f64>> {
        (**self).gradient(x)
    }
    fn as_any(&self) -> Option<&dyn Any> {
        (**self).as_any()
    }
}

/// A closure-backed [`ModelOracle`] for black boxes that exist only as a
/// prediction function (SQL scorers, remote services, test stubs).
pub struct FnOracle<F> {
    n_features: usize,
    f: F,
}

impl<F: Fn(&[f64]) -> f64 + Sync> FnOracle<F> {
    /// Wraps `f` as an oracle over `n_features` inputs.
    pub fn new(n_features: usize, f: F) -> Self {
        Self { n_features, f }
    }
}

impl<F: Fn(&[f64]) -> f64 + Sync> ModelOracle for FnOracle<F> {
    fn n_features(&self) -> usize {
        self.n_features
    }
    fn predict(&self, x: &[f64]) -> f64 {
        (self.f)(x)
    }
}

/// Training-set utility `v(S)` for data-valuation methods (§2.3): the
/// performance of a model trained on the subset `S` of training indices.
///
/// Lives here (rather than in `xai-datavalue`, which re-exports it) so the
/// unified request type can carry `&dyn Utility` without a crate cycle.
pub trait Utility {
    /// Utility of training on `subset` (indices into the training set).
    fn eval(&self, subset: &[usize]) -> f64;

    /// Number of training points being valued.
    fn n_train(&self) -> usize;
}

impl<U: Utility + ?Sized> Utility for &U {
    fn eval(&self, subset: &[usize]) -> f64 {
        (**self).eval(subset)
    }
    fn n_train(&self) -> usize {
        (**self).n_train()
    }
}

/// Everything an [`Explainer`] may draw on, plus the [`RunConfig`].
///
/// One request type serves all five output forms; each method reads the
/// fields it needs and reports [`XaiError::Unsupported`] when a required
/// field is absent (e.g. a local method without an `instance`).
#[derive(Clone, Copy)]
pub struct ExplainRequest<'a> {
    /// The dataset the explanation is grounded in (training set for
    /// valuation methods, background/sampling population otherwise).
    pub data: &'a Dataset,
    /// The instance under explanation (local methods).
    pub instance: Option<&'a [f64]>,
    /// Background matrix for coalition methods; defaults to `data.x()`.
    pub background: Option<&'a Matrix>,
    /// Held-out set for utility construction (valuation methods).
    pub test: Option<&'a Dataset>,
    /// Explicit training-set utility; when absent, valuation methods
    /// build a default utility from `data`/`test`.
    pub utility: Option<&'a (dyn Utility + Sync)>,
    /// Feature index for per-feature curves (PDP/ICE).
    pub feature: Option<usize>,
    /// Shared cross-request coalition memo (DESIGN.md §12). When present,
    /// coalition methods consult it before calling the model and publish
    /// fresh values back; absent means every coalition is evaluated live.
    pub memo: Option<crate::memo::MemoHandle<'a>>,
    /// The execution plan.
    pub plan: RunConfig,
}

impl<'a> ExplainRequest<'a> {
    /// A request grounded in `data` with the default plan.
    pub fn new(data: &'a Dataset) -> Self {
        Self {
            data,
            instance: None,
            background: None,
            test: None,
            utility: None,
            feature: None,
            memo: None,
            plan: RunConfig::default(),
        }
    }

    /// Sets the instance under explanation.
    pub fn instance(mut self, x: &'a [f64]) -> Self {
        self.instance = Some(x);
        self
    }

    /// Sets an explicit background matrix.
    pub fn background(mut self, m: &'a Matrix) -> Self {
        self.background = Some(m);
        self
    }

    /// Sets the held-out test set.
    pub fn test(mut self, d: &'a Dataset) -> Self {
        self.test = Some(d);
        self
    }

    /// Sets an explicit training-set utility.
    pub fn utility(mut self, u: &'a (dyn Utility + Sync)) -> Self {
        self.utility = Some(u);
        self
    }

    /// Sets the feature index for curve methods.
    pub fn feature(mut self, j: usize) -> Self {
        self.feature = Some(j);
        self
    }

    /// Attaches a shared coalition memo.
    pub fn memo(mut self, handle: crate::memo::MemoHandle<'a>) -> Self {
        self.memo = Some(handle);
        self
    }

    /// Sets the execution plan.
    pub fn plan(mut self, plan: RunConfig) -> Self {
        self.plan = plan;
        self
    }

    /// The instance, or [`XaiError::Unsupported`] naming the method.
    pub fn need_instance(&self, method: &str) -> XaiResult<&'a [f64]> {
        self.instance.ok_or_else(|| XaiError::Unsupported {
            context: format!("{method} is a local method and needs ExplainRequest::instance"),
        })
    }

    /// Explicit background, falling back to the dataset's design matrix.
    pub fn background_or_data(&self) -> &'a Matrix {
        self.background.unwrap_or_else(|| self.data.x())
    }

    /// Test set for utility construction, falling back to `data`.
    pub fn test_or_data(&self) -> &'a Dataset {
        self.test.unwrap_or(self.data)
    }

    /// Owned feature names from the dataset schema.
    pub fn feature_names(&self) -> Vec<String> {
        self.data.schema().names().into_iter().map(str::to_string).collect()
    }
}

/// A partial-dependence / ICE curve in the unified output type: the
/// model's mean response as one feature sweeps a grid.
#[derive(Clone, Debug, PartialEq)]
pub struct CurveExplanation {
    /// The swept feature's column index.
    pub feature: usize,
    /// Grid of values the feature was set to.
    pub grid: Vec<f64>,
    /// Mean model response at each grid point (the PDP curve).
    pub values: Vec<f64>,
    /// Per-row response curves (ICE), when kept.
    pub ice: Option<Vec<Vec<f64>>>,
}

/// The sum type over every output form an [`Explainer`] can produce.
#[derive(Clone, Debug)]
pub enum Explanation {
    /// Per-feature attribution scores.
    Attribution(FeatureAttribution),
    /// If-then rules (anchors, decision sets).
    Rules(Vec<RuleExplanation>),
    /// Contrastive examples / recourse actions.
    Counterfactuals(Vec<Counterfactual>),
    /// Scores over training examples.
    DataValuation(DataAttribution),
    /// Per-feature response curves (PDP/ICE).
    Curve(CurveExplanation),
}

impl Explanation {
    /// The taxonomy form this explanation takes (curves report as
    /// [`ExplanationForm::FeatureAttribution`], matching their card).
    pub fn form(&self) -> ExplanationForm {
        match self {
            Explanation::Attribution(_) | Explanation::Curve(_) => {
                ExplanationForm::FeatureAttribution
            }
            Explanation::Rules(_) => ExplanationForm::Rules,
            Explanation::Counterfactuals(_) => ExplanationForm::Counterfactual,
            Explanation::DataValuation(_) => ExplanationForm::DataValuation,
        }
    }

    /// The attribution, if this is one.
    pub fn as_attribution(&self) -> Option<&FeatureAttribution> {
        match self {
            Explanation::Attribution(a) => Some(a),
            _ => None,
        }
    }

    /// The rules, if this is a rule explanation.
    pub fn as_rules(&self) -> Option<&[RuleExplanation]> {
        match self {
            Explanation::Rules(r) => Some(r),
            _ => None,
        }
    }

    /// The counterfactuals, if any.
    pub fn as_counterfactuals(&self) -> Option<&[Counterfactual]> {
        match self {
            Explanation::Counterfactuals(c) => Some(c),
            _ => None,
        }
    }

    /// The data valuation, if this is one.
    pub fn as_valuation(&self) -> Option<&DataAttribution> {
        match self {
            Explanation::DataValuation(d) => Some(d),
            _ => None,
        }
    }

    /// The curve, if this is one.
    pub fn as_curve(&self) -> Option<&CurveExplanation> {
        match self {
            Explanation::Curve(c) => Some(c),
            _ => None,
        }
    }
}

/// One explanation method, runnable and self-describing.
///
/// Object-safe by construction: the `Registry` stores
/// `Arc<dyn Explainer>` and `Registry::resolve` hands live explainers
/// back to callers who selected them by taxonomy position.
pub trait Explainer: Send + Sync {
    /// This method's taxonomy card.
    fn card(&self) -> MethodCard;

    /// Runs the method against `model` as configured by `req.plan`.
    fn explain(&self, model: &dyn ModelOracle, req: &ExplainRequest<'_>) -> XaiResult<Explanation>;

    /// The shard-plan view of this method, when its random draws
    /// partition into deterministic shards (DESIGN.md §11). Methods with
    /// a fixed chunk grid override this with `Some(self)`; the default
    /// opts out.
    fn as_shardable(&self) -> Option<&dyn crate::shard::ShardableExplainer> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_data::synth::circles;

    #[test]
    fn run_config_builder_covers_every_switch() {
        let plan = RunConfig::seeded(7)
            .with_workers(4)
            .with_batched(true)
            .with_budget(SampleBudget::with_max_evals(100))
            .strict();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.workers, 4);
        assert!(plan.batched && plan.parallel() && plan.budgeted());
        assert_eq!(plan.degradation, DegradationPolicy::Strict);
        let default = RunConfig::default();
        assert!(!default.parallel() && !default.batched && !default.budgeted());
        assert_eq!(default.degradation, DegradationPolicy::BestEffort);
    }

    #[test]
    #[should_panic(expected = "workers must be >= 1")]
    fn zero_workers_is_rejected() {
        let _ = RunConfig::default().with_workers(0);
    }

    #[test]
    fn fn_oracle_predicts_and_batches() {
        let oracle = FnOracle::new(2, |x: &[f64]| x[0] + 2.0 * x[1]);
        assert_eq!(oracle.n_features(), 2);
        assert_eq!(oracle.predict(&[1.0, 2.0]), 5.0);
        let rows = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert_eq!(oracle.predict_batch(&rows), vec![1.0, 2.0]);
        assert!(oracle.gradient(&[0.0, 0.0]).is_none());
        assert!(oracle.as_any().is_none());
        // The reference blanket impl forwards everything.
        let by_ref: &dyn ModelOracle = &&oracle;
        assert_eq!(by_ref.predict(&[1.0, 2.0]), 5.0);
    }

    #[test]
    fn request_builder_and_accessors() {
        let data = circles(40, 3, 0.05);
        let row = data.row(0).to_vec();
        let req = ExplainRequest::new(&data)
            .instance(&row)
            .feature(1)
            .plan(RunConfig::seeded(3));
        assert_eq!(req.need_instance("LIME").unwrap(), &row[..]);
        assert_eq!(req.feature, Some(1));
        assert_eq!(req.plan.seed, 3);
        assert_eq!(req.background_or_data().rows(), data.x().rows());
        assert_eq!(req.test_or_data().n_rows(), data.n_rows());
        assert_eq!(req.feature_names().len(), data.x().cols());

        let bare = ExplainRequest::new(&data);
        let err = bare.need_instance("Kernel SHAP").unwrap_err();
        assert!(matches!(err, XaiError::Unsupported { ref context } if context.contains("Kernel SHAP")));
    }

    #[test]
    fn explanation_forms_and_accessors() {
        let attr = FeatureAttribution::new(
            vec!["a".into(), "b".into()],
            vec![0.5, -0.25],
            0.0,
            0.25,
        );
        let e = Explanation::Attribution(attr);
        assert_eq!(e.form(), ExplanationForm::FeatureAttribution);
        assert!(e.as_attribution().is_some());
        assert!(e.as_rules().is_none() && e.as_curve().is_none());

        let c = Explanation::Curve(CurveExplanation {
            feature: 0,
            grid: vec![0.0, 1.0],
            values: vec![0.1, 0.9],
            ice: None,
        });
        assert_eq!(c.form(), ExplanationForm::FeatureAttribution);
        assert!(c.as_curve().is_some() && c.as_attribution().is_none());

        let r = Explanation::Rules(vec![]);
        assert_eq!(r.form(), ExplanationForm::Rules);
        let cf = Explanation::Counterfactuals(vec![]);
        assert_eq!(cf.form(), ExplanationForm::Counterfactual);
    }

    #[test]
    fn utility_blanket_impl_forwards() {
        struct Fixed;
        impl Utility for Fixed {
            fn eval(&self, subset: &[usize]) -> f64 {
                subset.len() as f64
            }
            fn n_train(&self) -> usize {
                5
            }
        }
        let u = Fixed;
        let by_ref: &dyn Utility = &&u;
        assert_eq!(by_ref.eval(&[0, 1, 2]), 3.0);
        assert_eq!(by_ref.n_train(), 5);
    }
}
