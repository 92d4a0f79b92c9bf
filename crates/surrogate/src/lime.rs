//! LIME for tabular data (Ribeiro, Singh & Guestrin, §2.1.1 \[53\]).
//!
//! The local surrogate recipe: (1) sample perturbations around the
//! instance, (2) weight them by an exponential locality kernel, (3) fit a
//! weighted ridge regression to the black-box outputs, (4) read the
//! coefficients as the explanation. The assumptions the tutorial flags —
//! that the weighted linear model captures the local surface and that the
//! neighbourhood sampling is reliable — are exactly the knobs exposed
//! here ([`LimeConfig::kernel_width`], [`LimeConfig::n_samples`]) and
//! measured by `stability` and experiments E5/E7.

use xai_rand::rngs::StdRng;
use xai_rand::SeedableRng;
use xai_core::{catch_model, validate, FeatureAttribution, SampleBudget, XaiError, XaiResult};
use xai_data::{Dataset, FeatureKind};
use xai_linalg::distr::normal;
use xai_linalg::solve::weighted_r_squared;
use xai_linalg::{weighted_least_squares, Matrix};

/// Configuration for [`LimeExplainer::explain`].
#[derive(Clone, Copy, Debug)]
pub struct LimeConfig {
    /// Number of perturbed samples.
    pub n_samples: usize,
    /// Exponential kernel width in standardized-distance units;
    /// `None` uses the LIME default `0.75 · √d`.
    pub kernel_width: Option<f64>,
    /// Ridge penalty of the surrogate fit.
    pub ridge: f64,
    /// Keep only this many features in the final surrogate (the rest get
    /// zero attribution); `None` keeps all.
    pub max_features: Option<usize>,
}

impl Default for LimeConfig {
    fn default() -> Self {
        Self { n_samples: 1000, kernel_width: None, ridge: 1e-3, max_features: None }
    }
}

/// Probes per chunk of the chunk layout: chunk `c` draws its probes from
/// the `child_seed(seed, c)` stream, so any worker count — and any shard
/// partition over the same chunk grid — sees the same neighbourhood.
/// Also the deadline-check round of the sequential layout.
pub(crate) const PROBES_PER_CHUNK: usize = 32;

/// The smallest neighbourhood a surrogate is fitted on.
const MIN_PROBES: usize = 8;

/// Rejects a neighbourhood too small to fit; shared by both draw layouts.
pub(crate) fn check_samples(n_samples: usize) -> XaiResult<()> {
    if n_samples < MIN_PROBES {
        return Err(XaiError::Unsupported {
            context: format!("LIME needs n_samples >= {MIN_PROBES}, got {n_samples}"),
        });
    }
    Ok(())
}

/// The kernel width a config resolves to at dimensionality `d` — shared
/// by the sequential neighbourhood and the chunked probe stream (it must
/// not depend on the sample count, or budgeted prefixes would diverge).
pub(crate) fn width_for(config: LimeConfig, d: usize) -> f64 {
    config.kernel_width.unwrap_or(0.75 * (d as f64).sqrt()).max(1e-9)
}

/// A fitted LIME explainer: captures the training statistics used to
/// generate and standardize perturbations.
#[derive(Clone, Debug)]
pub struct LimeExplainer {
    feature_names: Vec<String>,
    /// Per-feature (mean, std) for numeric features.
    numeric_stats: Vec<Option<(f64, f64)>>,
    /// Per-feature category frequencies for categorical features.
    category_freqs: Vec<Option<Vec<f64>>>,
}

/// A LIME explanation: attribution plus the surrogate's quality.
#[derive(Clone, Debug)]
pub struct LimeExplanation {
    /// Per-feature coefficients in *standardized* units (comparable across
    /// features), signed toward the model output.
    pub attribution: FeatureAttribution,
    /// Weighted R² of the surrogate on its own neighbourhood — LIME's
    /// local-fidelity score.
    pub local_fidelity: f64,
    /// The kernel width actually used.
    pub kernel_width: f64,
    /// True when the surrogate regression was singular at the configured
    /// ridge and the coefficients come from an escalated-ridge fallback
    /// solve; treat the attribution as best-effort.
    pub degraded: bool,
}

impl LimeExplainer {
    /// Captures training-data statistics for the perturbation sampler.
    pub fn fit(data: &Dataset) -> Self {
        let d = data.n_features();
        let mut numeric_stats = Vec::with_capacity(d);
        let mut category_freqs = Vec::with_capacity(d);
        for j in 0..d {
            let col = data.x().col(j);
            match &data.schema().feature(j).kind {
                FeatureKind::Numeric { .. } => {
                    let mean = xai_linalg::stats::mean(&col);
                    let std = xai_linalg::stats::std_dev(&col).max(1e-9);
                    numeric_stats.push(Some((mean, std)));
                    category_freqs.push(None);
                }
                FeatureKind::Categorical { categories } => {
                    let mut freqs = vec![0.0; categories.len()];
                    for &v in &col {
                        freqs[v.round() as usize] += 1.0;
                    }
                    numeric_stats.push(None);
                    category_freqs.push(Some(freqs));
                }
            }
        }
        Self {
            feature_names: data.schema().names().iter().map(|s| s.to_string()).collect(),
            numeric_stats,
            category_freqs,
        }
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Draws one perturbed raw row around `instance` and its interpretable
    /// (standardized / indicator) representation.
    fn perturb(&self, instance: &[f64], rng: &mut StdRng) -> (Vec<f64>, Vec<f64>) {
        let d = instance.len();
        let mut raw = vec![0.0; d];
        let mut interp = vec![0.0; d];
        for j in 0..d {
            if let Some((_, std)) = self.numeric_stats[j] {
                let v = instance[j] + normal(rng, 0.0, std);
                raw[j] = v;
                interp[j] = (v - instance[j]) / std;
            } else {
                let freqs = self.category_freqs[j].as_ref().expect("categorical stats");
                let cat = xai_linalg::distr::categorical(rng, freqs) as f64;
                raw[j] = cat;
                // Indicator: 1 when the perturbed category matches the instance.
                interp[j] = f64::from((cat - instance[j]).abs() < 1e-9);
            }
        }
        (raw, interp)
    }

    /// Interpretable representation of the instance itself: zeros for
    /// numeric deltas, ones for "same category".
    fn instance_interp(&self, instance: &[f64]) -> Vec<f64> {
        (0..instance.len())
            .map(|j| if self.numeric_stats[j].is_some() { 0.0 } else { 1.0 })
            .collect()
    }

    /// Draws the whole neighbourhood up front: the raw probe rows as one
    /// matrix (ready for a single batched model call), the interpretable
    /// design matrix (intercept in column 0), and the locality weights.
    /// Perturbation draws consume the RNG in the same per-feature order as
    /// the historical interleaved loop, and model evaluation consumes no
    /// randomness, so a scalar closure and a batch model surface see
    /// identical neighbourhoods at the same seed.
    fn neighbourhood(
        &self,
        instance: &[f64],
        config: LimeConfig,
        seed: u64,
    ) -> (Matrix, Matrix, Vec<f64>, f64) {
        assert_eq!(instance.len(), self.n_features(), "instance arity mismatch");
        let d = instance.len();
        let width = width_for(config, d);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut raws = Matrix::zeros(config.n_samples, d);
        let mut design = Matrix::zeros(config.n_samples, d + 1);
        let mut weights = Vec::with_capacity(config.n_samples);
        let origin = self.instance_interp(instance);
        for i in 0..config.n_samples {
            let (raw, interp) = self.perturb(instance, &mut rng);
            let dist2: f64 = interp
                .iter()
                .zip(&origin)
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            weights.push((-dist2 / (width * width)).exp());
            raws.row_mut(i).copy_from_slice(&raw);
            let row = design.row_mut(i);
            row[0] = 1.0;
            row[1..].copy_from_slice(&interp);
        }
        (raws, design, weights, width)
    }

    /// The chunk layout's draws: one chunk of `count` neighbourhood probes
    /// from `rng`'s stream, as the raw probe rows (one matrix, ready for a
    /// single batched model call) and each probe's interpretable row and
    /// locality weight. Chunk `c` of the grid draws with an RNG seeded
    /// `child_seed(seed, c)`, so in-process `workers > 1` runs and
    /// cross-process shards see the same probes, and the merge redraws
    /// what a shard evaluated instead of receiving it.
    pub(crate) fn draw_chunk(
        &self,
        instance: &[f64],
        width: f64,
        count: usize,
        rng: &mut StdRng,
    ) -> (Matrix, Vec<(Vec<f64>, f64)>) {
        let origin = self.instance_interp(instance);
        let mut raws = Matrix::zeros(count, instance.len());
        let mut drawn = Vec::with_capacity(count);
        for i in 0..count {
            let (raw, interp) = self.perturb(instance, rng);
            let dist2: f64 =
                interp.iter().zip(&origin).map(|(a, b)| (a - b) * (a - b)).sum();
            raws.row_mut(i).copy_from_slice(&raw);
            drawn.push((interp, (-dist2 / (width * width)).exp()));
        }
        (raws, drawn)
    }

    /// The merge epilogue of the chunk layout: assembles the design
    /// matrix and weights from the redrawn probes (in chunk order), pairs
    /// them with the shards' targets and runs the same surrogate fit as
    /// the sequential path, sized to the probe count.
    pub(crate) fn fit_probes(
        &self,
        drawn: Vec<(Vec<f64>, f64)>,
        targets: Vec<f64>,
        width: f64,
        prediction: f64,
        config: LimeConfig,
    ) -> XaiResult<LimeExplanation> {
        let n = drawn.len();
        let mut design = Matrix::zeros(n, self.n_features() + 1);
        let mut weights = Vec::with_capacity(n);
        for (i, (interp, weight)) in drawn.into_iter().enumerate() {
            let row = design.row_mut(i);
            row[0] = 1.0;
            row[1..].copy_from_slice(&interp);
            weights.push(weight);
        }
        check_targets(&targets, prediction)?;
        // `try_fit_surrogate` sizes its loops from `n_samples`; feed it
        // the merged row count, not the configured one.
        let fit_config = LimeConfig { n_samples: n, ..config };
        self.try_fit_surrogate(design, targets, weights, width, prediction, fit_config)
    }

    /// Explains one prediction of a black-box model, one probe row per
    /// model call.
    ///
    /// # Panics
    /// Panics when the model misbehaves (panics, returns non-finite
    /// outputs) or the surrogate regression is unrecoverably singular;
    /// use [`LimeExplainer::try_explain`] for typed errors.
    pub fn explain(
        &self,
        model: &dyn Fn(&[f64]) -> f64,
        instance: &[f64],
        config: LimeConfig,
        seed: u64,
    ) -> LimeExplanation {
        self.try_explain(model, instance, config, seed)
            .expect("LIME failed; try_explain recovers this")
    }

    /// Fallible twin of [`LimeExplainer::explain`]: a non-finite instance
    /// yields [`XaiError::NonFiniteInput`], a panicking or NaN-producing
    /// model yields [`XaiError::ModelFault`], a neighbourhood of fewer
    /// than 8 samples is [`XaiError::Unsupported`], and a surrogate
    /// regression that needed ridge escalation comes back `Ok` with
    /// `degraded = true`.
    pub fn try_explain(
        &self,
        model: &dyn Fn(&[f64]) -> f64,
        instance: &[f64],
        config: LimeConfig,
        seed: u64,
    ) -> XaiResult<LimeExplanation> {
        self.try_explain_budgeted(model, instance, config, seed, SampleBudget::unlimited())
    }

    /// Budgeted twin of [`LimeExplainer::try_explain`]: neighbourhood
    /// probe evaluations are metered against `budget` and the surrogate
    /// is fitted on whatever prefix of the neighbourhood completed.
    ///
    /// Semantics:
    /// - the whole neighbourhood is still *drawn* up front (draws are
    ///   model-free); only model evaluations are metered, and the
    ///   instance's own prediction is mandatory bookkeeping outside the
    ///   meter — so an eval cap of `k ≥ 8` produces a result
    ///   **bit-identical** to [`LimeExplainer::try_explain`] with
    ///   `n_samples = k` at the same seed (the probe stream is drawn
    ///   per-probe from one seeded RNG, and the kernel width does not
    ///   depend on the sample count);
    /// - a wall-clock deadline is checked between evaluation rounds of
    ///   `PROBES_PER_CHUNK` probes;
    /// - fewer than 8 completed probes is not a neighbourhood; the call
    ///   fails with [`XaiError::BudgetExceeded`] carrying the completed
    ///   count.
    pub fn try_explain_budgeted(
        &self,
        model: &dyn Fn(&[f64]) -> f64,
        instance: &[f64],
        config: LimeConfig,
        seed: u64,
        budget: SampleBudget,
    ) -> XaiResult<LimeExplanation> {
        let batch = |m: &Matrix| m.iter_rows().map(model).collect::<Vec<f64>>();
        self.sequential(&batch, instance, config, seed, budget)
    }

    /// The one-stream sequential layout: the neighbourhood drawn from
    /// `seed_from_u64(seed)`, evaluated through a batch model surface one
    /// round at a time — the whole metered prefix at once, or
    /// [`PROBES_PER_CHUNK`] probes per round when a deadline must be
    /// checked between rounds — and fitted. A scalar model enters through
    /// a row loop, so the surface never changes the draws or the bits.
    pub(crate) fn sequential(
        &self,
        model: &dyn Fn(&Matrix) -> Vec<f64>,
        instance: &[f64],
        config: LimeConfig,
        seed: u64,
        budget: SampleBudget,
    ) -> XaiResult<LimeExplanation> {
        check_samples(config.n_samples)?;
        validate::finite_slice("LIME instance", instance)?;
        let (raws, design, weights, width) = self.neighbourhood(instance, config, seed);
        let d = instance.len();
        let cap = budget.max_evals.map_or(config.n_samples, |k| config.n_samples.min(k));
        let round = if budget.max_duration.is_some() { PROBES_PER_CHUNK } else { cap.max(1) };
        let mut meter = budget.start();
        let (targets, prediction) = catch_model("LIME neighbourhood evaluation", move || {
            let mut t: Vec<f64> = Vec::with_capacity(cap);
            while t.len() < cap && !meter.exhausted() {
                let (start, end) = (t.len(), (t.len() + round).min(cap));
                let out = if end - start == raws.rows() {
                    model(&raws)
                } else {
                    let rows = raws.as_slice()[start * d..end * d].to_vec();
                    model(&Matrix::from_vec(end - start, d, rows))
                };
                check_arity(out.len(), end - start)?;
                t.extend(out);
                meter.record(end - start);
            }
            Ok::<_, XaiError>((t, model(&Matrix::from_rows(&[instance.to_vec()]))[0]))
        })??;
        let done = targets.len();
        if done < MIN_PROBES {
            return Err(XaiError::BudgetExceeded {
                context: format!(
                    "LIME: budget admitted {done} of the minimum {MIN_PROBES} neighbourhood probes"
                ),
                completed: done,
            });
        }
        check_targets(&targets, prediction)?;
        if done == config.n_samples {
            return self.try_fit_surrogate(design, targets, weights, width, prediction, config);
        }
        // Truncate the drawn neighbourhood to the completed prefix; the
        // submatrix equals a fresh `n_samples = done` draw bit for bit.
        let rows: Vec<usize> = (0..done).collect();
        let cols: Vec<usize> = (0..design.cols()).collect();
        let design = design.select(&rows, &cols);
        let mut weights = weights;
        weights.truncate(done);
        let fit_config = LimeConfig { n_samples: done, ..config };
        self.try_fit_surrogate(design, targets, weights, width, prediction, fit_config)
    }

    /// The surrogate fit shared by both draw layouts: weighted
    /// ridge regression (with ridge escalation on singular systems),
    /// optional top-k refit, fidelity scoring.
    pub(crate) fn try_fit_surrogate(
        &self,
        design: Matrix,
        targets: Vec<f64>,
        weights: Vec<f64>,
        width: f64,
        prediction: f64,
        config: LimeConfig,
    ) -> XaiResult<LimeExplanation> {
        let d = self.n_features();
        let (full, mut degraded) =
            solve_surrogate(&design, &targets, &weights, config.ridge, "LIME surrogate fit")?;
        let (coef, intercept) = (full[1..].to_vec(), full[0]);

        // Optional feature selection: keep top-k by |coefficient|, refit.
        let (coef, intercept) = if let Some(k) = config.max_features.filter(|&k| k < d) {
            let mut idx: Vec<usize> = (0..d).collect();
            idx.sort_by(|&a, &b| coef[b].abs().total_cmp(&coef[a].abs()));
            idx.truncate(k.max(1));
            let cols: Vec<usize> = std::iter::once(0).chain(idx.iter().map(|&j| j + 1)).collect();
            let sub = design.select(&(0..config.n_samples).collect::<Vec<_>>(), &cols);
            let (w, refit_degraded) =
                solve_surrogate(&sub, &targets, &weights, config.ridge, "LIME top-k refit")?;
            degraded |= refit_degraded;
            let mut selected = vec![0.0; d];
            for (pos, &j) in idx.iter().enumerate() {
                selected[j] = w[pos + 1];
            }
            (selected, w[0])
        } else {
            (coef, intercept)
        };

        // Local fidelity: weighted R² of surrogate vs model on the samples.
        let surrogate_preds: Vec<f64> = (0..config.n_samples)
            .map(|i| {
                intercept
                    + design.row(i)[1..]
                        .iter()
                        .zip(&coef)
                        .map(|(z, c)| z * c)
                        .sum::<f64>()
            })
            .collect();
        let local_fidelity = weighted_r_squared(&targets, &surrogate_preds, &weights);

        // LIME does not satisfy the efficiency axiom, so `baseline` is the
        // surrogate intercept and `efficiency_gap()` is expected to be
        // non-zero — one of the §2.1.2 contrasts with SHAP.
        let attribution = FeatureAttribution::new(
            self.feature_names.clone(),
            coef,
            intercept,
            prediction,
        );
        Ok(LimeExplanation { attribution, local_fidelity, kernel_width: width, degraded })
    }
}

/// Evaluates one chunk's raw probe rows in one batch model call.
pub(crate) fn probe_targets(
    model: &dyn Fn(&Matrix) -> Vec<f64>,
    raws: &Matrix,
) -> XaiResult<Vec<f64>> {
    let targets = catch_model("LIME neighbourhood evaluation", || model(raws))?;
    check_arity(targets.len(), raws.rows())?;
    Ok(targets)
}

/// Rejects a batch model call that returned the wrong number of outputs;
/// shared by both draw layouts.
fn check_arity(outputs: usize, probes: usize) -> XaiResult<()> {
    if outputs != probes {
        return Err(XaiError::ModelFault {
            context: format!("LIME batched model returned {outputs} outputs for {probes} probes"),
        });
    }
    Ok(())
}

/// Rejects non-finite model outputs on the neighbourhood — the model (not
/// the caller's data) produced them, so they map to
/// [`XaiError::ModelFault`].
pub(crate) fn check_targets(targets: &[f64], prediction: f64) -> XaiResult<()> {
    if let Some(i) = targets.iter().position(|t| !t.is_finite()) {
        return Err(XaiError::ModelFault {
            context: format!("LIME probe {i} returned {}", targets[i]),
        });
    }
    if !prediction.is_finite() {
        return Err(XaiError::ModelFault {
            context: format!("LIME instance prediction is {prediction}"),
        });
    }
    Ok(())
}

/// Ridge escalation ladder for degraded surrogate solves (mirrors kernel
/// SHAP's): rungs at or below the configured ridge are skipped.
const RIDGE_LADDER: [f64; 3] = [1e-6, 1e-4, 1e-2];

/// Weighted least squares with ridge escalation: `Ok((solution, false))`
/// at the configured ridge, `Ok((solution, true))` when a ladder rung was
/// needed, [`XaiError::SingularSystem`] when even the top rung fails.
fn solve_surrogate(
    design: &Matrix,
    targets: &[f64],
    weights: &[f64],
    ridge: f64,
    what: &str,
) -> XaiResult<(Vec<f64>, bool)> {
    match weighted_least_squares(design, targets, weights, ridge) {
        Ok(sol) => Ok((sol, false)),
        Err(first) => {
            for rung in RIDGE_LADDER {
                if rung <= ridge {
                    continue;
                }
                if let Ok(sol) = weighted_least_squares(design, targets, weights, rung) {
                    return Ok((sol, true));
                }
            }
            Err(XaiError::SingularSystem {
                context: format!(
                    "{what} unsolvable even at ridge {:?}: {first}",
                    RIDGE_LADDER.last()
                ),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_data::synth::{circles, german_credit, linear_gaussian};
    use xai_models::{proba_fn, Classifier, LogisticConfig, LogisticRegression};

    fn credit_model_and_data() -> (LogisticRegression, Dataset) {
        let data = german_credit(800, 3);
        let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        (model, data)
    }

    #[test]
    fn budgeted_prefix_is_bit_identical_to_a_smaller_neighbourhood() {
        let (model, data) = credit_model_and_data();
        let lime = LimeExplainer::fit(&data);
        let f = proba_fn(&model);
        let row = data.row(2);
        // Cap 40 on a 200-probe config == plain run with n_samples = 40.
        let wide = LimeConfig { n_samples: 200, ..LimeConfig::default() };
        let budgeted = lime
            .try_explain_budgeted(&f, row, wide, 13, SampleBudget::with_max_evals(40))
            .unwrap();
        let narrow = LimeConfig { n_samples: 40, ..LimeConfig::default() };
        let short = lime.try_explain(&f, row, narrow, 13).unwrap();
        assert_eq!(budgeted.attribution.values, short.attribution.values);
        assert_eq!(budgeted.attribution.baseline, short.attribution.baseline);
        assert_eq!(budgeted.local_fidelity, short.local_fidelity);
        // An unlimited budget reproduces the plain run exactly.
        let unlimited =
            lime.try_explain_budgeted(&f, row, wide, 13, SampleBudget::unlimited()).unwrap();
        let plain = lime.try_explain(&f, row, wide, 13).unwrap();
        assert_eq!(unlimited.attribution.values, plain.attribution.values);
    }

    #[test]
    fn starved_lime_budget_reports_completed_probes() {
        let (model, data) = credit_model_and_data();
        let lime = LimeExplainer::fit(&data);
        let f = proba_fn(&model);
        let err = lime
            .try_explain_budgeted(
                &f,
                data.row(0),
                LimeConfig::default(),
                7,
                SampleBudget::with_max_evals(5),
            )
            .unwrap_err();
        assert!(
            matches!(err, XaiError::BudgetExceeded { completed: 5, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn recovers_linear_model_signs() {
        let data = linear_gaussian(1000, &[2.0, -1.5, 0.0], 0.0, 5);
        let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let lime = LimeExplainer::fit(&data);
        let f = proba_fn(&model);
        let exp = lime.explain(&f, data.row(0), LimeConfig::default(), 42);
        let values = &exp.attribution.values;
        assert!(values[0] > 0.0, "positive-weight feature must attribute positive");
        assert!(values[1] < 0.0);
        assert!(
            values[2].abs() < values[0].abs() / 3.0,
            "irrelevant feature must be small: {values:?}"
        );
    }

    #[test]
    fn local_fidelity_is_high_for_smooth_models() {
        let (model, data) = credit_model_and_data();
        let lime = LimeExplainer::fit(&data);
        let f = proba_fn(&model);
        let exp = lime.explain(&f, data.row(1), LimeConfig::default(), 7);
        assert!(exp.local_fidelity > 0.7, "fidelity {}", exp.local_fidelity);
    }

    #[test]
    fn nonlinear_model_fidelity_improves_with_smaller_width() {
        // On the rings dataset the surface is locally linear but globally
        // not: a narrower kernel should fit the local surface better.
        let data = circles(800, 9, 0.15);
        let forest = xai_models::RandomForest::fit(
            data.x(),
            data.y(),
            xai_models::ForestConfig { n_trees: 30, seed: 1, ..Default::default() },
        );
        let lime = LimeExplainer::fit(&data);
        let f = proba_fn(&forest);
        let instance = data.row(0);
        let narrow = lime.explain(
            &f,
            instance,
            LimeConfig { kernel_width: Some(0.3), ..LimeConfig::default() },
            3,
        );
        let wide = lime.explain(
            &f,
            instance,
            LimeConfig { kernel_width: Some(10.0), ..LimeConfig::default() },
            3,
        );
        assert!(
            narrow.local_fidelity >= wide.local_fidelity - 0.02,
            "narrow {} vs wide {}",
            narrow.local_fidelity,
            wide.local_fidelity
        );
    }

    #[test]
    fn max_features_zeroes_the_rest() {
        let (model, data) = credit_model_and_data();
        let lime = LimeExplainer::fit(&data);
        let f = proba_fn(&model);
        let exp = lime.explain(
            &f,
            data.row(2),
            LimeConfig { max_features: Some(3), ..LimeConfig::default() },
            11,
        );
        let nonzero = exp.attribution.values.iter().filter(|v| v.abs() > 1e-12).count();
        assert!(nonzero <= 3, "{nonzero} nonzero coefficients");
    }

    #[test]
    fn deterministic_under_seed_stochastic_across_seeds() {
        let (model, data) = credit_model_and_data();
        let lime = LimeExplainer::fit(&data);
        let f = proba_fn(&model);
        let a = lime.explain(&f, data.row(0), LimeConfig::default(), 1);
        let b = lime.explain(&f, data.row(0), LimeConfig::default(), 1);
        assert_eq!(a.attribution.values, b.attribution.values);
        let c = lime.explain(&f, data.row(0), LimeConfig::default(), 2);
        assert_ne!(a.attribution.values, c.attribution.values);
    }

    #[test]
    fn batched_explain_matches_scalar_bitwise() {
        use xai_models::batch_proba_fn;
        let (model, data) = credit_model_and_data();
        let lime = LimeExplainer::fit(&data);
        let f = proba_fn(&model);
        let bf = batch_proba_fn(&model);
        for (seed, max_features) in [(1, None), (8, Some(3))] {
            let cfg = LimeConfig { n_samples: 300, max_features, ..LimeConfig::default() };
            let scalar = lime.explain(&f, data.row(0), cfg, seed);
            let batched = lime
                .sequential(&bf, data.row(0), cfg, seed, SampleBudget::unlimited())
                .unwrap();
            assert_eq!(scalar.attribution.values, batched.attribution.values);
            assert_eq!(scalar.attribution.baseline, batched.attribution.baseline);
            assert_eq!(scalar.attribution.prediction, batched.attribution.prediction);
            assert_eq!(scalar.local_fidelity, batched.local_fidelity);
        }
    }

    #[test]
    fn categorical_features_are_perturbed_to_valid_codes() {
        let (model, data) = credit_model_and_data();
        let lime = LimeExplainer::fit(&data);
        // Wrap the model to verify every probe row is schema-valid.
        let schema = data.schema().clone();
        let checker = move |x: &[f64]| {
            for (j, f) in schema.features().iter().enumerate() {
                if f.is_categorical() {
                    assert!(f.is_valid(x[j]), "invalid category {} for {}", x[j], f.name);
                }
            }
            Classifier::proba_one(&model, x)
        };
        let _ = lime.explain(&checker, data.row(5), LimeConfig { n_samples: 200, ..Default::default() }, 3);
    }
}
