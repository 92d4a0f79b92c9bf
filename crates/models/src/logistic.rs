//! L2-regularized logistic regression fitted by damped Newton iterations.
//!
//! This model is deliberately "white-box complete": besides prediction it
//! exposes its per-example loss gradients and its Hessian, which is exactly
//! the access influence functions (§2.3.2, Koh & Liang) and PrIU-style
//! incremental updates (§3) require.
//!
//! Objective (average-loss convention):
//! `L(w) = (1/n) Σᵢ sᵢ · ℓ(w; xᵢ, yᵢ) + (λ/2)‖w‖²`,
//! where `ℓ` is the binary cross-entropy and `sᵢ` optional sample weights.

use crate::traits::{Classifier, Model};
use xai_core::{validate, XaiError, XaiResult};
use xai_data::sigmoid;
use xai_linalg::{dot, solve_spd, Matrix};

/// Configuration for [`LogisticRegression::fit`].
#[derive(Clone, Copy, Debug)]
pub struct LogisticConfig {
    /// L2 penalty λ applied to every weight (including the intercept, which
    /// keeps the Hessian uniformly positive-definite — the property the
    /// influence-function math relies on).
    pub l2: f64,
    /// Maximum Newton iterations.
    pub max_iter: usize,
    /// Convergence threshold on the gradient's infinity norm.
    pub tol: f64,
}

impl Default for LogisticConfig {
    fn default() -> Self {
        Self { l2: 1e-3, max_iter: 50, tol: 1e-8 }
    }
}

/// A fitted logistic-regression model.
#[derive(Clone, Debug)]
pub struct LogisticRegression {
    /// Weight vector in augmented space: index 0 is the intercept.
    w: Vec<f64>,
    /// The λ used at fit time (needed to reproduce gradients/Hessians).
    l2: f64,
    /// Newton iterations actually performed.
    iterations: usize,
    /// Whether the gradient tolerance was reached.
    converged: bool,
}

fn augment(x: &[f64]) -> Vec<f64> {
    let mut v = Vec::with_capacity(x.len() + 1);
    v.push(1.0);
    v.extend_from_slice(x);
    v
}

impl LogisticRegression {
    /// Fits on a feature matrix and 0/1 targets with unit sample weights.
    pub fn fit(x: &Matrix, y: &[f64], config: LogisticConfig) -> Self {
        Self::fit_weighted(x, y, &vec![1.0; y.len()], config)
    }

    /// Fits with non-negative per-sample weights. Zero-weight examples are
    /// exactly equivalent to removal — the property leave-one-out and
    /// Data-Shapley methods exploit.
    pub fn fit_weighted(x: &Matrix, y: &[f64], sample_weights: &[f64], config: LogisticConfig) -> Self {
        let cold = vec![0.0; x.cols() + 1];
        Self::fit_weighted_warm(x, y, sample_weights, config, &cold)
    }

    /// **Warm-start** fit: seeds Newton from `init` (augmented space,
    /// intercept first) instead of from zero. The objective is strictly
    /// convex, so the optimum reached is the same; what changes is the
    /// iteration count — from a nearby optimum (one row added or removed)
    /// Newton converges in 1–2 steps instead of the usual 6–8. This is the
    /// logistic half of the incremental-training engine (§3: PrIU \[77\],
    /// HedgeCut \[59\]); the ridge half lives in `xai-linalg`'s rank-one
    /// Cholesky kernels.
    pub fn fit_warm(x: &Matrix, y: &[f64], config: LogisticConfig, init: &[f64]) -> Self {
        Self::fit_weighted_warm(x, y, &vec![1.0; y.len()], config, init)
    }

    /// Warm-start fit with per-sample weights (see [`Self::fit_warm`]).
    pub fn fit_weighted_warm(
        x: &Matrix,
        y: &[f64],
        sample_weights: &[f64],
        config: LogisticConfig,
        init: &[f64],
    ) -> Self {
        Self::newton_fit(x, y, sample_weights, config, init)
            .expect("Hessian is PD for l2 > 0")
    }

    /// Fallible twin of [`Self::fit`]: rejects non-finite inputs up front,
    /// reports a singular Hessian as [`XaiError::SingularSystem`] and a
    /// fit that exhausts `max_iter` without meeting the gradient tolerance
    /// as [`XaiError::ConvergenceFailure`] — never a silent garbage model.
    pub fn try_fit(x: &Matrix, y: &[f64], config: LogisticConfig) -> XaiResult<Self> {
        Self::try_fit_weighted(x, y, &vec![1.0; y.len()], config)
    }

    /// Fallible twin of [`Self::fit_weighted`]; see [`Self::try_fit`].
    pub fn try_fit_weighted(
        x: &Matrix,
        y: &[f64],
        sample_weights: &[f64],
        config: LogisticConfig,
    ) -> XaiResult<Self> {
        let cold = vec![0.0; x.cols() + 1];
        Self::try_fit_weighted_warm(x, y, sample_weights, config, &cold)
    }

    /// Fallible twin of [`Self::fit_warm`]; see [`Self::try_fit`].
    pub fn try_fit_warm(
        x: &Matrix,
        y: &[f64],
        config: LogisticConfig,
        init: &[f64],
    ) -> XaiResult<Self> {
        Self::try_fit_weighted_warm(x, y, &vec![1.0; y.len()], config, init)
    }

    /// Fallible twin of [`Self::fit_weighted_warm`]; see [`Self::try_fit`].
    pub fn try_fit_weighted_warm(
        x: &Matrix,
        y: &[f64],
        sample_weights: &[f64],
        config: LogisticConfig,
        init: &[f64],
    ) -> XaiResult<Self> {
        validate::finite_matrix("logistic fit: design matrix", x)?;
        validate::finite_slice("logistic fit: targets", y)?;
        validate::finite_slice("logistic fit: sample weights", sample_weights)?;
        validate::finite_slice("logistic fit: warm-start weights", init)?;
        let model = Self::newton_fit(x, y, sample_weights, config, init)?;
        if !model.converged {
            return Err(XaiError::ConvergenceFailure {
                context: "logistic Newton fit missed the gradient tolerance".into(),
                iterations: model.iterations,
            });
        }
        Ok(model)
    }

    /// The damped-Newton loop shared by the panicking and `try_` fits.
    fn newton_fit(
        x: &Matrix,
        y: &[f64],
        sample_weights: &[f64],
        config: LogisticConfig,
        init: &[f64],
    ) -> XaiResult<Self> {
        assert_eq!(x.rows(), y.len(), "row/target mismatch");
        assert_eq!(x.rows(), sample_weights.len(), "row/weight mismatch");
        assert!(config.l2 > 0.0, "l2 must be positive for a strictly convex objective");
        let d = x.cols() + 1;
        assert_eq!(init.len(), d, "warm-start weights must be augmented (intercept first)");
        let n_eff: f64 = sample_weights.iter().sum();
        assert!(n_eff > 0.0, "all sample weights are zero");
        let mut w = init.to_vec();
        let mut iterations = 0;
        let mut converged = false;

        for _ in 0..config.max_iter {
            iterations += 1;
            // Gradient and Hessian of the averaged weighted loss.
            let mut grad = vec![0.0; d];
            let mut hess = Matrix::zeros(d, d);
            for ((row, &yi), &si) in x.iter_rows().zip(y).zip(sample_weights) {
                if si == 0.0 {
                    continue;
                }
                let xi = augment(row);
                let p = sigmoid(dot(&w, &xi));
                let g = si * (p - yi);
                let h = si * p * (1.0 - p);
                for (k, &xk) in xi.iter().enumerate() {
                    grad[k] += g * xk;
                    if h * xk != 0.0 {
                        let hrow = hess.row_mut(k);
                        for (hv, &xj) in hrow.iter_mut().zip(&xi) {
                            *hv += h * xk * xj;
                        }
                    }
                }
            }
            for k in 0..d {
                grad[k] = grad[k] / n_eff + config.l2 * w[k];
            }
            hess.scale_mut(1.0 / n_eff);
            hess.add_diag_mut(config.l2);

            let ginf = grad.iter().fold(0.0f64, |a, g| a.max(g.abs()));
            if ginf < config.tol {
                converged = true;
                break;
            }
            let step = solve_spd(&hess, &grad, 0.0).map_err(XaiError::from)?;
            // Damped update: halve until the step is finite and bounded.
            let mut alpha = 1.0;
            loop {
                let cand: Vec<f64> = w.iter().zip(&step).map(|(wi, s)| wi - alpha * s).collect();
                if cand.iter().all(|v| v.is_finite()) {
                    w = cand;
                    break;
                }
                alpha *= 0.5;
                if alpha < 1e-8 {
                    break;
                }
            }
        }
        Ok(Self { w, l2: config.l2, iterations, converged })
    }

    /// Builds a model from explicit parameters (intercept first).
    pub fn from_parameters(intercept: f64, coef: &[f64], l2: f64) -> Self {
        let mut w = vec![intercept];
        w.extend_from_slice(coef);
        Self { w, l2, iterations: 0, converged: true }
    }

    /// The intercept.
    pub fn intercept(&self) -> f64 {
        self.w[0]
    }

    /// The feature coefficients.
    pub fn coef(&self) -> &[f64] {
        &self.w[1..]
    }

    /// Full parameter vector in augmented space (intercept first).
    pub fn weights(&self) -> &[f64] {
        &self.w
    }

    /// λ used at fit time.
    pub fn l2(&self) -> f64 {
        self.l2
    }

    /// Newton iterations performed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether fitting converged to tolerance.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Decision margin `w · [1, x]`.
    pub fn margin(&self, x: &[f64]) -> f64 {
        dot(&self.w, &augment(x))
    }

    /// Margins for every row in one blocked pass, with no per-row
    /// `augment` allocation. The scalar margin accumulates the intercept
    /// *first* (`w[0]·1` is the leading term of the augmented dot), so this
    /// uses the bias-first [`xai_linalg::affine_fold`] kernel and is
    /// bit-identical to [`LogisticRegression::margin`] per row.
    pub fn margin_batch(&self, x: &Matrix) -> Vec<f64> {
        xai_linalg::affine_fold(x, &self.w[1..], self.w[0])
    }

    /// Masked coalition margins (zero-copy, DESIGN.md §12): one margin per
    /// background row, reading `instance[k]` where bit `k` of `mask` is
    /// set and the background value otherwise. Uses the bias-first
    /// [`xai_linalg::masked_affine_fold`] kernel, so each margin is
    /// bit-identical to [`LogisticRegression::margin`] over the
    /// materialized coalition view.
    pub fn margin_masked_into(
        &self,
        instance: &[f64],
        background: &Matrix,
        mask: u64,
        out: &mut [f64],
    ) {
        xai_linalg::masked_affine_fold(background, instance, mask, &self.w[1..], self.w[0], out);
    }

    /// Whole-round twin of [`Self::margin_masked_into`]: one
    /// `background.rows()`-length margin block per mask, coalition-major,
    /// through [`xai_linalg::masked_affine_fold_many`] — bit-identical to
    /// the per-mask calls, with the weighted products hoisted out of the
    /// round. This is the Kernel SHAP hot path for logistic oracles.
    pub fn margin_masked_many_into(
        &self,
        instance: &[f64],
        background: &Matrix,
        masks: &[u64],
        out: &mut [f64],
    ) {
        xai_linalg::masked_affine_fold_many(
            background,
            instance,
            masks,
            &self.w[1..],
            self.w[0],
            out,
        );
    }

    /// Per-example loss `ℓ(w; x, y)` (no regularization term).
    pub fn example_loss(&self, x: &[f64], y: f64) -> f64 {
        let p = self.proba_one(x).clamp(1e-12, 1.0 - 1e-12);
        -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
    }

    /// Per-example loss gradient `∇_w ℓ(w; x, y) = (p − y)·[1, x]` in
    /// augmented space. The building block of influence functions.
    pub fn example_grad(&self, x: &[f64], y: f64) -> Vec<f64> {
        let xi = augment(x);
        let p = sigmoid(dot(&self.w, &xi));
        xi.iter().map(|&v| (p - y) * v).collect()
    }

    /// Hessian of the *total* objective at the current parameters:
    /// `(1/n) Σᵢ pᵢ(1−pᵢ) x̃ᵢx̃ᵢᵀ + λI`. Positive-definite for λ > 0.
    pub fn hessian(&self, x: &Matrix, _y: &[f64]) -> Matrix {
        let d = self.w.len();
        let mut hess = Matrix::zeros(d, d);
        for row in x.iter_rows() {
            let xi = augment(row);
            let p = sigmoid(dot(&self.w, &xi));
            let h = p * (1.0 - p);
            for (k, &xk) in xi.iter().enumerate() {
                if h * xk == 0.0 {
                    continue;
                }
                let hrow = hess.row_mut(k);
                for (hv, &xj) in hrow.iter_mut().zip(&xi) {
                    *hv += h * xk * xj;
                }
            }
        }
        hess.scale_mut(1.0 / x.rows() as f64);
        hess.add_diag_mut(self.l2);
        hess
    }

    /// Hessian–vector product without materializing the Hessian, for
    /// conjugate-gradient influence computations on wide models.
    pub fn hessian_vec_product(&self, x: &Matrix, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.w.len());
        let mut out = vec![0.0; v.len()];
        for row in x.iter_rows() {
            let xi = augment(row);
            let p = sigmoid(dot(&self.w, &xi));
            let h = p * (1.0 - p);
            let xv = dot(&xi, v);
            let scale = h * xv;
            for (o, &xk) in out.iter_mut().zip(&xi) {
                *o += scale * xk;
            }
        }
        let n = x.rows() as f64;
        for (o, &vi) in out.iter_mut().zip(v) {
            *o = *o / n + self.l2 * vi;
        }
        out
    }
}

impl Model for LogisticRegression {
    fn n_features(&self) -> usize {
        self.w.len() - 1
    }
}

impl Classifier for LogisticRegression {
    fn proba_one(&self, x: &[f64]) -> f64 {
        sigmoid(self.margin(x))
    }

    fn proba_batch(&self, x: &Matrix) -> Vec<f64> {
        self.margin_batch(x).into_iter().map(sigmoid).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_data::metrics::{accuracy, auc_roc};
    use xai_data::synth::linear_gaussian;
    use xai_linalg::vsub;

    fn fitted() -> (LogisticRegression, xai_data::Dataset) {
        let data = linear_gaussian(2000, &[2.0, -1.0, 0.0], 0.5, 42);
        let m = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        (m, data)
    }

    #[test]
    fn recovers_generating_weights() {
        let (m, _) = fitted();
        assert!(m.converged());
        // Signs and rough magnitudes of the data-generating mechanism.
        assert!(m.coef()[0] > 1.5, "w0 = {}", m.coef()[0]);
        assert!(m.coef()[1] < -0.6, "w1 = {}", m.coef()[1]);
        assert!(m.coef()[2].abs() < 0.2, "w2 = {}", m.coef()[2]);
        assert!(m.intercept() > 0.1);
    }

    #[test]
    fn predictive_performance() {
        let (m, data) = fitted();
        let probs = m.proba(data.x());
        // Labels are Bernoulli draws from the true probabilities, so even the
        // Bayes-optimal scorer cannot reach AUC 1; ~0.87 is the ceiling here.
        assert!(auc_roc(data.y(), &probs) > 0.82);
        let preds = Classifier::predict(&m, data.x());
        assert!(accuracy(data.y(), &preds) > 0.8);
    }

    #[test]
    fn zero_weight_equals_removal() {
        let data = linear_gaussian(200, &[1.0, -2.0], 0.0, 7);
        let config = LogisticConfig::default();
        let mut weights = vec![1.0; 200];
        for i in 0..10 {
            weights[i] = 0.0;
        }
        let weighted = LogisticRegression::fit_weighted(data.x(), data.y(), &weights, config);
        let removed_idx: Vec<usize> = (10..200).collect();
        let reduced = data.subset(&removed_idx);
        let refit = LogisticRegression::fit(reduced.x(), reduced.y(), config);
        let diff = vsub(weighted.weights(), refit.weights());
        assert!(diff.iter().all(|d| d.abs() < 1e-6), "{diff:?}");
    }

    #[test]
    fn gradient_is_zero_at_optimum() {
        let (m, data) = fitted();
        let d = m.weights().len();
        let mut total = vec![0.0; d];
        for i in 0..data.n_rows() {
            let g = m.example_grad(data.row(i), data.y()[i]);
            for (t, gi) in total.iter_mut().zip(&g) {
                *t += gi;
            }
        }
        for (k, t) in total.iter_mut().enumerate() {
            *t = *t / data.n_rows() as f64 + m.l2() * m.weights()[k];
        }
        assert!(total.iter().all(|g| g.abs() < 1e-6), "stationarity violated: {total:?}");
    }

    #[test]
    fn hessian_matches_finite_differences() {
        let data = linear_gaussian(300, &[1.0, 0.5], -0.2, 3);
        let m = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let h = m.hessian(data.x(), data.y());
        // Finite-difference the averaged gradient along coordinate 1.
        let eps = 1e-5;
        let grad_at = |w: &[f64]| -> Vec<f64> {
            let probe = LogisticRegression {
                w: w.to_vec(),
                l2: m.l2(),
                iterations: 0,
                converged: true,
            };
            let d = w.len();
            let mut g = vec![0.0; d];
            for i in 0..data.n_rows() {
                let gi = probe.example_grad(data.row(i), data.y()[i]);
                for (a, b) in g.iter_mut().zip(&gi) {
                    *a += b;
                }
            }
            for (k, a) in g.iter_mut().enumerate() {
                *a = *a / data.n_rows() as f64 + m.l2() * w[k];
            }
            g
        };
        let mut wp = m.weights().to_vec();
        wp[1] += eps;
        let mut wm = m.weights().to_vec();
        wm[1] -= eps;
        let fd: Vec<f64> = vsub(&grad_at(&wp), &grad_at(&wm)).iter().map(|v| v / (2.0 * eps)).collect();
        for k in 0..wp.len() {
            assert!((fd[k] - h[(k, 1)]).abs() < 1e-5, "H[{k},1]: fd {} vs {}", fd[k], h[(k, 1)]);
        }
    }

    #[test]
    fn hvp_matches_explicit_hessian() {
        let (m, data) = fitted();
        let h = m.hessian(data.x(), data.y());
        let v: Vec<f64> = (0..m.weights().len()).map(|i| (i as f64 * 0.7).sin()).collect();
        let hv1 = m.hessian_vec_product(data.x(), &v);
        let hv2 = h.matvec(&v);
        for (a, b) in hv1.iter().zip(&hv2) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn warm_start_reaches_the_same_optimum_faster() {
        let data = linear_gaussian(400, &[2.0, -1.0], 0.0, 17);
        let config = LogisticConfig { l2: 1e-2, ..LogisticConfig::default() };
        let cold = LogisticRegression::fit(data.x(), data.y(), config);
        // Remove one row; warm-start the reduced fit from the full optimum.
        let keep: Vec<usize> = (1..400).collect();
        let reduced = data.subset(&keep);
        let cold_reduced = LogisticRegression::fit(reduced.x(), reduced.y(), config);
        let warm_reduced =
            LogisticRegression::fit_warm(reduced.x(), reduced.y(), config, cold.weights());
        assert!(warm_reduced.converged());
        let diff = vsub(warm_reduced.weights(), cold_reduced.weights());
        assert!(diff.iter().all(|d| d.abs() < 1e-8), "optima diverged: {diff:?}");
        assert!(
            warm_reduced.iterations() < cold_reduced.iterations(),
            "warm start must save Newton iterations: {} vs {}",
            warm_reduced.iterations(),
            cold_reduced.iterations()
        );
    }

    #[test]
    fn warm_start_from_zero_is_bit_identical_to_cold_fit() {
        let data = linear_gaussian(150, &[1.0, 0.5], 0.2, 23);
        let config = LogisticConfig::default();
        let cold = LogisticRegression::fit(data.x(), data.y(), config);
        let warm = LogisticRegression::fit_warm(data.x(), data.y(), config, &[0.0; 3]);
        assert_eq!(cold.weights(), warm.weights());
        assert_eq!(cold.iterations(), warm.iterations());
    }

    #[test]
    fn try_fit_matches_fit_and_types_failures() {
        let data = linear_gaussian(200, &[1.0, -2.0], 0.0, 7);
        let config = LogisticConfig::default();
        let plain = LogisticRegression::fit(data.x(), data.y(), config);
        let tried = LogisticRegression::try_fit(data.x(), data.y(), config).expect("clean fit");
        assert_eq!(plain.weights(), tried.weights());

        // NaN feature → NonFiniteInput.
        let mut bad = data.x().clone();
        bad[(3, 1)] = f64::NAN;
        let err = LogisticRegression::try_fit(&bad, data.y(), config).unwrap_err();
        assert!(matches!(err, xai_core::XaiError::NonFiniteInput { .. }), "{err}");

        // One iteration cannot meet the tolerance → certified non-convergence.
        let starved = LogisticConfig { max_iter: 1, ..config };
        let err = LogisticRegression::try_fit(data.x(), data.y(), starved).unwrap_err();
        assert!(
            matches!(err, xai_core::XaiError::ConvergenceFailure { iterations: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn from_parameters_predicts() {
        let m = LogisticRegression::from_parameters(0.0, &[10.0], 1e-3);
        assert!(m.proba_one(&[1.0]) > 0.99);
        assert!(m.proba_one(&[-1.0]) < 0.01);
        assert_eq!(m.n_features(), 1);
    }
}
