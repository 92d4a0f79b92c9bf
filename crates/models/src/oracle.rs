//! [`ModelOracle`] implementations for every concrete model: the bridge
//! between this crate and the unified explainer layer (DESIGN.md §9).
//!
//! `xai-core` cannot depend on this crate (we depend on it), so the
//! oracle trait lives there and the impls live here. Conventions match
//! the legacy adapters exactly, so the trait path is bit-identical to the
//! free-function path:
//!
//! - classifiers expose their positive-class probability
//!   (`Classifier::proba_one` / `proba_batch`, the `proba_fn` /
//!   `batch_proba_fn` convention); models implementing both surfaces
//!   (trees, forests, GBDTs, k-NN, MLPs) side with the classifier view,
//!   which is what every existing example and test explains;
//! - `LinearRegression` exposes `Regressor::predict_one` / `predict_batch`
//!   (the `regress_fn` convention);
//! - `predict_batch` overrides route through each model's vectorized
//!   kernels, so `RunConfig { batched: true, .. }` evaluates whole rounds
//!   through them;
//! - `gradient` is provided exactly where the workspace already had a
//!   gradient surface (`xai_surrogate::Differentiable`,
//!   `xai_counterfactual::GradientModel`): logistic regression and MLPs,
//!   plus the trivially constant linear-regression gradient;
//! - `as_any` returns `Some` for every model so structure-walking methods
//!   (TreeSHAP, provenance interventions) can downcast;
//! - `predict_masked` overrides route through each model's zero-copy
//!   masked kernels (DESIGN.md §12) — linear/logistic evaluate whole
//!   rounds through the hoisted `masked_*_many` mat-vec/affine kernels,
//!   MLPs the masked GEMM, and the tree, forest and GBDT route whole
//!   background row sets through their trees in one `route_masked` pass
//!   per round — each bit-identical to predicting the materialized
//!   coalition view. k-NN and naive Bayes keep
//!   the gather-into-scratch default (their batch path *is* the scalar
//!   row loop, so the default is already canonical).

use std::any::Any;

use xai_core::ModelOracle;
use xai_linalg::Matrix;

use crate::traits::{Classifier, Model, Regressor};
use crate::tree::route_masked;
use crate::{
    DecisionTree, GaussianNb, Gbdt, Knn, LinearRegression, LogisticRegression, Mlp, RandomForest,
};

macro_rules! classifier_oracle {
    ($ty:ty) => {
        impl ModelOracle for $ty {
            fn n_features(&self) -> usize {
                Model::n_features(self)
            }
            fn predict(&self, x: &[f64]) -> f64 {
                Classifier::proba_one(self, x)
            }
            fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
                Classifier::proba_batch(self, rows)
            }
            fn as_any(&self) -> Option<&dyn Any> {
                Some(self)
            }
        }
    };
}

classifier_oracle!(Knn);
classifier_oracle!(GaussianNb);

/// Appends `masks.len() × background.rows()` masked predictions to `out`
/// (coalition-major), evaluating each mask's chunk with `fill`.
fn masked_chunks(
    background: &Matrix,
    masks: &[u64],
    out: &mut Vec<f64>,
    mut fill: impl FnMut(u64, &mut [f64]),
) {
    let b = background.rows();
    out.clear();
    out.resize(masks.len() * b, 0.0);
    for (ci, &mask) in masks.iter().enumerate() {
        fill(mask, &mut out[ci * b..(ci + 1) * b]);
    }
}

impl ModelOracle for DecisionTree {
    fn n_features(&self) -> usize {
        Model::n_features(self)
    }
    fn predict(&self, x: &[f64]) -> f64 {
        Classifier::proba_one(self, x)
    }
    fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        Classifier::proba_batch(self, rows)
    }
    /// Each row is written its leaf value, as `predict_values` does.
    fn predict_masked(&self, instance: &[f64], background: &Matrix, masks: &[u64], out: &mut Vec<f64>) {
        route_masked(std::slice::from_ref(self), instance, background, masks, out, |o, v| *o = v);
    }
    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

impl ModelOracle for RandomForest {
    fn n_features(&self) -> usize {
        Model::n_features(self)
    }
    fn predict(&self, x: &[f64]) -> f64 {
        Classifier::proba_one(self, x)
    }
    fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        Classifier::proba_batch(self, rows)
    }
    /// Per-row sums in tree order from `0.0`, then the mean — the same
    /// arithmetic as `predict_values`, bit-identical either way.
    fn predict_masked(&self, instance: &[f64], background: &Matrix, masks: &[u64], out: &mut Vec<f64>) {
        route_masked(self.trees(), instance, background, masks, out, |o, v| *o += v);
        let n = self.trees().len() as f64;
        for o in out.iter_mut() {
            *o /= n;
        }
    }
    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

impl ModelOracle for Gbdt {
    fn n_features(&self) -> usize {
        Model::n_features(self)
    }
    fn predict(&self, x: &[f64]) -> f64 {
        Classifier::proba_one(self, x)
    }
    fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        Classifier::proba_batch(self, rows)
    }
    /// Per-row tree sums in boosting order from `0.0`, then `base + lr·sum`
    /// and the classifier head — the same arithmetic as
    /// `Classifier::proba_batch`, bit-identical either way.
    fn predict_masked(&self, instance: &[f64], background: &Matrix, masks: &[u64], out: &mut Vec<f64>) {
        use crate::gbdt::GbdtLoss;
        route_masked(self.trees(), instance, background, masks, out, |o, v| *o += v);
        for o in out.iter_mut() {
            let margin = self.base_score() + self.learning_rate() * *o;
            *o = match self.loss() {
                GbdtLoss::Squared => margin.clamp(0.0, 1.0),
                GbdtLoss::Logistic => xai_data::sigmoid(margin),
            };
        }
    }
    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

impl ModelOracle for LinearRegression {
    fn n_features(&self) -> usize {
        Model::n_features(self)
    }
    fn predict(&self, x: &[f64]) -> f64 {
        Regressor::predict_one(self, x)
    }
    fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        Regressor::predict_batch(self, rows)
    }
    /// One whole-round call into the hoisted masked mat-vec kernel —
    /// bit-identical to the per-mask `predict_masked_into` loop.
    fn predict_masked(&self, instance: &[f64], background: &Matrix, masks: &[u64], out: &mut Vec<f64>) {
        out.clear();
        out.resize(masks.len() * background.rows(), 0.0);
        self.predict_masked_many_into(instance, background, masks, out);
    }
    fn gradient(&self, _x: &[f64]) -> Option<Vec<f64>> {
        Some(self.coef().to_vec())
    }
    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

impl ModelOracle for LogisticRegression {
    fn n_features(&self) -> usize {
        Model::n_features(self)
    }
    fn predict(&self, x: &[f64]) -> f64 {
        Classifier::proba_one(self, x)
    }
    fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        Classifier::proba_batch(self, rows)
    }
    /// Masked margins for the whole round through the hoisted bias-first
    /// kernel, then the sigmoid — the same composition as
    /// `Classifier::proba_batch`, bit-identical to the per-mask loop.
    fn predict_masked(&self, instance: &[f64], background: &Matrix, masks: &[u64], out: &mut Vec<f64>) {
        out.clear();
        out.resize(masks.len() * background.rows(), 0.0);
        self.margin_masked_many_into(instance, background, masks, out);
        for o in out.iter_mut() {
            *o = xai_data::sigmoid(*o);
        }
    }
    /// `∂p/∂x = p(1−p)·w` — the same formula the Wachter and saliency
    /// adapters use, so gradient methods are bit-identical either way.
    fn gradient(&self, x: &[f64]) -> Option<Vec<f64>> {
        let p = Classifier::proba_one(self, x);
        let s = p * (1.0 - p);
        Some(self.coef().iter().map(|w| w * s).collect())
    }
    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

impl ModelOracle for Mlp {
    fn n_features(&self) -> usize {
        Model::n_features(self)
    }
    fn predict(&self, x: &[f64]) -> f64 {
        Classifier::proba_one(self, x)
    }
    fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        Classifier::proba_batch(self, rows)
    }
    /// Masked raw outputs through the masked GEMM, then the classifier
    /// head per value in `proba_batch` order — bit-identical either way.
    fn predict_masked(&self, instance: &[f64], background: &Matrix, masks: &[u64], out: &mut Vec<f64>) {
        use crate::mlp::MlpTask;
        masked_chunks(background, masks, out, |mask, chunk| {
            self.raw_masked_into(instance, background, mask, chunk);
            for o in chunk.iter_mut() {
                *o = match self.task() {
                    MlpTask::Regression => o.clamp(0.0, 1.0),
                    MlpTask::Classification => xai_data::sigmoid(*o),
                };
            }
        });
    }
    fn gradient(&self, x: &[f64]) -> Option<Vec<f64>> {
        Some(self.input_gradient(x))
    }
    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GbdtConfig, LogisticConfig, TreeConfig};
    use xai_data::synth::german_credit;

    #[test]
    fn oracle_matches_the_legacy_adapters() {
        let data = german_credit(80, 11);
        let x = data.row(0);

        let logit = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let oracle: &dyn ModelOracle = &logit;
        assert_eq!(oracle.n_features(), data.x().cols());
        assert_eq!(oracle.predict(x), logit.proba_one(x));
        assert_eq!(oracle.predict_batch(data.x()), logit.proba_batch(data.x()));

        let tree = DecisionTree::fit(data.x(), data.y(), TreeConfig::default());
        let oracle: &dyn ModelOracle = &tree;
        assert_eq!(oracle.predict(x), tree.predict_value(x));
        assert_eq!(oracle.predict_batch(data.x()), tree.predict_values(data.x()));
    }

    #[test]
    fn gradients_match_the_existing_surfaces() {
        let data = german_credit(80, 12);
        let x = data.row(3);

        let logit = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let g = ModelOracle::gradient(&logit, x).unwrap();
        let p = logit.proba_one(x);
        for (gj, wj) in g.iter().zip(logit.coef()) {
            assert!((gj - wj * p * (1.0 - p)).abs() < 1e-12);
        }

        let gbdt = Gbdt::fit(data.x(), data.y(), GbdtConfig::default());
        assert!(ModelOracle::gradient(&gbdt, x).is_none(), "trees have no gradient");
    }

    #[test]
    fn as_any_downcasts_to_the_concrete_model() {
        let data = german_credit(60, 13);
        let gbdt = Gbdt::fit(data.x(), data.y(), GbdtConfig::default());
        let oracle: &dyn ModelOracle = &gbdt;
        let any = oracle.as_any().unwrap();
        assert!(any.downcast_ref::<Gbdt>().is_some());
        assert!(any.downcast_ref::<Mlp>().is_none());
    }
}
