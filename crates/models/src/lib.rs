//! # xai-models
//!
//! From-scratch ML models with "white-box complete" access: every model
//! exposes the internals its explainers need. [`LogisticRegression`]
//! surfaces per-example gradients and Hessians for influence functions;
//! [`DecisionTree`] / [`Gbdt`] expose node arrays for TreeSHAP, prime
//! implicants and LeafInfluence; [`Knn`] exposes sorted neighbours for
//! closed-form KNN-Shapley; [`Mlp`] exposes input gradients for
//! saliency-style attributions.
//!
//! Model-agnostic explainers see only a `Fn(&[f64]) -> f64` closure built
//! with [`proba_fn`] / [`regress_fn`] — the tutorial's model-agnostic vs
//! model-dependent boundary (§1 dimension (b)) is enforced by the type
//! system. Their batched hot paths see the matching
//! `Fn(&Matrix) -> Vec<f64>` surface ([`batch_proba_fn`] /
//! [`batch_regress_fn`], with [`batch_from_scalar`] as the row-loop
//! fallback); every vectorized `predict_batch` override is bit-identical
//! to the scalar row loop.
//!
//! The unified explainer layer sees the same boundary through one object:
//! every model here implements `xai_core::ModelOracle` ([`oracle`]), with
//! optional gradient and downcast capabilities for the model-specific
//! methods.

pub mod forest;
pub mod gbdt;
pub mod knn;
pub mod linear;
pub mod logistic;
pub mod mlp;
pub mod naive_bayes;
pub mod oracle;
pub mod persist;
pub mod traits;
pub mod tree;

pub use forest::{ForestConfig, RandomForest};
pub use gbdt::{Gbdt, GbdtConfig, GbdtLoss};
pub use knn::Knn;
pub use linear::{LinearConfig, LinearRegression};
pub use logistic::{LogisticConfig, LogisticRegression};
pub use mlp::{Mlp, MlpConfig, MlpTask};
pub use naive_bayes::GaussianNb;
pub use persist::{
    decode_model, load_from_file, model_fingerprint, persisted_bytes, save_to_file, Persist,
};
pub use traits::{
    batch_from_scalar, batch_proba_fn, batch_regress_fn, proba_fn, regress_fn, BatchPredictFn,
    Classifier, Model, PredictFn, Regressor,
};
pub use tree::{DecisionTree, SplitCriterion, TreeConfig, TreeNode};
