//! # xai-surrogate
//!
//! Surrogate explainability (tutorial §2.1.1): approximate a black box
//! with an interpretable proxy, locally or globally — plus the published
//! critiques of that idea, implemented and measurable.
//!
//! - [`lime`] — LIME for tabular data (local weighted ridge surrogate);
//! - [`stability`] — Visani-style VSI/CSI indices quantifying the
//!   "unreliable sampling" critique;
//! - [`global`] — whole-model tree and linear surrogates with fidelity
//!   scores;
//! - [`lmt`] — linear model trees: one contextual linear explanation per
//!   input region;
//! - [`attack`] — the Slack et al. scaffolding attack that hides a biased
//!   model from perturbation-based explainers.

pub mod attack;
pub mod cxplain;
pub mod explainer;
pub mod global;
pub mod importance;
pub mod pdp;
pub mod roar;
pub mod lime;
pub mod saliency;
pub mod lmt;
pub mod sp_lime;
pub mod stability;

pub use cxplain::{CxPlain, CxPlainConfig};
pub use explainer::{IntegratedGradientsMethod, LimeMethod, PdpMethod, SpLimeMethod};
pub use saliency::{
    gradient_times_input, integrated_gradients, saliency, smooth_grad, Differentiable,
};
pub use attack::{lime_audit, AttackConfig, AuditResult, ScaffoldedModel};
pub use importance::{permutation_importance, PermutationImportance};
pub use pdp::{feature_grid, partial_dependence, try_partial_dependence, PartialDependence};
pub use global::{holdout_fidelity, linear_surrogate, tree_surrogate, GlobalSurrogate};
pub use lime::{LimeConfig, LimeExplainer, LimeExplanation};
pub use lmt::{LinearModelTree, LmtConfig};
pub use roar::{random_ranking, roar_curve, RoarCurve};
pub use sp_lime::{sp_lime, SubmodularPick};
pub use stability::{lime_stability, LimeStability};
