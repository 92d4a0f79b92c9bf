//! # xai-counterfactual
//!
//! Counterfactual explanations and algorithmic recourse (tutorial §2.1.4):
//!
//! - [`distance`] — MAD-L1 proximity, sparsity, diversity and
//!   data-manifold plausibility metrics;
//! - [`dice`] — diverse counterfactual sets under feasibility constraints;
//! - [`mod@geco`] — genetic search with a PLAF-style constraint language and
//!   plausibility-by-construction value pools, plus the random-search
//!   baseline (experiment E10);
//! - [`recourse`] — minimal-cost action sets for linear classifiers over
//!   mutable features only;
//! - [`lewis`] — probabilities of necessity/sufficiency over an SCM, with
//!   causally-propagated recourse ranking.

pub mod dice;
pub mod distance;
pub mod explainer;
pub mod geco;
pub mod lewis;
pub mod recourse;
pub mod wachter;

pub use dice::{DiceConfig, DiceExplainer};
pub use distance::{diversity, implausibility, FeatureScales};
pub use explainer::{DiceMethod, GecoMethod, WachterMethod};
pub use geco::{geco, random_search_counterfactual, try_geco, GecoConfig, Plaf, PlafRule};
pub use lewis::{CausationScores, Lewis};
pub use wachter::{try_wachter_counterfactual, wachter_counterfactual, GradientModel, WachterConfig};
pub use recourse::{linear_recourse, Action, Recourse, RecourseConfig};
