//! # xai-datavalue
//!
//! Training-data-based explanations (tutorial §2.3): attribute model
//! behaviour to *training points* rather than features.
//!
//! - [`utility`] — the subset-utility abstraction all valuation methods
//!   share (learner × metric);
//! - [`loo`] — leave-one-out and exact retraining-Shapley ground truths;
//! - [`data_shapley`] — TMC-Shapley with truncation, plus removal curves;
//! - [`mod@knn_shapley`] — exact `O(n log n)` Shapley values for kNN utilities;
//! - [`distributional`] — distribution-level values stable under dataset
//!   resampling;
//! - [`influence`] — Koh–Liang influence functions (Cholesky and
//!   conjugate-gradient paths) with retraining validation;
//! - [`incremental`] — the incremental-training utility engine: one live
//!   model mutated by rank-one add/remove-row deltas instead of retrained
//!   per subset;
//! - [`group`] — first-order vs curvature-aware group influence;
//! - [`tree_influence`] — LeafInfluence-style attribution for GBDTs with
//!   fixed structure.

pub mod banzhaf;
pub mod data_shapley;
pub mod distributional;
pub mod explainer;
pub mod group;
pub mod incremental;
pub mod influence;
pub mod knn_shapley;
pub mod loo;
pub mod parallel;
pub mod tree_influence;
pub mod utility;

pub use banzhaf::{
    data_banzhaf, exact_data_banzhaf, try_data_banzhaf, try_data_banzhaf_budgeted, BanzhafConfig,
};
pub use data_shapley::{
    removal_curve, tmc_shapley, try_tmc_shapley, try_tmc_shapley_budgeted, TmcConfig, TmcResult,
};
pub use explainer::{BanzhafMethod, LooMethod, TmcMethod};
pub use distributional::{distributional_shapley, DistributionalConfig};
pub use group::{
    group_influence_first_order, group_influence_newton, group_removal_ground_truth,
    relative_error,
};
pub use incremental::{
    data_banzhaf_incremental, leave_one_out_incremental, tmc_shapley_incremental,
    try_data_banzhaf_incremental, try_leave_one_out_incremental, try_tmc_shapley_incremental,
    IncrementalModel, IncrementalStats, IncrementalUtility, RidgeUtility, RidgeValuationModel,
    WarmLogisticModel,
};
pub use influence::{
    influence_on_test_loss, removal_parameter_change, retraining_ground_truth, Solver,
};
pub use knn_shapley::{knn_shapley, knn_shapley_single};
pub use loo::{exact_data_shapley, leave_one_out, try_leave_one_out};
pub use tree_influence::{
    fixed_structure_ground_truth, fixed_structure_retrain, leaf_influence_first_order,
};
pub use utility::{CachedUtility, FnUtility, KnnUtility, LogisticUtility, Utility};
