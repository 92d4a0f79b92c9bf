//! # xai-shapley
//!
//! Shapley-value explanation methods (tutorial §2.1.2–§2.1.3), all built on
//! one abstraction — the cooperative [`game::CooperativeGame`] — with
//! interchangeable estimators:
//!
//! | module | method | cost |
//! |---|---|---|
//! | [`exact`] | exact Shapley / Banzhaf by coalition enumeration | `O(2^n)` |
//! | [`sampling`] | permutation Monte-Carlo (±antithetic) | `O(m·n)` evals |
//! | [`kernel`] | Kernel SHAP weighted regression | `O(m)` evals + WLS |
//! | [`tree`] | TreeSHAP for CART/forest/GBDT | `O(L·D²)` per tree |
//! | [`qii`] | Quantitative Input Influence | `O(m·n)` evals |
//! | [`asymmetric`] | asymmetric Shapley values (causal orderings) | `n!` / sampled |
//! | [`causal`] | causal (interventional) Shapley values on an SCM | `O(2^n)` · MC |
//! | [`flow`] | edge-level Shapley credit on the causal DAG | `O(2^E)` |
//! | [`global`] | local→global aggregation | linear |
//! | [`batch`] | batched coalition evaluation + memo cache | — |
//! | [`masked`] | zero-copy masked evaluation + cross-request memo | — |
//!
//! Each Monte-Carlo estimator is written once per draw layout — the
//! one-stream sequential layout and the seeded chunk grid that
//! `workers > 1` and the shard layer run — and evaluates through a
//! [`batch::BatchGame`], which materializes whole sampling rounds into
//! single model calls. The input's arity picks the game: up to 64
//! features it is [`masked::MaskedPredictionGame`], which evaluates
//! coalitions zero-copy; wider inputs use the materializing
//! [`batch::BatchPredictionGame`]. `RunConfig::batched` selects nothing.
//! Both games are bit-identical to the scalar [`game::PredictionGame`] at
//! every seed.
pub mod asymmetric;
pub mod batch;
pub mod causal;
pub mod conditional;
pub mod exact;
pub mod explainer;
pub mod flow;
pub mod game;
pub mod global;
pub mod interaction;
pub mod kernel;
pub mod masked;
pub mod owen;
pub mod qii;
pub mod sampling;
pub mod tree;

pub use asymmetric::{asymmetric_shapley_exact, asymmetric_shapley_sampled, Precedence};
pub use batch::{BatchGame, BatchPredictionGame};
pub use conditional::{conditional_shapley, ConditionalGame};
pub use causal::{causal_shapley, effect_decomposition, CausalGame, EffectDecomposition};
pub use exact::{exact_banzhaf, exact_shapley, shapley_from_table, MAX_EXACT_PLAYERS};
pub use explainer::{
    ExactShapleyMethod, KernelShapMethod, PermutationShapleyMethod, TreeShapMethod,
};
pub use flow::{shapley_flow, FlowEdge, ShapleyFlow};
pub use game::{CooperativeGame, PredictionGame, TableGame};
pub use masked::{coalition_mask, MaskedPredictionGame, MemoGame, MAX_MASKED_PLAYERS};
pub use interaction::{exact_interactions, model_interactions, InteractionMatrix};
pub use global::{
    aggregate_local, gbdt_global_importance, kernel_shap_attribution,
    try_kernel_shap_attribution, tree_shap_attribution,
    GlobalImportance,
};
pub use owen::{one_hot_groups, owen_values, OwenValues};
pub use kernel::{
    kernel_shap, shapley_kernel_weight, try_kernel_shap, try_kernel_shap_budgeted, KernelShap,
    KernelShapConfig,
};
pub use qii::{set_qii, shapley_qii, unary_qii};
pub use sampling::{
    antithetic_permutation_shapley, permutation_shapley, try_antithetic_permutation_shapley,
    try_permutation_shapley, try_permutation_shapley_budgeted, SampledShapley,
};
pub use tree::{
    brute_force_tree_shap, forest_shap, gbdt_shap, tree_expected_value, tree_shap,
    PathDependentGame, TreeShapExplanation,
};
