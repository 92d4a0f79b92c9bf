//! # xai — a unified explainable-AI toolkit in Rust
//!
//! A from-scratch implementation of the XAI landscape surveyed in
//! *"Explainable AI: Foundations, Applications, Opportunities for Data
//! Management Research"* (Pradhan, Lahiri, Galhotra & Salimi, SIGMOD '22
//! tutorial): feature attributions (LIME, the Shapley family, TreeSHAP,
//! causal variants), rule-based explanations (Anchors, decision sets,
//! sufficient reasons), counterfactuals and recourse (DiCE, GeCo, LEWIS),
//! training-data valuations (Data Shapley, influence functions), and the
//! data-management directions of §3 (provenance semirings, tuple Shapley,
//! complaint-driven debugging, incremental model updates).
//!
//! Every substrate — linear algebra, datasets, models, causal models, a
//! relational engine — is implemented in this workspace with no external
//! numeric dependencies.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`linalg`] | matrices, factorizations, WLS, CG, statistics, RNG |
//! | [`data`] | datasets, schemas, encoders, metrics, synthetic generators, SCMs |
//! | [`models`] | linear/logistic regression, CART, forests, GBDT, kNN, NB, MLP |
//! | [`core`] | explanation types, the executable taxonomy, the `Explainer` trait |
//! | [`shapley`] | exact/sampled/Kernel/Tree SHAP, QII, asymmetric/causal, flow |
//! | [`surrogate`] | LIME, stability indices, global surrogates, LMTs, attacks |
//! | [`rules`] | Apriori/FP-Growth, association rules, Anchors, IDS, logic |
//! | [`counterfactual`] | DiCE, GeCo, actionable recourse, LEWIS |
//! | [`datavalue`] | LOO, Data Shapley, KNN-Shapley, influence functions |
//! | [`provenance`] | semirings, relational engine, tuple Shapley, Rain, PrIU |
//! | [`unified`] | the runnable registry: every method behind one trait |
//! | [`serve`] | the explanation-serving engine: requests as JSON, worker pool, result cache |
//! | [`shard`] | deterministic shard plans, the method/model factories and the shard worker (DESIGN.md §11) |
//! | [`transport`] | the multi-node TCP shard transport and daemon (DESIGN.md §13) |
//! | [`core::backend`] | the unified `ExecutionBackend` substrate: local, process-pool, cluster (DESIGN.md §14) |
//!
//! ## Quickstart
//!
//! Every method is an [`core::Explainer`]: build one [`core::ExplainRequest`]
//! carrying the data, the instance and a [`core::RunConfig`] execution plan
//! (seed, workers, batching, budget), then call `explain` on any method —
//! or resolve methods by taxonomy coordinates from the
//! [`unified::runnable_registry`].
//!
//! ```
//! use xai::prelude::*;
//!
//! // Train a model on a synthetic credit dataset…
//! let data = xai::data::synth::german_credit(300, 7);
//! let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
//!
//! // …and explain one decision with Kernel SHAP through the unified API.
//! let row = data.row(0).to_vec();
//! let req = ExplainRequest::new(&data)
//!     .instance(&row)
//!     .plan(RunConfig::seeded(7).with_workers(2).with_batched(true));
//! let explanation = KernelShapMethod::default().explain(&model, &req).unwrap();
//! let attribution = explanation.as_attribution().unwrap();
//! assert!(attribution.efficiency_gap() < 1e-6);
//!
//! // The same request drives any other method in the registry.
//! use xai::core::taxonomy::{Access, Scope};
//! for method in runnable_registry().resolve(Scope::Local, Access::ModelAgnostic) {
//!     method.explain(&model, &req).unwrap();
//! }
//! ```

pub use xai_core as core;
pub use xai_counterfactual as counterfactual;
pub use xai_data as data;
pub use xai_datavalue as datavalue;
pub use xai_linalg as linalg;
pub use xai_models as models;
pub use xai_provenance as provenance;
pub use xai_rules as rules;
pub use xai_shapley as shapley;
pub use xai_surrogate as surrogate;

pub mod serve;
pub mod shard;
pub mod transport;
pub mod unified;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use crate::serve::{
        register_persist, workspace_service, ExplanationService, ServeRequest, ServeResponse,
        ServeStats, ServiceConfig,
    };
    pub use crate::shard::{shardable, PoolConfig, ShardDescriptor, ShardResult, ShardableExplainer};
    pub use crate::transport::{
        ClusterConfig, ClusterRunner, ClusterStats, DaemonHandle, FallbackPolicy, RetryPolicy,
    };
    pub use crate::unified::{all_explainers, runnable_registry};
    pub use xai_core::backend::{
        BackendChoice, BackendJob, BackendKind, BackendOutcome, ClusterBackend, ExecutionBackend,
        LocalBackend, ProcessPoolBackend,
    };
    pub use xai_core::{
        workspace_registry, Counterfactual, DataAttribution, DegradationPolicy, ExplainRequest,
        Explainer, Explanation, FeatureAttribution, FnOracle, Json, MethodCard, ModelOracle,
        Registry, RuleExplanation, RunConfig, SampleBudget, ToReport, XaiError, XaiResult,
    };
    pub use xai_counterfactual::{
        geco, linear_recourse, DiceConfig, DiceExplainer, DiceMethod, GecoConfig, GecoMethod,
        Lewis, Plaf, RecourseConfig, WachterMethod,
    };
    pub use xai_data::{Dataset, Schema, Task};
    pub use xai_datavalue::{
        influence_on_test_loss, knn_shapley, tmc_shapley, BanzhafMethod, LogisticUtility,
        LooMethod, Solver, TmcConfig, TmcMethod, Utility,
    };
    pub use xai_models::{
        proba_fn, regress_fn, Classifier, DecisionTree, Gbdt, GbdtConfig, Knn, LinearRegression,
        LogisticConfig, LogisticRegression, Model, RandomForest, Regressor, TreeConfig,
    };
    pub use xai_provenance::ComplaintMethod;
    pub use xai_rules::{
        AnchorsConfig, AnchorsExplainer, AnchorsMethod, DecisionSet, DecisionSetMethod, IdsConfig,
    };
    pub use xai_shapley::{
        exact_shapley, gbdt_shap, kernel_shap, kernel_shap_attribution, tree_shap_attribution,
        CooperativeGame, ExactShapleyMethod, KernelShapConfig, KernelShapMethod,
        PermutationShapleyMethod, PredictionGame, TreeShapMethod,
    };
    pub use xai_surrogate::{
        IntegratedGradientsMethod, LimeConfig, LimeExplainer, LimeMethod, PdpMethod, SpLimeMethod,
    };
}
