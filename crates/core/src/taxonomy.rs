//! The tutorial's taxonomy (§1), made executable.
//!
//! Every explanation method in the workspace carries a [`MethodCard`]
//! describing where it sits along the three dimensions the tutorial uses to
//! organize the field:
//!
//! - **(a)** explainability *by design* ([`Stage::Intrinsic`]) vs *post
//!   factum* analysis ([`Stage::PostHoc`]);
//! - **(b)** requires *system internals* ([`Access::ModelSpecific`]) vs
//!   applicable to any black box ([`Access::ModelAgnostic`]);
//! - **(c)** explains *one prediction* ([`Scope::Local`]), the *whole
//!   model* ([`Scope::Global`]), or training *data* responsibility
//!   ([`Scope::TrainingData`] — the tutorial's §2.3 axis).
//!
//! The [`Registry`] answers the kinds of questions the tutorial poses
//! ("which model-agnostic local methods exist?") programmatically — and,
//! since the unified explainer layer (DESIGN.md §9), it can also *run* the
//! methods it catalogues: [`Registry::register_explainer`] attaches a live
//! [`Explainer`] to a card, and
//! [`Registry::resolve`] hands runnable trait objects back by taxonomy
//! position.

use std::fmt;
use std::sync::Arc;

use crate::explainer::Explainer;

/// How runnable explainers are shared out of the [`Registry`].
pub type SharedExplainer = Arc<dyn Explainer>;

/// When explainability is achieved (tutorial dimension (a)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Interpretable by construction (linear models, decision sets, …).
    Intrinsic,
    /// Computed after training by analyzing the fitted system.
    PostHoc,
}

/// What access the method assumes (tutorial dimension (b)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Access {
    /// Only needs a prediction oracle.
    ModelAgnostic,
    /// Needs model internals (tree structure, gradients, Hessians, …).
    ModelSpecific,
}

/// What the explanation is about (tutorial dimension (c), extended with the
/// §2.3 training-data axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scope {
    /// A single prediction.
    Local,
    /// Overall model behaviour.
    Global,
    /// Responsibility of training data points.
    TrainingData,
}

/// The form the explanation takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExplanationForm {
    /// A real-valued score per feature.
    FeatureAttribution,
    /// If-then rules / anchors / sufficient reasons.
    Rules,
    /// Contrastive examples and recourse actions.
    Counterfactual,
    /// Scores over training examples.
    DataValuation,
    /// Provenance polynomials / lineage over database tuples.
    Provenance,
}

/// Metadata describing one explanation method.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MethodCard {
    /// Canonical method name ("Kernel SHAP", "Anchors", …).
    pub name: &'static str,
    /// Tutorial section that surveys it ("2.1.2").
    pub section: &'static str,
    /// Dimension (a).
    pub stage: Stage,
    /// Dimension (b).
    pub access: Access,
    /// Dimension (c).
    pub scope: Scope,
    /// Output form.
    pub form: ExplanationForm,
    /// Primary citation as it appears in the tutorial's bibliography.
    pub citation: &'static str,
}

impl fmt::Display for MethodCard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (§{}; {:?}/{:?}/{:?}; {})",
            self.name, self.section, self.stage, self.access, self.scope, self.citation
        )
    }
}

/// A queryable catalogue of method cards, optionally paired with live,
/// runnable [`Explainer`] implementations.
///
/// Metadata-only entries (surveyed methods without a workspace
/// implementation) and runnable entries share one catalogue; `runners`
/// stays parallel to `cards` by index.
#[derive(Clone, Default)]
pub struct Registry {
    cards: Vec<MethodCard>,
    runners: Vec<Option<SharedExplainer>>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("cards", &self.cards)
            .field("runnable", &self.runnable_names())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a metadata-only card (duplicate names are rejected).
    pub fn register(&mut self, card: MethodCard) -> Result<(), String> {
        if self.cards.iter().any(|c| c.name == card.name) {
            return Err(format!("method '{}' already registered", card.name));
        }
        self.cards.push(card);
        self.runners.push(None);
        Ok(())
    }

    /// Registers a runnable explainer under its own card. If a
    /// metadata-only card with the same name is already catalogued, the
    /// explainer is attached to it; attaching twice is rejected.
    pub fn register_explainer(&mut self, explainer: SharedExplainer) -> Result<(), String> {
        let card = explainer.card();
        if let Some(i) = self.cards.iter().position(|c| c.name == card.name) {
            if self.runners[i].is_some() {
                return Err(format!("explainer '{}' already registered", card.name));
            }
            if self.cards[i] != card {
                return Err(format!(
                    "explainer '{}' disagrees with its catalogued card",
                    card.name
                ));
            }
            self.runners[i] = Some(explainer);
        } else {
            self.cards.push(card);
            self.runners.push(Some(explainer));
        }
        Ok(())
    }

    /// All cards in registration order.
    pub fn cards(&self) -> &[MethodCard] {
        &self.cards
    }

    /// Looks a method up by name.
    pub fn get(&self, name: &str) -> Option<&MethodCard> {
        self.cards.iter().find(|c| c.name == name)
    }

    /// Cards matching the given (optional) dimension filters.
    pub fn query(
        &self,
        stage: Option<Stage>,
        access: Option<Access>,
        scope: Option<Scope>,
    ) -> Vec<&MethodCard> {
        self.cards
            .iter()
            .filter(|c| stage.is_none_or(|s| c.stage == s))
            .filter(|c| access.is_none_or(|a| c.access == a))
            .filter(|c| scope.is_none_or(|s| c.scope == s))
            .collect()
    }

    /// Cards surveyed in a given tutorial section prefix ("2.1" matches
    /// "2.1.2").
    pub fn by_section(&self, prefix: &str) -> Vec<&MethodCard> {
        self.cards.iter().filter(|c| c.section.starts_with(prefix)).collect()
    }

    /// The runnable explainer registered under `name`, if any.
    pub fn get_explainer(&self, name: &str) -> Option<SharedExplainer> {
        let i = self.cards.iter().position(|c| c.name == name)?;
        self.runners[i].clone()
    }

    /// True when `name` is catalogued *and* runnable.
    pub fn is_runnable(&self, name: &str) -> bool {
        self.get_explainer(name).is_some()
    }

    /// Live explainers at the given taxonomy position, in registration
    /// order — the tutorial's "which model-agnostic local methods exist?"
    /// answered with runnable code instead of metadata.
    pub fn resolve(&self, scope: Scope, access: Access) -> Vec<SharedExplainer> {
        self.cards
            .iter()
            .zip(&self.runners)
            .filter(|(c, _)| c.scope == scope && c.access == access)
            .filter_map(|(_, r)| r.clone())
            .collect()
    }

    /// All runnable explainers, in registration order.
    pub fn runnable(&self) -> Vec<SharedExplainer> {
        self.runners.iter().flatten().cloned().collect()
    }

    /// Names of the runnable entries, in registration order.
    pub fn runnable_names(&self) -> Vec<&'static str> {
        self.cards
            .iter()
            .zip(&self.runners)
            .filter(|(_, r)| r.is_some())
            .map(|(c, _)| c.name)
            .collect()
    }
}

/// The static catalogue behind [`workspace_registry`]: every method
/// implemented in this workspace, in tutorial order. Method crates fetch
/// their own card from here via [`method_card`], so the metadata lives in
/// exactly one place and an `Explainer` impl can never drift from the
/// catalogue.
pub const WORKSPACE_CARDS: &[MethodCard] = &[
        MethodCard {
            name: "LIME",
            section: "2.1.1",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::Local,
            form: ExplanationForm::FeatureAttribution,
            citation: "Ribeiro et al., KDD 2016 [53]",
        },
        MethodCard {
            name: "Global surrogate",
            section: "2.1.1",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::Global,
            form: ExplanationForm::FeatureAttribution,
            citation: "Molnar 2020 [50]",
        },
        MethodCard {
            name: "Linear model tree",
            section: "2.1.1",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::Global,
            form: ExplanationForm::FeatureAttribution,
            citation: "Lahiri & Edakunni 2020 [42]",
        },
        MethodCard {
            name: "Exact Shapley",
            section: "2.1.2",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::Local,
            form: ExplanationForm::FeatureAttribution,
            citation: "Shapley 1953 [63]",
        },
        MethodCard {
            name: "Permutation sampling Shapley",
            section: "2.1.2",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::Local,
            form: ExplanationForm::FeatureAttribution,
            citation: "Datta et al., S&P 2016 [14]",
        },
        MethodCard {
            name: "Kernel SHAP",
            section: "2.1.2",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::Local,
            form: ExplanationForm::FeatureAttribution,
            citation: "Lundberg & Lee, NeurIPS 2017 [47]",
        },
        MethodCard {
            name: "TreeSHAP",
            section: "2.1.2",
            stage: Stage::PostHoc,
            access: Access::ModelSpecific,
            scope: Scope::Local,
            form: ExplanationForm::FeatureAttribution,
            citation: "Lundberg et al., Nat. Mach. Intell. 2020 [46]",
        },
        MethodCard {
            name: "QII",
            section: "2.1.2",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::Local,
            form: ExplanationForm::FeatureAttribution,
            citation: "Datta et al., S&P 2016 [14]",
        },
        MethodCard {
            name: "Global SHAP",
            section: "2.1.2",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::Global,
            form: ExplanationForm::FeatureAttribution,
            citation: "Lundberg et al. 2020 [46]",
        },
        MethodCard {
            name: "Asymmetric Shapley values",
            section: "2.1.3",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::Local,
            form: ExplanationForm::FeatureAttribution,
            citation: "Frye et al. 2019 [18]",
        },
        MethodCard {
            name: "Causal Shapley values",
            section: "2.1.3",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::Local,
            form: ExplanationForm::FeatureAttribution,
            citation: "Heskes et al. 2020 [30]",
        },
        MethodCard {
            name: "Shapley flow",
            section: "2.1.3",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::Local,
            form: ExplanationForm::FeatureAttribution,
            citation: "Wang et al., AISTATS 2021 [74]",
        },
        MethodCard {
            name: "DiCE",
            section: "2.1.4",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::Local,
            form: ExplanationForm::Counterfactual,
            citation: "Mothilal et al., FAT* 2020 [51]",
        },
        MethodCard {
            name: "GeCo",
            section: "2.1.4",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::Local,
            form: ExplanationForm::Counterfactual,
            citation: "Schleich et al., VLDB 2021 [60]",
        },
        MethodCard {
            name: "Actionable recourse",
            section: "2.1.4",
            stage: Stage::PostHoc,
            access: Access::ModelSpecific,
            scope: Scope::Local,
            form: ExplanationForm::Counterfactual,
            citation: "Ustun et al., FAT* 2019 [69]",
        },
        MethodCard {
            name: "LEWIS",
            section: "2.1.4",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::Local,
            form: ExplanationForm::Counterfactual,
            citation: "Galhotra et al., SIGMOD 2021 [20]",
        },
        MethodCard {
            name: "Anchors",
            section: "2.2",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::Local,
            form: ExplanationForm::Rules,
            citation: "Ribeiro et al., AAAI 2018 [54]",
        },
        MethodCard {
            name: "Interpretable decision sets",
            section: "2.2",
            stage: Stage::Intrinsic,
            access: Access::ModelAgnostic,
            scope: Scope::Global,
            form: ExplanationForm::Rules,
            citation: "Lakkaraju et al., KDD 2016 [43]",
        },
        MethodCard {
            name: "Rule list (sequential covering)",
            section: "2.2",
            stage: Stage::Intrinsic,
            access: Access::ModelAgnostic,
            scope: Scope::Global,
            form: ExplanationForm::Rules,
            citation: "Clark & Niblett 1989 (CN2); cf. decision sets [43]",
        },
        MethodCard {
            name: "Association rule mining",
            section: "2.2.1",
            stage: Stage::Intrinsic,
            access: Access::ModelAgnostic,
            scope: Scope::Global,
            form: ExplanationForm::Rules,
            citation: "Agrawal et al., SIGMOD 1993 [3]",
        },
        MethodCard {
            name: "Sufficient reasons",
            section: "2.2.2",
            stage: Stage::PostHoc,
            access: Access::ModelSpecific,
            scope: Scope::Local,
            form: ExplanationForm::Rules,
            citation: "Shih et al. 2018 [65]; Darwiche & Hirth 2020 [12]",
        },
        MethodCard {
            name: "Leave-one-out",
            section: "2.3.1",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::TrainingData,
            form: ExplanationForm::DataValuation,
            citation: "Cook 1977; the §2.3 valuation baseline",
        },
        MethodCard {
            name: "Data Shapley (TMC)",
            section: "2.3.1",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::TrainingData,
            form: ExplanationForm::DataValuation,
            citation: "Ghorbani & Zou, ICML 2019 [24]",
        },
        MethodCard {
            name: "KNN-Shapley",
            section: "2.3.1",
            stage: Stage::PostHoc,
            access: Access::ModelSpecific,
            scope: Scope::TrainingData,
            form: ExplanationForm::DataValuation,
            citation: "Jia et al., AISTATS 2019 [34]",
        },
        MethodCard {
            name: "Distributional Shapley",
            section: "2.3.1",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::TrainingData,
            form: ExplanationForm::DataValuation,
            citation: "Ghorbani et al., ICML 2020 [23]; Kwon et al. 2021 [41]",
        },
        MethodCard {
            name: "Influence functions",
            section: "2.3.2",
            stage: Stage::PostHoc,
            access: Access::ModelSpecific,
            scope: Scope::TrainingData,
            form: ExplanationForm::DataValuation,
            citation: "Koh & Liang, ICML 2017 [39]",
        },
        MethodCard {
            name: "Second-order group influence",
            section: "2.3.2",
            stage: Stage::PostHoc,
            access: Access::ModelSpecific,
            scope: Scope::TrainingData,
            form: ExplanationForm::DataValuation,
            citation: "Basu et al., ICML 2020 [8]",
        },
        MethodCard {
            name: "LeafInfluence",
            section: "2.3.2",
            stage: Stage::PostHoc,
            access: Access::ModelSpecific,
            scope: Scope::TrainingData,
            form: ExplanationForm::DataValuation,
            citation: "Sharchilev et al., ICML 2018 [64]",
        },
        MethodCard {
            name: "Tuple Shapley",
            section: "3",
            stage: Stage::PostHoc,
            access: Access::ModelSpecific,
            scope: Scope::TrainingData,
            form: ExplanationForm::Provenance,
            citation: "Sebag et al., LMCS 2021 [62]",
        },
        MethodCard {
            name: "PrIU incremental updates",
            section: "3",
            stage: Stage::PostHoc,
            access: Access::ModelSpecific,
            scope: Scope::TrainingData,
            form: ExplanationForm::DataValuation,
            citation: "Wu et al., SIGMOD 2020 [77]",
        },
        MethodCard {
            name: "Complaint-driven debugging",
            section: "3",
            stage: Stage::PostHoc,
            access: Access::ModelSpecific,
            scope: Scope::TrainingData,
            form: ExplanationForm::DataValuation,
            citation: "Wu et al., SIGMOD 2020 [76]",
        },
        MethodCard {
            name: "Pipeline provenance",
            section: "3",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::TrainingData,
            form: ExplanationForm::Provenance,
            citation: "Herschel et al., VLDBJ 2017 [29]",
        },
        MethodCard {
            name: "Partial dependence / ICE",
            section: "2",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::Global,
            form: ExplanationForm::FeatureAttribution,
            citation: "Friedman 2001; Molnar 2020 [50]",
        },
        MethodCard {
            name: "Permutation importance",
            section: "2",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::Global,
            form: ExplanationForm::FeatureAttribution,
            citation: "Breiman 2001; Molnar 2020 [50]",
        },
        MethodCard {
            name: "Integrated gradients",
            section: "2.4",
            stage: Stage::PostHoc,
            access: Access::ModelSpecific,
            scope: Scope::Local,
            form: ExplanationForm::FeatureAttribution,
            citation: "Sundararajan et al. 2017; cf. saliency critiques [2, 22]",
        },
        MethodCard {
            name: "SmoothGrad",
            section: "2.4",
            stage: Stage::PostHoc,
            access: Access::ModelSpecific,
            scope: Scope::Local,
            form: ExplanationForm::FeatureAttribution,
            citation: "Smilkov et al. 2017; cf. fragility critique [22]",
        },
        MethodCard {
            name: "CXPlain",
            section: "2.1.3",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::Local,
            form: ExplanationForm::FeatureAttribution,
            citation: "Schwab & Karlen 2019 [61]",
        },
        MethodCard {
            name: "Shapley interaction index",
            section: "2.1.2",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::Local,
            form: ExplanationForm::FeatureAttribution,
            citation: "Lundberg et al. 2020 [46]; Kumar et al. 2020 [40]",
        },
        MethodCard {
            name: "Data Banzhaf",
            section: "2.3.1",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::TrainingData,
            form: ExplanationForm::DataValuation,
            citation: "Wang & Jia 2023; cf. stability discussion [34]",
        },
        MethodCard {
            name: "Logistic unlearning",
            section: "3",
            stage: Stage::PostHoc,
            access: Access::ModelSpecific,
            scope: Scope::TrainingData,
            form: ExplanationForm::DataValuation,
            citation: "Schelter et al., SIGMOD 2021 [59]",
        },
        MethodCard {
            name: "Wachter counterfactuals",
            section: "2.1.4",
            stage: Stage::PostHoc,
            access: Access::ModelSpecific,
            scope: Scope::Local,
            form: ExplanationForm::Counterfactual,
            citation: "Wachter et al. 2017; grounding via Lewis [45]",
        },
        MethodCard {
            name: "SP-LIME",
            section: "2.1.1",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::Global,
            form: ExplanationForm::FeatureAttribution,
            citation: "Ribeiro et al., KDD 2016 [53]",
        },
        MethodCard {
            name: "Conditional SHAP",
            section: "2.1.2",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::Local,
            form: ExplanationForm::FeatureAttribution,
            citation: "Aas et al. 2021; critique context [40]",
        },
        MethodCard {
            name: "Owen values",
            section: "2.1.2",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::Local,
            form: ExplanationForm::FeatureAttribution,
            citation: "Owen 1977; grouped attribution for one-hot blocks",
        },
        MethodCard {
            name: "Shapley for database repairs",
            section: "3",
            stage: Stage::PostHoc,
            access: Access::ModelSpecific,
            scope: Scope::TrainingData,
            form: ExplanationForm::Provenance,
            citation: "Deutch et al., CIKM 2021 [17]",
        },
        MethodCard {
            name: "Why-not provenance",
            section: "3",
            stage: Stage::PostHoc,
            access: Access::ModelSpecific,
            scope: Scope::TrainingData,
            form: ExplanationForm::Provenance,
            citation: "Meliou et al., MUD 2010 [49]",
        },
];

/// The catalogued card for `name`.
///
/// # Panics
/// Panics when `name` is not in [`WORKSPACE_CARDS`] — `Explainer` impls
/// call this with literal names, so a miss is a wiring bug, caught by the
/// registry-completeness suite.
pub fn method_card(name: &str) -> MethodCard {
    WORKSPACE_CARDS
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("method '{name}' is not in WORKSPACE_CARDS"))
        .clone()
}

/// Builds the registry pre-populated with every method implemented in this
/// workspace, in tutorial order (metadata only; the top-level `xai` crate
/// attaches the runnable explainers).
pub fn workspace_registry() -> Registry {
    let mut r = Registry::new();
    for card in WORKSPACE_CARDS {
        r.register(card.clone()).expect("workspace registry has unique names");
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_rejects_duplicates() {
        let mut r = Registry::new();
        let card = MethodCard {
            name: "X",
            section: "2.1",
            stage: Stage::PostHoc,
            access: Access::ModelAgnostic,
            scope: Scope::Local,
            form: ExplanationForm::FeatureAttribution,
            citation: "-",
        };
        r.register(card.clone()).unwrap();
        assert!(r.register(card).is_err());
    }

    #[test]
    fn workspace_registry_is_complete_and_consistent() {
        let r = workspace_registry();
        assert!(r.cards().len() >= 25, "expected a rich catalogue, got {}", r.cards().len());
        // Every §2 family is represented.
        for prefix in ["2.1.1", "2.1.2", "2.1.3", "2.1.4", "2.2", "2.3.1", "2.3.2", "3"] {
            assert!(!r.by_section(prefix).is_empty(), "no methods for §{prefix}");
        }
    }

    #[test]
    fn taxonomy_queries() {
        let r = workspace_registry();
        let agnostic_local = r.query(None, Some(Access::ModelAgnostic), Some(Scope::Local));
        assert!(agnostic_local.iter().any(|c| c.name == "LIME"));
        assert!(agnostic_local.iter().any(|c| c.name == "Kernel SHAP"));
        assert!(!agnostic_local.iter().any(|c| c.name == "TreeSHAP"));
        let data_methods = r.query(None, None, Some(Scope::TrainingData));
        assert!(data_methods.iter().any(|c| c.name == "Data Shapley (TMC)"));
        assert!(data_methods.iter().any(|c| c.name == "Influence functions"));
        let intrinsic = r.query(Some(Stage::Intrinsic), None, None);
        assert!(intrinsic.iter().any(|c| c.name == "Interpretable decision sets"));
    }

    #[test]
    fn display_is_informative() {
        let r = workspace_registry();
        let s = r.get("LIME").unwrap().to_string();
        assert!(s.contains("LIME") && s.contains("2.1.1") && s.contains("Ribeiro"));
    }

    #[test]
    fn method_card_looks_up_the_catalogue() {
        assert_eq!(method_card("Kernel SHAP").section, "2.1.2");
        assert_eq!(method_card("Leave-one-out").scope, Scope::TrainingData);
    }

    #[test]
    #[should_panic(expected = "not in WORKSPACE_CARDS")]
    fn method_card_rejects_unknown_names() {
        let _ = method_card("not a method");
    }

    #[test]
    fn registry_attaches_and_resolves_runnable_explainers() {
        use crate::explainer::{ExplainRequest, Explanation, ModelOracle};
        use std::sync::Arc;

        struct Dummy;
        impl Explainer for Dummy {
            fn card(&self) -> MethodCard {
                method_card("LIME")
            }
            fn explain(
                &self,
                _model: &dyn ModelOracle,
                _req: &ExplainRequest<'_>,
            ) -> crate::XaiResult<Explanation> {
                Ok(Explanation::Rules(vec![]))
            }
        }

        let mut r = workspace_registry();
        assert!(!r.is_runnable("LIME"));
        assert!(r.resolve(Scope::Local, Access::ModelAgnostic).is_empty());

        r.register_explainer(Arc::new(Dummy)).unwrap();
        assert!(r.is_runnable("LIME"));
        // Attaching to an existing card must not duplicate it.
        assert_eq!(r.cards().len(), WORKSPACE_CARDS.len());
        // Double registration is rejected.
        assert!(r.register_explainer(Arc::new(Dummy)).is_err());

        let live = r.resolve(Scope::Local, Access::ModelAgnostic);
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].card().name, "LIME");
        assert_eq!(r.runnable_names(), vec!["LIME"]);
        assert!(r.get_explainer("LIME").is_some());
        assert!(r.get_explainer("TreeSHAP").is_none());
        // Debug output lists the runnable subset without requiring
        // `dyn Explainer: Debug`.
        assert!(format!("{r:?}").contains("LIME"));
    }
}
