//! Model persistence: JSON save/load for the workspace's model families.
//!
//! Explanations are only auditable if the *model that produced them* can
//! be stored alongside. This module serializes the parametric models and
//! tree ensembles to the workspace's own JSON (`xai-core::report::Json`)
//! and restores them bit-exactly (same predictions on every input) — the
//! round-trip property the tests assert.

use crate::gbdt::{Gbdt, GbdtLoss};
use crate::linear::LinearRegression;
use crate::logistic::LogisticRegression;
use crate::tree::{DecisionTree, SplitCriterion, TreeNode};
use xai_core::report::Json;
use xai_core::shard::{arr_field, index_field, num_field, nums_field, str_field, wire_error};
use xai_core::{ModelOracle, XaiError, XaiResult};

/// Saves a model to a JSON file, propagating I/O failures as
/// [`XaiError::Io`].
pub fn save_to_file<M: Persist>(model: &M, path: impl AsRef<std::path::Path>) -> XaiResult<()> {
    let path = path.as_ref();
    std::fs::write(path, model.save().to_json()).map_err(|e| XaiError::from_io(&e, path.display()))
}

/// Loads a model from a JSON file. A missing file comes back as
/// [`XaiError::Io`]; a truncated or malformed document as
/// [`XaiError::Parse`] — never a process abort.
pub fn load_from_file<M: Persist>(path: impl AsRef<std::path::Path>) -> XaiResult<M> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| XaiError::from_io(&e, path.display()))?;
    M::load(&xai_core::parse_json(&text)?)
}

/// The model's canonical persisted byte representation: the compact JSON
/// text of [`Persist::save`]. Two models with identical parameters
/// produce identical bytes; these are the bytes the serving layer hashes
/// into a model fingerprint.
pub fn persisted_bytes<M: Persist>(model: &M) -> Vec<u8> {
    model.save().to_json().into_bytes()
}

/// FNV-1a fingerprint of [`persisted_bytes`], as used by
/// `xai_core::serve` result-cache keys: replacing a registered model
/// changes the fingerprint, which unreachably strands every cached
/// result of the old version.
pub fn model_fingerprint<M: Persist>(model: &M) -> u64 {
    xai_core::serve::fingerprint_bytes(&persisted_bytes(model))
}

/// The one model decoder: rebuilds any persistable workspace model from
/// its JSON, dispatching on the `"kind"` tag, and returns the concrete
/// model — so every [`ModelOracle`] method, `predict_masked` included,
/// is the model's own — together with its [`persisted_bytes`]. Unknown
/// kinds and malformed documents are typed [`XaiError::Parse`] errors.
pub fn decode_model(json: &Json) -> XaiResult<(Box<dyn ModelOracle>, Vec<u8>)> {
    fn decode<M>(json: &Json) -> XaiResult<(Box<dyn ModelOracle>, Vec<u8>)>
    where
        M: Persist + ModelOracle + 'static,
    {
        let model = M::load(json)?;
        let bytes = persisted_bytes(&model);
        Ok((Box::new(model), bytes))
    }
    match str_field(json, "kind", "persisted model")?.as_str() {
        "linear_regression" => decode::<LinearRegression>(json),
        "logistic_regression" => decode::<LogisticRegression>(json),
        "decision_tree" => decode::<DecisionTree>(json),
        "gbdt" => decode::<Gbdt>(json),
        other => Err(wire_error(format!("persisted model: unknown model kind '{other}'"))),
    }
}

/// Serializable surface for models.
pub trait Persist: Sized {
    /// Renders the model as JSON.
    fn save(&self) -> Json;
    /// Restores a model from JSON; malformed documents are typed
    /// [`XaiError::Parse`] errors.
    fn load(json: &Json) -> XaiResult<Self>;
}

/// Checks a document's `"kind"` tag.
fn expect_kind(json: &Json, kind: &str) -> XaiResult<()> {
    let found = str_field(json, "kind", kind)?;
    if found != kind {
        return Err(wire_error(format!("{kind}: kind mismatch, got '{found}'")));
    }
    Ok(())
}

impl Persist for LinearRegression {
    fn save(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::str("linear_regression")),
            ("intercept", Json::Num(self.intercept())),
            ("coef", Json::nums(self.coef())),
        ])
    }

    fn load(json: &Json) -> XaiResult<Self> {
        const WHAT: &str = "linear_regression";
        expect_kind(json, WHAT)?;
        Ok(LinearRegression::from_parameters(
            num_field(json, "intercept", WHAT)?,
            nums_field(json, "coef", WHAT)?,
        ))
    }
}

impl Persist for LogisticRegression {
    fn save(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::str("logistic_regression")),
            ("intercept", Json::Num(self.intercept())),
            ("coef", Json::nums(self.coef())),
            ("l2", Json::Num(self.l2())),
        ])
    }

    fn load(json: &Json) -> XaiResult<Self> {
        const WHAT: &str = "logistic_regression";
        expect_kind(json, WHAT)?;
        Ok(LogisticRegression::from_parameters(
            num_field(json, "intercept", WHAT)?,
            &nums_field(json, "coef", WHAT)?,
            num_field(json, "l2", WHAT)?,
        ))
    }
}

fn node_to_json(n: &TreeNode) -> Json {
    Json::obj(vec![
        ("feature", Json::Num(n.feature as f64)),
        ("threshold", Json::Num(n.threshold)),
        ("left", n.left.map_or(Json::Null, |l| Json::Num(l as f64))),
        ("right", n.right.map_or(Json::Null, |r| Json::Num(r as f64))),
        ("value", Json::Num(n.value)),
        ("cover", Json::Num(n.cover)),
    ])
}

fn node_from_json(j: &Json) -> XaiResult<TreeNode> {
    const WHAT: &str = "decision_tree node";
    let child = |key: &str| match j.get(key) {
        Some(Json::Null) => Ok(None),
        _ => index_field(j, key, WHAT).map(Some),
    };
    Ok(TreeNode {
        feature: index_field(j, "feature", WHAT)?,
        threshold: num_field(j, "threshold", WHAT)?,
        left: child("left")?,
        right: child("right")?,
        value: num_field(j, "value", WHAT)?,
        cover: num_field(j, "cover", WHAT)?,
    })
}

impl Persist for DecisionTree {
    fn save(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::str("decision_tree")),
            ("n_features", Json::Num(crate::traits::Model::n_features(self) as f64)),
            (
                "criterion",
                Json::str(match self.criterion() {
                    SplitCriterion::Gini => "gini",
                    SplitCriterion::Variance => "variance",
                }),
            ),
            ("nodes", Json::Arr(self.nodes().iter().map(node_to_json).collect())),
        ])
    }

    /// Accepts only the shape the CART builder produces, so prediction
    /// always terminates in bounds: every split has both children, every
    /// child comes after its parent and has no other parent (the nodes
    /// form one tree rooted at node 0), and every split feature is below
    /// `n_features`.
    fn load(json: &Json) -> XaiResult<Self> {
        const WHAT: &str = "decision_tree";
        expect_kind(json, WHAT)?;
        let criterion = match str_field(json, "criterion", WHAT)?.as_str() {
            "gini" => SplitCriterion::Gini,
            "variance" => SplitCriterion::Variance,
            other => return Err(wire_error(format!("{WHAT}: unknown criterion '{other}'"))),
        };
        let n_features = index_field(json, "n_features", WHAT)?;
        let nodes = arr_field(json, "nodes", WHAT)?
            .iter()
            .map(node_from_json)
            .collect::<XaiResult<Vec<_>>>()?;
        if nodes.is_empty() {
            return Err(wire_error(format!("{WHAT}: tree has no nodes")));
        }
        let mut has_parent = vec![false; nodes.len()];
        for (i, n) in nodes.iter().enumerate() {
            let (l, r) = match (n.left, n.right) {
                (None, None) => continue,
                (Some(l), Some(r)) => (l, r),
                _ => return Err(wire_error(format!("{WHAT}: node {i} has exactly one child"))),
            };
            if n.feature >= n_features {
                return Err(wire_error(format!(
                    "{WHAT}: node {i} splits on feature {} of {n_features}",
                    n.feature
                )));
            }
            for child in [l, r] {
                if child <= i || child >= nodes.len() || has_parent[child] {
                    return Err(wire_error(format!("{WHAT}: node {i} has invalid child {child}")));
                }
                has_parent[child] = true;
            }
        }
        if let Some(orphan) = (1..nodes.len()).find(|&i| !has_parent[i]) {
            return Err(wire_error(format!("{WHAT}: node {orphan} has no parent")));
        }
        Ok(DecisionTree::from_parts(nodes, n_features, criterion))
    }
}

impl Persist for Gbdt {
    fn save(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::str("gbdt")),
            ("base_score", Json::Num(self.base_score())),
            ("learning_rate", Json::Num(self.learning_rate())),
            (
                "loss",
                Json::str(match self.loss() {
                    GbdtLoss::Squared => "squared",
                    GbdtLoss::Logistic => "logistic",
                }),
            ),
            ("n_features", Json::Num(crate::traits::Model::n_features(self) as f64)),
            ("trees", Json::Arr(self.trees().iter().map(Persist::save).collect())),
        ])
    }

    fn load(json: &Json) -> XaiResult<Self> {
        const WHAT: &str = "gbdt";
        expect_kind(json, WHAT)?;
        let loss = match str_field(json, "loss", WHAT)?.as_str() {
            "squared" => GbdtLoss::Squared,
            "logistic" => GbdtLoss::Logistic,
            other => return Err(wire_error(format!("{WHAT}: unknown loss '{other}'"))),
        };
        let learning_rate = num_field(json, "learning_rate", WHAT)?;
        if learning_rate.is_nan() || learning_rate <= 0.0 {
            return Err(wire_error(format!(
                "{WHAT}: learning_rate must be > 0, got {learning_rate}"
            )));
        }
        let n_features = index_field(json, "n_features", WHAT)?;
        let trees = arr_field(json, "trees", WHAT)?
            .iter()
            .map(DecisionTree::load)
            .collect::<XaiResult<Vec<_>>>()?;
        if let Some(k) = trees.iter().position(|t| ModelOracle::n_features(t) != n_features) {
            return Err(wire_error(format!("{WHAT}: tree {k} does not have {n_features} features")));
        }
        let base_score = num_field(json, "base_score", WHAT)?;
        Ok(Gbdt::from_parts(base_score, learning_rate, trees, loss, n_features))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Classifier, Regressor};
    use crate::{GbdtConfig, LinearConfig, LogisticConfig, TreeConfig};
    use xai_core::parse_json;
    use xai_data::synth::{friedman1, german_credit};

    #[test]
    fn linear_roundtrip_through_text() {
        let data = friedman1(200, 3, 0.2);
        let m = LinearRegression::fit(data.x(), data.y(), LinearConfig::default()).unwrap();
        let text = m.save().to_json();
        let restored = LinearRegression::load(&parse_json(&text).unwrap()).unwrap();
        for i in 0..20 {
            assert_eq!(m.predict_one(data.row(i)), restored.predict_one(data.row(i)));
        }
    }

    #[test]
    fn logistic_roundtrip() {
        let data = german_credit(300, 5);
        let m = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let restored =
            LogisticRegression::load(&parse_json(&m.save().to_json()).unwrap()).unwrap();
        for i in 0..20 {
            assert_eq!(m.proba_one(data.row(i)), restored.proba_one(data.row(i)));
        }
        assert_eq!(m.l2(), restored.l2());
    }

    #[test]
    fn tree_roundtrip_preserves_structure_and_predictions() {
        let data = german_credit(400, 7);
        let tree = DecisionTree::fit(data.x(), data.y(), TreeConfig { max_depth: 6, ..TreeConfig::default() });
        let restored = DecisionTree::load(&parse_json(&tree.save().to_json()).unwrap()).unwrap();
        assert_eq!(tree.nodes().len(), restored.nodes().len());
        assert_eq!(tree.n_leaves(), restored.n_leaves());
        for i in 0..data.n_rows() {
            assert_eq!(tree.predict_value(data.row(i)), restored.predict_value(data.row(i)));
            assert_eq!(tree.leaf_of(data.row(i)), restored.leaf_of(data.row(i)));
        }
    }

    #[test]
    fn gbdt_roundtrip_and_treeshap_still_works() {
        let data = german_credit(300, 9);
        let m = Gbdt::fit(data.x(), data.y(), GbdtConfig { n_rounds: 15, ..GbdtConfig::default() });
        let restored = Gbdt::load(&parse_json(&m.save().to_json()).unwrap()).unwrap();
        for i in 0..30 {
            assert_eq!(m.margin(data.row(i)), restored.margin(data.row(i)));
        }
        assert_eq!(m.base_score(), restored.base_score());
        assert_eq!(m.loss(), restored.loss());
    }

    #[test]
    fn file_roundtrip_and_truncation_are_typed_errors() {
        let data = friedman1(100, 3, 0.2);
        let m = LinearRegression::fit(data.x(), data.y(), LinearConfig::default()).unwrap();
        let path = std::env::temp_dir().join("xai_persist_test_model.json");
        save_to_file(&m, &path).unwrap();
        let restored: LinearRegression = load_from_file(&path).unwrap();
        assert_eq!(m.predict_one(data.row(0)), restored.predict_one(data.row(0)));

        // Truncate the file mid-document: Parse error, not a panic.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let err = load_from_file::<LinearRegression>(&path).unwrap_err();
        assert!(matches!(err, xai_core::XaiError::Parse { .. }), "{err}");

        let _ = std::fs::remove_file(&path);
        let err = load_from_file::<LinearRegression>(&path).unwrap_err();
        assert!(matches!(err, xai_core::XaiError::Io { .. }), "{err}");
    }

    #[test]
    fn corrupted_documents_are_rejected() {
        assert!(LinearRegression::load(&parse_json("{}").unwrap()).is_err());
        let wrong_kind = parse_json(r#"{"kind":"gbdt"}"#).unwrap();
        assert!(LinearRegression::load(&wrong_kind).is_err());
        // Tree with out-of-range child index.
        let bad = parse_json(
            r#"{"kind":"decision_tree","n_features":2,"criterion":"gini",
                "nodes":[{"feature":0,"threshold":0.5,"left":7,"right":null,"value":0.5,"cover":1}]}"#,
        )
        .unwrap();
        assert!(DecisionTree::load(&bad).is_err());
    }

    /// Documents that loaded before the shape check and then hung or
    /// panicked at predict time: a 2-node cycle, a split on a feature the
    /// model does not have, and a fractional negative `n_features`.
    #[test]
    fn malformed_trees_are_parse_errors_before_any_predict() {
        let doc = |n_features: &str, nodes: &str| {
            let head = r#""kind":"decision_tree","criterion":"gini""#;
            parse_json(&format!(r#"{{{head},"n_features":{n_features},"nodes":[{nodes}]}}"#))
                .unwrap()
        };
        let leaf = r#"{"feature":0,"threshold":0,"left":null,"right":null,"value":0.5,"cover":1}"#;
        let cycle = doc(
            "2",
            &format!(
                r#"{{"feature":0,"threshold":0.5,"left":1,"right":2,"value":0.5,"cover":2}},
                   {{"feature":1,"threshold":0.5,"left":0,"right":0,"value":0.5,"cover":1}},{leaf}"#
            ),
        );
        let wide_split = doc(
            "2",
            &format!(
                r#"{{"feature":99,"threshold":0.5,"left":1,"right":2,"value":0.5,"cover":2}},
                   {leaf},{leaf}"#
            ),
        );
        let negative_width = doc("-3.5", leaf);
        let cases = [("cycle", cycle), ("wide split", wide_split), ("width", negative_width)];
        for (name, json) in cases {
            let err = DecisionTree::load(&json).map(|_| ()).unwrap_err();
            assert!(matches!(err, xai_core::XaiError::Parse { .. }), "{name}: {err}");
            let err = decode_model(&json).map(|_| ()).unwrap_err();
            assert!(matches!(err, xai_core::XaiError::Parse { .. }), "{name}: {err}");
        }
    }

    #[test]
    fn decode_model_returns_the_concrete_model_and_its_canonical_bytes() {
        let data = german_credit(120, 3);
        let m = Gbdt::fit(data.x(), data.y(), GbdtConfig { n_rounds: 4, ..GbdtConfig::default() });
        let (decoded, bytes) = decode_model(&m.save()).unwrap();
        assert_eq!(bytes, persisted_bytes(&m));
        let any = decoded.as_any().expect("decoded models expose themselves");
        assert!(any.downcast_ref::<Gbdt>().is_some(), "the decoder must not wrap the model");
        let err = decode_model(&parse_json(r#"{"kind":"random_forest"}"#).unwrap()).map(|_| ());
        assert!(matches!(err, Err(xai_core::XaiError::Parse { .. })), "{err:?}");
    }
}
