//! Gradient-boosted decision trees (squared and logistic loss).
//!
//! The ensemble structure (base score + learning-rate-scaled trees over raw
//! margins) is exposed so that TreeSHAP (§2.1.2) can attribute the margin
//! and LeafInfluence (§2.3.2) can analyze leaf values with the structure
//! held fixed — both mirror how the original papers instrument XGBoost.

// Boosting updates index predictions and rows by the same id.
#![allow(clippy::needless_range_loop)]
use crate::traits::{Classifier, Model, Regressor};
use crate::tree::{DecisionTree, SplitCriterion, TreeConfig};
use xai_data::sigmoid;
use xai_linalg::Matrix;

/// Loss function for boosting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GbdtLoss {
    /// Squared error; raw prediction is the value itself.
    Squared,
    /// Binary logistic loss; raw prediction is the log-odds margin.
    Logistic,
}

/// Configuration for [`Gbdt::fit`].
#[derive(Clone, Copy, Debug)]
pub struct GbdtConfig {
    /// Number of boosting rounds (trees).
    pub n_rounds: usize,
    /// Shrinkage applied to every tree's contribution.
    pub learning_rate: f64,
    /// Per-tree configuration (criterion is forced to Variance).
    pub tree: TreeConfig,
    /// Loss function.
    pub loss: GbdtLoss,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        Self {
            n_rounds: 50,
            learning_rate: 0.1,
            tree: TreeConfig {
                max_depth: 3,
                min_samples_leaf: 5,
                criterion: SplitCriterion::Variance,
                ..TreeConfig::default()
            },
            loss: GbdtLoss::Logistic,
        }
    }
}

/// A fitted gradient-boosted ensemble.
#[derive(Clone, Debug)]
pub struct Gbdt {
    base_score: f64,
    learning_rate: f64,
    trees: Vec<DecisionTree>,
    loss: GbdtLoss,
    n_features: usize,
}

impl Gbdt {
    /// Fits by functional gradient descent with Newton leaf values for the
    /// logistic loss.
    pub fn fit(x: &Matrix, y: &[f64], config: GbdtConfig) -> Self {
        assert_eq!(x.rows(), y.len(), "row/target mismatch");
        assert!(config.n_rounds > 0);
        assert!(config.learning_rate > 0.0);
        let n = x.rows();
        let tree_config = TreeConfig { criterion: SplitCriterion::Variance, ..config.tree };

        let mean_y = y.iter().sum::<f64>() / n as f64;
        let base_score = match config.loss {
            GbdtLoss::Squared => mean_y,
            GbdtLoss::Logistic => {
                let p = mean_y.clamp(1e-6, 1.0 - 1e-6);
                (p / (1.0 - p)).ln()
            }
        };

        let mut raw = vec![base_score; n];
        let mut trees = Vec::with_capacity(config.n_rounds);
        for _ in 0..config.n_rounds {
            // Negative gradients of the loss w.r.t. the raw prediction.
            let residuals: Vec<f64> = match config.loss {
                GbdtLoss::Squared => y.iter().zip(&raw).map(|(yi, fi)| yi - fi).collect(),
                GbdtLoss::Logistic => y.iter().zip(&raw).map(|(yi, fi)| yi - sigmoid(*fi)).collect(),
            };
            let mut tree = DecisionTree::fit(x, &residuals, tree_config);
            if config.loss == GbdtLoss::Logistic {
                // Newton step per leaf: Σ residual / Σ p(1-p).
                let n_nodes = tree.nodes().len();
                let mut num = vec![0.0; n_nodes];
                let mut den = vec![0.0; n_nodes];
                for i in 0..n {
                    let leaf = tree.leaf_of(x.row(i));
                    let p = sigmoid(raw[i]);
                    num[leaf] += residuals[i];
                    den[leaf] += p * (1.0 - p);
                }
                for (id, node) in tree.nodes_mut().iter_mut().enumerate() {
                    if node.is_leaf() {
                        node.value = if den[id] > 1e-12 {
                            (num[id] / den[id]).clamp(-4.0, 4.0)
                        } else {
                            0.0
                        };
                    }
                }
            }
            for i in 0..n {
                raw[i] += config.learning_rate * tree.predict_value(x.row(i));
            }
            trees.push(tree);
        }
        Self {
            base_score,
            learning_rate: config.learning_rate,
            trees,
            loss: config.loss,
            n_features: x.cols(),
        }
    }

    /// Reconstructs an ensemble from raw parts (used by persistence).
    pub fn from_parts(
        base_score: f64,
        learning_rate: f64,
        trees: Vec<DecisionTree>,
        loss: GbdtLoss,
        n_features: usize,
    ) -> Self {
        assert!(learning_rate > 0.0);
        Self { base_score, learning_rate, trees, loss, n_features }
    }

    /// Raw additive prediction: `base + lr · Σₖ treeₖ(x)`.
    /// For the logistic loss this is the log-odds margin.
    pub fn margin(&self, x: &[f64]) -> f64 {
        let tree_sum: f64 = self.trees.iter().map(|t| t.predict_value(x)).sum();
        self.base_score + self.learning_rate * tree_sum
    }

    /// Margins for every row: each tree routes the whole batch at once,
    /// accumulating per row in boosting order (the same summation order as
    /// [`Gbdt::margin`], hence bit-identical).
    pub fn margin_batch(&self, x: &Matrix) -> Vec<f64> {
        let mut tree_sums = vec![0.0; x.rows()];
        for tree in &self.trees {
            for (a, v) in tree_sums.iter_mut().zip(tree.predict_values(x)) {
                *a += v;
            }
        }
        tree_sums
            .into_iter()
            .map(|s| self.base_score + self.learning_rate * s)
            .collect()
    }

    /// The fitted trees in boosting order.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Mutable tree access for structure-fixed influence analyses.
    pub fn trees_mut(&mut self) -> &mut [DecisionTree] {
        &mut self.trees
    }

    /// The initial raw score.
    pub fn base_score(&self) -> f64 {
        self.base_score
    }

    /// The shrinkage factor.
    pub fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    /// The loss the ensemble was fitted with.
    pub fn loss(&self) -> GbdtLoss {
        self.loss
    }
}

impl Model for Gbdt {
    fn n_features(&self) -> usize {
        self.n_features
    }
}

impl Regressor for Gbdt {
    fn predict_one(&self, x: &[f64]) -> f64 {
        match self.loss {
            GbdtLoss::Squared => self.margin(x),
            GbdtLoss::Logistic => sigmoid(self.margin(x)),
        }
    }

    fn predict_batch(&self, x: &Matrix) -> Vec<f64> {
        let margins = self.margin_batch(x);
        match self.loss {
            GbdtLoss::Squared => margins,
            GbdtLoss::Logistic => margins.into_iter().map(sigmoid).collect(),
        }
    }
}

impl Classifier for Gbdt {
    fn proba_one(&self, x: &[f64]) -> f64 {
        match self.loss {
            GbdtLoss::Squared => self.margin(x).clamp(0.0, 1.0),
            GbdtLoss::Logistic => sigmoid(self.margin(x)),
        }
    }

    fn proba_batch(&self, x: &Matrix) -> Vec<f64> {
        let margins = self.margin_batch(x);
        match self.loss {
            GbdtLoss::Squared => margins.into_iter().map(|m| m.clamp(0.0, 1.0)).collect(),
            GbdtLoss::Logistic => margins.into_iter().map(sigmoid).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_data::metrics::{accuracy, auc_roc, mse};
    use xai_data::synth::{circles, friedman1, german_credit};
    use xai_linalg::r_squared;

    #[test]
    fn regression_beats_constant_and_improves_with_rounds() {
        let train = friedman1(600, 61, 0.2);
        let test = friedman1(300, 62, 0.2);
        let short = Gbdt::fit(
            train.x(),
            train.y(),
            GbdtConfig { n_rounds: 5, loss: GbdtLoss::Squared, ..GbdtConfig::default() },
        );
        let long = Gbdt::fit(
            train.x(),
            train.y(),
            GbdtConfig { n_rounds: 120, loss: GbdtLoss::Squared, ..GbdtConfig::default() },
        );
        let mse_short = mse(test.y(), &Regressor::predict(&short, test.x()));
        let mse_long = mse(test.y(), &Regressor::predict(&long, test.x()));
        assert!(mse_long < mse_short, "boosting must reduce test error: {mse_long} vs {mse_short}");
        assert!(r_squared(test.y(), &Regressor::predict(&long, test.x())) > 0.75);
    }

    #[test]
    fn classification_on_rings() {
        let train = circles(600, 71, 0.2);
        let test = circles(300, 72, 0.2);
        let model = Gbdt::fit(train.x(), train.y(), GbdtConfig { n_rounds: 60, ..GbdtConfig::default() });
        assert!(accuracy(test.y(), &Classifier::predict(&model, test.x())) > 0.9);
        assert!(auc_roc(test.y(), &model.proba(test.x())) > 0.95);
    }

    #[test]
    fn margin_is_additive_in_trees() {
        let data = german_credit(400, 81);
        let model = Gbdt::fit(data.x(), data.y(), GbdtConfig { n_rounds: 10, ..GbdtConfig::default() });
        let x = data.row(0);
        let manual = model.base_score()
            + model.learning_rate() * model.trees().iter().map(|t| t.predict_value(x)).sum::<f64>();
        assert!((model.margin(x) - manual).abs() < 1e-12);
        assert!((model.proba_one(x) - sigmoid(model.margin(x))).abs() < 1e-12);
    }

    #[test]
    fn base_score_is_log_odds_of_positive_rate() {
        let data = german_credit(500, 91);
        let model = Gbdt::fit(data.x(), data.y(), GbdtConfig { n_rounds: 1, ..GbdtConfig::default() });
        let p = data.positive_rate();
        assert!((model.base_score() - (p / (1.0 - p)).ln()).abs() < 1e-9);
    }

    #[test]
    fn learns_real_signal_on_credit_data() {
        let data = german_credit(1200, 101);
        let (train, test) = data.train_test_split(0.25, 1);
        let model = Gbdt::fit(train.x(), train.y(), GbdtConfig { n_rounds: 80, ..GbdtConfig::default() });
        let auc = auc_roc(test.y(), &model.proba(test.x()));
        assert!(auc > 0.7, "credit AUC {auc}");
    }
}
