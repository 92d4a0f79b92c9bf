//! CART decision trees (classification via Gini, regression via variance).
//!
//! The tree exposes its full structure — children, thresholds, per-node
//! cover and values — because three different explainers consume it
//! directly: TreeSHAP (§2.1.2) walks the node arrays, the logic-based
//! methods (§2.2.2) extract prime implicants from root-to-leaf paths, and
//! LeafInfluence (§2.3.2) re-weights leaf values.

use crate::traits::{Classifier, Model, Regressor};
use xai_rand::rngs::StdRng;
use xai_rand::seq::SliceRandom;
use xai_linalg::Matrix;

/// Split quality criterion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitCriterion {
    /// Gini impurity for 0/1 classification.
    Gini,
    /// Variance reduction for regression (also used for GBDT residual fits).
    Variance,
}

/// Configuration for [`DecisionTree::fit`].
#[derive(Clone, Copy, Debug)]
pub struct TreeConfig {
    /// Maximum tree depth (root is depth 0).
    pub max_depth: usize,
    /// Minimum examples required to consider splitting a node.
    pub min_samples_split: usize,
    /// Minimum examples each child must retain.
    pub min_samples_leaf: usize,
    /// Split criterion.
    pub criterion: SplitCriterion,
    /// When set, each split considers only this many randomly chosen
    /// features (random-forest mode; requires an RNG at fit time).
    pub max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 6,
            min_samples_split: 2,
            min_samples_leaf: 1,
            criterion: SplitCriterion::Gini,
            max_features: None,
        }
    }
}

/// A node in the flattened tree. Leaves have `left == None`.
#[derive(Clone, Debug)]
pub struct TreeNode {
    /// Split feature (meaningless for leaves).
    pub feature: usize,
    /// Split threshold; examples with `x[feature] <= threshold` go left.
    pub threshold: f64,
    /// Left child index.
    pub left: Option<usize>,
    /// Right child index.
    pub right: Option<usize>,
    /// Node prediction: mean target (variance) or positive fraction (gini).
    pub value: f64,
    /// Number of training examples that reached this node ("cover").
    pub cover: f64,
}

impl TreeNode {
    /// True for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        self.left.is_none()
    }
}

/// A fitted CART tree.
#[derive(Clone, Debug)]
pub struct DecisionTree {
    nodes: Vec<TreeNode>,
    n_features: usize,
    criterion: SplitCriterion,
}

struct Builder<'a> {
    x: &'a Matrix,
    y: &'a [f64],
    config: TreeConfig,
    nodes: Vec<TreeNode>,
    rng: Option<&'a mut StdRng>,
}

fn impurity(criterion: SplitCriterion, sum: f64, sum_sq: f64, n: f64) -> f64 {
    if n == 0.0 {
        return 0.0;
    }
    match criterion {
        SplitCriterion::Gini => {
            let p = sum / n;
            2.0 * p * (1.0 - p)
        }
        SplitCriterion::Variance => (sum_sq / n - (sum / n).powi(2)).max(0.0),
    }
}

impl<'a> Builder<'a> {
    /// Builds the subtree over `idx`, returning its node index.
    fn build(&mut self, idx: &mut [usize], depth: usize) -> usize {
        let n = idx.len() as f64;
        let sum: f64 = idx.iter().map(|&i| self.y[i]).sum();
        let sum_sq: f64 = idx.iter().map(|&i| self.y[i] * self.y[i]).sum();
        let node_impurity = impurity(self.config.criterion, sum, sum_sq, n);
        let value = sum / n;

        let node_id = self.nodes.len();
        self.nodes.push(TreeNode {
            feature: 0,
            threshold: 0.0,
            left: None,
            right: None,
            value,
            cover: n,
        });

        if depth >= self.config.max_depth
            || idx.len() < self.config.min_samples_split
            || node_impurity <= 1e-12
        {
            return node_id;
        }

        let Some((feature, threshold)) = self.best_split(idx, node_impurity) else {
            return node_id;
        };

        // Partition in place.
        let mut lo = 0;
        let mut hi = idx.len();
        while lo < hi {
            if self.x[(idx[lo], feature)] <= threshold {
                lo += 1;
            } else {
                hi -= 1;
                idx.swap(lo, hi);
            }
        }
        debug_assert!(lo > 0 && lo < idx.len(), "degenerate split survived screening");
        let (left_idx, right_idx) = idx.split_at_mut(lo);
        let left = self.build(left_idx, depth + 1);
        let right = self.build(right_idx, depth + 1);
        self.nodes[node_id].feature = feature;
        self.nodes[node_id].threshold = threshold;
        self.nodes[node_id].left = Some(left);
        self.nodes[node_id].right = Some(right);
        node_id
    }

    /// Finds the impurity-minimizing (feature, threshold) pair, or `None`
    /// when no valid split improves on the parent.
    fn best_split(&mut self, idx: &[usize], parent_impurity: f64) -> Option<(usize, f64)> {
        let n = idx.len() as f64;
        let d = self.x.cols();
        let mut candidates: Vec<usize> = (0..d).collect();
        if let Some(k) = self.config.max_features {
            let rng = self
                .rng
                .as_deref_mut()
                .expect("max_features requires an RNG at fit time");
            candidates.shuffle(rng);
            candidates.truncate(k.max(1).min(d));
        }

        let min_leaf = self.config.min_samples_leaf as f64;
        let mut best: Option<(f64, usize, f64)> = None; // (weighted child impurity, feature, threshold)
        let mut order: Vec<usize> = Vec::with_capacity(idx.len());
        for &feature in &candidates {
            order.clear();
            order.extend_from_slice(idx);
            // total_cmp: a NaN feature value sorts last (and `xnext <= xv`
            // then refuses to split on it) instead of panicking mid-fit.
            order.sort_by(|&a, &b| self.x[(a, feature)].total_cmp(&self.x[(b, feature)]));
            let mut lsum = 0.0;
            let mut lsq = 0.0;
            let total_sum: f64 = order.iter().map(|&i| self.y[i]).sum();
            let total_sq: f64 = order.iter().map(|&i| self.y[i] * self.y[i]).sum();
            for (pos, &i) in order.iter().enumerate().take(order.len() - 1) {
                let yi = self.y[i];
                lsum += yi;
                lsq += yi * yi;
                let nl = (pos + 1) as f64;
                let nr = n - nl;
                if nl < min_leaf || nr < min_leaf {
                    continue;
                }
                let xv = self.x[(i, feature)];
                let xnext = self.x[(order[pos + 1], feature)];
                if xnext <= xv {
                    continue; // no threshold separates equal values
                }
                let wi = (nl / n) * impurity(self.config.criterion, lsum, lsq, nl)
                    + (nr / n) * impurity(self.config.criterion, total_sum - lsum, total_sq - lsq, nr);
                // Accept zero-improvement splits (XOR-style targets need a
                // "useless" first split before the informative second one);
                // pure nodes never reach this point.
                if best.map_or(wi <= parent_impurity + 1e-12, |(b, _, _)| wi < b - 1e-15) {
                    best = Some((wi, feature, 0.5 * (xv + xnext)));
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }
}

impl DecisionTree {
    /// Fits a tree; pass an RNG when `config.max_features` is set.
    pub fn fit_with(x: &Matrix, y: &[f64], config: TreeConfig, rng: Option<&mut StdRng>) -> Self {
        assert_eq!(x.rows(), y.len(), "row/target mismatch");
        assert!(x.rows() > 0, "cannot fit on an empty dataset");
        let mut idx: Vec<usize> = (0..x.rows()).collect();
        let mut builder = Builder { x, y, config, nodes: Vec::new(), rng };
        builder.build(&mut idx, 0);
        DecisionTree { nodes: builder.nodes, n_features: x.cols(), criterion: config.criterion }
    }

    /// Reconstructs a tree from raw parts (used by persistence). Callers
    /// are responsible for child-index validity; prefer
    /// `xai_models::Persist::load`, which validates.
    pub fn from_parts(nodes: Vec<TreeNode>, n_features: usize, criterion: SplitCriterion) -> Self {
        assert!(!nodes.is_empty(), "a tree needs at least a root");
        Self { nodes, n_features, criterion }
    }

    /// Fits a deterministic tree (all features considered at every split).
    pub fn fit(x: &Matrix, y: &[f64], config: TreeConfig) -> Self {
        assert!(config.max_features.is_none(), "use fit_with for random-feature mode");
        Self::fit_with(x, y, config, None)
    }

    /// The flattened nodes; index 0 is the root.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Mutable node access (used by LeafInfluence-style re-weighting).
    pub fn nodes_mut(&mut self) -> &mut [TreeNode] {
        &mut self.nodes
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[TreeNode], id: usize) -> usize {
            match (nodes[id].left, nodes[id].right) {
                (Some(l), Some(r)) => 1 + rec(nodes, l).max(rec(nodes, r)),
                _ => 0,
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            rec(&self.nodes, 0)
        }
    }

    /// The split criterion the tree was fitted with.
    pub fn criterion(&self) -> SplitCriterion {
        self.criterion
    }

    /// Index of the leaf that `x` falls into.
    pub fn leaf_of(&self, x: &[f64]) -> usize {
        let mut id = 0;
        loop {
            let node = &self.nodes[id];
            match (node.left, node.right) {
                (Some(l), Some(r)) => {
                    id = if x[node.feature] <= node.threshold { l } else { r };
                }
                _ => return id,
            }
        }
    }

    /// Root-to-leaf node index path for `x`.
    pub fn decision_path(&self, x: &[f64]) -> Vec<usize> {
        let mut path = vec![0];
        let mut id = 0;
        loop {
            let node = &self.nodes[id];
            match (node.left, node.right) {
                (Some(l), Some(r)) => {
                    id = if x[node.feature] <= node.threshold { l } else { r };
                    path.push(id);
                }
                _ => return path,
            }
        }
    }

    /// Raw value prediction (mean target / positive fraction at the leaf).
    pub fn predict_value(&self, x: &[f64]) -> f64 {
        self.nodes[self.leaf_of(x)].value
    }

    /// Leaf index for every row of `x`, by node-at-a-time traversal: the
    /// row set moves down the tree together, so each node's split is
    /// loaded once per *batch* instead of once per row. Routing decisions
    /// are the same comparisons as [`DecisionTree::leaf_of`], so the
    /// assignment is identical.
    pub fn leaves_of(&self, x: &Matrix) -> Vec<usize> {
        let mut leaves = vec![0usize; x.rows()];
        if x.rows() == 0 {
            return leaves;
        }
        let mut frontier: Vec<(usize, Vec<usize>)> = vec![(0, (0..x.rows()).collect())];
        while let Some((id, members)) = frontier.pop() {
            let node = &self.nodes[id];
            match (node.left, node.right) {
                (Some(l), Some(r)) => {
                    let mut left = Vec::new();
                    let mut right = Vec::new();
                    for i in members {
                        if x.row(i)[node.feature] <= node.threshold {
                            left.push(i);
                        } else {
                            right.push(i);
                        }
                    }
                    if !left.is_empty() {
                        frontier.push((l, left));
                    }
                    if !right.is_empty() {
                        frontier.push((r, right));
                    }
                }
                _ => {
                    for i in members {
                        leaves[i] = id;
                    }
                }
            }
        }
        leaves
    }

    /// Raw value predictions for every row via [`DecisionTree::leaves_of`].
    pub fn predict_values(&self, x: &Matrix) -> Vec<f64> {
        self.leaves_of(x).into_iter().map(|leaf| self.nodes[leaf].value).collect()
    }
}

impl Model for DecisionTree {
    fn n_features(&self) -> usize {
        self.n_features
    }
}

impl Regressor for DecisionTree {
    fn predict_one(&self, x: &[f64]) -> f64 {
        self.predict_value(x)
    }

    fn predict_batch(&self, x: &Matrix) -> Vec<f64> {
        self.predict_values(x)
    }
}

impl Classifier for DecisionTree {
    fn proba_one(&self, x: &[f64]) -> f64 {
        self.predict_value(x)
    }

    fn proba_batch(&self, x: &Matrix) -> Vec<f64> {
        self.predict_values(x)
    }
}

/// Masked coalition predictions of a tree ensemble by row-set routing
/// (zero-copy, DESIGN.md §12), the one kernel behind the tree, forest
/// and GBDT `predict_masked`.
///
/// For each mask in `masks`, every background row's coalition view reads
/// split feature `f` from `instance` when bit `f` is set and from the row
/// otherwise. A coalition therefore fixes one routing per split: a node
/// whose feature is in the mask sends the whole row set the instance's
/// way, any other node splits it by its precomputed "row goes left"
/// bitset. Each leaf reached calls `apply(slot, value)` once for every row
/// in its set. The comparisons are the ones `leaf_of` makes on the
/// materialized view, and every row meets `apply` exactly once per tree,
/// in tree order, so per-row results are bit-identical to walking each
/// view one tree at a time.
///
/// `out` is cleared and filled with `masks.len() × background.rows()`
/// zeros (coalition-major) before the first `apply`.
pub(crate) fn route_masked(
    trees: &[DecisionTree],
    instance: &[f64],
    background: &Matrix,
    masks: &[u64],
    out: &mut Vec<f64>,
    mut apply: impl FnMut(&mut f64, f64),
) {
    let (b, d) = background.shape();
    assert_eq!(instance.len(), d, "predict_masked instance arity mismatch");
    assert!(d <= 64, "predict_masked supports at most 64 features, got {d}");
    out.clear();
    out.resize(masks.len() * b, 0.0);
    if b == 0 {
        return;
    }

    // One flat table, `stride` words per node of every tree: the child
    // the instance takes, then the "row goes left" bitset over the
    // background (bit `r % 64` of word `r / 64`).
    let words = b.div_ceil(64);
    let stride = 1 + words;
    let n_nodes: usize = trees.iter().map(|t| t.nodes.len()).sum();
    let mut table = vec![0u64; n_nodes * stride];
    let rows = background.as_slice();
    let mut at = 0;
    for tree in trees {
        for node in &tree.nodes {
            if let (Some(l), Some(r)) = (node.left, node.right) {
                let (f, t) = (node.feature, node.threshold);
                assert!(f < d, "split feature {f} is out of range for {d} columns");
                table[at] = if instance[f] <= t { l } else { r } as u64;
                for (w, word) in table[at + 1..at + stride].iter_mut().enumerate() {
                    let lo = w * 64;
                    let mut bits = 0u64;
                    for i in lo..b.min(lo + 64) {
                        bits |= u64::from(rows[i * d + f] <= t) << (i - lo);
                    }
                    *word = bits;
                }
            }
            at += stride;
        }
    }

    let mut full = vec![u64::MAX; words];
    if b % 64 != 0 {
        full[words - 1] = (1u64 << (b % 64)) - 1;
    }
    // Pending (node, row set) entries, `stride` words each; the top entry
    // holds the set being routed down. Depth-first, so it grows with the
    // tree depth only.
    let mut stack: Vec<u64> = Vec::with_capacity(8 * stride);
    for (&mask, chunk) in masks.iter().zip(out.chunks_exact_mut(b)) {
        let mut base = 0;
        for tree in trees {
            stack.clear();
            stack.push(0);
            stack.extend_from_slice(&full);
            let mut top = 0;
            let mut id = 0;
            loop {
                let node = &tree.nodes[id];
                let (Some(l), Some(r)) = (node.left, node.right) else {
                    for (w, &word) in stack[top + 1..].iter().enumerate() {
                        let mut bits = word;
                        while bits != 0 {
                            apply(&mut chunk[w * 64 + bits.trailing_zeros() as usize], node.value);
                            bits &= bits - 1;
                        }
                    }
                    stack.truncate(top);
                    if stack.is_empty() {
                        break;
                    }
                    top = stack.len() - stride;
                    id = stack[top] as usize;
                    continue;
                };
                let at = (base + id) * stride;
                if mask >> node.feature & 1 == 1 {
                    id = table[at] as usize;
                    continue;
                }
                let goes_left = &table[at + 1..at + stride];
                let (mut any_left, mut any_right) = (0u64, 0u64);
                for (&set, &left) in stack[top + 1..].iter().zip(goes_left) {
                    any_left |= set & left;
                    any_right |= set & !left;
                }
                if any_right == 0 {
                    id = l;
                } else if any_left == 0 {
                    id = r;
                } else {
                    // Leave the right part pending in place and route the
                    // left part on, as a new top entry.
                    stack[top] = r as u64;
                    stack.push(l as u64);
                    for w in 0..words {
                        let set = stack[top + 1 + w];
                        stack[top + 1 + w] = set & !goes_left[w];
                        stack.push(set & goes_left[w]);
                    }
                    top += stride;
                    id = l;
                }
            }
            base += tree.nodes.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_data::metrics::accuracy;
    use xai_data::synth::{circles, friedman1};
    use xai_linalg::r_squared;

    #[test]
    fn fits_xor_perfectly() {
        // XOR needs depth 2; a linear model cannot represent it at all.
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ]);
        let y = vec![0.0, 1.0, 1.0, 0.0];
        let tree = DecisionTree::fit(&x, &y, TreeConfig::default());
        for i in 0..4 {
            assert_eq!(tree.predict_value(x.row(i)), y[i]);
        }
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn classification_on_rings() {
        let data = circles(600, 4, 0.1);
        let tree = DecisionTree::fit(
            data.x(),
            data.y(),
            TreeConfig { max_depth: 8, ..TreeConfig::default() },
        );
        let preds = Classifier::predict(&tree, data.x());
        assert!(accuracy(data.y(), &preds) > 0.95);
    }

    #[test]
    fn regression_on_friedman() {
        let data = friedman1(800, 5, 0.2);
        let tree = DecisionTree::fit(
            data.x(),
            data.y(),
            TreeConfig {
                max_depth: 8,
                criterion: SplitCriterion::Variance,
                min_samples_leaf: 3,
                ..TreeConfig::default()
            },
        );
        let preds = Regressor::predict(&tree, data.x());
        assert!(r_squared(data.y(), &preds) > 0.7);
    }

    #[test]
    fn depth_limit_respected() {
        let data = circles(500, 6, 0.15);
        for d in [1, 2, 3] {
            let tree = DecisionTree::fit(
                data.x(),
                data.y(),
                TreeConfig { max_depth: d, ..TreeConfig::default() },
            );
            assert!(tree.depth() <= d);
        }
    }

    #[test]
    fn min_samples_leaf_respected() {
        let data = circles(300, 8, 0.2);
        let tree = DecisionTree::fit(
            data.x(),
            data.y(),
            TreeConfig { max_depth: 10, min_samples_leaf: 20, ..TreeConfig::default() },
        );
        for node in tree.nodes() {
            if node.is_leaf() {
                assert!(node.cover >= 20.0, "leaf cover {}", node.cover);
            }
        }
    }

    #[test]
    fn covers_are_consistent() {
        let data = circles(400, 9, 0.2);
        let tree = DecisionTree::fit(data.x(), data.y(), TreeConfig::default());
        assert_eq!(tree.nodes()[0].cover, 400.0);
        for node in tree.nodes() {
            if let (Some(l), Some(r)) = (node.left, node.right) {
                assert_eq!(node.cover, tree.nodes()[l].cover + tree.nodes()[r].cover);
            }
        }
    }

    #[test]
    fn decision_path_is_connected_and_ends_at_leaf() {
        let data = circles(300, 10, 0.2);
        let tree = DecisionTree::fit(data.x(), data.y(), TreeConfig::default());
        let path = tree.decision_path(data.row(5));
        assert_eq!(path[0], 0);
        assert!(tree.nodes()[*path.last().unwrap()].is_leaf());
        for w in path.windows(2) {
            let parent = &tree.nodes()[w[0]];
            assert!(parent.left == Some(w[1]) || parent.right == Some(w[1]));
        }
        assert_eq!(*path.last().unwrap(), tree.leaf_of(data.row(5)));
    }

    #[test]
    fn constant_targets_give_single_leaf() {
        let x = Matrix::from_fn(20, 3, |i, j| (i + j) as f64);
        let y = vec![1.0; 20];
        let tree = DecisionTree::fit(&x, &y, TreeConfig::default());
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.predict_value(&[0.0, 0.0, 0.0]), 1.0);
    }

    #[test]
    fn random_feature_mode_needs_rng() {
        use xai_rand::SeedableRng;
        let data = circles(200, 11, 0.2);
        let mut rng = StdRng::seed_from_u64(1);
        let tree = DecisionTree::fit_with(
            data.x(),
            data.y(),
            TreeConfig { max_features: Some(1), ..TreeConfig::default() },
            Some(&mut rng),
        );
        assert!(tree.n_leaves() >= 2);
    }
}
