//! Edge-level Shapley credit on a causal graph, in the spirit of Shapley
//! flow (Wang, Wiens & Lundberg, §2.1.3 \[74\]).
//!
//! Instead of attributing to features (a *set*-based view), credit is
//! assigned to the **edges of the causal graph**. We realize this as a
//! cooperative game whose players are the graph's edges plus one virtual
//! *source edge* per node (carrying that node's exogenous noise): an
//! active edge transmits the instance-side message, an inactive edge leaks
//! the baseline-side message. The empty coalition reproduces the baseline
//! output and the grand coalition the instance output, so edge credits sum
//! to `f(x) − f(baseline)` exactly (efficiency at the graph boundary).
//!
//! **Semantics note.** Wang et al.'s original Shapley Flow averages over
//! depth-first *update orderings*, under which edges in series each carry
//! the full flow passing through them (pipe semantics). The edge-coalition
//! game implemented here keeps the classical Shapley axioms at the edge
//! level instead, so edges in series *share* their path's credit (a chain
//! of k edges behaves as a k-player unanimity game). Both views expose the
//! graph structure that set-based Shapley values collapse; the difference
//! is documented in DESIGN.md and asserted by the tests below.

use crate::exact::exact_shapley;
use crate::game::CooperativeGame;
use xai_data::scm::Scm;

/// A player in the flow game.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowEdge {
    /// A real DAG edge `(parent, child)`.
    Causal {
        /// Upstream node.
        parent: usize,
        /// Downstream node.
        child: usize,
    },
    /// The virtual edge feeding node `node` its own exogenous noise.
    Source {
        /// The node whose noise this edge carries.
        node: usize,
    },
}

/// Result of a Shapley-flow computation.
#[derive(Clone, Debug)]
pub struct ShapleyFlow {
    /// The edge players in a fixed order.
    pub edges: Vec<FlowEdge>,
    /// Shapley value of each edge (credit flowing along it).
    pub credit: Vec<f64>,
    /// `f(baseline)`.
    pub baseline_output: f64,
    /// `f(instance)`.
    pub instance_output: f64,
}

impl ShapleyFlow {
    /// Credit of a specific causal edge, if present.
    pub fn edge_credit(&self, parent: usize, child: usize) -> Option<f64> {
        self.edges
            .iter()
            .position(|e| matches!(e, FlowEdge::Causal { parent: p, child: c } if *p == parent && *c == child))
            .map(|i| self.credit[i])
    }

    /// Credit of a node's source (noise) edge, if present.
    pub fn source_credit(&self, node: usize) -> Option<f64> {
        self.edges
            .iter()
            .position(|e| matches!(e, FlowEdge::Source { node: n } if *n == node))
            .map(|i| self.credit[i])
    }
}

struct FlowGame<'a> {
    scm: &'a Scm,
    model: &'a dyn Fn(&[f64]) -> f64,
    feature_nodes: &'a [usize],
    edges: Vec<FlowEdge>,
    instance_noise: Vec<f64>,
    baseline_noise: Vec<f64>,
}

impl FlowGame<'_> {
    fn evaluate(&self, active: &[bool]) -> f64 {
        let n = self.scm.n_nodes();
        // Baseline world, fully propagated (messages an inactive edge leaks).
        let baseline_values = self.scm.evaluate(&self.baseline_noise, &[]);
        let mut values = vec![0.0; n];
        for (node_id, node) in self.scm.nodes().iter().enumerate() {
            // Which noise does this node see?
            let source_active = self
                .edges
                .iter()
                .zip(active)
                .any(|(e, &a)| a && matches!(e, FlowEdge::Source { node } if *node == node_id));
            let noise = if source_active {
                self.instance_noise[node_id]
            } else {
                self.baseline_noise[node_id]
            };
            // Parent messages: computed value when the edge is active,
            // baseline value otherwise.
            let mut mixed = baseline_values.clone();
            for &p in node.mechanism.parents() {
                let edge_active = self.edges.iter().zip(active).any(|(e, &a)| {
                    a && matches!(e, FlowEdge::Causal { parent, child } if *parent == p && *child == node_id)
                });
                mixed[p] = if edge_active { values[p] } else { baseline_values[p] };
            }
            values[node_id] = node.mechanism.evaluate(&mixed, noise);
        }
        let features: Vec<f64> = self.feature_nodes.iter().map(|&i| values[i]).collect();
        (self.model)(&features)
    }
}

impl CooperativeGame for FlowGame<'_> {
    fn n_players(&self) -> usize {
        self.edges.len()
    }

    fn value(&self, coalition: &[bool]) -> f64 {
        self.evaluate(coalition)
    }
}

impl crate::batch::BatchGame for FlowGame<'_> {}

/// Computes exact Shapley flow for a (small) SCM: players are every causal
/// edge plus one source edge per node, enumerated exhaustively.
///
/// `instance` and `baseline` are full node-value observations; the SCM must
/// be continuous (abduction-exact) for both.
///
/// # Panics
/// Panics when the total edge count exceeds 16 (enumeration is `2^E`) or
/// when abduction fails.
pub fn shapley_flow(
    scm: &Scm,
    model: &dyn Fn(&[f64]) -> f64,
    feature_nodes: &[usize],
    instance: &[f64],
    baseline: &[f64],
) -> ShapleyFlow {
    let mut edges: Vec<FlowEdge> = scm
        .edges()
        .into_iter()
        .map(|(parent, child)| FlowEdge::Causal { parent, child })
        .collect();
    for node in 0..scm.n_nodes() {
        edges.push(FlowEdge::Source { node });
    }
    assert!(
        edges.len() <= 16,
        "Shapley flow enumerates 2^E coalitions; {} edges is too many",
        edges.len()
    );
    // Abduction on continuous SCMs is deterministic; the RNG is unused.
    let mut rng = xai_rand::rngs::StdRng::seed_from_u64(0);
    use xai_rand::SeedableRng;
    let instance_noise = scm.abduct(instance, &mut rng).expect("instance abduction");
    let baseline_noise = scm.abduct(baseline, &mut rng).expect("baseline abduction");
    let game = FlowGame {
        scm,
        model,
        feature_nodes,
        edges: edges.clone(),
        instance_noise,
        baseline_noise,
    };
    let credit = exact_shapley(&game);
    let baseline_output = game.empty_value();
    let instance_output = game.grand_value();
    ShapleyFlow { edges, credit, baseline_output, instance_output }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_data::scm::{Mechanism, Node};

    /// x → z → (model reads z); plus an isolated nuisance node w.
    fn chain_scm() -> Scm {
        Scm::new(vec![
            Node { name: "x".into(), mechanism: Mechanism::Exogenous { mean: 0.0, std: 1.0 } },
            Node {
                name: "z".into(),
                mechanism: Mechanism::Linear {
                    parents: vec![0],
                    weights: vec![2.0],
                    bias: 0.0,
                    noise_std: 1.0,
                },
            },
            Node { name: "w".into(), mechanism: Mechanism::Exogenous { mean: 5.0, std: 1.0 } },
        ])
        .unwrap()
    }

    #[test]
    fn efficiency_equals_output_difference() {
        let scm = chain_scm();
        let model = |f: &[f64]| 3.0 * f[1] + f[2]; // reads z and w
        let instance = [1.0, 2.5, 6.0];
        let baseline = [0.0, 0.0, 5.0];
        let flow = shapley_flow(&scm, &model, &[0, 1, 2], &instance, &baseline);
        let total: f64 = flow.credit.iter().sum();
        assert!((flow.instance_output - model(&instance)).abs() < 1e-9);
        assert!((flow.baseline_output - model(&baseline)).abs() < 1e-9);
        assert!((total - (flow.instance_output - flow.baseline_output)).abs() < 1e-9);
    }

    #[test]
    fn credit_flows_along_the_causal_chain() {
        let scm = chain_scm();
        let model = |f: &[f64]| f[1]; // reads z only
        // Instance: x=1 (noise +1), z = 2·1 + 0.5; baseline all-zero noise.
        let instance = [1.0, 2.5, 5.0];
        let baseline = [0.0, 0.0, 5.0];
        let flow = shapley_flow(&scm, &model, &[0, 1, 2], &instance, &baseline);
        // Δz caused by x is 2.0, carried jointly by the series pair
        // {source→x, x→z}: a 2-player unanimity game, 1.0 each. z's own
        // source edge carries the residual 0.5 alone.
        let xz = flow.edge_credit(0, 1).unwrap();
        let x_src = flow.source_credit(0).unwrap();
        let z_src = flow.source_credit(1).unwrap();
        assert!((xz - 1.0).abs() < 1e-9, "x→z credit {xz}");
        assert!((x_src - 1.0).abs() < 1e-9, "x source credit {x_src}");
        assert!((z_src - 0.5).abs() < 1e-9, "z source credit {z_src}");
        // The nuisance node w is identical in both worlds: zero credit.
        assert!(flow.source_credit(2).unwrap().abs() < 1e-12);
    }

    #[test]
    fn all_source_edges_present() {
        let scm = chain_scm();
        let model = |f: &[f64]| f[0];
        let flow = shapley_flow(&scm, &model, &[0, 1, 2], &[0.0, 0.0, 5.0], &[0.0, 0.0, 5.0]);
        assert_eq!(flow.edges.len(), scm.edges().len() + scm.n_nodes());
        // Identical instance/baseline ⇒ all credits zero.
        assert!(flow.credit.iter().all(|c| c.abs() < 1e-12));
    }
}
