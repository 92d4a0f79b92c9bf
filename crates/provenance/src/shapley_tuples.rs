//! The Shapley value of database tuples in query answering
//! (Livshits, Bertossi, Kimelfeld & Sebag, §3 \[62\]).
//!
//! Given a query answer with provenance polynomial `p`, the contribution
//! of each *endogenous* base tuple is the Shapley value of the cooperative
//! game `v(S) = p` evaluated in the Boolean semiring with exactly the
//! tuples `S` (plus all exogenous tuples) present — "how much of the
//! answer's existence is tuple t responsible for?". Exact computation is
//! `#P`-hard in general (hence exponential here), with permutation
//! sampling as the scalable path — mirroring the complexity landscape of
//! the paper.

use crate::semiring::{Polynomial, VarId};
use xai_shapley::{exact_shapley, permutation_shapley, BatchGame, CooperativeGame};

/// The Boolean query-answer game over endogenous tuples.
pub struct TupleGame<'a> {
    provenance: &'a Polynomial,
    endogenous: &'a [VarId],
}

impl<'a> TupleGame<'a> {
    /// Builds the game; variables not listed in `endogenous` are treated
    /// as exogenous (always present).
    pub fn new(provenance: &'a Polynomial, endogenous: &'a [VarId]) -> Self {
        Self { provenance, endogenous }
    }
}

impl CooperativeGame for TupleGame<'_> {
    fn n_players(&self) -> usize {
        self.endogenous.len()
    }

    fn value(&self, coalition: &[bool]) -> f64 {
        let present = |v: VarId| match self.endogenous.iter().position(|&e| e == v) {
            Some(i) => coalition[i],
            None => true, // exogenous
        };
        f64::from(self.provenance.present(&present))
    }
}

impl BatchGame for TupleGame<'_> {}

/// Exact tuple Shapley values (exponential in the endogenous tuple count).
pub fn tuple_shapley_exact(provenance: &Polynomial, endogenous: &[VarId]) -> Vec<f64> {
    exact_shapley(&TupleGame::new(provenance, endogenous))
}

/// Sampled tuple Shapley values for larger endogenous sets.
pub fn tuple_shapley_sampled(
    provenance: &Polynomial,
    endogenous: &[VarId],
    permutations: usize,
    seed: u64,
) -> Vec<f64> {
    permutation_shapley(&TupleGame::new(provenance, endogenous), permutations, seed).phi
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(v: VarId) -> Polynomial {
        Polynomial::var(v)
    }

    #[test]
    fn single_witness_splits_evenly() {
        // answer ⇐ t0 ∧ t1 : classic join witness; each tuple gets 1/2.
        let p = var(0).times(&var(1));
        let phi = tuple_shapley_exact(&p, &[0, 1]);
        assert!((phi[0] - 0.5).abs() < 1e-12);
        assert!((phi[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn alternative_witnesses_dilute_responsibility() {
        // answer ⇐ t0 ∨ t1 : either suffices; v = OR game.
        // φ_i = 1/2 each (marginal only when arriving first into ∅).
        let p = var(0).plus(&var(1));
        let phi = tuple_shapley_exact(&p, &[0, 1]);
        assert!((phi[0] - 0.5).abs() < 1e-12);
        assert!((phi[1] - 0.5).abs() < 1e-12);
        // Three alternatives ⇒ 1/3 each.
        let p3 = p.plus(&var(2));
        let phi3 = tuple_shapley_exact(&p3, &[0, 1, 2]);
        for v in &phi3 {
            assert!((v - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn exogenous_tuples_shift_credit() {
        // answer ⇐ t0 ∧ t1 with t1 exogenous: t0 carries everything.
        let p = var(0).times(&var(1));
        let phi = tuple_shapley_exact(&p, &[0]);
        assert!((phi[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn asymmetric_structure_gives_asymmetric_credit() {
        // answer ⇐ t0·t1 + t0·t2 : t0 is in every witness.
        let p = var(0).times(&var(1)).plus(&var(0).times(&var(2)));
        let phi = tuple_shapley_exact(&p, &[0, 1, 2]);
        assert!(phi[0] > phi[1], "pivotal tuple must earn more: {phi:?}");
        assert!((phi[1] - phi[2]).abs() < 1e-12, "symmetric tuples equal");
        // Efficiency: sums to 1 (the answer exists under full database).
        assert!((phi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Known closed form: φ0 = 2/3, φ1 = φ2 = 1/6.
        assert!((phi[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((phi[1] - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn irrelevant_tuple_scores_zero() {
        let p = var(0).times(&var(1));
        let phi = tuple_shapley_exact(&p, &[0, 1, 9]);
        assert!(phi[2].abs() < 1e-12);
    }

    #[test]
    fn sampled_matches_exact() {
        let p = var(0).times(&var(1)).plus(&var(2)).plus(&var(0).times(&var(3)));
        let endo = [0, 1, 2, 3];
        let exact = tuple_shapley_exact(&p, &endo);
        let sampled = tuple_shapley_sampled(&p, &endo, 4000, 7);
        for (a, b) in sampled.iter().zip(&exact) {
            assert!((a - b).abs() < 0.03, "{a} vs {b}");
        }
    }

    #[test]
    fn end_to_end_through_the_query_engine() {
        use crate::relation::{Relation, Value};
        // Who ordered disks? — explain why "ann" is an answer.
        let (orders, _) = Relation::base(
            "orders",
            &["cust", "item"],
            vec![
                vec![Value::Str("ann".into()), Value::Str("disk".into())],
                vec![Value::Str("ann".into()), Value::Str("disk".into())],
                vec![Value::Str("bob".into()), Value::Str("cpu".into())],
            ],
            0,
        );
        let answer = orders
            .select(|v| v[1] == Value::Str("disk".into()))
            .project(&["cust"]);
        let ann = answer
            .tuples
            .iter()
            .find(|t| t.values[0] == Value::Str("ann".into()))
            .unwrap();
        let endo: Vec<VarId> = ann.provenance.lineage();
        let phi = tuple_shapley_exact(&ann.provenance, &endo);
        // Two identical orders: each carries half the responsibility.
        assert_eq!(endo, vec![0, 1]);
        assert!((phi[0] - 0.5).abs() < 1e-12);
        assert!((phi[1] - 0.5).abs() < 1e-12);
    }
}
