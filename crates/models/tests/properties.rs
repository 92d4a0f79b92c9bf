//! Property-based tests for the model substrate, run as deterministic
//! seeded loops over `xai_rand`.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use xai_core::{parse_json, XaiError};
use xai_linalg::Matrix;
use xai_models::{
    decode_model, Classifier, DecisionTree, ForestConfig, GaussianNb, Gbdt, GbdtConfig, GbdtLoss,
    Knn, LinearConfig, LinearRegression, LogisticConfig, LogisticRegression, Mlp, MlpConfig,
    MlpTask, Persist, RandomForest, Regressor, SplitCriterion, TreeConfig,
};
use xai_rand::property::{cases, vec_in};
use xai_rand::rngs::StdRng;
use xai_rand::{Rng, SeedableRng};

/// A small dataset of rows in [-5, 5] with 0/1 labels containing both
/// classes (resampled until both appear).
fn binary_dataset(rng: &mut StdRng) -> (Matrix, Vec<f64>) {
    loop {
        let d = rng.gen_range(2..=4);
        let n = rng.gen_range(8..=40);
        let data = vec_in(rng, n * d, -5.0, 5.0);
        let labels: Vec<f64> = (0..n).map(|_| f64::from(rng.gen::<bool>())).collect();
        let pos = labels.iter().filter(|&&v| v > 0.5).count();
        if pos == 0 || pos == n {
            continue;
        }
        return (Matrix::from_vec(n, d, data), labels);
    }
}

#[test]
fn tree_probabilities_stay_in_unit_interval() {
    cases(64, 401, |rng| {
        let (x, y) = binary_dataset(rng);
        let tree = DecisionTree::fit(&x, &y, TreeConfig { max_depth: 4, ..TreeConfig::default() });
        for i in 0..x.rows() {
            let p = tree.proba_one(x.row(i));
            assert!((0.0..=1.0).contains(&p));
        }
    });
}

#[test]
fn tree_regression_predictions_within_target_range() {
    cases(64, 402, |rng| {
        let (x, y) = binary_dataset(rng);
        // Reinterpret labels as regression targets scaled to [0, 10].
        let targets: Vec<f64> = y.iter().map(|v| v * 10.0).collect();
        let tree = DecisionTree::fit(
            &x,
            &targets,
            TreeConfig { criterion: SplitCriterion::Variance, max_depth: 5, ..TreeConfig::default() },
        );
        let lo = targets.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = targets.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for i in 0..x.rows() {
            let p = Regressor::predict_one(&tree, x.row(i));
            assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    });
}

#[test]
fn logistic_probabilities_finite_and_bounded() {
    cases(64, 403, |rng| {
        let (x, y) = binary_dataset(rng);
        let m = LogisticRegression::fit(&x, &y, LogisticConfig { max_iter: 20, ..LogisticConfig::default() });
        for i in 0..x.rows() {
            let p = m.proba_one(x.row(i));
            assert!(p.is_finite() && (0.0..=1.0).contains(&p));
        }
        assert!(m.weights().iter().all(|w| w.is_finite()));
    });
}

#[test]
fn knn_prediction_is_a_training_label_average() {
    cases(64, 404, |rng| {
        let (x, y) = binary_dataset(rng);
        let knn = Knn::fit(&x, &y, 3);
        for i in 0..x.rows().min(5) {
            let p = knn.proba_one(x.row(i));
            assert!((0.0..=1.0).contains(&p));
            // With k=3 the prediction is a multiple of 1/3.
            let scaled = p * 3.0;
            assert!((scaled - scaled.round()).abs() < 1e-9);
        }
    });
}

#[test]
fn naive_bayes_probabilities_valid() {
    cases(64, 405, |rng| {
        let (x, y) = binary_dataset(rng);
        let nb = GaussianNb::fit(&x, &y);
        for i in 0..x.rows().min(8) {
            let p = nb.proba_one(x.row(i));
            assert!(p.is_finite() && (0.0..=1.0).contains(&p));
        }
    });
}

#[test]
fn linear_regression_is_affine() {
    cases(64, 406, |rng| {
        // Fit on exact affine data: prediction must interpolate new points.
        let d = rng.gen_range(2..4);
        let coefs = vec_in(rng, d, -3.0, 3.0);
        let bias: f64 = rng.gen_range(-2.0..2.0);
        let n = 4 * d + 4;
        let x = Matrix::from_fn(n, d, |i, j| ((i * (j + 2) + j) % 7) as f64 - 3.0);
        let y: Vec<f64> = x.iter_rows().map(|r| bias + xai_linalg::dot(&coefs, r)).collect();
        let m = LinearRegression::fit(&x, &y, LinearConfig { ridge: 1e-10, intercept: true }).unwrap();
        let probe: Vec<f64> = (0..d).map(|j| 0.5 * j as f64 - 1.0).collect();
        let expected = bias + xai_linalg::dot(&coefs, &probe);
        assert!((Regressor::predict_one(&m, &probe) - expected).abs() < 1e-4);
    });
}

// ---------------------------------------------------------------------------
// Batch/scalar equivalence: `predict_batch` / `proba_batch` must agree with
// the row-by-row scalar path to *exact* (bitwise) equality for all eight
// model families, including the empty-matrix and single-row edge cases.
// This is the contract the batched explainer paths build on.
// ---------------------------------------------------------------------------

/// Probe matrices exercising the edge cases: empty, single row, and a
/// block big enough to hit the blocked kernels' remainder handling.
fn probe_batches(rng: &mut StdRng, d: usize) -> Vec<Matrix> {
    let multi_rows = rng.gen_range(5..=13);
    vec![
        Matrix::zeros(0, d),
        Matrix::from_vec(1, d, vec_in(rng, d, -6.0, 6.0)),
        Matrix::from_vec(multi_rows, d, vec_in(rng, multi_rows * d, -6.0, 6.0)),
    ]
}

fn assert_regressor_batch_exact<R: Regressor>(model: &R, probes: &[Matrix], name: &str) {
    for m in probes {
        let batched = model.predict_batch(m);
        let scalar: Vec<f64> = m.iter_rows().map(|r| model.predict_one(r)).collect();
        assert_eq!(batched, scalar, "{name}: predict_batch != predict_one loop ({} rows)", m.rows());
        assert_eq!(model.predict(m), batched, "{name}: predict must route through the batch surface");
    }
}

fn assert_classifier_batch_exact<C: Classifier>(model: &C, probes: &[Matrix], name: &str) {
    for m in probes {
        let batched = model.proba_batch(m);
        let scalar: Vec<f64> = m.iter_rows().map(|r| model.proba_one(r)).collect();
        assert_eq!(batched, scalar, "{name}: proba_batch != proba_one loop ({} rows)", m.rows());
        let hard: Vec<f64> = batched.iter().map(|&p| f64::from(p >= 0.5)).collect();
        assert_eq!(Classifier::predict(model, m), hard, "{name}: hard predictions diverge");
    }
}

#[test]
fn linear_and_logistic_batch_paths_are_bit_identical() {
    cases(48, 407, |rng| {
        let (x, y) = binary_dataset(rng);
        let d = x.cols();
        let probes = probe_batches(rng, d);
        let linear = LinearRegression::fit(&x, &y, LinearConfig::default()).unwrap();
        assert_regressor_batch_exact(&linear, &probes, "linear");
        let logistic =
            LogisticRegression::fit(&x, &y, LogisticConfig { max_iter: 15, ..LogisticConfig::default() });
        assert_classifier_batch_exact(&logistic, &probes, "logistic");
    });
}

#[test]
fn tree_ensemble_batch_paths_are_bit_identical() {
    cases(32, 408, |rng| {
        let (x, y) = binary_dataset(rng);
        let d = x.cols();
        let probes = probe_batches(rng, d);
        let tree = DecisionTree::fit(&x, &y, TreeConfig { max_depth: 5, ..TreeConfig::default() });
        assert_regressor_batch_exact(&tree, &probes, "tree");
        assert_classifier_batch_exact(&tree, &probes, "tree");
        let forest = RandomForest::fit(
            &x,
            &y,
            ForestConfig { n_trees: 7, seed: 3, ..ForestConfig::default() },
        );
        assert_regressor_batch_exact(&forest, &probes, "forest");
        assert_classifier_batch_exact(&forest, &probes, "forest");
        for loss in [GbdtLoss::Squared, GbdtLoss::Logistic] {
            let gbdt = Gbdt::fit(&x, &y, GbdtConfig { n_rounds: 12, loss, ..GbdtConfig::default() });
            assert_regressor_batch_exact(&gbdt, &probes, "gbdt");
            assert_classifier_batch_exact(&gbdt, &probes, "gbdt");
        }
    });
}

#[test]
fn knn_naive_bayes_and_mlp_batch_paths_are_bit_identical() {
    cases(32, 409, |rng| {
        let (x, y) = binary_dataset(rng);
        let d = x.cols();
        let probes = probe_batches(rng, d);
        let knn = Knn::fit(&x, &y, 3);
        assert_regressor_batch_exact(&knn, &probes, "knn");
        assert_classifier_batch_exact(&knn, &probes, "knn");
        let nb = GaussianNb::fit(&x, &y);
        assert_classifier_batch_exact(&nb, &probes, "naive_bayes");
        for task in [MlpTask::Regression, MlpTask::Classification] {
            let mlp = Mlp::fit(
                &x,
                &y,
                MlpConfig { hidden: 6, epochs: 4, task, seed: 11, ..MlpConfig::default() },
            );
            assert_regressor_batch_exact(&mlp, &probes, "mlp");
            assert_classifier_batch_exact(&mlp, &probes, "mlp");
        }
    });
}

// ---------------------------------------------------------------------------
// The model decoder under mutated documents
// ---------------------------------------------------------------------------

/// The persisted text of one small fitted model of each decodable kind.
fn persisted_documents() -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(431);
    let (x, y) = binary_dataset(&mut rng);
    let linear = LinearRegression::fit(&x, &y, LinearConfig::default()).expect("OLS fit");
    let logistic = LogisticRegression::fit(&x, &y, LogisticConfig::default());
    let tree = DecisionTree::fit(&x, &y, TreeConfig { max_depth: 3, ..TreeConfig::default() });
    let gbdt = Gbdt::fit(&x, &y, GbdtConfig { n_rounds: 3, ..GbdtConfig::default() });
    [linear.save(), logistic.save(), tree.save(), gbdt.save()].map(|j| j.to_json()).to_vec()
}

/// Byte spans of the values that follow a `:`, `,` or `[` and are not
/// strings: the numbers (and `null` children) of a persisted model.
fn value_spans(text: &str) -> Vec<(usize, usize)> {
    let b = text.as_bytes();
    let end_of = |i: usize| {
        (i..b.len()).find(|&j| matches!(b[j], b',' | b']' | b'}')).unwrap_or(b.len())
    };
    let starts_value = |i: usize| {
        matches!(b[i - 1], b':' | b',' | b'[') && matches!(b[i], b'-' | b'0'..=b'9' | b'n')
    };
    (1..b.len()).filter(|&i| starts_value(i)).map(|i| (i, end_of(i))).collect()
}

/// Byte spans of the values stored under any of `keys`.
fn keyed_spans(text: &str, keys: &[&str]) -> Vec<(usize, usize)> {
    let values = value_spans(text);
    keys.iter()
        .map(|key| format!("\"{key}\":"))
        .flat_map(|key| text.match_indices(&key).map(|(at, k)| at + k.len()).collect::<Vec<_>>())
        .filter_map(|start| values.iter().find(|&&(s, _)| s == start).copied())
        .collect()
}

fn replace_span(text: &str, (start, end): (usize, usize), with: &str) -> String {
    format!("{}{with}{}", &text[..start], &text[end..])
}

/// One seeded mutation of `docs[k]`: truncate, flip a bit, splice with
/// another document, rewrite a child or feature index, or put in a huge,
/// negative or fractional number.
fn mutate(rng: &mut StdRng, docs: &[String], k: usize) -> String {
    const ODD_NUMBERS: [&str; 9] =
        ["1e308", "-1e308", "-1", "-3.5", "0.5", "9007199254740993", "1e15", "-0", "1e400"];
    let text = &docs[k];
    match rng.gen_range(0..5) {
        0 => text[..rng.gen_range(0..text.len())].to_string(),
        1 => {
            let mut bytes = text.clone().into_bytes();
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1u8 << rng.gen_range(0..7u32);
            String::from_utf8(bytes).expect("flipping a low bit keeps ASCII")
        }
        2 => {
            let other = &docs[rng.gen_range(0..docs.len())];
            let cut = rng.gen_range(0..text.len());
            format!("{}{}", &text[..cut], &other[rng.gen_range(0..other.len())..])
        }
        3 => {
            let spans = keyed_spans(text, &["left", "right", "feature"]);
            if spans.is_empty() {
                return mutate(rng, docs, k);
            }
            let span = spans[rng.gen_range(0..spans.len())];
            let index = match rng.gen_range(0..4) {
                0 => "null".to_string(),
                1 => ODD_NUMBERS[rng.gen_range(0..ODD_NUMBERS.len())].to_string(),
                _ => rng.gen_range(-2i64..40).to_string(),
            };
            replace_span(text, span, &index)
        }
        _ => {
            // Half the time aim at the model-level scalars, which a
            // uniform pick over every number would rarely reach.
            let model_keys = ["n_features", "learning_rate", "base_score", "intercept", "l2"];
            let spans = if rng.gen() { keyed_spans(text, &model_keys) } else { value_spans(text) };
            let span = spans[rng.gen_range(0..spans.len())];
            replace_span(text, span, ODD_NUMBERS[rng.gen_range(0..ODD_NUMBERS.len())])
        }
    }
}

/// Parses and decodes one document; a decoded model must then answer
/// `predict`, `predict_batch` and `predict_masked` on seeded rows.
fn decode_and_predict(text: &str, seed: u64) {
    let Ok(json) = parse_json(text) else { return };
    let model = match decode_model(&json) {
        Ok((model, _)) => model,
        Err(XaiError::Parse { .. }) => return,
        Err(other) => panic!("untyped decoder error {other:?}"),
    };
    let d = model.n_features();
    if d > 64 {
        // A claimed width this large cannot be materialised as rows (and
        // is past the masked path's 64-feature limit); decoding it is
        // what was under test.
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = Matrix::from_vec(4, d, vec_in(&mut rng, 4 * d, -5.0, 5.0));
    for r in 0..rows.rows() {
        model.predict(rows.row(r));
    }
    model.predict_batch(&rows);
    let all = if d == 64 { u64::MAX } else { (1u64 << d) - 1 };
    let masks: Vec<u64> = (0..8).map(|_| rng.gen::<u64>() & all).collect();
    let mut out = Vec::new();
    model.predict_masked(rows.row(0), &rows, &masks, &mut out);
}

/// Every mutated persisted document of every decodable kind decodes to a
/// typed `Parse` error or to a model whose predictions return. Each case
/// runs on its own thread under a deadline, so a document that makes
/// decoding or prediction loop fails the test instead of hanging it.
#[test]
fn the_model_decoder_survives_mutated_documents() {
    let docs = persisted_documents();
    cases(400, 433, |rng| {
        let k = rng.gen_range(0..docs.len());
        let text = mutate(rng, &docs, k);
        let seed = rng.gen();
        let (tx, rx) = mpsc::channel();
        let probe = text.clone();
        let worker = std::thread::spawn(move || {
            decode_and_predict(&probe, seed);
            let _ = tx.send(());
        });
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(()) => worker.join().expect("the probe thread finished"),
            // The probe thread is stuck and cannot be joined; fail loudly.
            Err(RecvTimeoutError::Timeout) => panic!("decode or predict hung on {text}"),
            Err(RecvTimeoutError::Disconnected) => {
                let message = worker.join().err().map(xai_rand::parallel::panic_message);
                panic!("decode or predict panicked ({message:?}) on {text}");
            }
        }
    });
}
