//! Quickstart: one model, one request, five kinds of explanation —
//! every method called through the unified `Explainer` trait with a
//! single `RunConfig` execution plan.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use xai::prelude::*;

fn main() {
    // 1. Data + model: a gradient-boosted classifier on synthetic German
    //    Credit.
    let data = xai::data::synth::german_credit(1200, 42);
    let (train, test) = data.train_test_split(0.25, 1);
    let model =
        Gbdt::fit(train.x(), train.y(), GbdtConfig { n_rounds: 60, ..GbdtConfig::default() });
    let auc = xai::data::metrics::auc_roc(test.y(), &model.proba(test.x()));
    println!("model: GBDT, test AUC = {auc:.3}\n");

    // The applicant we will explain.
    let applicant = test.row(0).to_vec();
    println!("applicant: {}", test.render_row(0));
    println!("P(good credit) = {:.3}\n", model.proba_one(&applicant));
    let names = data.schema().names();

    // One request + one execution plan serve every explainer below: the
    // seed and the worker count travel with the request instead of
    // selecting differently-named functions.
    let valuation = xai::datavalue::KnnUtility::new(&train, &test, 5);
    let req = ExplainRequest::new(&train)
        .instance(&applicant)
        .utility(&valuation)
        .plan(RunConfig::seeded(7).with_workers(2));

    // 2. Feature attribution via TreeSHAP (model-specific, exact, fast).
    let shap = TreeShapMethod.explain(&model, &req).unwrap();
    let shap = shap.as_attribution().unwrap();
    println!("— TreeSHAP (attributes the log-odds margin) —");
    for (name, value) in shap.top_k(4) {
        println!("  {name:>18}: {value:+.4}");
    }
    println!("  efficiency gap: {:.2e}\n", shap.efficiency_gap());

    // 3. Feature attribution via LIME (model-agnostic surrogate).
    let lime = LimeMethod::default().explain(&model, &req).unwrap();
    println!("— LIME (local weighted-linear surrogate) —");
    for (name, value) in lime.as_attribution().unwrap().top_k(4) {
        println!("  {name:>18}: {value:+.4}");
    }
    println!();

    // 4. A high-precision rule via Anchors.
    let rules = AnchorsMethod::default().explain(&model, &req).unwrap();
    println!("— Anchor rule —\n  {}\n", rules.as_rules().unwrap()[0]);

    // 5. Counterfactuals via DiCE.
    let dice = DiceMethod { config: DiceConfig { k: 2, ..DiceConfig::default() } };
    let cfs = dice.explain(&model, &req).unwrap();
    println!("— Diverse counterfactuals —");
    for (i, cf) in cfs.as_counterfactuals().unwrap().iter().enumerate() {
        println!(
            "  cf#{i}: flips to {:.3} by changing {} feature(s), distance {:.2}",
            cf.counterfactual_output,
            cf.sparsity(),
            cf.distance
        );
        for &j in &cf.changed_features {
            println!(
                "       {} : {} -> {}",
                names[j],
                data.schema().feature(j).render(cf.original[j]),
                data.schema().feature(j).render(cf.counterfactual[j]),
            );
        }
    }
    println!();

    // 6. Which training points mattered? Leave-one-out valuation through
    //    the same trait, scored by a 5-NN utility on the test split.
    let values = LooMethod.explain(&model, &req).unwrap();
    let values = values.as_valuation().unwrap();
    let best = values.ranking_desc();
    println!("— Training-data valuation (leave-one-out, 5-NN utility) —");
    for &i in best.iter().take(3) {
        println!("  value {:+.5}  {}", values.values[i], train.render_row(i));
    }

    // 7. Everything exports as JSON for audit trails.
    println!("\n— JSON report of the TreeSHAP explanation —");
    println!("{}", shap.to_report().to_json());
}
