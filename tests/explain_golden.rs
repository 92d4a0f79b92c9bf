//! Golden bytes of every runnable sampled method under every plan.
//!
//! Each case drives one method through `Explainer::explain` at one
//! `RunConfig` — workers ∈ {1, 2, 4} × batched ∈ {off, on}, each with
//! and without an eval-cap budget — and pins the canonical
//! `Explanation::to_json_string()` bytes in
//! `tests/fixtures/explain_golden.json`. A plan the method rejects is
//! pinned as its typed error variant, so the accepted/rejected plan set
//! is part of the contract too. The inputs are the `unified_api` suite's:
//! the same dataset, model, backgrounds, rows, configs and seeds.
//!
//! Regenerate the fixture after an intentional output change:
//!
//! ```sh
//! XAI_REGEN_GOLDEN=1 cargo test --test explain_golden
//! ```

use std::path::PathBuf;

use xai::datavalue::{BanzhafConfig, KnnUtility};
use xai::prelude::*;
use xai_linalg::Matrix;

const WORKER_GRID: [usize; 3] = [1, 2, 4];

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/explain_golden.json")
}

fn background(data: &Dataset, rows: usize) -> Matrix {
    let rows: Vec<Vec<f64>> =
        (0..rows.min(data.n_rows())).map(|i| data.row(i).to_vec()).collect();
    Matrix::from_rows(&rows)
}

/// The variant name of a typed error (`Unsupported`, `BudgetExceeded`, …).
fn error_kind(e: &XaiError) -> String {
    let debug = format!("{e:?}");
    debug.split([' ', '{', '(']).next().unwrap_or_default().to_string()
}

/// One pinned line: the explanation bytes, or the rejecting error kind.
fn outcome(result: XaiResult<Explanation>) -> String {
    match result {
        Ok(e) => e.to_json_string(),
        Err(e) => format!("{{\"error\":\"{}\"}}", error_kind(&e)),
    }
}

/// Every (case name, outcome) pair, in a fixed order.
fn cases() -> Vec<(String, String)> {
    let data = xai::data::synth::german_credit(120, 77);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    let bg30 = background(&data, 30);
    let bg20 = background(&data, 20);
    let rejected = (0..data.n_rows())
        .map(|i| data.row(i))
        .find(|r| model.proba_one(r) < 0.5)
        .expect("a rejected applicant exists")
        .to_vec();
    let row = |i: usize| data.row(i).to_vec();
    let (row0, row3, row5, row9) = (row(0), row(3), row(5), row(9));

    let valuation_data = xai::data::synth::german_credit(40, 77);
    let valuation_test = xai::data::synth::german_credit(20, 78);
    let utility = KnnUtility::new(&valuation_data, &valuation_test, 3);

    let lime = LimeConfig { n_samples: 120, ..LimeConfig::default() };
    let kernel_exact = KernelShapMethod { config: KernelShapConfig::default() };
    let kernel_sampled = KernelShapMethod {
        config: KernelShapConfig { max_coalitions: 200, ..KernelShapConfig::default() },
    };
    let permutation = PermutationShapleyMethod { permutations: 24 };
    let lime_method = LimeMethod { config: lime };
    let sp_lime = SpLimeMethod { n_candidates: 20, picks: 4, config: lime };
    let pdp = PdpMethod { points: 8, max_rows: 60, keep_ice: true };
    let tmc = TmcMethod { config: TmcConfig { permutations: 6, ..TmcConfig::default() } };
    let banzhaf =
        BanzhafMethod { config: BanzhafConfig { samples_per_point: 8, ..BanzhafConfig::default() } };
    let (anchors, dice, geco) =
        (AnchorsMethod::default(), DiceMethod::default(), GecoMethod::default());

    // (name, method, request without plan, seed, eval cap of the budgeted plans)
    let base = ExplainRequest::new(&data);
    let valuation = ExplainRequest::new(&valuation_data).utility(&utility);
    let methods: Vec<(&str, &dyn Explainer, ExplainRequest<'_>, u64, usize)> = vec![
        ("kernel_shap_exact", &kernel_exact, base.instance(&row3).background(&bg30), 11, 100),
        ("kernel_shap_sampled", &kernel_sampled, base.instance(&row3).background(&bg30), 11, 100),
        ("permutation", &permutation, base.instance(&row5).background(&bg20), 23, 60),
        ("lime", &lime_method, base.instance(&row9), 31, 64),
        ("sp_lime", &sp_lime, base, 31, 64),
        ("anchors", &anchors, base.instance(&row0), 13, 64),
        ("dice", &dice, base.instance(&rejected), 6, 64),
        ("geco", &geco, base.instance(&rejected), 6, 64),
        ("pdp", &pdp, base.feature(1), 0, 64),
        ("loo", &LooMethod, valuation, 19, 40),
        ("tmc", &tmc, valuation, 19, 40),
        ("banzhaf", &banzhaf, valuation, 19, 40),
    ];

    let mut out = Vec::new();
    for (name, method, req, seed, cap) in methods {
        for budgeted in [false, true] {
            for workers in WORKER_GRID {
                for batched in [false, true] {
                    let mut plan =
                        RunConfig::seeded(seed).with_workers(workers).with_batched(batched);
                    if budgeted {
                        plan = plan.with_budget(SampleBudget::with_max_evals(cap));
                    }
                    let case = format!(
                        "{name} w{workers} b{} cap{}",
                        u8::from(batched),
                        if budgeted { cap } else { 0 }
                    );
                    out.push((case, outcome(method.explain(&model, &req.plan(plan)))));
                }
            }
        }
    }
    out
}

/// The fixture text: one `"case": outcome` member per line.
fn render(cases: &[(String, String)]) -> String {
    let members: Vec<String> = cases
        .iter()
        .map(|(case, bytes)| format!("{}: {bytes}", Json::str(case.as_str()).to_json()))
        .collect();
    format!("{{\n{}\n}}\n", members.join(",\n"))
}

#[test]
fn explain_bytes_match_the_golden_fixture() {
    let rendered = render(&cases());
    if std::env::var_os("XAI_REGEN_GOLDEN").is_some() {
        std::fs::write(fixture_path(), &rendered).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(fixture_path()).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}; regenerate with \
             XAI_REGEN_GOLDEN=1 cargo test --test explain_golden",
            fixture_path().display()
        )
    });
    for (got, want) in rendered.lines().zip(pinned.lines()) {
        assert_eq!(got, want, "explain output diverged from the golden fixture");
    }
    assert_eq!(rendered, pinned, "golden fixture case list changed");
}

#[test]
fn the_fixture_is_valid_json_covering_every_case() {
    let pinned = std::fs::read_to_string(fixture_path()).expect("golden fixture exists");
    let json = xai::core::parse_json(&pinned).expect("fixture parses as JSON");
    let Json::Obj(members) = json else { panic!("fixture is not a JSON object") };
    // 12 methods × (3 worker counts × 2 batch modes) × (unbudgeted, budgeted).
    assert_eq!(members.len(), 12 * 6 * 2);
}
