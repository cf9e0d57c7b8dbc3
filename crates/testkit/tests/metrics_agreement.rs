//! Property test: the metrics layer's event-derived totals equal the
//! engine's own `RunStats` counters — on fuzzer-generated cases, across
//! the full configuration matrix, under every harness policy.
//!
//! The same agreement is enforced inside `check_case` itself (every matrix
//! run is metered and cross-checked), so these tests both exercise the
//! property directly and prove the harness would report a disagreement as
//! a divergence.

use park_engine::{Engine, JsonMetrics, ParkOutcome};
use park_storage::{FactStore, Vocabulary};
use park_testkit::{check_case, generate, run_fuzz, EngineConfig, OracleVariant, POLICIES};
use std::sync::Arc;

fn metered_run(
    case_seed: u64,
    cfg: &EngineConfig,
    policy: &str,
) -> Option<(ParkOutcome, JsonMetrics)> {
    let case = generate(case_seed);
    let vocab = Vocabulary::new();
    let program = park_syntax::parse_program(&case.program_source()).ok()?;
    park_syntax::check_program(&program).ok()?;
    let db = FactStore::from_source(Arc::clone(&vocab), &case.facts_source()).ok()?;
    let engine = Engine::with_options(vocab, &program, cfg.options()).ok()?;
    let mut resolver = park_policies::by_name(policy).expect("harness policies are known");
    let mut sink = JsonMetrics::new("test");
    let out = engine
        .park_with_metrics(&db, resolver.as_mut(), &mut sink)
        .ok()?;
    Some((out, sink))
}

#[test]
fn metrics_totals_equal_run_stats_on_generated_cases() {
    // 100 seeds × 2 configurations × 3 policies = 600 metered runs.
    let mut checked = 0u64;
    for seed in 0..100 {
        for cfg in EngineConfig::matrix() {
            for policy in POLICIES {
                let Some((out, sink)) = metered_run(seed, &cfg, policy) else {
                    continue;
                };
                assert_eq!(
                    sink.totals(),
                    out.stats.counters(),
                    "seed {seed}, config {}, policy {policy}",
                    cfg.label()
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 500, "too few runs actually checked: {checked}");
}

#[test]
fn emitted_documents_are_schema_valid_on_generated_cases() {
    for seed in 0..10 {
        for cfg in EngineConfig::matrix() {
            let Some((out, sink)) = metered_run(seed, &cfg, "inertia") else {
                continue;
            };
            let doc = sink.to_json();
            assert_eq!(
                doc.get("schema").and_then(park_json::Json::as_str),
                Some("park-metrics/v1")
            );
            let totals = doc.get("totals").expect("totals object present");
            assert_eq!(
                totals.get("gamma_steps").and_then(park_json::Json::as_i64),
                Some(out.stats.gamma_steps as i64),
                "seed {seed}"
            );
            // The document reparses.
            park_json::parse(&doc.to_pretty()).expect("document round-trips");
        }
    }
}

#[test]
fn fuzz_report_aggregates_counters() {
    let report = run_fuzz(0, 20, OracleVariant::Faithful, |_, _| {})
        .unwrap_or_else(|f| panic!("{}", f.divergence));
    // 20 cases through 2 configurations × 3 policies each: the aggregate
    // counters must reflect real work.
    assert!(report.counters.gamma_steps > 0, "{report:?}");
    assert!(report.counters.groundings_fired > 0, "{report:?}");
}

#[test]
fn check_case_meters_every_matrix_cell() {
    // A corpus-style conflict case: the per-case counter aggregate over 6
    // runs (2 configs × 3 policies) must count at least one restart per
    // conflicting run.
    let case = park_testkit::Case {
        seed: 0,
        rules: vec!["p -> +q.".into(), "p -> -q.".into()],
        facts: vec!["p.".into()],
        txs: Vec::new(),
    };
    let stats = check_case(&case, OracleVariant::Faithful).unwrap_or_else(|d| panic!("{d}"));
    assert!(stats.had_conflicts);
    assert_eq!(EngineConfig::matrix().len(), 2);
    assert!(stats.counters.restarts >= 6, "{:?}", stats.counters);
}
