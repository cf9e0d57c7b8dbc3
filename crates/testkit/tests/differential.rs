//! The differential harness, end to end: the oracle agrees with the
//! paper's worked examples, the engine agrees with the oracle over a fuzz
//! stream, an injected semantics bug is caught, and the workload
//! generators plug into the same check.

use park_engine::{CompiledProgram, Inertia, ResolutionScope};
use park_storage::{FactStore, Vocabulary};
use park_syntax::parse_program;
use park_testkit::{check_case, minimize, oracle_evaluate, run_fuzz, Case, OracleVariant};
use std::sync::Arc;

fn case(rules: &str, facts: &str) -> Case {
    let lines = |s: &str| {
        s.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(String::from)
            .collect()
    };
    Case {
        seed: 0,
        rules: lines(rules),
        facts: lines(facts),
        txs: Vec::new(),
    }
}

fn oracle_db(rules: &str, facts: &str) -> (Vec<String>, u64, Vec<String>) {
    let vocab = Vocabulary::new();
    let program = parse_program(rules).unwrap();
    let db = FactStore::from_source(Arc::clone(&vocab), facts).unwrap();
    let compiled = CompiledProgram::compile(vocab, &program).unwrap();
    let run = oracle_evaluate(
        &compiled,
        &db,
        ResolutionScope::All,
        &mut Inertia,
        OracleVariant::Faithful,
    )
    .unwrap();
    (
        run.outcome.database.sorted_display(),
        run.outcome.stats.restarts,
        run.outcome.blocked_display(),
    )
}

// The oracle must reproduce the paper's worked examples on its own — its
// authority comes from matching PAPER.md, not from matching the engine.

#[test]
fn oracle_reproduces_paper_p1() {
    let (db, restarts, _) = oracle_db("p -> +q. p -> -a. q -> +a.", "p.");
    assert_eq!(db, vec!["p", "q"]);
    assert_eq!(restarts, 1);
}

#[test]
fn oracle_reproduces_paper_p2() {
    // s must NOT survive (its only reason, +a, was invalidated); r must.
    let (db, _, _) = oracle_db("p -> +q. p -> -a. q -> +a. !a -> +r. a -> +s.", "p.");
    assert_eq!(db, vec!["p", "q", "r"]);
}

#[test]
fn oracle_reproduces_paper_p3() {
    let (db, _, _) = oracle_db("p -> +q. p -> -q. q -> +a. q -> -a. p -> +a.", "p.");
    assert_eq!(db, vec!["a", "p"]);
}

#[test]
fn oracle_reproduces_section5_example() {
    let (db, restarts, blocked) = oracle_db(
        "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.",
        "p.",
    );
    assert_eq!(db, vec!["a", "b", "p"]);
    assert_eq!(restarts, 2);
    assert_eq!(blocked, vec!["(r2)", "(r5)"]);
}

#[test]
fn oracle_reproduces_section5_counterintuitive_inertia() {
    let (db, _, blocked) = oracle_db(
        "r1: a -> +b. r2: a -> +d. r3: b -> +c. r4: b -> -d. r5: c -> -b.",
        "a.",
    );
    assert_eq!(db, vec!["a"]);
    assert_eq!(blocked, vec!["(r1)", "(r2)"]);
}

#[test]
fn paper_examples_pass_the_full_matrix() {
    for (rules, facts) in [
        ("p -> +q. p -> -a. q -> +a.", "p."),
        ("p -> +q. p -> -a. q -> +a. !a -> +r. a -> +s.", "p."),
        ("p -> +q. p -> -q. q -> +a. q -> -a. p -> +a.", "p."),
        (
            "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.",
            "p.",
        ),
        (
            "r1: a -> +b. r2: a -> +d. r3: b -> +c. r4: b -> -d. r5: c -> -b.",
            "a.",
        ),
    ] {
        let stats = check_case(&case(rules, facts), OracleVariant::Faithful)
            .unwrap_or_else(|d| panic!("{rules}: {d}"));
        assert!(stats.ground);
        assert!(stats.had_conflicts, "{rules}");
    }
}

#[test]
fn fuzz_smoke_finds_no_divergences() {
    let report = run_fuzz(0, 60, OracleVariant::Faithful, |_, _| {})
        .unwrap_or_else(|f| panic!("{}\nminimized:\n{}", f.divergence, f.minimized.to_text()));
    assert_eq!(report.cases, 60);
    // The generator's conflict bias must actually pay off: a fuzz run
    // whose cases never restart would test almost nothing.
    assert!(report.ground_cases > 0);
    assert!(report.conflict_cases > 10, "{report:?}");
    // Likewise the sequence bias: update chains must be replayed, and the
    // incremental database's warm path must actually fire under them.
    assert!(report.sequence_cases > 10, "{report:?}");
    assert!(report.sequence_txs > report.sequence_cases, "{report:?}");
    assert!(report.warm_txs > 0, "{report:?}");
}

#[test]
fn update_sequences_replay_incremental_vs_cold() {
    // A certified reachability program through a chain with a base-fact
    // deletion in the middle: the harness compares the incremental
    // ActiveDatabase against the cold one and the oracle at every step.
    let mut c = case(
        "e(X, Y) -> +r(X, Y). r(X, Y), e(Y, Z) -> +r(X, Z).",
        "e(a, b). e(b, c).",
    );
    c.txs = vec![
        "+e(c, d).".into(),
        "+e(d, a).".into(),
        "-e(a, b).".into(),
        "+e(a, b).".into(),
    ];
    let stats = check_case(&c, OracleVariant::Faithful).unwrap_or_else(|d| panic!("{d}"));
    assert_eq!(stats.sequence_txs, 4);
    // Per policy: tx1 seeds cold, tx2 is warm, tx3 deletes a base fact and
    // stays warm on the partial-stratum path, tx4 is warm again — 3 warm
    // (1 partial) × 3 policies.
    assert_eq!(stats.warm_txs, 9);
    assert_eq!(stats.partial_txs, 3);
}

#[test]
fn derived_fact_deletions_bail_to_cold() {
    // Deleting a *derived* fact collides with the program's own
    // derivations: the warm state must bail and the cold conflict run is
    // the answer — still byte-identical across the differential pair.
    let mut c = case("p(X) -> +s(X).", "p(a). p(b).");
    c.txs = vec![
        "+p(c).".into(),
        "+p(d).".into(),
        "-s(a).".into(),
        "+p(e).".into(),
    ];
    let stats = check_case(&c, OracleVariant::Faithful).unwrap_or_else(|d| panic!("{d}"));
    assert_eq!(stats.sequence_txs, 4);
    // Per policy: tx1 seeds cold, tx2 is warm, tx3 bails to a cold
    // conflict run whose outcome (a block or a surviving deletion) keeps
    // the warm state from reseeding, so tx4 is cold too — 1 warm × 3
    // policies, none of them on the partial path.
    assert_eq!(stats.warm_txs, 3, "{stats:?}");
    assert_eq!(stats.partial_txs, 0);
    assert!(stats.counters.conflicts_resolved > 0, "{stats:?}");
}

#[test]
fn conflicting_sequences_pass_the_chain_comparison() {
    // An uncertified, conflict-heavy program: every transaction runs cold,
    // but the chained 4-config × oracle comparison still applies.
    let mut c = case("p -> +q. p -> -a. q -> +a.", "p.");
    c.txs = vec!["+a.".into(), "-p. +b.".into(), "+p.".into()];
    let stats = check_case(&c, OracleVariant::Faithful).unwrap_or_else(|d| panic!("{d}"));
    assert_eq!(stats.sequence_txs, 3);
    assert_eq!(stats.warm_txs, 0);
    assert!(stats.had_conflicts);
}

#[test]
fn injected_restart_bug_is_caught_and_minimized() {
    // Acceptance criterion: a semantics bug (here: continuing from the
    // inconsistent interpretation instead of restarting from D) must be
    // caught within 1000 generated cases. It is in practice caught within
    // the first handful — any case with a conflict exposes it.
    let failure = run_fuzz(0, 1000, OracleVariant::SkipRestartFromD, |_, _| {})
        .expect_err("the broken oracle variant must diverge from the engine");
    assert!(
        failure.divergence.seed < 1000,
        "caught too late: {}",
        failure.divergence
    );

    // The minimizer must hand back a still-failing, no-larger case.
    let still_fails = |c: &Case| check_case(c, OracleVariant::SkipRestartFromD).is_err();
    assert!(still_fails(&failure.minimized), "minimized case passes");
    assert!(
        failure.minimized.rules.len() <= failure.case.rules.len()
            && failure.minimized.facts.len() <= failure.case.facts.len()
    );

    // And minimization is idempotent: the case is already 1-minimal.
    let again = minimize(&failure.minimized, still_fails);
    assert_eq!(again, failure.minimized);
}

#[test]
fn workload_generators_pass_the_matrix() {
    // The benchmark workloads feed the same harness: staggered chains are
    // the repo's canonical restart-heavy shape.
    let (program, facts) = park_workloads::staggered_conflicts(3);
    let stats = check_case(&case(&program, &facts), OracleVariant::Faithful)
        .unwrap_or_else(|d| panic!("{d}"));
    assert!(stats.ground);
    assert!(stats.had_conflicts);
}

#[test]
fn insert_only_cases_cross_check_against_stratified_datalog() {
    let stats = check_case(
        &case("p(X) -> +q(X). q(X), !r(X) -> +s(X).", "p(a). p(b). r(b)."),
        OracleVariant::Faithful,
    )
    .unwrap_or_else(|d| panic!("{d}"));
    assert!(stats.stratified_checked);
    assert!(!stats.had_conflicts);
}
