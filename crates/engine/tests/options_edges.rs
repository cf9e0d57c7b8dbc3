//! Edge cases of `EngineOptions` and degenerate inputs: thread counts far
//! beyond the available work, empty programs, empty databases, and
//! self-undoing rules.

use park_engine::{Engine, EngineOptions, Inertia, ParkOutcome, ResolutionScope, TraceEvent};
use park_storage::{FactStore, Vocabulary};
use park_syntax::parse_program;
use std::sync::Arc;

fn run(rules: &str, facts: &str, options: EngineOptions) -> ParkOutcome {
    let vocab = Vocabulary::new();
    let engine =
        Engine::with_options(Arc::clone(&vocab), &parse_program(rules).unwrap(), options).unwrap();
    let db = FactStore::from_source(vocab, facts).unwrap();
    engine.park(&db, &mut Inertia).unwrap()
}

#[test]
fn more_threads_than_tasks_is_unobservable() {
    // One rule, one fact: at most one evaluation task per step, so a
    // 32-thread pool is pure overhead — and must change nothing observable.
    for rules in ["p -> +q.", "p -> +q. p -> -a. q -> +a."] {
        let opts = EngineOptions::traced();
        let seq = run(rules, "p.", opts);
        let wide = run(rules, "p.", opts.with_parallelism(Some(32)));
        assert_eq!(seq.fingerprint(), wide.fingerprint(), "{rules}");
    }
}

#[test]
fn empty_program_returns_database_in_one_step() {
    // Γ_{∅,B}(I) = I immediately: one (no-op) step, no restarts, and a
    // trace of exactly RunStarted + Fixpoint.
    let out = run("", "p(a). q(b).", EngineOptions::traced());
    assert_eq!(out.database.sorted_display(), vec!["p(a)", "q(b)"]);
    assert_eq!(out.stats.gamma_steps, 1);
    assert_eq!(out.stats.restarts, 0);
    assert_eq!(out.trace.len(), 2);
    assert!(matches!(
        out.trace.events()[0],
        TraceEvent::RunStarted { run: 1 }
    ));
    assert!(matches!(
        out.trace.events()[1],
        TraceEvent::Fixpoint { run: 1, .. }
    ));
}

#[test]
fn empty_database_fires_only_unconditional_rules() {
    // Positive bodies cannot hold in an empty database; only the
    // body-less update rule fires.
    let out = run("p -> +q. -> +r.", "", EngineOptions::traced());
    assert_eq!(out.database.sorted_display(), vec!["r"]);
    assert_eq!(out.stats.restarts, 0);

    // Fully empty instance: nothing to do at all.
    let out = run("p -> +q.", "", EngineOptions::default());
    assert!(out.database.sorted_display().is_empty());
    assert_eq!(out.stats.gamma_steps, 1);
}

#[test]
fn self_undoing_rule_deletes_without_conflict() {
    // `a -> -a.` on D = {a}: -a is derived, nothing inserts a, so there is
    // no two-sided conflict — incorp simply removes a. The body stays
    // valid after the mark (validity of `a` looks at I° ∪ I⁺), so the run
    // converges rather than oscillating.
    for scope in [ResolutionScope::All, ResolutionScope::One] {
        let out = run("a -> -a.", "a.", EngineOptions::traced().with_scope(scope));
        assert!(out.database.sorted_display().is_empty(), "{scope:?}");
        assert_eq!(out.stats.restarts, 0);
        assert_eq!(out.stats.conflicts_resolved, 0);
        assert!(out.blocked_display().is_empty());
    }
}
