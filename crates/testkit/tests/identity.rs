//! The engine's identity suite, on the shared comparison helpers: restarts
//! that replay the previous run's firing log must be observably identical
//! to the paper-literal oracle, which
//! restarts cold from `D` — same trace event stream, same `SELECT` call
//! order, same database, blocked set, and semantic counters. Only the
//! scheduling/replay counters may differ.
//!
//! These lived in `park-engine`'s unit tests before `park-testkit`
//! existed; they moved here to sit on the same `fingerprint`/transcript
//! surface the differential harness uses.

use park_engine::{Engine, EngineOptions, ParkOutcome, ResolutionScope};
use park_storage::{FactStore, Vocabulary};
use park_syntax::parse_program;
use park_testkit::{check_case, Case, OracleVariant};
use std::sync::Arc;

const SCENARIOS: [(&str, &str); 6] = [
    // Paper P1: one conflict, one restart.
    ("p -> +q. p -> -a. q -> +a.", "p."),
    // Paper P3: conflict cascade with a surviving side derivation.
    ("p -> +q. p -> -q. q -> +a. q -> -a. p -> +a.", "p."),
    // Section 5: two restarts, staggered discovery.
    (
        "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.",
        "p.",
    ),
    // Section 5 second example: counterintuitive inertia.
    (
        "r1: a -> +b. r2: a -> +d. r3: b -> +c. r4: b -> -d. r5: c -> -b.",
        "a.",
    ),
    // Negation whose truth flips between runs.
    ("r1: !q -> +a. r2: p -> +q. r3: q -> -a.", "p."),
    // A variable program with join-order-sensitive evaluation.
    (
        "r1: p(X), p(Y) -> +q(X, Y). r2: q(X, X) -> -q(X, X).
         r3: q(X, Y), q(X, Z), q(Z, Y) -> -q(X, Y).",
        "p(a). p(b). p(c).",
    ),
];

fn run_with(rules: &str, facts: &str, options: EngineOptions) -> ParkOutcome {
    let vocab = Vocabulary::new();
    let engine =
        Engine::with_options(Arc::clone(&vocab), &parse_program(rules).unwrap(), options).unwrap();
    let db = FactStore::from_source(vocab, facts).unwrap();
    engine.park(&db, &mut park_engine::Inertia).unwrap()
}

#[test]
fn replaying_restarts_match_the_oracle() {
    // Every engine restart replays the previous run's firing log; the
    // paper-literal oracle restarts cold from D. The harness holds every
    // matrix cell to the oracle under every policy (debug builds also
    // check each replayed step against live evaluation inside the engine).
    for (rules, facts) in SCENARIOS {
        let case = Case {
            seed: 0,
            rules: vec![rules.to_string()],
            facts: vec![facts.to_string()],
            txs: Vec::new(),
        };
        check_case(&case, OracleVariant::Faithful).unwrap_or_else(|d| panic!("{rules}: {d}"));
    }
    // Replay telemetry, per run.
    for scope in [ResolutionScope::All, ResolutionScope::One] {
        for (rules, facts) in SCENARIOS {
            let options = EngineOptions::default().with_scope(scope);
            let warm = run_with(rules, facts, options);
            if warm.stats.restarts > 0 {
                assert!(
                    warm.stats.replayed_steps > 0,
                    "a restart must replay at least the first logged step: {rules}"
                );
                assert!(
                    warm.stats.replay_divergence_step.is_some(),
                    "every resolution blocks a logged grounding, so replay \
                     must diverge somewhere: {rules}"
                );
            }
        }
    }
}
