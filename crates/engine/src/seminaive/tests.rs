//! Semi-naive evaluation as warm transactions drive it
//! ([`crate::incremental::WarmState`]): the program lowered once against
//! the starting database, a naive Γ seed step, then delta steps through
//! [`fire_new_lowered`] over zones that carry every warm index.

use crate::bytecode::tests::{lockstep, lockstep_cases, setup, warm_indexes, Seeding};
use crate::bytecode::{fire_new_lowered, fire_new_lowered_metered, ZoneLens};
use crate::compile::RuleId;
use crate::gamma::fire_all;
use crate::grounding::{BlockedSet, Grounding};
use crate::interp::IInterpretation;
use crate::lower::{lower, LoweredProgram};
use park_storage::Value;

lockstep_cases!(Seeding::Gamma);

/// Lower `rules` against `facts`, build the warm indexes and apply one
/// naive Γ step: the lowered program, the interpretation after the step,
/// and the zone lenses before and after it.
fn after_seed_step(
    rules: &str,
    facts: &str,
) -> (LoweredProgram, IInterpretation, ZoneLens, ZoneLens) {
    let (program, db) = setup(rules, facts);
    let lowered = lower(&program, &db);
    let mut interp = IInterpretation::from_database(db);
    warm_indexes(&program, &lowered, &mut interp);
    let before = ZoneLens::capture(&interp);
    for f in fire_all(&program, &BlockedSet::new(), &interp) {
        interp.insert_marked(f.sign, f.pred, &f.tuple);
    }
    let after = ZoneLens::capture(&interp);
    (lowered, interp, before, after)
}

#[test]
fn empty_body_rules_do_not_refire() {
    // The seed step fired `-> +q(b)`; no later delta may fire it again.
    let (lowered, interp, before, after) = after_seed_step("-> +q(b).", "");
    for prev in [&before, &after] {
        let fired = fire_new_lowered(&lowered, &BlockedSet::new(), &interp, prev, &after);
        assert!(fired.is_empty(), "{fired:?}");
    }
}

#[test]
fn blocked_groundings_are_skipped() {
    let (lowered, interp, before, after) =
        after_seed_step("p(X) -> +q(X). q(X) -> +r(X).", "p(a).");
    let v = interp.vocab();
    let mut blocked = BlockedSet::new();
    blocked.insert(Grounding {
        rule: RuleId(1),
        subst: Box::from([v.encode(Value::Sym(v.sym("a")))]),
    });
    let fired = fire_new_lowered(&lowered, &blocked, &interp, &before, &after);
    assert!(fired.is_empty(), "{fired:?}");
}

#[test]
fn task_count_is_thread_independent() {
    let (lowered, interp, before, after) = after_seed_step(
        "edge(X, Y) -> +tc(X, Y). tc(X, Y), edge(Y, Z) -> +tc(X, Z).",
        "edge(a, b). edge(b, c).",
    );
    let blocked = BlockedSet::new();
    let run = |threads| {
        fire_new_lowered_metered(
            &lowered,
            &blocked,
            &interp,
            &before,
            &after,
            Some(threads),
            threads,
            None,
        )
    };
    let (seq, seq_tasks) = run(1);
    for threads in [2, 4] {
        let (par, par_tasks) = run(threads);
        assert_eq!(par, seq, "threads={threads}");
        assert_eq!(par_tasks, seq_tasks, "threads={threads}");
    }
}
