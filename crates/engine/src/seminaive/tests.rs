//! Semi-naive evaluation seeded by naive Γ: the program lowered once
//! against the starting database, a naive Γ seed step, then delta steps
//! through [`fire_new_lowered`] over zones indexed for both planners.
//! Delta steps must not depend on how the marks they extend were
//! computed, nor on which extra indexes the zones carry.

use crate::bytecode::tests::{index_both_planners, lockstep, lockstep_cases, setup, Seeding};
use crate::bytecode::{fire_new_lowered, ZoneLens};
use crate::compile::RuleId;
use crate::gamma::fire_all;
use crate::grounding::{BlockedSet, Grounding};
use crate::interp::IInterpretation;
use crate::lower::{lower, LoweredProgram};
use park_storage::Value;

lockstep_cases!(Seeding::Gamma);

/// Lower `rules` against `facts`, index both planners' requests and apply one
/// naive Γ step: the lowered program, the interpretation after the step,
/// and the zone lenses before and after it.
fn after_seed_step(
    rules: &str,
    facts: &str,
) -> (LoweredProgram, IInterpretation, ZoneLens, ZoneLens) {
    let (program, db) = setup(rules, facts);
    let lowered = lower(&program, &db);
    let mut interp = IInterpretation::from_database(db);
    index_both_planners(&program, &lowered, &mut interp);
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
        let (fired, _) = fire_new_lowered(&lowered, &BlockedSet::new(), &interp, prev, &after);
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
    let (fired, _) = fire_new_lowered(&lowered, &blocked, &interp, &before, &after);
    assert!(fired.is_empty(), "{fired:?}");
}
