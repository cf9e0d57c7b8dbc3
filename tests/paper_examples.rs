//! Conformance tests: every worked example in the paper, end to end.
//!
//! Each test is indexed (E1–E8) in DESIGN.md and EXPERIMENTS.md and asserts
//! the exact result state the paper prints — and, where the paper shows
//! them, the intermediate interpretations, conflicts, and blocked sets.

use park::engine::{
    Conflict, ConflictResolver, Engine, Inertia, ParkOutcome, Resolution, SelectContext, Trace,
    TraceEvent,
};
use park::policies::RulePriority;
use park::prelude::*;

fn engine(rules: &str, vocab: &std::sync::Arc<Vocabulary>) -> Engine {
    Engine::new(std::sync::Arc::clone(vocab), &parse_program(rules).unwrap()).unwrap()
}

/// Run under inertia with a [`Trace`] sink.
fn traced(eng: &Engine, db: &FactStore) -> (ParkOutcome, Trace) {
    let mut trace = Trace::new();
    let out = eng.park_with_metrics(db, &mut Inertia, &mut trace).unwrap();
    (out, trace)
}

fn db(vocab: &std::sync::Arc<Vocabulary>, facts: &str) -> FactStore {
    FactStore::from_source(std::sync::Arc::clone(vocab), facts).unwrap()
}

/// E1 — Section 4.1, program P1 on D = {p}, principle of inertia.
///
/// Paper: the conflicting pair +a/-a is eliminated; result {p, q}.
#[test]
fn e1_p1_inertia() {
    let vocab = Vocabulary::new();
    let eng = engine("r1: p -> +q. r2: p -> -a. r3: q -> +a.", &vocab);
    let out = eng.park(&db(&vocab, "p."), &mut Inertia).unwrap();
    assert_eq!(out.database.to_string(), "{p, q}");
    // The final i-interpretation is ⟨{r3}, {p, +q, -a}⟩: the inserting
    // instance was blocked, the deleting one stands.
    assert_eq!(out.interpretation.display(), "{-a, p, +q}");
    assert_eq!(out.blocked_display(), vec!["(r3)"]);
}

/// E2 — Section 4.1, program P2 on D = {p}, principle of inertia.
///
/// Paper: "The desired result database state is thus {p, q, r}" — `s` must
/// not survive (its only reason was the invalidated +a), `r` must.
#[test]
fn e2_p2_obsolete_consequences() {
    let vocab = Vocabulary::new();
    let eng = engine(
        "r1: p -> +q. r2: p -> -a. r3: q -> +a. r4: !a -> +r. r5: a -> +s.",
        &vocab,
    );
    let out = eng.park(&db(&vocab, "p."), &mut Inertia).unwrap();
    assert_eq!(out.database.to_string(), "{p, q, r}");
}

/// E3 — Section 4.1, program P3 on D = {p}: the false-conflict example.
///
/// Paper: "The correct result is therefore {p, +a}, or, after
/// incorporating the updates, {p, a}."
#[test]
fn e3_p3_false_conflict() {
    let vocab = Vocabulary::new();
    let eng = engine(
        "r1: p -> +q. r2: p -> -q. r3: q -> +a. r4: q -> -a. r5: p -> +a.",
        &vocab,
    );
    let out = eng.park(&db(&vocab, "p."), &mut Inertia).unwrap();
    assert_eq!(out.database.to_string(), "{a, p}");
    // The paper's correct fixpoint is {p, +a} plus the standing -q mark.
    assert_eq!(out.interpretation.display(), "{+a, p, -q}");
}

/// E4 — the Section 4.2 worked fixpoint: the irreflexive graph on
/// D = {p(a), p(b), p(c)} with the paper's custom SELECT.
///
/// Paper: PARK(P, D) = {p(a), p(b), p(c), q(a,b), q(b,a), q(b,c), q(c,b)},
/// with B = 5 instances of r1 and 12 instances of r3 blocked.
#[test]
fn e4_irreflexive_graph() {
    struct PaperSelect;
    impl ConflictResolver for PaperSelect {
        fn name(&self) -> &str {
            "paper-4.2"
        }
        fn select(&mut self, ctx: &SelectContext<'_>, c: &Conflict) -> Result<Resolution, String> {
            let v = ctx.program.vocab();
            let x = v.constant(c.tuple.get(0)).to_string();
            let y = v.constant(c.tuple.get(1)).to_string();
            // "We decide to block all instances of rule r1 with x = y and
            // those connecting a and c. In all other cases, the instances
            // of r3 are blocked."
            if x == y || (x == "a" && y == "c") || (x == "c" && y == "a") {
                Ok(Resolution::Delete)
            } else {
                Ok(Resolution::Insert)
            }
        }
    }

    let vocab = Vocabulary::new();
    let eng = engine(
        "r1: p(X), p(Y) -> +q(X, Y).
         r2: q(X, X) -> -q(X, X).
         r3: q(X, Y), q(X, Z), q(Z, Y) -> -q(X, Y).",
        &vocab,
    );
    let out = eng
        .park(&db(&vocab, "p(a). p(b). p(c)."), &mut PaperSelect)
        .unwrap();
    assert_eq!(
        out.database.sorted_display(),
        vec!["p(a)", "p(b)", "p(c)", "q(a, b)", "q(b, a)", "q(b, c)", "q(c, b)"]
    );
    // One conflict-resolution restart, exactly as the paper's computation.
    assert_eq!(out.stats.restarts, 1);
    // All nine candidate arcs were in conflict at I1.
    assert_eq!(out.stats.conflicts_resolved, 9);
    // The paper's blocked set: r1 for the 3 diagonal + 2 a–c arcs, and r3's
    // three z-instances for each of the 4 surviving arcs.
    let blocked = out.blocked_display();
    assert_eq!(blocked.len(), 5 + 12, "{blocked:#?}");
    assert_eq!(blocked.iter().filter(|b| b.starts_with("(r1")).count(), 5);
    assert_eq!(blocked.iter().filter(|b| b.starts_with("(r3")).count(), 12);
    assert!(
        blocked.contains(&"(r1, [X <- a, Y <- a])".to_string()),
        "{blocked:#?}"
    );
    assert!(
        blocked.contains(&"(r3, [X <- a, Y <- b, Z <- c])".to_string()),
        "{blocked:#?}"
    );
}

/// E5 — Section 4.3, first ECA example (no conflicts).
///
/// Paper: PARK(D, P, U) = {p(a), q(a), q(b), r(a), r(b)}.
#[test]
fn e5_eca_no_conflict() {
    let vocab = Vocabulary::new();
    let eng = engine(
        "r1: p(X) -> +q(X). r2: q(X) -> +r(X). r3: +r(X) -> -s(X).",
        &vocab,
    );
    let d = db(&vocab, "p(a). s(a). s(b).");
    let u = UpdateSet::from_source(&vocab, "+q(b).").unwrap();
    let out = eng.run(&d, &u, &mut Inertia).unwrap();
    assert_eq!(
        out.database.sorted_display(),
        vec!["p(a)", "q(a)", "q(b)", "r(a)", "r(b)"]
    );
    assert_eq!(out.stats.restarts, 0);
    // The paper's fixpoint I3 (with the ECA-extended program P_U):
    assert_eq!(
        out.interpretation.display(),
        "{p(a), +q(a), +q(b), +r(a), +r(b), s(a), -s(a), s(b), -s(b)}"
    );
}

/// E6 — Section 4.3, second ECA example (conflict under inertia).
///
/// Paper: restart blocks the r1 instance (inertia keeps p(a,a) ∈ D); the
/// printed final answer {p(a,a), p(a,b), p(a,c), r(a,a)} omits q(a,a) —
/// an erratum: the paper's own fixpoint listing I5 contains q(a,a), and
/// `incorp` cannot drop it (see EXPERIMENTS.md).
#[test]
fn e6_eca_with_conflict() {
    let vocab = Vocabulary::new();
    let eng = engine(
        "r1: q(X, a) -> -p(X, a). r2: q(a, X) -> +r(a, X). r3: +r(X, Y) -> +p(X, Y).",
        &vocab,
    );
    let d = db(&vocab, "p(a, a). p(a, b). p(a, c).");
    let u = UpdateSet::from_source(&vocab, "+q(a, a).").unwrap();
    let out = eng.run(&d, &u, &mut Inertia).unwrap();
    assert_eq!(
        out.database.sorted_display(),
        vec!["p(a, a)", "p(a, b)", "p(a, c)", "q(a, a)", "r(a, a)"]
    );
    assert_eq!(out.stats.restarts, 1);
    let blocked = out.blocked_display();
    assert_eq!(blocked, vec!["(r1, [X <- a])"]);
}

/// E7a — Section 5, the five-rule program under the principle of inertia.
///
/// Paper: fixpoint ⟨{r2, r5}, {p, +a, -q, +b}⟩; result {p, a, b}.
#[test]
fn e7a_section5_inertia() {
    let vocab = Vocabulary::new();
    let eng = engine(
        "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.",
        &vocab,
    );
    let (out, trace) = traced(&eng, &db(&vocab, "p."));
    assert_eq!(out.database.to_string(), "{a, b, p}");
    assert_eq!(out.blocked_display(), vec!["(r2)", "(r5)"]);
    assert_eq!(out.interpretation.display(), "{+a, +b, p, -q}");
    assert_eq!(out.stats.restarts, 2);
    // The trace reproduces the paper's two inconsistencies on q.
    let rendered = trace.render();
    assert_eq!(rendered.matches("inconsistent: q").count(), 2, "{rendered}");
}

/// E7b — the same program under rule priorities (ri has priority i).
///
/// Paper: blocked {r2} then {r4}; final database {p, a, b, q}.
#[test]
fn e7b_section5_priority() {
    let vocab = Vocabulary::new();
    let eng = engine(
        "@priority(1) r1: p -> +a.
         @priority(2) r2: p -> +q.
         @priority(3) r3: a -> +b.
         @priority(4) r4: a -> -q.
         @priority(5) r5: b -> +q.",
        &vocab,
    );
    let out = eng
        .park(&db(&vocab, "p."), &mut RulePriority::new())
        .unwrap();
    assert_eq!(out.database.to_string(), "{a, b, p, q}");
    assert_eq!(out.blocked_display(), vec!["(r2)", "(r4)"]);
    assert_eq!(out.stats.restarts, 2);
}

/// E8 — Section 5, the counterintuitive-inertia example on D = {a}.
///
/// Paper: "The final result is {a} and differs from the expected — more
/// intuitive — {a, +d}", with r2 (a -> +d) then r1 (a -> +b) blocked.
#[test]
fn e8_counterintuitive_inertia() {
    let vocab = Vocabulary::new();
    let eng = engine(
        "r1: a -> +b. r2: a -> +d. r3: b -> +c. r4: b -> -d. r5: c -> -b.",
        &vocab,
    );
    let out = eng.park(&db(&vocab, "a."), &mut Inertia).unwrap();
    assert_eq!(out.database.to_string(), "{a}");
    assert_eq!(out.blocked_display(), vec!["(r1)", "(r2)"]);
    assert_eq!(out.stats.restarts, 2);
}

/// E7a again, at the step level: the sequence of consistent interpretations
/// matches the paper's listing (1)–(7) across the three runs.
#[test]
fn e7a_step_listing_matches_paper() {
    let vocab = Vocabulary::new();
    let eng = engine(
        "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.",
        &vocab,
    );
    let (_, trace) = traced(&eng, &db(&vocab, "p."));
    let steps: Vec<(u64, u64, String)> = trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Step {
                run, step, interp, ..
            } => Some((*run, *step, interp.clone())),
            _ => None,
        })
        .collect();
    // Paper listing (our display sorts by atom):
    //  run 1: (1) {p, +a, +q}            — paper's (1)
    //  run 2: (3) {p, +a} (4) {p, +a, +b, -q}   — paper's (3), (4)
    //  run 3: (6) {p, +a} (7) {p, +a, -q, +b}   — paper's (6), (7)
    assert_eq!(
        steps,
        vec![
            (1, 1, "{+a, p, +q}".to_string()),
            (2, 1, "{+a, p}".to_string()),
            (2, 2, "{+a, +b, p, -q}".to_string()),
            (3, 1, "{+a, p}".to_string()),
            (3, 2, "{+a, +b, p, -q}".to_string()),
        ]
    );
    // The paper's inconsistent states (2) and (5) appear as detections.
    let inconsistencies: Vec<u64> = trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Inconsistent { run, .. } => Some(*run),
            _ => None,
        })
        .collect();
    assert_eq!(inconsistencies, vec![1, 2]);
}

/// E2's first run reproduces the paper's intermediate listing for P2:
/// `{p, +q, -a, +r}` after step 1 (r, whose reason `¬a` is valid, appears
/// immediately alongside q's insertion and a's deletion).
#[test]
fn e2_first_run_steps() {
    let vocab = Vocabulary::new();
    let eng = engine(
        "r1: p -> +q. r2: p -> -a. r3: q -> +a. r4: !a -> +r. r5: a -> +s.",
        &vocab,
    );
    let (out, trace) = traced(&eng, &db(&vocab, "p."));
    let first_step = trace.events().iter().find_map(|e| match e {
        TraceEvent::Step {
            run: 1,
            step: 1,
            interp,
            ..
        } => Some(interp.clone()),
        _ => None,
    });
    assert_eq!(first_step.as_deref(), Some("{-a, p, +q, +r}"));
    // Final fixpoint: {p, +q, -a, +r} — s never appears.
    assert_eq!(out.interpretation.display(), "{-a, p, +q, +r}");
}

/// A deliberately erratic SELECT (alternating answers for the same atom)
/// still yields a terminating, consistent run — the engine's guarantees do
/// not depend on the policy being sensible.
#[test]
fn erratic_policy_failure_injection() {
    struct Erratic(u32);
    impl ConflictResolver for Erratic {
        fn name(&self) -> &str {
            "erratic"
        }
        fn select(&mut self, _: &SelectContext<'_>, _: &Conflict) -> Result<Resolution, String> {
            self.0 += 1;
            Ok(if self.0 % 2 == 1 {
                Resolution::Insert
            } else {
                Resolution::Delete
            })
        }
    }
    let vocab = Vocabulary::new();
    let eng = engine(
        "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.
         r6: q -> +z. r7: b -> -z.",
        &vocab,
    );
    let out = eng.park(&db(&vocab, "p."), &mut Erratic(0)).unwrap();
    assert!(out.interpretation.is_consistent());
    // Determinism given the same (stateful) policy sequence.
    let out2 = eng.park(&db(&vocab, "p."), &mut Erratic(0)).unwrap();
    assert!(out.database.same_facts(&out2.database));
}

/// The Section 2 motivating rule as a smoke test of the textual syntax the
/// paper uses (`emp(X), ¬active(X), payroll(X, S) → -payroll(X, S)`).
#[test]
fn section2_motivating_rule() {
    let vocab = Vocabulary::new();
    let eng = engine(
        "emp(X), !active(X), payroll(X, Salary) -> -payroll(X, Salary).",
        &vocab,
    );
    let d = db(
        &vocab,
        "emp(ann). emp(bob). active(ann). payroll(ann, 50000). payroll(bob, 40000).",
    );
    let out = eng.park(&d, &mut Inertia).unwrap();
    assert_eq!(
        out.database.sorted_display(),
        vec!["active(ann)", "emp(ann)", "emp(bob)", "payroll(ann, 50000)"]
    );
}

/// The conflicts(P, I) example from Section 4.2:
/// P = {p(x) -> +q(x), p(x) -> -q(x)}, I = {p(a)}.
#[test]
fn section42_conflicts_example() {
    use park::engine::{collect_conflicts, fire_all, BlockedSet, IInterpretation, StepLog};
    let vocab = Vocabulary::new();
    let program = park::engine::CompiledProgram::compile(
        std::sync::Arc::clone(&vocab),
        &parse_program("r1: p(X) -> +q(X). r2: p(X) -> -q(X).").unwrap(),
    )
    .unwrap();
    let interp = IInterpretation::from_database(db(&vocab, "p(a)."));
    let fired = fire_all(&program, &BlockedSet::new(), &interp);
    // The first step of a run: no marks, nothing fired before.
    let conflicts = collect_conflicts(&vocab, &fired, &interp, &StepLog::new());
    assert_eq!(conflicts.len(), 1);
    assert_eq!(
        conflicts[0].display(&program),
        "(q(a), {(r1, [X <- a])}, {(r2, [X <- a])})"
    );
}
