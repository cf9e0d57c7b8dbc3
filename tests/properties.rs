//! Property-based tests of the PARK semantics' guarantees.
//!
//! These turn the paper's meta-theorems into executable properties over
//! randomly generated propositional programs and databases:
//!
//! * **Unambiguity** — evaluation is deterministic.
//! * **Termination / polynomial tractability** — every run ends, within
//!   the analytic bound on restarts, under *any* policy.
//! * **Consistency** — the final i-interpretation never holds `+a` and
//!   `-a` together.
//! * **Theorem 4.1(3)** — the final interpretation is the least fixpoint
//!   of `Γ_{P,B*}` (re-running the inflationary closure under the final
//!   blocked set from `D` reproduces it exactly).
//! * **Inflationary agreement** — with insert-only heads (conflicts are
//!   impossible) PARK coincides with the plain inflationary fixpoint
//!   semantics (the naive baseline).
//! * **Syntax roundtrip** — printing and reparsing rules is the identity.

use park::baselines::naive_mark_eliminate;
use park::engine::{
    fire_all, BlockedSet, Engine, EngineOptions, IInterpretation, Inertia, ParkOutcome,
    ResolutionScope,
};
use park::policies::{AntiInertia, PreferDelete, PreferInsert, RandomPolicy};
use park::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

const PREDS: [&str; 6] = ["p0", "p1", "p2", "p3", "p4", "p5"];

/// A random propositional rule over the fixed predicate pool.
fn arb_rule(insert_only: bool) -> impl Strategy<Value = String> {
    let lit = (0usize..PREDS.len(), prop::bool::ANY)
        .prop_map(|(i, neg)| format!("{}{}", if neg { "!" } else { "" }, PREDS[i]));
    let body = prop::collection::vec(lit, 0..3);
    let head = (0usize..PREDS.len(), prop::bool::ANY).prop_map(move |(i, del)| {
        let sign = if del && !insert_only { "-" } else { "+" };
        format!("{sign}{}", PREDS[i])
    });
    (body, head).prop_map(|(body, head)| {
        if body.is_empty() {
            format!("-> {head}.")
        } else {
            format!("{} -> {head}.", body.join(", "))
        }
    })
}

fn arb_program(max_rules: usize, insert_only: bool) -> impl Strategy<Value = String> {
    prop::collection::vec(arb_rule(insert_only), 1..=max_rules).prop_map(|rules| rules.join("\n"))
}

fn arb_database() -> impl Strategy<Value = String> {
    proptest::sample::subsequence(PREDS.to_vec(), 0..=PREDS.len()).prop_map(|ps| {
        ps.iter()
            .map(|p| format!("{p}."))
            .collect::<Vec<_>>()
            .join(" ")
    })
}

fn run_park(
    rules: &str,
    facts: &str,
    options: EngineOptions,
    policy: &mut dyn park::engine::ConflictResolver,
) -> park::engine::ParkOutcome {
    run_park_into(
        rules,
        facts,
        options,
        policy,
        &mut park::engine::NoopMetrics,
    )
}

fn run_park_into(
    rules: &str,
    facts: &str,
    options: EngineOptions,
    policy: &mut dyn park::engine::ConflictResolver,
    sink: &mut dyn park::engine::MetricsSink,
) -> park::engine::ParkOutcome {
    let vocab = Vocabulary::new();
    let engine =
        Engine::with_options(Arc::clone(&vocab), &parse_program(rules).unwrap(), options).unwrap();
    let db = FactStore::from_source(vocab, facts).unwrap();
    engine.park_with_metrics(&db, policy, sink).unwrap()
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Unambiguity: same inputs, same policy ⇒ same result state, same
    /// statistics.
    #[test]
    fn park_is_deterministic(rules in arb_program(8, false), facts in arb_database()) {
        let a = run_park(&rules, &facts, EngineOptions::default(), &mut Inertia);
        let b = run_park(&rules, &facts, EngineOptions::default(), &mut Inertia);
        prop_assert!(a.database.same_facts(&b.database));
        prop_assert_eq!(a.stats.restarts, b.stats.restarts);
        prop_assert_eq!(a.stats.gamma_steps, b.stats.gamma_steps);
        prop_assert_eq!(a.blocked.len(), b.blocked.len());
    }

    /// Termination under arbitrary policies, with restarts within the
    /// analytic bound (one per blocked grounding; groundings here are one
    /// per rule since the programs are propositional).
    #[test]
    fn park_terminates_under_any_policy(
        rules in arb_program(8, false),
        facts in arb_database(),
        seed in any::<u64>(),
    ) {
        let n_rules = parse_program(&rules).unwrap().len() as u64;
        for policy in [
            &mut Inertia as &mut dyn park::engine::ConflictResolver,
            &mut AntiInertia,
            &mut PreferInsert,
            &mut PreferDelete,
            &mut RandomPolicy::seeded(seed),
        ] {
            let out = run_park(&rules, &facts, EngineOptions::default(), policy);
            prop_assert!(out.stats.restarts <= n_rules,
                "restarts {} exceed rule count {}", out.stats.restarts, n_rules);
        }
    }

    /// The final i-interpretation is consistent, and `incorp` of it is the
    /// reported database.
    #[test]
    fn final_interpretation_consistent(
        rules in arb_program(8, false),
        facts in arb_database(),
    ) {
        let out = run_park(&rules, &facts, EngineOptions::default(), &mut Inertia);
        prop_assert!(out.interpretation.is_consistent());
        prop_assert!(out.interpretation.incorp().same_facts(&out.database));
    }

    /// Theorem 4.1(3): `int(ω) = lfp(Γ_{P,B*})` — recomputing the
    /// inflationary closure from D under the final blocked set reproduces
    /// the final interpretation exactly.
    #[test]
    fn final_interp_is_lfp_of_gamma_under_final_blocked(
        rules in arb_program(8, false),
        facts in arb_database(),
    ) {
        let vocab = Vocabulary::new();
        let program = parse_program(&rules).unwrap();
        let engine = Engine::new(Arc::clone(&vocab), &program).unwrap();
        let db = FactStore::from_source(Arc::clone(&vocab), facts.as_str()).unwrap();
        let out = engine.park(&db, &mut Inertia).unwrap();
        let lfp = cold_run(&out.program, &out.blocked, &db);
        prop_assert_eq!(lfp.last(), Some(&out.interpretation.display()));
    }

    /// With insert-only heads conflicts are impossible: PARK never
    /// restarts and agrees with the plain inflationary fixpoint semantics
    /// (computed by the naive baseline, whose elimination step is vacuous).
    #[test]
    fn insert_only_agrees_with_inflationary_fixpoint(
        rules in arb_program(8, true),
        facts in arb_database(),
    ) {
        let vocab = Vocabulary::new();
        let program = parse_program(&rules).unwrap();
        let engine = Engine::new(Arc::clone(&vocab), &program).unwrap();
        let db = FactStore::from_source(Arc::clone(&vocab), facts.as_str()).unwrap();
        let park_out = engine.park(&db, &mut Inertia).unwrap();
        prop_assert_eq!(park_out.stats.restarts, 0);

        let compiled = park::engine::CompiledProgram::compile(Arc::clone(&vocab), &program).unwrap();
        let naive = naive_mark_eliminate(&compiled, &db, &UpdateSet::empty(), 1 << 20).unwrap();
        prop_assert!(naive.eliminated.is_empty());
        prop_assert!(naive.database.same_facts(&park_out.database));
    }

    /// The result never mentions predicates absent from program and
    /// database (no invention), and D's atoms only change via rule action.
    #[test]
    fn result_is_grounded_in_inputs(
        rules in arb_program(6, false),
        facts in arb_database(),
    ) {
        let out = run_park(&rules, &facts, EngineOptions::default(), &mut Inertia);
        for f in out.database.sorted_display() {
            prop_assert!(PREDS.contains(&f.as_str()), "unexpected fact {f}");
        }
    }

    /// Resolution scope does not affect termination or consistency (it may
    /// legitimately change the chosen result when several conflicts
    /// interact, but both scopes must satisfy every invariant).
    #[test]
    fn one_at_a_time_scope_invariants(
        rules in arb_program(8, false),
        facts in arb_database(),
    ) {
        let opts = EngineOptions::default().with_scope(ResolutionScope::One);
        let out = run_park(&rules, &facts, opts, &mut Inertia);
        prop_assert!(out.interpretation.is_consistent());
        // Lazy blocking can only block fewer-or-equal instances than the
        // paper default on the same inputs.
        let all = run_park(&rules, &facts, EngineOptions::default(), &mut Inertia);
        prop_assert!(out.stats.blocked_instances <= all.stats.blocked_instances);
    }

    /// The engine's semi-naive (compiled delta) evaluation reaches the
    /// fixpoint naive Γ reaches from `D` under the same final blocked set
    /// (Theorem 4.1(3)) — on arbitrary programs, conflicts and all.
    #[test]
    fn seminaive_agrees_with_naive(
        rules in arb_program(8, false),
        facts in arb_database(),
    ) {
        let seq = run_park(&rules, &facts, EngineOptions::default(), &mut Inertia);
        let naive = naive_lfp(&seq);
        prop_assert!(park::engine::bistructure::interp_subset(&naive, &seq.interpretation));
        prop_assert!(park::engine::bistructure::interp_subset(&seq.interpretation, &naive));
    }

    /// Γ is inflationary: one fire/absorb step never loses marked atoms.
    #[test]
    fn gamma_is_inflationary(
        rules in arb_program(8, false),
        facts in arb_database(),
    ) {
        let vocab = Vocabulary::new();
        let program = park::engine::CompiledProgram::compile(
            Arc::clone(&vocab), &parse_program(&rules).unwrap()).unwrap();
        let db = FactStore::from_source(vocab, facts.as_str()).unwrap();
        let mut interp = IInterpretation::from_database(db);
        let mut prev = 0usize;
        for _ in 0..6 {
            let fired = fire_all(&program, &BlockedSet::new(), &interp);
            for f in &fired {
                interp.insert_marked(f.sign, f.pred, &f.tuple);
            }
            prop_assert!(interp.marked_len() >= prev);
            prev = interp.marked_len();
        }
    }
}

// ---------------------------------------------------------------------
// Warm-restart identity
// ---------------------------------------------------------------------

/// A SELECT oracle that records every conflict it is asked to resolve,
/// in order, while deciding like [`Inertia`].
struct RecordingOracle {
    calls: Vec<String>,
}

impl park::engine::ConflictResolver for RecordingOracle {
    fn name(&self) -> &str {
        "inertia"
    }
    fn select(
        &mut self,
        ctx: &park::engine::SelectContext<'_>,
        c: &park::engine::Conflict,
    ) -> Result<park::engine::Resolution, String> {
        self.calls.push(c.display(ctx.program));
        Inertia.select(ctx, c)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Restarts that replay the previous run's firing log are observably
    /// identical to cold restarts from `D`: every run of the traced
    /// evaluation, recomputed cold from `D` under that run's blocked set,
    /// reproduces the run's step interpretations and fixpoint — across
    /// random restart-heavy programs. A restart replays at least its first
    /// logged step, and replay diverges somewhere (each resolution blocks a
    /// logged grounding).
    #[test]
    fn replaying_restarts_match_restarts_from_d(
        rules in arb_program(8, false),
        facts in arb_database(),
    ) {
        let mut oracle = RecordingOracle { calls: Vec::new() };
        let mut trace = park::engine::Trace::new();
        let warm = run_park_into(&rules, &facts, EngineOptions::default(), &mut oracle, &mut trace);
        let db = FactStore::from_source(Arc::clone(warm.program.vocab()), facts.as_str())
            .unwrap();
        let cold = runs_match_restarts_from_d(&warm, &trace, &db);
        prop_assert!(cold.is_ok(), "{:?}: {}", cold, &rules);
        prop_assert_eq!(oracle.calls.len() as u64, warm.stats.conflicts_resolved);
        if warm.stats.restarts > 0 {
            prop_assert!(warm.stats.replayed_steps > 0,
                "restarted without replaying: {}", &rules);
            prop_assert!(warm.stats.replay_divergence_step.is_some(),
                "replay never diverged: {}", &rules);
        }
    }
}

// ---------------------------------------------------------------------
// Relational (first-order) differential properties
// ---------------------------------------------------------------------

/// Random rules over binary predicates e/f/g with joins, negation, events,
/// constants, and repeated variables — the shapes the join planner and
/// the compiled delta evaluator must handle.
/// lfp(Γ_{P,B}) from `D` by naive Γ iteration, under the run's final
/// blocked set. (I° is D throughout a run, so the outcome's base zone *is*
/// D.)
fn naive_lfp(out: &ParkOutcome) -> IInterpretation {
    let mut interp = IInterpretation::from_database(out.interpretation.base().clone());
    loop {
        let fired = fire_all(&out.program, &out.blocked, &interp);
        let mut grew = false;
        for f in &fired {
            grew |= interp.insert_marked(f.sign, f.pred, &f.tuple);
        }
        if !grew {
            return interp;
        }
    }
}

fn arb_relational_rule_src() -> impl Strategy<Value = String> {
    let pred = prop::sample::select(vec!["e", "f", "g"]);
    let shape = 0usize..6;
    (pred.clone(), pred.clone(), pred, shape, prop::bool::ANY).prop_map(
        |(p1, p2, p3, shape, del)| {
            let sign = if del { "-" } else { "+" };
            match shape {
                0 => format!("{p1}(X, Y) -> {sign}{p2}(Y, X)."),
                1 => format!("{p1}(X, Y), {p2}(Y, Z) -> {sign}{p3}(X, Z)."),
                2 => format!("{p1}(X, Y), !{p2}(X, Y) -> {sign}{p3}(X, Y)."),
                3 => format!("{p1}(X, X) -> {sign}{p2}(X, X)."),
                4 => format!("{p1}(X, a) -> {sign}{p2}(X, a)."),
                _ => format!("{p1}(X, Y), {p2}(X, Z) -> {sign}{p3}(Y, Z)."),
            }
        },
    )
}

fn arb_relational_program_src() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_relational_rule_src(), 1..6).prop_map(|rs| rs.join("\n"))
}

fn arb_relational_db_src() -> impl Strategy<Value = String> {
    let konst = prop::sample::select(vec!["a", "b", "c"]);
    let pred = prop::sample::select(vec!["e", "f", "g"]);
    prop::collection::vec((pred, konst.clone(), konst), 0..8).prop_map(|facts| {
        facts
            .into_iter()
            .map(|(p, x, y)| format!("{p}({x}, {y})."))
            .collect::<Vec<_>>()
            .join(" ")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The full battery on relational programs: determinism, consistency,
    /// naive/compiled agreement, and the Theorem 4.1(3) recomputation.
    #[test]
    fn relational_differential_battery(
        rules in arb_relational_program_src(),
        facts in arb_relational_db_src(),
    ) {
        let seq = run_park(&rules, &facts, EngineOptions::default(), &mut Inertia);
        let again = run_park(&rules, &facts, EngineOptions::default(), &mut Inertia);
        prop_assert!(seq.database.same_facts(&again.database), "nondeterministic");
        prop_assert!(seq.interpretation.is_consistent());

        // Theorem 4.1(3): lfp(Γ_{P,B*}) from D reproduces the fixpoint.
        let naive = naive_lfp(&seq);
        prop_assert!(park::engine::bistructure::interp_subset(&naive, &seq.interpretation));
        prop_assert!(park::engine::bistructure::interp_subset(&seq.interpretation, &naive));
    }

    /// Relational programs terminate within bounds under adversarial
    /// policies too.
    #[test]
    fn relational_terminates_under_policies(
        rules in arb_relational_program_src(),
        facts in arb_relational_db_src(),
        seed in any::<u64>(),
    ) {
        for policy in [
            &mut AntiInertia as &mut dyn park::engine::ConflictResolver,
            &mut PreferInsert,
            &mut RandomPolicy::seeded(seed),
        ] {
            let out = run_park(&rules, &facts, EngineOptions::default(), policy);
            prop_assert!(out.interpretation.is_consistent());
        }
    }
}

// ---------------------------------------------------------------------
// Query properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Conjunctive-query answers equal brute-force enumeration: for a
    /// random binary relation and the query `e(X, Y), !e(Y, X), X != Y`,
    /// the engine's rows match a direct nested-loop computation.
    #[test]
    fn query_matches_bruteforce(facts in arb_relational_db_src()) {
        let vocab = Vocabulary::new();
        let db = FactStore::from_source(Arc::clone(&vocab), facts.as_str()).unwrap();
        let q = park::engine::Query::parse(&vocab, "e(X, Y), !e(Y, X), X != Y").unwrap();
        let got: std::collections::BTreeSet<String> =
            q.render_rows(&q.run_on_database(&db)).into_iter().collect();

        // Brute force over the rendered facts.
        let e_pairs: Vec<(String, String)> = db
            .sorted_display()
            .into_iter()
            .filter(|f| f.starts_with("e("))
            .map(|f| {
                let inner = f[2..f.len() - 1].to_string();
                let (x, y) = inner.split_once(", ").unwrap();
                (x.to_string(), y.to_string())
            })
            .collect();
        let expected: std::collections::BTreeSet<String> = e_pairs
            .iter()
            .filter(|(x, y)| x != y && !e_pairs.contains(&(y.clone(), x.clone())))
            .map(|(x, y)| format!("X = {x}, Y = {y}"))
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// Querying a PARK result for a deleted atom never succeeds: after a
    /// deletion-only program runs, `?- a` holds iff `a` survived.
    #[test]
    fn query_agrees_with_membership(facts in arb_relational_db_src()) {
        let vocab = Vocabulary::new();
        let program = parse_program("e(X, Y) -> -f(X, Y).").unwrap();
        let engine = Engine::new(Arc::clone(&vocab), &program).unwrap();
        let db = FactStore::from_source(Arc::clone(&vocab), facts.as_str()).unwrap();
        let out = engine.park(&db, &mut Inertia).unwrap();
        let q = park::engine::Query::parse(&vocab, "f(X, Y), e(X, Y)").unwrap();
        prop_assert!(
            q.run_on_database(&out.database).is_empty(),
            "an f-fact with a matching e-fact survived the deletion rule"
        );
    }
}

/// Constants of the query-equivalence databases and queries: symbols and
/// integers, so ordered guards see both.
const QUERY_CONSTS: [&str; 6] = ["a", "b", "c", "1", "2", "3"];

/// A random database over `e/2`, `f/2` and `g/1`: up to 48 facts, so `e`
/// and `f` often pass the lowering cost model's index threshold.
fn arb_query_db_src() -> impl Strategy<Value = String> {
    let konst = prop::sample::select(QUERY_CONSTS.to_vec());
    prop::collection::vec((0u8..5, konst.clone(), konst), 0..48).prop_map(|facts| {
        facts
            .into_iter()
            .map(|(p, x, y)| match p {
                0 | 1 => format!("e({x}, {y})."),
                2 | 3 => format!("f({x}, {y})."),
                _ => format!("g({x})."),
            })
            .collect::<Vec<_>>()
            .join(" ")
    })
}

/// A random safe conjunctive query: 1–4 positive literals over `e`, `f`
/// and `g` (so one predicate often appears several times) whose terms mix
/// the variables `X`, `Y`, `Z` (repeats included) with constants, then up
/// to two negations and two guards over the variables those bind.
fn arb_conjunctive_query() -> impl Strategy<Value = String> {
    let atom = (0u8..3, 0u8..10, 0u8..10);
    let positives = prop::collection::vec(atom.clone(), 1..5);
    let negations = prop::collection::vec(atom, 0..3);
    let guards = prop::collection::vec((0u8..6, 0u8..10, 0u8..10), 0..3);
    (positives, negations, guards).prop_map(|(positives, negations, guards)| {
        const VARS: [&str; 3] = ["X", "Y", "Z"];
        // Choices below 6 pick a variable (weighted 2:1 over constants).
        let free = |t: u8| {
            if t < 6 {
                VARS[usize::from(t % 3)].to_string()
            } else {
                QUERY_CONSTS[usize::from(t - 6)].to_string()
            }
        };
        let atom = |(p, a, b): (u8, u8, u8), term: &dyn Fn(u8) -> String| match p {
            0 => format!("e({}, {})", term(a), term(b)),
            1 => format!("f({}, {})", term(a), term(b)),
            _ => format!("g({})", term(a)),
        };
        let mut lits: Vec<String> = positives.iter().map(|&a| atom(a, &free)).collect();
        // Variables the positives bind, in first-occurrence order.
        let mut bound: Vec<String> = Vec::new();
        for &(p, a, b) in &positives {
            let cols = if p == 2 { vec![a] } else { vec![a, b] };
            for t in cols {
                let term = free(t);
                if t < 6 && !bound.contains(&term) {
                    bound.push(term);
                }
            }
        }
        let safe = |t: u8| {
            if t < 6 && !bound.is_empty() {
                bound[usize::from(t) % bound.len()].clone()
            } else {
                QUERY_CONSTS[usize::from(t % 6)].to_string()
            }
        };
        lits.extend(negations.iter().map(|&a| format!("!{}", atom(a, &safe))));
        for &(op, l, r) in &guards {
            let op = ["=", "!=", "<", "<=", ">", ">="][usize::from(op)];
            lits.push(format!("{} {op} {}", safe(l), safe(r)));
        }
        format!("?- {}.", lits.join(", "))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// In-place compiled query answering equals the definitional Γ
    /// enumeration of the same body, row for row, in every build profile
    /// (debug builds also check this inside `Query::run`).
    #[test]
    fn compiled_queries_match_the_gamma_reference(
        facts in arb_query_db_src(),
        query in arb_conjunctive_query(),
    ) {
        let vocab = Vocabulary::new();
        let db = FactStore::from_source(Arc::clone(&vocab), facts.as_str()).unwrap();
        let q = park::engine::Query::parse(&vocab, &query).unwrap();
        let got = q.run_on_database(&db);

        // The reference: the body as a rule whose head captures the
        // query's variables, enumerated by naive Γ over the database.
        let body = query.trim_start_matches("?- ").trim_end_matches('.');
        let head = if q.vars().is_empty() {
            "reference_answer".to_string()
        } else {
            format!("reference_answer({})", q.vars().join(", "))
        };
        let program = park::engine::CompiledProgram::compile(
            Arc::clone(&vocab),
            &parse_program(&format!("{body} -> +{head}.")).unwrap(),
        )
        .unwrap();
        let interp = IInterpretation::from_database(db.clone());
        let mut want: Vec<park::storage::Tuple> = fire_all(&program, &BlockedSet::new(), &interp)
            .iter()
            .map(|f| vocab.decode_row(&f.tuple))
            .collect();
        want.sort_by(|a, b| vocab.cmp_tuples(a, b));
        want.dedup();
        prop_assert_eq!(got, want, "query {} over {}", query, facts);
    }
}

// ---------------------------------------------------------------------
// Syntax roundtrip properties
// ---------------------------------------------------------------------

fn arb_relational_rule() -> impl Strategy<Value = String> {
    // Rules over binary predicates with variables and constants; safety is
    // ensured by making the head copy variables of the first body literal.
    let konst = prop::sample::select(vec!["a", "b", "c7", "d_e"]);
    let pred = prop::sample::select(vec!["e", "f", "g"]);
    (pred.clone(), konst, pred, prop::bool::ANY, prop::bool::ANY).prop_map(
        |(p1, k, p2, neg, del)| {
            let negs = if neg { "!" } else { "" };
            let sign = if del { "-" } else { "+" };
            format!("{p1}(X, Y), {negs}{p2}(X, {k}) -> {sign}{p1}(Y, X).")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pretty-printing then reparsing a rule is the identity (up to spans).
    #[test]
    fn rule_display_parse_roundtrip(src in arb_relational_rule()) {
        let r1 = parse_rule(&src).unwrap();
        let r2 = parse_rule(&r1.to_string()).unwrap();
        let strip = |mut r: Rule| { r.span = park::syntax::Span::synthetic(); r };
        prop_assert_eq!(strip(r1), strip(r2));
    }

    /// Fact stores roundtrip through their `.facts` source rendering.
    #[test]
    fn factstore_source_roundtrip(facts in arb_database()) {
        let v1 = Vocabulary::new();
        let s1 = FactStore::from_source(v1, facts.as_str()).unwrap();
        let s2 = FactStore::from_source(Vocabulary::new(), &s1.to_source()).unwrap();
        prop_assert_eq!(s1.sorted_display(), s2.sorted_display());
    }

    /// Snapshots roundtrip through JSON.
    #[test]
    fn snapshot_json_roundtrip(facts in arb_database()) {
        let store = FactStore::from_source(Vocabulary::new(), facts.as_str()).unwrap();
        let snap = Snapshot::of(&store);
        let back = Snapshot::from_json(&snap.to_json().unwrap()).unwrap();
        let restored = back.restore(Vocabulary::new()).unwrap();
        prop_assert_eq!(restored.sorted_display(), store.sorted_display());
    }
}

/// The inflationary computation from `D` under a fixed blocked set, the
/// paper-literal way: `I` after each Γ step, rendered, starting with `D`
/// and ending at `lfp(Γ_{P,B})`.
fn cold_run(
    program: &park::engine::CompiledProgram,
    blocked: &BlockedSet,
    db: &FactStore,
) -> Vec<String> {
    let mut interp = IInterpretation::from_database(db.clone());
    let mut steps = vec![interp.display()];
    loop {
        let mut grew = false;
        for f in &fire_all(program, blocked, &interp) {
            grew |= interp.insert_marked(f.sign, f.pred, &f.tuple);
        }
        if !grew {
            return steps;
        }
        steps.push(interp.display());
    }
}

/// Check every run of a traced evaluation against [`cold_run`] under the
/// blocked set in force for that run: its step interpretations and, for
/// the last run, its fixpoint.
fn runs_match_restarts_from_d(
    out: &park::engine::ParkOutcome,
    trace: &park::engine::Trace,
    db: &FactStore,
) -> Result<(), String> {
    use park::engine::TraceEvent;
    let by_display: std::collections::HashMap<String, park::engine::Grounding> = out
        .blocked
        .iter()
        .map(|g| (g.display(&out.program), g.clone()))
        .collect();
    let mut blocked = BlockedSet::new();
    let mut cold: Vec<String> = Vec::new();
    for event in trace.events() {
        let (run, at, interp) = match event {
            TraceEvent::RunStarted { .. } => {
                cold = cold_run(&out.program, &blocked, db);
                continue;
            }
            TraceEvent::ConflictResolved { blocked: newly, .. } => {
                for g in newly {
                    blocked.insert(by_display[g].clone());
                }
                continue;
            }
            TraceEvent::Step {
                run, step, interp, ..
            } => (run, cold.get(*step as usize), interp),
            TraceEvent::Fixpoint { run, interp, .. } => (run, cold.last(), interp),
            TraceEvent::Inconsistent { .. } => continue,
        };
        if at != Some(interp) {
            return Err(format!("run {run}: engine {interp}, cold restart {at:?}"));
        }
    }
    Ok(())
}
