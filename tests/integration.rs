//! Cross-crate integration tests: workloads through the engine, policies,
//! baselines, and persistence together.

use park::baselines::{immediate_fire, naive_mark_eliminate, ImmediateConfig};
use park::engine::{CompiledProgram, Engine, EngineOptions, Inertia, ResolutionScope};
use park::policies::{Interactive, PreferInsert, Recording, Resolution, RulePriority};
use park::prelude::*;
use park::workloads as wl;
use std::sync::Arc;

/// The payroll workload end to end: generate, evaluate with events,
/// snapshot, reload, re-evaluate — a second transaction on the persisted
/// state keeps cascading.
#[test]
fn payroll_snapshot_reload_cycle() {
    let cfg = wl::PayrollConfig {
        employees: 120,
        seed: 5,
        ..Default::default()
    };
    let (facts, tx) = wl::payroll_database(&cfg);
    let vocab = Vocabulary::new();
    let program = parse_program(&wl::payroll_program()).unwrap();
    let engine = Engine::new(Arc::clone(&vocab), &program).unwrap();
    let db = FactStore::from_source(Arc::clone(&vocab), &facts).unwrap();
    let updates = UpdateSet::from_source(&vocab, &tx).unwrap();
    let out = engine.run(&db, &updates, &mut Inertia).unwrap();

    // Persist and reload into a *fresh* vocabulary.
    let json = Snapshot::of(&out.database).to_json().unwrap();
    let vocab2 = Vocabulary::new();
    let reloaded = Snapshot::from_json(&json)
        .unwrap()
        .restore(Arc::clone(&vocab2))
        .unwrap();
    assert_eq!(reloaded.sorted_display(), out.database.sorted_display());

    // A second transaction against the reloaded state.
    let engine2 = Engine::new(Arc::clone(&vocab2), &program).unwrap();
    let still_active: Vec<String> = reloaded
        .sorted_display()
        .into_iter()
        .filter(|f| f.starts_with("active("))
        .take(3)
        .collect();
    assert!(!still_active.is_empty(), "some employees survive round one");
    let tx2: String = still_active
        .iter()
        .map(|f| format!("-{f}."))
        .collect::<Vec<_>>()
        .join(" ");
    let updates2 = UpdateSet::from_source(&vocab2, &tx2).unwrap();
    let out2 = engine2.run(&reloaded, &updates2, &mut Inertia).unwrap();
    for f in &still_active {
        let emp = &f[7..f.len() - 1];
        assert!(
            out2.database
                .sorted_display()
                .contains(&format!("offboard({emp})")),
            "second round must offboard {emp}"
        );
    }
}

/// PARK result states diverge from the naive baseline exactly on programs
/// whose conflicts feed other rules — quantified on the chain workload.
#[test]
fn naive_baseline_divergence_on_chains() {
    // Extend each chain's goal with a dependent fact: if goal_i survives
    // incorrectly, witness_i appears.
    let (mut program_src, facts) = wl::parallel_conflicts(3, 2);
    for i in 0..3 {
        program_src.push_str(&format!("w{i}: goal{i} -> +witness{i}.\n"));
    }
    let vocab = Vocabulary::new();
    let program = parse_program(&program_src).unwrap();
    let engine = Engine::new(Arc::clone(&vocab), &program).unwrap();
    let db = FactStore::from_source(Arc::clone(&vocab), &facts).unwrap();
    let park_out = engine.park(&db, &mut Inertia).unwrap();
    let compiled = CompiledProgram::compile(Arc::clone(&vocab), &program).unwrap();
    let naive_out = naive_mark_eliminate(&compiled, &db, &UpdateSet::empty(), 1 << 20).unwrap();

    // PARK: goals are resolved away before they can derive witnesses.
    assert!(
        !park_out
            .database
            .sorted_display()
            .iter()
            .any(|f| f.starts_with("witness")),
        "{:?}",
        park_out.database.sorted_display()
    );
    // Naive: the goal marks existed transiently, so witnesses leak.
    assert!(
        naive_out
            .database
            .sorted_display()
            .iter()
            .any(|f| f.starts_with("witness")),
        "{:?}",
        naive_out.database.sorted_display()
    );
}

/// Immediate-fire order dependence versus PARK's unambiguity on the same
/// program.
#[test]
fn immediate_order_dependence_vs_park() {
    let rules = "r1: p -> +q. r2: !q -> +r.";
    let vocab = Vocabulary::new();
    let program = parse_program(rules).unwrap();
    let compiled = CompiledProgram::compile(Arc::clone(&vocab), &program).unwrap();
    let db = FactStore::from_source(Arc::clone(&vocab), "p.").unwrap();

    let fwd = immediate_fire(&compiled, &db, ImmediateConfig::default());
    let rev = immediate_fire(
        &compiled,
        &db,
        ImmediateConfig {
            order: park::baselines::FiringOrder::ReverseRuleOrder,
            ..Default::default()
        },
    );
    assert!(
        !fwd.database().same_facts(rev.database()),
        "order dependence"
    );

    // PARK: one answer. (!q is judged against the same interpretation in
    // the same step, so both rules fire: {p, q, r}.)
    let engine = Engine::new(Arc::clone(&vocab), &program).unwrap();
    let a = engine.park(&db, &mut Inertia).unwrap();
    let b = engine.park(&db, &mut Inertia).unwrap();
    assert!(a.database.same_facts(&b.database));
    assert_eq!(a.database.to_string(), "{p, q, r}");
}

/// The irreflexive-graph workload at n = 6 under an interactive policy
/// scripted to keep arcs i -> i+1 only.
#[test]
fn scripted_interactive_on_scaled_graph() {
    let n = 6usize;
    let vocab = Vocabulary::new();
    let program = parse_program(&wl::irreflexive_graph_program()).unwrap();
    let engine = Engine::new(Arc::clone(&vocab), &program).unwrap();
    let db = FactStore::from_source(Arc::clone(&vocab), &wl::nodes_database(n)).unwrap();

    // All n² arcs conflict in one batch, in deterministic derivation order
    // (r1 enumerates p(X) then p(Y) in insertion order): (n0,n0), (n0,n1),
    // … Script the answers accordingly: keep X -> Y iff Y = X+1.
    let mut script = Vec::new();
    for i in 0..n {
        for j in 0..n {
            script.push(if j == i + 1 {
                Resolution::Insert
            } else {
                Resolution::Delete
            });
        }
    }
    let mut policy = Interactive::scripted(script);
    let out = engine.park(&db, &mut policy).unwrap();
    let kept: Vec<String> = out
        .database
        .sorted_display()
        .into_iter()
        .filter(|f| f.starts_with("q("))
        .collect();
    assert_eq!(kept.len(), n - 1, "{kept:?}");
    for i in 0..n - 1 {
        assert!(kept.contains(&format!("q(n{i}, n{})", i + 1)), "{kept:?}");
    }
}

/// Scope ablation on staggered chains: identical results, different
/// restart/blocking trade-off, for every chain count.
#[test]
fn scope_ablation_grid() {
    for k in [1usize, 3, 6] {
        let (p, f) = wl::staggered_conflicts(k);
        let mk = |scope| {
            let vocab = Vocabulary::new();
            let engine = Engine::with_options(
                Arc::clone(&vocab),
                &parse_program(&p).unwrap(),
                EngineOptions::default().with_scope(scope),
            )
            .unwrap();
            let db = FactStore::from_source(vocab, &f).unwrap();
            engine.park(&db, &mut Inertia).unwrap()
        };
        let all = mk(ResolutionScope::All);
        let one = mk(ResolutionScope::One);
        assert!(all.database.same_facts(&one.database), "k={k}");
        assert_eq!(
            all.stats.restarts, k as u64,
            "staggered ⇒ one restart per chain"
        );
        assert!(one.stats.blocked_instances <= all.stats.blocked_instances);
    }
}

/// Priorities recorded through the Recording combinator match the
/// trace's conflict events.
#[test]
fn recording_matches_trace() {
    let vocab = Vocabulary::new();
    let program = parse_program(
        "@priority(1) r1: p -> +q. @priority(9) r2: p -> -q. @priority(1) r3: p -> +z.",
    )
    .unwrap();
    let engine = Engine::new(Arc::clone(&vocab), &program).unwrap();
    let db = FactStore::from_source(vocab, "p.").unwrap();
    let mut rec = Recording::new(RulePriority::new());
    let mut trace = park::engine::Trace::new();
    let out = engine.park_with_metrics(&db, &mut rec, &mut trace).unwrap();
    assert_eq!(rec.decisions().len(), 1);
    assert_eq!(rec.decisions()[0].resolution, Resolution::Delete);
    let conflict_events = trace
        .events()
        .iter()
        .filter(|e| matches!(e, park::engine::TraceEvent::ConflictResolved { .. }))
        .count();
    assert_eq!(conflict_events, 1);
    assert_eq!(out.database.to_string(), "{p, z}");
}

/// Multi-hop event cascades: an update event triggers a rule whose own
/// update triggers another event rule, through three hops.
#[test]
fn event_cascade_three_hops() {
    let vocab = Vocabulary::new();
    let program = parse_program(
        "h1: -a(X) -> +b(X).
         h2: +b(X) -> -c(X).
         h3: -c(X) -> +d(X).",
    )
    .unwrap();
    let engine = Engine::new(Arc::clone(&vocab), &program).unwrap();
    let db = FactStore::from_source(Arc::clone(&vocab), "a(x). c(x).").unwrap();
    let updates = UpdateSet::from_source(&vocab, "-a(x).").unwrap();
    let out = engine.run(&db, &updates, &mut Inertia).unwrap();
    assert_eq!(out.database.sorted_display(), vec!["b(x)", "d(x)"]);
}

/// A conflict between two *policies'* views is not a conflict for the
/// engine: prefer-insert and prefer-delete both terminate with consistent
/// (different) answers on the inventory workload.
#[test]
fn inventory_policy_spread() {
    let cfg = wl::InventoryConfig {
        items: 80,
        seed: 3,
        ..Default::default()
    };
    let vocab = Vocabulary::new();
    let program = parse_program(&wl::inventory_program()).unwrap();
    let engine = Engine::new(Arc::clone(&vocab), &program).unwrap();
    let db = FactStore::from_source(vocab, &wl::inventory_database(&cfg)).unwrap();
    let ins = engine.park(&db, &mut PreferInsert).unwrap();
    let del = engine.park(&db, &mut Inertia).unwrap();
    let orders = |s: &FactStore| {
        s.sorted_display()
            .iter()
            .filter(|f| f.starts_with("order("))
            .count()
    };
    assert!(orders(&ins.database) >= orders(&del.database));
    assert!(ins.interpretation.is_consistent());
    assert!(del.interpretation.is_consistent());
}

/// A transaction that contradicts itself (`U = {+a, -a}`) is a conflict
/// between the two synthetic `tx` rules; the policy resolves it like any
/// other conflict. Under inertia the atom keeps its original status.
#[test]
fn self_conflicting_transaction() {
    let vocab = Vocabulary::new();
    let program = parse_program("watch: +a -> +saw_insert. unwatch: -a -> +saw_delete.").unwrap();
    let engine = Engine::new(Arc::clone(&vocab), &program).unwrap();

    // a ∉ D: inertia resolves to delete — the insertion tx blocks, the
    // deletion stands (a no-op on an absent atom), and only the delete
    // event is observed.
    let db = FactStore::new(Arc::clone(&vocab));
    let updates = UpdateSet::from_source(&vocab, "+a. -a.").unwrap();
    let out = engine.run(&db, &updates, &mut Inertia).unwrap();
    assert_eq!(out.database.sorted_display(), vec!["saw_delete"]);
    assert_eq!(out.stats.restarts, 1);

    // a ∈ D: inertia resolves to insert — a survives.
    let db = FactStore::from_source(Arc::clone(&vocab), "a.").unwrap();
    let out = engine.run(&db, &updates, &mut Inertia).unwrap();
    assert_eq!(out.database.sorted_display(), vec!["a", "saw_insert"]);
}

/// Duplicate updates in one transaction are idempotent: two `tx` rules
/// with the same head derive one mark, no conflict.
#[test]
fn duplicate_updates_are_idempotent() {
    let vocab = Vocabulary::new();
    let program = parse_program("watch: +a(X) -> +seen(X).").unwrap();
    let engine = Engine::new(Arc::clone(&vocab), &program).unwrap();
    let db = FactStore::new(Arc::clone(&vocab));
    let updates = UpdateSet::from_source(&vocab, "+a(x). +a(x).").unwrap();
    let out = engine.run(&db, &updates, &mut Inertia).unwrap();
    assert_eq!(out.database.sorted_display(), vec!["a(x)", "seen(x)"]);
    assert_eq!(out.stats.restarts, 0);
}

/// Policy routing and memoization compose: bonuses routed to priority,
/// everything else decided once and replayed.
#[test]
fn composed_policies_over_payroll() {
    use park::policies::{Memoized, PerPredicate};
    let cfg = wl::PayrollConfig {
        employees: 60,
        p_flagged: 0.5,
        seed: 17,
        ..Default::default()
    };
    let (facts, tx) = wl::payroll_database(&cfg);
    let vocab = Vocabulary::new();
    let program = parse_program(&wl::payroll_program()).unwrap();
    let engine = Engine::new(Arc::clone(&vocab), &program).unwrap();
    let db = FactStore::from_source(Arc::clone(&vocab), &facts).unwrap();
    let updates = UpdateSet::from_source(&vocab, &tx).unwrap();

    let mut policy = Memoized::new(
        PerPredicate::new(Box::new(Inertia))
            .route("bonus", Box::new(park::policies::RulePriority::new())),
    );
    let out = engine.run(&db, &updates, &mut policy).unwrap();
    assert!(out.interpretation.is_consistent());
    // deny (@2) outranks grant (@1): no flagged employee holds a bonus.
    let result = out.database.sorted_display();
    for f in result.iter().filter(|f| f.starts_with("bonus(")) {
        let emp = &f[6..f.len() - 1];
        assert!(
            !result.contains(&format!("flagged({emp})")),
            "flagged {emp} kept a bonus"
        );
    }
}

/// Stratified-datalog agreement at workload scale: the reachability
/// program (positive, recursive) gives the same model under PARK and
/// under the deductive baseline.
#[test]
fn stratified_agreement_on_reachability() {
    use park::baselines::stratified_datalog;
    use park::engine::CompiledProgram;
    let rules = wl::reachability_program();
    let mut facts = wl::erdos_renyi_edges(40, 0.08, 23);
    facts.push_str("source(n0).");
    let vocab = Vocabulary::new();
    let program = parse_program(&rules).unwrap();
    let engine = Engine::new(Arc::clone(&vocab), &program).unwrap();
    let db = FactStore::from_source(Arc::clone(&vocab), &facts).unwrap();
    let park_out = engine.park(&db, &mut Inertia).unwrap();
    let compiled = CompiledProgram::compile(Arc::clone(&vocab), &program).unwrap();
    let strat = stratified_datalog(&compiled, &db, 1 << 20).unwrap();
    assert!(park_out.database.same_facts(&strat.database));
}
