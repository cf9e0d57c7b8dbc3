//! Quickstart: the paper's Section 4.1 programs, end to end.
//!
//! Run with `cargo run --example quickstart`.
//!
//! Demonstrates: parsing a rule program, evaluating `PARK(D, P)` under the
//! principle of inertia, reading the result and the trace, and how PARK
//! differs from naive conflict handling.

use park::baselines::naive_mark_eliminate;
use park::engine::{CompiledProgram, Engine, Inertia, Trace};
use park::prelude::*;
use park::storage::UpdateSet;

fn main() {
    // ---------------------------------------------------------------
    // P1 (Section 4.1): a conflict resolved by the principle of inertia.
    // ---------------------------------------------------------------
    let vocab = Vocabulary::new();
    let p1 = parse_program(
        "r1: p -> +q.
         r2: p -> -a.
         r3: q -> +a.",
    )
    .expect("P1 parses");
    let engine = Engine::new(vocab.clone(), &p1).expect("P1 compiles");
    let db = FactStore::from_source(vocab, "p.").expect("database parses");

    // The trace is a metrics sink: pass it to the run to record the
    // paper-style step listing.
    let mut trace = Trace::new();
    let out = engine
        .park_with_metrics(&db, &mut Inertia, &mut trace)
        .expect("PARK terminates");
    println!("P1 on D = {{p}} under inertia:");
    println!("{}", trace.render());
    println!("result: {}\n", out.database);
    assert_eq!(out.database.to_string(), "{p, q}");

    // ---------------------------------------------------------------
    // P2 (Section 4.1): consequences of invalidated marks must vanish.
    // PARK gets {p, q, r}; the naive mark-and-eliminate strawman keeps
    // the bogus `s`.
    // ---------------------------------------------------------------
    let vocab = Vocabulary::new();
    let p2 = parse_program(
        "r1: p -> +q.
         r2: p -> -a.
         r3: q -> +a.
         r4: !a -> +r.
         r5: a -> +s.",
    )
    .expect("P2 parses");
    let engine = Engine::new(vocab.clone(), &p2).expect("P2 compiles");
    let db = FactStore::from_source(vocab.clone(), "p.").expect("database parses");

    let park_result = engine.park(&db, &mut Inertia).expect("PARK terminates");
    let compiled = CompiledProgram::compile(vocab, &p2).expect("P2 compiles");
    let naive_result = naive_mark_eliminate(&compiled, &db, &UpdateSet::empty(), 1 << 20)
        .expect("naive fixpoint terminates");

    println!("P2 on D = {{p}}:");
    println!("  PARK : {}", park_result.database);
    println!(
        "  naive: {}   <- keeps s, derived from the invalidated +a",
        naive_result.database
    );
    assert_eq!(park_result.database.to_string(), "{p, q, r}");
    assert_eq!(naive_result.database.to_string(), "{p, q, r, s}");

    // ---------------------------------------------------------------
    // Full ECA (Section 4.3): transaction updates trigger event rules.
    // ---------------------------------------------------------------
    let vocab = Vocabulary::new();
    let eca = parse_program(
        "r1: p(X) -> +q(X).
         r2: q(X) -> +r(X).
         r3: +r(X) -> -s(X).",
    )
    .expect("ECA program parses");
    let engine = Engine::new(vocab.clone(), &eca).expect("compiles");
    let db = FactStore::from_source(vocab.clone(), "p(a). s(a). s(b).").expect("parses");
    let updates = UpdateSet::from_source(&vocab, "+q(b).").expect("updates parse");

    let out = engine
        .run(&db, &updates, &mut Inertia)
        .expect("PARK terminates");
    println!("\nECA example: D = {{p(a), s(a), s(b)}}, U = {{+q(b)}}");
    println!("  PARK(D, P, U) = {}", out.database);
    assert_eq!(out.database.to_string(), "{p(a), q(a), q(b), r(a), r(b)}");

    println!("\nquickstart: all assertions passed");
}
