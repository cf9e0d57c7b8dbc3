//! Property tests for the interned storage layer (see `docs/storage.md`).
//!
//! The intern table maps `Value`s to dense `Code`s so relations can store
//! contiguous `u32` columns, but two invariants keep the encoding invisible
//! to the PARK semantics:
//!
//! * **Round-trip** — `decode(encode(v)) == v` for every `Value` shape:
//!   symbols, small integers (|i| < 2^30, embedded in the code), and
//!   spilled big integers.
//! * **Intern-order independence** — every observable ordering (the sorted
//!   database display, query answers, and the sequence of conflicts a
//!   `SELECT` policy sees) is derived from decoded `Value`s, never from
//!   intern codes. Pre-interning every identifier in reversed order
//!   assigns different codes to the same symbols while leaving fact
//!   insertion order untouched, so running both ways and demanding
//!   byte-identical output pins the invariant down.

use park::engine::{ConflictResolver, Engine, EngineOptions, Inertia};
use park::policies::{PreferInsert, RandomPolicy};
use park::storage::{FactStore, Value, Vocabulary};
use park::syntax::parse_program;
use park::workloads as wl;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// A named factory for a fresh `SELECT` policy instance.
type PolicyFactory = (&'static str, fn() -> Box<dyn ConflictResolver>);

// ---------------------------------------------------------------------
// Round-trip: every Value shape survives encode/decode
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn intern_roundtrips_every_value_shape(
        names in prop::collection::vec("[a-z]{1,12}", 1..8),
        ints in prop::collection::vec(prop_oneof![
            any::<i64>(),
            -(1i64 << 31)..(1i64 << 31),
            -64i64..64,
        ], 1..16),
    ) {
        let vocab = Vocabulary::new();
        let mut values: Vec<Value> = names.iter().map(|n| Value::Sym(vocab.sym(n))).collect();
        values.extend(ints.iter().map(|&i| Value::Int(i)));
        // The tag-scheme boundaries: largest/smallest embedded small ints
        // and the first spilled magnitudes on either side.
        for edge in [
            0,
            (1i64 << 30) - 1,
            1i64 << 30,
            -(1i64 << 30),
            -(1i64 << 30) - 1,
            i64::MIN,
            i64::MAX,
        ] {
            values.push(Value::Int(edge));
        }
        let mut by_code: HashMap<u32, Value> = HashMap::new();
        for &v in &values {
            let c = vocab.encode(v);
            prop_assert_eq!(vocab.decode(c), v, "decode(encode({:?}))", v);
            // Encoding is stable: the same value always gets the same code.
            prop_assert_eq!(vocab.encode(v), c);
            // And injective: one code never stands for two values.
            if let Some(prev) = by_code.insert(c.0, v) {
                prop_assert_eq!(prev, v, "code {} is shared", c.0);
            }
        }
    }

    // Symbol codes and small-int codes preserve their domain order, which
    // is what lets hot paths compare codes without decoding.
    #[test]
    fn small_int_codes_are_order_preserving(
        a in -(1i64 << 30)..(1i64 << 30),
        b in -(1i64 << 30)..(1i64 << 30),
    ) {
        let vocab = Vocabulary::new();
        let (ca, cb) = (vocab.encode(Value::Int(a)), vocab.encode(Value::Int(b)));
        prop_assert_eq!(a.cmp(&b), ca.cmp(&cb));
    }
}

// ---------------------------------------------------------------------
// Intern-order independence across the workload crates
// ---------------------------------------------------------------------

/// Every identifier token of a program/facts source, first-seen order.
fn idents(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut cur = String::new();
    for ch in text.chars().chain(std::iter::once(' ')) {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            cur.push(ch);
        } else if !cur.is_empty() {
            let tok = std::mem::take(&mut cur);
            if tok.starts_with(|c: char| c.is_ascii_alphabetic()) && seen.insert(tok.clone()) {
                out.push(tok);
            }
        }
    }
    out
}

/// Run a workload, optionally pre-interning `preseed` symbols into the
/// fresh vocabulary before the program compiles — which reassigns every
/// symbol's intern code while leaving the database contents, fact
/// insertion order, and rule order untouched.
fn run_with(
    rules: &str,
    facts: &str,
    options: EngineOptions,
    policy: &mut dyn ConflictResolver,
    preseed: &[String],
) -> (Vec<String>, Arc<Vocabulary>) {
    let vocab = Vocabulary::new();
    for name in preseed {
        vocab.sym(name);
    }
    let engine =
        Engine::with_options(Arc::clone(&vocab), &parse_program(rules).unwrap(), options).unwrap();
    let db = FactStore::from_source(Arc::clone(&vocab), facts).unwrap();
    let out = engine.park(&db, policy).unwrap();
    (out.database.sorted_display(), vocab)
}

/// Run a workload twice — once with default first-seen interning, once
/// with every identifier pre-interned in *reversed* order — and demand
/// byte-identical sorted output under every policy.
/// The reversed run assigns different codes to the same symbols while the
/// grounding enumeration order stays identical, so any place that orders
/// observable output by intern code (rather than by decoded `Value`)
/// diverges. The seeded random policy is the sharpest probe: its decisions
/// depend on the exact sequence of conflicts SELECT shows it.
fn assert_intern_order_independent(name: &str, rules: &str, facts: &str) {
    let mut reversed = idents(&format!("{rules}\n{facts}"));
    reversed.reverse();
    assert!(reversed.len() > 1, "{name}: nothing to reorder");
    let policies: [PolicyFactory; 3] = [
        ("inertia", || Box::new(Inertia)),
        ("prefer-insert", || Box::new(PreferInsert)),
        ("random:7", || Box::new(RandomPolicy::seeded(7))),
    ];
    let options = EngineOptions::default();
    for (pname, mk) in policies {
        let (a, _va) = run_with(rules, facts, options, mk().as_mut(), &[]);
        let (b, vb) = run_with(rules, facts, options, mk().as_mut(), &reversed);
        // The pre-seeding took effect: symbol ids ascend along the
        // reversed identifier list, so every pair of constants has its
        // relative id order flipped vs. first-seen interning.
        assert!(
            vb.sym(&reversed[0]) < vb.sym(&reversed[reversed.len() - 1]),
            "{name}: pre-interning did not assign ids in preseed order"
        );
        assert_eq!(
            a, b,
            "{name}/{pname}: output ordering depends on intern order"
        );
    }
}

// ---------------------------------------------------------------------
// The compiled evaluator's lowering must not leak intern codes either
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The compiled evaluator lowers rules against the starting database
    /// (cost-model index picks, probe keys, register checks all speak raw
    /// `Code`s), so it gets its own generative probe: across random graph
    /// shapes and conflict chains, its committed output must be
    /// byte-identical with and without reversed intern preseeding — the
    /// decode-at-boundary ordering rule has to survive lowering — and
    /// identical to a 4-thread run on the same inputs.
    #[test]
    fn compiled_output_is_intern_order_independent(
        pick in 0usize..2,
        size in 8usize..32,
        degree in 1u32..5,
        seed in 0u64..1000,
    ) {
        let (rules, facts) = match pick {
            0 => (
                wl::transitive_closure_program(),
                wl::erdos_renyi_edges(size, f64::from(degree) / size as f64, seed),
            ),
            _ => wl::staggered_conflicts(2 + size % 8),
        };
        let mut reversed = idents(&format!("{rules}\n{facts}"));
        reversed.reverse();
        prop_assert!(reversed.len() > 1, "nothing to reorder");
        let sequential = EngineOptions::default();
        let policy = || RandomPolicy::seeded(seed ^ 0x9e37);
        let (a, _) = run_with(&rules, &facts, sequential, &mut policy(), &[]);
        let (b, _) = run_with(&rules, &facts, sequential, &mut policy(), &reversed);
        prop_assert_eq!(&a, &b, "compiled output depends on intern order");
        let parallel = sequential.with_parallelism(Some(4));
        let (n, _) = run_with(&rules, &facts, parallel, &mut policy(), &[]);
        prop_assert_eq!(&a, &n, "sequential and parallel outputs diverge");
    }
}

#[test]
fn closure_workload_is_intern_order_independent() {
    assert_intern_order_independent(
        "closure",
        &wl::transitive_closure_program(),
        &wl::erdos_renyi_edges(32, 4.0 / 32.0, 9),
    );
}

#[test]
fn chains_workload_is_intern_order_independent() {
    let (rules, facts) = wl::staggered_conflicts(8);
    assert_intern_order_independent("chains", &rules, &facts);
}

#[test]
fn partition_workload_is_intern_order_independent() {
    assert_intern_order_independent(
        "partition",
        &wl::guard_partition_program(4),
        &wl::guard_partition_database(4, 50),
    );
}

#[test]
fn payroll_workload_is_intern_order_independent() {
    let cfg = wl::PayrollConfig {
        employees: 40,
        p_active: 0.8,
        p_eligible: 0.7,
        p_flagged: 0.5,
        p_deactivate: 0.3,
        seed: 13,
    };
    let (facts, _) = wl::payroll_database(&cfg);
    assert_intern_order_independent("payroll", &wl::payroll_program(), &facts);
}
