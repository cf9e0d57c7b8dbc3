//! Guard test for in-place query answering.
//!
//! A served `query` reads the committed state and must leave it exactly as
//! it found it, without paying for a private copy: the query is lowered
//! against the state and runs over an interpretation that shares its
//! shards, its first access scans, and full-mask probes read each
//! relation's row hash. So the conjunctive query shape of the `warm_mixed`
//! benchmark, a constant-keyed literal joined with a fully bound one,
//! copies no shard and builds no index.
//!
//! The copy-on-write counter is process-wide, so this test has its own
//! integration-test binary (like `incremental_alloc.rs`): no other test
//! can mutate a shared shard while it measures.

use park::prelude::*;
use park::storage::cow_shard_clones;

/// Per-relation index counts of a store, predicate-ordered.
fn index_counts(state: &FactStore) -> Vec<(String, usize)> {
    state
        .nonempty_preds()
        .map(|p| {
            let rel = state.relation(p).expect("non-empty relation");
            (state.vocab().pred_name(p).to_string(), rel.index_count())
        })
        .collect()
}

#[test]
fn served_queries_copy_no_shard_and_build_no_index() {
    // A 10k-edge tree (node i points at i/3), one reachability source, and
    // a sensor on every even node: the alarm rule leaves ~5k `alert`s.
    const NODES: usize = 10_000;
    let mut facts = String::new();
    for i in 1..=NODES {
        facts.push_str(&format!("edge(n{i}, n{}). ", i / 3));
    }
    facts.push_str(&format!("source(n{NODES}). "));
    for i in (0..=NODES).step_by(2) {
        facts.push_str(&format!("sensor(n{i}). "));
    }
    let program = parse_program(
        "init: source(X) -> +reach(X).
         walk: reach(X), edge(X, Y) -> +reach(Y).
         alarm: sensor(X), !reach(X) -> +alert(X).",
    )
    .unwrap();
    let initial = FactStore::from_source(Vocabulary::new(), &facts).unwrap();
    let mut db = ActiveDatabase::open(&program, initial)
        .unwrap()
        .with_incremental(true);
    db.settle(&mut Inertia).unwrap();
    let state = db.state();
    let count = |pred: &str| {
        let p = state.vocab().lookup_pred(pred).unwrap();
        state.relation(p).map_or(0, |r| r.len())
    };
    assert!(count("edge") >= 10_000 && count("alert") >= 5_000);

    let indexes_before = index_counts(db.state());
    let clones_before = cow_shard_clones();
    // n7 has in-edges from n21..n23; of those only the even n22 has a
    // sensor, and the source's path (n10000, n3333, ..., n0) misses it.
    let rows = db.query_rows("?- alert(X), edge(X, n7).").unwrap();
    assert_eq!(rows, ["X = n22"]);
    assert_eq!(
        cow_shard_clones(),
        clones_before,
        "a query must not copy any shard of the state it reads"
    );
    assert_eq!(
        index_counts(db.state()),
        indexes_before,
        "a query must not build an index on the state it reads"
    );
}
