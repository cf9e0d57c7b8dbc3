//! Guard test for warm commits that copy no shard.
//!
//! In incremental mode the live warm state is the only owner of the
//! committed state: a warm transaction commits into its base zone in place,
//! so no relation shard is shared when it is written and copy-on-write
//! never copies one. This holds for state-changing inserts, no-op inserts,
//! partial-stratum deletions, and the first warm insert after a bail and a
//! reseed. The cold runs of the bail and the reseed commit in place too:
//! the state the bail hands back has one owner.
//!
//! The copy-on-write counter is process-wide, so this test has its own
//! integration-test binary (like `query_in_place.rs`): no other test can
//! mutate a shared shard while it measures.

use park::db::{ActiveDatabase, IncrementalStats};
use park::prelude::*;
use park::storage::cow_shard_clones;

/// Which counter of [`IncrementalStats`] a transaction must move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Warm,
    PartialStratum,
    Cold,
}

fn path_of(before: IncrementalStats, after: IncrementalStats) -> Path {
    let warm = after.incremental_txs - before.incremental_txs;
    let partial = after.partial_stratum_txs - before.partial_stratum_txs;
    let cold = after.cold_txs - before.cold_txs;
    match (warm, partial, cold) {
        (1, 0, 0) => Path::Warm,
        (0, 1, 0) => Path::PartialStratum,
        (0, 0, 1) => Path::Cold,
        moved => panic!("one transaction moved {moved:?} (warm, partial, cold) counters"),
    }
}

/// Run one transaction; return the path it took, the number of shards it
/// copied, and whether it changed the state.
fn transact(db: &mut ActiveDatabase, updates: &str) -> (Path, u64, bool) {
    let before = db.incremental_stats();
    let clones_before = cow_shard_clones();
    let report = db.transact_source(updates, &mut Inertia).unwrap();
    let clones = cow_shard_clones() - clones_before;
    (
        path_of(before, db.incremental_stats()),
        clones,
        !report.is_noop(),
    )
}

#[test]
fn warm_commits_copy_no_shard() {
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
    assert!(db.state().len() >= 20_000);

    // A fresh sensor on an unreached node derives a new alert.
    assert_eq!(transact(&mut db, "+sensor(f1)."), (Path::Warm, 0, true));
    // A fresh edge out of the source grows `reach`, which the alarm rule
    // negates, so the insert also revalidates the `alert` stratum.
    assert_eq!(
        transact(&mut db, "+edge(n10000, f1)."),
        (Path::Warm, 0, true)
    );
    // n2 already has a sensor: the insert changes nothing.
    assert_eq!(transact(&mut db, "+sensor(n2)."), (Path::Warm, 0, false));
    // Deleting a base sensor recomputes the `alert` stratum.
    assert_eq!(
        transact(&mut db, "-sensor(n4)."),
        (Path::PartialStratum, 0, true)
    );

    // Deleting the derived alert(n6) is a PARK conflict: the warm path
    // bails and the cold run resolves it under the policy (inertia keeps
    // the alert, so the state does not change). Its blocked
    // grounding keeps it from reseeding, so the next transaction runs cold
    // and reseeds. Both cold runs commit into the state the bail handed
    // back, in place, and the warm insert after them copies nothing either.
    assert_eq!(transact(&mut db, "-alert(n6)."), (Path::Cold, 0, false));
    assert_eq!(db.incremental_stats().cold_txs_deletion, 1);
    assert_eq!(transact(&mut db, "+sensor(f2)."), (Path::Cold, 0, true));
    assert_eq!(transact(&mut db, "+sensor(f3)."), (Path::Warm, 0, true));
    assert_eq!(
        transact(&mut db, "-sensor(n8)."),
        (Path::PartialStratum, 0, true)
    );
}
