//! Guard test for cold commits that copy no shard.
//!
//! A non-incremental database evaluates every transaction cold, from the
//! committed state `S`, and commits `incorp(int(ω))` into `S` in place:
//! the evaluation's base zone is `S` itself, and once the old handle is
//! released nothing else holds its shards, so copy-on-write never copies
//! one. The removals of a commit rebuild the indexes they made stale in
//! place too, so the next run's index requests find them current. This
//! holds through conflicts and restarts, deletions, event rules and no-op
//! inserts.
//!
//! Only the first transaction may copy: it builds the indexes the initial
//! state lacks on a store the caller still owns.
//!
//! The copy-on-write counter is process-wide, so this test has its own
//! integration-test binary (like `warm_commit_clones.rs`): no other test
//! can mutate a shared shard while it measures.

use park::db::ActiveDatabase;
use park::prelude::*;
use park::storage::cow_shard_clones;
use park::workloads::payroll::payroll_program;

#[test]
fn cold_commits_copy_no_shard() {
    // 300 employees, all active; every other one bonus-eligible, every
    // third one compliance-flagged, so the grant and deny rules conflict
    // on every sixth.
    let mut facts = String::new();
    for i in 0..300 {
        facts.push_str(&format!(
            "emp(e{i}). payroll(e{i}, {}). active(e{i}). ",
            30_000 + i
        ));
        if i % 2 == 0 {
            facts.push_str(&format!("eligible(e{i}). "));
        }
        if i % 3 == 0 {
            facts.push_str(&format!("flagged(e{i}). "));
        }
    }
    let program = parse_program(&payroll_program()).unwrap();
    let initial = FactStore::from_source(Vocabulary::new(), &facts).unwrap();
    let mut db = ActiveDatabase::open(&program, initial).unwrap();
    assert!(!db.incremental());

    let first = db.settle(&mut Inertia).unwrap();
    assert!(first.stats.restarts > 0, "the bonus conflicts restart");

    let mut restarts = 0;
    let mut removed = 0;
    for tx in [
        // Deactivation: the event rules offboard, drop the payroll row and
        // audit it.
        "-active(e4).",
        // A fresh bonus conflict: e8 is active and eligible.
        "+flagged(e8).",
        // Deleting a payroll row triggers the audit event rule.
        "-payroll(e10, 30010).",
        // A new hire without `active`: the cleanup rule deletes the payroll
        // row the transaction inserts, a conflict of `U` with the rules.
        "+emp(n1). +payroll(n1, 1).",
        // Rows already in `S`: nothing changes.
        "+emp(e1). +active(e2).",
        // Reactivation and a new eligibility in one transaction.
        "+active(e4). +eligible(e5).",
        "-flagged(e6). -eligible(e12).",
        "",
    ] {
        let clones_before = cow_shard_clones();
        let report = db.transact_source(tx, &mut Inertia).unwrap();
        let clones = cow_shard_clones() - clones_before;
        assert_eq!(clones, 0, "tx {tx:?} copied {clones} shards");
        restarts += report.stats.restarts;
        removed += report.removed.len();
    }
    assert!(restarts >= 2, "{restarts} restarts");
    assert!(removed >= 3, "{removed} removals");
}
