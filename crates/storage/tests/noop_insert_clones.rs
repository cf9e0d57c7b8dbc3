//! Guard test for inserts that change nothing.
//!
//! A store cloned from another shares every relation shard with it, and
//! writing a shared shard copies it (copy-on-write). Inserting a row the
//! shard already holds writes nothing, so it must not copy the shard: the
//! membership check goes through a shared reference first, as it does for
//! removals. Engine callers that keep their database pay for this on every
//! `+a` mark of an `a` already present.
//!
//! The copy-on-write counter is process-wide, so this test has its own
//! integration-test binary: no other test can mutate a shared shard while
//! it measures.

use park_storage::{cow_shard_clones, FactStore, Tuple, Value, Vocabulary};

#[test]
fn inserting_a_present_row_into_a_shared_shard_copies_nothing() {
    let vocab = Vocabulary::new();
    let original = FactStore::from_source(vocab.clone(), "p(a). p(b). q(1).").unwrap();
    let p = vocab.lookup_pred("p").unwrap();
    let q = vocab.lookup_pred("q").unwrap();
    let a = vocab.encode(Value::Sym(vocab.sym("a")));
    let c = vocab.encode(Value::Sym(vocab.sym("c")));
    let mut store = original.clone();

    let before = cow_shard_clones();
    assert!(!store.insert_row(p, &[a]));
    assert!(!store.insert(q, Tuple::new(vec![Value::Int(1)])).unwrap());
    assert_eq!(cow_shard_clones(), before, "no-op inserts copied a shard");

    // A new row still copies the shard it writes, and only that one.
    assert!(store.insert_row(p, &[c]));
    assert_eq!(cow_shard_clones(), before + 1);
    assert_eq!(original.sorted_display(), vec!["p(a)", "p(b)", "q(1)"]);
    assert_eq!(store.sorted_display(), vec!["p(a)", "p(b)", "p(c)", "q(1)"]);

    // The copy is the store's own now: further inserts write it in place.
    assert!(!store.insert_row(p, &[a]));
    assert!(store.insert(q, Tuple::new(vec![Value::Int(2)])).unwrap());
    assert_eq!(cow_shard_clones(), before + 2, "q was still shared");
}
