//! The fact store: a database instance `D` as a set of ground atoms.
//!
//! A [`FactStore`] owns one [`Relation`] shard per predicate and shares a
//! [`Vocabulary`] with everything else in a PARK session. It is the concrete
//! representation of the paper's database instances, of the three zones of
//! an i-interpretation, and of PARK's result states.
//!
//! Shards are held behind `Arc`, so `FactStore::clone` is O(#shards): the
//! clones share every relation arena until one side mutates it
//! (copy-on-write via `Arc::make_mut`). Restart states, replay checkpoints
//! and the testkit oracle's cold copies all ride on this — a restart that
//! only ever grows two predicates deep-copies exactly those two shards.
//! The process-wide [`cow_shard_clones`] counter observes the deep copies
//! that do happen.
//!
//! The `Tuple`/`Value` API encodes into interned [`Code`] rows at this
//! boundary; the engine's hot paths use the `_row` variants directly and
//! never decode.

use crate::error::StorageError;
use crate::relation::{ColumnMask, Relation};
use crate::value::{Code, Tuple};
use crate::vocab::{PredId, Vocabulary};
use park_syntax::{parse_facts, Atom, Fact};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A list of facts as `(predicate, tuple)` pairs.
pub type FactList = Vec<(PredId, Tuple)>;

/// Process-wide count of relation shards deep-copied by copy-on-write
/// (a shared shard was mutated). Snapshots and clones that only share
/// never increment this.
static COW_SHARD_CLONES: AtomicU64 = AtomicU64::new(0);

/// Read the process-wide copy-on-write shard-copy counter.
pub fn cow_shard_clones() -> u64 {
    COW_SHARD_CLONES.load(Ordering::Relaxed)
}

/// A set of ground atoms, organized per predicate into `Arc`-shared shards.
#[derive(Debug, Clone)]
pub struct FactStore {
    vocab: Arc<Vocabulary>,
    rels: Vec<Arc<Relation>>,
}

impl FactStore {
    /// An empty store over the given vocabulary.
    pub fn new(vocab: Arc<Vocabulary>) -> Self {
        FactStore {
            vocab,
            rels: Vec::new(),
        }
    }

    /// Build a store from parsed facts, registering predicates as needed.
    pub fn from_facts(vocab: Arc<Vocabulary>, facts: &[Fact]) -> Result<Self, StorageError> {
        let mut store = FactStore::new(vocab);
        for f in facts {
            store.insert_atom(&f.atom)?;
        }
        Ok(store)
    }

    /// Parse a `.facts` source and build a store from it.
    pub fn from_source(vocab: Arc<Vocabulary>, src: &str) -> Result<Self, StorageError> {
        let facts = parse_facts(src).map_err(|e| StorageError::Snapshot(e.to_string()))?;
        FactStore::from_facts(vocab, &facts)
    }

    /// The shared vocabulary.
    pub fn vocab(&self) -> &Arc<Vocabulary> {
        &self.vocab
    }

    /// The shard `Arc`s themselves — `snapshot::Checkpoint` captures these.
    pub(crate) fn shards(&self) -> &[Arc<Relation>] {
        &self.rels
    }

    /// Rebuild a store from captured shards.
    pub(crate) fn from_shards(vocab: Arc<Vocabulary>, rels: Vec<Arc<Relation>>) -> Self {
        FactStore { vocab, rels }
    }

    /// Mutable access to the shard for `pred`, extending the shard vector
    /// and copy-on-writing a shared arena as needed.
    fn rel_mut(&mut self, pred: PredId) -> &mut Relation {
        let idx = pred.0 as usize;
        if idx >= self.rels.len() {
            // Newly-registered predicates get empty relations of the right
            // arity lazily.
            let vocab = Arc::clone(&self.vocab);
            self.rels.extend((self.rels.len()..=idx).map(|i| {
                let arity = if i < vocab.pred_count() {
                    vocab.pred_arity(PredId(i as u32))
                } else {
                    0
                };
                Arc::new(Relation::new(arity))
            }));
        }
        let arc = &mut self.rels[idx];
        if Arc::strong_count(arc) > 1 {
            COW_SHARD_CLONES.fetch_add(1, Ordering::Relaxed);
        }
        Arc::make_mut(arc)
    }

    /// Whether the shard for `pred` exists and another store shares it, so
    /// that writing it would copy it.
    fn is_shared(&self, pred: PredId) -> bool {
        self.rels
            .get(pred.0 as usize)
            .is_some_and(|arc| Arc::strong_count(arc) > 1)
    }

    /// The relation for `pred`, if any tuples or indexes were created for it.
    pub fn relation(&self, pred: PredId) -> Option<&Relation> {
        self.rels.get(pred.0 as usize).map(Arc::as_ref)
    }

    /// Insert a tuple; returns `true` if new. Checks arity.
    pub fn insert(&mut self, pred: PredId, tuple: Tuple) -> Result<bool, StorageError> {
        let expected = self.vocab.pred_arity(pred);
        if tuple.arity() != expected {
            return Err(StorageError::TupleArity {
                pred: self.vocab.pred_name(pred).to_string(),
                expected,
                got: tuple.arity(),
            });
        }
        let row = self.vocab.encode_tuple(&tuple);
        Ok(self.insert_row(pred, &row))
    }

    /// Insert an encoded row; returns `true` if new. The caller guarantees
    /// the arity (rule heads are arity-checked at compile time).
    pub fn insert_row(&mut self, pred: PredId, row: &[Code]) -> bool {
        debug_assert_eq!(row.len(), self.vocab.pred_arity(pred));
        // A shared shard is checked through a shared reference first, as
        // `remove_row` does: a row it already holds never copies it.
        if self.is_shared(pred) && self.contains_row(pred, row) {
            return false;
        }
        self.rel_mut(pred).insert(row)
    }

    /// Insert a ground AST atom.
    pub fn insert_atom(&mut self, atom: &Atom) -> Result<bool, StorageError> {
        let (pred, tuple) = self.vocab.ground_atom(atom)?;
        self.insert(pred, tuple)
    }

    /// Membership test.
    pub fn contains(&self, pred: PredId, tuple: &Tuple) -> bool {
        let Some(rel) = self.relation(pred) else {
            return false;
        };
        if tuple.arity() != rel.arity() {
            return false;
        }
        rel.contains(&self.vocab.encode_tuple(tuple))
    }

    /// Membership test for an encoded row.
    pub fn contains_row(&self, pred: PredId, row: &[Code]) -> bool {
        self.relation(pred).is_some_and(|r| r.contains(row))
    }

    /// Membership test for an AST atom (false for unknown predicates).
    pub fn contains_atom(&self, atom: &Atom) -> bool {
        let Some(pred) = self.vocab.lookup_pred(&atom.pred) else {
            return false;
        };
        match self.vocab.ground_atom(atom) {
            Ok((p, t)) => p == pred && self.contains(p, &t),
            Err(_) => false,
        }
    }

    /// Remove a tuple; returns `true` if it was present.
    pub fn remove(&mut self, pred: PredId, tuple: &Tuple) -> bool {
        if !self.contains(pred, tuple) {
            return false;
        }
        let row = self.vocab.encode_tuple(tuple);
        self.rel_mut(pred).remove(&row)
    }

    /// Remove an encoded row; returns `true` if it was present.
    pub fn remove_row(&mut self, pred: PredId, row: &[Code]) -> bool {
        if !self.contains_row(pred, row) {
            return false;
        }
        self.rel_mut(pred).remove(row)
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.rels.iter().map(|r| r.len()).sum()
    }

    /// True if no facts are stored.
    pub fn is_empty(&self) -> bool {
        self.rels.iter().all(|r| r.is_empty())
    }

    /// Total bytes of encoded tuple data across all shards.
    pub fn encoded_bytes(&self) -> usize {
        self.rels.iter().map(|r| r.encoded_bytes()).sum()
    }

    /// Remove every fact (predicates stay registered). Shared shards are
    /// replaced, not copied: clearing never pays a copy-on-write clone.
    pub fn clear(&mut self) {
        for r in &mut self.rels {
            if r.is_empty() {
                continue;
            }
            *r = Arc::new(Relation::new(r.arity()));
        }
    }

    /// Iterate over all facts as decoded `(pred, tuple)` pairs,
    /// predicate-major, in insertion order within each predicate.
    ///
    /// Rows live in columnar arenas, so tuples are materialized on the
    /// way out — this is a boundary/diagnostic path, not a join path; the
    /// engine iterates [`FactStore::iter_rows`] or probes relations
    /// directly.
    pub fn iter(&self) -> impl Iterator<Item = (PredId, Tuple)> + '_ {
        self.iter_rows()
            .map(|(p, row)| (p, self.vocab.decode_row(row)))
    }

    /// Iterate over all encoded `(pred, row)` pairs, predicate-major, in
    /// insertion order within each predicate.
    pub fn iter_rows(&self) -> impl Iterator<Item = (PredId, &[Code])> {
        self.rels
            .iter()
            .enumerate()
            .flat_map(|(i, r)| r.rows().map(move |row| (PredId(i as u32), row)))
    }

    /// Predicates that currently have at least one tuple.
    pub fn nonempty_preds(&self) -> impl Iterator<Item = PredId> + '_ {
        self.rels
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_empty())
            .map(|(i, _)| PredId(i as u32))
    }

    /// Insert every fact of `other` (which must share this store's
    /// vocabulary) into `self`.
    pub fn absorb(&mut self, other: &FactStore) -> Result<(), StorageError> {
        debug_assert!(
            Arc::ptr_eq(&self.vocab, &other.vocab),
            "vocabulary mismatch"
        );
        for p in other.nonempty_preds() {
            let rel = Arc::clone(&other.rels[p.0 as usize]);
            for row in rel.rows() {
                self.insert_row(p, row);
            }
        }
        Ok(())
    }

    /// Set equality of facts (ignores insertion order and indexes).
    pub fn same_facts(&self, other: &FactStore) -> bool {
        self.len() == other.len() && self.iter_rows().all(|(p, r)| other.contains_row(p, r))
    }

    /// The set difference from `self` to `other` (both over the same
    /// vocabulary): `(added, removed)` where `added = other − self` and
    /// `removed = self − other`, each sorted by rendered fact.
    pub fn diff(&self, other: &FactStore) -> (FactList, FactList) {
        debug_assert!(
            Arc::ptr_eq(&self.vocab, &other.vocab),
            "vocabulary mismatch"
        );
        let collect = |from: &FactStore, not_in: &FactStore| {
            let mut v: Vec<(PredId, Tuple)> = from
                .iter_rows()
                .filter(|(p, r)| !not_in.contains_row(*p, r))
                .map(|(p, r)| (p, self.vocab.decode_row(r)))
                .collect();
            v.sort_by_cached_key(|(p, t)| self.vocab.display_fact(*p, t));
            v
        };
        (collect(other, self), collect(self, other))
    }

    /// Ensure an index on `pred` for the bound-column `mask`.
    ///
    /// Checked through a shared reference first: when a clone's shard
    /// already carries the index (the common case for restart states
    /// cloned from an indexed database), this is a no-op that never
    /// triggers a copy-on-write clone.
    pub fn ensure_index(&mut self, pred: PredId, mask: ColumnMask) {
        if mask.is_empty() {
            return;
        }
        if let Some(rel) = self.relation(pred) {
            if rel.has_index(mask) {
                return;
            }
        }
        self.rel_mut(pred).ensure_index(mask);
    }

    /// All facts rendered as text, sorted — the canonical form used in tests
    /// and traces.
    pub fn sorted_display(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .iter_rows()
            .map(|(p, r)| self.vocab.display_row(p, r))
            .collect();
        out.sort();
        out
    }

    /// Serialize to `.facts` source text (one fact per line, sorted).
    pub fn to_source(&self) -> String {
        let mut s = String::new();
        for fact in self.sorted_display() {
            s.push_str(&fact);
            s.push_str(".\n");
        }
        s
    }
}

impl fmt::Display for FactStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, fact) in self.sorted_display().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{fact}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn store(src: &str) -> FactStore {
        FactStore::from_source(Vocabulary::new(), src).unwrap()
    }

    #[test]
    fn build_from_source_and_display() {
        let s = store("p(b). p(a). q(a, 1).");
        assert_eq!(s.len(), 3);
        assert_eq!(s.sorted_display(), vec!["p(a)", "p(b)", "q(a, 1)"]);
        assert_eq!(s.to_string(), "{p(a), p(b), q(a, 1)}");
    }

    #[test]
    fn insert_and_contains_atoms() {
        let mut s = store("p(a).");
        assert!(s.contains_atom(&park_syntax::parse_ground_atom("p(a)").unwrap()));
        assert!(!s.contains_atom(&park_syntax::parse_ground_atom("p(b)").unwrap()));
        assert!(!s.contains_atom(&park_syntax::parse_ground_atom("zzz(b)").unwrap()));
        assert!(s
            .insert_atom(&park_syntax::parse_ground_atom("p(b)").unwrap())
            .unwrap());
        assert!(!s
            .insert_atom(&park_syntax::parse_ground_atom("p(b)").unwrap())
            .unwrap());
    }

    #[test]
    fn arity_is_enforced_on_insert() {
        let v = Vocabulary::new();
        let mut s = FactStore::new(Arc::clone(&v));
        let p = v.pred("p", 2).unwrap();
        let e = s.insert(p, Tuple::new(vec![Value::Int(1)])).unwrap_err();
        assert!(matches!(e, StorageError::TupleArity { .. }));
    }

    #[test]
    fn remove_and_len() {
        let mut s = store("p(a). p(b).");
        let p = s.vocab().lookup_pred("p").unwrap();
        let a = s.vocab().sym("a");
        assert!(s.remove(p, &Tuple::new(vec![Value::Sym(a)])));
        assert_eq!(s.len(), 1);
        assert!(!s.remove(p, &Tuple::new(vec![Value::Sym(a)])));
    }

    #[test]
    fn row_api_round_trips() {
        let mut s = store("p(a).");
        let p = s.vocab().lookup_pred("p").unwrap();
        let b = s.vocab().encode(Value::Sym(s.vocab().sym("b")));
        assert!(s.insert_row(p, &[b]));
        assert!(!s.insert_row(p, &[b]));
        assert!(s.contains_row(p, &[b]));
        assert!(s.contains(p, &Tuple::new(vec![Value::Sym(s.vocab().sym("b"))])));
        assert!(s.remove_row(p, &[b]));
        assert!(!s.remove_row(p, &[b]));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn same_facts_ignores_order() {
        let v = Vocabulary::new();
        let a = FactStore::from_source(Arc::clone(&v), "p(a). p(b).").unwrap();
        let b = FactStore::from_source(Arc::clone(&v), "p(b). p(a).").unwrap();
        assert!(a.same_facts(&b));
        let c = FactStore::from_source(Arc::clone(&v), "p(a).").unwrap();
        assert!(!a.same_facts(&c));
        assert!(!c.same_facts(&a));
    }

    #[test]
    fn absorb_unions_stores() {
        let v = Vocabulary::new();
        let mut a = FactStore::from_source(Arc::clone(&v), "p(a).").unwrap();
        let b = FactStore::from_source(Arc::clone(&v), "p(b). q(1).").unwrap();
        a.absorb(&b).unwrap();
        assert_eq!(a.sorted_display(), vec!["p(a)", "p(b)", "q(1)"]);
    }

    #[test]
    fn diff_reports_added_and_removed() {
        let v = Vocabulary::new();
        let a = FactStore::from_source(Arc::clone(&v), "p(a). p(b). q(1).").unwrap();
        let b = FactStore::from_source(Arc::clone(&v), "p(b). p(c). r(x).").unwrap();
        let (added, removed) = a.diff(&b);
        let show = |xs: &[(crate::vocab::PredId, Tuple)]| {
            xs.iter()
                .map(|(p, t)| v.display_fact(*p, t))
                .collect::<Vec<_>>()
        };
        assert_eq!(show(&added), vec!["p(c)", "r(x)"]);
        assert_eq!(show(&removed), vec!["p(a)", "q(1)"]);
        let (added, removed) = a.diff(&a);
        assert!(added.is_empty() && removed.is_empty());
    }

    #[test]
    fn to_source_roundtrips() {
        let s = store("p(a). q(a, 1). r.");
        let v2 = Vocabulary::new();
        let s2 = FactStore::from_source(v2, &s.to_source()).unwrap();
        assert_eq!(s.sorted_display(), s2.sorted_display());
    }

    #[test]
    fn iter_covers_all_predicates() {
        let s = store("p(a). q(b). q(c).");
        assert_eq!(s.iter().count(), 3);
        assert_eq!(s.iter_rows().count(), 3);
        assert_eq!(s.nonempty_preds().count(), 2);
    }

    #[test]
    fn clear_keeps_vocabulary() {
        let mut s = store("p(a).");
        let preds_before = s.vocab().pred_count();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.vocab().pred_count(), preds_before);
    }

    #[test]
    fn propositional_facts() {
        let s = store("alarm. shutdown.");
        assert_eq!(s.sorted_display(), vec!["alarm", "shutdown"]);
        assert!(s.contains_atom(&Atom::prop("alarm")));
    }

    #[test]
    fn clone_shares_shards_until_mutation() {
        let s = store("p(a). p(b). q(1).");
        let p = s.vocab().lookup_pred("p").unwrap();
        let q = s.vocab().lookup_pred("q").unwrap();
        let mut c = s.clone();
        // All shards shared after the clone.
        assert!(Arc::ptr_eq(
            &s.shards()[p.0 as usize],
            &c.shards()[p.0 as usize]
        ));
        let before = cow_shard_clones();
        let val = s.vocab().encode(Value::Sym(s.vocab().sym("c")));
        c.insert_row(p, &[val]);
        // Only the mutated shard was copied.
        assert!(!Arc::ptr_eq(
            &s.shards()[p.0 as usize],
            &c.shards()[p.0 as usize]
        ));
        assert!(Arc::ptr_eq(
            &s.shards()[q.0 as usize],
            &c.shards()[q.0 as usize]
        ));
        assert_eq!(cow_shard_clones(), before + 1);
        // The original is untouched.
        assert_eq!(s.len(), 3);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn ensure_index_on_indexed_clone_does_not_copy() {
        let mut s = store("e(a, b). e(a, c).");
        let e = s.vocab().lookup_pred("e").unwrap();
        let mask = ColumnMask::from_cols([0]);
        s.ensure_index(e, mask);
        let mut c = s.clone();
        let before = cow_shard_clones();
        c.ensure_index(e, mask);
        assert_eq!(cow_shard_clones(), before, "no copy for a present index");
        assert!(Arc::ptr_eq(
            &s.shards()[e.0 as usize],
            &c.shards()[e.0 as usize]
        ));
    }

    #[test]
    fn encoded_bytes_accounts_arenas() {
        let s = store("e(a, b). e(a, c). p(x).");
        assert_eq!(s.encoded_bytes(), (2 * 2 + 1) * 4);
    }
}
