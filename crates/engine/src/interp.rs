//! I-interpretations and the `incorp` operator (Section 4.2).
//!
//! An *i-interpretation* is a subset of the extended Herbrand base
//! `H*(P, D) = { a, +a, -a | a ∈ H(P, D) }`: a set of unmarked atoms `I°`
//! plus atoms marked for insertion (`I⁺`) and deletion (`I⁻`). It is
//! *consistent* iff no atom is marked both `+` and `-`.
//!
//! The three zones are stored as three [`FactStore`]s over a shared
//! vocabulary. Within a PARK run the unmarked zone is always the original
//! database `D` (the Γ operator only ever adds marked atoms), which is what
//! lets the Δ operator restart "from `I°`".

use crate::validity::MarkZone;
use park_storage::store::FactList;
use park_storage::{Code, ColumnMask, FactStore, PredId, Tuple, Vocabulary};
use park_syntax::Sign;
use std::fmt;
use std::sync::Arc;

/// An intermediate interpretation `I = I° ∪ I⁺ ∪ I⁻`.
#[derive(Debug, Clone)]
pub struct IInterpretation {
    base: FactStore,
    plus: FactStore,
    minus: FactStore,
}

impl IInterpretation {
    /// Start from an unmarked database instance (`I = D`).
    pub fn from_database(db: FactStore) -> Self {
        let vocab = Arc::clone(db.vocab());
        IInterpretation {
            base: db,
            plus: FactStore::new(Arc::clone(&vocab)),
            minus: FactStore::new(vocab),
        }
    }

    /// The shared vocabulary.
    pub fn vocab(&self) -> &Arc<Vocabulary> {
        self.base.vocab()
    }

    /// The unmarked zone `I°`.
    pub fn base(&self) -> &FactStore {
        &self.base
    }

    /// Drop the marked zones and hand the unmarked zone `I°` back by move.
    pub(crate) fn into_base(self) -> FactStore {
        self.base
    }

    /// The insertion-marked zone `I⁺`.
    pub fn plus(&self) -> &FactStore {
        &self.plus
    }

    /// The deletion-marked zone `I⁻`.
    pub fn minus(&self) -> &FactStore {
        &self.minus
    }

    /// Mutable access to a zone (used by the engine to pre-build indexes).
    pub fn zone_mut(&mut self, zone: MarkZone) -> &mut FactStore {
        match zone {
            MarkZone::Base => &mut self.base,
            MarkZone::Plus => &mut self.plus,
            MarkZone::Minus => &mut self.minus,
        }
    }

    /// Shared access to a zone.
    pub fn zone(&self, zone: MarkZone) -> &FactStore {
        match zone {
            MarkZone::Base => &self.base,
            MarkZone::Plus => &self.plus,
            MarkZone::Minus => &self.minus,
        }
    }

    /// Add a marked atom `+a` or `-a` by its encoded row. Returns `true` if
    /// it was new. Arity is checked at compile time, so rows arrive
    /// pre-validated.
    pub fn insert_marked(&mut self, sign: Sign, pred: PredId, row: &[Code]) -> bool {
        let zone = match sign {
            Sign::Insert => &mut self.plus,
            Sign::Delete => &mut self.minus,
        };
        zone.insert_row(pred, row)
    }

    /// Membership of a marked atom, by encoded row.
    pub fn contains_marked(&self, sign: Sign, pred: PredId, row: &[Code]) -> bool {
        match sign {
            Sign::Insert => self.plus.contains_row(pred, row),
            Sign::Delete => self.minus.contains_row(pred, row),
        }
    }

    /// Number of marked atoms (`|I⁺| + |I⁻|`). The unmarked zone is constant
    /// during a run, so this measures inflationary growth.
    pub fn marked_len(&self) -> usize {
        self.plus.len() + self.minus.len()
    }

    /// Total number of literals in the interpretation.
    pub fn len(&self) -> usize {
        self.base.len() + self.marked_len()
    }

    /// True if all three zones are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consistency: no atom occurs in both `I⁺` and `I⁻`.
    pub fn is_consistent(&self) -> bool {
        self.clashes().next().is_none()
    }

    /// All atoms marked inconsistently (in both `I⁺` and `I⁻`).
    pub fn inconsistencies(&self) -> Vec<(PredId, Tuple)> {
        let vocab = self.vocab();
        self.clashes()
            .map(|(p, r)| (p, vocab.decode_row(r)))
            .collect()
    }

    /// The encoded `+a`/`-a` clashes, iterating the smaller zone.
    fn clashes(&self) -> impl Iterator<Item = (PredId, &[Code])> {
        let (small, other) = if self.plus.len() <= self.minus.len() {
            (&self.plus, &self.minus)
        } else {
            (&self.minus, &self.plus)
        };
        small
            .iter_rows()
            .filter(move |(p, r)| other.contains_row(*p, r))
    }

    /// The `incorp` operator of Section 4.2:
    /// `incorp(I) = (I° ∪ {a | +a ∈ I⁺}) − {a | -a ∈ I⁻}`.
    ///
    /// For a caller that keeps `I°`: the result is a copy-on-write clone,
    /// so exactly the shards the marked zones write are copied. A caller
    /// that commits the result in place of `I°` uses
    /// [`IInterpretation::into_incorp`] instead.
    pub fn incorp(&self) -> FactStore {
        self.clone().into_incorp()
    }

    /// [`IInterpretation::incorp`] written into the base zone itself. A
    /// shard the base zone holds the only handle on is written in place; a
    /// shared one is copied, exactly as `incorp` copies it.
    ///
    /// Defined for consistent i-interpretations; the order of operations
    /// makes the overlap cases deterministic regardless (`-` wins over an
    /// unmarked atom, `+` of an absent atom adds it), and both entry points
    /// leave the rows in the same order. A removal invalidates its shard's
    /// secondary indexes; the ones current before it are rebuilt in place,
    /// so the next run over the result does not copy the shard to rebuild
    /// them.
    pub fn into_incorp(self) -> FactStore {
        let IInterpretation {
            mut base,
            plus,
            minus,
        } = self;
        for (p, r) in plus.iter_rows() {
            base.insert_row(p, r);
        }
        let indexed: Vec<(PredId, ColumnMask)> = minus
            .nonempty_preds()
            .filter_map(|p| base.relation(p).map(|rel| (p, rel)))
            .flat_map(|(p, rel)| rel.indexed_masks().map(move |mask| (p, mask)))
            .collect();
        for (p, r) in minus.iter_rows() {
            base.remove_row(p, r);
        }
        for (p, mask) in indexed {
            base.ensure_index(p, mask);
        }
        base
    }

    /// `self.base().diff(&self.incorp())` of a consistent `I` at O(marks)
    /// cost: the `+` marks absent from `I°` and the `-` marks present in it.
    pub fn incorp_diff(&self) -> (FactList, FactList) {
        let vocab = self.vocab();
        let collect = |marks: &FactStore, in_base: bool| {
            let mut v: Vec<(PredId, Tuple)> = marks
                .iter_rows()
                .filter(|(p, r)| self.base.contains_row(*p, r) == in_base)
                .map(|(p, r)| (p, vocab.decode_row(r)))
                .collect();
            v.sort_by_cached_key(|(p, t)| vocab.display_fact(*p, t));
            v
        };
        (collect(&self.plus, false), collect(&self.minus, true))
    }

    /// Render in the paper's notation, sorted: `{p, +q, -a}`.
    pub fn display(&self) -> String {
        let vocab = self.vocab();
        let mut parts: Vec<String> = Vec::with_capacity(self.len());
        parts.extend(self.base.iter_rows().map(|(p, r)| vocab.display_row(p, r)));
        parts.extend(
            self.plus
                .iter_rows()
                .map(|(p, r)| format!("+{}", vocab.display_row(p, r))),
        );
        parts.extend(
            self.minus
                .iter_rows()
                .map(|(p, r)| format!("-{}", vocab.display_row(p, r))),
        );
        // Sort by the atom text, ignoring the mark, so `q` and `+q` group
        // together; marks order unmarked < + < -. One key per entry, not
        // two per comparison.
        parts.sort_by_cached_key(|s| match s.as_bytes().first() {
            Some(b'+') => (s[1..].to_string(), 1),
            Some(b'-') => (s[1..].to_string(), 2),
            _ => (s.to_string(), 0),
        });
        format!("{{{}}}", parts.join(", "))
    }
}

impl fmt::Display for IInterpretation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use park_storage::Value;

    fn setup() -> (Arc<Vocabulary>, IInterpretation, PredId) {
        let v = Vocabulary::new();
        let db = FactStore::from_source(Arc::clone(&v), "p. q(a).").unwrap();
        let q = v.lookup_pred("q").unwrap();
        (v, IInterpretation::from_database(db), q)
    }

    fn t1(v: &Vocabulary, s: &str) -> Tuple {
        Tuple::new(vec![Value::Sym(v.sym(s))])
    }

    fn r1(v: &Vocabulary, s: &str) -> [Code; 1] {
        [v.encode(Value::Sym(v.sym(s)))]
    }

    #[test]
    fn fresh_interpretation_is_unmarked_database() {
        let (_, i, _) = setup();
        assert_eq!(i.base().len(), 2);
        assert_eq!(i.marked_len(), 0);
        assert!(i.is_consistent());
        assert!(!i.is_empty());
    }

    #[test]
    fn marked_insertion_and_membership() {
        let (v, mut i, q) = setup();
        assert!(i.insert_marked(Sign::Insert, q, &r1(&v, "b")));
        assert!(!i.insert_marked(Sign::Insert, q, &r1(&v, "b")));
        assert!(i.contains_marked(Sign::Insert, q, &r1(&v, "b")));
        assert!(!i.contains_marked(Sign::Delete, q, &r1(&v, "b")));
        assert_eq!(i.marked_len(), 1);
    }

    #[test]
    fn inconsistency_detection() {
        let (v, mut i, q) = setup();
        i.insert_marked(Sign::Insert, q, &r1(&v, "b"));
        assert!(i.is_consistent());
        i.insert_marked(Sign::Delete, q, &r1(&v, "b"));
        assert!(!i.is_consistent());
        assert_eq!(i.inconsistencies(), vec![(q, t1(&v, "b"))]);
    }

    #[test]
    fn incorp_applies_marks() {
        // I = {p, q(a), +q(b), -q(a)}  =>  incorp = {p, q(b)}
        let (v, mut i, q) = setup();
        i.insert_marked(Sign::Insert, q, &r1(&v, "b"));
        i.insert_marked(Sign::Delete, q, &r1(&v, "a"));
        let out = i.incorp();
        assert_eq!(out.sorted_display(), vec!["p", "q(b)"]);
    }

    #[test]
    fn incorp_diff_is_the_state_diff_from_the_marks() {
        // I = {p, q(a), +p, +q(c), +q(b), -q(a), -q(d)}: `+p` and `-q(d)`
        // change nothing, and the lists come sorted.
        let (v, mut i, q) = setup();
        let p = v.lookup_pred("p").unwrap();
        i.insert_marked(Sign::Insert, p, &[]);
        i.insert_marked(Sign::Insert, q, &r1(&v, "c"));
        i.insert_marked(Sign::Insert, q, &r1(&v, "b"));
        i.insert_marked(Sign::Delete, q, &r1(&v, "a"));
        i.insert_marked(Sign::Delete, q, &r1(&v, "d"));
        let (added, removed) = i.incorp_diff();
        assert_eq!(added, vec![(q, t1(&v, "b")), (q, t1(&v, "c"))]);
        assert_eq!(removed, vec![(q, t1(&v, "a"))]);
        assert_eq!((added, removed), i.base().diff(&i.incorp()));
    }

    #[test]
    fn incorp_of_unmarked_interpretation_is_identity() {
        let (_, i, _) = setup();
        assert!(i.incorp().same_facts(i.base()));
    }

    #[test]
    fn incorp_delete_of_absent_atom_is_noop() {
        let (v, mut i, q) = setup();
        i.insert_marked(Sign::Delete, q, &r1(&v, "zz"));
        assert_eq!(i.incorp().sorted_display(), vec!["p", "q(a)"]);
    }

    #[test]
    fn incorp_insert_of_present_atom_is_noop() {
        let (v, mut i, q) = setup();
        i.insert_marked(Sign::Insert, q, &r1(&v, "a"));
        assert_eq!(i.incorp().sorted_display(), vec!["p", "q(a)"]);
    }

    #[test]
    fn display_uses_paper_notation() {
        let (v, mut i, q) = setup();
        i.insert_marked(Sign::Insert, q, &r1(&v, "b"));
        i.insert_marked(Sign::Delete, q, &r1(&v, "c"));
        assert_eq!(i.display(), "{p, q(a), +q(b), -q(c)}");
    }

    #[test]
    fn display_groups_marks_with_their_atom() {
        let (v, mut i, q) = setup();
        i.insert_marked(Sign::Delete, q, &r1(&v, "a"));
        // -q(a) sorts right after q(a), not after every unmarked atom.
        assert_eq!(i.display(), "{p, q(a), -q(a)}");
    }
}
