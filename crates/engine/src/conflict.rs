//! Conflicts, provenance, and the `SELECT` oracle interface.
//!
//! A *conflict* (Section 4.2) is a triple `(a, ins, del)`: a ground atom
//! together with the rule groundings voting for its insertion and for its
//! deletion. `conflicts(P, I)` "looks one step into the future": its sides
//! are groundings whose bodies are valid in `I`, whether or not `±a` is
//! already in `I`.
//!
//! ## Provenance (a documented clarification of the paper)
//!
//! Literal validity is non-monotone over an inflationary run (adding `+b`
//! can invalidate `¬b`), so a marked atom in `I` may have *no* currently
//! valid deriving grounding. If the opposite mark then becomes derivable,
//! `Γ` turns inconsistent while the letter of `conflicts(P, I)` offers no
//! grounding to block on one side. We therefore remember, per run, every
//! grounding that fired for each marked atom (its *provenance*) and include
//! those groundings in the conflict sides. On every program in the paper
//! this coincides with the paper's definition; in the degenerate case it
//! preserves the termination argument (every resolution blocks at least one
//! new grounding). See DESIGN.md §3.
//!
//! Blocked groundings are excluded from conflict sides — this matches the
//! paper's Section 5 computations, where after `r2` is blocked a later
//! conflict on `q` is presented as `({r5}, {r4})`, without `r2`.

use crate::compile::CompiledProgram;
use crate::gamma::FiredAction;
use crate::grounding::Grounding;
use crate::interp::IInterpretation;
use park_storage::{Code, FactStore, FxHashMap, PredId, Tuple, Value, Vocabulary};
use park_syntax::Sign;
use std::collections::HashSet;
use std::fmt;

/// The decision of a conflict-resolution policy for one conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resolution {
    /// Keep the insertion; block the deleting groundings.
    Insert,
    /// Keep the deletion; block the inserting groundings.
    Delete,
}

impl Resolution {
    /// `insert` or `delete`, as the paper writes it.
    pub fn as_str(self) -> &'static str {
        match self {
            Resolution::Insert => "insert",
            Resolution::Delete => "delete",
        }
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A conflict `(a, ins, del)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// The contested atom's predicate.
    pub pred: PredId,
    /// The contested atom's tuple.
    pub tuple: Tuple,
    /// Groundings deriving `+a`, sorted by (rule, substitution).
    pub ins: Vec<Grounding>,
    /// Groundings deriving `-a`, sorted by (rule, substitution).
    pub del: Vec<Grounding>,
}

impl Conflict {
    /// Render in the paper's notation:
    /// `(q(a), {(r1, [x <- a])}, {(r2, [x <- a])})`.
    pub fn display(&self, program: &CompiledProgram) -> String {
        let atom = program.vocab().display_fact(self.pred, &self.tuple);
        let side = |gs: &[Grounding]| {
            let items: Vec<String> = gs.iter().map(|g| g.display(program)).collect();
            format!("{{{}}}", items.join(", "))
        };
        format!("({atom}, {}, {})", side(&self.ins), side(&self.del))
    }

    /// The losing side under a resolution (the groundings to block).
    pub fn losing_side(&self, resolution: Resolution) -> &[Grounding] {
        match resolution {
            Resolution::Insert => &self.del,
            Resolution::Delete => &self.ins,
        }
    }
}

/// The context handed to `SELECT`: per the paper, the original database
/// instance `D`, the program `P`, and the current state of computation `I`.
#[derive(Debug)]
pub struct SelectContext<'a> {
    /// The original database instance `D`.
    pub database: &'a FactStore,
    /// The program being evaluated (`P_U` when updates are present).
    pub program: &'a CompiledProgram,
    /// The current i-interpretation `I`.
    pub interp: &'a IInterpretation,
}

/// The paper's `SELECT` function: a conflict-resolution policy.
///
/// `SELECT(D, P, I, c)` maps a conflict to `insert` or `delete`. Policies
/// may be stateful (`&mut self`) — interactive and random policies are —
/// and may fail (e.g. a scripted oracle running out of answers), which the
/// engine surfaces as [`crate::EngineError::Resolver`].
pub trait ConflictResolver {
    /// The policy's name, for traces and error messages.
    fn name(&self) -> &str;

    /// Decide one conflict.
    fn select(
        &mut self,
        ctx: &SelectContext<'_>,
        conflict: &Conflict,
    ) -> Result<Resolution, String>;
}

impl<T: ConflictResolver + ?Sized> ConflictResolver for &mut T {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn select(
        &mut self,
        ctx: &SelectContext<'_>,
        conflict: &Conflict,
    ) -> Result<Resolution, String> {
        (**self).select(ctx, conflict)
    }
}

impl<T: ConflictResolver + ?Sized> ConflictResolver for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn select(
        &mut self,
        ctx: &SelectContext<'_>,
        conflict: &Conflict,
    ) -> Result<Resolution, String> {
        (**self).select(ctx, conflict)
    }
}

/// The principle of inertia (Section 4.1): conflicting actions are ignored,
/// so the atom keeps its status in the *original* database `D` — `insert`
/// iff `a ∈ D`, else `delete`.
///
/// Lives in the engine crate (rather than `park-policies`) because the
/// paper uses it as the default throughout; `park-policies` re-exports it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Inertia;

impl ConflictResolver for Inertia {
    fn name(&self) -> &str {
        "inertia"
    }

    fn select(
        &mut self,
        ctx: &SelectContext<'_>,
        conflict: &Conflict,
    ) -> Result<Resolution, String> {
        if ctx.database.contains(conflict.pred, &conflict.tuple) {
            Ok(Resolution::Insert)
        } else {
            Ok(Resolution::Delete)
        }
    }
}

/// Per-run provenance: which groundings fired for each marked atom.
///
/// Keyed predicate-first, by *encoded row*, so the hot `record_all` path
/// can look rows up without cloning or decoding them. Each side is a hash
/// set: dedup of re-firings is O(1) per firing even when many groundings
/// derive the same atom (high fan-in), and conflict sides are sorted once
/// at collection time.
#[derive(Debug, Clone, Default)]
pub struct Provenance {
    map: FxHashMap<PredId, FxHashMap<Box<[Code]>, Sides>>,
    /// Running count of atoms with recorded provenance, so `len` does not
    /// walk every predicate's map.
    atoms: usize,
}

#[derive(Debug, Clone, Default)]
struct Sides {
    ins: HashSet<Grounding>,
    del: HashSet<Grounding>,
}

impl Sides {
    fn side_mut(&mut self, sign: Sign) -> &mut HashSet<Grounding> {
        match sign {
            Sign::Insert => &mut self.ins,
            Sign::Delete => &mut self.del,
        }
    }

    fn insert(&mut self, sign: Sign, g: &Grounding) {
        let side = self.side_mut(sign);
        // Clone only when new; the (overwhelmingly common) re-fire path is
        // lookup-only.
        if !side.contains(g) {
            side.insert(g.clone());
        }
    }
}

impl Provenance {
    /// Empty provenance (start of a run).
    pub fn new() -> Self {
        Provenance::default()
    }

    /// Record the firings of one consistent Γ step.
    pub fn record_all(&mut self, fired: &[FiredAction]) {
        for f in fired {
            let by_row = self.map.entry(f.pred).or_default();
            match by_row.get_mut(f.tuple.as_ref()) {
                Some(sides) => sides.insert(f.sign, &f.grounding),
                None => {
                    self.atoms += 1;
                    let mut sides = Sides::default();
                    sides.insert(f.sign, &f.grounding);
                    by_row.insert(f.tuple.clone(), sides);
                }
            }
        }
    }

    /// Forget everything (conflict restart), keeping the allocated maps so
    /// the next run's `record_all` reuses their capacity.
    pub fn clear(&mut self) {
        for by_row in self.map.values_mut() {
            by_row.clear();
        }
        self.atoms = 0;
    }

    /// Number of atoms with recorded provenance.
    pub fn len(&self) -> usize {
        self.atoms
    }

    /// True if nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.atoms == 0
    }

    fn sides(&self, pred: PredId, row: &[Code]) -> Option<&Sides> {
        self.map.get(&pred).and_then(|m| m.get(row))
    }

    /// Whether `f`'s grounding has already fired for its head in this run.
    #[cfg(debug_assertions)]
    pub(crate) fn has_fired(&self, f: &FiredAction) -> bool {
        self.sides(f.pred, &f.tuple).is_some_and(|s| match f.sign {
            Sign::Insert => s.ins.contains(&f.grounding),
            Sign::Delete => s.del.contains(&f.grounding),
        })
    }
}

/// Collect the conflicts among `fired` (one step into the future from `I`),
/// merged with the run's provenance.
///
/// Returns conflicts sorted by the rendered contested atom
/// ([`Vocabulary::display_fact`]) — the engine's resolution order, and the
/// order `SELECT` is consulted in. It is defined by the atoms alone, not by
/// the order the evaluator emitted `fired` in, so every evaluator and
/// thread count resolves the same conflict first under
/// [`crate::ResolutionScope::One`]. Each side is deduplicated and sorted by
/// `(rule, substitution)` under the *decoded* value ordering, so the
/// observable resolution transcript does not depend on interning order.
/// Contested atoms are decoded here: conflicts are the SELECT boundary,
/// where policies and traces need real values.
pub fn collect_conflicts(
    vocab: &Vocabulary,
    fired: &[FiredAction],
    provenance: &Provenance,
) -> Vec<Conflict> {
    // Group current firings by head atom (encoded).
    let mut sides: FxHashMap<(PredId, Box<[Code]>), Sides> = FxHashMap::default();
    for f in fired {
        sides
            .entry((f.pred, f.tuple.clone()))
            .or_default()
            .insert(f.sign, &f.grounding);
    }

    let empty = HashSet::new();
    let mut out = Vec::new();
    for (key, current) in &sides {
        let hist = provenance.sides(key.0, &key.1);
        let merge = |cur: &HashSet<Grounding>, hist: &HashSet<Grounding>| -> Vec<Grounding> {
            let mut v: Vec<Grounding> = cur.iter().cloned().collect();
            v.extend(hist.iter().filter(|g| !cur.contains(g)).cloned());
            // Cold path: decode each substitution once for the sort key.
            v.sort_by_cached_key(|g| {
                let vals: Vec<Value> = g.subst.iter().map(|&c| vocab.decode(c)).collect();
                (g.rule, vals)
            });
            v
        };
        let ins = merge(&current.ins, hist.map_or(&empty, |s| &s.ins));
        let del = merge(&current.del, hist.map_or(&empty, |s| &s.del));
        if !ins.is_empty() && !del.is_empty() {
            out.push(Conflict {
                pred: key.0,
                tuple: vocab.decode_row(&key.1),
                ins,
                del,
            });
        }
    }
    out.sort_by_cached_key(|c| vocab.display_fact(c.pred, &c.tuple));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{CompiledProgram, RuleId};
    use park_storage::{Value, Vocabulary};
    use park_syntax::parse_program;
    use std::sync::Arc;

    fn fired(v: &Vocabulary, rule: u32, sign: Sign, pred: PredId, val: i64) -> FiredAction {
        let c = v.encode(Value::Int(val));
        FiredAction {
            grounding: Grounding {
                rule: RuleId(rule),
                subst: Box::from([c]),
            },
            sign,
            pred,
            tuple: Box::from([c]),
        }
    }

    #[test]
    fn conflicts_require_both_sides() {
        let v = Vocabulary::new();
        let q = v.pred("q", 1).unwrap();
        let fs = vec![
            fired(&v, 0, Sign::Insert, q, 1),
            fired(&v, 1, Sign::Insert, q, 2), // no deletion for q(2)
            fired(&v, 2, Sign::Delete, q, 1),
        ];
        let cs = collect_conflicts(&v, &fs, &Provenance::new());
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].tuple, Tuple::new(vec![Value::Int(1)]));
        assert_eq!(cs[0].ins.len(), 1);
        assert_eq!(cs[0].del.len(), 1);
    }

    #[test]
    fn provenance_supplies_historical_side() {
        let v = Vocabulary::new();
        let q = v.pred("q", 1).unwrap();
        let mut prov = Provenance::new();
        prov.record_all(&[fired(&v, 0, Sign::Insert, q, 1)]);
        // Now only the deletion fires — the insertion's body is no longer
        // valid, but +q(1) is in I with recorded provenance.
        let cs = collect_conflicts(&v, &[fired(&v, 1, Sign::Delete, q, 1)], &prov);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].ins[0].rule, RuleId(0));
        assert_eq!(cs[0].del[0].rule, RuleId(1));
    }

    #[test]
    fn provenance_deduplicates_refirings() {
        let v = Vocabulary::new();
        let q = v.pred("q", 1).unwrap();
        let mut prov = Provenance::new();
        prov.record_all(&[fired(&v, 0, Sign::Insert, q, 1)]);
        prov.record_all(&[fired(&v, 0, Sign::Insert, q, 1)]);
        let cs = collect_conflicts(
            &v,
            &[
                fired(&v, 0, Sign::Insert, q, 1),
                fired(&v, 1, Sign::Delete, q, 1),
            ],
            &prov,
        );
        assert_eq!(cs[0].ins.len(), 1);
    }

    #[test]
    fn conflict_order_follows_the_rendered_atom() {
        // q(2) appears first in `fired`, but q(1) renders first: the
        // resolution order is the atoms', not the evaluator's.
        let v = Vocabulary::new();
        let q = v.pred("q", 1).unwrap();
        let fs = vec![
            fired(&v, 0, Sign::Insert, q, 2),
            fired(&v, 0, Sign::Insert, q, 1),
            fired(&v, 1, Sign::Delete, q, 1),
            fired(&v, 1, Sign::Delete, q, 2),
        ];
        let cs = collect_conflicts(&v, &fs, &Provenance::new());
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].tuple, Tuple::new(vec![Value::Int(1)]));
        assert_eq!(cs[1].tuple, Tuple::new(vec![Value::Int(2)]));
        // Any emission order of the same firings gives the same list.
        let mut reversed = fs.clone();
        reversed.reverse();
        assert_eq!(collect_conflicts(&v, &reversed, &Provenance::new()), cs);
    }

    #[test]
    fn sides_are_sorted_by_rule_then_subst() {
        let v = Vocabulary::new();
        let q = v.pred("q", 0).unwrap();
        let g = |rule: u32| FiredAction {
            grounding: Grounding {
                rule: RuleId(rule),
                subst: Box::from([]),
            },
            sign: Sign::Insert,
            pred: q,
            tuple: Box::from([]),
        };
        let mut del = g(0);
        del.sign = Sign::Delete;
        let cs = collect_conflicts(&v, &[g(2), g(1), del], &Provenance::new());
        let rules: Vec<u32> = cs[0].ins.iter().map(|x| x.rule.0).collect();
        assert_eq!(rules, vec![1, 2]);
    }

    #[test]
    fn side_sort_uses_decoded_values_not_intern_order() {
        // Spilled big integers get codes in allocation order; the side
        // sort must still follow the true value ordering.
        let v = Vocabulary::new();
        let q = v.pred("q", 0).unwrap();
        let big = 1i64 << 40;
        // Encode the larger value first: its spill code is the smaller.
        let hi = fired(&v, 0, Sign::Insert, q, big + 1);
        let lo = fired(&v, 0, Sign::Insert, q, big);
        let mut del = fired(&v, 1, Sign::Delete, q, 0);
        del.tuple = Box::from([]);
        let mut hi = hi;
        hi.tuple = Box::from([]);
        let mut lo = lo;
        lo.tuple = Box::from([]);
        let cs = collect_conflicts(&v, &[hi, lo, del], &Provenance::new());
        assert_eq!(cs.len(), 1);
        let decoded: Vec<Value> = cs[0].ins.iter().map(|g| v.decode(g.subst[0])).collect();
        assert_eq!(decoded, vec![Value::Int(big), Value::Int(big + 1)]);
    }

    #[test]
    fn inertia_follows_original_database() {
        let vocab = Vocabulary::new();
        let program = CompiledProgram::compile(
            Arc::clone(&vocab),
            &parse_program("p -> +q. p -> -q.").unwrap(),
        )
        .unwrap();
        let db = FactStore::from_source(Arc::clone(&vocab), "p. a.").unwrap();
        let interp = IInterpretation::from_database(db.clone());
        let ctx = SelectContext {
            database: &db,
            program: &program,
            interp: &interp,
        };
        let q = vocab.lookup_pred("q").unwrap();
        let a = vocab.lookup_pred("a").unwrap();
        let mk = |pred| Conflict {
            pred,
            tuple: Tuple::empty(),
            ins: vec![],
            del: vec![],
        };
        let mut inertia = Inertia;
        // q ∉ D → delete; a ∈ D → insert.
        assert_eq!(inertia.select(&ctx, &mk(q)).unwrap(), Resolution::Delete);
        assert_eq!(inertia.select(&ctx, &mk(a)).unwrap(), Resolution::Insert);
        assert_eq!(inertia.name(), "inertia");
    }

    #[test]
    fn losing_side_selection() {
        let v = Vocabulary::new();
        let q = v.pred("q", 1).unwrap();
        let cs = collect_conflicts(
            &v,
            &[
                fired(&v, 0, Sign::Insert, q, 1),
                fired(&v, 1, Sign::Delete, q, 1),
            ],
            &Provenance::new(),
        );
        assert_eq!(cs[0].losing_side(Resolution::Insert)[0].rule, RuleId(1));
        assert_eq!(cs[0].losing_side(Resolution::Delete)[0].rule, RuleId(0));
    }

    #[test]
    fn provenance_clear() {
        let v = Vocabulary::new();
        let q = v.pred("q", 1).unwrap();
        let mut prov = Provenance::new();
        prov.record_all(&[fired(&v, 0, Sign::Insert, q, 1)]);
        assert_eq!(prov.len(), 1);
        prov.clear();
        assert!(prov.is_empty());
    }

    #[test]
    fn provenance_clear_resets_count_and_stays_usable() {
        let v = Vocabulary::new();
        let q = v.pred("q", 1).unwrap();
        let mut prov = Provenance::new();
        prov.record_all(&[
            fired(&v, 0, Sign::Insert, q, 1),
            fired(&v, 1, Sign::Insert, q, 2),
        ]);
        assert_eq!(prov.len(), 2);
        prov.clear();
        assert_eq!(prov.len(), 0);
        // Recording after a clear counts fresh atoms (no stale entries
        // survive the allocation reuse) and supplies historical sides.
        prov.record_all(&[fired(&v, 0, Sign::Insert, q, 1)]);
        assert_eq!(prov.len(), 1);
        let cs = collect_conflicts(&v, &[fired(&v, 2, Sign::Delete, q, 1)], &prov);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].ins.len(), 1);
        assert_eq!(cs[0].ins[0].rule, RuleId(0));
    }

    #[test]
    fn high_fan_in_conflict_dedups_exactly() {
        // Hundreds of distinct groundings insert and delete the same atom,
        // each re-fired across two recorded steps: dedup must stay exact
        // and sides sorted. Regression test for the hash-set dedup in
        // `record_all`/`collect_conflicts` (previously quadratic
        // `Vec::contains` per contested atom).
        let v = Vocabulary::new();
        let q = v.pred("q", 0).unwrap();
        let act = |rule: u32, val: i64, sign: Sign| FiredAction {
            grounding: Grounding {
                rule: RuleId(rule),
                subst: Box::from([v.encode(Value::Int(val))]),
            },
            sign,
            pred: q,
            tuple: Box::from([]),
        };
        let n = 512usize;
        let mut fs = Vec::new();
        for i in 0..n {
            fs.push(act(0, i as i64, Sign::Insert));
            fs.push(act(1, i as i64, Sign::Delete));
        }
        let mut prov = Provenance::new();
        prov.record_all(&fs);
        prov.record_all(&fs);
        assert_eq!(prov.len(), 1);
        let cs = collect_conflicts(&v, &fs, &prov);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].ins.len(), n);
        assert_eq!(cs[0].del.len(), n);
        for side in [&cs[0].ins, &cs[0].del] {
            assert!(side
                .windows(2)
                .all(|w| (w[0].rule, &w[0].subst) < (w[1].rule, &w[1].subst)));
        }
    }
}
