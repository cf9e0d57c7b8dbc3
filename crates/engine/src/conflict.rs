//! Conflicts, their historical sides, and the `SELECT` oracle interface.
//!
//! A *conflict* (Section 4.2) is a triple `(a, ins, del)`: a ground atom
//! together with the rule groundings voting for its insertion and for its
//! deletion. `conflicts(P, I)` "looks one step into the future": its sides
//! are groundings whose bodies are valid in `I`, whether or not `±a` is
//! already in `I`.
//!
//! ## Historical sides (a documented clarification of the paper)
//!
//! Literal validity is non-monotone over an inflationary run (adding `+b`
//! can invalidate `¬b`), so a marked atom in `I` may have *no* currently
//! valid deriving grounding. If the opposite mark then becomes derivable,
//! `Γ` turns inconsistent while the letter of `conflicts(P, I)` offers no
//! grounding to block on one side. Each conflict side therefore also holds
//! every grounding that fired for the atom earlier in the run, read from
//! the run's firing log ([`StepLog`]). On every program in the paper this
//! coincides with the paper's definition; in the degenerate case it
//! preserves the termination argument (every resolution blocks at least
//! one new grounding). See DESIGN.md §3.
//!
//! Blocked groundings are excluded from conflict sides — this matches the
//! paper's Section 5 computations, where after `r2` is blocked a later
//! conflict on `q` is presented as `({r5}, {r4})`, without `r2`.

use crate::compile::CompiledProgram;
use crate::gamma::FiredAction;
use crate::grounding::Grounding;
use crate::interp::IInterpretation;
use crate::replay::StepLog;
use park_storage::{Code, FactStore, FxHashMap, FxHashSet, PredId, Tuple, Value, Vocabulary};
use park_syntax::Sign;
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

/// Collect the conflicts among `fired`, one step into the future from
/// `interp`, with each contested atom's historical sides taken from `log`.
///
/// `log` must hold every firing of the run so far, and `interp`'s marked
/// zones exactly their heads, as in the engine's runs: a run starts from
/// `I° = D` with empty marked zones, and each consistent step marks its
/// firings' heads. An atom is contested iff it has an insertion side and a
/// deletion side, each from `fired` or from the marks; only contested
/// atoms are grouped, and the log is read only when some atom is.
///
/// Returns conflicts sorted by the rendered contested atom
/// ([`Vocabulary::display_fact`]) — the engine's resolution order, and the
/// order `SELECT` is consulted in. It is defined by the atoms alone, not by
/// the order the evaluator emitted `fired` in, so every enumeration order
/// resolves the same conflict first under
/// [`crate::ResolutionScope::One`]. Each side is deduplicated and sorted by
/// `(rule, substitution)` under the *decoded* value ordering, so the
/// observable resolution transcript does not depend on interning order.
/// Contested atoms are decoded here: conflicts are the SELECT boundary,
/// where policies and traces need real values.
pub fn collect_conflicts(
    vocab: &Vocabulary,
    fired: &[FiredAction],
    interp: &IInterpretation,
    log: &StepLog,
) -> Vec<Conflict> {
    into_conflicts(vocab, contested_sides(fired, interp, log))
}

/// An encoded head atom.
type Head<'a> = (PredId, &'a [Code]);

/// The contested atoms of `fired` with their unsorted sides, insertion
/// first: every grounding of `fired` and `log` that derives them.
fn contested_sides<'a>(
    fired: &'a [FiredAction],
    interp: &IInterpretation,
    log: &'a StepLog,
) -> FxHashMap<Head<'a>, [Vec<Grounding>; 2]> {
    let mut contested = FxHashMap::default();
    let deletions = fired.iter().filter(|f| f.sign == Sign::Delete).count();
    let insertions = fired.len() - deletions;
    let marked = [!interp.plus().is_empty(), !interp.minus().is_empty()];
    if (insertions == 0 && !marked[0]) || (deletions == 0 && !marked[1]) {
        return contested;
    }
    // The heads of the sign that fired less often go in a set, which the
    // other sign's firings probe; either sign probes the opposite marks.
    let fewer = if deletions <= insertions {
        Sign::Delete
    } else {
        Sign::Insert
    };
    let mut fewer_heads: FxHashSet<Head<'_>> =
        FxHashSet::with_capacity_and_hasher(deletions.min(insertions), Default::default());
    fewer_heads.extend(
        fired
            .iter()
            .filter(|f| f.sign == fewer)
            .map(|f| (f.pred, &*f.tuple)),
    );
    for f in fired {
        let head = (f.pred, &*f.tuple);
        let opposite = f.sign.flip();
        if (f.sign != fewer && fewer_heads.contains(&head))
            || (marked[side(opposite)] && interp.contains_marked(opposite, f.pred, &f.tuple))
        {
            contested.insert(head, [Vec::new(), Vec::new()]);
        }
    }
    if contested.is_empty() {
        return contested;
    }
    // The log holds every firing of the run: a predicate test skips most
    // of them before the hash lookup.
    let mut preds: Vec<PredId> = contested.keys().map(|&(p, _)| p).collect();
    preds.sort_unstable();
    preds.dedup();
    for f in fired.iter().chain(log.firings()) {
        if preds.contains(&f.pred) {
            if let Some(sides) = contested.get_mut(&(f.pred, &*f.tuple)) {
                sides[side(f.sign)].push(f.grounding.clone());
            }
        }
    }
    contested
}

/// The index of a sign's side: insertion 0, deletion 1.
fn side(sign: Sign) -> usize {
    match sign {
        Sign::Insert => 0,
        Sign::Delete => 1,
    }
}

/// One conflict side, deduplicated (a grounding may fire in several steps)
/// and sorted by `(rule, decoded substitution)`.
fn sorted_side(vocab: &Vocabulary, mut side: Vec<Grounding>) -> Vec<Grounding> {
    // Cold path: decode each substitution once for the sort key. Equal
    // keys mean equal groundings, so duplicates end up adjacent.
    side.sort_by_cached_key(|g| {
        let vals: Vec<Value> = g.subst.iter().map(|&c| vocab.decode(c)).collect();
        (g.rule, vals)
    });
    side.dedup();
    side
}

/// Conflicts from contested atoms and their sides, in resolution order:
/// by rendered contested atom.
fn into_conflicts<'a>(
    vocab: &Vocabulary,
    contested: impl IntoIterator<Item = (Head<'a>, [Vec<Grounding>; 2])>,
) -> Vec<Conflict> {
    let mut conflicts: Vec<Conflict> = contested
        .into_iter()
        .map(|((pred, row), [ins, del])| Conflict {
            pred,
            tuple: vocab.decode_row(row),
            ins: sorted_side(vocab, ins),
            del: sorted_side(vocab, del),
        })
        .collect();
    conflicts.sort_by_cached_key(|c| vocab.display_fact(c.pred, &c.tuple));
    conflicts
}

/// The reference for [`collect_conflicts`], which debug builds compare
/// with every collection: group every firing of `log` and `fired` by head
/// and keep the atoms that have both signs.
#[cfg(any(test, debug_assertions))]
pub(crate) fn naive_conflicts(
    vocab: &Vocabulary,
    fired: &[FiredAction],
    log: &StepLog,
) -> Vec<Conflict> {
    let mut by_head: FxHashMap<Head<'_>, [Vec<Grounding>; 2]> = FxHashMap::default();
    for f in log.firings().chain(fired) {
        by_head.entry((f.pred, &*f.tuple)).or_default()[side(f.sign)].push(f.grounding.clone());
    }
    let contested = by_head
        .into_iter()
        .filter(|(_, [ins, del])| !ins.is_empty() && !del.is_empty());
    into_conflicts(vocab, contested)
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

    /// A run in progress, kept as the engine keeps it: the firing log of
    /// its consistent steps, and their heads as marks over an empty `D`.
    struct Run {
        interp: IInterpretation,
        log: StepLog,
    }

    impl Run {
        fn new(v: &Arc<Vocabulary>) -> Self {
            Run {
                interp: IInterpretation::from_database(FactStore::new(Arc::clone(v))),
                log: StepLog::new(),
            }
        }

        fn step(&mut self, fired: Vec<FiredAction>) {
            for f in &fired {
                self.interp.insert_marked(f.sign, f.pred, &f.tuple);
            }
            self.log.push_step(fired);
        }

        fn conflicts(&self, fired: &[FiredAction]) -> Vec<Conflict> {
            let vocab = self.interp.vocab();
            let conflicts = collect_conflicts(vocab, fired, &self.interp, &self.log);
            assert_eq!(conflicts, naive_conflicts(vocab, fired, &self.log));
            conflicts
        }
    }

    /// The conflicts of a run's first step.
    fn first_step(v: &Arc<Vocabulary>, fired: &[FiredAction]) -> Vec<Conflict> {
        Run::new(v).conflicts(fired)
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
        let cs = first_step(&v, &fs);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].tuple, Tuple::new(vec![Value::Int(1)]));
        assert_eq!(cs[0].ins.len(), 1);
        assert_eq!(cs[0].del.len(), 1);
    }

    #[test]
    fn the_log_supplies_the_historical_side() {
        let v = Vocabulary::new();
        let q = v.pred("q", 1).unwrap();
        let mut run = Run::new(&v);
        run.step(vec![
            fired(&v, 0, Sign::Insert, q, 1),
            fired(&v, 3, Sign::Insert, q, 2),
        ]);
        // Now only the deletion fires — the insertion's body is no longer
        // valid, but +q(1) is in I and its grounding is in the log.
        let cs = run.conflicts(&[fired(&v, 1, Sign::Delete, q, 1)]);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].tuple, Tuple::new(vec![Value::Int(1)]));
        assert_eq!(cs[0].ins.len(), 1);
        assert_eq!(cs[0].ins[0].rule, RuleId(0));
        assert_eq!(cs[0].del[0].rule, RuleId(1));
    }

    #[test]
    fn the_historical_side_can_be_a_deletion() {
        let v = Vocabulary::new();
        let q = v.pred("q", 1).unwrap();
        let mut run = Run::new(&v);
        run.step(vec![fired(&v, 1, Sign::Delete, q, 1)]);
        let cs = run.conflicts(&[fired(&v, 0, Sign::Insert, q, 1)]);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].ins[0].rule, RuleId(0));
        assert_eq!(cs[0].del[0].rule, RuleId(1));
    }

    #[test]
    fn refirings_are_deduplicated() {
        // The grounding fired in two earlier steps and fires again now
        // (a negation-fallback full pass refires what already fired): it
        // is one member of its side.
        let v = Vocabulary::new();
        let q = v.pred("q", 1).unwrap();
        let mut run = Run::new(&v);
        run.step(vec![fired(&v, 0, Sign::Insert, q, 1)]);
        run.step(vec![fired(&v, 0, Sign::Insert, q, 1)]);
        let cs = run.conflicts(&[
            fired(&v, 0, Sign::Insert, q, 1),
            fired(&v, 1, Sign::Delete, q, 1),
        ]);
        assert_eq!(cs[0].ins.len(), 1);
        assert_eq!(cs[0].del.len(), 1);
    }

    #[test]
    fn both_sides_in_the_log_and_the_step_merge() {
        // +q(1) fired earlier by rule 0 and fires now by rule 2: both vote
        // for the insertion against the new deletion.
        let v = Vocabulary::new();
        let q = v.pred("q", 1).unwrap();
        let mut run = Run::new(&v);
        run.step(vec![fired(&v, 0, Sign::Insert, q, 1)]);
        let cs = run.conflicts(&[
            fired(&v, 2, Sign::Insert, q, 1),
            fired(&v, 1, Sign::Delete, q, 1),
        ]);
        let rules: Vec<u32> = cs[0].ins.iter().map(|g| g.rule.0).collect();
        assert_eq!(rules, vec![0, 2]);
    }

    #[test]
    fn provenance_clear() {
        // A run's provenance (which grounding supplied each mark) is its
        // firing log. A conflict restart begins a new run from `D` with a
        // new, empty log: nothing of the previous run is carried over.
        let v = Vocabulary::new();
        let q = v.pred("q", 1).unwrap();
        let mut before = Run::new(&v);
        before.step(vec![fired(&v, 0, Sign::Insert, q, 1)]);
        assert_eq!(before.log.firings().count(), 1);
        let after = Run::new(&v);
        assert_eq!(after.log.firings().count(), 0);
        assert_eq!(after.interp.marked_len(), 0);
    }

    #[test]
    fn provenance_clear_resets_count_and_stays_usable() {
        // After a restart the previous run's firings are no side of the
        // new run's conflicts; the new run's own firings count afresh and
        // supply historical sides.
        let v = Vocabulary::new();
        let q = v.pred("q", 1).unwrap();
        let mut before = Run::new(&v);
        before.step(vec![
            fired(&v, 0, Sign::Insert, q, 1),
            fired(&v, 1, Sign::Insert, q, 2),
        ]);
        assert_eq!(before.log.firings().count(), 2);
        let mut after = Run::new(&v);
        assert_eq!(after.log.firings().count(), 0);
        assert!(after
            .conflicts(&[fired(&v, 2, Sign::Delete, q, 1)])
            .is_empty());
        after.step(vec![fired(&v, 3, Sign::Insert, q, 1)]);
        assert_eq!(after.log.firings().count(), 1);
        let cs = after.conflicts(&[fired(&v, 2, Sign::Delete, q, 1)]);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].ins.len(), 1);
        assert_eq!(cs[0].ins[0].rule, RuleId(3));
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
        let cs = first_step(&v, &fs);
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].tuple, Tuple::new(vec![Value::Int(1)]));
        assert_eq!(cs[1].tuple, Tuple::new(vec![Value::Int(2)]));
        // Any emission order of the same firings gives the same list.
        let mut reversed = fs.clone();
        reversed.reverse();
        assert_eq!(first_step(&v, &reversed), cs);
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
        let cs = first_step(&v, &[g(2), g(1), del]);
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
        let cs = first_step(&v, &[hi, lo, del]);
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
        let cs = first_step(
            &v,
            &[
                fired(&v, 0, Sign::Insert, q, 1),
                fired(&v, 1, Sign::Delete, q, 1),
            ],
        );
        assert_eq!(cs[0].losing_side(Resolution::Insert)[0].rule, RuleId(1));
        assert_eq!(cs[0].losing_side(Resolution::Delete)[0].rule, RuleId(0));
    }

    #[test]
    fn high_fan_in_conflict_dedups_exactly() {
        // Hundreds of distinct groundings insert the same atom in two
        // earlier steps and again now, when as many delete it: dedup must
        // stay exact and sides sorted.
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
        let insertions: Vec<FiredAction> = (0..n).map(|i| act(0, i as i64, Sign::Insert)).collect();
        let mut run = Run::new(&v);
        run.step(insertions.clone());
        run.step(insertions.clone());
        let mut fs = insertions;
        fs.extend((0..n).map(|i| act(1, i as i64, Sign::Delete)));
        let cs = run.conflicts(&fs);
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
