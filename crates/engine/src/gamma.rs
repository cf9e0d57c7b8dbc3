//! The immediate consequence operator `Γ_{P,B}` (Section 4.2).
//!
//! For an i-interpretation `I`, `Γ_{P,B}(I)` is the smallest set containing
//! `I` and, for every rule `r ∈ P` and ground substitution `θ` with
//! `(r, θ) ∉ B` and every body literal of `rθ` valid in `I`, the marked head
//! `±l₀θ`.
//!
//! [`fire_all`] computes the *new* part: every non-blocked valid grounding
//! together with the update its head demands. The engine unions the results
//! into `I` (the inflationary step) after checking consistency.
//!
//! Evaluation follows each rule's compiled plan: binding literals probe the
//! appropriate interpretation zones through hash indexes, negated literals
//! run as residual filters. Everything happens in interned [`Code`] space —
//! probes, joins, guards, groundings and fired heads; values are only
//! decoded at the SELECT/trace boundary. Results are deterministic: rules
//! in id order, rows in relation insertion order.
//!
//! The engine itself evaluates on the compiled bytecode
//! ([`crate::bytecode`]). [`fire_all`] is its definitional reference: a
//! debug build checks every live Γ step of the fixpoint loop against it,
//! and the oracle, the baselines and the query reference check evaluate
//! through it.

use crate::compile::{CompiledLiteral, CompiledProgram, CompiledRule, LitKind, TermSlot};
use crate::grounding::{BlockedSet, Grounding};
use crate::interp::IInterpretation;
use crate::validity;
use park_storage::{Code, ColumnMask, PredId};
use park_syntax::Sign;

/// One firing of a rule grounding: the update its head demands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredAction {
    /// The rule instance that fired.
    pub grounding: Grounding,
    /// The head polarity.
    pub sign: Sign,
    /// The head predicate.
    pub pred: PredId,
    /// The head row, encoded.
    pub tuple: Box<[Code]>,
}

/// Reusable evaluation buffers: the variable bindings and one probe key per
/// plan step. Reusing them across groundings (and across rules) keeps the
/// innermost join loop free of heap allocation.
#[derive(Debug, Default)]
struct Scratch {
    bindings: Vec<Option<Code>>,
    keys: Vec<Vec<Code>>,
}

impl Scratch {
    /// Fresh, empty scratch.
    fn new() -> Self {
        Scratch::default()
    }

    /// Size the buffers for `rule` and clear stale bindings.
    fn prepare(&mut self, rule: &CompiledRule) {
        self.bindings.clear();
        self.bindings.resize(rule.num_vars as usize, None);
        if self.keys.len() < rule.plan.len() {
            self.keys.resize_with(rule.plan.len(), Vec::new);
        }
    }

    /// Borrow step `step`'s key buffer out of the scratch, refilled for the
    /// current bindings. Must be returned with [`Scratch::put_key`] (the
    /// take/put split lets the probe iterator borrow the key while the
    /// recursion below it borrows the scratch mutably).
    fn take_key(&mut self, step: usize, terms: &[TermSlot], mask: ColumnMask) -> Vec<Code> {
        let mut key = std::mem::take(&mut self.keys[step]);
        key.clear();
        let bindings = &self.bindings;
        key.extend(mask.cols().map(|c| match terms[c] {
            TermSlot::Const(v) => v,
            TermSlot::Var(s) => bindings[s as usize].expect("mask columns are bound"),
        }));
        key
    }

    /// Return a key buffer taken with [`Scratch::take_key`], keeping its
    /// capacity for the next grounding.
    fn put_key(&mut self, step: usize, key: Vec<Code>) {
        self.keys[step] = key;
    }
}

/// Compute every non-blocked rule grounding whose body is valid in `interp`,
/// with the update each one derives: rules in id order, on the calling
/// thread.
pub fn fire_all(
    program: &CompiledProgram,
    blocked: &BlockedSet,
    interp: &IInterpretation,
) -> Vec<FiredAction> {
    let mut out = Vec::new();
    let mut scratch = Scratch::new();
    for rule in program.rules() {
        fire_rule_in(rule, blocked, interp, &mut scratch, &mut out);
    }
    out
}

/// Compute the firings of a single rule.
pub fn fire_rule(
    rule: &CompiledRule,
    blocked: &BlockedSet,
    interp: &IInterpretation,
    out: &mut Vec<FiredAction>,
) {
    fire_rule_in(rule, blocked, interp, &mut Scratch::new(), out);
}

/// [`fire_rule`] against caller-provided scratch.
fn fire_rule_in(
    rule: &CompiledRule,
    blocked: &BlockedSet,
    interp: &IInterpretation,
    scratch: &mut Scratch,
    out: &mut Vec<FiredAction>,
) {
    scratch.prepare(rule);
    match_step(rule, blocked, interp, 0, scratch, out);
}

fn match_step(
    rule: &CompiledRule,
    blocked: &BlockedSet,
    interp: &IInterpretation,
    step: usize,
    scratch: &mut Scratch,
    out: &mut Vec<FiredAction>,
) {
    if step == rule.plan.len() {
        // All body literals satisfied; by safety every variable is bound.
        let subst: Box<[Code]> = scratch
            .bindings
            .iter()
            .map(|b| b.expect("safety guarantees total bindings"))
            .collect();
        let grounding = Grounding {
            rule: rule.id,
            subst,
        };
        if !blocked.contains(&grounding) {
            let tuple = rule.head.instantiate(&grounding.subst);
            out.push(FiredAction {
                sign: rule.head_sign,
                pred: rule.head.pred,
                tuple,
                grounding,
            });
        }
        return;
    }
    let planned = rule.plan[step];
    let lit = &rule.body[planned.lit];
    let CompiledLiteral::Atom { kind, atom } = lit else {
        // A comparison guard: all variables bound, pure filter.
        if lit.eval_guard(interp.vocab(), &scratch.bindings) {
            match_step(rule, blocked, interp, step + 1, scratch, out);
        }
        return;
    };
    match *kind {
        LitKind::Neg => {
            // All variables bound: a pure validity test.
            let row = instantiate_bound(&atom.terms, &scratch.bindings);
            if validity::valid_neg(interp, atom.pred, &row) {
                match_step(rule, blocked, interp, step + 1, scratch, out);
            }
        }
        LitKind::Pos => {
            let key = scratch.take_key(step, &atom.terms, planned.mask);
            // a is valid iff a ∈ I° or +a ∈ I⁺; enumerate both zones but
            // skip I⁺ rows also present in I° to keep groundings unique.
            if let Some(rel) = interp.base().relation(atom.pred) {
                for t in rel.probe(planned.mask, &key) {
                    try_extend(rule, blocked, interp, step, scratch, out, &atom.terms, t);
                }
            }
            if let Some(rel) = interp.plus().relation(atom.pred) {
                for t in rel.probe(planned.mask, &key) {
                    if interp.base().contains_row(atom.pred, t) {
                        continue;
                    }
                    try_extend(rule, blocked, interp, step, scratch, out, &atom.terms, t);
                }
            }
            scratch.put_key(step, key);
        }
        LitKind::Event(sign) => {
            let key = scratch.take_key(step, &atom.terms, planned.mask);
            let zone = match sign {
                Sign::Insert => interp.plus(),
                Sign::Delete => interp.minus(),
            };
            if let Some(rel) = zone.relation(atom.pred) {
                for t in rel.probe(planned.mask, &key) {
                    try_extend(rule, blocked, interp, step, scratch, out, &atom.terms, t);
                }
            }
            scratch.put_key(step, key);
        }
    }
}

/// Attempt to match `row` against the literal pattern under the current
/// bindings; on success, recurse into the next plan step and then undo the
/// new bindings.
#[allow(clippy::too_many_arguments)]
fn try_extend(
    rule: &CompiledRule,
    blocked: &BlockedSet,
    interp: &IInterpretation,
    step: usize,
    scratch: &mut Scratch,
    out: &mut Vec<FiredAction>,
    terms: &[TermSlot],
    row: &[Code],
) {
    let mut newly_bound: smallvec_inline::InlineVec = smallvec_inline::InlineVec::new();
    let mut ok = true;
    for (pos, slot) in terms.iter().enumerate() {
        let v = row[pos];
        match *slot {
            TermSlot::Const(c) => {
                if c != v {
                    ok = false;
                    break;
                }
            }
            TermSlot::Var(s) => match scratch.bindings[s as usize] {
                Some(b) => {
                    if b != v {
                        ok = false;
                        break;
                    }
                }
                None => {
                    scratch.bindings[s as usize] = Some(v);
                    newly_bound.push(s);
                }
            },
        }
    }
    if ok {
        match_step(rule, blocked, interp, step + 1, scratch, out);
    }
    for s in newly_bound.iter() {
        scratch.bindings[*s as usize] = None;
    }
}

/// Instantiate a fully-bound pattern.
fn instantiate_bound(terms: &[TermSlot], bindings: &[Option<Code>]) -> Box<[Code]> {
    terms
        .iter()
        .map(|t| match *t {
            TermSlot::Const(v) => v,
            TermSlot::Var(s) => bindings[s as usize].expect("negation scheduled after binding"),
        })
        .collect()
}

/// A tiny fixed-capacity vector for per-literal newly-bound slots, avoiding
/// a heap allocation in the innermost join loop.
mod smallvec_inline {
    const CAP: usize = 8;

    pub struct InlineVec {
        buf: [u16; CAP],
        len: usize,
        spill: Vec<u16>,
    }

    impl InlineVec {
        pub fn new() -> Self {
            InlineVec {
                buf: [0; CAP],
                len: 0,
                spill: Vec::new(),
            }
        }

        pub fn push(&mut self, v: u16) {
            if self.len < CAP {
                self.buf[self.len] = v;
                self.len += 1;
            } else {
                self.spill.push(v);
            }
        }

        pub fn iter(&self) -> impl Iterator<Item = &u16> {
            self.buf[..self.len].iter().chain(self.spill.iter())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use park_storage::{FactStore, Tuple, UpdateSet, Value, Vocabulary};
    use park_syntax::parse_program;
    use std::sync::Arc;

    fn setup(rules: &str, facts: &str) -> (CompiledProgram, IInterpretation) {
        let vocab = Vocabulary::new();
        let program =
            CompiledProgram::compile(Arc::clone(&vocab), &parse_program(rules).unwrap()).unwrap();
        let db = FactStore::from_source(vocab, facts).unwrap();
        (program, IInterpretation::from_database(db))
    }

    fn row1(v: &Vocabulary, s: &str) -> [Code; 1] {
        [v.encode(Value::Sym(v.sym(s)))]
    }

    fn fired_display(program: &CompiledProgram, fired: &[FiredAction]) -> Vec<String> {
        let v = program.vocab();
        let mut out: Vec<String> = fired
            .iter()
            .map(|f| format!("{}{}", f.sign, v.display_row(f.pred, &f.tuple)))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn fires_simple_rule_per_matching_fact() {
        let (p, i) = setup("p(X) -> +q(X).", "p(a). p(b). r(c).");
        let fired = fire_all(&p, &BlockedSet::new(), &i);
        assert_eq!(fired_display(&p, &fired), vec!["+q(a)", "+q(b)"]);
    }

    #[test]
    fn join_across_two_literals() {
        let (p, i) = setup(
            "e(X, Y), e(Y, Z) -> +tc(X, Z).",
            "e(a, b). e(b, c). e(c, d).",
        );
        let fired = fire_all(&p, &BlockedSet::new(), &i);
        assert_eq!(fired_display(&p, &fired), vec!["+tc(a, c)", "+tc(b, d)"]);
    }

    #[test]
    fn cartesian_product_when_no_shared_vars() {
        let (p, i) = setup("p(X), p(Y) -> +q(X, Y).", "p(a). p(b).");
        let fired = fire_all(&p, &BlockedSet::new(), &i);
        assert_eq!(fired.len(), 4);
    }

    #[test]
    fn negation_filters() {
        let (p, i) = setup(
            "emp(X), !active(X) -> -payroll(X).",
            "emp(a). emp(b). active(a).",
        );
        let fired = fire_all(&p, &BlockedSet::new(), &i);
        assert_eq!(fired_display(&p, &fired), vec!["-payroll(b)"]);
    }

    #[test]
    fn negation_sees_plus_marks() {
        let (p, mut i) = setup("emp(X), !active(X) -> -payroll(X).", "emp(a). emp(b).");
        let v = Arc::clone(p.vocab());
        let active = v.pred("active", 1).unwrap();
        i.insert_marked(Sign::Insert, active, &row1(&v, "a"));
        let fired = fire_all(&p, &BlockedSet::new(), &i);
        assert_eq!(fired_display(&p, &fired), vec!["-payroll(b)"]);
    }

    #[test]
    fn negation_satisfied_by_pending_delete() {
        let (p, mut i) = setup("emp(X), !active(X) -> -payroll(X).", "emp(a). active(a).");
        let v = Arc::clone(p.vocab());
        let active = v.lookup_pred("active").unwrap();
        // -active(a) makes !active(a) valid even though active(a) ∈ I°.
        i.insert_marked(Sign::Delete, active, &row1(&v, "a"));
        let fired = fire_all(&p, &BlockedSet::new(), &i);
        assert_eq!(fired_display(&p, &fired), vec!["-payroll(a)"]);
    }

    #[test]
    fn positive_literal_sees_plus_zone_without_duplicates() {
        let (p, mut i) = setup("p(X) -> +q(X).", "p(a).");
        let v = Arc::clone(p.vocab());
        let pp = v.lookup_pred("p").unwrap();
        // +p(a) duplicates the base fact; +p(b) is new.
        i.insert_marked(Sign::Insert, pp, &row1(&v, "a"));
        i.insert_marked(Sign::Insert, pp, &row1(&v, "b"));
        let fired = fire_all(&p, &BlockedSet::new(), &i);
        assert_eq!(fired_display(&p, &fired), vec!["+q(a)", "+q(b)"]);
        assert_eq!(fired.len(), 2, "no duplicate groundings");
    }

    #[test]
    fn event_literals_match_only_marks() {
        let (p, mut i) = setup("+r(X) -> -s(X).", "r(a). s(a). s(b).");
        // r(a) unmarked is not the event +r(a).
        assert!(fire_all(&p, &BlockedSet::new(), &i).is_empty());
        let v = Arc::clone(p.vocab());
        let r = v.lookup_pred("r").unwrap();
        i.insert_marked(Sign::Insert, r, &row1(&v, "b"));
        let fired = fire_all(&p, &BlockedSet::new(), &i);
        assert_eq!(fired_display(&p, &fired), vec!["-s(b)"]);
    }

    #[test]
    fn delete_event_literal() {
        let (p, mut i) = setup("-s(X) -> +log(X).", "s(a).");
        let v = Arc::clone(p.vocab());
        let s = v.lookup_pred("s").unwrap();
        i.insert_marked(Sign::Delete, s, &row1(&v, "a"));
        let fired = fire_all(&p, &BlockedSet::new(), &i);
        assert_eq!(fired_display(&p, &fired), vec!["+log(a)"]);
    }

    #[test]
    fn blocked_groundings_do_not_fire() {
        let (p, i) = setup("p(X) -> +q(X).", "p(a). p(b).");
        let v = p.vocab();
        let mut blocked = BlockedSet::new();
        blocked.insert(Grounding {
            rule: crate::compile::RuleId(0),
            subst: Box::from(row1(v, "a")),
        });
        let fired = fire_all(&p, &blocked, &i);
        assert_eq!(fired_display(&p, &fired), vec!["+q(b)"]);
    }

    #[test]
    fn repeated_variable_requires_equal_columns() {
        let (p, i) = setup("q(X, X) -> -q(X, X).", "q(a, a). q(a, b). q(b, b).");
        let fired = fire_all(&p, &BlockedSet::new(), &i);
        assert_eq!(fired_display(&p, &fired), vec!["-q(a, a)", "-q(b, b)"]);
    }

    #[test]
    fn constants_in_body_restrict_matches() {
        let (p, i) = setup("q(X, a) -> -p(X, a).", "q(x, a). q(y, b). p(x, a).");
        let fired = fire_all(&p, &BlockedSet::new(), &i);
        assert_eq!(fired_display(&p, &fired), vec!["-p(x, a)"]);
    }

    #[test]
    fn bodyless_update_rules_always_fire() {
        let (p, i) = setup("p(X) -> +q(X).", "p(a).");
        let v = Arc::clone(p.vocab());
        let mut u = UpdateSet::empty();
        let q = v.lookup_pred("q").unwrap();
        u.insert(q, Tuple::new(vec![Value::Sym(v.sym("b"))]));
        let pu = p.with_updates(&u);
        let fired = fire_all(&pu, &BlockedSet::new(), &i);
        assert_eq!(fired_display(&pu, &fired), vec!["+q(a)", "+q(b)"]);
    }

    #[test]
    fn propositional_rules() {
        let (p, i) = setup("p -> +q. q -> +a.", "p.");
        let fired = fire_all(&p, &BlockedSet::new(), &i);
        assert_eq!(fired_display(&p, &fired), vec!["+q"]);
    }

    #[test]
    fn paper_irreflexive_graph_first_step() {
        let (p, i) = setup(
            "r1: p(X), p(Y) -> +q(X, Y).
             r2: q(X, X) -> -q(X, X).
             r3: q(X, Y), q(X, Z), q(Z, Y) -> -q(X, Y).",
            "p(a). p(b). p(c).",
        );
        let fired = fire_all(&p, &BlockedSet::new(), &i);
        // First application of Γ: only r1 fires, 9 groundings.
        assert_eq!(fired.len(), 9);
        assert!(fired.iter().all(|f| f.sign == Sign::Insert));
    }

    #[test]
    fn integer_guards_filter() {
        let (p, i) = setup(
            "stock(I, Q), Q < 10 -> +low(I).",
            "stock(a, 5). stock(b, 10). stock(c, 9). stock(d, 100).",
        );
        let fired = fire_all(&p, &BlockedSet::new(), &i);
        assert_eq!(fired_display(&p, &fired), vec!["+low(a)", "+low(c)"]);
    }

    #[test]
    fn inequality_guard_on_symbols() {
        let (p, i) = setup("p(X), p(Y), X != Y -> +pair(X, Y).", "p(a). p(b).");
        let fired = fire_all(&p, &BlockedSet::new(), &i);
        assert_eq!(
            fired_display(&p, &fired),
            vec!["+pair(a, b)", "+pair(b, a)"]
        );
    }

    #[test]
    fn equality_guard_with_constant() {
        let (p, i) = setup("p(X), X = a -> -p(X).", "p(a). p(b).");
        let fired = fire_all(&p, &BlockedSet::new(), &i);
        assert_eq!(fired_display(&p, &fired), vec!["-p(a)"]);
    }

    #[test]
    fn ordered_comparison_on_symbols_is_false() {
        // `<` is integer-only; symbol operands fail the guard.
        let (p, i) = setup("p(X), X < 10 -> +q(X).", "p(a). p(3).");
        let fired = fire_all(&p, &BlockedSet::new(), &i);
        assert_eq!(fired_display(&p, &fired), vec!["+q(3)"]);
    }

    #[test]
    fn guard_order_in_source_is_irrelevant() {
        let (p1, i1) = setup(
            "Q >= 10, stock(I, Q) -> +high(I).",
            "stock(a, 15). stock(b, 5).",
        );
        let fired = fire_all(&p1, &BlockedSet::new(), &i1);
        assert_eq!(fired_display(&p1, &fired), vec!["+high(a)"]);
    }

    #[test]
    fn guards_combine_with_negation_and_events() {
        let (p, mut i) = setup(
            "+restock(I, Q), Q > 0, !discontinued(I) -> +order(I, Q).",
            "discontinued(b).",
        );
        let v = Arc::clone(p.vocab());
        let restock = v.lookup_pred("restock").unwrap();
        let mk = |s: &str, q: i64| [v.encode(Value::Sym(v.sym(s))), v.encode(Value::Int(q))];
        i.insert_marked(Sign::Insert, restock, &mk("a", 5));
        i.insert_marked(Sign::Insert, restock, &mk("b", 5)); // discontinued
        i.insert_marked(Sign::Insert, restock, &mk("c", 0)); // zero quantity
        let fired = fire_all(&p, &BlockedSet::new(), &i);
        assert_eq!(fired_display(&p, &fired), vec!["+order(a, 5)"]);
    }

    #[test]
    fn determinism_of_fire_order() {
        let (p, i) = setup("p(X), p(Y) -> +q(X, Y).", "p(a). p(b). p(c).");
        let a = fire_all(&p, &BlockedSet::new(), &i);
        let b = fire_all(&p, &BlockedSet::new(), &i);
        assert_eq!(a, b);
    }
}
