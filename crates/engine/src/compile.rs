//! Rule compilation: from AST rules to executable match plans.
//!
//! Compilation (a) checks the paper's safety conditions, (b) interns all
//! predicates and constants against the shared vocabulary, (c) numbers each
//! rule's variables into dense slots, and (d) runs a greedy join planner
//! that orders body literals by boundness so that evaluation can drive
//! indexed lookups. The planner also records which `(predicate, column
//! mask, zone)` indexes evaluation will want, so the engine can build them
//! up front.

use crate::error::{EngineError, EngineResult};
use crate::validity::MarkZone;
use park_storage::{Code, ColumnMask, PredId, UpdateSet, Value, Vocabulary};
use park_syntax::{check_rule, Atom, BodyLiteral, CompOp, Head, Program, Rule, Sign, Term};
use std::collections::HashMap;
use std::sync::Arc;

/// Identifies a rule within a [`CompiledProgram`] (index into its rule
/// vector). Transaction-update rules of `P_U` get ids after the program's
/// own rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u32);

/// A term position in a compiled atom: a constant or a variable slot.
///
/// Constants are interned at compile time, so matching and instantiation
/// work entirely in encoded [`Code`] space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermSlot {
    /// A constant, pre-encoded against the program's vocabulary.
    Const(Code),
    /// The rule variable with this slot number.
    Var(u16),
}

/// An atom with interned predicate and slotted terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledAtom {
    /// The predicate.
    pub pred: PredId,
    /// The argument pattern.
    pub terms: Box<[TermSlot]>,
}

impl CompiledAtom {
    /// Instantiate under a total substitution of encoded values.
    pub fn instantiate(&self, subst: &[Code]) -> Box<[Code]> {
        self.terms
            .iter()
            .map(|t| match *t {
                TermSlot::Const(c) => c,
                TermSlot::Var(i) => subst[i as usize],
            })
            .collect()
    }

    /// Variable slots occurring in this atom (with duplicates).
    pub fn var_slots(&self) -> impl Iterator<Item = u16> + '_ {
        self.terms.iter().filter_map(|t| match *t {
            TermSlot::Var(i) => Some(i),
            TermSlot::Const(_) => None,
        })
    }
}

/// The kind of a compiled body literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LitKind {
    /// Positive condition (matched against `I° ∪ I⁺`).
    Pos,
    /// Negated condition (validity test).
    Neg,
    /// Event literal (matched against `I⁺` for `+`, `I⁻` for `-`).
    Event(Sign),
}

/// A compiled body literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompiledLiteral {
    /// An atom-shaped literal: positive, negated, or event.
    Atom {
        /// Positive, negated, or event.
        kind: LitKind,
        /// The pattern.
        atom: CompiledAtom,
    },
    /// A comparison guard (language extension): a pure filter over bound
    /// values.
    Guard {
        /// The operator.
        op: CompOp,
        /// Left operand.
        lhs: TermSlot,
        /// Right operand.
        rhs: TermSlot,
    },
}

impl CompiledLiteral {
    /// True for literals that bind variables by extensional matching.
    pub fn is_binding(&self) -> bool {
        matches!(self, CompiledLiteral::Atom { kind, .. } if *kind != LitKind::Neg)
    }

    /// The variable slots occurring in the literal.
    pub fn var_slots(&self) -> Box<dyn Iterator<Item = u16> + '_> {
        match self {
            CompiledLiteral::Atom { atom, .. } => Box::new(atom.var_slots()),
            CompiledLiteral::Guard { lhs, rhs, .. } => {
                let v = |t: &TermSlot| match *t {
                    TermSlot::Var(s) => Some(s),
                    TermSlot::Const(_) => None,
                };
                Box::new(v(lhs).into_iter().chain(v(rhs)))
            }
        }
    }

    /// Evaluate a guard under total encoded bindings. Equality compares
    /// codes directly (interning is injective); ordered comparisons decode
    /// through the vocabulary. Panics on non-guard literals.
    pub fn eval_guard(&self, vocab: &Vocabulary, bindings: &[Option<Code>]) -> bool {
        let CompiledLiteral::Guard { op, lhs, rhs } = self else {
            panic!("eval_guard on a non-guard literal");
        };
        let code = |t: &TermSlot| match *t {
            TermSlot::Const(c) => c,
            TermSlot::Var(s) => bindings[s as usize].expect("guards scheduled after binding"),
        };
        let (l, r) = (code(lhs), code(rhs));
        match op {
            CompOp::Eq => l == r,
            CompOp::Ne => l != r,
            // Ordered comparisons are integer-only; symbols compare false.
            _ => match (vocab.decode(l), vocab.decode(r)) {
                (Value::Int(a), Value::Int(b)) => op.eval_ordering(a.cmp(&b)),
                _ => false,
            },
        }
    }
}

/// One step of a rule's evaluation plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedStep {
    /// Index into the rule's `body`.
    pub lit: usize,
    /// Columns bound (constant or already-bound variable) when this step
    /// runs — the probe mask for binding literals.
    pub mask: ColumnMask,
}

/// An index the evaluator will probe: build it before evaluating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndexRequest {
    /// The predicate.
    pub pred: PredId,
    /// The bound-column mask.
    pub mask: ColumnMask,
    /// Which interpretation zone.
    pub zone: MarkZone,
}

/// A compiled rule.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// The rule's id in its program.
    pub id: RuleId,
    /// The original AST (kept for display and provenance).
    pub source: Rule,
    /// Head polarity.
    pub head_sign: Sign,
    /// Head pattern.
    pub head: CompiledAtom,
    /// Body literals in source order.
    pub body: Box<[CompiledLiteral]>,
    /// Evaluation order with probe masks.
    pub plan: Box<[PlannedStep]>,
    /// Number of variable slots.
    pub num_vars: u16,
    /// Rule priority (for priority-based policies).
    pub priority: i32,
    /// True for the synthetic `-> ±a.` rules modelling transaction updates.
    pub is_update: bool,
    var_names: Box<[String]>,
}

impl CompiledRule {
    /// Name for traces: the source label, or `r<index+1>` if unnamed.
    pub fn display_name(&self) -> String {
        match &self.source.name {
            Some(n) => n.clone(),
            None => format!("r{}", self.id.0 + 1),
        }
    }

    /// Name of variable slot `i`.
    pub fn var_name(&self, i: usize) -> String {
        self.var_names[i].clone()
    }
}

/// A compiled program: the executable form of the paper's `P` (or `P_U`).
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    vocab: Arc<Vocabulary>,
    rules: Vec<CompiledRule>,
    index_requests: Vec<IndexRequest>,
}

impl CompiledProgram {
    /// Compile a program, checking safety and registering predicates.
    pub fn compile(vocab: Arc<Vocabulary>, program: &Program) -> EngineResult<Self> {
        let mut rules = Vec::with_capacity(program.rules.len());
        let mut requests: HashMap<IndexRequest, ()> = HashMap::new();
        for (i, rule) in program.rules.iter().enumerate() {
            let compiled = compile_rule(&vocab, rule, RuleId(i as u32), false, &mut requests)?;
            rules.push(compiled);
        }
        Ok(CompiledProgram {
            vocab,
            rules,
            index_requests: requests.into_keys().collect(),
        })
    }

    /// The shared vocabulary.
    pub fn vocab(&self) -> &Arc<Vocabulary> {
        &self.vocab
    }

    /// The rules.
    pub fn rules(&self) -> &[CompiledRule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if there are no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Look up a rule.
    pub fn rule(&self, id: RuleId) -> &CompiledRule {
        &self.rules[id.0 as usize]
    }

    /// Find a rule id by source name.
    pub fn rule_by_name(&self, name: &str) -> Option<RuleId> {
        self.rules
            .iter()
            .find(|r| r.source.name.as_deref() == Some(name))
            .map(|r| r.id)
    }

    /// The indexes evaluation will probe.
    pub fn index_requests(&self) -> &[IndexRequest] {
        &self.index_requests
    }

    /// Static conflict analysis: `false` iff no predicate has both an
    /// inserting and a deleting rule head, in which case no run of this
    /// program can ever produce a conflict and the engine skips the firing
    /// log and conflict collection altogether. (The paper, Section 1:
    /// "if no two conflicting rules are ever firable, some fixpoint
    /// semantics may be appropriate.")
    pub fn possibly_conflicting(&self) -> bool {
        let mut inserted = std::collections::HashSet::new();
        let mut deleted = std::collections::HashSet::new();
        for r in &self.rules {
            match r.head_sign {
                Sign::Insert => inserted.insert(r.head.pred),
                Sign::Delete => deleted.insert(r.head.pred),
            };
        }
        inserted.intersection(&deleted).next().is_some()
    }

    /// The Section 4.3 construction `P_U`: this program extended with one
    /// body-less rule `-> ±a.` per transaction update, in order. The new
    /// rules are named `tx1`, `tx2`, ....
    pub fn with_updates(&self, updates: &UpdateSet) -> Self {
        if updates.is_empty() {
            return self.clone();
        }
        let mut extended = self.clone();
        for (i, u) in updates.iter().enumerate() {
            let id = RuleId(extended.rules.len() as u32);
            let atom_ast = self.vocab.atom(u.pred, &u.tuple);
            let source = Rule {
                name: Some(format!("tx{}", i + 1)),
                priority: 0,
                body: Vec::new(),
                head: Head {
                    sign: u.sign,
                    atom: atom_ast.clone(),
                },
                span: park_syntax::Span::synthetic(),
            };
            let terms: Box<[TermSlot]> = u
                .tuple
                .values()
                .iter()
                .map(|&v| TermSlot::Const(self.vocab.encode(v)))
                .collect();
            extended.rules.push(CompiledRule {
                id,
                source,
                head_sign: u.sign,
                head: CompiledAtom {
                    pred: u.pred,
                    terms,
                },
                body: Box::from([]),
                plan: Box::from([]),
                num_vars: 0,
                priority: 0,
                is_update: true,
                var_names: Box::from([]),
            });
        }
        extended
    }
}

fn compile_atom(
    vocab: &Vocabulary,
    atom: &Atom,
    vars: &mut Vec<String>,
    var_slots: &mut HashMap<String, u16>,
) -> EngineResult<CompiledAtom> {
    let pred = vocab.pred(&atom.pred, atom.arity())?;
    let terms = atom
        .args
        .iter()
        .map(|t| match t {
            Term::Const(c) => TermSlot::Const(vocab.encode(vocab.value(c))),
            Term::Var(v) => {
                let slot = *var_slots.entry(v.clone()).or_insert_with(|| {
                    let s = u16::try_from(vars.len()).expect("too many variables in rule");
                    vars.push(v.clone());
                    s
                });
                TermSlot::Var(slot)
            }
        })
        .collect();
    Ok(CompiledAtom { pred, terms })
}

fn compile_rule(
    vocab: &Arc<Vocabulary>,
    rule: &Rule,
    id: RuleId,
    is_update: bool,
    requests: &mut HashMap<IndexRequest, ()>,
) -> EngineResult<CompiledRule> {
    check_rule(rule).map_err(EngineError::Safety)?;
    let mut vars: Vec<String> = Vec::new();
    let mut var_slots: HashMap<String, u16> = HashMap::new();
    // Two passes: atom-shaped literals first (they assign variable slots),
    // guards second (safety guarantees their variables occur in some
    // binding literal, which may appear later in source order).
    let mut body: Vec<Option<CompiledLiteral>> = vec![None; rule.body.len()];
    for (i, lit) in rule.body.iter().enumerate() {
        let (kind, atom) = match lit {
            BodyLiteral::Pos(a) => (LitKind::Pos, a),
            BodyLiteral::Neg(a) => (LitKind::Neg, a),
            BodyLiteral::Event(s, a) => (LitKind::Event(*s), a),
            BodyLiteral::Compare(..) => continue,
        };
        body[i] = Some(CompiledLiteral::Atom {
            kind,
            atom: compile_atom(vocab, atom, &mut vars, &mut var_slots)?,
        });
    }
    for (i, lit) in rule.body.iter().enumerate() {
        if let BodyLiteral::Compare(op, l, r) = lit {
            let slot = |t: &Term| match t {
                Term::Const(c) => TermSlot::Const(vocab.encode(vocab.value(c))),
                Term::Var(v) => {
                    TermSlot::Var(*var_slots.get(v).expect("safety binds guard variables"))
                }
            };
            body[i] = Some(CompiledLiteral::Guard {
                op: *op,
                lhs: slot(l),
                rhs: slot(r),
            });
        }
    }
    let body: Vec<CompiledLiteral> = body
        .into_iter()
        .map(|l| l.expect("every literal compiled"))
        .collect();
    let head = compile_atom(vocab, &rule.head.atom, &mut vars, &mut var_slots)?;
    let plan = plan_body(&body);

    // Record the indexes the plan will probe.
    for step in &plan {
        let CompiledLiteral::Atom { kind, atom } = &body[step.lit] else {
            continue;
        };
        if step.mask.is_empty() {
            continue;
        }
        match kind {
            LitKind::Pos => {
                requests.insert(
                    IndexRequest {
                        pred: atom.pred,
                        mask: step.mask,
                        zone: MarkZone::Base,
                    },
                    (),
                );
                requests.insert(
                    IndexRequest {
                        pred: atom.pred,
                        mask: step.mask,
                        zone: MarkZone::Plus,
                    },
                    (),
                );
            }
            LitKind::Event(Sign::Insert) => {
                requests.insert(
                    IndexRequest {
                        pred: atom.pred,
                        mask: step.mask,
                        zone: MarkZone::Plus,
                    },
                    (),
                );
            }
            LitKind::Event(Sign::Delete) => {
                requests.insert(
                    IndexRequest {
                        pred: atom.pred,
                        mask: step.mask,
                        zone: MarkZone::Minus,
                    },
                    (),
                );
            }
            LitKind::Neg => {}
        }
    }

    Ok(CompiledRule {
        id,
        source: rule.clone(),
        head_sign: rule.head.sign,
        head,
        body: body.into(),
        plan: plan.into(),
        num_vars: u16::try_from(vars.len()).expect("too many variables in rule"),
        priority: rule.priority,
        is_update,
        var_names: vars.into(),
    })
}

/// Greedy join ordering.
///
/// Negated literals are filters: they run as soon as all their variables are
/// bound. Among binding literals (positive and event), the planner picks the
/// one with the most bound positions, breaking ties toward fewer unbound
/// variables and then source order. The probe mask of each binding step is
/// the set of positions holding constants or already-bound variables.
fn plan_body(body: &[CompiledLiteral]) -> Vec<PlannedStep> {
    let mut plan = Vec::with_capacity(body.len());
    let mut scheduled = vec![false; body.len()];
    let mut bound: Vec<bool> = Vec::new(); // by var slot
    let is_bound = |bound: &[bool], slot: u16| bound.get(slot as usize).copied().unwrap_or(false);
    let bind = |bound: &mut Vec<bool>, slot: u16| {
        if bound.len() <= slot as usize {
            bound.resize(slot as usize + 1, false);
        }
        bound[slot as usize] = true;
    };

    // A mask holds the first `ColumnMask::WIDTH` columns; `try_extend`
    // checks every column of a candidate row, so wider atoms stay exact.
    let mask_of = |atom: &CompiledAtom, bound: &[bool]| {
        let width = atom.terms.len().min(ColumnMask::WIDTH);
        ColumnMask::from_cols((0..width).filter(|&c| match atom.terms[c] {
            TermSlot::Const(_) => true,
            TermSlot::Var(s) => is_bound(bound, s),
        }))
    };

    loop {
        // Schedule every filter literal (negation, guard) whose variables
        // are all bound.
        let mut progressed = true;
        while progressed {
            progressed = false;
            for (i, lit) in body.iter().enumerate() {
                if scheduled[i] || lit.is_binding() {
                    continue;
                }
                if lit.var_slots().all(|s| is_bound(&bound, s)) {
                    let mask = match lit {
                        CompiledLiteral::Atom { atom, .. } => mask_of(atom, &bound),
                        CompiledLiteral::Guard { .. } => ColumnMask::EMPTY,
                    };
                    plan.push(PlannedStep { lit: i, mask });
                    scheduled[i] = true;
                    progressed = true;
                }
            }
        }

        // Pick the best unscheduled binding literal: most bound positions,
        // then fewest unbound variables, then source order.
        let mut best: Option<(usize, usize, usize)> = None; // (idx, bound_cnt, unbound_vars)
        for (i, lit) in body.iter().enumerate() {
            if scheduled[i] || !lit.is_binding() {
                continue;
            }
            let CompiledLiteral::Atom { atom, .. } = lit else {
                unreachable!()
            };
            let bound_cnt = (0..atom.terms.len())
                .filter(|&c| match atom.terms[c] {
                    TermSlot::Const(_) => true,
                    TermSlot::Var(s) => is_bound(&bound, s),
                })
                .count();
            let unbound_vars = atom
                .var_slots()
                .filter(|&s| !is_bound(&bound, s))
                .collect::<std::collections::HashSet<_>>()
                .len();
            let better = match best {
                None => true,
                Some((_, bc, uv)) => bound_cnt > bc || (bound_cnt == bc && unbound_vars < uv),
            };
            if better {
                best = Some((i, bound_cnt, unbound_vars));
            }
        }
        let Some((i, _, _)) = best else { break };
        let CompiledLiteral::Atom { atom, .. } = &body[i] else {
            unreachable!()
        };
        let mask = mask_of(atom, &bound);
        plan.push(PlannedStep { lit: i, mask });
        scheduled[i] = true;
        for s in atom.var_slots() {
            bind(&mut bound, s);
        }
    }
    debug_assert!(
        scheduled.iter().all(|&s| s),
        "safety guarantees a total plan"
    );
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use park_syntax::parse_program;

    fn compile(src: &str) -> CompiledProgram {
        CompiledProgram::compile(Vocabulary::new(), &parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn compiles_simple_program() {
        let p = compile("r1: p(X) -> +q(X). r2: q(X) -> -p(X).");
        assert_eq!(p.len(), 2);
        assert_eq!(p.rule(RuleId(0)).display_name(), "r1");
        assert_eq!(p.rule_by_name("r2"), Some(RuleId(1)));
        assert_eq!(p.rule(RuleId(0)).num_vars, 1);
        assert_eq!(p.rule(RuleId(0)).head_sign, Sign::Insert);
    }

    #[test]
    fn unnamed_rules_get_positional_names() {
        let p = compile("p -> +q. q -> +r.");
        assert_eq!(p.rule(RuleId(0)).display_name(), "r1");
        assert_eq!(p.rule(RuleId(1)).display_name(), "r2");
    }

    #[test]
    fn unsafe_rule_rejected() {
        let err = CompiledProgram::compile(
            Vocabulary::new(),
            &parse_program("p(X) -> +q(X, Y).").unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Safety(_)));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let err = CompiledProgram::compile(
            Vocabulary::new(),
            &parse_program("p(X) -> +q(X). q(X, X) -> +p(X).").unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Storage(_)));
    }

    #[test]
    fn variables_are_slotted_in_first_occurrence_order() {
        let p = compile("p(X, Y), q(Y, Z) -> +r(Z, X).");
        let r = p.rule(RuleId(0));
        assert_eq!(r.num_vars, 3);
        assert_eq!(r.var_name(0), "X");
        assert_eq!(r.var_name(1), "Y");
        assert_eq!(r.var_name(2), "Z");
        assert_eq!(r.head.terms.as_ref(), &[TermSlot::Var(2), TermSlot::Var(0)]);
    }

    #[test]
    fn instantiate_head() {
        let p = compile("p(X, Y) -> +q(Y, X).");
        let v = p.vocab();
        let a = v.encode(Value::Sym(v.sym("a")));
        let b = v.encode(Value::Sym(v.sym("b")));
        let row = p.rule(RuleId(0)).head.instantiate(&[a, b]);
        assert_eq!(row.as_ref(), &[b, a]);
    }

    #[test]
    fn plan_defers_negation_until_bound() {
        // !q(Y) cannot run until q... until Y is bound by p(X, Y).
        let p = compile("!q(Y), p(X, Y) -> +r(X).");
        let r = p.rule(RuleId(0));
        assert_eq!(r.plan.len(), 2);
        assert_eq!(r.plan[0].lit, 1, "binding literal must run first");
        assert_eq!(r.plan[1].lit, 0);
        // When the negation runs, all its columns are bound.
        assert_eq!(r.plan[1].mask.count(), 1);
    }

    #[test]
    fn plan_prefers_more_bound_literals() {
        // After p(X) binds X, the literal q(X, Y) has one bound column while
        // s(Z, W) has none; q must be scheduled before s.
        let p = compile("p(X), s(Z, W), q(X, Y) -> +t(X, Y, Z, W).");
        let r = p.rule(RuleId(0));
        let order: Vec<usize> = r.plan.iter().map(|s| s.lit).collect();
        assert_eq!(order, vec![0, 2, 1]);
    }

    #[test]
    fn constants_count_as_bound_for_planning() {
        let p = compile("p(X), q(a, Y) -> +r(X, Y).");
        let r = p.rule(RuleId(0));
        // q(a, Y) has a constant column; it is picked first (1 bound vs 0).
        assert_eq!(r.plan[0].lit, 1);
        assert!(r.plan[0].mask.contains(0));
    }

    #[test]
    fn index_requests_cover_pos_zones() {
        let p = compile("p(X), q(X, Y) -> +r(X, Y).");
        let reqs = p.index_requests();
        // q probed with column 0 bound, against Base and Plus.
        let q = p.vocab().lookup_pred("q").unwrap();
        let mask = ColumnMask::from_cols([0]);
        assert!(reqs
            .iter()
            .any(|r| r.pred == q && r.mask == mask && r.zone == MarkZone::Base));
        assert!(reqs
            .iter()
            .any(|r| r.pred == q && r.mask == mask && r.zone == MarkZone::Plus));
    }

    #[test]
    fn event_literal_requests_only_its_zone() {
        let p = compile("s(X), +r(X) -> -s(X).");
        let r = p.vocab().lookup_pred("r").unwrap();
        let mask = ColumnMask::from_cols([0]);
        let zones: Vec<MarkZone> = p
            .index_requests()
            .iter()
            .filter(|req| req.pred == r && req.mask == mask)
            .map(|req| req.zone)
            .collect();
        assert_eq!(zones, vec![MarkZone::Plus]);
    }

    #[test]
    fn with_updates_appends_tx_rules() {
        let p = compile("p(X) -> +q(X).");
        let v = Arc::clone(p.vocab());
        let mut u = UpdateSet::empty();
        let q = v.pred("q", 1).unwrap();
        u.insert(q, park_storage::Tuple::new(vec![Value::Sym(v.sym("b"))]));
        u.delete(q, park_storage::Tuple::new(vec![Value::Sym(v.sym("c"))]));
        let pu = p.with_updates(&u);
        assert_eq!(pu.len(), 3);
        let tx1 = pu.rule(RuleId(1));
        assert!(tx1.is_update);
        assert!(tx1.body.is_empty());
        assert_eq!(tx1.display_name(), "tx1");
        assert_eq!(tx1.head_sign, Sign::Insert);
        assert_eq!(pu.rule(RuleId(2)).head_sign, Sign::Delete);
        assert_eq!(tx1.source.to_string(), "tx1: -> +q(b).");
    }

    #[test]
    fn with_empty_updates_is_identity() {
        let p = compile("p(X) -> +q(X).");
        assert_eq!(p.with_updates(&UpdateSet::empty()).len(), 1);
    }

    #[test]
    fn guards_compile_and_schedule_after_binding() {
        let p = compile("Q < 10, stock(I, Q) -> +low(I).");
        let r = p.rule(RuleId(0));
        assert_eq!(r.plan.len(), 2);
        // The stock literal must run first even though the guard is
        // written first.
        assert!(matches!(
            &r.body[r.plan[0].lit],
            CompiledLiteral::Atom { .. }
        ));
        assert!(matches!(
            &r.body[r.plan[1].lit],
            CompiledLiteral::Guard { .. }
        ));
        // Guards request no indexes.
        assert!(p.index_requests().iter().all(|req| {
            let stock = p.vocab().lookup_pred("stock").unwrap();
            req.pred == stock
        }));
    }

    #[test]
    fn guard_evaluation_semantics() {
        let p = compile("p(X, Y), X < Y -> +q(X).");
        let r = p.rule(RuleId(0));
        let guard = r
            .body
            .iter()
            .find(|l| matches!(l, CompiledLiteral::Guard { .. }))
            .unwrap();
        let v = p.vocab();
        let b = |x: i64, y: i64| vec![Some(v.encode(Value::Int(x))), Some(v.encode(Value::Int(y)))];
        assert!(guard.eval_guard(v, &b(1, 2)));
        assert!(!guard.eval_guard(v, &b(2, 2)));
        assert!(!guard.eval_guard(v, &b(3, 2)));
        // Symbols under an ordered comparison: false.
        let sym = Some(v.encode(Value::Sym(v.sym("a"))));
        assert!(!guard.eval_guard(v, &[sym, Some(v.encode(Value::Int(5)))]));
    }

    #[test]
    fn guard_ordered_comparison_handles_spilled_ints() {
        // Integers beyond the 30-bit inline range spill into the
        // vocabulary; ordered guards must still compare their true values,
        // not their (allocation-ordered) spill codes.
        let p = compile("p(X, Y), X < Y -> +q(X).");
        let r = p.rule(RuleId(0));
        let guard = r
            .body
            .iter()
            .find(|l| matches!(l, CompiledLiteral::Guard { .. }))
            .unwrap();
        let v = p.vocab();
        let big = 1i64 << 40;
        // Encode the larger value first so spill order inverts value order.
        let hi = Some(v.encode(Value::Int(big + 1)));
        let lo = Some(v.encode(Value::Int(big)));
        assert!(guard.eval_guard(v, &[lo, hi]));
        assert!(!guard.eval_guard(v, &[hi, lo]));
    }

    #[test]
    fn repeated_variable_in_literal_compiles() {
        let p = compile("q(X, X) -> -q(X, X).");
        let r = p.rule(RuleId(0));
        assert_eq!(r.num_vars, 1);
        let CompiledLiteral::Atom { atom, .. } = &r.body[0] else {
            panic!("expected an atom literal");
        };
        assert_eq!(atom.terms.as_ref(), &[TermSlot::Var(0), TermSlot::Var(0)]);
    }
}
