//! Condition-overlap refinement of the unifiable-head conflict check, and
//! the **conflict-free certificate** consumed by the engine's fast path.
//!
//! [`crate::analysis::conflict_pairs`] over-approximates: it lists every
//! pair of opposite-polarity rules whose head patterns unify positionwise.
//! Many such pairs can still never clash at run time, because their *bodies*
//! cannot both be satisfied for a shared head atom. This module refines the
//! pair list with three sound exclusion arguments, each valid under PARK's
//! semantics (inflationary marks, restart-on-conflict):
//!
//! 1. **Head disunification through repeated variables** — `p(X, X)` vs
//!    `p(a, b)` passes the positionwise check but has no common instance.
//! 2. **Guard contradiction** — if firing both rules on the same head atom
//!    forces one value to satisfy contradictory comparison guards (e.g.
//!    `X < 5` in one body, `X >= 5` in the other), the pair can never cite
//!    the same atom. Guards are pure value filters, so this argument is
//!    independent of evaluation order and interpretation state.
//! 3. **Event-polarity clash** — if the linked bodies require `+e(t̄)` and
//!    `-e(t̄)` on a *forced-equal* tuple, the pair can never both fire in
//!    one run: marks are monotone within a run, and the engine restarts at
//!    the step where the second polarity of a mark would appear, so `+e(t̄)`
//!    and `-e(t̄)` never coexist in any interpretation the run reaches.
//!    (Note the classic positive/negative complementary-literal exclusion is
//!    *not* sound here: `a ∈ I` and `-a ∈ I` can hold simultaneously, so
//!    `a` and `!a` bodies may both be valid. We do not use it.)
//!
//! A rule whose own body is unsatisfiable (contradictory guards, a
//! constant-false guard, or opposite-polarity event literals on the same
//! tuple) can never fire at all; such rules are reported by
//! [`never_fire_rules`] and excluded from every pair.
//!
//! When every unifiable pair is excluded, [`certify_conflict_free`] returns
//! a certificate: a proof object the engine uses to skip conflict
//! collection and the run's firing log for the whole evaluation (see
//! `crate::fixpoint`). The certificate is itself
//! differentially tested — the fuzz harness cross-checks certified programs
//! against observed runtime conflicts, and `AnalysisVariant::IgnoreHeadConstants`
//! is a deliberately broken variant used to prove the harness catches an
//! unsound analyzer.

use crate::analysis::ConflictPair;
use crate::compile::{CompiledLiteral, CompiledProgram, CompiledRule, LitKind, RuleId, TermSlot};
use park_storage::{Value, Vocabulary};
use park_syntax::{CompOp, Sign};
use std::collections::HashSet;

/// Which analysis to run: the faithful one, or a deliberately broken
/// variant kept around so the testkit can prove its runtime cross-checks
/// would catch an unsound analyzer (mirroring `OracleVariant` in the
/// differential-testing subsystem).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalysisVariant {
    /// The sound analysis. The engine fast path only ever uses this.
    #[default]
    Faithful,
    /// Broken on purpose: treats a constant head slot as non-unifiable with
    /// a variable slot, so `p(X) -> +q(X)` vs `p(X) -> -q(a)` is dropped
    /// from the pair list and the program is wrongly certified
    /// conflict-free. The testkit's verdict cross-check must flag this.
    IgnoreHeadConstants,
}

/// Why a unifiable-head pair was excluded by the refinement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExclusionReason {
    /// One of the rules can never fire at all (unsatisfiable body).
    NeverFires(RuleId),
    /// The heads have no common instance once repeated variables are
    /// tracked (positionwise unification is too weak).
    HeadsDisunify,
    /// Firing both rules on one head atom forces contradictory guards.
    GuardContradiction,
    /// The linked bodies need `+e` and `-e` on a forced-equal tuple, which
    /// no reachable interpretation of a single run contains.
    EventPolarityClash,
}

impl std::fmt::Display for ExclusionReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExclusionReason::NeverFires(_) => write!(f, "a rule that can never fire"),
            ExclusionReason::HeadsDisunify => write!(f, "heads with no common instance"),
            ExclusionReason::GuardContradiction => write!(f, "contradictory guards"),
            ExclusionReason::EventPolarityClash => {
                write!(f, "opposite event polarities on one tuple")
            }
        }
    }
}

/// The outcome of refining a program's conflict-pair list.
#[derive(Debug, Clone)]
pub struct RefinedConflicts {
    /// Pairs that survive every exclusion argument: the rules the runtime
    /// can actually cite in `conflicts(P, I)`.
    pub pairs: Vec<ConflictPair>,
    /// Pairs the coarse unifiable-head check lists but the refinement
    /// proves impossible, with the winning argument.
    pub excluded: Vec<(ConflictPair, ExclusionReason)>,
}

/// Union-find over the variable slots of one or two rules, carrying the
/// value constraints accumulated on each class: an optional forced constant,
/// forbidden constants, and an integer interval from ordered guards.
struct ConsMap {
    parent: Vec<usize>,
    cons: Vec<ClassCons>,
}

#[derive(Default, Clone)]
struct ClassCons {
    eq: Option<Value>,
    ne: Vec<Value>,
    lo: Option<i64>,
    hi: Option<i64>,
}

impl ClassCons {
    fn satisfiable(&self) -> bool {
        if let (Some(l), Some(h)) = (self.lo, self.hi) {
            if l > h {
                return false;
            }
        }
        if let Some(e) = self.eq {
            if self.ne.contains(&e) {
                return false;
            }
            match e {
                Value::Int(i) => {
                    if self.lo.is_some_and(|l| i < l) || self.hi.is_some_and(|h| i > h) {
                        return false;
                    }
                }
                // Ordered guards evaluate to false on symbols, so a class
                // pinned to a symbol with any interval constraint is dead.
                Value::Sym(_) => {
                    if self.lo.is_some() || self.hi.is_some() {
                        return false;
                    }
                }
            }
        }
        true
    }

    fn merge(&mut self, other: ClassCons) -> bool {
        if let Some(v) = other.eq {
            if !self.bind(v) {
                return false;
            }
        }
        self.ne.extend(other.ne);
        self.lo = match (self.lo, other.lo) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.hi = match (self.hi, other.hi) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        true
    }

    fn bind(&mut self, v: Value) -> bool {
        match self.eq {
            Some(e) => e == v,
            None => {
                self.eq = Some(v);
                true
            }
        }
    }
}

/// What a term slot denotes once class structure is taken into account.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rep {
    Val(Value),
    Class(usize),
}

impl ConsMap {
    fn new(n: usize) -> Self {
        ConsMap {
            parent: (0..n).collect(),
            cons: vec![ClassCons::default(); n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merge two classes; false if their constraints are incompatible.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return true;
        }
        self.parent[rb] = ra;
        let moved = std::mem::take(&mut self.cons[rb]);
        self.cons[ra].merge(moved)
    }

    /// Pin a class to a constant; false on a clash with an earlier pin.
    fn bind(&mut self, x: usize, v: Value) -> bool {
        let r = self.find(x);
        self.cons[r].bind(v)
    }

    fn rep(&mut self, vocab: &Vocabulary, slot: TermSlot, offset: usize) -> Rep {
        match slot {
            TermSlot::Const(c) => Rep::Val(vocab.decode(c)),
            TermSlot::Var(s) => {
                let r = self.find(offset + s as usize);
                match self.cons[r].eq {
                    Some(v) => Rep::Val(v),
                    None => Rep::Class(r),
                }
            }
        }
    }

    /// Fold one comparison guard into the constraint state. Returns false
    /// when the guard (together with what is already known) is
    /// unsatisfiable.
    fn apply_guard(
        &mut self,
        vocab: &Vocabulary,
        op: CompOp,
        lhs: TermSlot,
        rhs: TermSlot,
        offset: usize,
    ) -> bool {
        let side = |m: &mut Self, t: TermSlot| match t {
            TermSlot::Const(c) => Rep::Val(vocab.decode(c)),
            TermSlot::Var(s) => Rep::Class(m.find(offset + s as usize)),
        };
        let (l, r) = (side(self, lhs), side(self, rhs));
        match (l, r) {
            (Rep::Val(a), Rep::Val(b)) => eval_const_guard(op, a, b),
            (Rep::Class(c), Rep::Val(v)) => self.constrain(c, op, v),
            (Rep::Val(v), Rep::Class(c)) => self.constrain(c, flip(op), v),
            (Rep::Class(c1), Rep::Class(c2)) => {
                if c1 == c2 {
                    // X = X, X <= X, X >= X hold for integers; the ordered
                    // reflexive guards are false on symbols, but claiming
                    // "satisfiable" is the sound (weaker) direction.
                    // X != X, X < X, X > X are false for every value.
                    !matches!(op, CompOp::Ne | CompOp::Lt | CompOp::Gt)
                } else if op == CompOp::Eq {
                    self.union(c1, c2)
                } else {
                    // Relational constraints between distinct classes are
                    // ignored — always sound (fewer exclusions).
                    true
                }
            }
        }
    }

    fn constrain(&mut self, class: usize, op: CompOp, v: Value) -> bool {
        let c = &mut self.cons[class];
        match op {
            CompOp::Eq => {
                if !c.bind(v) {
                    return false;
                }
            }
            CompOp::Ne => {
                if c.eq == Some(v) {
                    return false;
                }
                c.ne.push(v);
            }
            CompOp::Lt | CompOp::Le | CompOp::Gt | CompOp::Ge => {
                let Value::Int(k) = v else {
                    // An ordered comparison against a symbol is false for
                    // every binding: the guard can never pass.
                    return false;
                };
                match op {
                    CompOp::Lt => tighten_hi(c, k.saturating_sub(1)),
                    CompOp::Le => tighten_hi(c, k),
                    CompOp::Gt => tighten_lo(c, k.saturating_add(1)),
                    CompOp::Ge => tighten_lo(c, k),
                    _ => unreachable!(),
                }
            }
        }
        c.satisfiable()
    }

    fn all_satisfiable(&mut self) -> bool {
        (0..self.cons.len()).all(|i| {
            let r = self.find(i);
            self.cons[r].satisfiable()
        })
    }
}

fn tighten_hi(c: &mut ClassCons, k: i64) {
    c.hi = Some(c.hi.map_or(k, |h| h.min(k)));
}

fn tighten_lo(c: &mut ClassCons, k: i64) {
    c.lo = Some(c.lo.map_or(k, |l| l.max(k)));
}

/// Mirror of `CompiledLiteral::eval_guard` on two known values.
fn eval_const_guard(op: CompOp, a: Value, b: Value) -> bool {
    match op {
        CompOp::Eq => a == b,
        CompOp::Ne => a != b,
        _ => match (a, b) {
            (Value::Int(x), Value::Int(y)) => match op {
                CompOp::Lt => x < y,
                CompOp::Le => x <= y,
                CompOp::Gt => x > y,
                CompOp::Ge => x >= y,
                _ => unreachable!(),
            },
            _ => false,
        },
    }
}

/// Swap the sides of a comparison: `c op X` becomes `X flip(op) c`.
fn flip(op: CompOp) -> CompOp {
    match op {
        CompOp::Lt => CompOp::Gt,
        CompOp::Le => CompOp::Ge,
        CompOp::Gt => CompOp::Lt,
        CompOp::Ge => CompOp::Le,
        CompOp::Eq | CompOp::Ne => op,
    }
}

fn guards(rule: &CompiledRule) -> impl Iterator<Item = (CompOp, TermSlot, TermSlot)> + '_ {
    rule.body.iter().filter_map(|lit| match lit {
        CompiledLiteral::Guard { op, lhs, rhs } => Some((*op, *lhs, *rhs)),
        CompiledLiteral::Atom { .. } => None,
    })
}

fn events(rule: &CompiledRule) -> impl Iterator<Item = (Sign, &crate::compile::CompiledAtom)> + '_ {
    rule.body.iter().filter_map(|lit| match lit {
        CompiledLiteral::Atom {
            kind: LitKind::Event(s),
            atom,
        } => Some((*s, atom)),
        _ => None,
    })
}

/// Can this rule ever fire? `false` when its guards are contradictory on
/// their own, or when it demands both `+e(t̄)` and `-e(t̄)` for slots that
/// are syntactically identical (no interpretation of a single run contains
/// both marks).
fn rule_can_fire(vocab: &Vocabulary, rule: &CompiledRule) -> bool {
    let mut m = ConsMap::new(rule.num_vars as usize);
    for (op, lhs, rhs) in guards(rule) {
        if !m.apply_guard(vocab, op, lhs, rhs, 0) {
            return false;
        }
    }
    if !m.all_satisfiable() {
        return false;
    }
    let evs: Vec<_> = events(rule).collect();
    for (i, (si, ai)) in evs.iter().enumerate() {
        for (sj, aj) in evs.iter().skip(i + 1) {
            if si != sj && ai.pred == aj.pred && ai.terms == aj.terms {
                return false;
            }
        }
    }
    true
}

/// Rules that can never fire under any database: their bodies are
/// unsatisfiable regardless of the interpretation. Sorted by id.
pub fn never_fire_rules(program: &CompiledProgram) -> Vec<RuleId> {
    program
        .rules()
        .iter()
        .filter(|r| !rule_can_fire(program.vocab(), r))
        .map(|r| r.id)
        .collect()
}

/// Variant-aware positionwise head check (see
/// [`AnalysisVariant::IgnoreHeadConstants`] for what the broken variant
/// gets wrong).
fn heads_unify_positionwise(a: &CompiledRule, b: &CompiledRule, variant: AnalysisVariant) -> bool {
    a.head
        .terms
        .iter()
        .zip(b.head.terms.iter())
        .all(|(x, y)| match (x, y) {
            (TermSlot::Const(cx), TermSlot::Const(cy)) => cx == cy,
            (TermSlot::Const(_), TermSlot::Var(_)) | (TermSlot::Var(_), TermSlot::Const(_)) => {
                variant == AnalysisVariant::Faithful
            }
            (TermSlot::Var(_), TermSlot::Var(_)) => true,
        })
}

/// The refinement proper: given an inserting rule `a` and a deleting rule
/// `b` with positionwise-unifiable heads, try to prove they can never cite
/// the same head atom in one run.
fn pair_excluded(
    vocab: &Vocabulary,
    a: &CompiledRule,
    b: &CompiledRule,
) -> Option<ExclusionReason> {
    let na = a.num_vars as usize;
    let mut m = ConsMap::new(na + b.num_vars as usize);
    // Link the heads: after this, variable classes describe every pair of
    // groundings that agree on the contested atom.
    for (x, y) in a.head.terms.iter().zip(b.head.terms.iter()) {
        let ok = match (*x, *y) {
            (TermSlot::Const(cx), TermSlot::Const(cy)) => cx == cy,
            (TermSlot::Var(v), TermSlot::Const(c)) => m.bind(v as usize, vocab.decode(c)),
            (TermSlot::Const(c), TermSlot::Var(v)) => m.bind(na + v as usize, vocab.decode(c)),
            (TermSlot::Var(va), TermSlot::Var(vb)) => m.union(va as usize, na + vb as usize),
        };
        if !ok {
            return Some(ExclusionReason::HeadsDisunify);
        }
    }
    // Both bodies' guards must hold simultaneously for the linked firing.
    for (op, lhs, rhs) in guards(a) {
        if !m.apply_guard(vocab, op, lhs, rhs, 0) {
            return Some(ExclusionReason::GuardContradiction);
        }
    }
    for (op, lhs, rhs) in guards(b) {
        if !m.apply_guard(vocab, op, lhs, rhs, na) {
            return Some(ExclusionReason::GuardContradiction);
        }
    }
    if !m.all_satisfiable() {
        return Some(ExclusionReason::GuardContradiction);
    }
    // Opposite event polarities on a forced-equal tuple.
    for (sa, ea) in events(a) {
        for (sb, eb) in events(b) {
            if sa == sb || ea.pred != eb.pred || ea.terms.len() != eb.terms.len() {
                continue;
            }
            let forced_equal = ea.terms.iter().zip(eb.terms.iter()).all(|(ta, tb)| {
                let (ra, rb) = (m.rep(vocab, *ta, 0), m.rep(vocab, *tb, na));
                ra == rb
            });
            if forced_equal {
                return Some(ExclusionReason::EventPolarityClash);
            }
        }
    }
    None
}

/// Refine the unifiable-head conflict pairs of a program: partition them
/// into pairs the runtime can actually cite and pairs that are provably
/// impossible. With `AnalysisVariant::Faithful` the surviving list is still
/// an over-approximation of runtime conflicts (the fuzz harness pins this).
pub fn refine_conflicts(program: &CompiledProgram, variant: AnalysisVariant) -> RefinedConflicts {
    let never: HashSet<RuleId> = never_fire_rules(program).into_iter().collect();
    let mut pairs = Vec::new();
    let mut excluded = Vec::new();
    for a in program.rules() {
        if a.head_sign != Sign::Insert {
            continue;
        }
        for b in program.rules() {
            if b.head_sign != Sign::Delete
                || a.head.pred != b.head.pred
                || !heads_unify_positionwise(a, b, variant)
            {
                continue;
            }
            let pair = ConflictPair {
                inserting: a.id,
                deleting: b.id,
                pred: a.head.pred,
            };
            let reason = if never.contains(&a.id) {
                Some(ExclusionReason::NeverFires(a.id))
            } else if never.contains(&b.id) {
                Some(ExclusionReason::NeverFires(b.id))
            } else {
                pair_excluded(program.vocab(), a, b)
            };
            match reason {
                Some(r) => excluded.push((pair, r)),
                None => pairs.push(pair),
            }
        }
    }
    pairs.sort_by_key(|p| (p.inserting, p.deleting));
    excluded.sort_by_key(|(p, _)| (p.inserting, p.deleting));
    RefinedConflicts { pairs, excluded }
}

/// A proof that a program can never reach `conflicts(P, I) ≠ ∅`: every
/// unifiable-head pair was excluded by a sound refinement argument. The
/// engine consumes this to skip conflict collection and the run's firing
/// log (conflict history and restart replay) for the whole evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictCertificate {
    /// Unifiable-head pairs the refinement had to discharge (0 when no
    /// predicate has heads of both polarities).
    pub pairs_examined: usize,
}

/// Certify a program conflict-free, or return `None` when at least one
/// refined pair survives. Call this on the program that will actually run —
/// for a transaction, the extended `P_U` with its synthetic update rules.
pub fn certify_conflict_free(
    program: &CompiledProgram,
    variant: AnalysisVariant,
) -> Option<ConflictCertificate> {
    if !program.possibly_conflicting() {
        return Some(ConflictCertificate { pairs_examined: 0 });
    }
    let refined = refine_conflicts(program, variant);
    if refined.pairs.is_empty() {
        Some(ConflictCertificate {
            pairs_examined: refined.excluded.len(),
        })
    } else {
        None
    }
}

/// The policies [`always_blocked_rules`] can reason about: the constant
/// resolvers that pick the same side of every conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstPolicy {
    /// `SELECT` always answers "insert wins".
    PreferInsert,
    /// `SELECT` always answers "delete wins".
    PreferDelete,
}

impl ConstPolicy {
    /// The CLI/policy-registry name of this resolver.
    pub fn policy_name(self) -> &'static str {
        match self {
            ConstPolicy::PreferInsert => "prefer-insert",
            ConstPolicy::PreferDelete => "prefer-delete",
        }
    }
}

/// Map the variables of `sub` into the term slots of `dom`, seeded by the
/// head positions, such that every body literal of `sub` becomes
/// (syntactically) a body literal of `dom`. When such a mapping exists,
/// every firing of `dom` is accompanied by a firing of `sub` on the same
/// head atom in the same Γ step.
fn body_subsumes(sub: &CompiledRule, dom: &CompiledRule) -> bool {
    // σ : sub-var → dom term slot.
    let mut sigma: Vec<Option<TermSlot>> = vec![None; sub.num_vars as usize];
    let assign = |sigma: &mut Vec<Option<TermSlot>>, v: u16, t: TermSlot| -> bool {
        match sigma[v as usize] {
            Some(prev) => prev == t,
            None => {
                sigma[v as usize] = Some(t);
                true
            }
        }
    };
    for (s, d) in sub.head.terms.iter().zip(dom.head.terms.iter()) {
        let ok = match (*s, *d) {
            (TermSlot::Const(cs), TermSlot::Const(cd)) => cs == cd,
            // A constant in the subsuming head only covers the matching
            // constant; a variable position in `dom` ranges wider.
            (TermSlot::Const(_), TermSlot::Var(_)) => false,
            (TermSlot::Var(v), t) => assign(&mut sigma, v, t),
        };
        if !ok {
            return false;
        }
    }
    // Backtracking match of sub's body literals into dom's body.
    fn matches(
        sub_lits: &[CompiledLiteral],
        dom_lits: &[CompiledLiteral],
        sigma: &mut Vec<Option<TermSlot>>,
    ) -> bool {
        let Some((lit, rest)) = sub_lits.split_first() else {
            return true;
        };
        for cand in dom_lits {
            let saved = sigma.clone();
            if literal_maps(lit, cand, sigma) && matches(rest, dom_lits, sigma) {
                return true;
            }
            *sigma = saved;
        }
        false
    }
    fn slot_maps(s: TermSlot, d: TermSlot, sigma: &mut [Option<TermSlot>]) -> bool {
        match s {
            TermSlot::Const(cs) => d == TermSlot::Const(cs),
            TermSlot::Var(v) => match sigma[v as usize] {
                Some(prev) => prev == d,
                None => {
                    sigma[v as usize] = Some(d);
                    true
                }
            },
        }
    }
    fn literal_maps(
        s: &CompiledLiteral,
        d: &CompiledLiteral,
        sigma: &mut [Option<TermSlot>],
    ) -> bool {
        match (s, d) {
            (
                CompiledLiteral::Atom { kind: ks, atom: sa },
                CompiledLiteral::Atom { kind: kd, atom: da },
            ) => {
                ks == kd
                    && sa.pred == da.pred
                    && sa.terms.len() == da.terms.len()
                    && sa
                        .terms
                        .iter()
                        .zip(da.terms.iter())
                        .all(|(x, y)| slot_maps(*x, *y, sigma))
            }
            (
                CompiledLiteral::Guard { op, lhs, rhs },
                CompiledLiteral::Guard {
                    op: od,
                    lhs: ld,
                    rhs: rd,
                },
            ) => op == od && slot_maps(*lhs, *ld, sigma) && slot_maps(*rhs, *rd, sigma),
            _ => false,
        }
    }
    matches(&sub.body, &dom.body, &mut sigma)
}

/// Rules that can fire but can never make their effect stick under a
/// constant policy, paired with the policy in question. A deleting rule
/// `d` is always blocked under `prefer-insert` when some inserting rule `i`
/// on the same predicate *subsumes* it: whenever `d` fires on an atom, `i`
/// fires on the same atom in the same step (or already fired earlier in the
/// run, which the conflict check's historical sides also catch), the
/// conflict resolves insert-wins, and `d`'s grounding joins the blocked
/// set. Removing such a rule cannot change any final database under that
/// policy — a property the testkit checks at runtime. Symmetrically for
/// inserting rules under `prefer-delete`.
pub fn always_blocked_rules(program: &CompiledProgram) -> Vec<(RuleId, ConstPolicy)> {
    let mut out = Vec::new();
    for loser in program.rules() {
        if loser.is_update || !rule_can_fire(program.vocab(), loser) {
            continue;
        }
        let policy = match loser.head_sign {
            Sign::Delete => ConstPolicy::PreferInsert,
            Sign::Insert => ConstPolicy::PreferDelete,
        };
        let dominated = program.rules().iter().any(|winner| {
            winner.head_sign != loser.head_sign
                && winner.head.pred == loser.head.pred
                && body_subsumes(winner, loser)
        });
        if dominated {
            out.push((loser.id, policy));
        }
    }
    out.sort_by_key(|(id, _)| *id);
    out
}

/// Rules that can never fire because an event literal in their body names a
/// `(sign, predicate)` no live rule head produces. Computed as a greatest
/// fixpoint: start from all rules live, repeatedly kill rules with an
/// unproducible event literal, shrinking the producible set — a dead rule's
/// head marks never appear, which can kill further rules downstream. Call
/// this on the program that will actually run (`P_U` if there are external
/// updates; their synthetic rules are producers like any other).
pub fn unreachable_event_rules(program: &CompiledProgram) -> Vec<RuleId> {
    let n = program.len();
    let mut live = vec![true; n];
    loop {
        let produced: HashSet<(Sign, park_storage::PredId)> = program
            .rules()
            .iter()
            .filter(|r| live[r.id.0 as usize])
            .map(|r| (r.head_sign, r.head.pred))
            .collect();
        let mut changed = false;
        for rule in program.rules() {
            if !live[rule.id.0 as usize] {
                continue;
            }
            let reachable = events(rule).all(|(sign, atom)| produced.contains(&(sign, atom.pred)));
            if !reachable {
                live[rule.id.0 as usize] = false;
                changed = true;
            }
        }
        if !changed {
            return program
                .rules()
                .iter()
                .filter(|r| !live[r.id.0 as usize])
                .map(|r| r.id)
                .collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use park_storage::Vocabulary;
    use park_syntax::parse_program;

    fn compile(src: &str) -> CompiledProgram {
        CompiledProgram::compile(Vocabulary::new(), &parse_program(src).unwrap()).unwrap()
    }

    fn refined(src: &str) -> RefinedConflicts {
        refine_conflicts(&compile(src), AnalysisVariant::Faithful)
    }

    #[test]
    fn guard_partition_excludes_the_pair() {
        let r = refined("p(X), X < 5 -> +q(X). p(X), X >= 5 -> -q(X).");
        assert!(r.pairs.is_empty());
        assert_eq!(r.excluded.len(), 1);
        assert_eq!(r.excluded[0].1, ExclusionReason::GuardContradiction);
    }

    #[test]
    fn overlapping_guards_keep_the_pair() {
        let r = refined("p(X), X < 7 -> +q(X). p(X), X >= 5 -> -q(X).");
        assert_eq!(r.pairs.len(), 1);
        assert!(r.excluded.is_empty());
    }

    #[test]
    fn constant_guards_refine_through_head_constants() {
        // The heads link Y to 3, which satisfies Y < 5 — pair survives.
        let r = refined("p(X) -> +q(3). p(Y), Y < 5 -> -q(Y).");
        assert_eq!(r.pairs.len(), 1);
        // Here the link forces Y = 9, contradicting Y < 5.
        let r = refined("p(X) -> +q(9). p(Y), Y < 5 -> -q(Y).");
        assert!(r.pairs.is_empty());
        assert_eq!(r.excluded[0].1, ExclusionReason::GuardContradiction);
    }

    #[test]
    fn equality_guards_chain_through_classes() {
        // Heads link Y ~ Z; X = Y merges X into that class, so X < 3 and
        // Z > 4 meet on one class and contradict.
        let r = refined("e(X, Y), X = Y, X < 3 -> +q(Y). p(Z), Z > 4 -> -q(Z).");
        assert!(r.pairs.is_empty());
        assert_eq!(r.excluded[0].1, ExclusionReason::GuardContradiction);
    }

    #[test]
    fn ne_guard_against_linked_constant() {
        let r = refined("p(X) -> +q(a). p(Y), Y != a -> -q(Y).");
        assert!(r.pairs.is_empty());
        assert_eq!(r.excluded[0].1, ExclusionReason::GuardContradiction);
    }

    #[test]
    fn repeated_head_variables_disunify() {
        let r = refined("p(X) -> +q(X, X). p(Y) -> -q(a, b).");
        assert!(r.pairs.is_empty());
        assert_eq!(r.excluded[0].1, ExclusionReason::HeadsDisunify);
    }

    #[test]
    fn event_polarity_clash_excludes() {
        let r = refined("+e(X) -> +q(X). -e(X) -> -q(X).");
        assert!(r.pairs.is_empty());
        assert_eq!(r.excluded[0].1, ExclusionReason::EventPolarityClash);
    }

    #[test]
    fn same_polarity_events_do_not_exclude() {
        let r = refined("+e(X) -> +q(X). +e(X) -> -q(X).");
        assert_eq!(r.pairs.len(), 1);
    }

    #[test]
    fn unlinked_event_tuples_do_not_exclude() {
        // The event tuples are not forced equal by the heads.
        let r = refined("+e(X), p(X, Y) -> +q(Y). -e(Z), p(Z, W) -> -q(W).");
        assert_eq!(r.pairs.len(), 1);
    }

    #[test]
    fn pos_neg_complement_is_not_used() {
        // a ∈ I and -a ∈ I can coexist in PARK, so `a` vs `!a` bodies do
        // NOT exclude a pair.
        let r = refined("a -> +q. !a -> -q.");
        assert_eq!(r.pairs.len(), 1);
    }

    #[test]
    fn never_firing_rules_are_detected() {
        let p = compile("p(X), X < 3, X > 5 -> +q(X). p(X) -> +r(X).");
        assert_eq!(never_fire_rules(&p), vec![RuleId(0)]);
        // Constant-false guard.
        let p = compile("p(X), 1 > 2 -> +q(X).");
        assert_eq!(never_fire_rules(&p), vec![RuleId(0)]);
        // Opposite event polarities on the same tuple.
        let p = compile("+e(X), -e(X) -> +q(X).");
        assert_eq!(never_fire_rules(&p), vec![RuleId(0)]);
        // Ordered guard on a symbol constant.
        let p = compile("p(X), X < a -> +q(X).");
        assert_eq!(never_fire_rules(&p), vec![RuleId(0)]);
    }

    #[test]
    fn never_firing_rule_excludes_its_pairs() {
        let r = refined("p(X), X < 3, X > 5 -> -q(X). p(X) -> +q(X).");
        assert!(r.pairs.is_empty());
        assert!(matches!(r.excluded[0].1, ExclusionReason::NeverFires(_)));
    }

    #[test]
    fn certificate_on_partitioned_program() {
        let p = compile("p(X), X < 5 -> +q(X). p(X), X >= 5 -> -q(X).");
        assert!(p.possibly_conflicting());
        let cert = certify_conflict_free(&p, AnalysisVariant::Faithful).unwrap();
        assert_eq!(cert.pairs_examined, 1);
        // Trivially certified when no predicate has both polarities.
        let p = compile("p(X) -> +q(X).");
        let cert = certify_conflict_free(&p, AnalysisVariant::Faithful).unwrap();
        assert_eq!(cert.pairs_examined, 0);
        // A live pair denies the certificate.
        let p = compile("p -> +q. p -> -q.");
        assert!(certify_conflict_free(&p, AnalysisVariant::Faithful).is_none());
    }

    #[test]
    fn broken_variant_wrongly_certifies_head_constants() {
        let p = compile("p(X) -> +q(X). p(X) -> -q(a).");
        assert!(certify_conflict_free(&p, AnalysisVariant::Faithful).is_none());
        // The broken variant drops the Const-vs-Var pair and certifies a
        // program that conflicts at runtime on q(a).
        assert!(certify_conflict_free(&p, AnalysisVariant::IgnoreHeadConstants).is_some());
    }

    #[test]
    fn certificate_on_updates_program() {
        use park_storage::{Tuple, UpdateSet, Value};
        let p = compile("p(X), X < 5 -> +q(X).");
        let v = std::sync::Arc::clone(p.vocab());
        let q = v.pred("q", 1).unwrap();
        let mut u = UpdateSet::empty();
        u.delete(q, Tuple::new(vec![Value::Int(9)]));
        // tx1: -> -q(9) links q's head to 9, contradicting X < 5.
        let pu = p.with_updates(&u);
        assert!(certify_conflict_free(&pu, AnalysisVariant::Faithful).is_some());
        // But -q(3) overlaps the guarded insert: no certificate.
        let mut u = UpdateSet::empty();
        u.delete(q, Tuple::new(vec![Value::Int(3)]));
        let pu = p.with_updates(&u);
        assert!(certify_conflict_free(&pu, AnalysisVariant::Faithful).is_none());
    }

    #[test]
    fn always_blocked_delete_under_prefer_insert() {
        // cut's body subsumes… rather: grow subsumes cut (same body), so
        // whenever cut fires, grow fires the same atom and insert wins.
        let p = compile("grow: p(X) -> +q(X). cut: p(X) -> -q(X).");
        assert_eq!(
            always_blocked_rules(&p),
            vec![
                (RuleId(0), ConstPolicy::PreferDelete),
                (RuleId(1), ConstPolicy::PreferInsert),
            ]
        );
    }

    #[test]
    fn always_blocked_requires_subsumption() {
        // cut fires on z's support, which does not imply grow's body.
        let p = compile("grow: p(X) -> +q(X). cut: z(X) -> -q(X).");
        assert!(always_blocked_rules(&p).is_empty());
        // A wider deleting body IS subsumed by the narrower inserting one.
        let p = compile("grow: p(X) -> +q(X). cut: p(X), z(X) -> -q(X).");
        assert_eq!(
            always_blocked_rules(&p),
            vec![(RuleId(1), ConstPolicy::PreferInsert)]
        );
    }

    #[test]
    fn subsumption_respects_constants_and_repeats() {
        // grow only covers q(a), so cut (which fires on every p(X)) is not
        // subsumed — but cut's wider body does subsume grow, which can
        // therefore never win under prefer-delete.
        let p = compile("grow: p(a) -> +q(a). cut: p(X) -> -q(X).");
        assert_eq!(
            always_blocked_rules(&p),
            vec![(RuleId(0), ConstPolicy::PreferDelete)]
        );
        // Repeated variable in the dominator maps fine.
        let p = compile("grow: e(X, X) -> +q(X). cut: e(Y, Y), z(Y) -> -q(Y).");
        assert_eq!(
            always_blocked_rules(&p),
            vec![(RuleId(1), ConstPolicy::PreferInsert)]
        );
    }

    #[test]
    fn unreachable_event_rules_fixpoint() {
        // Nothing produces +z: r2 is dead; r3 relied on r2's head, also dead.
        let p = compile(
            "r1: p(X) -> +q(X).
             r2: +z(X) -> +w(X).
             r3: +w(X) -> +v(X).",
        );
        assert_eq!(unreachable_event_rules(&p), vec![RuleId(1), RuleId(2)]);
        // With a +z producer everything is reachable.
        let p = compile(
            "r0: p(X) -> +z(X).
             r2: +z(X) -> +w(X).
             r3: +w(X) -> +v(X).",
        );
        assert!(unreachable_event_rules(&p).is_empty());
        // Polarity matters: a -z head does not feed a +z event.
        let p = compile("r0: p(X) -> -z(X). r2: +z(X) -> +w(X).");
        assert_eq!(unreachable_event_rules(&p), vec![RuleId(1)]);
    }
}
