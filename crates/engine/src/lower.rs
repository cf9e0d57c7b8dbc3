//! Lowering [`CompiledRule`]s into [`crate::bytecode`] programs.
//!
//! `lower` runs once per engine run (before the fixpoint starts) and turns
//! each rule's body into a flat op sequence with every binding decision
//! made ahead of time:
//!
//! - **Join order** is chosen by a greedy cost model over the *base*
//!   shard cardinalities of the database the run starts from (the only
//!   stats that exist before evaluation begins). Filters (negations,
//!   guards) are scheduled as early as their variables allow, exactly as
//!   in [`crate::compile`]'s planner; binding literals are ordered by
//!   estimated enumeration cost instead of raw bound-position count.
//! - **Index selection** is explicit per op: the base zone of a probed
//!   literal is indexed only when the cost model expects the index to pay
//!   for itself (`INDEX_MIN_ROWS`); the `I⁺`/`I⁻` zones, which start
//!   empty and grow monotonically during a run, are always probed through
//!   their lazily built indexes.
//! - **Boundness is static**: every variable's first binding op is known
//!   at lowering time, so the executor's registers need no `Option`
//!   wrapper, no occurs-checks, and no undo bookkeeping on backtracking.
//!
//! Because the cost model only consults the immutable starting database,
//! lowering is deterministic: the same program and database produce the
//! same lowered ops regardless of thread count, restarts, or which
//! harness configuration is running.

use crate::bytecode::{
    AccessOp, AccessZone, CheckSrc, ColBind, ColCheck, DeltaKind, KeySrc, LoweredRule, Op,
};
use crate::compile::{
    CompiledLiteral, CompiledProgram, CompiledRule, IndexRequest, LitKind, TermSlot,
};
use crate::validity::MarkZone;
use park_storage::{ColumnMask, FactStore, PredId};
use park_syntax::Sign;
use std::collections::HashMap;

/// Base shards smaller than this are scanned rather than probed through a
/// hash index: at these sizes the per-probe hashing beats nothing.
pub(crate) const INDEX_MIN_ROWS: usize = 16;

/// Assumed cardinality of a predicate with an empty base shard (its rows,
/// if any, will be derived into `I⁺` during the run — unknowable before
/// evaluation, but rarely free).
const DERIVED_DEFAULT_ROWS: u64 = 64;

/// Assumed per-probe yield of an event literal's delta window (delta
/// windows are one step's worth of new marks — small by construction).
const EVENT_DEFAULT_ROWS: u64 = 4;

/// A full lowered program: one [`LoweredRule`] per source rule, in rule
/// order, plus the indexes its ops want and the lowering telemetry.
#[derive(Debug, Clone)]
pub struct LoweredProgram {
    rules: Vec<LoweredRule>,
    index_requests: Vec<IndexRequest>,
    op_count: u64,
    index_picks: u64,
}

impl LoweredProgram {
    /// The lowered rules, in source-rule order.
    pub(crate) fn rules(&self) -> &[LoweredRule] {
        &self.rules
    }

    /// The indexes the lowered ops probe: build these before evaluating
    /// (replaces [`CompiledProgram::index_requests`] under compiled
    /// evaluation — base-zone requests the cost model rejected are
    /// omitted).
    pub fn index_requests(&self) -> &[IndexRequest] {
        &self.index_requests
    }

    /// Total lowered ops across all rules.
    pub fn op_count(&self) -> u64 {
        self.op_count
    }

    /// Number of access ops whose base zone the cost model chose to probe
    /// through a hash index rather than scan.
    pub fn index_picks(&self) -> u64 {
        self.index_picks
    }
}

/// Estimated rows one probe of this literal enumerates, given the base
/// cardinality and how many of its columns are bound: each bound column is
/// assumed to cut the extension by 4x.
fn est_rows(raw: u64, bound_cols: u32) -> u64 {
    raw >> (2 * bound_cols).min(63)
}

/// The raw (unbound) cardinality estimate of a binding literal.
fn raw_rows(kind: LitKind, pred: PredId, db: &FactStore) -> u64 {
    let base_len = db.relation(pred).map_or(0, |r| r.len()) as u64;
    match kind {
        LitKind::Pos => {
            if base_len == 0 {
                DERIVED_DEFAULT_ROWS
            } else {
                base_len
            }
        }
        _ => EVENT_DEFAULT_ROWS,
    }
}

/// How the cost model ranks a candidate binding literal: fewest estimated
/// rows, then most bound columns, then fewest newly bound variables, then
/// source order (the order candidates are examined).
#[derive(PartialEq, Eq)]
struct Cost {
    est: u64,
    bound_cols: u32,
    unbound_vars: u32,
}

impl Cost {
    fn better_than(&self, other: &Cost) -> bool {
        (
            self.est,
            std::cmp::Reverse(self.bound_cols),
            self.unbound_vars,
        ) < (
            other.est,
            std::cmp::Reverse(other.bound_cols),
            other.unbound_vars,
        )
    }
}

fn cost_of(lit: &CompiledLiteral, bound: &[bool], db: &FactStore) -> Cost {
    let CompiledLiteral::Atom { kind, atom } = lit else {
        unreachable!("cost_of on a non-binding literal");
    };
    let mut bound_cols = 0u32;
    let mut unbound = Vec::new();
    for t in atom.terms.iter() {
        match *t {
            TermSlot::Const(_) => bound_cols += 1,
            TermSlot::Var(s) => {
                if bound[s as usize] {
                    bound_cols += 1;
                } else if !unbound.contains(&s) {
                    unbound.push(s);
                }
            }
        }
    }
    Cost {
        est: est_rows(raw_rows(*kind, atom.pred, db), bound_cols),
        bound_cols,
        unbound_vars: unbound.len() as u32,
    }
}

/// Lower one binding literal into an access op, updating `bound` and the
/// index-request set.
fn lower_access(
    kind: LitKind,
    atom: &crate::compile::CompiledAtom,
    bound: &mut [bool],
    db: &FactStore,
    requests: &mut HashMap<IndexRequest, ()>,
    index_picks: &mut u64,
) -> (AccessOp, DeltaKind) {
    let pred = atom.pred;
    let mut mask_cols: Vec<usize> = Vec::new();
    let mut key: Vec<KeySrc> = Vec::new();
    let mut checks: Vec<ColCheck> = Vec::new();
    let mut binds: Vec<ColBind> = Vec::new();
    // First occurrence column of each variable newly bound by this atom,
    // for repeated-variable checks against the same row.
    let mut first_col: HashMap<u16, u16> = HashMap::new();
    for (col, t) in atom.terms.iter().enumerate() {
        let col16 = u16::try_from(col).expect("atom arity fits u16");
        match *t {
            TermSlot::Const(c) => {
                mask_cols.push(col);
                key.push(KeySrc::Const(c));
                checks.push(ColCheck {
                    col: col16,
                    src: CheckSrc::Const(c),
                });
            }
            TermSlot::Var(s) => {
                if bound[s as usize] {
                    mask_cols.push(col);
                    key.push(KeySrc::Reg(s));
                    checks.push(ColCheck {
                        col: col16,
                        src: CheckSrc::Reg(s),
                    });
                } else if let Some(&c0) = first_col.get(&s) {
                    checks.push(ColCheck {
                        col: col16,
                        src: CheckSrc::Col(c0),
                    });
                } else {
                    first_col.insert(s, col16);
                    binds.push(ColBind { col: col16, reg: s });
                }
            }
        }
    }
    for (&s, _) in first_col.iter() {
        bound[s as usize] = true;
    }
    let mask = ColumnMask::from_cols(mask_cols);
    let (zone, delta_kind) = match kind {
        LitKind::Pos => (AccessZone::Both, DeltaKind::Plus(pred)),
        LitKind::Event(Sign::Insert) => (AccessZone::Plus, DeltaKind::Plus(pred)),
        LitKind::Event(Sign::Delete) => (AccessZone::Minus, DeltaKind::Minus(pred)),
        LitKind::Neg => unreachable!("negations are filters, not access ops"),
    };
    let base_len = db.relation(pred).map_or(0, |r| r.len());
    // Base-zone indexing is a cost-model decision; the mark zones start
    // empty and grow during the run, so they always get their (lazy,
    // incrementally maintained) index when there is a key to probe.
    let index_base = zone == AccessZone::Both && !mask.is_empty() && base_len >= INDEX_MIN_ROWS;
    if index_base {
        *index_picks += 1;
        requests.insert(
            IndexRequest {
                pred,
                mask,
                zone: MarkZone::Base,
            },
            (),
        );
    }
    if !mask.is_empty() {
        match zone {
            AccessZone::Both | AccessZone::Plus => {
                requests.insert(
                    IndexRequest {
                        pred,
                        mask,
                        zone: MarkZone::Plus,
                    },
                    (),
                );
            }
            AccessZone::Minus => {
                requests.insert(
                    IndexRequest {
                        pred,
                        mask,
                        zone: MarkZone::Minus,
                    },
                    (),
                );
            }
        }
    }
    (
        AccessOp {
            pred,
            zone,
            mask,
            key: key.into(),
            index_base,
            checks: checks.into(),
            binds: binds.into(),
        },
        delta_kind,
    )
}

fn keysrc_of(t: TermSlot) -> KeySrc {
    match t {
        TermSlot::Const(c) => KeySrc::Const(c),
        TermSlot::Var(s) => KeySrc::Reg(s),
    }
}

fn lower_rule(
    rule: &CompiledRule,
    db: &FactStore,
    requests: &mut HashMap<IndexRequest, ()>,
    index_picks: &mut u64,
) -> LoweredRule {
    let mut bound = vec![false; rule.num_vars as usize];
    let mut remaining: Vec<usize> = (0..rule.body.len()).collect();
    let mut ops: Vec<Op> = Vec::new();
    let mut binding_ops: Vec<u32> = Vec::new();
    let mut delta_kinds: Vec<DeltaKind> = Vec::new();
    let mut neg_preds: Vec<PredId> = Vec::new();

    let is_ready_filter = |lit: &CompiledLiteral, bound: &[bool]| {
        !lit.is_binding() && lit.var_slots().all(|s| bound[s as usize])
    };

    loop {
        // Filters run as early as their variables allow, in source order —
        // same discipline as the interpreted planner.
        while let Some(i) = remaining
            .iter()
            .position(|&l| is_ready_filter(&rule.body[l], &bound))
        {
            let l = remaining.remove(i);
            match &rule.body[l] {
                CompiledLiteral::Atom { atom, .. } => {
                    neg_preds.push(atom.pred);
                    ops.push(Op::Neg {
                        pred: atom.pred,
                        row: atom.terms.iter().map(|&t| keysrc_of(t)).collect(),
                    });
                }
                CompiledLiteral::Guard { op, lhs, rhs } => ops.push(Op::Guard {
                    op: *op,
                    lhs: keysrc_of(*lhs),
                    rhs: keysrc_of(*rhs),
                }),
            }
        }
        if remaining.is_empty() {
            break;
        }
        // Pick the cheapest binding literal under the cost model.
        let mut best: Option<(usize, Cost)> = None;
        for (i, &l) in remaining.iter().enumerate() {
            if !rule.body[l].is_binding() {
                continue;
            }
            let cost = cost_of(&rule.body[l], &bound, db);
            if best.as_ref().is_none_or(|(_, b)| cost.better_than(b)) {
                best = Some((i, cost));
            }
        }
        let (i, _) = best.expect("safety: some binding literal remains");
        let l = remaining.remove(i);
        let CompiledLiteral::Atom { kind, atom } = &rule.body[l] else {
            unreachable!("binding literals are atoms");
        };
        let (op, dk) = lower_access(*kind, atom, &mut bound, db, requests, index_picks);
        binding_ops.push(u32::try_from(ops.len()).expect("op count fits u32"));
        delta_kinds.push(dk);
        ops.push(Op::Access(op));
    }

    let step0_pred = match ops.first() {
        Some(Op::Access(a)) => Some(a.pred),
        _ => None,
    };
    LoweredRule {
        rule_id: rule.id,
        head_sign: rule.head_sign,
        head_pred: rule.head.pred,
        head: rule.head.terms.iter().map(|&t| keysrc_of(t)).collect(),
        num_regs: rule.num_vars,
        ops: ops.into(),
        binding_ops: binding_ops.into(),
        delta_kinds: delta_kinds.into(),
        neg_preds: neg_preds.into(),
        has_body: !rule.body.is_empty(),
        step0_pred,
    }
}

/// Lower every rule of `program` against the starting database `db` (the
/// cost model's only input — see the module docs for why that keeps
/// lowering deterministic).
pub fn lower(program: &CompiledProgram, db: &FactStore) -> LoweredProgram {
    let mut requests: HashMap<IndexRequest, ()> = HashMap::new();
    let mut index_picks = 0u64;
    let rules: Vec<LoweredRule> = program
        .rules()
        .iter()
        .map(|r| lower_rule(r, db, &mut requests, &mut index_picks))
        .collect();
    let op_count = rules.iter().map(|r| r.ops.len() as u64).sum();
    LoweredProgram {
        rules,
        index_requests: requests.into_keys().collect(),
        op_count,
        index_picks,
    }
}

impl LoweredProgram {
    /// Human-readable dump of the lowered program (the `park analyze
    /// --plan` payload).
    pub fn render(&self, program: &CompiledProgram) -> String {
        let vocab = program.vocab();
        let ks = |k: &KeySrc| match *k {
            KeySrc::Const(c) => vocab.constant(vocab.decode(c)).to_string(),
            KeySrc::Reg(r) => format!("r{r}"),
        };
        let mut s = format!(
            "lowered program: {} rules, {} ops, {} cost-model index picks\n",
            self.rules.len(),
            self.op_count,
            self.index_picks
        );
        for (lr, rule) in self.rules.iter().zip(program.rules()) {
            let head_cols: Vec<String> = lr.head.iter().map(&ks).collect();
            s.push_str(&format!(
                "rule {} -> {}{}({}): {} regs, {} ops\n",
                rule.display_name(),
                match lr.head_sign {
                    Sign::Insert => '+',
                    Sign::Delete => '-',
                },
                vocab.pred_name(lr.head_pred),
                head_cols.join(", "),
                lr.num_regs,
                lr.ops.len(),
            ));
            for (i, op) in lr.ops.iter().enumerate() {
                let line = match op {
                    Op::Access(a) => {
                        let zone = match a.zone {
                            AccessZone::Both => "base+plus",
                            AccessZone::Plus => "plus",
                            AccessZone::Minus => "minus",
                        };
                        let access = if a.mask.is_empty() {
                            "scan".to_string()
                        } else if a.index_base || a.zone != AccessZone::Both {
                            let keys: Vec<String> = a.key.iter().map(&ks).collect();
                            format!("probe[{}]", keys.join(", "))
                        } else {
                            let keys: Vec<String> = a.key.iter().map(&ks).collect();
                            format!("filter-scan[{}]", keys.join(", "))
                        };
                        let binds: Vec<String> = a
                            .binds
                            .iter()
                            .map(|b| format!("r{}<-c{}", b.reg, b.col))
                            .collect();
                        format!(
                            "access {} {} {} checks={} binds=[{}]",
                            vocab.pred_name(a.pred),
                            zone,
                            access,
                            a.checks.len(),
                            binds.join(", "),
                        )
                    }
                    Op::Neg { pred, row } => {
                        let cols: Vec<String> = row.iter().map(&ks).collect();
                        format!("neg {}({})", vocab.pred_name(*pred), cols.join(", "))
                    }
                    Op::Guard { op, lhs, rhs } => {
                        format!("guard {} {} {}", ks(lhs), op, ks(rhs))
                    }
                };
                s.push_str(&format!("  {i}: {line}\n"));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use park_storage::Vocabulary;
    use park_syntax::parse_program;
    use std::sync::Arc;

    fn lowered(rules: &str, facts: &str) -> (CompiledProgram, FactStore, LoweredProgram) {
        let vocab = Vocabulary::new();
        let program =
            CompiledProgram::compile(Arc::clone(&vocab), &parse_program(rules).unwrap()).unwrap();
        let db = FactStore::from_source(vocab, facts).unwrap();
        let lp = lower(&program, &db);
        (program, db, lp)
    }

    #[test]
    fn small_base_shards_are_scanned_not_indexed() {
        let (_, _, lp) = lowered(
            "edge(X, Y), edge(Y, Z) -> +tc(X, Z).",
            "edge(a, b). edge(b, c).",
        );
        let rule = &lp.rules()[0];
        let accesses: Vec<&AccessOp> = rule
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::Access(a) => Some(a),
                _ => None,
            })
            .collect();
        assert_eq!(accesses.len(), 2);
        // Two facts: under INDEX_MIN_ROWS, so no base index for the probe.
        assert!(accesses.iter().all(|a| !a.index_base));
        assert_eq!(lp.index_picks(), 0);
        assert!(lp.index_requests().iter().all(|r| r.zone != MarkZone::Base));
    }

    #[test]
    fn large_base_shards_get_cost_model_indexes() {
        let facts: String = (0..40)
            .map(|i| format!("edge(n{}, n{}). ", i, i + 1))
            .collect();
        let (_, _, lp) = lowered("edge(X, Y), edge(Y, Z) -> +tc(X, Z).", &facts);
        let rule = &lp.rules()[0];
        let probed: Vec<bool> = rule
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::Access(a) => Some(a.index_base),
                _ => None,
            })
            .collect();
        // First access scans (nothing bound), second probes by the shared
        // variable through a base index.
        assert_eq!(probed, vec![false, true]);
        assert_eq!(lp.index_picks(), 1);
        assert!(lp.index_requests().iter().any(|r| r.zone == MarkZone::Base));
    }

    #[test]
    fn cost_model_prefers_selective_literal_first() {
        // `big` has 40 rows, `tiny` has 1: with nothing bound the cost
        // model starts from `tiny` even though `big` comes first in source
        // order (the interpreted planner would start from `big`).
        let facts: String = (0..40)
            .map(|i| format!("big(n{}, m{}). ", i, i))
            .chain(std::iter::once("tiny(n3, x). ".to_string()))
            .collect();
        let (_, _, lp) = lowered("big(X, Y), tiny(X, Z) -> +out(Y, Z).", &facts);
        let rule = &lp.rules()[0];
        let Op::Access(first) = &rule.ops[0] else {
            panic!("expected access op first");
        };
        let Op::Access(second) = &rule.ops[1] else {
            panic!("expected access op second");
        };
        assert_eq!(rule.binding_ops.len(), 2);
        // tiny (1 row) is enumerated first, then big probed with X bound.
        assert!(first.mask.is_empty());
        assert_eq!(second.mask.count(), 1);
    }

    #[test]
    fn filters_schedule_as_early_as_bound() {
        let (_, _, lp) = lowered("p(X), !q(X), r(X, Y), X != Y -> +s(Y).", "p(a). r(a, b).");
        let rule = &lp.rules()[0];
        let shape: Vec<&str> = rule
            .ops
            .iter()
            .map(|o| match o {
                Op::Access(_) => "access",
                Op::Neg { .. } => "neg",
                Op::Guard { .. } => "guard",
            })
            .collect();
        // !q(X) runs right after X is bound, the guard after Y is bound.
        assert_eq!(shape, vec!["access", "neg", "access", "guard"]);
        assert_eq!(rule.neg_preds.len(), 1);
    }

    #[test]
    fn repeated_variables_check_within_the_row() {
        let (_, _, lp) = lowered("q(X, X) -> +d(X).", "q(a, a). q(a, b).");
        let rule = &lp.rules()[0];
        let Op::Access(a) = &rule.ops[0] else {
            panic!("expected access op");
        };
        assert_eq!(a.binds.len(), 1);
        assert_eq!(
            a.checks.as_ref(),
            &[ColCheck {
                col: 1,
                src: CheckSrc::Col(0)
            }]
        );
    }

    #[test]
    fn render_names_every_op() {
        let facts: String = (0..40)
            .map(|i| format!("edge(n{}, n{}). ", i, i + 1))
            .collect();
        let (program, _, lp) = lowered(
            "edge(X, Y), edge(Y, Z), !blocked(X), X != Z -> +tc(X, Z).",
            &facts,
        );
        let plan = lp.render(&program);
        assert!(plan.contains("lowered program: 1 rules"));
        assert!(plan.contains("access edge"));
        assert!(plan.contains("probe["));
        assert!(plan.contains("neg blocked(r0)"));
        assert!(plan.contains("guard r0 != r2"));
        assert!(plan.contains("-> +tc(r0, r2)"));
    }

    #[test]
    fn event_literals_run_before_positive_joins() {
        let facts: String = (0..40).map(|i| format!("p(n{}, m{}). ", i, i)).collect();
        let (_, _, lp) = lowered("p(X, Y), +q(X) -> +out(Y).", &facts);
        let rule = &lp.rules()[0];
        let Op::Access(first) = &rule.ops[0] else {
            panic!("expected access op");
        };
        // The event's delta window is assumed tiny; it binds X before the
        // 40-row `p` shard is probed.
        assert_eq!(first.zone, AccessZone::Plus);
        assert_eq!(rule.delta_kinds.len(), 2);
    }
}
