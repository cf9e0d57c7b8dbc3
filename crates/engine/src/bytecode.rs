//! The compiled evaluator: flat register bytecode for rule bodies, and the
//! engine's only Γ evaluator.
//!
//! Every run lowers each [`crate::compile::CompiledRule`] into a flat
//! sequence of register-style ops ([`Op`]) over interned
//! [`Code`] values — see [`crate::lower`](mod@crate::lower) for the
//! lowering pass and its cost model. This module holds the lowered program
//! representation and the batch executor that runs it. Warm incremental
//! transactions (`crate::incremental`) propagate through the same
//! executor.
//!
//! ## Execution model
//!
//! A rule with `n` variables executes over *frames* of `n` registers. Ops
//! run left to right; each [`Op::Access`] expands every input frame by the
//! matching rows of one relation zone (applying its column checks and
//! register binds), while [`Op::Neg`] and [`Op::Guard`] filter frames
//! through. Frames reaching the end of the op list emit one
//! [`FiredAction`] each (unless the grounding is blocked).
//!
//! Unlike the tree-walking interpreter in [`crate::gamma`], propagation is
//! *batch-at-a-time*: frames flow through the ops in chunks of up to
//! `CHUNK` (recursing once per chunk, not once per tuple), registers are
//! plain `Code` slots with statically known boundness (no `Option`, no
//! undo lists), and index probes go through
//! [`park_storage::Relation::index_bucket`] — the op's own checks subsume
//! the per-candidate verification a [`park_storage::Relation`] probe
//! iterator would repeat.
//!
//! ## Delta evaluation
//!
//! Naive evaluation ([`crate::gamma::fire_all`]) re-enumerates every valid
//! grounding at every step. Within one inflationary run, however, a
//! grounding that becomes valid at step *k* must use at least one mark
//! added at step *k−1* (zones only grow, and a negated literal can only
//! *become* valid through a new `-b` mark) — so each step after the first
//! only needs to join against the previous step's **delta**.
//!
//! [`fire_new_lowered`] enumerates exactly the groundings that became valid
//! in the last step, using the classic decomposition: for each binding op
//! position *d* (in op order), op *d* ranges over the delta window,
//! earlier binding ops over the pre-delta (old) window, later ones over the
//! full extension — every new grounding is produced exactly once, at its
//! first delta position. A delta pass whose window provably gained nothing
//! is planned out. Rules whose negated literals gained new `-b` marks fall
//! back to full enumeration for that step (the only way a negated literal
//! becomes valid without any binding-literal delta).
//!
//! ## Identity with naive evaluation
//!
//! Per Γ step the *set* of enumerated groundings new to the run equals
//! naive evaluation's (the lockstep tests below drive naive Γ and this
//! executor through whole runs and compare per step, and a debug build
//! checks every live step of the fixpoint loop against
//! [`crate::gamma::fire_all`]). The
//! heads of *old* groundings are already marked in `I`, so the
//! inflationary step adds the same marks either way, and conflict sides are
//! always merged with the run's provenance (which holds every grounding
//! that ever fired), so `SELECT` sees identical `(a, ins, del)` triples.
//! Only the emission order within a step may differ when the cost model
//! reorders a join; conflicts are handed to `SELECT` in rendered-atom
//! order ([`crate::conflict::collect_conflicts`]), so that order is never
//! observable through resolution.
//!
//! ## Parallel evaluation: shard ownership
//!
//! The enumeration decomposes into *units* — one full unit per
//! negation-delta rule, one unit per `(rule, delta position)` pair
//! otherwise, in sequential emission order. Units are grouped into shard
//! tasks by the predicate their rule's first op enumerates: each stored
//! relation is driven by one task, and per-unit buffers are merged back into unit order, so the fired stream is
//! byte-identical to the sequential one. The decomposition depends only on
//! the program and the step's deltas — never on the thread count.

use crate::compile::RuleId;
use crate::gamma::FiredAction;
use crate::grounding::{BlockedSet, Grounding};
use crate::interp::IInterpretation;
use crate::validity;
use park_storage::hash::hash_codes;
use park_storage::{Code, ColumnMask, FxHashMap, PredId, Relation, Value};
use park_syntax::{CompOp, Sign};

/// Maximum frames per propagation chunk: the executor recurses into the
/// next op once per chunk, so join depth costs one call per `CHUNK` frames
/// instead of one per tuple.
pub(crate) const CHUNK: usize = 1024;

/// Per-predicate sizes of the `I⁺` and `I⁻` zones at a step boundary: the
/// delta window of a step is the rows between two captures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ZoneLens {
    plus: Vec<u32>,
    minus: Vec<u32>,
}

impl ZoneLens {
    /// Capture the current zone sizes of an interpretation.
    pub fn capture(interp: &IInterpretation) -> Self {
        let n = interp.vocab().pred_count();
        let len_of = |store: &park_storage::FactStore, i: usize| {
            store.relation(PredId(i as u32)).map_or(0u32, |r| {
                u32::try_from(r.len()).expect("relation too large")
            })
        };
        ZoneLens {
            plus: (0..n).map(|i| len_of(interp.plus(), i)).collect(),
            minus: (0..n).map(|i| len_of(interp.minus(), i)).collect(),
        }
    }

    /// Size of `pred`'s `I⁺` zone; 0 for a predicate past the end of the
    /// capture (interned after it was taken).
    pub(crate) fn plus_len(&self, pred: PredId) -> u32 {
        self.plus.get(pred.0 as usize).copied().unwrap_or(0)
    }

    /// Size of `pred`'s `I⁻` zone; 0 past the end of the capture.
    pub(crate) fn minus_len(&self, pred: PredId) -> u32 {
        self.minus.get(pred.0 as usize).copied().unwrap_or(0)
    }
}

/// Source of one probe-key column or head column: a compile-time constant
/// or a frame register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySrc {
    /// An interned constant.
    Const(Code),
    /// The value of a frame register.
    Reg(u16),
}

impl KeySrc {
    #[inline]
    pub(crate) fn value(self, frame: &[Code]) -> Code {
        match self {
            KeySrc::Const(c) => c,
            KeySrc::Reg(r) => frame[r as usize],
        }
    }
}

/// What a column check compares the row value against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckSrc {
    /// An interned constant.
    Const(Code),
    /// A register bound by an earlier op.
    Reg(u16),
    /// An earlier column of the *same* row (repeated variable within one
    /// atom whose first occurrence is bound by this op).
    Col(u16),
}

/// An equality check of one row column, run before any binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColCheck {
    /// The row column to test.
    pub col: u16,
    /// What it must equal.
    pub src: CheckSrc,
}

/// A register bind: copy a row column into a frame register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColBind {
    /// The row column to read.
    pub col: u16,
    /// The register to write.
    pub reg: u16,
}

/// Which interpretation zone(s) an access op enumerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessZone {
    /// `I° ∪ I⁺` with `I⁺` rows deduplicated against `I°` — a positive
    /// condition literal.
    Both,
    /// `I⁺` only — an insert event literal.
    Plus,
    /// `I⁻` only — a delete event literal.
    Minus,
}

/// Which zone a binding op's delta pass watches for growth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// The op enumerates new `I⁺` marks of this predicate.
    Plus(PredId),
    /// The op enumerates new `I⁻` marks of this predicate.
    Minus(PredId),
}

/// One enumeration step: extend each input frame by the matching rows of
/// one relation zone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOp {
    /// The predicate whose shard(s) this op enumerates.
    pub pred: PredId,
    /// Which zone(s).
    pub zone: AccessZone,
    /// Bound columns at this point of the plan (probe mask). Empty means a
    /// full scan.
    pub mask: ColumnMask,
    /// Probe-key sources, one per `mask` column in ascending column order.
    pub key: Box<[KeySrc]>,
    /// Cost-model verdict: build the *base* zone's hash index for this
    /// mask (`true`) or scan the base (`false`); a base index that exists
    /// anyway is probed. `I⁺`/`I⁻` zones always probe when the mask is
    /// non-empty (they grow without bound during a run).
    pub index_base: bool,
    /// Column equality checks — cover every constant and bound-variable
    /// column, subsuming probe verification.
    pub checks: Box<[ColCheck]>,
    /// Register binds for this op's newly bound variables.
    pub binds: Box<[ColBind]>,
}

/// One lowered instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Enumerate matching rows of a zone, binding registers.
    Access(AccessOp),
    /// Negated-literal filter: the fully instantiated row must satisfy
    /// `valid_neg` (all its columns are constants or bound registers).
    Neg {
        /// The negated predicate.
        pred: PredId,
        /// The row pattern, fully determined by the frame.
        row: Box<[KeySrc]>,
    },
    /// Comparison-guard filter over bound values.
    Guard {
        /// The comparison operator.
        op: CompOp,
        /// Left operand.
        lhs: KeySrc,
        /// Right operand.
        rhs: KeySrc,
    },
}

/// One rule lowered to bytecode. Produced by [`crate::lower::lower`].
#[derive(Debug, Clone)]
pub struct LoweredRule {
    /// The source rule's id (groundings report it).
    pub(crate) rule_id: RuleId,
    /// Head polarity.
    pub(crate) head_sign: Sign,
    /// Head predicate.
    pub(crate) head_pred: PredId,
    /// Head column sources.
    pub(crate) head: Box<[KeySrc]>,
    /// Frame width: one register per rule variable.
    pub(crate) num_regs: u16,
    /// The ops, in execution order.
    pub(crate) ops: Box<[Op]>,
    /// Indices (into `ops`) of the binding access ops, in op order — the
    /// delta positions of delta passes.
    pub(crate) binding_ops: Box<[u32]>,
    /// The zone each binding op's delta pass watches, parallel to
    /// `binding_ops`.
    pub(crate) delta_kinds: Box<[DeltaKind]>,
    /// Predicates of negated body literals (for the fallback trigger).
    pub(crate) neg_preds: Box<[PredId]>,
    /// False for body-less rules (they fire only in a run's first step).
    pub(crate) has_body: bool,
    /// The predicate the first op enumerates, if it is an access — the
    /// shard-task grouping key.
    pub(crate) step0_pred: Option<PredId>,
}

/// Which window of a zone an access op enumerates in the current pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Window {
    /// Everything present before the previous step (`[0, prev)`).
    Old,
    /// Added during the previous step (`[prev, curr)`).
    Delta,
    /// The whole current extension.
    Full,
}

/// One unit of compiled evaluation, in sequential emission order.
#[derive(Debug, Clone, Copy)]
enum CompiledUnit {
    /// Full enumeration of one rule (step 0, or the negation-delta
    /// fallback).
    Full { rule: usize },
    /// One delta-position pass of one rule.
    Delta { rule: usize, delta_pos: usize },
}

impl CompiledUnit {
    fn rule(&self) -> usize {
        match *self {
            CompiledUnit::Full { rule } | CompiledUnit::Delta { rule, .. } => rule,
        }
    }
}

/// A batch of frames: `count` frames of `stride` registers each, stored
/// contiguously. `count` is tracked separately so zero-variable rules
/// (stride 0) still count frames.
#[derive(Debug, Default)]
struct FrameBuf {
    stride: usize,
    data: Vec<Code>,
    count: usize,
}

impl FrameBuf {
    fn reset(&mut self, stride: usize) {
        self.stride = stride;
        self.data.clear();
        self.count = 0;
    }

    #[inline]
    fn frame(&self, i: usize) -> &[Code] {
        &self.data[i * self.stride..(i + 1) * self.stride]
    }
}

/// Reusable per-task execution buffers: one frame buffer per op depth plus
/// a row buffer for negation lookups.
#[derive(Debug, Default)]
pub(crate) struct ExecScratch {
    levels: Vec<FrameBuf>,
    row: Vec<Code>,
    windows: Vec<Window>,
    unit_frame: FrameBuf,
}

impl ExecScratch {
    pub(crate) fn new() -> Self {
        ExecScratch::default()
    }
}

/// Read-only context of one pass over one rule.
struct PassCx<'a> {
    blocked: &'a BlockedSet,
    interp: &'a IInterpretation,
    prev: &'a ZoneLens,
    curr: &'a ZoneLens,
}

#[inline]
fn check_one(c: &ColCheck, row: &[Code], frame: &[Code]) -> bool {
    row[c.col as usize]
        == match c.src {
            CheckSrc::Const(v) => v,
            CheckSrc::Reg(r) => frame[r as usize],
            CheckSrc::Col(c2) => row[c2 as usize],
        }
}

/// Specialized small-arity check dispatch: bodies of arity ≤ 3 run their
/// checks fully unrolled instead of through the iterator machinery.
#[inline]
fn checks_pass(checks: &[ColCheck], row: &[Code], frame: &[Code]) -> bool {
    match checks {
        [] => true,
        [a] => check_one(a, row, frame),
        [a, b] => check_one(a, row, frame) && check_one(b, row, frame),
        [a, b, c] => {
            check_one(a, row, frame) && check_one(b, row, frame) && check_one(c, row, frame)
        }
        many => many.iter().all(|c| check_one(c, row, frame)),
    }
}

/// Append `frame` to `buf` with this op's binds applied (unrolled for
/// arity ≤ 3, like the checks).
#[inline]
fn push_bound(buf: &mut FrameBuf, frame: &[Code], binds: &[ColBind], row: &[Code]) {
    let start = buf.data.len();
    buf.data.extend_from_slice(frame);
    let dst = &mut buf.data[start..];
    match binds {
        [] => {}
        [a] => dst[a.reg as usize] = row[a.col as usize],
        [a, b] => {
            dst[a.reg as usize] = row[a.col as usize];
            dst[b.reg as usize] = row[b.col as usize];
        }
        [a, b, c] => {
            dst[a.reg as usize] = row[a.col as usize];
            dst[b.reg as usize] = row[b.col as usize];
            dst[c.reg as usize] = row[c.col as usize];
        }
        many => {
            for bind in many {
                dst[bind.reg as usize] = row[bind.col as usize];
            }
        }
    }
    buf.count += 1;
}

/// Enumerate the rows of `rel` in insertion positions `[lo, hi)` that pass
/// the op's checks against `frame`, through the op's hash index when the
/// zone carries a current one (falling back to a scan when it does not).
/// The cost model's `index_base` verdict decides which base indexes get
/// built; one that exists anyway — a warm state's base zone grows past its
/// build-time size — is always worth probing.
#[inline]
fn enum_zone(
    rel: &Relation,
    op: &AccessOp,
    frame: &[Code],
    lo: u32,
    hi: u32,
    mut f: impl FnMut(&[Code]),
) {
    let hi = hi.min(u32::try_from(rel.len()).expect("relation too large"));
    let lo = lo.min(hi);
    if lo >= hi {
        return;
    }
    if !op.mask.is_empty() {
        let h = hash_codes(op.key.iter().map(|k| k.value(frame)));
        if let Some(bucket) = rel.index_bucket(op.mask, h) {
            // Candidates are ascending positions; the checks verify them
            // (hash candidates are not certainties).
            let start = bucket.partition_point(|&p| p < lo);
            for &pos in &bucket[start..] {
                if pos >= hi {
                    break;
                }
                let row = rel.row(pos);
                if checks_pass(&op.checks, row, frame) {
                    f(row);
                }
            }
            return;
        }
    }
    for pos in lo..hi {
        let row = rel.row(pos);
        if checks_pass(&op.checks, row, frame) {
            f(row);
        }
    }
}

fn expand_access(
    op: &AccessOp,
    window: Window,
    cx: &PassCx<'_>,
    frame: &[Code],
    buf: &mut FrameBuf,
) {
    match op.zone {
        AccessZone::Both => {
            let base = cx.interp.base().relation(op.pred);
            // Base rows are all "old": enumerate them except in the Delta
            // window (the base cannot contain delta rows).
            if window != Window::Delta {
                if let Some(rel) = base {
                    enum_zone(rel, op, frame, 0, u32::MAX, |row| {
                        push_bound(buf, frame, &op.binds, row);
                    });
                }
            }
            if let Some(rel) = cx.interp.plus().relation(op.pred) {
                let (lo, hi) = match window {
                    Window::Old => (0, cx.prev.plus_len(op.pred)),
                    Window::Delta => (cx.prev.plus_len(op.pred), cx.curr.plus_len(op.pred)),
                    Window::Full => (0, u32::MAX),
                };
                // Skip the base dedup entirely when the base shard is
                // empty — on recursive workloads every derived row lives
                // in I⁺ alone.
                let dedup = base.is_some_and(|b| !b.is_empty());
                enum_zone(rel, op, frame, lo, hi, |row| {
                    if dedup && cx.interp.base().contains_row(op.pred, row) {
                        return; // deduplicated against the base zone
                    }
                    push_bound(buf, frame, &op.binds, row);
                });
            }
        }
        AccessZone::Plus | AccessZone::Minus => {
            let (zone, plen, clen) = match op.zone {
                AccessZone::Plus => (
                    cx.interp.plus(),
                    cx.prev.plus_len(op.pred),
                    cx.curr.plus_len(op.pred),
                ),
                _ => (
                    cx.interp.minus(),
                    cx.prev.minus_len(op.pred),
                    cx.curr.minus_len(op.pred),
                ),
            };
            if let Some(rel) = zone.relation(op.pred) {
                let (lo, hi) = match window {
                    Window::Old => (0, plen),
                    Window::Delta => (plen, clen),
                    Window::Full => (0, u32::MAX),
                };
                enum_zone(rel, op, frame, lo, hi, |row| {
                    push_bound(buf, frame, &op.binds, row);
                });
            }
        }
    }
}

/// Evaluate a lowered guard: equality compares codes directly (interning
/// is injective), ordered comparisons decode through the vocabulary and
/// are integer-only (symbols compare false) — mirrors
/// `CompiledLiteral::eval_guard`.
fn eval_guard(cx: &PassCx<'_>, op: CompOp, lhs: KeySrc, rhs: KeySrc, frame: &[Code]) -> bool {
    let (l, r) = (lhs.value(frame), rhs.value(frame));
    match op {
        CompOp::Eq => l == r,
        CompOp::Ne => l != r,
        _ => {
            let vocab = cx.interp.vocab();
            match (vocab.decode(l), vocab.decode(r)) {
                (Value::Int(a), Value::Int(b)) => op.eval_ordering(a.cmp(&b)),
                _ => false,
            }
        }
    }
}

fn emit(lr: &LoweredRule, cx: &PassCx<'_>, frame: &[Code], out: &mut Vec<FiredAction>) {
    let grounding = Grounding {
        rule: lr.rule_id,
        subst: frame.into(),
    };
    if !cx.blocked.contains(&grounding) {
        let tuple: Box<[Code]> = lr.head.iter().map(|k| k.value(frame)).collect();
        out.push(FiredAction {
            sign: lr.head_sign,
            pred: lr.head_pred,
            tuple,
            grounding,
        });
    }
}

/// Propagate one chunk of frames through ops `d..`: batch-at-a-time, one
/// recursion per chunk. Emission order equals the depth-first order of the
/// tree interpreters because each level preserves its input order and
/// flushes full chunks before consuming later input frames.
fn descend(
    lr: &LoweredRule,
    cx: &PassCx<'_>,
    windows: &[Window],
    d: usize,
    input: &FrameBuf,
    scratch: &mut ExecScratch,
    out: &mut Vec<FiredAction>,
) {
    if d == lr.ops.len() {
        for i in 0..input.count {
            emit(lr, cx, input.frame(i), out);
        }
        return;
    }
    let mut buf = std::mem::take(&mut scratch.levels[d]);
    buf.reset(lr.num_regs as usize);
    for i in 0..input.count {
        let frame = input.frame(i);
        match &lr.ops[d] {
            Op::Access(op) => expand_access(op, windows[d], cx, frame, &mut buf),
            Op::Neg { pred, row } => {
                scratch.row.clear();
                scratch.row.extend(row.iter().map(|k| k.value(frame)));
                if validity::valid_neg(cx.interp, *pred, &scratch.row) {
                    let start = buf.data.len();
                    buf.data.extend_from_slice(frame);
                    let _ = start;
                    buf.count += 1;
                }
            }
            Op::Guard { op, lhs, rhs } => {
                if eval_guard(cx, *op, *lhs, *rhs, frame) {
                    buf.data.extend_from_slice(frame);
                    buf.count += 1;
                }
            }
        }
        if buf.count >= CHUNK {
            descend(lr, cx, windows, d + 1, &buf, scratch, out);
            buf.data.clear();
            buf.count = 0;
        }
    }
    if buf.count > 0 {
        descend(lr, cx, windows, d + 1, &buf, scratch, out);
    }
    scratch.levels[d] = buf;
}

/// Run one pass (full or delta-windowed) of one rule.
#[allow(clippy::too_many_arguments)]
fn run_pass(
    lr: &LoweredRule,
    cx: &PassCx<'_>,
    delta_pos: Option<usize>,
    scratch: &mut ExecScratch,
    out: &mut Vec<FiredAction>,
) {
    if scratch.levels.len() < lr.ops.len() {
        scratch.levels.resize_with(lr.ops.len(), FrameBuf::default);
    }
    scratch.windows.clear();
    scratch.windows.resize(lr.ops.len(), Window::Full);
    if let Some(dp) = delta_pos {
        for (j, &op_idx) in lr.binding_ops.iter().enumerate() {
            scratch.windows[op_idx as usize] = match j.cmp(&dp) {
                std::cmp::Ordering::Less => Window::Old,
                std::cmp::Ordering::Equal => Window::Delta,
                std::cmp::Ordering::Greater => Window::Full,
            };
        }
    }
    let windows = std::mem::take(&mut scratch.windows);
    // The seed: one frame of garbage registers (every register is written
    // before it is read — boundness is static).
    let mut unit = std::mem::take(&mut scratch.unit_frame);
    unit.reset(lr.num_regs as usize);
    unit.data.resize(lr.num_regs as usize, Code(0));
    unit.count = 1;
    descend(lr, cx, &windows, 0, &unit, scratch, out);
    scratch.unit_frame = unit;
    scratch.windows = windows;
}

/// The delta units of one compiled step, in sequential emission order:
/// body-less rules never re-fire, a rule whose negated literal gained `-b`
/// marks falls back to full enumeration, and every other rule gets one pass
/// per binding op whose delta window provably gained marks. A pass whose
/// delta window is empty could not emit a single grounding but would still
/// scan every earlier op's old window — planning it out is what keeps
/// small-update transactions O(delta) instead of O(state); only the task
/// count observes the difference.
fn plan_units(rules: &[LoweredRule], prev: &ZoneLens, curr: &ZoneLens) -> Vec<CompiledUnit> {
    let mut units = Vec::new();
    for (rule_idx, lr) in rules.iter().enumerate() {
        if !lr.has_body {
            continue;
        }
        if lr
            .neg_preds
            .iter()
            .any(|&p| curr.minus_len(p) > prev.minus_len(p))
        {
            units.push(CompiledUnit::Full { rule: rule_idx });
            continue;
        }
        for (delta_pos, kind) in lr.delta_kinds.iter().enumerate() {
            let grew = match *kind {
                DeltaKind::Plus(p) => curr.plus_len(p) > prev.plus_len(p),
                DeltaKind::Minus(p) => curr.minus_len(p) > prev.minus_len(p),
            };
            if grew {
                units.push(CompiledUnit::Delta {
                    rule: rule_idx,
                    delta_pos,
                });
            }
        }
    }
    units
}

/// Group unit indices into shard tasks by the predicate their rule's first
/// op enumerates (first-appearance order); rules enumerating no shard get
/// their own task. The decomposition depends only on the program and the
/// step's deltas, so the task count is thread-independent.
fn plan_shards(rules: &[LoweredRule], units: &[CompiledUnit]) -> Vec<Vec<usize>> {
    let mut tasks: Vec<Vec<usize>> = Vec::new();
    let mut by_pred: FxHashMap<PredId, usize> = FxHashMap::default();
    let mut by_rule: FxHashMap<usize, usize> = FxHashMap::default();
    for (u, unit) in units.iter().enumerate() {
        let rule_idx = unit.rule();
        match rules[rule_idx].step0_pred {
            Some(p) => match by_pred.get(&p) {
                Some(&t) => tasks[t].push(u),
                None => {
                    by_pred.insert(p, tasks.len());
                    tasks.push(vec![u]);
                }
            },
            None => match by_rule.get(&rule_idx) {
                Some(&t) => tasks[t].push(u),
                None => {
                    by_rule.insert(rule_idx, tasks.len());
                    tasks.push(vec![u]);
                }
            },
        }
    }
    tasks
}

/// Flatten per-unit buffers (tagged with their unit index) back into the
/// sequential emission order. Each unit appears at most once.
fn merge_units(n_units: usize, tagged: Vec<(usize, Vec<FiredAction>)>) -> Vec<FiredAction> {
    let mut slots: Vec<Vec<FiredAction>> = Vec::new();
    slots.resize_with(n_units, Vec::new);
    for (unit, buf) in tagged {
        slots[unit] = buf;
    }
    slots.into_iter().flatten().collect()
}

/// Run a list of units (sequentially or on the shard-task pool) and return
/// the merged action stream plus the task count.
#[allow(clippy::too_many_arguments)]
fn run_units(
    rules: &[LoweredRule],
    units: Vec<CompiledUnit>,
    cx: &PassCx<'_>,
    threads: Option<usize>,
    workers: usize,
    spans: Option<&mut Vec<crate::metrics::TaskSpan>>,
) -> (Vec<FiredAction>, u64) {
    let threads = threads.unwrap_or(1).max(1);
    let tasks = plan_shards(rules, &units);
    let n_tasks = tasks.len() as u64;
    let run_unit = |unit: CompiledUnit, scratch: &mut ExecScratch, buf: &mut Vec<FiredAction>| {
        let (rule, delta_pos) = match unit {
            CompiledUnit::Full { rule } => (rule, None),
            CompiledUnit::Delta { rule, delta_pos } => (rule, Some(delta_pos)),
        };
        run_pass(&rules[rule], cx, delta_pos, scratch, buf);
    };
    if threads == 1 && spans.is_none() {
        // Fast sequential path: units in order, no per-unit buffers.
        let mut out = Vec::new();
        let mut scratch = ExecScratch::new();
        for &unit in &units {
            run_unit(unit, &mut scratch, &mut out);
        }
        return (out, n_tasks);
    }
    let workers = if threads == 1 { 1 } else { workers };
    let tagged = crate::parallel::run_ordered(
        &tasks,
        workers,
        |task: &Vec<usize>, buf: &mut Vec<(usize, Vec<FiredAction>)>| {
            let mut scratch = ExecScratch::new();
            for &u in task {
                let mut ubuf = Vec::new();
                run_unit(units[u], &mut scratch, &mut ubuf);
                buf.push((u, ubuf));
            }
        },
        spans,
    );
    (merge_units(units.len(), tagged), n_tasks)
}

/// Full compiled enumeration: every non-blocked valid grounding of every
/// rule, in rule order — the compiled analogue of [`crate::gamma::fire_all`].
pub fn fire_all_lowered(
    lowered: &crate::lower::LoweredProgram,
    blocked: &BlockedSet,
    interp: &IInterpretation,
) -> Vec<FiredAction> {
    fire_all_lowered_metered(lowered, blocked, interp, None, 1, None).0
}

/// [`fire_all_lowered`] with the pool size decoupled from the decomposition
/// and optional per-task span collection (the fixpoint loop's entry point).
pub(crate) fn fire_all_lowered_metered(
    lowered: &crate::lower::LoweredProgram,
    blocked: &BlockedSet,
    interp: &IInterpretation,
    threads: Option<usize>,
    workers: usize,
    spans: Option<&mut Vec<crate::metrics::TaskSpan>>,
) -> (Vec<FiredAction>, u64) {
    let rules = lowered.rules();
    let empty = ZoneLens::default();
    let cx = PassCx {
        blocked,
        interp,
        prev: &empty,
        curr: &empty,
    };
    let units: Vec<CompiledUnit> = (0..rules.len())
        .map(|rule| CompiledUnit::Full { rule })
        .collect();
    run_units(rules, units, &cx, threads, workers, spans)
}

/// Compiled delta enumeration: every non-blocked grounding using at least
/// one mark from the `(prev, curr]` delta — the groundings that became
/// valid in the last step. `prev` and `curr` are the zone sizes at the
/// starts of the previous and current steps.
pub fn fire_new_lowered(
    lowered: &crate::lower::LoweredProgram,
    blocked: &BlockedSet,
    interp: &IInterpretation,
    prev: &ZoneLens,
    curr: &ZoneLens,
) -> Vec<FiredAction> {
    fire_new_lowered_metered(lowered, blocked, interp, prev, curr, None, 1, None).0
}

/// [`fire_new_lowered`] with the pool size decoupled from the decomposition
/// and optional per-task span collection (the fixpoint loop's entry point).
#[allow(clippy::too_many_arguments)]
pub(crate) fn fire_new_lowered_metered(
    lowered: &crate::lower::LoweredProgram,
    blocked: &BlockedSet,
    interp: &IInterpretation,
    prev: &ZoneLens,
    curr: &ZoneLens,
    threads: Option<usize>,
    workers: usize,
    spans: Option<&mut Vec<crate::metrics::TaskSpan>>,
) -> (Vec<FiredAction>, u64) {
    let rules = lowered.rules();
    let cx = PassCx {
        blocked,
        interp,
        prev,
        curr,
    };
    let units = plan_units(rules, prev, curr);
    run_units(rules, units, &cx, threads, workers, spans)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::compile::CompiledProgram;
    use crate::gamma::fire_all;
    use crate::lower::{lower, LoweredProgram};
    use park_storage::{FactStore, Vocabulary};
    use park_syntax::parse_program;
    use std::collections::HashSet;
    use std::sync::Arc;

    pub(crate) fn setup(rules: &str, facts: &str) -> (CompiledProgram, FactStore) {
        let vocab = Vocabulary::new();
        let program =
            CompiledProgram::compile(Arc::clone(&vocab), &parse_program(rules).unwrap()).unwrap();
        let db = FactStore::from_source(vocab, facts).unwrap();
        (program, db)
    }

    fn grounding_set(fired: &[FiredAction]) -> HashSet<Grounding> {
        fired.iter().map(|f| f.grounding.clone()).collect()
    }

    /// How a lockstep run takes its first step.
    #[derive(Clone, Copy)]
    pub(crate) enum Seeding {
        /// Step 0 runs the lowered program too, over unindexed zones: the
        /// cold fixpoint loop's shape.
        Lowered,
        /// Step 0 is naive Γ and the zones carry every index a warm state
        /// builds: the shape of [`crate::incremental::WarmState`], whose
        /// build seeds through Γ and whose transactions run delta steps.
        Gamma,
    }

    /// Build every index a warm state's zones carry: the lowered
    /// program's and the interpreted planner's.
    pub(crate) fn warm_indexes(
        program: &CompiledProgram,
        lowered: &LoweredProgram,
        interp: &mut IInterpretation,
    ) {
        for req in lowered
            .index_requests()
            .iter()
            .chain(program.index_requests())
        {
            interp.zone_mut(req.zone).ensure_index(req.pred, req.mask);
        }
    }

    /// Drive naive and compiled evaluation in lockstep and assert the
    /// per-step *new* grounding sets agree — and that parallel compiled
    /// runs reproduce the sequential compiled stream byte for byte.
    pub(crate) fn lockstep(rules: &str, facts: &str, max_steps: usize, seeding: Seeding) {
        let (program, db) = setup(rules, facts);
        let lowered = lower(&program, &db);
        let blocked = BlockedSet::new();
        let mut interp = IInterpretation::from_database(db);
        if let Seeding::Gamma = seeding {
            warm_indexes(&program, &lowered, &mut interp);
        }
        let mut seen: HashSet<Grounding> = HashSet::new();
        let mut prev = ZoneLens::capture(&interp);

        for step in 0..max_steps {
            let naive_fired = fire_all(&program, &blocked, &interp);
            let curr = ZoneLens::capture(&interp);
            let compiled_fired = match (step, seeding) {
                (0, Seeding::Lowered) => fire_all_lowered(&lowered, &blocked, &interp),
                (0, Seeding::Gamma) => fire_all(&program, &blocked, &interp),
                _ => fire_new_lowered(&lowered, &blocked, &interp, &prev, &curr),
            };
            for threads in [2, 4] {
                let par = match (step, seeding) {
                    (0, Seeding::Lowered) => {
                        fire_all_lowered_metered(
                            &lowered,
                            &blocked,
                            &interp,
                            Some(threads),
                            threads,
                            None,
                        )
                        .0
                    }
                    // Γ is sequential only: nothing to compare.
                    (0, Seeding::Gamma) => break,
                    _ => {
                        fire_new_lowered_metered(
                            &lowered,
                            &blocked,
                            &interp,
                            &prev,
                            &curr,
                            Some(threads),
                            threads,
                            None,
                        )
                        .0
                    }
                };
                assert_eq!(
                    par, compiled_fired,
                    "parallel compiled ({threads} threads) diverged at step {step}"
                );
            }

            let naive_new: HashSet<Grounding> = grounding_set(&naive_fired)
                .difference(&seen)
                .cloned()
                .collect();
            let compiled_set = grounding_set(&compiled_fired);
            if step > 0 {
                assert_eq!(
                    compiled_fired.len(),
                    compiled_set.len(),
                    "compiled produced duplicate groundings at step {step}"
                );
            }
            let compiled_new: HashSet<Grounding> =
                compiled_set.difference(&seen).cloned().collect();
            assert_eq!(naive_new, compiled_new, "step {step} disagreement");
            seen.extend(grounding_set(&naive_fired));

            let mut grew = false;
            for f in &naive_fired {
                if interp.insert_marked(f.sign, f.pred, &f.tuple) {
                    grew = true;
                }
            }
            prev = curr;
            if !grew {
                break;
            }
        }
    }

    /// The lockstep battery, instantiated once per [`Seeding`]: cold-shaped
    /// here, warm-shaped in `crate::seminaive`.
    macro_rules! lockstep_cases {
        ($seeding:expr) => {
        #[test]
        fn lockstep_transitive_closure() {
            lockstep(
                "edge(X, Y) -> +tc(X, Y). tc(X, Y), edge(Y, Z) -> +tc(X, Z).",
                "edge(a, b). edge(b, c). edge(c, d). edge(d, a).",
                32,
                $seeding,
            );
        }

        #[test]
        fn lockstep_with_negation() {
            lockstep(
                "p(X) -> +q(X). q(X), !r(X) -> +s(X). s(X) -> +r2(X).",
                "p(a). p(b). r(a).",
                16,
                $seeding,
            );
        }

        #[test]
        fn lockstep_negation_flips_via_minus() {
            // !c(X) becomes valid only after -c(X) is derived: the negation
            // fallback must catch the late grounding.
            lockstep(
                "p(X) -> -c(X). c(X), !c(X) -> +w(X). q(X), !c(X) -> +z(X).",
                "p(a). c(a). q(a).",
                16,
                $seeding,
            );
        }

        #[test]
        fn lockstep_events() {
            lockstep(
                "p(X) -> +r(X). +r(X) -> -s(X). -s(X) -> +t(X).",
                "p(a). p(b). s(a). s(b).",
                16,
                $seeding,
            );
        }

        #[test]
        fn lockstep_joins_and_constants() {
            lockstep(
                "e(X, Y), e(Y, Z) -> +p2(X, Z). p2(X, a) -> +hit(X). p2(X, Y), e(Y, W) -> +p3(X, W).",
                "e(a, b). e(b, a). e(b, c). e(c, a).",
                24,
                $seeding,
            );
        }

        #[test]
        fn lockstep_with_guards() {
            lockstep(
                "edge(X, Y) -> +d(X, Y). d(X, Y), edge(Y, Z), X != Z -> +d(X, Z).
                 val(N, Q), Q < 10 -> +small(N).",
                "edge(a, b). edge(b, c). edge(c, a). val(n, 3). val(m, 30).",
                24,
                $seeding,
            );
        }

        #[test]
        fn lockstep_same_generation() {
            lockstep(
                "flat(X, Y) -> +sg(X, Y). up(X, X1), sg(X1, Y1), down(Y1, Y) -> +sg(X, Y).",
                "flat(m, n). up(a, m). down(n, b). up(x, a). down(b, y). up(q, x). down(y, w).",
                24,
                $seeding,
            );
        }

        #[test]
        fn lockstep_repeated_variables_and_cartesian() {
            lockstep(
                "q(X, X) -> -q(X, X). p(X), p(Y) -> +pair(X, Y).",
                "q(a, a). q(a, b). p(a). p(b). p(c).",
                8,
                $seeding,
            );
        }
        };
    }
    pub(crate) use lockstep_cases;

    lockstep_cases!(Seeding::Lowered);

    #[test]
    fn empty_body_rules_fire_once_and_do_not_refire() {
        let (program, db) = setup("-> +q(b).", "");
        let lowered = lower(&program, &db);
        let interp = IInterpretation::from_database(db);
        let full = fire_all_lowered(&lowered, &BlockedSet::new(), &interp);
        assert_eq!(full.len(), 1);
        let z = ZoneLens::capture(&interp);
        let fired = fire_new_lowered(&lowered, &BlockedSet::new(), &interp, &z, &z);
        assert!(fired.is_empty());
    }

    #[test]
    fn blocked_groundings_are_skipped() {
        let (program, db) = setup("p(X) -> +q(X). q(X) -> +r(X).", "p(a). p(b).");
        let lowered = lower(&program, &db);
        let v = Arc::clone(program.vocab());
        let mut interp = IInterpretation::from_database(db);
        let a = v.encode(Value::Sym(v.sym("a")));
        let mut blocked = BlockedSet::new();
        blocked.insert(Grounding {
            rule: RuleId(0),
            subst: Box::from([a]),
        });
        let fired = fire_all_lowered(&lowered, &blocked, &interp);
        assert_eq!(fired.len(), 1);
        // The delta passes skip blocked groundings too: block r1's
        // grounding for `a` and feed it the q(a) delta.
        let before = ZoneLens::capture(&interp);
        for f in fire_all(&program, &BlockedSet::new(), &interp) {
            interp.insert_marked(f.sign, f.pred, &f.tuple);
        }
        let after = ZoneLens::capture(&interp);
        blocked.insert(Grounding {
            rule: RuleId(1),
            subst: Box::from([a]),
        });
        let fired = fire_new_lowered(&lowered, &blocked, &interp, &before, &after);
        assert_eq!(fired.len(), 1, "{fired:?}");
        assert_ne!(fired[0].grounding.subst[..], [a]);
    }

    #[test]
    fn no_delta_means_no_firings() {
        let (program, db) = setup("p(X) -> +q(X).", "p(a). p(b).");
        let lowered = lower(&program, &db);
        let mut interp = IInterpretation::from_database(db);
        // Simulate step 1 applied.
        let before = ZoneLens::capture(&interp);
        for f in fire_all_lowered(&lowered, &BlockedSet::new(), &interp) {
            interp.insert_marked(f.sign, f.pred, &f.tuple);
        }
        let after = ZoneLens::capture(&interp);
        // Step 2 delta = the q marks; the rule only reads p → nothing new.
        let fired = fire_new_lowered(&lowered, &BlockedSet::new(), &interp, &before, &after);
        assert!(fired.is_empty());
        // And with a zero-width delta window, likewise nothing.
        let fired = fire_new_lowered(&lowered, &BlockedSet::new(), &interp, &after, &after);
        assert!(fired.is_empty());
    }

    /// The delta position of `rule`'s binding op that watches `kind`.
    fn delta_pos_of(lowered: &LoweredProgram, rule: usize, kind: DeltaKind) -> usize {
        lowered.rules()[rule]
            .delta_kinds
            .iter()
            .position(|&k| k == kind)
            .unwrap_or_else(|| panic!("rule {rule} has no {kind:?} binding op"))
    }

    fn has_delta_unit(units: &[CompiledUnit], rule: usize, delta_pos: usize) -> bool {
        units.iter().any(|u| {
            matches!(*u, CompiledUnit::Delta { rule: r, delta_pos: d } if r == rule && d == delta_pos)
        })
    }

    #[test]
    fn plan_units_sees_delta_beyond_prev_lens_length() {
        // A predicate that gained its first-ever marks after `prev` was
        // captured has no entry in the prev lens at all — `plus_len` /
        // `minus_len` must read it as 0, not skip the rule's delta pass.
        // `ZoneLens::default()` has zero-length vectors, so every pred id
        // exercises the out-of-range path.
        let (program, db) = setup("p(X), q(X) -> +r(X).", "p(a).");
        let lowered = lower(&program, &db);
        let mut interp = IInterpretation::from_database(db);
        let v = program.vocab();
        let p = v.lookup_pred("p").unwrap();
        let q = v.lookup_pred("q").unwrap();
        let a = v.encode(Value::Sym(v.sym("a")));
        let prev = ZoneLens::default();
        assert!(interp.insert_marked(Sign::Insert, q, &[a]));
        let curr = ZoneLens::capture(&interp);
        let units = plan_units(lowered.rules(), &prev, &curr);
        let q_pos = delta_pos_of(&lowered, 0, DeltaKind::Plus(q));
        assert!(
            has_delta_unit(&units, 0, q_pos),
            "q's delta pass must be planned even though q is past the end \
             of the prev lens: {units:?}"
        );
        // p gained nothing, so its delta position stays planned out.
        let p_pos = delta_pos_of(&lowered, 0, DeltaKind::Plus(p));
        assert!(!has_delta_unit(&units, 0, p_pos), "{units:?}");
    }

    #[test]
    fn plan_units_tracks_the_zone_each_literal_enumerates() {
        // Growth in one zone of a predicate must only wake the delta
        // passes that enumerate that zone: a positive literal watches
        // `I⁺`, a `-q` event literal watches `I⁻`.
        let (program, db) = setup(
            "p(X), q(X) -> +r(X). s(X), -q(X) -> +t(X).",
            "p(a). s(a). q(a).",
        );
        let lowered = lower(&program, &db);
        let mut interp = IInterpretation::from_database(db);
        let v = program.vocab();
        let q = v.lookup_pred("q").unwrap();
        let a = v.encode(Value::Sym(v.sym("a")));
        let plus_q = delta_pos_of(&lowered, 0, DeltaKind::Plus(q));
        let minus_q = delta_pos_of(&lowered, 1, DeltaKind::Minus(q));
        let rule_units = |units: &[CompiledUnit], rule: usize| {
            units
                .iter()
                .any(|u| matches!(*u, CompiledUnit::Delta { rule: r, .. } if r == rule))
        };

        // Minus-only growth: the Pos q literal (rule 0) stays asleep, the
        // -q event literal (rule 1) wakes.
        let prev = ZoneLens::capture(&interp);
        assert!(interp.insert_marked(Sign::Delete, q, &[a]));
        let curr = ZoneLens::capture(&interp);
        let units = plan_units(lowered.rules(), &prev, &curr);
        assert!(
            !rule_units(&units, 0),
            "minus growth must not schedule a plus-zone delta pass: {units:?}"
        );
        assert!(has_delta_unit(&units, 1, minus_q), "{units:?}");

        // Plus-only growth on a later step: the converse.
        let prev = ZoneLens::capture(&interp);
        assert!(interp.insert_marked(Sign::Insert, q, &[v.encode(Value::Sym(v.sym("b")))]));
        let curr = ZoneLens::capture(&interp);
        let units = plan_units(lowered.rules(), &prev, &curr);
        assert!(has_delta_unit(&units, 0, plus_q), "{units:?}");
        assert!(
            !rule_units(&units, 1),
            "plus growth must not schedule a minus-zone delta pass: {units:?}"
        );
    }

    #[test]
    fn task_count_is_thread_independent() {
        let (program, db) = setup(
            "edge(X, Y) -> +tc(X, Y). tc(X, Y), edge(Y, Z) -> +tc(X, Z).",
            "edge(a, b). edge(b, c).",
        );
        let lowered = lower(&program, &db);
        let mut interp = IInterpretation::from_database(db);
        let before = ZoneLens::capture(&interp);
        for f in fire_all(&program, &BlockedSet::new(), &interp) {
            interp.insert_marked(f.sign, f.pred, &f.tuple);
        }
        let after = ZoneLens::capture(&interp);
        let (seq, seq_tasks) = fire_new_lowered_metered(
            &lowered,
            &BlockedSet::new(),
            &interp,
            &before,
            &after,
            Some(1),
            1,
            None,
        );
        for threads in [2, 4] {
            let (par, par_tasks) = fire_new_lowered_metered(
                &lowered,
                &BlockedSet::new(),
                &interp,
                &before,
                &after,
                Some(threads),
                threads,
                None,
            );
            assert_eq!(par, seq, "threads={threads}");
            assert_eq!(par_tasks, seq_tasks, "threads={threads}");
        }
    }

    #[test]
    fn chunked_propagation_preserves_depth_first_order() {
        // A fanout large enough to overflow one chunk at the first join
        // level: the emission order must still equal a fresh re-run (the
        // executor is deterministic) and contain no duplicates.
        let vocab = Vocabulary::new();
        let program = CompiledProgram::compile(
            Arc::clone(&vocab),
            &parse_program("p(X), q(Y) -> +r(X, Y).").unwrap(),
        )
        .unwrap();
        let mut db = FactStore::new(Arc::clone(&vocab));
        let p = vocab.lookup_pred("p").unwrap();
        let q = vocab.lookup_pred("q").unwrap();
        for i in 0..60 {
            db.insert_row(p, &[vocab.encode(Value::Int(i))]);
            db.insert_row(q, &[vocab.encode(Value::Int(1000 + i))]);
        }
        let lowered = lower(&program, &db);
        let interp = IInterpretation::from_database(db);
        let fired = fire_all_lowered(&lowered, &BlockedSet::new(), &interp);
        assert_eq!(fired.len(), 3600);
        assert_eq!(grounding_set(&fired).len(), 3600);
        // Deterministic: identical on re-run and under parallelism.
        let again = fire_all_lowered(&lowered, &BlockedSet::new(), &interp);
        assert_eq!(fired, again);
        let par =
            fire_all_lowered_metered(&lowered, &BlockedSet::new(), &interp, Some(4), 4, None).0;
        assert_eq!(fired, par);
    }
}
