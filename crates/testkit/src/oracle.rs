//! A paper-literal reference implementation of PARK(D, P).
//!
//! This module is the *oracle* of the differential harness: a deliberately
//! slow transcription of Sections 4.1–4.2 of the paper, written to be
//! audited against PAPER.md line by line rather than to perform. It shares
//! only the engine's *frontend and data containers* — the compiled rule
//! patterns (for rule ids, variable names, and literal shapes), the
//! three-zone [`IInterpretation`], and the `Grounding`/`Conflict`/
//! `BlockedSet` record types with their paper-notation rendering — and
//! reimplements every *semantic* component independently:
//!
//! * **Γ_{P,B}** by brute force: all substitutions over the active domain
//!   are enumerated per rule (no join plans, no indexes, no semi-naive
//!   deltas) and each body literal is checked against the validity
//!   definition verbatim;
//! * **conflict detection** one step into the future, merged with the
//!   run's own provenance bookkeeping;
//! * **Δ restarts** always cold: on a conflict the blocked set grows and
//!   the computation restarts from `I = D` with nothing carried over
//!   (no replay, no warm state);
//! * **incorp** spelled out as `(I° ∪ I⁺) − I⁻`.
//!
//! The oracle emits the same observable record the engine does — a
//! [`ParkOutcome`] and a full [`Trace`] — so the harness can compare the two
//! byte for byte (see `crate::harness` for which fragments admit exact
//! comparison and which need canonical ordering).

use park_engine::{
    BlockedSet, CompiledLiteral, CompiledProgram, CompiledRule, Conflict, ConflictResolver,
    EngineError, Grounding, IInterpretation, LitKind, ParkOutcome, ResolutionScope, RunStats,
    SelectContext, TermSlot, Trace, TraceEvent,
};
use park_storage::{Code, FactStore, PredId, Value, Vocabulary};
use park_syntax::{CompOp, Sign};
use std::collections::{HashMap, HashSet};

/// A fired atom's key and its per-sign deriving groundings — the oracle's
/// conflict-provenance map, keyed by encoded row.
type ProvenanceMap = HashMap<(PredId, Box<[Code]>), [HashSet<Grounding>; 2]>;

/// Safety valves: generated cases are tiny, so hitting either limit is
/// itself a divergence worth reporting.
const MAX_STEPS: u64 = 100_000;
const MAX_RESTARTS: u64 = 100_000;

/// Which semantics to run.
///
/// `Faithful` is the paper. The broken variants exist so the harness can
/// prove it *would* catch a semantics bug (acceptance criterion: an
/// injected bug is found within 1000 generated cases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleVariant {
    /// The paper's Δ operator: on conflict, restart from `D`.
    Faithful,
    /// Injected bug: after resolving a conflict, keep computing from the
    /// current `I` instead of restarting from `D` — consequences of the
    /// invalidated marks are never discarded (the paper's P2 example is
    /// exactly the program this breaks).
    SkipRestartFromD,
}

/// The oracle's result: the same outcome record and trace the engine
/// produces, plus the `SELECT` transcript (one `"<conflict> -> <resolution>"`
/// line per call, in call order).
#[derive(Debug)]
pub struct OracleRun {
    /// Database, blocked set and stats.
    pub outcome: ParkOutcome,
    /// The full trace, built event by event — the reference the engine's
    /// [`Trace`] sink is compared with (see [`crate::compare::fingerprint`]).
    pub trace: Trace,
    /// The `SELECT` calls, rendered, in the order the policy was consulted.
    pub decisions: Vec<String>,
}

/// Evaluate `PARK(D, P)` by the book.
pub fn evaluate(
    program: &CompiledProgram,
    db: &FactStore,
    scope: ResolutionScope,
    resolver: &mut dyn ConflictResolver,
    variant: OracleVariant,
) -> Result<OracleRun, EngineError> {
    let vocab = program.vocab();
    let domain = active_domain(program, db);
    let policy = resolver.name().to_string();
    let mut blocked = BlockedSet::new();
    let mut trace = Trace::new();
    let mut decisions: Vec<String> = Vec::new();
    let mut gamma_steps: u64 = 0;
    let mut restarts: u64 = 0;
    let mut conflicts_resolved: u64 = 0;

    let final_interp = 'outer: loop {
        // (Re)start the inflationary computation from I = ⟨∅, D⟩.
        let run = restarts + 1;
        trace.push(TraceEvent::RunStarted { run });
        let mut interp = IInterpretation::from_database(db.clone());
        let mut provenance: ProvenanceMap = HashMap::new();
        let mut step_in_run: u64 = 0;

        loop {
            if gamma_steps >= MAX_STEPS {
                return Err(EngineError::StepLimit { limit: MAX_STEPS });
            }
            // Γ_{P,B}(I): every non-blocked grounding (r, θ) whose body is
            // valid in I, by exhaustive substitution enumeration.
            let mut fired: Vec<(Grounding, Sign, PredId, Box<[Code]>)> = Vec::new();
            for rule in program.rules() {
                for subst in substitutions(rule.num_vars as usize, &domain) {
                    let g = Grounding {
                        rule: rule.id,
                        subst: subst.clone().into_boxed_slice(),
                    };
                    if blocked.contains(&g) || !body_valid(vocab, rule, &subst, &interp) {
                        continue;
                    }
                    let tuple = rule.head.instantiate(&subst);
                    fired.push((g, rule.head_sign, rule.head.pred, tuple));
                }
            }
            let conflicts = conflicts_of(vocab, &fired, &provenance);

            if conflicts.is_empty() {
                // Consistent: take the inflationary step.
                gamma_steps += 1;
                step_in_run += 1;
                let mut added: Vec<String> = Vec::new();
                for (_, sign, pred, tuple) in &fired {
                    if interp.insert_marked(*sign, *pred, tuple) {
                        added.push(format!("{sign}{}", vocab.display_row(*pred, tuple)));
                    }
                }
                for (g, sign, pred, tuple) in &fired {
                    let sides = provenance.entry((*pred, tuple.clone())).or_default();
                    let side = match sign {
                        Sign::Insert => &mut sides[0],
                        Sign::Delete => &mut sides[1],
                    };
                    side.insert(g.clone());
                }
                if added.is_empty() {
                    // Γ_{P,B}(I) = I: the fixpoint ω is reached.
                    trace.push(TraceEvent::Fixpoint {
                        run,
                        interp: interp.display(),
                        blocked: blocked.display(program),
                    });
                    break 'outer interp;
                }
                trace.push(TraceEvent::Step {
                    run,
                    step: step_in_run,
                    interp: interp.display(),
                    added,
                });
            } else {
                // Inconsistent: SELECT decides, losers are blocked, and the
                // computation restarts from D (unless the injected bug says
                // otherwise).
                if restarts >= MAX_RESTARTS {
                    return Err(EngineError::RestartLimit {
                        limit: MAX_RESTARTS,
                    });
                }
                let (selected, deferred) = match scope {
                    ResolutionScope::All => conflicts.split_at(conflicts.len()),
                    ResolutionScope::One => conflicts.split_at(1),
                };
                let atom = |c: &Conflict| vocab.display_fact(c.pred, &c.tuple);
                trace.push(TraceEvent::Inconsistent {
                    run,
                    step: step_in_run + 1,
                    atoms: selected.iter().map(atom).collect(),
                    deferred: deferred.iter().map(atom).collect(),
                });
                let ctx = SelectContext {
                    database: db,
                    program,
                    interp: &interp,
                };
                for c in selected {
                    let resolution =
                        resolver
                            .select(&ctx, c)
                            .map_err(|message| EngineError::Resolver {
                                policy: policy.clone(),
                                message,
                            })?;
                    conflicts_resolved += 1;
                    decisions.push(format!("{} -> {}", c.display(program), resolution.as_str()));
                    let mut newly: Vec<String> = Vec::new();
                    for g in c.losing_side(resolution) {
                        if blocked.insert(g.clone()) {
                            newly.push(g.display(program));
                        }
                    }
                    if newly.is_empty() {
                        return Err(EngineError::NoProgress { atom: atom(c) });
                    }
                    trace.push(TraceEvent::ConflictResolved {
                        conflict: c.display(program),
                        policy: policy.clone(),
                        resolution,
                        blocked: newly,
                    });
                }
                restarts += 1;
                match variant {
                    OracleVariant::Faithful => continue 'outer,
                    // BUG under test: fall through to the next Γ step with
                    // the inconsistent run's I and provenance intact.
                    OracleVariant::SkipRestartFromD => continue,
                }
            }
        }
    };

    // incorp(I) = (I° ∪ {a | +a ∈ I⁺}) − {a | -a ∈ I⁻}.
    let mut database = final_interp.base().clone();
    for (p, t) in final_interp.plus().iter_rows() {
        database.insert_row(p, t);
    }
    for (p, t) in final_interp.minus().iter_rows() {
        database.remove_row(p, t);
    }

    let stats = RunStats {
        gamma_steps,
        restarts,
        conflicts_resolved,
        blocked_instances: blocked.len() as u64,
        ..RunStats::default()
    };
    Ok(OracleRun {
        outcome: ParkOutcome {
            database,
            interpretation: final_interp,
            blocked,
            program: program.clone(),
            stats,
        },
        trace,
        decisions,
    })
}

/// The active domain: every constant in `D` or in the program's rules,
/// as interned codes *sorted by decoded value* — function-free rules can
/// only ever bind variables to these values, and the Value-order
/// enumeration keeps the oracle's observable orderings independent of
/// intern-code allocation order.
fn active_domain(program: &CompiledProgram, db: &FactStore) -> Vec<Code> {
    let vocab = program.vocab();
    let mut out: Vec<Value> = Vec::new();
    for (_, tuple) in db.iter() {
        out.extend(tuple.values().iter().copied());
    }
    let mut atom_consts = |terms: &[TermSlot]| {
        out.extend(terms.iter().filter_map(|t| match t {
            TermSlot::Const(c) => Some(vocab.decode(*c)),
            TermSlot::Var(_) => None,
        }));
    };
    for rule in program.rules() {
        atom_consts(&rule.head.terms);
        for lit in rule.body.iter() {
            match lit {
                CompiledLiteral::Atom { atom, .. } => atom_consts(&atom.terms),
                CompiledLiteral::Guard { lhs, rhs, .. } => atom_consts(&[*lhs, *rhs]),
            }
        }
    }
    out.sort();
    out.dedup();
    out.into_iter().map(|v| vocab.encode(v)).collect()
}

/// All total substitutions for `num_vars` variables over `domain`, in
/// lexicographic slot order.
fn substitutions(num_vars: usize, domain: &[Code]) -> Vec<Vec<Code>> {
    let mut out = vec![Vec::new()];
    for _ in 0..num_vars {
        let mut next = Vec::with_capacity(out.len() * domain.len());
        for prefix in &out {
            for v in domain {
                let mut s = prefix.clone();
                s.push(*v);
                next.push(s);
            }
        }
        out = next;
    }
    out
}

/// Validity of every body literal of `rθ` in `I` (Sections 4.2–4.3),
/// checked in source order.
fn body_valid(
    vocab: &Vocabulary,
    rule: &CompiledRule,
    subst: &[Code],
    interp: &IInterpretation,
) -> bool {
    rule.body.iter().all(|lit| match lit {
        CompiledLiteral::Atom { kind, atom } => {
            let t = atom.instantiate(subst);
            let in_base = interp.base().contains_row(atom.pred, &t);
            let in_plus = interp.plus().contains_row(atom.pred, &t);
            let in_minus = interp.minus().contains_row(atom.pred, &t);
            match kind {
                // a is valid iff a ∈ I° or +a ∈ I⁺.
                LitKind::Pos => in_base || in_plus,
                // ¬a is valid iff -a ∈ I⁻, or a ∉ I° and +a ∉ I⁺.
                LitKind::Neg => in_minus || !(in_base || in_plus),
                // ±a (event) is valid iff the mark is in its zone.
                LitKind::Event(Sign::Insert) => in_plus,
                LitKind::Event(Sign::Delete) => in_minus,
            }
        }
        CompiledLiteral::Guard { op, lhs, rhs } => {
            let code = |t: &TermSlot| match *t {
                TermSlot::Const(c) => c,
                TermSlot::Var(s) => subst[s as usize],
            };
            let (l, r) = (code(lhs), code(rhs));
            match op {
                // Codes are injective: equality needs no decode.
                CompOp::Eq => l == r,
                CompOp::Ne => l != r,
                // Ordered comparisons are integer-only; symbols compare
                // false (the language extension's documented semantics).
                // Decoded, because spilled big-int codes are not
                // order-preserving.
                _ => match (vocab.decode(l), vocab.decode(r)) {
                    (Value::Int(a), Value::Int(b)) => op.eval_ordering(a.cmp(&b)),
                    _ => false,
                },
            }
        }
    })
}

/// The conflicts of `fired` "one step into the future", merged with the
/// run's provenance: atoms with both an inserting and a deleting grounding,
/// sorted by the rendered atom (the order the engine hands conflicts to
/// `SELECT` in, whatever order it enumerated them in), each side
/// deduplicated and sorted by
/// `(rule, substitution)` over *decoded* substitutions (code order is not
/// value order for spilled integers).
fn conflicts_of(
    vocab: &Vocabulary,
    fired: &[(Grounding, Sign, PredId, Box<[Code]>)],
    provenance: &ProvenanceMap,
) -> Vec<Conflict> {
    let mut current: ProvenanceMap = HashMap::new();
    for (g, sign, pred, tuple) in fired {
        let sides = current.entry((*pred, tuple.clone())).or_default();
        let side = match sign {
            Sign::Insert => &mut sides[0],
            Sign::Delete => &mut sides[1],
        };
        side.insert(g.clone());
    }
    let empty: [HashSet<Grounding>; 2] = Default::default();
    let mut out = Vec::new();
    for (key, cur) in &current {
        let hist = provenance.get(key).unwrap_or(&empty);
        let merge = |i: usize| -> Vec<Grounding> {
            let mut v: Vec<Grounding> = cur[i].union(&hist[i]).cloned().collect();
            v.sort_by_cached_key(|g| {
                let vals: Vec<Value> = g.subst.iter().map(|&c| vocab.decode(c)).collect();
                (g.rule, vals)
            });
            v
        };
        let (ins, del) = (merge(0), merge(1));
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
