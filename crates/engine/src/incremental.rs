//! Cross-transaction incremental evaluation (see `docs/incremental.md`).
//!
//! A resident database (`park serve`, `ActiveDatabase`) commits a sequence
//! of transactions against one program. Each transaction is semantically a
//! full `PARK(S, P, U)` evaluation from the current state `S` — but inside
//! the *incrementality-safe fragment* the whole run is determined by a small
//! delta, and the engine can keep a [`WarmState`] alive between transactions
//! and answer the next update set by delta propagation seeded from `U`
//! alone. Propagation runs the compiled bytecode executor
//! ([`crate::bytecode::fire_new_lowered`]) on a [`LoweredProgram`] lowered
//! once per [`WarmState::build`] — never per transaction.
//!
//! The fragment ([`certify_incremental`]): every rule inserts (`+` head),
//! its body contains no event literals, and negation is *stratified* — no
//! negated body literal whose predicate shares a recursive component with
//! the rule's head ([`crate::strata::Strata`] localizes the offending edges
//! when this fails). A transaction additionally stays on the warm path only
//! when no trace or metrics were requested; deletions in `U` stay warm too,
//! bailing to a cold run only when the deletion collides with a derived
//! fact (a genuine PARK conflict the policy must resolve).
//!
//! Why this is sound — the invariant the warm state maintains is
//!
//! > `base` = the committed state `S`, `plus` = exactly the heads of program
//! > groundings valid over `⟨∅, S⟩`, `minus` = ∅.
//!
//! A cold run on `S` marks precisely those heads (plus `U`) in its first Γ
//! step; from step 2 on, delta enumeration is driven only by marks
//! whose atom is *not* in `S` (the Γ operator skips plus-rows shadowed by
//! the base zone) and by deletion-zone growth (which falls back to full
//! re-enumeration of the affected rules). The warm seed state — `U` marked
//! on top of the invariant — is therefore byte-for-byte the cold
//! post-step-1 state, and the warm propagation reproduces the cold run's
//! firing stream, new-mark stream, and Γ-step count exactly (`gamma_steps =
//! 2 + propagation rounds`, matching cold's seed step + rounds +
//! fixpoint-detection step).
//!
//! Stratified negation keeps the *invariant* restorable: a committed change
//! can invalidate marks (a negated predicate gained a fact, a positive one
//! lost it), so after every commit the warm state revalidates exactly the
//! strata of predicates in [`crate::strata::Strata::affected`] of the
//! changed predicates — it re-fires the rules whose heads those are and
//! drops stale marks. Recursion *through* negation would make a mark depend
//! on the Γ-step at which it was derived — history no per-predicate
//! recomputation can replay — which is why the certificate is carved along
//! SCC lines. Event marks are transaction-local by the semantics, so any
//! event literal takes the cold path.

use crate::bytecode::{self, ZoneLens};
use crate::compile::{CompiledLiteral, CompiledProgram, IndexRequest, LitKind, RuleId};
use crate::fixpoint::ParkOutcome;
use crate::grounding::BlockedSet;
use crate::interp::IInterpretation;
use crate::lower::{lower, LoweredProgram};
use crate::stats::RunStats;
use crate::strata::Strata;
use crate::validity::MarkZone;
use park_storage::{Code, FactStore, PredId, Tuple, UpdateSet};
use park_syntax::Sign;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Why a rule keeps its program out of the incrementality-safe fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncrementalBlocker {
    /// A deleting head: retraction would need provenance-guided undo, and a
    /// deletion can invalidate groundings the warm state assumes persistent.
    DeleteHead,
    /// A negated body literal closing a recursion-through-negation cycle:
    /// the literal's predicate shares a recursive component with the rule's
    /// head, so a mark depends on the Γ-step it was derived at — history the
    /// warm state cannot replay. Stratified negation (the literal's
    /// predicate in a strictly lower stratum) does *not* block.
    NegatedLiteral,
    /// An event body literal: `±a` marks are transaction-local by the
    /// semantics, but the warm state carries marks across transactions.
    EventLiteral,
}

impl IncrementalBlocker {
    /// Short human-readable description of the blocking construct.
    pub fn describe(self) -> &'static str {
        match self {
            IncrementalBlocker::DeleteHead => "deleting head",
            IncrementalBlocker::NegatedLiteral => "negation in a recursive cycle",
            IncrementalBlocker::EventLiteral => "event body literal",
        }
    }
}

/// One rule that forces cold evaluation, with the construct responsible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementalExclusion {
    /// The offending rule.
    pub rule: RuleId,
    /// The construct that keeps it out of the fragment.
    pub reason: IncrementalBlocker,
}

/// Every rule construct that keeps `program` out of the incrementality-safe
/// fragment (at most one exclusion per rule, head checked first, then body
/// literals in order). Empty means [`certify_incremental`] holds.
///
/// Negated literals are judged against the program's stratum structure:
/// only a negation *inside* a recursive component (head and negated
/// predicate in one SCC) excludes — exactly the edges
/// [`Strata::offending_edges`] reports.
pub fn incremental_exclusions(program: &CompiledProgram) -> Vec<IncrementalExclusion> {
    let strata = Strata::of(program);
    exclusions_with(program, &strata)
}

/// [`incremental_exclusions`] with a pre-built stratum analysis (must be the
/// program's own).
pub fn exclusions_with(program: &CompiledProgram, strata: &Strata) -> Vec<IncrementalExclusion> {
    let mut out = Vec::new();
    for rule in program.rules() {
        if rule.is_update {
            continue;
        }
        let reason = if rule.head_sign == Sign::Delete {
            Some(IncrementalBlocker::DeleteHead)
        } else {
            rule.body.iter().find_map(|lit| match lit {
                CompiledLiteral::Atom {
                    kind: LitKind::Neg,
                    atom,
                } if strata.same_component(rule.head.pred, atom.pred) => {
                    Some(IncrementalBlocker::NegatedLiteral)
                }
                CompiledLiteral::Atom {
                    kind: LitKind::Event(_),
                    ..
                } => Some(IncrementalBlocker::EventLiteral),
                _ => None,
            })
        };
        if let Some(reason) = reason {
            out.push(IncrementalExclusion {
                rule: rule.id,
                reason,
            });
        }
    }
    out
}

/// The incrementality-safe certificate: true iff every rule has an inserting
/// head, no event literals, and only stratified negation (no negated literal
/// inside a recursive component). Certified programs are conflict-free among
/// their own rules (no deleting head — only a `U` deletion can collide) and
/// their marks are recomputable from the committed state alone, the two
/// properties the warm path relies on.
pub fn certify_incremental(program: &CompiledProgram) -> bool {
    incremental_exclusions(program).is_empty()
}

/// What one warm transaction observed — the same surface a cold
/// [`ParkOutcome`] would yield for the fragment: the committed additions and
/// removals (sorted as [`FactStore::diff`] sorts them) and the
/// mode-independent counters. `blocked`, restarts, and conflicts are
/// structurally empty/zero on the warm path (a would-be conflict bails to
/// cold instead).
#[derive(Debug, Clone)]
pub struct IncrementalReport {
    /// Facts added to the committed state, sorted by rendered fact.
    pub added: Vec<(PredId, Tuple)>,
    /// Facts removed from the committed state (deletions in `U` that were
    /// present), sorted by rendered fact.
    pub removed: Vec<(PredId, Tuple)>,
    /// Counters, populated exactly as the equivalent cold run would set the
    /// fingerprint-relevant ones (`gamma_steps`; restarts, conflicts, and
    /// blocked are zero). `groundings_fired` counts only the propagated
    /// firings — post-commit revalidation is maintenance, not evaluation.
    pub stats: RunStats,
}

/// The live evaluation state a resident database keeps between transactions.
///
/// Invariant (maintained by [`WarmState::build`] and every successful
/// [`WarmState::transact`]): `base` is the committed state `S`, `plus` holds
/// exactly the heads of program groundings valid over `⟨∅, S⟩` (all of which
/// are themselves in `S`, since `S` is a PARK fixpoint), `minus` is empty.
#[derive(Debug, Clone)]
pub struct WarmState {
    interp: IInterpretation,
    /// The program lowered against the state the warm state was built from:
    /// every transaction's propagation runs it. The cost model's build-time
    /// join order stays valid as the state grows — it only orders the
    /// enumeration, never changes which groundings a step yields.
    lowered: LoweredProgram,
}

impl WarmState {
    /// Build a warm state from a finished cold run, or `None` when the run
    /// cannot seed one: a run that blocked groundings has consequences the
    /// warm invariant cannot represent.
    ///
    /// The invariant is restored by recomputing the valid-grounding heads
    /// over the committed state `S` with one Γ pass against `⟨∅, S⟩`. At a
    /// blocked-free PARK fixpoint every such head is in `S`; a deleting or
    /// escaping head means the outcome is not one (e.g. an uncertified
    /// program mid-chain) and cannot seed a warm state.
    pub fn build(program: &CompiledProgram, outcome: &ParkOutcome) -> Option<WarmState> {
        if !outcome.blocked.is_empty() {
            return None;
        }
        let lowered = lower(program, &outcome.database);
        let mut interp = IInterpretation::from_database(outcome.database.clone());
        for req in warm_index_requests(program, &lowered) {
            interp.zone_mut(req.zone).ensure_index(req.pred, req.mask);
        }
        let fired = crate::gamma::fire_all(program, &BlockedSet::new(), &interp);
        for f in &fired {
            if f.sign != Sign::Insert || !interp.base().contains_row(f.pred, &f.tuple) {
                return None;
            }
        }
        for f in &fired {
            interp.zone_mut(MarkZone::Plus).insert_row(f.pred, &f.tuple);
        }
        Some(WarmState { interp, lowered })
    }

    /// The committed state `S` this warm state answers from.
    pub fn state(&self) -> &FactStore {
        self.interp.base()
    }

    /// Evaluate one transaction in place: delta propagation through the
    /// warm state's lowered program, seeded from the zone-new `U` marks;
    /// commit; then revalidate the affected strata. `program` must be the
    /// one the warm state was built for.
    /// Equivalent to (and byte-compatible with) a cold `PARK(S, P, U)` run
    /// for certified `program`s — see the module docs for the argument.
    ///
    /// Returns `None` — **leaving the state poisoned; discard it** — when
    /// the transaction provokes a genuine PARK conflict (a `U` deletion of a
    /// derived fact, a `U` insert-delete clash, or a derivation of a deleted
    /// fact): resolving it needs the policy, i.e. a cold run.
    ///
    /// The `U = ∅` fast path does per-update work only: no lens capture, no
    /// enumeration, no per-fact allocation.
    pub fn transact(
        &mut self,
        program: &CompiledProgram,
        updates: &UpdateSet,
    ) -> Option<IncrementalReport> {
        let started = Instant::now();
        let mut stats = RunStats {
            effective_parallelism: 1,
            ..RunStats::default()
        };
        if updates.is_empty() {
            // Cold: step 1 marks every program-derived head (counts iff any
            // grounding is valid), the next step detects the fixpoint.
            stats.gamma_steps = if self.interp.plus().is_empty() { 1 } else { 2 };
            stats.peak_marked_atoms = self.interp.marked_len();
            stats.elapsed = started.elapsed();
            return Some(IncrementalReport {
                added: Vec::new(),
                removed: Vec::new(),
                stats,
            });
        }
        let vocab = Arc::clone(self.interp.vocab());
        // Seed step — cold step 1: the body-less `tx` rules of `P_U` mark
        // the transaction's updates (the program-derived heads of that step
        // are already in `plus`, by the warm invariant). A `U` mark clashing
        // with the opposite zone is cold step 1's inconsistency — the
        // policy's problem, not ours.
        let mut prev = ZoneLens::capture(&self.interp);
        let mut seed_marks: Vec<(PredId, Box<[Code]>)> = Vec::new();
        let mut new_marks: Vec<(PredId, Box<[Code]>)> = Vec::new();
        for u in updates.iter() {
            let row: Box<[Code]> = u.tuple.values().iter().map(|&v| vocab.encode(v)).collect();
            let opposite = match u.sign {
                Sign::Insert => Sign::Delete,
                Sign::Delete => Sign::Insert,
            };
            if self.interp.contains_marked(opposite, u.pred, &row) {
                return None;
            }
            if self.interp.insert_marked(u.sign, u.pred, &row) && u.sign == Sign::Insert {
                seed_marks.push((u.pred, row.clone()));
                new_marks.push((u.pred, row));
            }
        }
        let mut curr = ZoneLens::capture(&self.interp);
        // Propagation rounds — cold steps 2…: each round enumerates exactly
        // the groundings new to the cold run at that step, because only
        // marks of atoms outside the base (and deletion-zone growth) drive
        // enumeration, and the window holds exactly the previous round's
        // zone-new marks.
        let blocked = BlockedSet::new();
        let mut fired_heads = FactStore::new(Arc::clone(&vocab));
        let mut rounds: u64 = 0;
        loop {
            let fired =
                bytecode::fire_new_lowered(&self.lowered, &blocked, &self.interp, &prev, &curr);
            if fired.is_empty() {
                break;
            }
            stats.groundings_fired += fired.len() as u64;
            let mut any_new = false;
            for f in &fired {
                debug_assert_eq!(f.sign, Sign::Insert, "certified rules only insert");
                // Deriving a fact `U` deletes is cold's `+a`/`-a` conflict.
                if self.interp.contains_marked(Sign::Delete, f.pred, &f.tuple) {
                    return None;
                }
                fired_heads.insert_row(f.pred, &f.tuple);
                if self.interp.insert_marked(f.sign, f.pred, &f.tuple) {
                    any_new = true;
                    new_marks.push((f.pred, f.tuple.clone()));
                }
            }
            if !any_new {
                break;
            }
            rounds += 1;
            prev = curr;
            curr = ZoneLens::capture(&self.interp);
        }
        // Cold counts: the seed step (a non-empty `U` always marks something
        // there, cold's zones start empty), each productive round, and the
        // final fixpoint-detection step.
        stats.gamma_steps = 2 + rounds;
        stats.peak_marked_atoms = self.interp.marked_len();

        // Warm-plus hygiene: a `U` mark that no program grounding derives is
        // not a program-derived head over the new state — leaving it marked
        // would desynchronize the next transaction's step dedup from cold.
        let mut plus_removed = false;
        for (p, row) in &seed_marks {
            if !fired_heads.contains_row(*p, row) {
                self.interp.zone_mut(MarkZone::Plus).remove_row(*p, row);
                plus_removed = true;
            }
        }
        // Commit — `incorp` restricted to what changed: zone-new plus marks
        // whose atom the base lacks enter it, deletion marks present in the
        // base leave it, each list sorted exactly as `FactStore::diff` sorts
        // the cold run's.
        let mut added: Vec<(PredId, Tuple)> = Vec::new();
        for (p, row) in &new_marks {
            if self.interp.base().contains_row(*p, row) {
                continue;
            }
            self.interp.zone_mut(MarkZone::Base).insert_row(*p, row);
            added.push((*p, vocab.decode_row(row)));
        }
        added.sort_by_key(|(p, t)| vocab.display_fact(*p, t));
        let minus_rows: Vec<(PredId, Box<[Code]>)> = self
            .interp
            .minus()
            .iter_rows()
            .map(|(p, r)| (p, r.into()))
            .collect();
        let mut removed: Vec<(PredId, Tuple)> = Vec::new();
        let mut base_removed = false;
        for (p, row) in &minus_rows {
            // The bail above guarantees `plus ∩ minus = ∅`, so a base
            // removal never orphans a plus mark.
            debug_assert!(!self.interp.plus().contains_row(*p, row));
            if self.interp.zone_mut(MarkZone::Base).remove_row(*p, row) {
                removed.push((*p, vocab.decode_row(row)));
                base_removed = true;
            }
        }
        removed.sort_by_key(|(p, t)| vocab.display_fact(*p, t));
        self.interp.zone_mut(MarkZone::Minus).clear();

        // Invariant restoration: a commit can strand marks — a positive
        // literal's predicate lost facts, a negated literal's predicate
        // gained them. Re-fire every rule whose head predicate those rules
        // reach and drop the stale marks (recomputation against the new
        // state only ever removes; see docs/incremental.md §5). Predicates
        // outside `affected(changed)` keep their warm marks untouched — the
        // stratum-replay invariant.
        let removed_preds: HashSet<PredId> = removed.iter().map(|&(p, _)| p).collect();
        let added_preds: HashSet<PredId> = added.iter().map(|&(p, _)| p).collect();
        let mut revalidate: HashSet<PredId> = HashSet::new();
        for rule in program.rules() {
            if rule.is_update {
                continue;
            }
            let triggered = rule.body.iter().any(|lit| match lit {
                CompiledLiteral::Atom {
                    kind: LitKind::Pos,
                    atom,
                } => removed_preds.contains(&atom.pred),
                CompiledLiteral::Atom {
                    kind: LitKind::Neg,
                    atom,
                } => added_preds.contains(&atom.pred),
                _ => false,
            });
            if triggered {
                revalidate.insert(rule.head.pred);
            }
        }
        if !revalidate.is_empty() {
            debug_assert!(
                {
                    let strata = Strata::of(program);
                    let affected =
                        strata.affected(removed_preds.iter().chain(&added_preds).copied());
                    revalidate.iter().all(|p| affected.contains(p))
                },
                "revalidation must stay inside the affected strata"
            );
            let mut fired = Vec::new();
            for rule in program.rules() {
                if !rule.is_update && revalidate.contains(&rule.head.pred) {
                    crate::gamma::fire_rule(rule, &blocked, &self.interp, &mut fired);
                }
            }
            let mut exact = FactStore::new(Arc::clone(&vocab));
            for f in &fired {
                debug_assert_eq!(f.sign, Sign::Insert, "certified rules only insert");
                exact.insert_row(f.pred, &f.tuple);
            }
            for &p in &revalidate {
                let stale: Vec<Box<[Code]>> = match self.interp.plus().relation(p) {
                    Some(rel) => rel
                        .rows()
                        .filter(|r| !exact.contains_row(p, r))
                        .map(Into::into)
                        .collect(),
                    None => Vec::new(),
                };
                for row in &stale {
                    self.interp.zone_mut(MarkZone::Plus).remove_row(p, row);
                    plus_removed = true;
                }
            }
            for (p, r) in exact.iter_rows() {
                if revalidate.contains(&p) {
                    self.interp.zone_mut(MarkZone::Plus).insert_row(p, r);
                }
            }
        }
        // Removal invalidates a zone's secondary indexes; rebuild the
        // requested ones so the next transaction probes indexed.
        if plus_removed || base_removed {
            for req in warm_index_requests(program, &self.lowered) {
                if (req.zone == MarkZone::Plus && plus_removed)
                    || (req.zone == MarkZone::Base && base_removed)
                {
                    self.interp
                        .zone_mut(req.zone)
                        .ensure_index(req.pred, req.mask);
                }
            }
        }
        stats.elapsed = started.elapsed();
        Some(IncrementalReport {
            added,
            removed,
            stats,
        })
    }
}

/// Every index the warm zones carry: the lowered program's (delta
/// propagation) and the interpreted planner's (stratum revalidation and
/// the seeding pass of [`WarmState::build`], which run [`crate::gamma`]).
fn warm_index_requests<'a>(
    program: &'a CompiledProgram,
    lowered: &'a LoweredProgram,
) -> impl Iterator<Item = &'a IndexRequest> {
    lowered
        .index_requests()
        .iter()
        .chain(program.index_requests())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::Inertia;
    use crate::fixpoint::Engine;
    use crate::metrics::NoopMetrics;
    use crate::options::EngineOptions;
    use park_storage::Vocabulary;
    use park_syntax::parse_program;

    fn setup(rules: &str, facts: &str) -> (Engine, FactStore) {
        let vocab = Vocabulary::new();
        let engine = Engine::with_options(
            Arc::clone(&vocab),
            &parse_program(rules).unwrap(),
            EngineOptions::default(),
        )
        .unwrap();
        let db = FactStore::from_source(vocab, facts).unwrap();
        (engine, db)
    }

    fn cold(engine: &Engine, db: &FactStore, updates: &UpdateSet) -> ParkOutcome {
        engine
            .run_with_metrics(db, updates, &mut Inertia, &mut NoopMetrics)
            .unwrap()
    }

    fn updates(db: &FactStore, src: &str) -> UpdateSet {
        UpdateSet::from_source(db.vocab(), src).unwrap()
    }

    /// Drive the same update chain warm and cold; the committed state, the
    /// added/removed lists, and the fingerprint counters must agree per
    /// transaction.
    fn assert_chain_matches(rules: &str, facts: &str, txs: &[&str]) {
        let (engine, db) = setup(rules, facts);
        assert!(certify_incremental(engine.program()));
        let settle = cold(&engine, &db, &UpdateSet::empty());
        let mut warm = WarmState::build(engine.program(), &settle).expect("warm state builds");
        let mut cold_state = settle.database;
        for (i, tx) in txs.iter().enumerate() {
            let u = updates(&cold_state, tx);
            let out = cold(&engine, &cold_state, &u);
            let (cold_added, cold_removed) = cold_state.diff(&out.database);
            let report = warm
                .transact(engine.program(), &u)
                .unwrap_or_else(|| panic!("tx {i}: warm path bailed"));
            assert_eq!(report.added, cold_added, "tx {i}: added mismatch");
            assert_eq!(report.removed, cold_removed, "tx {i}: removed mismatch");
            assert_eq!(
                report.stats.gamma_steps, out.stats.gamma_steps,
                "tx {i}: gamma_steps mismatch"
            );
            assert_eq!(out.stats.restarts, 0, "tx {i}");
            assert!(out.blocked.is_empty(), "tx {i}");
            assert!(
                warm.state().same_facts(&out.database),
                "tx {i}: state mismatch: {:?} vs {:?}",
                warm.state().sorted_display(),
                out.database.sorted_display()
            );
            cold_state = out.database;
        }
    }

    #[test]
    fn certificate_accepts_positive_insert_programs() {
        let (engine, _) = setup(
            "p(X) -> +q(X). q(X), e(X, Y) -> +q(Y). X < 3, n(X) -> +m(X).",
            "",
        );
        assert!(certify_incremental(engine.program()));
        assert!(incremental_exclusions(engine.program()).is_empty());
    }

    #[test]
    fn certificate_accepts_stratified_negation() {
        // Negation on lower strata only: `q` and `d` never depend back on
        // the rules that negate them.
        let (engine, _) = setup(
            "p(X), !q(X) -> +r(X). r(X), e(X, Y) -> +r(Y). r(X), !d(X) -> +s(X).",
            "",
        );
        assert!(certify_incremental(engine.program()));
    }

    #[test]
    fn certificate_rejects_each_blocking_construct() {
        for (rules, reason) in [
            ("p(X) -> -q(X).", IncrementalBlocker::DeleteHead),
            (
                "move(X, Y), !win(Y) -> +win(X).",
                IncrementalBlocker::NegatedLiteral,
            ),
            ("+p(X) -> +r(X).", IncrementalBlocker::EventLiteral),
            ("-p(X), q(X) -> +r(X).", IncrementalBlocker::EventLiteral),
        ] {
            let (engine, _) = setup(rules, "");
            let exclusions = incremental_exclusions(engine.program());
            assert_eq!(exclusions.len(), 1, "{rules}");
            assert_eq!(exclusions[0].reason, reason, "{rules}");
            assert!(!certify_incremental(engine.program()), "{rules}");
        }
    }

    #[test]
    fn certificate_rejects_mutual_recursion_through_negation() {
        let (engine, _) = setup("p(X), !q(X) -> +q2(X). q2(X) -> +q(X).", "");
        let exclusions = incremental_exclusions(engine.program());
        assert_eq!(exclusions.len(), 1);
        assert_eq!(exclusions[0].reason, IncrementalBlocker::NegatedLiteral);
    }

    #[test]
    fn update_rules_do_not_affect_the_certificate() {
        let (engine, db) = setup("p(X) -> +q(X).", "p(a).");
        let u = updates(&db, "-p(a).");
        // P_U carries a deleting update rule; the certificate is about the
        // program's own rules (the per-transaction conflict check is the
        // warm path's bail).
        assert!(certify_incremental(&engine.program().with_updates(&u)));
    }

    #[test]
    fn warm_chain_matches_cold_on_a_recursive_program() {
        assert_chain_matches(
            "e(X, Y) -> +r(X, Y). r(X, Y), e(Y, Z) -> +r(X, Z).",
            "e(a, b). e(b, c).",
            &[
                "+e(c, d).",
                "+e(d, a).",
                "",
                "+e(a, e). +e(e, f).",
                "+e(a, b).",
            ],
        );
    }

    #[test]
    fn warm_chain_matches_cold_with_guards_and_fan_in() {
        assert_chain_matches(
            "p(X), q(X) -> +r(X). r(X) -> +s(X). n(X), X < 3 -> +m(X).",
            "p(a). n(5).",
            &["+q(a).", "+n(1).", "+p(b). +q(b).", "+n(2). +n(7)."],
        );
    }

    #[test]
    fn warm_chain_matches_cold_with_stratified_negation() {
        assert_chain_matches(
            "p(X), !q(X) -> +s(X). s(X), e(X, Y) -> +s(Y).",
            "p(a). p(b). q(b). e(a, c).",
            &["+p(d).", "+q(zz).", "+e(c, f).", "", "+p(e). +q(e)."],
        );
    }

    #[test]
    fn warm_chain_matches_cold_on_base_deletions() {
        // Deleting a base-only fact stays warm; the affected stratum
        // revalidates (s loses derivations when p shrinks or q grows).
        assert_chain_matches(
            "p(X), !q(X) -> +s(X).",
            "p(a). p(b). base(z).",
            &["-base(z).", "+q(a).", "-p(b).", "+p(c).", "-p(zz)."],
        );
    }

    #[test]
    fn warm_chain_mixes_inserts_and_deletions() {
        assert_chain_matches(
            "e(X, Y) -> +r(X, Y). r(X, Y), e(Y, Z) -> +r(X, Z). u(X) -> +v(X).",
            "u(k). raw(a).",
            &["+u(m). -raw(a).", "-u(k).", "+raw(b). +u(k)."],
        );
    }

    #[test]
    fn deleting_a_derived_fact_bails_to_cold() {
        let (engine, db) = setup("p(X) -> +q(X).", "p(a).");
        let settle = cold(&engine, &db, &UpdateSet::empty());
        let mut warm = WarmState::build(engine.program(), &settle).unwrap();
        // q(a) is program-derived: deleting it is a PARK conflict only the
        // policy can resolve — the warm path must refuse.
        let u = updates(warm.state(), "-q(a).");
        assert!(warm.transact(engine.program(), &u).is_none());
    }

    #[test]
    fn insert_delete_clash_in_one_update_set_bails() {
        let (engine, db) = setup("p(X) -> +q(X).", "p(a).");
        let settle = cold(&engine, &db, &UpdateSet::empty());
        let mut warm = WarmState::build(engine.program(), &settle).unwrap();
        let u = updates(warm.state(), "+z(k). -z(k).");
        assert!(warm.transact(engine.program(), &u).is_none());
    }

    #[test]
    fn deriving_a_deleted_fact_bails() {
        let (engine, db) = setup("trig(X) -> +q(X).", "q0(a).");
        let settle = cold(&engine, &db, &UpdateSet::empty());
        let mut warm = WarmState::build(engine.program(), &settle).unwrap();
        // +trig(a) derives q(a) while -q(a) is marked: cold resolves the
        // conflict through the policy; warm refuses.
        let u = updates(warm.state(), "+trig(a). -q(a).");
        assert!(warm.transact(engine.program(), &u).is_none());
    }

    #[test]
    fn stale_update_marks_are_scrubbed_from_the_warm_plus() {
        // tx1 inserts q(a) as a bare update (no rule derives it); tx2 makes
        // the program derive it. Without hygiene, the stale +q(a) from tx1
        // would absorb tx2's derivation and undercount gamma_steps.
        assert_chain_matches("s(X) -> +q(X).", "", &["+q(a).", "+s(a).", "+s(b)."]);
    }

    #[test]
    fn noop_transaction_touches_nothing_and_counts_like_cold() {
        let (engine, db) = setup("p(X) -> +q(X).", "p(a).");
        let settle = cold(&engine, &db, &UpdateSet::empty());
        let mut warm = WarmState::build(engine.program(), &settle).unwrap();
        let before = warm.state().sorted_display();
        let report = warm
            .transact(engine.program(), &UpdateSet::empty())
            .unwrap();
        assert!(report.added.is_empty());
        assert!(report.removed.is_empty());
        assert_eq!(report.stats.gamma_steps, 2, "program fires over the state");
        assert_eq!(warm.state().sorted_display(), before);
        // A program with no valid grounding fixpoints in one step.
        let (engine2, db2) = setup("z(X) -> +q(X).", "p(a).");
        let settle2 = cold(&engine2, &db2, &UpdateSet::empty());
        let mut warm2 = WarmState::build(engine2.program(), &settle2).unwrap();
        let report2 = warm2
            .transact(engine2.program(), &UpdateSet::empty())
            .unwrap();
        assert_eq!(report2.stats.gamma_steps, 1);
    }

    #[test]
    fn warm_build_refuses_blocked_runs_but_accepts_deletion_and_plain_runs() {
        let (engine, db) = setup("p(X) -> +q(X).", "p(a). q(b).");
        // A deletion-marked run seeds a warm state, and chains
        // byte-identically afterwards.
        let out = cold(&engine, &db, &updates(&db, "-q(b)."));
        let mut warm = WarmState::build(engine.program(), &out).expect("deletion run seeds");
        let u = updates(warm.state(), "+p(c).");
        let next = cold(&engine, &out.database, &u);
        let report = warm.transact(engine.program(), &u).unwrap();
        let (cold_added, _) = out.database.diff(&next.database);
        assert_eq!(report.added, cold_added);
        assert!(warm.state().same_facts(&next.database));
        // A plain `Engine::run` outcome seeds one too.
        let plain = engine.run(&db, &UpdateSet::empty(), &mut Inertia).unwrap();
        assert!(WarmState::build(engine.program(), &plain).is_some());
        // A blocked run cannot: the blocked set is not representable.
        let (engine3, db3) = setup("p(X) -> +q(X). p(X) -> -q(X).", "p(a).");
        let blocked_run = cold(&engine3, &db3, &UpdateSet::empty());
        assert!(!blocked_run.blocked.is_empty());
        assert!(WarmState::build(engine3.program(), &blocked_run).is_none());
    }
}
