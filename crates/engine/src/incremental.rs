//! Cross-transaction incremental evaluation (see `docs/incremental.md`).
//!
//! A resident database (`park serve`, `ActiveDatabase`) commits a sequence
//! of transactions against one program. Each transaction is semantically a
//! full `PARK(S, P, U)` evaluation from the current state `S` — but inside
//! the *incrementality-safe fragment* the whole run is determined by a small
//! delta, and the engine can keep a [`WarmState`] alive between transactions
//! and answer the next update set by delta propagation seeded from `U`
//! alone. Propagation, seeding and revalidation run the compiled bytecode
//! executor on a [`LoweredProgram`] lowered once per [`WarmState::build`] —
//! never per transaction; naive Γ only checks the latter two in debug
//! builds.
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
//! A warm state *owns* the committed state `S`: its base zone is the only
//! copy, so a commit writes `S` in place and copies no shard.
//! [`WarmState::build`] takes a cold run's state by value. A transaction
//! is split into [`WarmState::propagate`], which can bail but writes only
//! the mark zones, and [`WarmState::commit`], which writes `S` and cannot
//! fail. Whoever drops a warm state takes `S` back by move with
//! [`WarmState::into_state`]; after a bail that is the untouched
//! pre-transaction state.
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

use crate::bytecode::{self, fire_all_lowered, ZoneLens};
use crate::compile::{CompiledLiteral, CompiledProgram, LitKind, RuleId};
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
/// [`ParkOutcome`](crate::ParkOutcome) would yield for the fragment: the
/// committed additions and removals (sorted as [`FactStore::diff`] sorts
/// them) and the mode-independent counters. `blocked`, restarts, and
/// conflicts are structurally empty/zero on the warm path (a would-be
/// conflict bails to cold instead).
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
/// Invariant (maintained by [`WarmState::build`] and every
/// [`WarmState::commit`]): `base` is the committed state `S`, `plus` holds
/// exactly the heads of program groundings valid over `⟨∅, S⟩` (all of which
/// are themselves in `S`, since `S` is a PARK fixpoint), `minus` is empty.
/// The warm state owns `S`: nothing else holds its shards, so a commit
/// writes them in place.
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
    /// Build a warm state over a finished cold run's committed state, which
    /// it takes by value and becomes the only owner of. Hands the state back
    /// untouched but for added indexes when the run cannot seed one: a run
    /// that blocked groundings (`blocked` is its final blocked set) has
    /// consequences the warm invariant cannot represent.
    ///
    /// The invariant is established by one compiled full pass of every rule
    /// against `⟨∅, S⟩`, the pass that also revalidates strata at commit:
    /// at a blocked-free PARK fixpoint every valid-grounding head is in `S`;
    /// a deleting or escaping head means the outcome is not one (e.g. an
    /// uncertified program mid-chain) and cannot seed a warm state.
    pub fn build(
        program: &CompiledProgram,
        database: FactStore,
        blocked: &BlockedSet,
    ) -> Result<WarmState, FactStore> {
        if !blocked.is_empty() {
            return Err(database);
        }
        let lowered = lower(program, &database);
        let mut warm = WarmState {
            interp: IInterpretation::from_database(database),
            lowered,
        };
        warm.ensure_indexes(|_| true);
        let heads = program.rules().iter().map(|r| r.head.pred).collect();
        match warm.refire(program, &heads) {
            Ok(_) => Ok(warm),
            Err(()) => Err(warm.into_state()),
        }
    }

    /// The committed state `S` this warm state answers from.
    pub fn state(&self) -> &FactStore {
        self.interp.base()
    }

    /// Drop the warm marks and hand the committed state `S` back by move.
    /// After a bail (see [`WarmState::propagate`]) this is the untouched
    /// pre-transaction state, rows in their original order.
    pub fn into_state(self) -> FactStore {
        self.interp.into_base()
    }

    /// Evaluate one transaction in place: [`WarmState::propagate`], then
    /// [`WarmState::commit`]. `program` must be the one the warm state was
    /// built for. Returns `None` on a bail, after which the warm state
    /// is spent: [`WarmState::into_state`] hands back the untouched `S`.
    pub fn transact(
        &mut self,
        program: &CompiledProgram,
        updates: &UpdateSet,
    ) -> Option<IncrementalReport> {
        let propagation = self.propagate(updates)?;
        Some(self.commit(program, propagation))
    }

    /// The first half of a warm transaction: delta propagation through the
    /// warm state's lowered program, seeded from the zone-new `U` marks.
    /// Equivalent to (and byte-compatible with) a cold `PARK(S, P, U)` run
    /// for certified programs — see the module docs for the argument.
    ///
    /// Propagation writes only the mark zones, never the base zone `S`
    /// (debug builds check this), and it is the half that can fail. It
    /// returns `None` — a *bail* — when the transaction provokes a genuine
    /// PARK conflict (a `U` deletion of a derived fact, a `U`
    /// insert-delete clash, or a derivation of a deleted fact): resolving
    /// it needs the policy, i.e. a cold run. The marks are then left
    /// mid-propagation, so the warm state is spent, but its base is still
    /// exactly `S`: [`WarmState::into_state`] hands it back.
    ///
    /// The `U = ∅` fast path does per-update work only: no lens capture, no
    /// enumeration, no per-fact allocation.
    pub fn propagate(&mut self, updates: &UpdateSet) -> Option<Propagation> {
        #[cfg(debug_assertions)]
        let base_before = row_order_fingerprint(self.interp.base());
        let propagation = self.propagate_marks(updates);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            row_order_fingerprint(self.interp.base()),
            base_before,
            "propagation must leave the base zone untouched"
        );
        propagation
    }

    fn propagate_marks(&mut self, updates: &UpdateSet) -> Option<Propagation> {
        let started = Instant::now();
        let mut stats = RunStats::default();
        let vocab = Arc::clone(self.interp.vocab());
        let mut seed_marks: Vec<(PredId, Box<[Code]>)> = Vec::new();
        let mut new_marks: Vec<(PredId, Box<[Code]>)> = Vec::new();
        let mut fired_heads = FactStore::new(Arc::clone(&vocab));
        if updates.is_empty() {
            // Cold: step 1 marks every program-derived head (counts iff any
            // grounding is valid), the next step detects the fixpoint.
            stats.gamma_steps = if self.interp.plus().is_empty() { 1 } else { 2 };
            stats.peak_marked_atoms = self.interp.marked_len();
            return Some(Propagation {
                started,
                stats,
                seed_marks,
                new_marks,
                fired_heads,
            });
        }
        // Seed step — cold step 1: the body-less `tx` rules of `P_U` mark
        // the transaction's updates (the program-derived heads of that step
        // are already in `plus`, by the warm invariant). A `U` mark clashing
        // with the opposite zone is cold step 1's inconsistency — the
        // policy's problem, not ours.
        let mut prev = ZoneLens::capture(&self.interp);
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
        let mut rounds: u64 = 0;
        loop {
            let (fired, _) =
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
        Some(Propagation {
            started,
            stats,
            seed_marks,
            new_marks,
            fired_heads,
        })
    }

    /// The second half of a warm transaction, which cannot fail: fold a
    /// [`Propagation`] of this warm state into the base zone (`incorp`
    /// restricted to what changed), then revalidate the affected strata.
    /// `program` must be the one the warm state was built for.
    pub fn commit(
        &mut self,
        program: &CompiledProgram,
        propagation: Propagation,
    ) -> IncrementalReport {
        let Propagation {
            started,
            mut stats,
            seed_marks,
            new_marks,
            fired_heads,
        } = propagation;
        let vocab = Arc::clone(self.interp.vocab());
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
        // the cold run's. The base zone is this warm state's own, so these
        // writes copy no shard.
        let mut added: Vec<(PredId, Tuple)> = Vec::new();
        for (p, row) in &new_marks {
            if self.interp.base().contains_row(*p, row) {
                continue;
            }
            self.interp.zone_mut(MarkZone::Base).insert_row(*p, row);
            added.push((*p, vocab.decode_row(row)));
        }
        added.sort_by_cached_key(|(p, t)| vocab.display_fact(*p, t));
        let minus_rows: Vec<(PredId, Box<[Code]>)> = self
            .interp
            .minus()
            .iter_rows()
            .map(|(p, r)| (p, r.into()))
            .collect();
        let mut removed: Vec<(PredId, Tuple)> = Vec::new();
        let mut base_removed = false;
        for (p, row) in &minus_rows {
            // The bail in `propagate` guarantees `plus ∩ minus = ∅`, so a
            // base removal never orphans a plus mark.
            debug_assert!(!self.interp.plus().contains_row(*p, row));
            if self.interp.zone_mut(MarkZone::Base).remove_row(*p, row) {
                removed.push((*p, vocab.decode_row(row)));
                base_removed = true;
            }
        }
        removed.sort_by_cached_key(|(p, t)| vocab.display_fact(*p, t));
        self.interp.zone_mut(MarkZone::Minus).clear();
        // Removal invalidates a zone's secondary indexes; rebuild the
        // requested ones, so revalidation and the next transaction probe
        // indexed instead of scanning.
        self.ensure_indexes(|zone| match zone {
            MarkZone::Plus => plus_removed,
            MarkZone::Base => base_removed,
            MarkZone::Minus => false,
        });

        // Invariant restoration: a commit can strand marks — a positive
        // literal's predicate lost facts, a negated literal's predicate
        // gained them. Refire the head predicates of the rules those
        // literals sit in, which drops their stale marks (recomputation
        // against the new state only ever removes; see docs/incremental.md
        // §5). Predicates outside `affected(changed)` keep their warm marks
        // untouched — the stratum-replay invariant.
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
            let dropped = self
                .refire(program, &revalidate)
                .unwrap_or_else(|()| unreachable!("a committed certified state refires in S"));
            if dropped {
                self.ensure_indexes(|zone| zone == MarkZone::Plus);
            }
        }
        stats.elapsed = started.elapsed();
        IncrementalReport {
            added,
            removed,
            stats,
        }
    }

    /// Replace the plus marks of `heads` with the heads one compiled full
    /// pass of their rules fires over the warm zones, which read as
    /// `⟨∅, S⟩` here: the seeding of [`WarmState::build`] and the
    /// revalidation of [`WarmState::commit`]. Returns whether a mark was
    /// dropped; refuses, touching nothing, when a head is not an insertion
    /// already in `S`.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn refire(&mut self, program: &CompiledProgram, heads: &HashSet<PredId>) -> Result<bool, ()> {
        let (lowered, interp, blocked) = (&self.lowered, &self.interp, BlockedSet::new());
        let (fired, _) = fire_all_lowered(lowered, &blocked, interp, Some(heads));
        #[cfg(debug_assertions)]
        check_against_gamma(program, interp, heads, &fired);
        let base = interp.base();
        if fired
            .iter()
            .any(|f| f.sign != Sign::Insert || !base.contains_row(f.pred, &f.tuple))
        {
            return Err(());
        }
        let plus = self.interp.zone_mut(MarkZone::Plus);
        let mut stale: Vec<(PredId, Box<[Code]>)> = Vec::new();
        // At build the plus zone is empty: nothing to diff against.
        if !plus.is_empty() {
            let exact: HashSet<_> = fired.iter().map(|f| (f.pred, &*f.tuple)).collect();
            for &p in heads {
                for row in plus.relation(p).into_iter().flat_map(|rel| rel.rows()) {
                    if !exact.contains(&(p, row)) {
                        stale.push((p, row.into()));
                    }
                }
            }
        }
        for (p, row) in &stale {
            plus.remove_row(*p, row);
        }
        for f in &fired {
            plus.insert_row(f.pred, &f.tuple);
        }
        Ok(!stale.is_empty())
    }

    /// Build the warm indexes of the zones `wanted` selects: the lowered
    /// program's requests, each `Plus`-zone one mirrored onto the base zone.
    /// A warm state outlives its build-time cost model: a base shard too
    /// small to index then can grow, and the mirror keeps it indexed.
    fn ensure_indexes(&mut self, wanted: impl Fn(MarkZone) -> bool) {
        for req in self.lowered.index_requests() {
            let mirror = (req.zone == MarkZone::Plus).then_some(MarkZone::Base);
            for zone in [Some(req.zone), mirror].into_iter().flatten() {
                if wanted(zone) {
                    self.interp.zone_mut(zone).ensure_index(req.pred, req.mask);
                }
            }
        }
    }
}

/// A warm transaction between [`WarmState::propagate`] and
/// [`WarmState::commit`]: the marks propagation added, which the commit
/// folds into the base zone. Between the two halves the base zone is still
/// the pre-transaction state, so a caller can do fallible work there (a
/// journal append) and, if it fails, hand `S` back untouched with
/// [`WarmState::into_state`] instead of committing.
#[derive(Debug)]
#[must_use = "an uncommitted propagation leaves the warm state spent"]
pub struct Propagation {
    started: Instant,
    stats: RunStats,
    /// `U`'s zone-new insertion marks, for the warm-plus hygiene pass.
    seed_marks: Vec<(PredId, Box<[Code]>)>,
    /// Every zone-new insertion mark, `U`'s first.
    new_marks: Vec<(PredId, Box<[Code]>)>,
    /// Every head the propagation rounds fired.
    fired_heads: FactStore,
}

/// An order-sensitive hash of a store's rows: equal iff (up to hash
/// collisions) the same rows sit in the same order.
#[cfg(debug_assertions)]
fn row_order_fingerprint(store: &FactStore) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for row in store.iter_rows() {
        row.hash(&mut h);
    }
    h.finish()
}

/// The debug reference of one [`WarmState::refire`] pass: the definitional
/// Γ ([`crate::gamma::fire_all`]) on the same state, restricted to
/// `heads`, must fire exactly the compiled pass's groundings.
#[cfg(debug_assertions)]
fn check_against_gamma(
    program: &CompiledProgram,
    interp: &IInterpretation,
    heads: &HashSet<PredId>,
    fired: &[crate::gamma::FiredAction],
) {
    let reference: Vec<_> = crate::gamma::fire_all(program, &BlockedSet::new(), interp)
        .into_iter()
        .filter(|f| heads.contains(&f.pred))
        .collect();
    let compiled: HashSet<_> = fired.iter().map(|f| &f.grounding).collect();
    if let Some(missed) = reference.iter().find(|f| !compiled.contains(&f.grounding)) {
        panic!(
            "warm refire misses the Γ grounding {}",
            missed.grounding.display(program)
        );
    }
    let gamma: HashSet<_> = reference.iter().map(|f| &f.grounding).collect();
    if let Some(extra) = fired.iter().find(|f| !gamma.contains(&f.grounding)) {
        panic!(
            "warm refire fires {}, which Γ does not",
            extra.grounding.display(program)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::IndexRequest;
    use crate::conflict::Inertia;
    use crate::fixpoint::{Engine, ParkOutcome};
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

    /// A warm state over a cold run's outcome.
    fn seed(engine: &Engine, out: ParkOutcome) -> Result<WarmState, FactStore> {
        WarmState::build(engine.program(), out.database, &out.blocked)
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
        let mut cold_state = settle.database.clone();
        let mut warm = seed(&engine, settle).expect("warm state builds");
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
        let mut warm = seed(&engine, settle).unwrap();
        // q(a) is program-derived: deleting it is a PARK conflict only the
        // policy can resolve — the warm path must refuse.
        let u = updates(warm.state(), "-q(a).");
        assert!(warm.transact(engine.program(), &u).is_none());
    }

    #[test]
    fn insert_delete_clash_in_one_update_set_bails() {
        let (engine, db) = setup("p(X) -> +q(X).", "p(a).");
        let settle = cold(&engine, &db, &UpdateSet::empty());
        let mut warm = seed(&engine, settle).unwrap();
        let u = updates(warm.state(), "+z(k). -z(k).");
        assert!(warm.transact(engine.program(), &u).is_none());
    }

    #[test]
    fn deriving_a_deleted_fact_bails() {
        let (engine, db) = setup("trig(X) -> +q(X).", "q0(a).");
        let settle = cold(&engine, &db, &UpdateSet::empty());
        let mut warm = seed(&engine, settle).unwrap();
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
        let mut warm = seed(&engine, settle).unwrap();
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
        let mut warm2 = seed(&engine2, settle2).unwrap();
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
        let out_state = out.database.clone();
        let mut warm = seed(&engine, out).expect("deletion run seeds");
        let u = updates(warm.state(), "+p(c).");
        let next = cold(&engine, &out_state, &u);
        let report = warm.transact(engine.program(), &u).unwrap();
        let (cold_added, _) = out_state.diff(&next.database);
        assert_eq!(report.added, cold_added);
        assert!(warm.state().same_facts(&next.database));
        // A plain `Engine::run` outcome seeds one too.
        let plain = engine.run(&db, &UpdateSet::empty(), &mut Inertia).unwrap();
        assert!(seed(&engine, plain).is_ok());
        // A blocked run cannot: the blocked set is not representable.
        let (engine3, db3) = setup("p(X) -> +q(X). p(X) -> -q(X).", "p(a).");
        let blocked_run = cold(&engine3, &db3, &UpdateSet::empty());
        assert!(!blocked_run.blocked.is_empty());
        let blocked_state = blocked_run.database.sorted_display();
        let handed_back = seed(&engine3, blocked_run).unwrap_err();
        assert_eq!(handed_back.sorted_display(), blocked_state);
    }

    #[test]
    fn warm_base_indexes_survive_growth() {
        // `lower` puts the 1-row `s2` first and probes the 3-row `s1` on
        // column 0, but requests no base index for a shard that small. The
        // warm state mirrors the plus request onto the base zone, so once
        // warm inserts grow `s1` past the cost model's floor its probes
        // still go through an index.
        let (engine, db) = setup(
            "s1(X, Y), s2(X) -> +r(Y).",
            "s1(a0, b0). s1(a1, b1). s1(a2, b2). s2(a0).",
        );
        let settle = cold(&engine, &db, &UpdateSet::empty());
        let mut warm = seed(&engine, settle).unwrap();
        let s1 = engine.program().vocab().lookup_pred("s1").unwrap();
        let col0 = park_storage::ColumnMask::from_cols([0]);
        let base_s1 = IndexRequest {
            pred: s1,
            mask: col0,
            zone: MarkZone::Base,
        };
        assert!(!warm.lowered.index_requests().contains(&base_s1));
        for i in 3..203 {
            let u = updates(warm.state(), &format!("+s1(a{i}, b{i})."));
            warm.transact(engine.program(), &u).expect("stays warm");
        }
        let rel = warm.state().relation(s1).unwrap();
        assert_eq!(rel.len(), 203);
        assert!(rel.has_index(col0));
    }

    #[test]
    fn a_bail_hands_back_the_base_zone_with_its_row_order() {
        // Swap-remove reorders rows, and row order drives later
        // enumeration: churn the state so its order is not the load order,
        // then bail and compare the handed-back rows position by position.
        let (engine, db) = setup("e(X, Y) -> +r(X, Y).", "e(a, b). e(b, c). e(c, d).");
        let settle = cold(&engine, &db, &UpdateSet::empty());
        let mut warm = seed(&engine, settle).unwrap();
        for tx in ["-e(a, b).", "+e(d, e).", "-e(zz, zz)."] {
            let u = updates(warm.state(), tx);
            warm.transact(engine.program(), &u).expect("stays warm");
        }
        let rows = |s: &FactStore| -> Vec<(PredId, Vec<Code>)> {
            s.iter_rows().map(|(p, r)| (p, r.to_vec())).collect()
        };
        let before = rows(warm.state());
        // Deleting the derived r(b, c) while deriving more: a bail after
        // propagation has marked the zones.
        let u = updates(warm.state(), "+e(e, f). -r(b, c).");
        assert!(warm.propagate(&u).is_none());
        let state = warm.into_state();
        assert_eq!(rows(&state), before);
    }
}
