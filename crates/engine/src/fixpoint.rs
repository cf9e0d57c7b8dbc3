//! The PARK evaluation loop: the transition operator Δ iterated to its
//! fixpoint ω, followed by `incorp` (Sections 4.2–4.3).
//!
//! [`Engine::run`] leaves `D` to its caller and returns `incorp(int(ω))`
//! as a copy-on-write clone of it. [`Engine::evaluate`] stops at `int(ω)`,
//! for a caller that owns `D` and commits the result in its place
//! ([`Evaluation::incorporate`]).
//!
//! ```text
//! PARK(D, P, U) = incorp(int(ω_{P_U}(⟨∅, D⟩)))
//! ```
//!
//! One Δ application either performs a consistent inflationary Γ step, or —
//! on inconsistency — resolves the detected conflicts through the `SELECT`
//! policy, extends the blocked set with the losing groundings, and restarts
//! the inflationary computation from the original database `D = I°`,
//! discarding every consequence of the invalidated marks.
//!
//! Termination is a checked invariant: every restart strictly grows the
//! blocked set (else [`EngineError::NoProgress`]), and the blocked set is
//! bounded by the finite number of rule groundings.

use crate::bytecode::{self, ZoneLens};
use crate::compile::CompiledProgram;
use crate::conflict::{collect_conflicts, ConflictResolver, Resolution, SelectContext};
use crate::error::{EngineError, EngineResult};
use crate::gamma::FiredAction;
use crate::grounding::BlockedSet;
use crate::interp::IInterpretation;
use crate::lower::LoweredProgram;
use crate::metrics::{
    FinishEvent, MetricsSink, NoopMetrics, ReplayEvent, RestartEvent, StepEvent, StepOutcome,
    StorageCounters,
};
use crate::options::{EngineOptions, ResolutionScope};
use crate::replay::{Replayer, StepLog};
use crate::stats::RunStats;
use park_storage::{FactStore, UpdateSet, Vocabulary};
use park_syntax::Program;
use std::sync::Arc;
use std::time::Instant;

/// The result of a PARK evaluation.
#[derive(Debug, Clone)]
pub struct ParkOutcome {
    /// The result database instance `PARK(D, P, U)`.
    pub database: FactStore,
    /// The final i-interpretation `int(ω)` (consistent by construction).
    pub interpretation: IInterpretation,
    /// The final blocked set `B`.
    pub blocked: BlockedSet,
    /// The program actually evaluated (`P_U` when updates were supplied) —
    /// needed to render groundings in `blocked`.
    pub program: CompiledProgram,
    /// Evaluation counters.
    pub stats: RunStats,
}

impl ParkOutcome {
    /// The blocked groundings rendered in the paper's notation, sorted.
    pub fn blocked_display(&self) -> Vec<String> {
        self.blocked.display(&self.program)
    }
}

/// A finished PARK evaluation whose final interpretation is not yet
/// incorporated: what [`Engine::evaluate`] hands a caller that owns `D`
/// and commits `PARK(D, P, U)` in its place.
///
/// The base zone of `interpretation` is `D` itself, sharing every shard
/// with the caller's store. A caller that releases its own handle first
/// has [`Evaluation::incorporate`] write the marks in place, copying no
/// shard.
#[derive(Debug)]
pub struct Evaluation {
    /// The final i-interpretation `int(ω)` (consistent by construction).
    pub interpretation: IInterpretation,
    /// The final blocked set `B`.
    pub blocked: BlockedSet,
    /// The program actually evaluated (`P_U` when updates were supplied).
    pub program: CompiledProgram,
    /// Evaluation counters.
    pub stats: RunStats,
    finish: FinishContext,
}

impl Evaluation {
    /// The blocked groundings rendered in the paper's notation, sorted.
    pub fn blocked_display(&self) -> Vec<String> {
        self.blocked.display(&self.program)
    }

    /// `PARK(D, P, U) = incorp(int(ω))` by
    /// [`IInterpretation::into_incorp`], then the run's finish event into
    /// `sink`, which must be the sink [`Engine::evaluate`] was given.
    /// Returns the new state and the blocked set.
    pub fn incorporate(self, sink: &mut dyn MetricsSink) -> (FactStore, BlockedSet) {
        let Evaluation {
            interpretation,
            blocked,
            program,
            stats,
            finish,
        } = self;
        let database = interpretation.into_incorp();
        finish.report(sink, &program, &blocked, &stats, &database);
        (database, blocked)
    }
}

/// What a metered run's finish event needs besides the run's results.
#[derive(Debug)]
struct FinishContext {
    options: EngineOptions,
    policy: String,
    /// The storage counters when evaluation started; `None` for an
    /// unmetered run, which reports no finish event.
    storage_at_start: Option<StorageCounters>,
}

impl FinishContext {
    fn report(
        &self,
        sink: &mut dyn MetricsSink,
        program: &CompiledProgram,
        blocked: &BlockedSet,
        stats: &RunStats,
        database: &FactStore,
    ) {
        let Some(start) = self.storage_at_start else {
            return;
        };
        sink.finish(&FinishEvent {
            program,
            blocked,
            stats,
            options: &self.options,
            policy: &self.policy,
            database,
            storage: StorageCounters::now().delta_since(start),
        });
    }
}

/// A compiled PARK program ready to evaluate against database instances.
#[derive(Debug, Clone)]
pub struct Engine {
    program: CompiledProgram,
    options: EngineOptions,
}

impl Engine {
    /// Compile `program` against `vocab` with default options.
    pub fn new(vocab: Arc<Vocabulary>, program: &Program) -> EngineResult<Self> {
        Self::with_options(vocab, program, EngineOptions::default())
    }

    /// Compile with explicit options.
    pub fn with_options(
        vocab: Arc<Vocabulary>,
        program: &Program,
        options: EngineOptions,
    ) -> EngineResult<Self> {
        Ok(Engine {
            program: CompiledProgram::compile(vocab, program)?,
            options,
        })
    }

    /// The compiled program.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// The engine options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// Evaluate `PARK(D, P)` — condition–action rules, no transaction
    /// updates.
    pub fn park(
        &self,
        db: &FactStore,
        resolver: &mut dyn ConflictResolver,
    ) -> EngineResult<ParkOutcome> {
        self.run(db, &UpdateSet::empty(), resolver)
    }

    /// [`Engine::park`] with evaluation events reported into `sink`.
    pub fn park_with_metrics(
        &self,
        db: &FactStore,
        resolver: &mut dyn ConflictResolver,
        sink: &mut dyn MetricsSink,
    ) -> EngineResult<ParkOutcome> {
        self.run_with_metrics(db, &UpdateSet::empty(), resolver, sink)
    }

    /// Evaluate `PARK(D, P, U)` — full event–condition–action semantics.
    ///
    /// `db` must share the engine's vocabulary (they were built against the
    /// same `Arc<Vocabulary>`).
    pub fn run(
        &self,
        db: &FactStore,
        updates: &UpdateSet,
        resolver: &mut dyn ConflictResolver,
    ) -> EngineResult<ParkOutcome> {
        self.run_with_metrics(db, updates, resolver, &mut NoopMetrics)
    }

    /// [`Engine::run`] with evaluation events reported into `sink` (see
    /// `crate::metrics`). The sink's [`MetricsSink::enabled`] is consulted
    /// once, up front: a disabled sink ([`crate::metrics::NoopMetrics`])
    /// makes this take exactly the unmetered [`Engine::run`] path — no
    /// per-step timing, no allocations.
    pub fn run_with_metrics(
        &self,
        db: &FactStore,
        updates: &UpdateSet,
        resolver: &mut dyn ConflictResolver,
        sink: &mut dyn MetricsSink,
    ) -> EngineResult<ParkOutcome> {
        let Evaluation {
            interpretation,
            blocked,
            program,
            stats,
            finish,
        } = self.evaluate(db, updates, resolver, sink)?;
        // The caller keeps `D`: incorporation copies the shards it writes.
        let database = interpretation.incorp();
        finish.report(sink, &program, &blocked, &stats, &database);
        Ok(ParkOutcome {
            database,
            interpretation,
            blocked,
            program,
            stats,
        })
    }

    /// Evaluate `int(ω)` of `PARK(D, P, U)` without incorporating it, for a
    /// caller that owns `db` and commits the result in its place (see
    /// [`Evaluation`]). `db` is only read: a failing or panicking
    /// evaluation leaves it as it was. The sink is consulted as by
    /// [`Engine::run_with_metrics`]; its finish event is reported by
    /// [`Evaluation::incorporate`].
    pub fn evaluate(
        &self,
        db: &FactStore,
        updates: &UpdateSet,
        resolver: &mut dyn ConflictResolver,
        sink: &mut dyn MetricsSink,
    ) -> EngineResult<Evaluation> {
        let mut sink = sink.enabled().then_some(sink);
        assert!(
            Arc::ptr_eq(db.vocab(), self.program.vocab()),
            "database and program must share one Vocabulary"
        );
        let started = Instant::now();
        let working = self.program.with_updates(updates);
        // `P_U` is lowered once per run-set: the cost model reads only the
        // immutable starting database, so the lowered program is shared by
        // every restart and deterministic across hosts (see `crate::lower`).
        let lowered = crate::lower::lower(&working, db);
        // Statically conflict-free programs never need a firing log or
        // conflict collection; the run degenerates to the pure inflationary
        // fixpoint. A refinement certificate (`crate::refine`) extends the
        // same fast path to programs whose unifiable-head pairs are all
        // provably impossible. The certificate must cover the program that
        // actually runs — `P_U`, updates included. Debug builds check the
        // claim on every step.
        let certified = working.possibly_conflicting()
            && crate::refine::certify_conflict_free(
                &working,
                crate::refine::AnalysisVariant::Faithful,
            )
            .is_some();
        let statically_safe = !working.possibly_conflicting() || certified;
        let policy_name = resolver.name().to_string();
        let mut blocked = BlockedSet::new();
        let mut stats = RunStats {
            certified_conflict_free: certified,
            lowered_ops: lowered.op_count(),
            index_picks: lowered.index_picks(),
            ..RunStats::default()
        };
        let metered = sink.is_some();
        // Storage counters are process-wide monotonic atomics; the finish
        // event reports the delta over this evaluation. Unmetered runs skip
        // the reads entirely (the zero-overhead contract).
        let storage_at_start = metered.then(StorageCounters::now);
        // Restarts replay the previous run's firing log against the grown
        // blocked set (see `crate::replay`).
        let mut replayer: Option<Replayer> = None;
        // What the sink is lent about each step and restart, in buffers
        // reused across them; only metered runs fill them.
        let mut new_marks: Vec<usize> = Vec::new();
        let mut resolutions: Vec<(Resolution, usize)> = Vec::new();
        let mut newly_blocked: Vec<usize> = Vec::new();

        // Build the cost model's base-zone indexes once, *outside* the
        // restart loop: every restart clones this pre-indexed store, and
        // `ensure_index` on a clone whose shared shard already carries the
        // index is a no-copy no-op. Without the hoist each restart would
        // COW-clone and re-index every probed base shard from scratch.
        let index_requests = lowered.index_requests();
        let seed_db = {
            let mut seed = db.clone();
            for req in index_requests {
                if req.zone == crate::validity::MarkZone::Base {
                    seed.ensure_index(req.pred, req.mask);
                }
            }
            seed
        };

        let final_interp = 'outer: loop {
            // (Re)start the inflationary computation from I° = D.
            let run = stats.restarts + 1;
            let mut interp = IInterpretation::from_database(seed_db.clone());
            for req in index_requests {
                interp.zone_mut(req.zone).ensure_index(req.pred, req.mask);
            }
            // The run's firings: its conflict history, and the log the
            // next run replays after a restart.
            let mut step_log = StepLog::new();
            let mut step_in_run: u64 = 0;
            let mut prev_lens = ZoneLens::capture(&interp);

            loop {
                if stats.gamma_steps >= self.options.max_steps {
                    return Err(EngineError::StepLimit {
                        limit: self.options.max_steps,
                    });
                }
                let step_started = metered.then(Instant::now);
                let replayed = replayer.as_mut().and_then(|r| {
                    let step = r.next_step(&blocked);
                    if let Some(d) = r.divergence_step() {
                        stats.replay_divergence_step = Some(d);
                    }
                    step
                });
                let served_from_log = replayed.is_some();
                let (fired, tasks) = match replayed {
                    Some(fired) => {
                        // Served from the log: the filtered vector is
                        // exactly what live evaluation would fire here.
                        // Debug builds check it: the live step runs on a
                        // copy of the delta boundary, so nothing reaches
                        // counters or state.
                        #[cfg(debug_assertions)]
                        assert_eq!(
                            fired,
                            eval_step(
                                &lowered,
                                &blocked,
                                &interp,
                                step_in_run,
                                &mut prev_lens.clone(),
                            )
                            .0,
                            "replayed step {} of run {run} differs from live evaluation",
                            step_in_run + 1
                        );
                        // Keep the delta boundary current so a live
                        // hand-off after the log sees the right
                        // (prev, curr] window.
                        prev_lens = ZoneLens::capture(&interp);
                        stats.replayed_steps += 1;
                        (fired, 0)
                    }
                    None => {
                        let live =
                            eval_step(&lowered, &blocked, &interp, step_in_run, &mut prev_lens);
                        // Debug builds check the live step against the
                        // definitional Γ on the same state and blocked set.
                        #[cfg(debug_assertions)]
                        check_against_gamma(
                            &working,
                            &blocked,
                            &interp,
                            &step_log,
                            &live.0,
                            run,
                            step_in_run + 1,
                        );
                        live
                    }
                };
                stats.eval_tasks += tasks;
                stats.groundings_fired += fired.len() as u64;
                // Debug builds collect on statically safe runs too, to
                // check the static claim: the collection must find nothing.
                let conflicts = if !statically_safe || cfg!(debug_assertions) {
                    collect_conflicts(working.vocab(), &fired, &interp, &step_log)
                } else {
                    Vec::new()
                };
                #[cfg(debug_assertions)]
                {
                    let naive =
                        crate::conflict::naive_conflicts(working.vocab(), &fired, &step_log);
                    assert_eq!(conflicts, naive, "step {} of run {run}", step_in_run + 1);
                    assert!(
                        !statically_safe || conflicts.is_empty(),
                        "statically conflict-free run (certified: {certified}) detected {}",
                        conflicts[0].display(&working)
                    );
                }
                let step_nanos = step_started.map_or(0, |t| t.elapsed().as_nanos() as u64);

                if conflicts.is_empty() {
                    // Γ_{P,B}(I) is consistent: take the inflationary step.
                    stats.gamma_steps += 1;
                    step_in_run += 1;
                    let mut added_count = 0usize;
                    new_marks.clear();
                    for (i, f) in fired.iter().enumerate() {
                        if interp.insert_marked(f.sign, f.pred, &f.tuple) {
                            added_count += 1;
                            if metered {
                                new_marks.push(i);
                            }
                        }
                    }
                    stats.peak_marked_atoms = stats.peak_marked_atoms.max(interp.marked_len());
                    if let Some(s) = sink.as_mut() {
                        s.step(&StepEvent {
                            run,
                            step: step_in_run,
                            fired: &fired,
                            replayed: served_from_log,
                            tasks,
                            nanos: step_nanos,
                            outcome: if added_count == 0 {
                                StepOutcome::Fixpoint
                            } else {
                                StepOutcome::Applied
                            },
                            marked: interp.marked_len(),
                            interp: &interp,
                            new_marks: &new_marks,
                            blocked: &blocked,
                            program: &working,
                        });
                    }
                    if added_count == 0 {
                        // Γ_{P,B}(I) = I: the fixpoint ω is reached.
                        if let (Some(s), Some(r)) = (sink.as_mut(), &replayer) {
                            s.replay(&ReplayEvent {
                                run,
                                served: r.served(),
                                divergence_step: r.divergence_step(),
                            });
                        }
                        break 'outer interp;
                    }
                    // Statically conflict-free programs never restart, so
                    // capturing a firing log for them would be pure overhead;
                    // debug builds keep it for their reference checks.
                    if !statically_safe || cfg!(debug_assertions) {
                        step_log.push_step(fired);
                    }
                } else {
                    // Conflict resolution: block losers, restart from D.
                    if stats.restarts >= self.options.max_restarts {
                        return Err(EngineError::RestartLimit {
                            limit: self.options.max_restarts,
                        });
                    }
                    if let Some(s) = sink.as_mut() {
                        s.step(&StepEvent {
                            run,
                            step: step_in_run + 1,
                            fired: &fired,
                            replayed: served_from_log,
                            tasks,
                            nanos: step_nanos,
                            outcome: StepOutcome::Conflict,
                            marked: interp.marked_len(),
                            interp: &interp,
                            new_marks: &[],
                            blocked: &blocked,
                            program: &working,
                        });
                    }
                    let (selected, deferred) = match self.options.scope {
                        ResolutionScope::All => conflicts.split_at(conflicts.len()),
                        ResolutionScope::One => conflicts.split_at(1),
                    };
                    let ctx = SelectContext {
                        database: db,
                        program: &working,
                        interp: &interp,
                    };
                    resolutions.clear();
                    newly_blocked.clear();
                    for c in selected {
                        let resolution =
                            resolver
                                .select(&ctx, c)
                                .map_err(|message| EngineError::Resolver {
                                    policy: policy_name.clone(),
                                    message,
                                })?;
                        stats.conflicts_resolved += 1;
                        let mut progressed = false;
                        for (i, g) in c.losing_side(resolution).iter().enumerate() {
                            if blocked.insert(g.clone()) {
                                progressed = true;
                                if metered {
                                    newly_blocked.push(i);
                                }
                            }
                        }
                        if !progressed {
                            return Err(EngineError::NoProgress {
                                atom: working.vocab().display_fact(c.pred, &c.tuple),
                            });
                        }
                        if metered {
                            resolutions.push((resolution, newly_blocked.len()));
                        }
                    }
                    if let Some(s) = sink.as_mut() {
                        s.restart(&RestartEvent {
                            run,
                            step: step_in_run + 1,
                            scope: self.options.scope,
                            policy: &policy_name,
                            program: &working,
                            selected,
                            resolutions: &resolutions,
                            newly_blocked: &newly_blocked,
                            deferred,
                        });
                        if let Some(r) = &replayer {
                            s.replay(&ReplayEvent {
                                run,
                                served: r.served(),
                                divergence_step: r.divergence_step(),
                            });
                        }
                    }
                    // The conflicting step's firings belong to the log too:
                    // the next run replays them (filtered) as its own step
                    // at this position. (Only uncertified runs get here.)
                    step_log.push_step(fired);
                    replayer = Some(Replayer::new(step_log));
                    stats.restarts += 1;
                    continue 'outer;
                }
            }
        };

        debug_assert!(final_interp.is_consistent());
        // Release this run's handle on `D`'s shards, so that a caller who
        // owns `D` and drops its own incorporates in place.
        drop(seed_db);
        stats.blocked_instances = blocked.len() as u64;
        stats.elapsed = started.elapsed();
        Ok(Evaluation {
            interpretation: final_interp,
            blocked,
            program: working,
            stats,
            finish: FinishContext {
                options: self.options,
                policy: policy_name,
                storage_at_start,
            },
        })
    }
}

/// One live Γ step on the compiled bytecode, shared by the fixpoint loop's
/// live arm and its debug replay check: everything at a run's first step,
/// and only the `(prev_lens, now]` delta window after it, advancing
/// `prev_lens` to the current boundary. Returns the fired actions and the
/// number of evaluation units run.
fn eval_step(
    lowered: &LoweredProgram,
    blocked: &BlockedSet,
    interp: &IInterpretation,
    step_in_run: u64,
    prev_lens: &mut ZoneLens,
) -> (Vec<FiredAction>, u64) {
    if step_in_run == 0 {
        return bytecode::fire_all_lowered(lowered, blocked, interp, None);
    }
    let curr = ZoneLens::capture(interp);
    let fired = bytecode::fire_new_lowered(lowered, blocked, interp, prev_lens, &curr);
    *prev_lens = curr;
    fired
}

/// The debug reference check of one live step: the definitional Γ
/// ([`crate::gamma::fire_all`]) runs on the same state and blocked set,
/// and every grounding it fires that this run has not fired yet (the
/// run's firing log holds the ones it has) must be in the compiled step,
/// while every compiled grounding must be one Γ fires too. Touches no
/// counter or state.
#[cfg(debug_assertions)]
fn check_against_gamma(
    program: &CompiledProgram,
    blocked: &BlockedSet,
    interp: &IInterpretation,
    log: &StepLog,
    fired: &[FiredAction],
    run: u64,
    step: u64,
) {
    use std::collections::HashSet;
    let reference = crate::gamma::fire_all(program, blocked, interp);
    let compiled: HashSet<_> = fired.iter().map(|f| &f.grounding).collect();
    let logged: HashSet<_> = log.firings().map(|f| &f.grounding).collect();
    if let Some(missed) = reference
        .iter()
        .find(|f| !compiled.contains(&f.grounding) && !logged.contains(&f.grounding))
    {
        panic!(
            "step {step} of run {run}: the compiled step misses the Γ grounding {}",
            missed.grounding.display(program)
        );
    }
    let gamma: HashSet<_> = reference.iter().map(|f| &f.grounding).collect();
    if let Some(extra) = fired.iter().find(|f| !gamma.contains(&f.grounding)) {
        panic!(
            "step {step} of run {run}: the compiled step fires {}, which Γ does not",
            extra.grounding.display(program)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::Inertia;
    use crate::metrics::NoopMetrics;
    use crate::trace::{Trace, TraceEvent};
    use park_syntax::parse_program;

    fn run(rules: &str, facts: &str) -> ParkOutcome {
        run_opts(rules, facts, EngineOptions::default())
    }

    fn run_opts(rules: &str, facts: &str, options: EngineOptions) -> ParkOutcome {
        run_with(rules, facts, options, &mut NoopMetrics)
    }

    fn run_with(
        rules: &str,
        facts: &str,
        options: EngineOptions,
        sink: &mut dyn MetricsSink,
    ) -> ParkOutcome {
        let vocab = Vocabulary::new();
        let engine =
            Engine::with_options(Arc::clone(&vocab), &parse_program(rules).unwrap(), options)
                .unwrap();
        let db = FactStore::from_source(vocab, facts).unwrap();
        engine.park_with_metrics(&db, &mut Inertia, sink).unwrap()
    }

    fn traced(rules: &str, facts: &str, options: EngineOptions) -> (ParkOutcome, Trace) {
        let mut trace = Trace::new();
        let out = run_with(rules, facts, options, &mut trace);
        (out, trace)
    }

    #[test]
    fn empty_program_returns_database() {
        let out = run("", "p(a). q(b).");
        assert_eq!(out.database.sorted_display(), vec!["p(a)", "q(b)"]);
        assert_eq!(out.stats.restarts, 0);
        assert_eq!(out.stats.gamma_steps, 1);
    }

    #[test]
    fn paper_p1_inertia() {
        // Section 4.1, P1 on D = {p}: conflict on `a`, inertia drops both
        // actions; result {p, q}.
        let out = run("p -> +q. p -> -a. q -> +a.", "p.");
        assert_eq!(out.database.sorted_display(), vec!["p", "q"]);
        assert_eq!(out.stats.restarts, 1);
    }

    #[test]
    fn paper_p2_obsolete_consequences_discarded() {
        // Section 4.1, P2: s must NOT survive (its only reason, +a, was
        // invalidated), r must survive. Result {p, q, r}.
        let out = run("p -> +q. p -> -a. q -> +a. !a -> +r. a -> +s.", "p.");
        assert_eq!(out.database.sorted_display(), vec!["p", "q", "r"]);
    }

    #[test]
    fn paper_p3_false_conflict_avoided() {
        // Section 4.1, P3: the q-conflict is resolved first; a is then only
        // derivable by rule 5, so the result is {p, a}.
        let out = run("p -> +q. p -> -q. q -> +a. q -> -a. p -> +a.", "p.");
        assert_eq!(out.database.sorted_display(), vec!["a", "p"]);
    }

    #[test]
    fn section5_inertia_example() {
        // Section 5: inertia blocks r2 then r5; final database {p, a, b}.
        let out = run(
            "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.",
            "p.",
        );
        assert_eq!(out.database.sorted_display(), vec!["a", "b", "p"]);
        assert_eq!(out.stats.restarts, 2);
        let blocked = out.blocked_display();
        assert_eq!(blocked, vec!["(r2)", "(r5)"]);
    }

    #[test]
    fn section5_counterintuitive_inertia() {
        // Section 5 second example: result is {a} (not the "intuitive"
        // {a, d}).
        let out = run(
            "r1: a -> +b. r2: a -> +d. r3: b -> +c. r4: b -> -d. r5: c -> -b.",
            "a.",
        );
        assert_eq!(out.database.sorted_display(), vec!["a"]);
        assert_eq!(out.blocked_display(), vec!["(r1)", "(r2)"]);
    }

    #[test]
    fn recursive_rules_terminate() {
        let out = run(
            "e(X, Y) -> +r(X, Y). r(X, Y), e(Y, Z) -> +r(X, Z).",
            "e(a, b). e(b, c). e(c, d).",
        );
        let mut expected = vec![
            "e(a, b)", "e(b, c)", "e(c, d)", "r(a, b)", "r(a, c)", "r(a, d)", "r(b, c)", "r(b, d)",
            "r(c, d)",
        ];
        expected.sort();
        assert_eq!(out.database.sorted_display(), expected);
    }

    #[test]
    fn eca_example_without_conflicts() {
        // Section 4.3, first example.
        let vocab = Vocabulary::new();
        let engine = Engine::new(
            Arc::clone(&vocab),
            &parse_program("r1: p(X) -> +q(X). r2: q(X) -> +r(X). r3: +r(X) -> -s(X).").unwrap(),
        )
        .unwrap();
        let db = FactStore::from_source(Arc::clone(&vocab), "p(a). s(a). s(b).").unwrap();
        let updates = UpdateSet::from_source(&vocab, "+q(b).").unwrap();
        let out = engine.run(&db, &updates, &mut Inertia).unwrap();
        assert_eq!(
            out.database.sorted_display(),
            vec!["p(a)", "q(a)", "q(b)", "r(a)", "r(b)"]
        );
        assert_eq!(out.stats.restarts, 0);
    }

    #[test]
    fn eca_example_with_conflict() {
        // Section 4.3, second example. The paper's final fixpoint listing
        // contains q(a,a); the result below includes it (see EXPERIMENTS.md
        // on the paper's erratum) along with r(a,a), and p(a,a) survives by
        // inertia.
        let vocab = Vocabulary::new();
        let engine = Engine::new(
            Arc::clone(&vocab),
            &parse_program(
                "r1: q(X, a) -> -p(X, a). r2: q(a, X) -> +r(a, X). r3: +r(X, Y) -> +p(X, Y).",
            )
            .unwrap(),
        )
        .unwrap();
        let db = FactStore::from_source(Arc::clone(&vocab), "p(a, a). p(a, b). p(a, c).").unwrap();
        let updates = UpdateSet::from_source(&vocab, "+q(a, a).").unwrap();
        let out = engine.run(&db, &updates, &mut Inertia).unwrap();
        assert_eq!(
            out.database.sorted_display(),
            vec!["p(a, a)", "p(a, b)", "p(a, c)", "q(a, a)", "r(a, a)"]
        );
        assert_eq!(out.stats.restarts, 1);
        // Inertia keeps p(a,a) (present in D): the deleting side r1 blocks.
        let blocked = out.blocked_display();
        assert_eq!(blocked.len(), 1);
        assert!(blocked[0].starts_with("(r1"), "{blocked:?}");
    }

    #[test]
    fn trace_records_paper_style_steps() {
        let (_, trace) = traced(
            "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.",
            "p.",
            EngineOptions::default(),
        );
        let rendered = trace.render();
        assert!(rendered.contains("run 1"), "{rendered}");
        assert!(rendered.contains("run 3"), "{rendered}");
        assert!(rendered.contains("inconsistent: q"), "{rendered}");
        assert!(rendered.contains("inertia -> delete"), "{rendered}");
        assert!(rendered.contains("fixpoint"), "{rendered}");
    }

    #[test]
    fn one_at_a_time_scope_matches_all_scope_result_here() {
        let opts = EngineOptions::default().with_scope(ResolutionScope::One);
        let out = run_opts(
            "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.",
            "p.",
            opts,
        );
        assert_eq!(out.database.sorted_display(), vec!["a", "b", "p"]);
    }

    #[test]
    fn step_limit_is_enforced() {
        let vocab = Vocabulary::new();
        let engine = Engine::with_options(
            Arc::clone(&vocab),
            &parse_program("p -> +q. q -> +r.").unwrap(),
            EngineOptions {
                max_steps: 1,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        let db = FactStore::from_source(vocab, "p.").unwrap();
        let err = engine.park(&db, &mut Inertia).unwrap_err();
        assert_eq!(err, EngineError::StepLimit { limit: 1 });
    }

    #[test]
    fn restart_limit_is_enforced() {
        let vocab = Vocabulary::new();
        let engine = Engine::with_options(
            Arc::clone(&vocab),
            &parse_program("p -> +q. p -> -q.").unwrap(),
            EngineOptions {
                max_restarts: 0,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        let db = FactStore::from_source(vocab, "p.").unwrap();
        let err = engine.park(&db, &mut Inertia).unwrap_err();
        assert_eq!(err, EngineError::RestartLimit { limit: 0 });
    }

    #[test]
    fn resolver_failure_is_surfaced() {
        struct Failing;
        impl ConflictResolver for Failing {
            fn name(&self) -> &str {
                "failing"
            }
            fn select(
                &mut self,
                _: &SelectContext<'_>,
                _: &crate::conflict::Conflict,
            ) -> Result<crate::conflict::Resolution, String> {
                Err("no answer".into())
            }
        }
        let vocab = Vocabulary::new();
        let engine = Engine::new(
            Arc::clone(&vocab),
            &parse_program("p -> +q. p -> -q.").unwrap(),
        )
        .unwrap();
        let db = FactStore::from_source(vocab, "p.").unwrap();
        let err = engine.park(&db, &mut Failing).unwrap_err();
        assert!(matches!(err, EngineError::Resolver { .. }));
    }

    #[test]
    fn historical_one_sided_conflict_terminates() {
        // The DESIGN.md §3 degenerate case: +a is derived via ¬q while ¬q
        // holds, then +q arrives and invalidates the deriving body, then -a
        // becomes derivable. The strict paper definition would find no
        // two-sided conflict; the firing log supplies the historical +a side.
        let out = run("r1: !q -> +a. r2: p -> +q. r3: q -> -a.", "p.");
        // Inertia: a ∉ D ⇒ delete wins; r1's grounding is blocked; result
        // stabilizes without a.
        assert_eq!(out.database.sorted_display(), vec!["p", "q"]);
    }

    #[test]
    fn a_deletion_mark_makes_a_negated_literal_valid() {
        // `!c` turns valid only at step 2, through the `-c` mark step 1
        // adds: no binding literal gains a delta, so the delta evaluator
        // must fall back to full enumeration of `w`'s rule (a debug build
        // checks each live step against naive Γ).
        let out = run("p -> -c. !c -> +w. w, !c -> +v.", "p. c.");
        assert_eq!(out.database.sorted_display(), vec!["p", "v", "w"]);
        assert_eq!(out.stats.gamma_steps, 4);
    }

    #[test]
    fn a_full_pass_refire_is_one_member_of_its_side() {
        // Step 2 fires `r2` (`+q`) and marks `-d`. The new `-d` mark makes
        // step 3 enumerate `r2` in full, so it fires again, next to `r5`'s
        // `-q`: the conflict's insertion side holds `r2` once, from this
        // step and from the log alike.
        let (out, trace) = traced(
            "r1: p -> +a. r2: a, !d -> +q. r3: p -> +e. r4: e -> -d. \
             r6: e -> +g. r5: g -> -q.",
            "p.",
            EngineOptions::default(),
        );
        let resolved: Vec<&str> = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ConflictResolved { conflict, .. } => Some(conflict.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(resolved, vec!["(q, {(r2)}, {(r5)})"]);
        // Run 1 fires 2 + 3 + 2 groundings, the refire included. Run 2
        // replays 2 + 2 (`r2` is blocked now) and fires `r5` live.
        assert_eq!(out.stats.groundings_fired, 12);
        assert_eq!(out.database.sorted_display(), vec!["a", "e", "g", "p"]);
    }

    #[test]
    fn stats_are_populated() {
        let out = run("p -> +q. p -> -a. q -> +a.", "p.");
        assert!(out.stats.gamma_steps >= 2);
        assert_eq!(out.stats.restarts, 1);
        assert_eq!(out.stats.conflicts_resolved, 1);
        assert!(out.stats.groundings_fired > 0);
        assert_eq!(out.stats.blocked_instances, 1);
        assert!(out.stats.peak_marked_atoms >= 2);
    }

    #[test]
    fn seminaive_mode_reproduces_every_inline_scenario() {
        // Every (rules, facts) pair from this module's tests, with its
        // expected result, on the delta evaluator. (A debug build also
        // checks each live step against naive Γ.)
        let scenarios: [(&str, &str, &[&str]); 8] = [
            ("p -> +q. p -> -a. q -> +a.", "p.", &["p", "q"]),
            (
                "p -> +q. p -> -a. q -> +a. !a -> +r. a -> +s.",
                "p.",
                &["p", "q", "r"],
            ),
            (
                "p -> +q. p -> -q. q -> +a. q -> -a. p -> +a.",
                "p.",
                &["a", "p"],
            ),
            (
                "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.",
                "p.",
                &["a", "b", "p"],
            ),
            (
                "r1: a -> +b. r2: a -> +d. r3: b -> +c. r4: b -> -d. r5: c -> -b.",
                "a.",
                &["a"],
            ),
            (
                "e(X, Y) -> +r(X, Y). r(X, Y), e(Y, Z) -> +r(X, Z).",
                "e(a, b). e(b, c). e(c, d).",
                &[
                    "e(a, b)", "e(b, c)", "e(c, d)", "r(a, b)", "r(a, c)", "r(a, d)", "r(b, c)",
                    "r(b, d)", "r(c, d)",
                ],
            ),
            ("r1: !q -> +a. r2: p -> +q. r3: q -> -a.", "p.", &["p", "q"]),
            (
                "r1: p(X), p(Y) -> +q(X, Y). r2: q(X, X) -> -q(X, X).
                 r3: q(X, Y), q(X, Z), q(Z, Y) -> -q(X, Y).",
                "p(a). p(b). p(c).",
                &["p(a)", "p(b)", "p(c)"],
            ),
        ];
        for (rules, facts, expected) in scenarios {
            let (out, _) = traced(rules, facts, EngineOptions::default());
            assert_eq!(out.database.sorted_display(), expected, "{rules}");
        }
    }

    #[test]
    fn seminaive_eca_examples_agree() {
        // Section 4.3's conflicting ECA example: both resolution scopes
        // commit the same database and blocked set (the run has a single
        // conflict, so `One` resolves exactly what `All` does).
        let vocab = Vocabulary::new();
        let program = park_syntax::parse_program(
            "r1: q(X, a) -> -p(X, a). r2: q(a, X) -> +r(a, X). r3: +r(X, Y) -> +p(X, Y).",
        )
        .unwrap();
        let db = FactStore::from_source(Arc::clone(&vocab), "p(a, a). p(a, b). p(a, c).").unwrap();
        let updates = UpdateSet::from_source(&vocab, "+q(a, a).").unwrap();
        let run = |options: EngineOptions| {
            Engine::with_options(Arc::clone(&vocab), &program, options)
                .unwrap()
                .run(&db, &updates, &mut Inertia)
                .unwrap()
        };
        let reference = run(EngineOptions::default());
        for scope in [ResolutionScope::All, ResolutionScope::One] {
            let out = run(EngineOptions::default().with_scope(scope));
            assert!(reference.database.same_facts(&out.database));
            assert_eq!(reference.blocked_display(), out.blocked_display());
        }
    }

    // The identity suite (replaying restarts vs the oracle's
    // restart-from-D runs) lives in
    // `park-testkit`'s `tests/identity.rs`, on top of the shared
    // fingerprint/transcript comparison helpers; the differential harness
    // there extends them to generated programs. Every replayed step of
    // every debug-build run is also checked against live evaluation in
    // place.

    #[test]
    fn warm_replay_skips_reevaluation_of_the_stable_prefix() {
        // Section 5 example, warm: run 2 diverges at step 1 (blocked r2 is
        // in the first logged step), run 3 replays all three of run 2's
        // steps — diverging only at step 3, where filtering out r5 turns
        // the logged conflict step into the fixpoint. 1 + 3 replayed steps
        // total; the last divergence was at step 3.
        #[derive(Default)]
        struct Replays(Vec<(u64, u64, Option<u64>)>);
        impl MetricsSink for Replays {
            fn replay(&mut self, ev: &ReplayEvent) {
                self.0.push((ev.run, ev.served, ev.divergence_step));
            }
        }
        let mut replays = Replays::default();
        let out = run_with(
            "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.",
            "p.",
            EngineOptions::default(),
            &mut replays,
        );
        assert_eq!(out.database.sorted_display(), vec!["a", "b", "p"]);
        assert_eq!(out.stats.restarts, 2);
        assert_eq!(out.stats.replayed_steps, 4);
        assert_eq!(out.stats.replay_divergence_step, Some(3));
        assert_eq!(replays.0, vec![(2, 1, Some(1)), (3, 3, Some(3))]);
    }

    #[test]
    fn conflict_free_runs_record_no_replay() {
        // No unifiable insert/delete heads, and a guard-partitioned pair
        // the refinement certificate excludes: neither run restarts, so
        // neither has a log to replay.
        let plain = run("p -> +q. q -> +r.", "p.");
        assert_eq!(plain.database.sorted_display(), vec!["p", "q", "r"]);
        assert!(!plain.stats.certified_conflict_free);
        let certified = run(
            "grow: p(X), X < 5 -> +q(X). cut: p(X), X >= 5 -> -q(X).",
            "p(1). p(7). q(7).",
        );
        assert_eq!(
            certified.database.sorted_display(),
            vec!["p(1)", "p(7)", "q(1)"]
        );
        assert!(certified.stats.certified_conflict_free);
        for out in [plain, certified] {
            assert_eq!(out.stats.restarts, 0);
            assert_eq!(out.stats.replayed_steps, 0);
            assert_eq!(out.stats.replay_divergence_step, None);
        }
    }

    #[test]
    fn scope_one_trace_lists_only_the_resolved_conflict() {
        // Two simultaneous conflicts (q and a); under One-scope only the
        // least atom, `a`, is handed to SELECT per restart, and the
        // Inconsistent event must say so, listing `q` as deferred.
        let (_, trace) = traced(
            "p -> +q. p -> -q. p -> +a. p -> -a.",
            "p.",
            EngineOptions::default().with_scope(ResolutionScope::One),
        );
        let first_inconsistent = trace
            .events()
            .iter()
            .find_map(|e| match e {
                TraceEvent::Inconsistent {
                    atoms, deferred, ..
                } => Some((atoms.clone(), deferred.clone())),
                _ => None,
            })
            .expect("an inconsistency is traced");
        assert_eq!(first_inconsistent.0, vec!["a".to_string()]);
        assert_eq!(first_inconsistent.1, vec!["q".to_string()]);
        // All-scope: everything is resolved, nothing deferred.
        let (_, trace) = traced(
            "p -> +q. p -> -q. p -> +a. p -> -a.",
            "p.",
            EngineOptions::default(),
        );
        for e in trace.events() {
            if let TraceEvent::Inconsistent { deferred, .. } = e {
                assert!(deferred.is_empty(), "{deferred:?}");
            }
        }
    }

    #[test]
    fn scope_one_resolves_the_least_atom_whatever_the_emission_order() {
        // The fuzz corpus' `seminaive-conflict-order` program: step 2 of
        // run 1 conflicts on `g` (rule 1 inserts it, rule 4 deletes it)
        // and on `f` (rules 2 and 3). Rule order emits `g` first; One
        // scope still resolves `f`, the least rendered atom.
        struct PreferInsert;
        impl ConflictResolver for PreferInsert {
            fn name(&self) -> &str {
                "prefer-insert"
            }
            fn select(
                &mut self,
                _: &SelectContext<'_>,
                _: &crate::conflict::Conflict,
            ) -> Result<Resolution, String> {
                Ok(Resolution::Insert)
            }
        }
        let vocab = Vocabulary::new();
        let engine = Engine::with_options(
            Arc::clone(&vocab),
            &parse_program("c -> +g. g -> +f. c -> -f. g -> -g.").unwrap(),
            EngineOptions::default().with_scope(ResolutionScope::One),
        )
        .unwrap();
        let db = FactStore::from_source(vocab, "c.").unwrap();
        let mut trace = Trace::new();
        engine
            .park_with_metrics(&db, &mut PreferInsert, &mut trace)
            .unwrap();
        let resolved: Vec<(u64, Vec<String>, Vec<String>)> = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Inconsistent {
                    run,
                    atoms,
                    deferred,
                    ..
                } => Some((*run, atoms.clone(), deferred.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            resolved[0],
            (1, vec!["f".to_string()], vec!["g".to_string()]),
            "{resolved:?}"
        );
        let rendered = trace.render();
        assert!(rendered.contains("(f, "), "{rendered}");
    }

    #[test]
    fn outcome_exposes_final_bistructure_parts() {
        let out = run("p -> +q. p -> -q.", "p.");
        assert!(out.interpretation.is_consistent());
        assert_eq!(out.blocked.len(), 1);
        assert_eq!(out.database.sorted_display(), vec!["p"]);
    }
}
