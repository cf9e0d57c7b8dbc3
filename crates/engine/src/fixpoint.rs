//! The PARK evaluation loop: the transition operator Δ iterated to its
//! fixpoint ω, followed by `incorp` (Sections 4.2–4.3).
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
use crate::conflict::{collect_conflicts, ConflictResolver, Provenance, Resolution, SelectContext};
use crate::error::{EngineError, EngineResult};
use crate::gamma::FiredAction;
use crate::grounding::BlockedSet;
use crate::interp::IInterpretation;
use crate::lower::LoweredProgram;
use crate::metrics::{
    FinishEvent, MetricsSink, ReplayEvent, RestartEvent, StepEvent, StepOutcome, StorageCounters,
    TaskSpan,
};
use crate::options::{EngineOptions, ResolutionScope};
use crate::replay::{Replayer, StepLog};
use crate::stats::RunStats;
use crate::trace::{Trace, TraceEvent};
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
    /// The execution trace (empty unless `EngineOptions::trace`).
    pub trace: Trace,
}

impl ParkOutcome {
    /// The blocked groundings rendered in the paper's notation, sorted.
    pub fn blocked_display(&self) -> Vec<String> {
        self.blocked.display(&self.program)
    }

    /// The run's *configuration-independent observables*, rendered one per
    /// line: the final database (sorted), the blocked set, the counters the
    /// semantics fixes (restarts, Γ steps, conflicts resolved, blocked
    /// instances), and the full trace event stream as JSON.
    ///
    /// Two evaluations of the same `PARK(D, P)` instance must produce
    /// byte-identical fingerprints no matter which thread count they ran
    /// under — this is the comparison surface of the differential test
    /// harness (`park-testkit`), which also holds the
    /// engine's replaying restarts to the paper-literal oracle's
    /// restart-from-`D` runs.
    /// Scheduling counters (`eval_tasks`, `replayed_steps`, timings) are
    /// deliberately excluded. The trace line is only meaningful for runs
    /// with `EngineOptions::trace` enabled.
    pub fn fingerprint(&self) -> String {
        format!(
            "database: {}\nblocked: {}\nrestarts: {}\ngamma_steps: {}\n\
             conflicts_resolved: {}\nblocked_instances: {}\ntrace:\n{}",
            self.database.sorted_display().join(", "),
            self.blocked_display().join(", "),
            self.stats.restarts,
            self.stats.gamma_steps,
            self.stats.conflicts_resolved,
            self.stats.blocked_instances,
            self.trace.to_json(),
        )
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
        self.run_inner(db, updates, resolver, None)
    }

    /// [`Engine::run`] with evaluation events reported into `sink` (see
    /// `crate::metrics`). The sink's [`MetricsSink::enabled`] is consulted
    /// once, up front: a disabled sink ([`crate::metrics::NoopMetrics`])
    /// makes this take exactly the unmetered [`Engine::run`] path — no
    /// per-step timing, no span buffers, no allocations.
    pub fn run_with_metrics(
        &self,
        db: &FactStore,
        updates: &UpdateSet,
        resolver: &mut dyn ConflictResolver,
        sink: &mut dyn MetricsSink,
    ) -> EngineResult<ParkOutcome> {
        let sink = sink.enabled().then_some(sink);
        self.run_inner(db, updates, resolver, sink)
    }

    fn run_inner(
        &self,
        db: &FactStore,
        updates: &UpdateSet,
        resolver: &mut dyn ConflictResolver,
        mut sink: Option<&mut dyn MetricsSink>,
    ) -> EngineResult<ParkOutcome> {
        assert!(
            Arc::ptr_eq(db.vocab(), self.program.vocab()),
            "database and program must share one Vocabulary"
        );
        let started = Instant::now();
        let working = self.program.with_updates(updates);
        // `P_U` is lowered once per run-set: the cost model reads only the
        // immutable starting database, so the lowered program is shared by
        // every restart and deterministic across hosts and thread counts
        // (see `crate::lower`).
        let lowered = crate::lower::lower(&working, db);
        // Statically conflict-free programs never need provenance or
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
        // Host-parallelism clamp: task decomposition follows the *requested*
        // thread count (so `eval_tasks` and the merged firing stream are
        // host-independent), but no more worker threads than the host can
        // actually run in parallel are spawned.
        let requested_threads = self.options.parallelism.unwrap_or(1).max(1);
        let effective_threads = requested_threads.min(crate::parallel::host_parallelism());
        let mut blocked = BlockedSet::new();
        let mut stats = RunStats {
            effective_parallelism: effective_threads,
            certified_conflict_free: certified,
            lowered_ops: lowered.op_count(),
            index_picks: lowered.index_picks(),
            ..RunStats::default()
        };
        let mut trace = Trace::new();
        let tracing = self.options.trace;
        let metered = sink.is_some();
        // Storage counters are process-wide monotonic atomics; the finish
        // event reports the delta over this evaluation. Unmetered runs skip
        // the reads entirely (the zero-overhead contract).
        let storage_at_start = if metered {
            StorageCounters::now()
        } else {
            StorageCounters::default()
        };
        let mut spans: Vec<TaskSpan> = Vec::new();
        // Provenance outlives the runs: `clear` keeps the per-atom maps'
        // allocations for the next run to reuse.
        let mut provenance = Provenance::new();
        // Restarts replay the previous run's firing log against the grown
        // blocked set (see `crate::replay`).
        let mut replayer: Option<Replayer> = None;

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
            if tracing {
                trace.push(TraceEvent::RunStarted { run });
            }
            let mut interp = IInterpretation::from_database(seed_db.clone());
            for req in index_requests {
                interp.zone_mut(req.zone).ensure_index(req.pred, req.mask);
            }
            provenance.clear();
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
                if metered {
                    spans.clear();
                }
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
                        // Debug builds check it: the live step runs
                        // sequentially on a copy of the delta boundary,
                        // so nothing reaches counters, spans, or state.
                        #[cfg(debug_assertions)]
                        assert_eq!(
                            fired,
                            eval_step(
                                &lowered,
                                &blocked,
                                &interp,
                                step_in_run,
                                &mut prev_lens.clone(),
                                None,
                                1,
                                None,
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
                        let live = eval_step(
                            &lowered,
                            &blocked,
                            &interp,
                            step_in_run,
                            &mut prev_lens,
                            self.options.parallelism,
                            effective_threads,
                            if metered { Some(&mut spans) } else { None },
                        );
                        // Debug builds check the live step against the
                        // definitional Γ on the same state and blocked set.
                        #[cfg(debug_assertions)]
                        check_against_gamma(
                            &working,
                            &blocked,
                            &interp,
                            &provenance,
                            &live.0,
                            run,
                            step_in_run + 1,
                        );
                        live
                    }
                };
                stats.eval_tasks += tasks;
                stats.groundings_fired += fired.len() as u64;
                // Fast path: a conflict needs an insertion side and a
                // deletion side (in this step's firings or the run's marks);
                // if either polarity is absent everywhere, skip the
                // grouping pass entirely.
                let may_conflict = !statically_safe
                    && (!interp.minus().is_empty()
                        || fired.iter().any(|f| f.sign == park_syntax::Sign::Delete))
                    && (!interp.plus().is_empty()
                        || fired.iter().any(|f| f.sign == park_syntax::Sign::Insert));
                let conflicts = if may_conflict {
                    collect_conflicts(working.vocab(), &fired, &provenance)
                } else {
                    Vec::new()
                };
                // Debug builds check the static claim: full conflict
                // collection must find nothing on a statically safe run.
                #[cfg(debug_assertions)]
                if statically_safe {
                    let missed = collect_conflicts(working.vocab(), &fired, &provenance);
                    assert!(
                        missed.is_empty(),
                        "statically conflict-free run (certified: {certified}) detected \
                         a conflict on `{}`",
                        working
                            .vocab()
                            .display_fact(missed[0].pred, &missed[0].tuple)
                    );
                }
                let step_nanos = step_started.map_or(0, |t| t.elapsed().as_nanos() as u64);

                if conflicts.is_empty() {
                    // Γ_{P,B}(I) is consistent: take the inflationary step.
                    stats.gamma_steps += 1;
                    step_in_run += 1;
                    let mut added_count = 0usize;
                    let mut added_display: Vec<String> = Vec::new();
                    for f in &fired {
                        if interp.insert_marked(f.sign, f.pred, &f.tuple) {
                            added_count += 1;
                            if tracing {
                                added_display.push(format!(
                                    "{}{}",
                                    f.sign,
                                    working.vocab().display_row(f.pred, &f.tuple)
                                ));
                            }
                        }
                    }
                    // Debug builds keep provenance on certified runs too, for
                    // the per-step conflict-freedom check.
                    if !statically_safe || cfg!(debug_assertions) {
                        provenance.record_all(&fired);
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
                            spans: &spans,
                            outcome: if added_count == 0 {
                                StepOutcome::Fixpoint
                            } else {
                                StepOutcome::Applied
                            },
                            marked: interp.marked_len(),
                        });
                    }
                    if added_count == 0 {
                        // Γ_{P,B}(I) = I: the fixpoint ω is reached.
                        if tracing {
                            trace.push(TraceEvent::Fixpoint {
                                run,
                                interp: interp.display(),
                                blocked: blocked.display(&working),
                            });
                            if let Some(r) = &replayer {
                                trace.push_note(replay_note(run, r));
                            }
                        }
                        if let (Some(s), Some(r)) = (sink.as_mut(), &replayer) {
                            s.replay(&ReplayEvent {
                                run,
                                served: r.served(),
                                divergence_step: r.divergence_step(),
                            });
                        }
                        break 'outer interp;
                    }
                    if tracing {
                        trace.push(TraceEvent::Step {
                            run,
                            step: step_in_run,
                            interp: interp.display(),
                            added: added_display,
                        });
                    }
                    // Statically conflict-free programs never restart, so
                    // capturing a firing log for them would be pure overhead.
                    if !statically_safe {
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
                            spans: &spans,
                            outcome: StepOutcome::Conflict,
                            marked: interp.marked_len(),
                        });
                    }
                    let (selected, deferred) = match self.options.scope {
                        ResolutionScope::All => conflicts.split_at(conflicts.len()),
                        ResolutionScope::One => conflicts.split_at(1),
                    };
                    if tracing {
                        let atom = |c: &crate::conflict::Conflict| {
                            working.vocab().display_fact(c.pred, &c.tuple)
                        };
                        trace.push(TraceEvent::Inconsistent {
                            run,
                            step: step_in_run + 1,
                            atoms: selected.iter().map(atom).collect(),
                            deferred: deferred.iter().map(atom).collect(),
                        });
                    }
                    let ctx = SelectContext {
                        database: db,
                        program: &working,
                        interp: &interp,
                    };
                    let mut resolutions_meta: Vec<(String, Resolution, u64)> = Vec::new();
                    for c in selected {
                        let resolution =
                            resolver
                                .select(&ctx, c)
                                .map_err(|message| EngineError::Resolver {
                                    policy: policy_name.clone(),
                                    message,
                                })?;
                        stats.conflicts_resolved += 1;
                        let mut newly: Vec<String> = Vec::new();
                        let mut newly_count: u64 = 0;
                        let mut progressed = false;
                        for g in c.losing_side(resolution) {
                            if blocked.insert(g.clone()) {
                                progressed = true;
                                newly_count += 1;
                                if tracing {
                                    newly.push(g.display(&working));
                                }
                            }
                        }
                        if !progressed {
                            return Err(EngineError::NoProgress {
                                atom: working.vocab().display_fact(c.pred, &c.tuple),
                            });
                        }
                        if metered {
                            resolutions_meta.push((
                                working.vocab().display_fact(c.pred, &c.tuple),
                                resolution,
                                newly_count,
                            ));
                        }
                        if tracing {
                            trace.push(TraceEvent::ConflictResolved {
                                conflict: c.display(&working),
                                policy: policy_name.clone(),
                                resolution,
                                blocked: newly,
                            });
                        }
                    }
                    if let Some(s) = sink.as_mut() {
                        s.restart(&RestartEvent {
                            run,
                            step: step_in_run + 1,
                            scope: self.options.scope,
                            policy: &policy_name,
                            resolutions: &resolutions_meta,
                            deferred: deferred.len() as u64,
                        });
                        if let Some(r) = &replayer {
                            s.replay(&ReplayEvent {
                                run,
                                served: r.served(),
                                divergence_step: r.divergence_step(),
                            });
                        }
                    }
                    if tracing {
                        if let Some(r) = &replayer {
                            trace.push_note(replay_note(run, r));
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
        stats.blocked_instances = blocked.len() as u64;
        stats.elapsed = started.elapsed();
        let database = final_interp.incorp();
        if let Some(s) = sink.as_mut() {
            s.finish(&FinishEvent {
                program: &working,
                blocked: &blocked,
                stats: &stats,
                requested_threads,
                effective_threads,
                options: &self.options,
                policy: &policy_name,
                database: &database,
                storage: StorageCounters::now().delta_since(storage_at_start),
            });
        }
        Ok(ParkOutcome {
            database,
            interpretation: final_interp,
            blocked,
            program: working,
            stats,
            trace,
        })
    }
}

/// One live Γ step on the compiled bytecode, shared by the fixpoint loop's
/// live arm and its debug replay check: everything at a run's first step,
/// and only the `(prev_lens, now]` delta window after it, advancing
/// `prev_lens` to the current boundary. Returns the fired actions and the
/// number of evaluation tasks scheduled.
#[allow(clippy::too_many_arguments)]
fn eval_step(
    lowered: &LoweredProgram,
    blocked: &BlockedSet,
    interp: &IInterpretation,
    step_in_run: u64,
    prev_lens: &mut ZoneLens,
    threads: Option<usize>,
    workers: usize,
    spans: Option<&mut Vec<TaskSpan>>,
) -> (Vec<FiredAction>, u64) {
    if step_in_run == 0 {
        return bytecode::fire_all_lowered_metered(
            lowered, blocked, interp, threads, workers, spans,
        );
    }
    let curr = ZoneLens::capture(interp);
    let fired = bytecode::fire_new_lowered_metered(
        lowered, blocked, interp, prev_lens, &curr, threads, workers, spans,
    );
    *prev_lens = curr;
    fired
}

/// The debug reference check of one live step: the definitional Γ
/// ([`crate::gamma::fire_all`]) runs on the same state and blocked set,
/// and every grounding it fires that this run has not fired yet (the
/// run's provenance holds the ones it has) must be in the compiled step,
/// while every compiled grounding must be one Γ fires too. Runs
/// sequentially and touches no counter, span, or state.
#[cfg(debug_assertions)]
fn check_against_gamma(
    program: &CompiledProgram,
    blocked: &BlockedSet,
    interp: &IInterpretation,
    provenance: &Provenance,
    fired: &[FiredAction],
    run: u64,
    step: u64,
) {
    use std::collections::HashSet;
    let reference = crate::gamma::fire_all(program, blocked, interp);
    let compiled: HashSet<_> = fired.iter().map(|f| &f.grounding).collect();
    if let Some(missed) = reference
        .iter()
        .find(|f| !compiled.contains(&f.grounding) && !provenance.has_fired(f))
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

/// Debug annotation describing what warm replay did for one run (goes to
/// the trace's note side channel, never the event stream).
fn replay_note(run: u64, r: &Replayer) -> String {
    match r.divergence_step() {
        Some(d) => format!(
            "run {run}: warm replay served {} steps, diverged at step {d}",
            r.served()
        ),
        None => format!("run {run}: warm replay served {} steps", r.served()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::Inertia;
    use park_syntax::parse_program;

    fn run(rules: &str, facts: &str) -> ParkOutcome {
        run_opts(rules, facts, EngineOptions::default())
    }

    fn run_opts(rules: &str, facts: &str, options: EngineOptions) -> ParkOutcome {
        let vocab = Vocabulary::new();
        let engine =
            Engine::with_options(Arc::clone(&vocab), &parse_program(rules).unwrap(), options)
                .unwrap();
        let db = FactStore::from_source(vocab, facts).unwrap();
        engine.park(&db, &mut Inertia).unwrap()
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
        let out = run_opts(
            "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.",
            "p.",
            EngineOptions::traced(),
        );
        let rendered = out.trace.render();
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
        // two-sided conflict; provenance supplies the historical +a side.
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
        // expected result, on the delta evaluator: sequential and 4-thread
        // runs must both give the result and byte-identical fingerprints.
        // (A debug build also checks each live step against naive Γ.)
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
            let seq = run_opts(rules, facts, EngineOptions::traced());
            assert_eq!(seq.database.sorted_display(), expected, "{rules}");
            let par = run_opts(
                rules,
                facts,
                EngineOptions::traced().with_parallelism(Some(4)),
            );
            assert_eq!(seq.fingerprint(), par.fingerprint(), "{rules}");
        }
    }

    #[test]
    fn seminaive_eca_examples_agree() {
        // Section 4.3's conflicting ECA example: both resolution scopes and
        // both thread counts commit the same database and blocked set (the
        // run has a single conflict, so `One` resolves exactly what `All`
        // does).
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
            for threads in [None, Some(4)] {
                let out = run(EngineOptions::default()
                    .with_scope(scope)
                    .with_parallelism(threads));
                assert!(reference.database.same_facts(&out.database));
                assert_eq!(reference.blocked_display(), out.blocked_display());
            }
        }
    }

    // The identity suites (parallel vs sequential, replaying restarts vs
    // the oracle's restart-from-D runs) live in
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
        let out = run_opts(
            "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.",
            "p.",
            EngineOptions::traced(),
        );
        assert_eq!(out.database.sorted_display(), vec!["a", "b", "p"]);
        assert_eq!(out.stats.restarts, 2);
        assert_eq!(out.stats.replayed_steps, 4);
        assert_eq!(out.stats.replay_divergence_step, Some(3));
        let notes = out.trace.notes();
        assert_eq!(notes.len(), 2, "{notes:?}");
        assert!(notes[0].contains("run 2"), "{notes:?}");
        assert!(notes[1].contains("run 3"), "{notes:?}");
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
        let out = run_opts(
            "p -> +q. p -> -q. p -> +a. p -> -a.",
            "p.",
            EngineOptions::traced().with_scope(ResolutionScope::One),
        );
        let first_inconsistent = out
            .trace
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
        let out = run_opts(
            "p -> +q. p -> -q. p -> +a. p -> -a.",
            "p.",
            EngineOptions::traced(),
        );
        for e in out.trace.events() {
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
        for threads in [None, Some(4)] {
            let vocab = Vocabulary::new();
            let engine = Engine::with_options(
                Arc::clone(&vocab),
                &parse_program("c -> +g. g -> +f. c -> -f. g -> -g.").unwrap(),
                EngineOptions::traced()
                    .with_scope(ResolutionScope::One)
                    .with_parallelism(threads),
            )
            .unwrap();
            let db = FactStore::from_source(vocab, "c.").unwrap();
            let out = engine.park(&db, &mut PreferInsert).unwrap();
            let resolved: Vec<(u64, Vec<String>, Vec<String>)> = out
                .trace
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
            let rendered = out.trace.render();
            assert!(rendered.contains("(f, "), "{rendered}");
        }
    }

    #[test]
    fn outcome_exposes_final_bistructure_parts() {
        let out = run("p -> +q. p -> -q.", "p.");
        assert!(out.interpretation.is_consistent());
        assert_eq!(out.blocked.len(), 1);
        assert_eq!(out.database.sorted_display(), vec!["p"]);
    }
}
