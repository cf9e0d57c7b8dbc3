//! Run observability: a zero-cost-when-disabled event sink threaded
//! through the evaluation loop.
//!
//! The paper's tractability argument (§6) is stated in counters — Γ
//! applications, restarts, blocked groundings — but a single end-of-run
//! summary line cannot localize *where* a run spent its time. This module
//! defines the [`MetricsSink`] trait the fixpoint loop reports into:
//! per-Γ-step timings, firing and unit counts, per-restart causes (conflict
//! atom, scope, policy decision, newly blocked groundings), and per-run
//! replay savings. The sink is the loop's only observation channel: the
//! events lend out the interpretation, the step's new marks, the blocked
//! set and the resolved conflicts, so the paper-style step listing
//! ([`crate::trace::Trace`]) is one more sink. A caller that wants two
//! sinks passes the pair `(a, b)`; an `Option` of a sink is a sink that
//! may be absent.
//!
//! ## Overhead contract
//!
//! Metering is gated *once per run*, not per event: `Engine::run_with_metrics`
//! consults [`MetricsSink::enabled`] up front and, when it returns `false`
//! (the [`NoopMetrics`] sink), evaluates exactly as `Engine::run` does — no
//! `Instant::now` per step, no display-string rendering, no allocations.
//! The guard test `tests/metrics_alloc.rs` pins this down by counting
//! allocations. An enabled sink changes only what is recorded around each
//! step: the Γ step itself runs through the same sequential unit loop
//! (`crate::bytecode`) either way.
//!
//! ## The `park-metrics/v1` document
//!
//! [`JsonMetrics`] is the built-in sink: it accumulates every event and
//! renders a versioned JSON document (see `docs/metrics.md` for the schema).
//! Its [`JsonMetrics::totals`] are derived from the event stream alone,
//! independently of [`RunStats`] — the testkit cross-check asserts the two
//! bookkeeping paths agree exactly on every corpus case in both resolution
//! scopes.

use crate::compile::CompiledProgram;
use crate::conflict::{Conflict, Resolution};
use crate::gamma::FiredAction;
use crate::grounding::{BlockedSet, Grounding};
use crate::interp::IInterpretation;
use crate::options::{EngineOptions, ResolutionScope};
use crate::stats::{RunStats, StatCounters};
use park_json::Json;
use std::collections::BTreeMap;

/// How one Γ application ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Consistent; at least one new mark was added.
    Applied,
    /// Consistent and `Γ(I) = I`: the fixpoint ω was reached.
    Fixpoint,
    /// Inconsistent: the step's firings contained a conflict, triggering
    /// resolution and a restart (reported separately as a [`RestartEvent`]).
    Conflict,
}

impl StepOutcome {
    fn as_str(self) -> &'static str {
        match self {
            StepOutcome::Applied => "applied",
            StepOutcome::Fixpoint => "fixpoint",
            StepOutcome::Conflict => "conflict",
        }
    }
}

/// One Γ application (consistent or not), reported after conflict detection.
#[derive(Debug)]
pub struct StepEvent<'a> {
    /// 1-based run number (`restarts + 1` at the time of the step).
    pub run: u64,
    /// 1-based step number within the run.
    pub step: u64,
    /// Every action fired this step (after blocked-set filtering).
    pub fired: &'a [FiredAction],
    /// The step was served from the warm-restart replay log.
    pub replayed: bool,
    /// Evaluation units run (0 for replayed steps).
    pub tasks: u64,
    /// Wall-clock nanoseconds for the step's evaluation + conflict check.
    pub nanos: u64,
    /// How the step ended.
    pub outcome: StepOutcome,
    /// Marked atoms held after the step (pre-step count for conflict steps,
    /// which add no marks).
    pub marked: usize,
    /// `I` after the step (before it, for a conflict step).
    pub interp: &'a IInterpretation,
    /// Indices into `fired` of the actions that added a new mark, in
    /// firing order (empty for a conflict step).
    pub new_marks: &'a [usize],
    /// The blocked set `B` the step ran under.
    pub blocked: &'a BlockedSet,
    /// The program evaluated (`P_U`) — lets sinks render groundings.
    pub program: &'a CompiledProgram,
}

/// One conflict-resolution restart: the cause of run `run + 1`.
#[derive(Debug)]
pub struct RestartEvent<'a> {
    /// The run that hit the inconsistency.
    pub run: u64,
    /// The 1-based step at which Γ turned inconsistent.
    pub step: u64,
    /// The resolution scope in force.
    pub scope: ResolutionScope,
    /// The `SELECT` policy name.
    pub policy: &'a str,
    /// The program evaluated (`P_U`) — lets sinks render conflicts.
    pub program: &'a CompiledProgram,
    /// The conflicts handed to `SELECT`, in call order.
    pub selected: &'a [Conflict],
    /// Per selected conflict: the policy's decision and the end of the
    /// conflict's entries in `newly_blocked` (see [`RestartEvent::resolved`]).
    pub resolutions: &'a [(Resolution, usize)],
    /// Per selected conflict, concatenated: the indices into its losing
    /// side of the groundings its resolution newly blocked.
    pub newly_blocked: &'a [usize],
    /// Conflicts detected but deferred to a later restart
    /// (`ResolutionScope::One`).
    pub deferred: &'a [Conflict],
}

impl<'a> RestartEvent<'a> {
    /// Each selected conflict with the policy's decision and the groundings
    /// its resolution newly blocked, in `SELECT` call order.
    pub fn resolved(
        &self,
    ) -> impl Iterator<
        Item = (
            &'a Conflict,
            Resolution,
            impl ExactSizeIterator<Item = &'a Grounding>,
        ),
    > {
        let newly_blocked = self.newly_blocked;
        let mut start = 0;
        self.selected
            .iter()
            .zip(self.resolutions)
            .map(move |(c, &(resolution, end))| {
                let losing = c.losing_side(resolution);
                let newly = newly_blocked[start..end].iter().map(move |&i| &losing[i]);
                start = end;
                (c, resolution, newly)
            })
    }
}

/// Replay savings of one run that had a warm-restart log to draw from.
#[derive(Debug, Clone, Copy)]
pub struct ReplayEvent {
    /// The run the replayer served.
    pub run: u64,
    /// Steps served from the log instead of evaluated live.
    pub served: u64,
    /// The 1-based step at which the replay diverged from its log, if any.
    pub divergence_step: Option<u64>,
}

/// A reading of the storage layer's process-wide counters: copy-on-write
/// shard clones ([`park_storage::cow_shard_clones`]) and checkpoint
/// captures / shard reuses (`park_storage::snapshot`).
///
/// The atomics are monotonic and shared by every database in the process,
/// so one absolute reading says nothing about one run — the engine samples
/// them when evaluation starts and reports the **delta** in
/// [`FinishEvent::storage`]. Like `elapsed`, these are execution-path
/// bookkeeping, not semantics: they are deliberately **not** part of
/// [`StatCounters`] and never enter the totals cross-check. (Under a
/// multi-threaded test harness the deltas can also include concurrent
/// runs' increments, which is another reason they stay out.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageCounters {
    /// Relation shards cloned by copy-on-write mutation (`Arc::make_mut`
    /// found the shard shared and had to copy it).
    pub cow_shard_clones: u64,
    /// `Checkpoint::capture` calls.
    pub snapshot_captures: u64,
    /// Shards shared by reference (not copied) across capture/restore.
    pub snapshot_shard_reuses: u64,
}

impl StorageCounters {
    /// Read the current process-wide values.
    pub fn now() -> StorageCounters {
        StorageCounters {
            cow_shard_clones: park_storage::cow_shard_clones(),
            snapshot_captures: park_storage::snapshot_captures(),
            snapshot_shard_reuses: park_storage::snapshot_shard_reuses(),
        }
    }

    /// The counter increments since `earlier` (saturating, so a swapped
    /// argument order degrades to zeros rather than nonsense).
    pub fn delta_since(self, earlier: StorageCounters) -> StorageCounters {
        StorageCounters {
            cow_shard_clones: self
                .cow_shard_clones
                .saturating_sub(earlier.cow_shard_clones),
            snapshot_captures: self
                .snapshot_captures
                .saturating_sub(earlier.snapshot_captures),
            snapshot_shard_reuses: self
                .snapshot_shard_reuses
                .saturating_sub(earlier.snapshot_shard_reuses),
        }
    }
}

/// End-of-evaluation summary, reported exactly once per successful run.
#[derive(Debug)]
pub struct FinishEvent<'a> {
    /// The program evaluated (`P_U` when updates were supplied) — lets
    /// sinks resolve rule ids to display names.
    pub program: &'a CompiledProgram,
    /// The final blocked set `B`.
    pub blocked: &'a BlockedSet,
    /// The engine's own counters (the cross-check target).
    pub stats: &'a RunStats,
    /// The options the engine ran under.
    pub options: &'a EngineOptions,
    /// The `SELECT` policy name.
    pub policy: &'a str,
    /// The incorporated final database — lets sinks report fact count,
    /// encoded size, and bytes/fact.
    pub database: &'a park_storage::FactStore,
    /// Storage-layer counter increments over this evaluation (see
    /// [`StorageCounters`]).
    pub storage: StorageCounters,
}

/// A consumer of evaluation events.
///
/// All methods default to no-ops; a sink overrides what it cares about.
/// [`enabled`](MetricsSink::enabled) is consulted once, before evaluation
/// starts — when it returns `false` the engine skips all event construction
/// and timing, so a disabled sink costs nothing at all.
pub trait MetricsSink {
    /// Whether the engine should meter this run. Defaults to `true`.
    fn enabled(&self) -> bool {
        true
    }
    /// One Γ application (consistent or conflicting).
    fn step(&mut self, _ev: &StepEvent<'_>) {}
    /// One conflict-resolution restart.
    fn restart(&mut self, _ev: &RestartEvent<'_>) {}
    /// Replay savings of one run (runs after a restart only).
    fn replay(&mut self, _ev: &ReplayEvent) {}
    /// End of a successful evaluation.
    fn finish(&mut self, _ev: &FinishEvent<'_>) {}
}

/// The disabled sink: [`MetricsSink::enabled`] returns `false`, so the
/// engine takes the unmetered path — byte-for-byte the same work as
/// `Engine::run` without a sink.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopMetrics;

impl MetricsSink for NoopMetrics {
    fn enabled(&self) -> bool {
        false
    }
}

/// A sink that may be absent: `None` is disabled.
impl<S: MetricsSink> MetricsSink for Option<S> {
    fn enabled(&self) -> bool {
        self.as_ref().is_some_and(S::enabled)
    }
    fn step(&mut self, ev: &StepEvent<'_>) {
        if let Some(s) = self {
            s.step(ev);
        }
    }
    fn restart(&mut self, ev: &RestartEvent<'_>) {
        if let Some(s) = self {
            s.restart(ev);
        }
    }
    fn replay(&mut self, ev: &ReplayEvent) {
        if let Some(s) = self {
            s.replay(ev);
        }
    }
    fn finish(&mut self, ev: &FinishEvent<'_>) {
        if let Some(s) = self {
            s.finish(ev);
        }
    }
}

/// Two sinks fed from one run (a trace and a metrics document, say):
/// enabled when either is, and every event goes to both in order.
impl<A: MetricsSink, B: MetricsSink> MetricsSink for (A, B) {
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }
    fn step(&mut self, ev: &StepEvent<'_>) {
        self.0.step(ev);
        self.1.step(ev);
    }
    fn restart(&mut self, ev: &RestartEvent<'_>) {
        self.0.restart(ev);
        self.1.restart(ev);
    }
    fn replay(&mut self, ev: &ReplayEvent) {
        self.0.replay(ev);
        self.1.replay(ev);
    }
    fn finish(&mut self, ev: &FinishEvent<'_>) {
        self.0.finish(ev);
        self.1.finish(ev);
    }
}

#[derive(Debug)]
struct StepRecord {
    run: u64,
    step: u64,
    replayed: bool,
    fired: u64,
    tasks: u64,
    nanos: u64,
    outcome: StepOutcome,
    marked: usize,
}

#[derive(Debug)]
struct RestartRecord {
    run: u64,
    step: u64,
    scope: &'static str,
    policy: String,
    deferred: u64,
    resolutions: Vec<(String, Resolution, u64)>,
}

#[derive(Debug)]
struct FinishRecord {
    policy: String,
    scope: &'static str,
    elapsed_ns: u64,
    facts: u64,
    encoded_bytes: u64,
    vocab_symbols: u64,
    vocab_predicates: u64,
    vocab_int_spills: u64,
    storage: StorageCounters,
    rules: Vec<(String, u64, u64)>,
    blocked: Vec<String>,
}

/// The built-in JSON sink: accumulates the full event stream and renders a
/// `park-metrics/v1` document (see `docs/metrics.md`).
#[derive(Debug, Default)]
pub struct JsonMetrics {
    source: String,
    steps: Vec<StepRecord>,
    restarts: Vec<RestartRecord>,
    replays: Vec<ReplayEvent>,
    rule_fired: BTreeMap<u32, u64>,
    finish: Option<FinishRecord>,
}

fn scope_str(scope: ResolutionScope) -> &'static str {
    match scope {
        ResolutionScope::All => "all",
        ResolutionScope::One => "one",
    }
}

impl JsonMetrics {
    /// A fresh sink; `source` labels the document (`"run"`, `"bench"`, …).
    pub fn new(source: &str) -> Self {
        JsonMetrics {
            source: source.to_string(),
            ..JsonMetrics::default()
        }
    }

    /// Per-rule firing tallies observed from step events, keyed by
    /// `RuleId` index. Rules that never fired have no entry — which is
    /// exactly what the testkit's unreachable-rule cross-check asserts for
    /// rules the static analysis flags.
    pub fn fired_by_rule(&self) -> &BTreeMap<u32, u64> {
        &self.rule_fired
    }

    /// Totals derived from the recorded event stream alone — the engine's
    /// [`RunStats::counters`] must agree with these exactly.
    pub fn totals(&self) -> StatCounters {
        let mut t = StatCounters::default();
        for s in &self.steps {
            if s.outcome != StepOutcome::Conflict {
                t.gamma_steps += 1;
            }
            t.groundings_fired += s.fired;
            t.eval_tasks += s.tasks;
            t.replayed_steps += u64::from(s.replayed);
            if s.outcome != StepOutcome::Conflict {
                t.peak_marked_atoms = t.peak_marked_atoms.max(s.marked);
            }
        }
        for r in &self.restarts {
            t.restarts += 1;
            t.conflicts_resolved += r.resolutions.len() as u64;
            t.blocked_instances += r.resolutions.iter().map(|(_, _, n)| n).sum::<u64>();
        }
        for r in &self.replays {
            if r.divergence_step.is_some() {
                t.replay_divergence_step = r.divergence_step;
            }
        }
        t
    }

    /// Render the accumulated events as a `park-metrics/v1` document.
    pub fn to_json(&self) -> Json {
        let opt_step = |v: Option<u64>| match v {
            Some(d) => Json::from(d),
            None => Json::Null,
        };
        let totals = self.totals();
        let totals_json = Json::object([
            ("gamma_steps", Json::from(totals.gamma_steps)),
            ("restarts", Json::from(totals.restarts)),
            ("conflicts_resolved", Json::from(totals.conflicts_resolved)),
            ("groundings_fired", Json::from(totals.groundings_fired)),
            ("blocked_instances", Json::from(totals.blocked_instances)),
            ("eval_tasks", Json::from(totals.eval_tasks)),
            ("replayed_steps", Json::from(totals.replayed_steps)),
            (
                "replay_divergence_step",
                opt_step(totals.replay_divergence_step),
            ),
            ("peak_marked_atoms", Json::from(totals.peak_marked_atoms)),
            (
                "elapsed_ns",
                Json::from(self.finish.as_ref().map_or(0, |f| f.elapsed_ns)),
            ),
        ]);
        let steps = Json::Array(
            self.steps
                .iter()
                .map(|s| {
                    Json::object([
                        ("run", Json::from(s.run)),
                        ("step", Json::from(s.step)),
                        ("outcome", Json::str(s.outcome.as_str())),
                        ("replayed", Json::from(s.replayed)),
                        ("fired", Json::from(s.fired)),
                        ("tasks", Json::from(s.tasks)),
                        ("marked", Json::from(s.marked)),
                        ("nanos", Json::from(s.nanos)),
                    ])
                })
                .collect(),
        );
        let restarts = Json::Array(
            self.restarts
                .iter()
                .map(|r| {
                    Json::object([
                        ("run", Json::from(r.run)),
                        ("step", Json::from(r.step)),
                        ("scope", Json::str(r.scope)),
                        ("policy", Json::str(r.policy.as_str())),
                        ("deferred", Json::from(r.deferred)),
                        (
                            "resolutions",
                            Json::Array(
                                r.resolutions
                                    .iter()
                                    .map(|(atom, resolution, newly)| {
                                        Json::object([
                                            ("atom", Json::str(atom.as_str())),
                                            ("resolution", Json::str(resolution.as_str())),
                                            ("newly_blocked", Json::from(*newly)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let replays = Json::Array(
            self.replays
                .iter()
                .map(|r| {
                    Json::object([
                        ("run", Json::from(r.run)),
                        ("served", Json::from(r.served)),
                        ("divergence_step", opt_step(r.divergence_step)),
                    ])
                })
                .collect(),
        );

        let mut members: Vec<(String, Json)> = vec![
            ("schema".into(), Json::str("park-metrics/v1")),
            ("source".into(), Json::str(self.source.as_str())),
        ];
        if let Some(f) = &self.finish {
            members.push(("policy".into(), Json::str(f.policy.as_str())));
            members.push((
                "options".into(),
                Json::object([("scope", Json::str(f.scope))]),
            ));
            // Storage-layer footprint and COW/snapshot accounting. Like
            // `elapsed_ns`, none of this enters `totals` — it describes the
            // execution path, not the semantics.
            let bytes_per_fact = if f.facts > 0 {
                Json::Float(f.encoded_bytes as f64 / f.facts as f64)
            } else {
                Json::Null
            };
            members.push((
                "storage".into(),
                Json::object([
                    ("facts", Json::from(f.facts)),
                    ("encoded_bytes", Json::from(f.encoded_bytes)),
                    ("bytes_per_fact", bytes_per_fact),
                    ("vocab_symbols", Json::from(f.vocab_symbols)),
                    ("vocab_predicates", Json::from(f.vocab_predicates)),
                    ("vocab_int_spills", Json::from(f.vocab_int_spills)),
                    ("cow_shard_clones", Json::from(f.storage.cow_shard_clones)),
                    ("snapshot_captures", Json::from(f.storage.snapshot_captures)),
                    (
                        "snapshot_shard_reuses",
                        Json::from(f.storage.snapshot_shard_reuses),
                    ),
                ]),
            ));
        }
        members.push(("totals".into(), totals_json));
        if let Some(f) = &self.finish {
            members.push((
                "rules".into(),
                Json::Array(
                    f.rules
                        .iter()
                        .map(|(name, fired, blocked)| {
                            Json::object([
                                ("rule", Json::str(name.as_str())),
                                ("fired", Json::from(*fired)),
                                ("blocked", Json::from(*blocked)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        members.push(("steps".into(), steps));
        members.push(("restarts".into(), restarts));
        members.push(("replays".into(), replays));
        if let Some(f) = &self.finish {
            members.push((
                "blocked".into(),
                Json::Array(f.blocked.iter().map(|b| Json::str(b.as_str())).collect()),
            ));
        }
        Json::Object(members)
    }
}

impl MetricsSink for JsonMetrics {
    fn step(&mut self, ev: &StepEvent<'_>) {
        for f in ev.fired {
            *self.rule_fired.entry(f.grounding.rule.0).or_insert(0) += 1;
        }
        self.steps.push(StepRecord {
            run: ev.run,
            step: ev.step,
            replayed: ev.replayed,
            fired: ev.fired.len() as u64,
            tasks: ev.tasks,
            nanos: ev.nanos,
            outcome: ev.outcome,
            marked: ev.marked,
        });
    }

    fn restart(&mut self, ev: &RestartEvent<'_>) {
        let vocab = ev.program.vocab();
        self.restarts.push(RestartRecord {
            run: ev.run,
            step: ev.step,
            scope: scope_str(ev.scope),
            policy: ev.policy.to_string(),
            deferred: ev.deferred.len() as u64,
            resolutions: ev
                .resolved()
                .map(|(c, resolution, newly)| {
                    (
                        vocab.display_fact(c.pred, &c.tuple),
                        resolution,
                        newly.len() as u64,
                    )
                })
                .collect(),
        });
    }

    fn replay(&mut self, ev: &ReplayEvent) {
        self.replays.push(*ev);
    }

    fn finish(&mut self, ev: &FinishEvent<'_>) {
        let mut rule_blocked: BTreeMap<u32, u64> = BTreeMap::new();
        for g in ev.blocked.iter() {
            *rule_blocked.entry(g.rule.0).or_insert(0) += 1;
        }
        let mut ids: Vec<u32> = self.rule_fired.keys().copied().collect();
        ids.extend(rule_blocked.keys().copied());
        ids.sort_unstable();
        ids.dedup();
        let rules = ids
            .into_iter()
            .map(|id| {
                let name = ev.program.rule(crate::compile::RuleId(id)).display_name();
                (
                    name,
                    self.rule_fired.get(&id).copied().unwrap_or(0),
                    rule_blocked.get(&id).copied().unwrap_or(0),
                )
            })
            .collect();
        self.finish = Some(FinishRecord {
            policy: ev.policy.to_string(),
            scope: scope_str(ev.options.scope),
            elapsed_ns: u64::try_from(ev.stats.elapsed.as_nanos()).unwrap_or(u64::MAX),
            facts: ev.database.len() as u64,
            encoded_bytes: ev.database.encoded_bytes() as u64,
            // Vocabulary sizes are absolute (the intern tables are
            // append-only and shared by program + state), so a long-lived
            // process can watch them grow — see docs/storage.md on the
            // vocabulary lifetime contract.
            vocab_symbols: ev.database.vocab().sym_count() as u64,
            vocab_predicates: ev.database.vocab().pred_count() as u64,
            vocab_int_spills: ev.database.vocab().spill_count() as u64,
            storage: ev.storage,
            rules,
            blocked: ev.blocked.display(ev.program),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::Inertia;
    use crate::fixpoint::Engine;
    use crate::trace::Trace;
    use park_storage::{FactStore, Vocabulary};
    use std::sync::Arc;

    fn run_into(
        rules: &str,
        facts: &str,
        options: EngineOptions,
        sink: &mut dyn MetricsSink,
    ) -> StatCounters {
        let vocab = Vocabulary::new();
        let engine = Engine::with_options(
            Arc::clone(&vocab),
            &park_syntax::parse_program(rules).unwrap(),
            options,
        )
        .unwrap();
        let db = FactStore::from_source(vocab, facts).unwrap();
        let out = engine.park_with_metrics(&db, &mut Inertia, sink).unwrap();
        out.stats.counters()
    }

    fn metered(rules: &str, facts: &str, options: EngineOptions) -> (JsonMetrics, StatCounters) {
        let mut sink = JsonMetrics::new("test");
        let counters = run_into(rules, facts, options, &mut sink);
        (sink, counters)
    }

    #[test]
    fn totals_agree_with_run_stats_on_the_section5_example() {
        let (sink, counters) = metered(
            "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.",
            "p.",
            EngineOptions::default(),
        );
        assert_eq!(sink.totals(), counters);
        assert_eq!(sink.totals().restarts, 2);
        // A cold delta run whose restart replays a logged prefix: both
        // bookkeeping paths must count the replayed steps and the units the
        // same way.
        let (sink, counters) = metered(
            "e(X, Y) -> +r(X, Y). r(X, Y), e(Y, Z) -> +r(X, Z). r(X, X) -> -r(X, X).",
            "e(a, b). e(b, c). e(c, a).",
            EngineOptions::default(),
        );
        assert_eq!(sink.totals(), counters);
        assert!(counters.restarts > 0 && counters.replayed_steps > 0);
    }

    #[test]
    fn document_is_versioned_and_carries_rules_and_restart_causes() {
        let (sink, _) = metered("p -> +q. p -> -q.", "p.", EngineOptions::default());
        let doc = sink.to_json();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("park-metrics/v1")
        );
        let restarts = doc.get("restarts").and_then(Json::as_array).unwrap();
        assert_eq!(restarts.len(), 1);
        let resolutions = restarts[0]
            .get("resolutions")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(resolutions[0].get("atom").and_then(Json::as_str), Some("q"));
        let rules = doc.get("rules").and_then(Json::as_array).unwrap();
        assert!(!rules.is_empty());
        // Round-trips through the parser.
        let reparsed = park_json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(
            reparsed.get("schema").and_then(Json::as_str),
            Some("park-metrics/v1")
        );
    }

    #[test]
    fn replay_savings_are_recorded_on_warm_runs() {
        let (sink, counters) = metered(
            "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.",
            "p.",
            EngineOptions::default(),
        );
        assert_eq!(counters.replayed_steps, 4);
        assert_eq!(sink.totals().replayed_steps, 4);
        assert_eq!(sink.totals().replay_divergence_step, Some(3));
        assert_eq!(sink.replays.len(), 2);
    }

    #[test]
    fn document_reports_storage_footprint() {
        let (sink, _) = metered("p -> +q. q -> +r.", "p.", EngineOptions::default());
        let doc = sink.to_json();
        let storage = doc.get("storage").expect("storage section");
        // Final database: p, q, r — three nullary facts, zero encoded
        // payload bytes (arity 0), so bytes_per_fact is 0.0.
        assert_eq!(storage.get("facts").and_then(Json::as_i64), Some(3));
        assert_eq!(storage.get("encoded_bytes").and_then(Json::as_i64), Some(0));
        // Vocabulary sizes: no constant symbols (all facts nullary), three
        // predicates p/q/r, no big-integer spills.
        assert_eq!(storage.get("vocab_symbols").and_then(Json::as_i64), Some(0));
        assert_eq!(
            storage.get("vocab_predicates").and_then(Json::as_i64),
            Some(3)
        );
        assert_eq!(
            storage.get("vocab_int_spills").and_then(Json::as_i64),
            Some(0)
        );
        assert!(storage
            .get("cow_shard_clones")
            .and_then(Json::as_i64)
            .is_some());
        assert!(storage
            .get("snapshot_captures")
            .and_then(Json::as_i64)
            .is_some());
        assert!(storage
            .get("snapshot_shard_reuses")
            .and_then(Json::as_i64)
            .is_some());
    }

    #[test]
    fn storage_counter_deltas_saturate() {
        let a = StorageCounters {
            cow_shard_clones: 5,
            snapshot_captures: 2,
            snapshot_shard_reuses: 9,
        };
        let b = StorageCounters {
            cow_shard_clones: 7,
            snapshot_captures: 2,
            snapshot_shard_reuses: 12,
        };
        assert_eq!(
            b.delta_since(a),
            StorageCounters {
                cow_shard_clones: 2,
                snapshot_captures: 0,
                snapshot_shard_reuses: 3,
            }
        );
        // Swapped order degrades to zeros, not wrap-around.
        assert_eq!(a.delta_since(b), StorageCounters::default());
    }

    #[test]
    fn noop_sink_reports_disabled() {
        assert!(!NoopMetrics.enabled());
        assert!(JsonMetrics::new("x").enabled());
        assert!(!None::<JsonMetrics>.enabled());
        assert!(!(None::<Trace>, None::<JsonMetrics>).enabled());
        assert!((None::<Trace>, Some(JsonMetrics::new("x"))).enabled());
    }

    #[test]
    fn a_pair_sink_sees_what_each_sink_sees_alone() {
        for (rules, facts, scope) in [
            (
                "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.",
                "p.",
                ResolutionScope::All,
            ),
            (
                "p -> +q. p -> -q. p -> +a. p -> -a.",
                "p.",
                ResolutionScope::One,
            ),
            (
                "e(X, Y) -> +r(X, Y). r(X, Y), e(Y, Z) -> +r(X, Z). r(X, X) -> -r(X, X).",
                "e(a, b). e(b, c). e(c, a).",
                ResolutionScope::All,
            ),
        ] {
            let options = EngineOptions::default().with_scope(scope);
            let mut trace = Trace::new();
            run_into(rules, facts, options, &mut trace);
            let (metrics, _) = metered(rules, facts, options);
            let mut pair = (Trace::new(), JsonMetrics::new("test"));
            run_into(rules, facts, options, &mut pair);
            assert!(!trace.is_empty(), "{rules}");
            assert_eq!(pair.0, trace, "{rules}");
            assert_eq!(pair.1.totals(), metrics.totals(), "{rules}");
            assert_eq!(pair.1.restarts.len(), metrics.restarts.len(), "{rules}");
            for (a, b) in pair.1.restarts.iter().zip(&metrics.restarts) {
                assert_eq!(a.resolutions, b.resolutions, "{rules}");
            }
        }
    }
}
