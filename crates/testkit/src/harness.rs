//! The cross-mode conformance harness.
//!
//! [`check_case`] runs one [`Case`] through the real engine under every
//! configuration of the matrix — parallelism × resolution scope, under
//! several `SELECT` policies — and checks each run against the
//! paper-literal oracle (`crate::oracle`). [`run_fuzz`] drives that check
//! over a stream of generated cases and minimizes the first failure.
//!
//! ## One comparison regime
//!
//! The engine and the oracle both hand conflicts to `SELECT` in
//! rendered-atom order, so which conflict a `ResolutionScope::One` restart
//! resolves does not depend on how either enumerates groundings. Every
//! cell, in both scopes, is compared with the oracle:
//!
//! * **Ground programs** (the bulk of generation): every rule has at most
//!   one grounding, and the compiled evaluator emits new groundings in
//!   rule-id order — the order the oracle uses. These runs must match the
//!   oracle **byte for byte**: final database, blocked set, semantic
//!   counters, full trace event stream, and `SELECT` call sequence.
//! * **Variable programs**: the join planner visits groundings in its own
//!   order, so the order of `added` marks legitimately differs from the
//!   oracle's, but the *sets* per Γ step and per restart do not. These
//!   runs must match the oracle's **canonicalized** trace (sorted `added`
//!   lists and conflict batches — see `crate::compare::canonical`) and
//!   sorted transcript.
//!
//! Every engine run restarts by replaying its previous run's firing log;
//! the oracle restarts from `D` literally, so each oracle comparison is
//! also a replay-vs-restart comparison (and debug builds check every
//! replayed step against live evaluation inside the engine).
//!
//! Insert-only cases whose negated predicates are purely extensional are
//! additionally cross-checked against the independent
//! `park_baselines::stratified_datalog` model.

use crate::compare;
use crate::gen::Case;
use crate::oracle::{self, OracleVariant};
use park::db::ActiveDatabase;
use park_baselines::stratified_datalog;
use park_engine::refine::AnalysisVariant;
use park_engine::{
    CompiledLiteral, CompiledProgram, Engine, EngineOptions, JsonMetrics, LitKind, ParkOutcome,
    ResolutionScope, StatCounters,
};
use park_storage::{FactStore, PredId, UpdateSet, Vocabulary};
use park_syntax::Sign;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// The `SELECT` policies every case is checked under. Stateless by
/// construction — a precondition of the canonical (order-free) comparison
/// of variable programs.
pub const POLICIES: [&str; 3] = ["inertia", "prefer-insert", "prefer-delete"];

/// One cell of the engine's configuration matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Intra-step parallelism (`None` = sequential).
    pub parallelism: Option<usize>,
    /// Conflicts resolved per restart.
    pub scope: ResolutionScope,
}

impl EngineConfig {
    /// The full matrix: sequential/4 threads × all/one — 4 configurations.
    pub fn matrix() -> Vec<EngineConfig> {
        let mut out = Vec::with_capacity(4);
        for parallelism in [None, Some(4)] {
            for scope in [ResolutionScope::All, ResolutionScope::One] {
                out.push(EngineConfig { parallelism, scope });
            }
        }
        out
    }

    /// A short label for failure reports, e.g. `4-threads/one`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}",
            match self.parallelism {
                None => "seq".to_string(),
                Some(n) => format!("{n}-threads"),
            },
            match self.scope {
                ResolutionScope::All => "all",
                ResolutionScope::One => "one",
            },
        )
    }

    /// The engine options for this cell (tracing always on — the trace is
    /// part of the comparison surface).
    pub fn options(&self) -> EngineOptions {
        EngineOptions::traced()
            .with_scope(self.scope)
            .with_parallelism(self.parallelism)
    }
}

/// A conformance failure: one engine configuration disagreed with its
/// reference (oracle or baseline) on one case.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The seed of the offending case (0 for corpus cases).
    pub seed: u64,
    /// The `SELECT` policy in force.
    pub policy: String,
    /// The engine configuration label (or `frontend` / `stratified-baseline`).
    pub config: String,
    /// What differed, down to the first differing line.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed {}, policy {}, config {}: {}",
            self.seed, self.policy, self.config, self.detail
        )
    }
}

/// What a passing case exercised (aggregated into [`FuzzReport`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseStats {
    /// The program was propositional (byte-exact comparison regime).
    pub ground: bool,
    /// At least one conflict was detected and resolved.
    pub had_conflicts: bool,
    /// The case was also cross-checked against the stratified baseline.
    pub stratified_checked: bool,
    /// Transactions replayed by the update-sequence regime (0 for
    /// single-shot cases), counted once per transaction, not per policy.
    pub sequence_txs: u64,
    /// Sequence transactions the incremental [`ActiveDatabase`] answered
    /// from its warm state rather than the cold from-`D` path.
    pub warm_txs: u64,
    /// The warm subset that carried deletions and reused the affected
    /// strata (`partial_stratum_txs` in the database counters).
    pub partial_txs: u64,
    /// Deterministic engine counters summed over every matrix run of the
    /// case (all configurations × policies) — the raw material for
    /// aggregate metrics documents (`park fuzz --metrics`).
    pub counters: StatCounters,
}

/// One engine or oracle run, reduced to its comparable observables.
enum RunOutcome {
    /// Outcome plus rendered `SELECT` transcript.
    Done(Box<ParkOutcome>, Vec<String>),
    /// The run failed; errors must agree with the oracle's too.
    Failed(String),
}

impl RunOutcome {
    fn brief(&self) -> String {
        match self {
            RunOutcome::Done(..) => "completed".to_string(),
            RunOutcome::Failed(e) => format!("failed ({e})"),
        }
    }
}

/// Compare two runs; with `order_free`, traces are canonicalized and
/// transcripts sorted first (the variable-program regime).
fn diff_outcomes(
    label_a: &str,
    a: &RunOutcome,
    label_b: &str,
    b: &RunOutcome,
    order_free: bool,
) -> Option<String> {
    match (a, b) {
        (RunOutcome::Failed(x), RunOutcome::Failed(y)) => {
            (x != y).then(|| format!("{label_a} failed with `{x}`, {label_b} with `{y}`"))
        }
        (RunOutcome::Done(oa, ca), RunOutcome::Done(ob, cb)) => {
            if order_free {
                let sort = |calls: &[String]| {
                    let mut s = calls.to_vec();
                    s.sort();
                    s
                };
                compare::diff_runs(
                    label_a,
                    &compare::canonical(oa),
                    &sort(ca),
                    label_b,
                    &compare::canonical(ob),
                    &sort(cb),
                )
            } else {
                compare::diff_runs(label_a, oa, ca, label_b, ob, cb)
            }
        }
        _ => Some(format!(
            "{label_a} {}, but {label_b} {}",
            a.brief(),
            b.brief()
        )),
    }
}

/// Negation is extensional and the program insert-only: the fragment on
/// which PARK provably agrees with stratified datalog's perfect model.
fn insert_only_extensional(program: &CompiledProgram) -> bool {
    let heads: HashSet<PredId> = program.rules().iter().map(|r| r.head.pred).collect();
    program.rules().iter().all(|r| {
        r.head_sign == Sign::Insert
            && r.body.iter().all(|lit| match lit {
                CompiledLiteral::Atom {
                    kind: LitKind::Event(_),
                    ..
                } => false,
                CompiledLiteral::Atom {
                    kind: LitKind::Neg,
                    atom,
                } => !heads.contains(&atom.pred),
                _ => true,
            })
    })
}

/// Run `case` through the full matrix under every policy and check
/// every run against its reference. `variant` selects the oracle semantics
/// — [`OracleVariant::Faithful`] for real testing, a broken variant to
/// prove the harness detects semantic bugs.
pub fn check_case(case: &Case, variant: OracleVariant) -> Result<CaseStats, Divergence> {
    check_case_with(case, variant, AnalysisVariant::Faithful)
}

/// [`check_case`] with an explicit static-analysis variant for the lint
/// verdict cross-checks. `AnalysisVariant::Faithful` is the real analyzer;
/// the broken variants exist so tests can prove an unsound analysis change
/// is caught as a divergence rather than silently certifying programs.
pub fn check_case_with(
    case: &Case,
    variant: OracleVariant,
    lint_variant: AnalysisVariant,
) -> Result<CaseStats, Divergence> {
    check_case_parsed(case, None, variant, lint_variant)
}

/// [`check_case_with`] taking an optionally pre-parsed program, so callers
/// that already hold the AST — the minimizer assembles each shrink
/// candidate from rule ASTs parsed once up front — skip re-parsing the
/// rule text. `pre_parsed`, when given, must be the parse of
/// `case.program_source()`.
pub fn check_case_parsed(
    case: &Case,
    pre_parsed: Option<&park_syntax::Program>,
    variant: OracleVariant,
    lint_variant: AnalysisVariant,
) -> Result<CaseStats, Divergence> {
    let seed = case.seed;
    let front = |detail: String| Divergence {
        seed,
        policy: "-".into(),
        config: "frontend".into(),
        detail,
    };

    let vocab = Vocabulary::new();
    let parsed_here;
    let program = match pre_parsed {
        Some(p) => p,
        None => {
            parsed_here = park_syntax::parse_program(&case.program_source())
                .map_err(|e| front(format!("program does not parse: {e:?}")))?;
            &parsed_here
        }
    };
    park_syntax::check_program(program)
        .map_err(|e| front(format!("program does not check: {e:?}")))?;
    let db = FactStore::from_source(Arc::clone(&vocab), &case.facts_source())
        .map_err(|e| front(format!("facts do not load: {e:?}")))?;
    let compiled = CompiledProgram::compile(Arc::clone(&vocab), program)
        .map_err(|e| front(format!("program does not compile: {e}")))?;
    let ground = compiled.rules().iter().all(|r| r.num_vars == 0);

    // The static analyzer's verdicts on this program. Every claim is
    // cross-checked against observed runtime behaviour below: a certified
    // conflict-free program must never restart, a rule flagged unreachable
    // or never-firing must never fire, and deleting an always-blocked rule
    // must not change the result under its constant policy.
    let lint = park_lint::verdicts(&compiled, lint_variant);

    let matrix = EngineConfig::matrix();
    let mut engines = Vec::with_capacity(matrix.len());
    for cfg in matrix {
        let engine = Engine::with_options(Arc::clone(&vocab), program, cfg.options())
            .map_err(|e| front(format!("engine construction failed ({}): {e}", cfg.label())))?;
        engines.push((cfg, engine));
    }

    // Every engine run is metered through a `JsonMetrics` sink and its
    // event-derived totals cross-checked against the engine's own
    // `RunStats` counters — the two bookkeeping paths must agree exactly
    // in every cell of the matrix.
    // Per-rule firing counts summed over every matrix run — the witness
    // stream for the unreachable / never-fires lint cross-check.
    let fired_by_rule: RefCell<BTreeMap<u32, u64>> = RefCell::new(BTreeMap::new());
    let run_engine = |engine: &Engine, policy: &str| -> RunOutcome {
        let mut rec = compare::recording_policy(policy);
        let mut sink = JsonMetrics::new("testkit");
        match engine.park_with_metrics(&db, &mut rec, &mut sink) {
            Ok(out) => {
                let totals = sink.totals();
                let counters = out.stats.counters();
                if totals != counters {
                    return RunOutcome::Failed(format!(
                        "metrics totals diverged from RunStats: metrics {totals:?} vs stats {counters:?}"
                    ));
                }
                let mut acc = fired_by_rule.borrow_mut();
                for (&rule, &n) in sink.fired_by_rule() {
                    *acc.entry(rule).or_insert(0) += n;
                }
                RunOutcome::Done(Box::new(out), compare::transcript(rec.decisions()))
            }
            Err(e) => RunOutcome::Failed(e.to_string()),
        }
    };
    let run_oracle = |scope: ResolutionScope, policy: &str| -> RunOutcome {
        let mut p = park_policies::by_name(policy).expect("harness policies are known");
        match oracle::evaluate(&compiled, &db, scope, &mut p, variant) {
            Ok(r) => RunOutcome::Done(Box::new(r.outcome), r.decisions),
            Err(e) => RunOutcome::Failed(e.to_string()),
        }
    };

    let mut stats = CaseStats {
        ground,
        ..CaseStats::default()
    };
    for (pi, policy) in POLICIES.iter().enumerate() {
        let oracle_all = run_oracle(ResolutionScope::All, policy);
        let oracle_one = run_oracle(ResolutionScope::One, policy);
        // A conflict-free certificate is a hard promise: no run of a
        // certified program may detect (let alone resolve) a conflict under
        // any scope or policy. The oracle is the witness — it collects
        // conflicts on every step, whereas a certified engine run skips
        // the collection the certificate vouches for.
        if lint.certified_conflict_free {
            for (scope, res) in [("all", &oracle_all), ("one", &oracle_one)] {
                if let RunOutcome::Done(o, _) = res {
                    let c = o.stats.counters();
                    if c.restarts > 0 || c.conflicts_resolved > 0 {
                        return Err(Divergence {
                            seed,
                            policy: policy.to_string(),
                            config: "lint-certificate".into(),
                            detail: format!(
                                "program was certified conflict-free, but the {scope}-scope \
                                 oracle observed {} restart(s) and {} resolved conflict(s)",
                                c.restarts, c.conflicts_resolved
                            ),
                        });
                    }
                }
            }
        }

        if pi == 0 {
            if let RunOutcome::Done(o, _) = &oracle_all {
                stats.had_conflicts = o.stats.restarts > 0;
            }
            if insert_only_extensional(&compiled) {
                stats.stratified_checked = true;
                let diverged = |detail: String| Divergence {
                    seed,
                    policy: policy.to_string(),
                    config: "stratified-baseline".into(),
                    detail,
                };
                match (&oracle_all, stratified_datalog(&compiled, &db, 1 << 20)) {
                    (RunOutcome::Done(o, _), Ok(s)) => {
                        if let Some(d) = compare::diff_lines(
                            "park",
                            &o.database.sorted_display().join("\n"),
                            "stratified",
                            &s.database.sorted_display().join("\n"),
                        ) {
                            return Err(diverged(d));
                        }
                    }
                    (RunOutcome::Done(..), Err(e)) => {
                        return Err(diverged(format!(
                            "stratified baseline rejected an insert-only extensional case: {e}"
                        )));
                    }
                    (RunOutcome::Failed(e), _) => {
                        return Err(diverged(format!(
                            "oracle failed on a conflict-free insert-only case: {e}"
                        )));
                    }
                }
            }
        }

        let results: Vec<RunOutcome> = engines.iter().map(|(_, e)| run_engine(e, policy)).collect();
        for res in &results {
            if let RunOutcome::Done(o, _) = res {
                stats.counters.absorb(&o.stats.counters());
            }
        }
        for ((cfg, _), res) in engines.iter().zip(&results) {
            let oracle_ref = match cfg.scope {
                ResolutionScope::All => &oracle_all,
                ResolutionScope::One => &oracle_one,
            };
            if let Some(detail) = diff_outcomes("engine", res, "oracle", oracle_ref, !ground) {
                return Err(Divergence {
                    seed,
                    policy: policy.to_string(),
                    config: cfg.label(),
                    detail,
                });
            }
        }
    }

    // A rule flagged unreachable (its event is unproducible) or never-firing
    // (its body is unsatisfiable) must not have fired in any matrix run.
    let fired = fired_by_rule.into_inner();
    for (&rule, what) in lint
        .unreachable
        .iter()
        .map(|r| (r, "unreachable"))
        .chain(lint.never_fires.iter().map(|r| (r, "never-firing")))
    {
        let n = fired.get(&rule.0).copied().unwrap_or(0);
        if n > 0 {
            return Err(Divergence {
                seed,
                policy: "-".into(),
                config: "lint-unreachable".into(),
                detail: format!(
                    "rule `{}` was flagged {what} by the analyzer but fired {n} \
                     time(s) across the matrix",
                    compiled.rule(rule).display_name()
                ),
            });
        }
    }

    // An always-blocked verdict claims the rule cannot affect the result
    // under its constant policy: deleting it must leave the final database
    // unchanged. (The blocked set legitimately differs — the loser's
    // groundings are only *in* it while the rule exists.)
    for &(rule, policy) in &lint.always_blocked {
        let policy_name = policy.policy_name();
        let run_db = |p: &park_syntax::Program| -> Result<String, String> {
            let engine = Engine::with_options(Arc::clone(&vocab), p, EngineOptions::default())
                .map_err(|e| e.to_string())?;
            let mut select = park_policies::by_name(policy_name).expect("constant policy exists");
            engine
                .park(&db, select.as_mut())
                .map(|o| o.database.sorted_display().join("\n"))
                .map_err(|e| e.to_string())
        };
        let mut reduced = program.clone();
        reduced.rules.remove(rule.0 as usize);
        let blocked_diverged = |detail: String| Divergence {
            seed,
            policy: policy_name.to_string(),
            config: "lint-always-blocked".into(),
            detail: format!(
                "rule `{}` was flagged always-blocked under `{policy_name}`, but {detail}",
                compiled.rule(rule).display_name()
            ),
        };
        match (run_db(program), run_db(&reduced)) {
            (Ok(with), Ok(without)) => {
                if let Some(d) = compare::diff_lines("with-rule", &with, "without-rule", &without) {
                    return Err(blocked_diverged(format!(
                        "deleting it changed the result: {d}"
                    )));
                }
            }
            (Err(a), Err(b)) if a == b => {}
            (with, without) => {
                return Err(blocked_diverged(format!(
                    "the runs with and without it disagreed on failure: \
                     with `{with:?}`, without `{without:?}`"
                )));
            }
        }
    }

    if !case.txs.is_empty() {
        check_sequence(
            case, &vocab, program, &compiled, &engines, &db, ground, variant, &mut stats,
        )?;
    }

    Ok(stats)
}

/// The update-sequence regime: replay `case.txs` as a chain of committed
/// transactions and check, at every step, that (a) every matrix
/// configuration chained over its own committed states still satisfies the
/// single-shot comparison regime against the equally-chained oracle, and
/// (b) a transactional [`ActiveDatabase`] pair — incremental mode on vs
/// off — produces byte-identical [`park::db::TransactionReport`]s, equal
/// committed states, and a final database matching the oracle chain.
///
/// This is what makes cross-transaction incrementality a tested semantics
/// rather than a cache: the warm path may only ever be an optimization of
/// `PARK(D, P, U)` applied transaction by transaction.
#[allow(clippy::too_many_arguments)]
fn check_sequence(
    case: &Case,
    vocab: &Arc<Vocabulary>,
    program: &park_syntax::Program,
    compiled: &CompiledProgram,
    engines: &[(EngineConfig, Engine)],
    db: &FactStore,
    ground: bool,
    variant: OracleVariant,
    stats: &mut CaseStats,
) -> Result<(), Divergence> {
    let seed = case.seed;
    // Parse (and intern) every transaction once, up front.
    let mut txs = Vec::with_capacity(case.txs.len());
    for t in &case.txs {
        let u = UpdateSet::from_source(vocab, t).map_err(|e| Divergence {
            seed,
            policy: "-".into(),
            config: "frontend-txs".into(),
            detail: format!("transaction `{t}` does not parse: {e}"),
        })?;
        txs.push(u);
    }

    for policy in POLICIES {
        let fail = |config: String, detail: String| Divergence {
            seed,
            policy: policy.to_string(),
            config,
            detail,
        };
        // One chain state per configuration, two for the oracle scopes,
        // and the ActiveDatabase pair (which evaluates under the
        // paper-default All scope).
        let mut chains: Vec<FactStore> = engines.iter().map(|_| db.clone()).collect();
        let mut oracle_dbs = [db.clone(), db.clone()];
        let open = |inc: bool| {
            ActiveDatabase::open(program, db.clone())
                .map(|d| d.with_incremental(inc))
                .map_err(|e| fail("active-db".into(), format!("open failed: {e}")))
        };
        let (mut warm_db, mut cold_db) = (open(true)?, open(false)?);

        for (ti, u) in txs.iter().enumerate() {
            if policy == POLICIES[0] {
                stats.sequence_txs += 1;
            }
            let pu = compiled.with_updates(u);
            let run_oracle = |scope: ResolutionScope, chain_db: &FactStore| -> RunOutcome {
                let mut p = park_policies::by_name(policy).expect("harness policies are known");
                match oracle::evaluate(&pu, chain_db, scope, &mut p, variant) {
                    Ok(r) => RunOutcome::Done(Box::new(r.outcome), r.decisions),
                    Err(e) => RunOutcome::Failed(e.to_string()),
                }
            };
            let oracle_all = run_oracle(ResolutionScope::All, &oracle_dbs[0]);
            let oracle_one = run_oracle(ResolutionScope::One, &oracle_dbs[1]);

            let results: Vec<RunOutcome> = engines
                .iter()
                .zip(&chains)
                .map(|((_, engine), chain_db)| {
                    let mut rec = compare::recording_policy(policy);
                    let mut sink = JsonMetrics::new("testkit");
                    match engine.run_with_metrics(chain_db, u, &mut rec, &mut sink) {
                        Ok(out) => {
                            let totals = sink.totals();
                            let counters = out.stats.counters();
                            if totals != counters {
                                return RunOutcome::Failed(format!(
                                    "metrics totals diverged from RunStats: \
                                     metrics {totals:?} vs stats {counters:?}"
                                ));
                            }
                            RunOutcome::Done(Box::new(out), compare::transcript(rec.decisions()))
                        }
                        Err(e) => RunOutcome::Failed(e.to_string()),
                    }
                })
                .collect();

            for ((cfg, _), res) in engines.iter().zip(&results) {
                if let RunOutcome::Done(o, _) = res {
                    stats.counters.absorb(&o.stats.counters());
                }
                let oracle_ref = match cfg.scope {
                    ResolutionScope::All => &oracle_all,
                    ResolutionScope::One => &oracle_one,
                };
                if let Some(detail) = diff_outcomes("engine", res, "oracle", oracle_ref, !ground) {
                    return Err(fail(cfg.label(), format!("tx {ti}: {detail}")));
                }
            }

            // The transactional pair: the incremental database must be an
            // *unobservable* optimization of the cold one.
            let mut pw = park_policies::by_name(policy).expect("harness policies are known");
            let mut pc = park_policies::by_name(policy).expect("harness policies are known");
            let db_fail = |detail: String| fail("active-db".into(), format!("tx {ti}: {detail}"));
            match (
                warm_db.transact(u, pw.as_mut()),
                cold_db.transact(u, pc.as_mut()),
            ) {
                (Ok(rw), Ok(rc)) => {
                    let obs = |r: &park::db::TransactionReport| {
                        (
                            r.number,
                            r.added.clone(),
                            r.removed.clone(),
                            r.blocked.clone(),
                            r.stats.gamma_steps,
                            r.stats.restarts,
                            r.stats.conflicts_resolved,
                            r.stats.blocked_instances,
                        )
                    };
                    if obs(&rw) != obs(&rc) {
                        return Err(db_fail(format!(
                            "incremental and cold reports differ:\n  incremental {:?}\n  cold {:?}",
                            obs(&rw),
                            obs(&rc)
                        )));
                    }
                    if !warm_db.state().same_facts(cold_db.state()) {
                        return Err(db_fail(format!(
                            "committed states differ:\n  incremental {:?}\n  cold {:?}",
                            warm_db.state().sorted_display(),
                            cold_db.state().sorted_display()
                        )));
                    }
                    if let RunOutcome::Done(o, _) = &oracle_all {
                        if let Some(d) = compare::diff_lines(
                            "active-db",
                            &cold_db.state().sorted_display().join("\n"),
                            "oracle",
                            &o.database.sorted_display().join("\n"),
                        ) {
                            return Err(db_fail(d));
                        }
                    }
                }
                (Err(a), Err(b)) if a.to_string() == b.to_string() => {}
                (a, b) => {
                    return Err(db_fail(format!(
                        "incremental and cold transactions disagreed on failure: \
                         incremental {:?} vs cold {:?}",
                        a.map(|r| r.number),
                        b.map(|r| r.number)
                    )));
                }
            }

            // Advance the chains; if the oracle could not complete this
            // transaction (errors already checked to agree), stop here.
            match (&oracle_all, &oracle_one) {
                (RunOutcome::Done(oa, _), RunOutcome::Done(oo, _)) => {
                    oracle_dbs[0] = oa.database.clone();
                    oracle_dbs[1] = oo.database.clone();
                    for (chain_db, res) in chains.iter_mut().zip(&results) {
                        if let RunOutcome::Done(o, _) = res {
                            *chain_db = o.database.clone();
                        }
                    }
                }
                _ => break,
            }
        }
        let inc = warm_db.incremental_stats();
        stats.warm_txs += inc.incremental_txs + inc.partial_stratum_txs;
        stats.partial_txs += inc.partial_stratum_txs;
    }
    Ok(())
}

/// Aggregate statistics over a fuzzing run — reported so a "0 divergences"
/// result can be read together with what the cases actually exercised.
#[derive(Debug, Clone, Copy, Default)]
pub struct FuzzReport {
    /// Cases checked.
    pub cases: u64,
    /// Propositional cases (byte-exact regime).
    pub ground_cases: u64,
    /// Cases where at least one conflict was resolved.
    pub conflict_cases: u64,
    /// Cases also cross-checked against the stratified baseline.
    pub stratified_checks: u64,
    /// Cases that carried an update sequence (transaction-chain regime).
    pub sequence_cases: u64,
    /// Transactions replayed across all sequence cases.
    pub sequence_txs: u64,
    /// Sequence transactions the incremental database answered warm
    /// (summed over the per-policy replays).
    pub warm_txs: u64,
    /// The warm subset that carried deletions and replayed only the
    /// affected strata instead of falling back to a cold run.
    pub partial_txs: u64,
    /// Engine counters summed over every matrix run of every passing case.
    pub counters: StatCounters,
}

/// The first failing case of a fuzz run, with its greedy minimization.
#[derive(Debug)]
pub struct FuzzFailure {
    /// The generated case as produced.
    pub case: Case,
    /// The same failure, shrunk by `crate::minimize`.
    pub minimized: Case,
    /// The divergence the original case produced.
    pub divergence: Divergence,
}

/// Check `cases` generated cases starting at `seed` (case *i* uses seed
/// `seed + i`). Stops at the first divergence, minimizes it, and returns
/// it; `progress` is called after every passing case.
pub fn run_fuzz(
    seed: u64,
    cases: u64,
    variant: OracleVariant,
    progress: impl FnMut(u64, &FuzzReport),
) -> Result<FuzzReport, Box<FuzzFailure>> {
    run_fuzz_biased(
        seed,
        cases,
        variant,
        crate::gen::FuzzBias::Default,
        progress,
    )
}

/// [`run_fuzz`] with an explicit generator bias (`park fuzz --bias`).
pub fn run_fuzz_biased(
    seed: u64,
    cases: u64,
    variant: OracleVariant,
    bias: crate::gen::FuzzBias,
    mut progress: impl FnMut(u64, &FuzzReport),
) -> Result<FuzzReport, Box<FuzzFailure>> {
    let mut report = FuzzReport::default();
    for i in 0..cases {
        let case = crate::gen::generate_biased(seed.wrapping_add(i), bias);
        match check_case(&case, variant) {
            Ok(s) => {
                report.cases += 1;
                report.ground_cases += u64::from(s.ground);
                report.conflict_cases += u64::from(s.had_conflicts);
                report.stratified_checks += u64::from(s.stratified_checked);
                report.sequence_cases += u64::from(s.sequence_txs > 0);
                report.sequence_txs += s.sequence_txs;
                report.warm_txs += s.warm_txs;
                report.partial_txs += s.partial_txs;
                report.counters.absorb(&s.counters);
            }
            Err(divergence) => {
                let minimized = crate::minimize::minimize_parsed(&case, |c, p| {
                    check_case_parsed(c, p, variant, AnalysisVariant::Faithful).is_err()
                });
                return Err(Box::new(FuzzFailure {
                    case,
                    minimized,
                    divergence,
                }));
            }
        }
        progress(i + 1, &report);
    }
    Ok(report)
}
