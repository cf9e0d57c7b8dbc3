//! A transactional active database: the PARK semantics packaged the way
//! the paper's Section 3 envisions deployment — rules installed once,
//! transactions applied through them, one unambiguous state after each.
//!
//! [`ActiveDatabase`] owns the current state and a compiled rule program.
//! Every [`ActiveDatabase::transact`] call evaluates `PARK(D, P, U)` with
//! the chosen `SELECT` policy and *commits* the result as the new state,
//! returning a [`TransactionReport`] with the net changes.
//!
//! ```
//! use park::db::ActiveDatabase;
//! use park::prelude::*;
//!
//! let vocab = Vocabulary::new();
//! let program = parse_program(
//!     "onleave: -active(X) -> +offboard(X).
//!      offb:    offboard(X), payroll(X, S) -> -payroll(X, S).",
//! ).unwrap();
//! let initial = FactStore::from_source(
//!     vocab,
//!     "active(ann). payroll(ann, 50000).",
//! ).unwrap();
//!
//! let mut db = ActiveDatabase::open(&program, initial).unwrap();
//! let report = db.transact_source("-active(ann).", &mut Inertia).unwrap();
//! assert_eq!(report.added, vec!["offboard(ann)"]);
//! assert_eq!(db.state().to_string(), "{offboard(ann)}");
//! ```

use park_engine::{
    certify_incremental, ConflictResolver, Engine, EngineOptions, EngineResult, MetricsSink,
    NoopMetrics, ParkOutcome, RunStats, Trace, WarmState,
};
use park_storage::{FactStore, Snapshot, StorageError, UpdateSet, Vocabulary};
use park_syntax::{Program, Sign};
use std::sync::Arc;

/// The net effect of one committed transaction.
#[derive(Debug, Clone)]
pub struct TransactionReport {
    /// 1-based transaction number.
    pub number: u64,
    /// Facts present after but not before, rendered and sorted.
    pub added: Vec<String>,
    /// Facts present before but not after, rendered and sorted.
    pub removed: Vec<String>,
    /// Rule instances blocked by conflict resolution during evaluation.
    pub blocked: Vec<String>,
    /// Engine counters for the evaluation.
    pub stats: RunStats,
    /// The execution trace (empty unless the database was opened with
    /// `EngineOptions::trace`).
    pub trace: Trace,
}

impl TransactionReport {
    /// True if the transaction changed nothing.
    pub fn is_noop(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// A database instance with an installed active-rule program.
#[derive(Debug, Clone)]
pub struct ActiveDatabase {
    engine: Engine,
    state: FactStore,
    /// The installed program at the AST level, retained so
    /// [`ActiveDatabase::compact`] can re-compile it against a fresh
    /// vocabulary.
    program: Program,
    transactions: u64,
    journal: Option<std::path::PathBuf>,
    /// Cross-transaction incremental mode (see docs/incremental.md): keep a
    /// [`WarmState`] alive between transactions and answer certified
    /// update sets by delta propagation seeded from `U`.
    incremental: bool,
    /// Whether the installed program passes [`certify_incremental`]
    /// (recomputed on [`ActiveDatabase::reload`]).
    certified_incremental: bool,
    warm: Option<WarmState>,
    stats: IncrementalStats,
}

/// Counters for the incremental mode (all zero unless the database was
/// opened [`ActiveDatabase::with_incremental`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Transactions answered from the warm state (insert-only).
    pub incremental_txs: u64,
    /// Deletion-bearing transactions answered from the warm state: only the
    /// strata affected by the deleted predicates recomputed, everything
    /// else kept its marks (see docs/incremental.md §5).
    pub partial_stratum_txs: u64,
    /// Transactions that took the cold from-`D` path (uncertified program,
    /// a deletion conflicting with a derived fact, tracing or metrics
    /// requested, or no warm state).
    pub cold_txs: u64,
    /// Cold transactions forced by a deletion in `U` while the program
    /// itself was certified — the deletion collided with a derived fact (a
    /// genuine PARK conflict only the policy can resolve), so the partial
    /// stratum path had to bail.
    pub cold_txs_deletion: u64,
    /// Cold transactions forced by an uncertified program — structural:
    /// every transaction stays cold until the program is reloaded into the
    /// incrementality-safe fragment.
    pub cold_txs_uncertified: u64,
    /// Times a live warm state was dropped (`reload`, `compact`, `restore`,
    /// or an explicit [`ActiveDatabase::invalidate_warm`]).
    pub invalidations: u64,
}

impl ActiveDatabase {
    /// Install `program` over an initial state (the state's vocabulary is
    /// shared with the compiled program). Fails on unsafe rules or arity
    /// clashes between program and data.
    pub fn open(program: &Program, initial: FactStore) -> EngineResult<Self> {
        Self::open_with_options(program, initial, EngineOptions::default())
    }

    /// [`ActiveDatabase::open`] with explicit engine options.
    pub fn open_with_options(
        program: &Program,
        initial: FactStore,
        options: EngineOptions,
    ) -> EngineResult<Self> {
        let engine = Engine::with_options(Arc::clone(initial.vocab()), program, options)?;
        let certified_incremental = certify_incremental(engine.program());
        Ok(ActiveDatabase {
            engine,
            state: initial,
            program: program.clone(),
            transactions: 0,
            journal: None,
            incremental: false,
            certified_incremental,
            warm: None,
            stats: IncrementalStats::default(),
        })
    }

    /// Enable or disable cross-transaction incremental evaluation. With it
    /// on, insert-only transactions over a [`certify_incremental`]-certified
    /// program are answered from a live [`WarmState`]; everything else falls
    /// back to the ordinary cold run (which refreshes the warm state when it
    /// can). Committed results are byte-identical either way.
    pub fn with_incremental(mut self, incremental: bool) -> Self {
        self.incremental = incremental;
        if !incremental {
            self.warm = None;
        }
        self
    }

    /// Whether incremental mode is enabled.
    pub fn incremental(&self) -> bool {
        self.incremental
    }

    /// Whether the installed program is in the incrementality-safe fragment.
    pub fn certified_incremental(&self) -> bool {
        self.certified_incremental
    }

    /// Incremental-vs-cold counters (all zero outside incremental mode).
    pub fn incremental_stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Drop the live warm state, if any. The next transaction runs cold and
    /// reseeds it. Called by the serve layer when the session policy
    /// changes; `reload`, `compact`, and `restore` invalidate implicitly.
    pub fn invalidate_warm(&mut self) {
        if self.warm.take().is_some() {
            self.stats.invalidations += 1;
        }
    }

    /// Attach a journal file: every committed transaction's update set is
    /// appended as one line of `.updates` source (a blank line for
    /// [`ActiveDatabase::settle`]), so a database can be rebuilt with
    /// [`ActiveDatabase::replay`]. The file is created if absent and
    /// appended to if present.
    pub fn with_journal(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// Rebuild a database by replaying a journal produced by
    /// [`ActiveDatabase::with_journal`] against the same program, initial
    /// state, and (deterministic) policy. The replayed database does *not*
    /// keep journaling.
    ///
    /// Only newline-terminated lines are records. An unterminated final
    /// line is the torn tail of an append cut short by a crash — the
    /// transaction it belonged to never reported success — so it is
    /// dropped, whether or not it happens to parse. A malformed terminated
    /// line is an error.
    pub fn replay(
        program: &Program,
        initial: FactStore,
        journal: &std::path::Path,
        policy: &mut dyn ConflictResolver,
    ) -> EngineResult<Self> {
        let text = std::fs::read_to_string(journal).map_err(|e| {
            park_engine::EngineError::Storage(StorageError::Snapshot(format!(
                "cannot read journal {}: {e}",
                journal.display()
            )))
        })?;
        let mut db = ActiveDatabase::open(program, initial)?;
        for line in text.split_inclusive('\n') {
            let Some(record) = line.strip_suffix('\n') else {
                break;
            };
            db.transact_source(record.strip_suffix('\r').unwrap_or(record), policy)?;
        }
        Ok(db)
    }

    /// The shared vocabulary.
    pub fn vocab(&self) -> &Arc<Vocabulary> {
        self.state.vocab()
    }

    /// The current committed state.
    pub fn state(&self) -> &FactStore {
        &self.state
    }

    /// The compiled engine (e.g. for `park_engine::analysis`).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Number of committed transactions.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Evaluate `PARK(state, P, U)` under `policy` and commit the result.
    ///
    /// On error (policy failure, limit breach) the state is left
    /// unchanged — transactions are all-or-nothing.
    pub fn transact(
        &mut self,
        updates: &UpdateSet,
        policy: &mut dyn ConflictResolver,
    ) -> EngineResult<TransactionReport> {
        self.transact_with_metrics(updates, policy, &mut NoopMetrics)
    }

    /// [`ActiveDatabase::transact`] with evaluation events reported into
    /// `sink` (see `park_engine::metrics`). A disabled sink takes exactly
    /// the unmetered path.
    pub fn transact_with_metrics(
        &mut self,
        updates: &UpdateSet,
        policy: &mut dyn ConflictResolver,
        sink: &mut dyn MetricsSink,
    ) -> EngineResult<TransactionReport> {
        if self.incremental {
            return self.transact_incremental(updates, policy, sink);
        }
        let outcome = self
            .engine
            .run_with_metrics(&self.state, updates, policy, sink)?;
        self.append_journal(updates)?;
        Ok(self.commit(outcome))
    }

    /// The incremental-mode transaction path: answer from the warm state
    /// when the run is certified warm-equivalent, otherwise run cold and
    /// reseed the warm state from the cold outcome. Deletion-bearing
    /// update sets stay warm too — the warm path recomputes only the
    /// affected strata — unless the deletion provokes a genuine conflict,
    /// in which case the poisoned warm state is dropped and the
    /// transaction re-runs cold under the policy.
    fn transact_incremental(
        &mut self,
        updates: &UpdateSet,
        policy: &mut dyn ConflictResolver,
        sink: &mut dyn MetricsSink,
    ) -> EngineResult<TransactionReport> {
        let warm_eligible =
            self.certified_incremental && !self.engine.options().trace && !sink.enabled();
        if warm_eligible && self.warm.is_some() {
            let attempt = self
                .warm
                .as_mut()
                .and_then(|warm| warm.transact(self.engine.program(), updates));
            match attempt {
                Some(report) => {
                    if let Err(e) = self.append_journal(updates) {
                        // The warm state already holds the transaction the
                        // journal refused: drop it, so the committed state
                        // stays the single source of truth.
                        self.warm = None;
                        return Err(e);
                    }
                    let warm = self.warm.as_ref().expect("warm state survives success");
                    if !report.added.is_empty() || !report.removed.is_empty() {
                        // COW: the relation shards stay shared with the warm
                        // base zone until one side mutates.
                        self.state = warm.state().clone();
                    }
                    self.transactions += 1;
                    if updates.iter().any(|u| u.sign == Sign::Delete) {
                        self.stats.partial_stratum_txs += 1;
                    } else {
                        self.stats.incremental_txs += 1;
                    }
                    let vocab = self.state.vocab();
                    let render = |xs: &[(park_storage::PredId, park_storage::Tuple)]| {
                        xs.iter().map(|(p, t)| vocab.display_fact(*p, t)).collect()
                    };
                    return Ok(TransactionReport {
                        number: self.transactions,
                        added: render(&report.added),
                        removed: render(&report.removed),
                        blocked: Vec::new(),
                        stats: report.stats,
                        trace: Trace::new(),
                    });
                }
                None => {
                    // The bail left the warm marks mid-seed; the cold run
                    // below reseeds a fresh state from its outcome.
                    self.warm = None;
                }
            }
        }
        let outcome = self
            .engine
            .run_with_metrics(&self.state, updates, policy, sink)?;
        self.append_journal(updates)?;
        self.warm = self
            .certified_incremental
            .then(|| WarmState::build(self.engine.program(), &outcome))
            .flatten();
        self.stats.cold_txs += 1;
        // Attribute the miss: an uncertified program dominates (nothing
        // about this transaction could have gone warm), then a conflicting
        // deletion in `U`; the remainder is warm-state seeding or
        // trace/metrics runs.
        if !self.certified_incremental {
            self.stats.cold_txs_uncertified += 1;
        } else if updates.iter().any(|u| u.sign == Sign::Delete) {
            self.stats.cold_txs_deletion += 1;
        }
        Ok(self.commit(outcome))
    }

    fn append_journal(&self, updates: &UpdateSet) -> EngineResult<()> {
        let Some(path) = &self.journal else {
            return Ok(());
        };
        use std::io::Write as _;
        // One `write_all` per record, newline included, then a data sync:
        // a crash leaves at most one unterminated tail, which `replay`
        // drops.
        let mut record = updates.display(self.vocab());
        record.push('\n');
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| {
                f.write_all(record.as_bytes())?;
                f.sync_data()
            })
            .map_err(|e| {
                park_engine::EngineError::Storage(StorageError::Snapshot(format!(
                    "cannot append journal {}: {e}",
                    path.display()
                )))
            })
    }

    /// Parse and apply a textual update set such as `"+q(b). -p(a)."`.
    pub fn transact_source(
        &mut self,
        updates: &str,
        policy: &mut dyn ConflictResolver,
    ) -> EngineResult<TransactionReport> {
        let updates = UpdateSet::from_source(self.vocab(), updates)
            .map_err(park_engine::EngineError::Storage)?;
        self.transact(&updates, policy)
    }

    /// Run the installed rules with no external updates (condition–action
    /// evaluation over the current state) and commit.
    pub fn settle(&mut self, policy: &mut dyn ConflictResolver) -> EngineResult<TransactionReport> {
        self.transact(&UpdateSet::empty(), policy)
    }

    fn commit(&mut self, outcome: ParkOutcome) -> TransactionReport {
        self.transactions += 1;
        let (added, removed) = self.state.diff(&outcome.database);
        let vocab = self.vocab();
        let render = |xs: &[(park_storage::PredId, park_storage::Tuple)]| -> Vec<String> {
            xs.iter().map(|(p, t)| vocab.display_fact(*p, t)).collect()
        };
        let report = TransactionReport {
            number: self.transactions,
            added: render(&added),
            removed: render(&removed),
            blocked: outcome.blocked_display(),
            stats: outcome.stats,
            trace: outcome.trace,
        };
        self.state = outcome.database;
        report
    }

    /// Evaluate a conjunctive query (e.g. `"?- emp(X), !active(X)."`)
    /// against the current state; rows are rendered `X = a, Y = 3`.
    pub fn query_rows(&self, query_src: &str) -> EngineResult<Vec<String>> {
        let q = park_engine::Query::parse(self.vocab(), query_src)?;
        let rows = q.run_on_database(&self.state);
        Ok(q.render_rows(&rows))
    }

    /// All facts of a predicate in the current state, rendered and sorted;
    /// empty for unknown predicates.
    pub fn query(&self, pred: &str) -> Vec<String> {
        let Some(p) = self.vocab().lookup_pred(pred) else {
            return Vec::new();
        };
        let Some(rel) = self.state.relation(p) else {
            return Vec::new();
        };
        let mut rows: Vec<String> = rel.rows().map(|t| self.vocab().display_row(p, t)).collect();
        rows.sort();
        rows
    }

    /// Snapshot the current state.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::of(&self.state)
    }

    /// Replace the current state from a snapshot (same vocabulary).
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<(), StorageError> {
        self.state = snapshot.restore(Arc::clone(self.vocab()))?;
        self.invalidate_warm();
        Ok(())
    }

    /// Replace the installed rule program, keeping the committed state,
    /// transaction counter, and journal.
    ///
    /// The state is re-interned into a **fresh vocabulary** along the way:
    /// intern tables are append-only (see docs/storage.md), so this is
    /// also the compaction point where constants reachable only from
    /// dropped rules, deleted facts, or past transaction sources are
    /// released. Fails (leaving the database unchanged) on unsafe rules or
    /// arity clashes between the new program and the live state.
    pub fn reload(&mut self, program: &Program) -> EngineResult<()> {
        let snapshot = Snapshot::of(&self.state);
        let vocab = Vocabulary::new();
        let engine = Engine::with_options(Arc::clone(&vocab), program, *self.engine.options())?;
        let state = snapshot
            .restore(vocab)
            .map_err(park_engine::EngineError::Storage)?;
        self.certified_incremental = certify_incremental(engine.program());
        self.engine = engine;
        self.state = state;
        self.program = program.clone();
        self.invalidate_warm();
        Ok(())
    }

    /// Re-intern the current program and live state into a fresh
    /// vocabulary, dropping constants no longer reachable from either.
    /// Returns the vocabulary stats before and after.
    pub fn compact(&mut self) -> EngineResult<(VocabStats, VocabStats)> {
        let before = self.vocab_stats();
        let program = self.program.clone();
        self.reload(&program)?;
        Ok((before, self.vocab_stats()))
    }

    /// The sizes of the shared vocabulary's intern tables.
    pub fn vocab_stats(&self) -> VocabStats {
        let vocab = self.vocab();
        VocabStats {
            symbols: vocab.sym_count(),
            predicates: vocab.pred_count(),
            int_spills: vocab.spill_count(),
        }
    }
}

/// Sizes of a vocabulary's append-only intern tables (see
/// [`ActiveDatabase::vocab_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VocabStats {
    /// Interned constant symbols.
    pub symbols: usize,
    /// Registered predicates.
    pub predicates: usize,
    /// Spilled big integers (|i| ≥ 2^30).
    pub int_spills: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use park_engine::Inertia;
    use park_syntax::parse_program;

    fn payroll_db() -> ActiveDatabase {
        let vocab = Vocabulary::new();
        let program = parse_program(
            "cleanup: emp(X), !active(X), payroll(X, S) -> -payroll(X, S).
             onleave: -active(X) -> +offboard(X).
             offb: offboard(X), payroll(X, S) -> -payroll(X, S).",
        )
        .unwrap();
        let initial = FactStore::from_source(
            vocab,
            "emp(a). emp(b). active(a). active(b). payroll(a, 10). payroll(b, 20).",
        )
        .unwrap();
        ActiveDatabase::open(&program, initial).unwrap()
    }

    #[test]
    fn transactions_commit_and_report_changes() {
        let mut db = payroll_db();
        let report = db.transact_source("-active(a).", &mut Inertia).unwrap();
        assert_eq!(report.number, 1);
        assert_eq!(report.added, vec!["offboard(a)"]);
        assert_eq!(report.removed, vec!["active(a)", "payroll(a, 10)"]);
        assert!(!report.is_noop());
        assert_eq!(db.transactions(), 1);
        assert_eq!(db.query("payroll"), vec!["payroll(b, 20)"]);
    }

    #[test]
    fn successive_transactions_chain() {
        let mut db = payroll_db();
        db.transact_source("-active(a).", &mut Inertia).unwrap();
        let report = db.transact_source("-active(b).", &mut Inertia).unwrap();
        assert_eq!(report.number, 2);
        assert!(report.removed.contains(&"payroll(b, 20)".to_string()));
        assert_eq!(db.query("payroll"), Vec::<String>::new());
        // offboard(a) survives from the first transaction.
        assert_eq!(db.query("offboard"), vec!["offboard(a)", "offboard(b)"]);
    }

    #[test]
    fn settle_runs_condition_action_rules() {
        let vocab = Vocabulary::new();
        let program =
            parse_program("emp(X), !active(X), payroll(X, S) -> -payroll(X, S).").unwrap();
        let initial = FactStore::from_source(vocab, "emp(a). payroll(a, 10).").unwrap();
        let mut db = ActiveDatabase::open(&program, initial).unwrap();
        let report = db.settle(&mut Inertia).unwrap();
        assert_eq!(report.removed, vec!["payroll(a, 10)"]);
        let report = db.settle(&mut Inertia).unwrap();
        assert!(report.is_noop());
    }

    #[test]
    fn failed_transactions_do_not_commit() {
        let vocab = Vocabulary::new();
        let program = parse_program("p -> +q. p -> -q.").unwrap();
        let initial = FactStore::from_source(vocab, "p.").unwrap();
        let mut db = ActiveDatabase::open(&program, initial).unwrap();
        // An interactive policy with no answers fails mid-evaluation.
        let mut dry = park_policies::Interactive::scripted([]);
        assert!(db.settle(&mut dry).is_err());
        assert_eq!(db.transactions(), 0);
        assert_eq!(db.state().to_string(), "{p}");
        // Recover with a real policy.
        assert!(db.settle(&mut Inertia).is_ok());
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut db = payroll_db();
        let snap = db.snapshot();
        db.transact_source("-active(a). -active(b).", &mut Inertia)
            .unwrap();
        assert_eq!(db.query("payroll"), Vec::<String>::new());
        db.restore(&snap).unwrap();
        assert_eq!(db.query("payroll").len(), 2);
    }

    #[test]
    fn journal_replay_reconstructs_state() {
        let dir = std::env::temp_dir().join(format!("park-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tx.journal");
        let _ = std::fs::remove_file(&path);

        let program = parse_program(
            "onleave: -active(X) -> +offboard(X).
             offb: offboard(X), payroll(X, S) -> -payroll(X, S).",
        )
        .unwrap();
        let initial_src = "active(a). active(b). payroll(a, 10). payroll(b, 20).";

        let vocab = Vocabulary::new();
        let initial = FactStore::from_source(vocab, initial_src).unwrap();
        let mut db = ActiveDatabase::open(&program, initial)
            .unwrap()
            .with_journal(&path);
        db.transact_source("-active(a).", &mut Inertia).unwrap();
        db.settle(&mut Inertia).unwrap();
        db.transact_source("-active(b). +active(c).", &mut Inertia)
            .unwrap();
        let final_state = db.state().sorted_display();

        // Replay against a fresh vocabulary and initial state.
        let vocab2 = Vocabulary::new();
        let initial2 = FactStore::from_source(vocab2, initial_src).unwrap();
        let replayed = ActiveDatabase::replay(&program, initial2, &path, &mut Inertia).unwrap();
        assert_eq!(replayed.state().sorted_display(), final_state);
        assert_eq!(replayed.transactions(), 3);
        let _ = std::fs::remove_file(&path);
    }

    /// Replay `journal` (raw bytes) for a two-rule reachability program
    /// over `e(a, b).`, returning the replayed state or the error.
    fn replay_bytes(name: &str, journal: &str) -> EngineResult<Vec<String>> {
        let dir = std::env::temp_dir().join(format!("park-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, journal).unwrap();
        let program = parse_program("e(X, Y) -> +r(X, Y).").unwrap();
        let initial = FactStore::from_source(Vocabulary::new(), "e(a, b).").unwrap();
        let replayed = ActiveDatabase::replay(&program, initial, &path, &mut Inertia);
        let _ = std::fs::remove_file(&path);
        replayed.map(|db| db.state().sorted_display())
    }

    #[test]
    fn replay_drops_an_unparsable_torn_tail() {
        let state = replay_bytes("unparsable.journal", "+e(b, c).\n+e(c, d").unwrap();
        assert_eq!(state, vec!["e(a, b)", "e(b, c)", "r(a, b)", "r(b, c)"]);
    }

    #[test]
    fn replay_drops_a_torn_tail_that_parses() {
        // `+e(c, d). +e(d, e).` cut after its first update: the prefix
        // parses, but the transaction never committed.
        let state = replay_bytes("parsable.journal", "+e(b, c).\n+e(c, d).").unwrap();
        assert_eq!(state, vec!["e(a, b)", "e(b, c)", "r(a, b)", "r(b, c)"]);
    }

    #[test]
    fn replay_rejects_a_malformed_terminated_line() {
        assert!(replay_bytes("malformed.journal", "+e(b, c\n+e(c, d).\n").is_err());
    }

    #[test]
    fn replay_missing_journal_is_an_error() {
        let program = parse_program("p -> +q.").unwrap();
        let initial = FactStore::new(Vocabulary::new());
        let missing = std::path::Path::new("/nonexistent/park.journal");
        assert!(ActiveDatabase::replay(&program, initial, missing, &mut Inertia).is_err());
    }

    #[test]
    fn reload_swaps_program_and_keeps_state() {
        let mut db = payroll_db();
        db.transact_source("-active(a).", &mut Inertia).unwrap();
        let state_before = db.state().sorted_display();
        // New program: offboarded employees get an archive marker instead.
        let program = parse_program("arch: offboard(X) -> +archived(X).").unwrap();
        db.reload(&program).unwrap();
        assert_eq!(db.state().sorted_display(), state_before);
        assert_eq!(db.transactions(), 1);
        let report = db.settle(&mut Inertia).unwrap();
        assert_eq!(report.number, 2);
        assert_eq!(report.added, vec!["archived(a)"]);
    }

    #[test]
    fn reload_failure_leaves_database_unchanged() {
        let mut db = payroll_db();
        // Arity clash with the live state: payroll is binary.
        let bad = parse_program("r: payroll(X) -> +p(X).").unwrap();
        let before = db.state().sorted_display();
        assert!(db.reload(&bad).is_err());
        assert_eq!(db.state().sorted_display(), before);
        assert!(db.settle(&mut Inertia).is_ok());
    }

    #[test]
    fn compact_reinterns_only_live_constants() {
        let vocab = Vocabulary::new();
        let program = parse_program("onx: -keep(X) -> +gone(X).").unwrap();
        let initial = FactStore::from_source(vocab, "keep(a).").unwrap();
        let mut db = ActiveDatabase::open(&program, initial).unwrap();
        // Churn: transaction sources intern constants that the state then
        // drops again; the spill table grows with a big integer.
        db.transact_source("+keep(b). -keep(b).", &mut Inertia)
            .unwrap();
        for name in ["s1", "s2", "s3"] {
            db.transact_source(&format!("+scratch({name})."), &mut Inertia)
                .unwrap();
            db.transact_source(&format!("-scratch({name})."), &mut Inertia)
                .unwrap();
        }
        db.transact_source("+n(1099511627776). -n(1099511627776).", &mut Inertia)
            .unwrap();
        let (before, after) = db.compact().unwrap();
        assert!(
            before.symbols > after.symbols,
            "compaction must shrink the symbol table: {before:?} -> {after:?}"
        );
        assert_eq!(before.int_spills, 1);
        assert_eq!(after.int_spills, 0);
        // gone(b) keeps b live even though keep(b) was deleted; the
        // scratch constants and the spilled integer are released.
        assert_eq!(after.symbols, 2);
        assert_eq!(db.query("gone"), vec!["gone(b)"]);
        assert_eq!(db.query("keep"), vec!["keep(a)"]);
        // The database still evaluates correctly after compaction.
        let report = db.transact_source("-keep(a).", &mut Inertia).unwrap();
        assert_eq!(report.added, vec!["gone(a)"]);
    }

    #[test]
    fn transact_with_metrics_reports_the_run() {
        use park_engine::JsonMetrics;
        let mut db = payroll_db();
        let mut sink = JsonMetrics::new("test");
        let report = db
            .transact_with_metrics(
                &UpdateSet::from_source(db.vocab(), "-active(a).").unwrap(),
                &mut Inertia,
                &mut sink,
            )
            .unwrap();
        assert_eq!(report.added, vec!["offboard(a)"]);
        let doc = sink.to_json();
        assert_eq!(
            doc.get("schema").and_then(|j| j.as_str()),
            Some("park-metrics/v1")
        );
        let storage = doc.get("storage").expect("storage section");
        assert!(
            storage
                .get("vocab_symbols")
                .and_then(|j| j.as_i64())
                .unwrap_or(0)
                > 0
        );
    }

    fn reachability_db(incremental: bool) -> ActiveDatabase {
        let vocab = Vocabulary::new();
        let program = parse_program("e(X, Y) -> +r(X, Y). r(X, Y), e(Y, Z) -> +r(X, Z).").unwrap();
        let initial = FactStore::from_source(vocab, "e(a, b). e(b, c).").unwrap();
        ActiveDatabase::open(&program, initial)
            .unwrap()
            .with_incremental(incremental)
    }

    #[test]
    fn incremental_mode_matches_cold_transaction_for_transaction() {
        let mut inc = reachability_db(true);
        let mut cold = reachability_db(false);
        assert!(inc.incremental() && inc.certified_incremental());
        for tx in [
            "",
            "+e(c, d).",
            "+e(d, a).",
            "",
            "+e(a, e). +e(e, f).",
            "+e(a, b).",
        ] {
            let ri = inc.transact_source(tx, &mut Inertia).unwrap();
            let rc = cold.transact_source(tx, &mut Inertia).unwrap();
            assert_eq!(ri.added, rc.added, "tx {tx:?}");
            assert_eq!(ri.removed, rc.removed, "tx {tx:?}");
            assert_eq!(ri.blocked, rc.blocked, "tx {tx:?}");
            assert_eq!(ri.stats.gamma_steps, rc.stats.gamma_steps, "tx {tx:?}");
            assert_eq!(ri.number, rc.number, "tx {tx:?}");
            assert!(inc.state().same_facts(cold.state()), "tx {tx:?}");
        }
        let stats = inc.incremental_stats();
        // The first transaction seeds the warm state cold; the rest reuse it.
        assert_eq!(stats.cold_txs, 1);
        assert_eq!(stats.incremental_txs, 5);
        assert_eq!(cold.incremental_stats(), IncrementalStats::default());
    }

    #[test]
    fn incremental_mode_falls_back_on_deletions_and_reseeds() {
        let mut inc = reachability_db(true);
        let mut cold = reachability_db(false);
        for tx in ["+e(c, d).", "-e(a, b). -r(a, b).", "+e(b, a).", "+e(a, b)."] {
            let ri = inc.transact_source(tx, &mut Inertia).unwrap();
            let rc = cold.transact_source(tx, &mut Inertia).unwrap();
            assert_eq!(ri.added, rc.added, "tx {tx:?}");
            assert_eq!(ri.removed, rc.removed, "tx {tx:?}");
            assert_eq!(ri.stats.gamma_steps, rc.stats.gamma_steps, "tx {tx:?}");
            assert!(inc.state().same_facts(cold.state()), "tx {tx:?}");
        }
        let stats = inc.incremental_stats();
        // tx1 seeds cold; tx2 deletes the *derived* r(a, b) — a genuine
        // conflict, so the warm attempt bails, the cold run resolves it,
        // and the blocked grounding keeps the outcome from reseeding; tx3
        // runs cold and reseeds; tx4 is warm.
        assert_eq!(stats.cold_txs, 3);
        assert_eq!(stats.incremental_txs, 1);
        assert_eq!(stats.partial_stratum_txs, 0);
        // Only tx2 is attributed to deletions; the seeding and reseeding
        // runs are cold for neither attributed reason.
        assert_eq!(stats.cold_txs_deletion, 1);
        assert_eq!(stats.cold_txs_uncertified, 0);
    }

    #[test]
    fn base_deletions_stay_warm_on_the_partial_stratum_path() {
        let mut inc = reachability_db(true);
        let mut cold = reachability_db(false);
        // Deletions of base `e` facts never collide with a derivation
        // (committed `r` facts persist on their own), so every deletion
        // after the seeding run stays warm as a partial-stratum replay.
        for tx in ["", "+e(c, d).", "-e(c, d).", "-e(zz, zz).", "+e(c, e)."] {
            let ri = inc.transact_source(tx, &mut Inertia).unwrap();
            let rc = cold.transact_source(tx, &mut Inertia).unwrap();
            assert_eq!(ri.added, rc.added, "tx {tx:?}");
            assert_eq!(ri.removed, rc.removed, "tx {tx:?}");
            assert_eq!(ri.blocked, rc.blocked, "tx {tx:?}");
            assert_eq!(ri.stats.gamma_steps, rc.stats.gamma_steps, "tx {tx:?}");
            assert!(inc.state().same_facts(cold.state()), "tx {tx:?}");
        }
        let stats = inc.incremental_stats();
        assert_eq!(stats.cold_txs, 1);
        assert_eq!(stats.incremental_txs, 2);
        assert_eq!(stats.partial_stratum_txs, 2);
        assert_eq!(stats.cold_txs_deletion, 0);
    }

    #[test]
    fn stratified_negation_runs_warm_with_deletions() {
        let vocab = Vocabulary::new();
        let program = parse_program("p(X), !q(X) -> +s(X). s(X), e(X, Y) -> +s(Y).").unwrap();
        let initial = FactStore::from_source(vocab, "p(a). p(b). q(b). e(a, c).").unwrap();
        let open = |inc: bool| {
            ActiveDatabase::open(&program, initial.clone())
                .unwrap()
                .with_incremental(inc)
        };
        let mut inc = open(true);
        let mut cold = open(false);
        assert!(inc.certified_incremental());
        for tx in ["", "+p(d).", "-p(zz).", "+q(e). +p(e).", "-e(a, c)."] {
            let ri = inc.transact_source(tx, &mut Inertia).unwrap();
            let rc = cold.transact_source(tx, &mut Inertia).unwrap();
            assert_eq!(ri.added, rc.added, "tx {tx:?}");
            assert_eq!(ri.removed, rc.removed, "tx {tx:?}");
            assert_eq!(ri.stats.gamma_steps, rc.stats.gamma_steps, "tx {tx:?}");
            assert!(inc.state().same_facts(cold.state()), "tx {tx:?}");
        }
        let stats = inc.incremental_stats();
        assert_eq!(stats.cold_txs, 1);
        assert_eq!(stats.incremental_txs, 2);
        assert_eq!(stats.partial_stratum_txs, 2);
    }

    #[test]
    fn uncertified_programs_stay_cold_under_incremental_mode() {
        let vocab = Vocabulary::new();
        // Recursion through negation: the certificate refuses it (stratified
        // negation, by contrast, certifies — see the stratified test above).
        let program = parse_program("move(X, Y), !win(Y) -> +win(X).").unwrap();
        let initial = FactStore::from_source(vocab, "move(a, b).").unwrap();
        let mut db = ActiveDatabase::open(&program, initial)
            .unwrap()
            .with_incremental(true);
        assert!(!db.certified_incremental());
        db.transact_source("+move(c, d).", &mut Inertia).unwrap();
        db.transact_source("+move(e, a).", &mut Inertia).unwrap();
        assert_eq!(db.query("win"), vec!["win(a)", "win(c)"]);
        let stats = db.incremental_stats();
        assert_eq!(stats.cold_txs, 2);
        assert_eq!(stats.incremental_txs, 0);
        assert_eq!(stats.cold_txs_uncertified, 2);
        assert_eq!(stats.cold_txs_deletion, 0);
    }

    #[test]
    fn reload_restore_and_invalidate_drop_the_warm_state() {
        let mut db = reachability_db(true);
        db.transact_source("+e(c, d).", &mut Inertia).unwrap();
        db.transact_source("+e(d, e).", &mut Inertia).unwrap();
        assert_eq!(db.incremental_stats().incremental_txs, 1);

        let snap = db.snapshot();
        db.restore(&snap).unwrap();
        assert_eq!(db.incremental_stats().invalidations, 1);
        // Next transaction reseeds cold, then warms again.
        db.transact_source("+e(e, f).", &mut Inertia).unwrap();
        db.transact_source("+e(f, g).", &mut Inertia).unwrap();
        assert_eq!(db.incremental_stats().cold_txs, 2);
        assert_eq!(db.incremental_stats().incremental_txs, 2);

        let program = db.program.clone();
        db.reload(&program).unwrap();
        assert_eq!(db.incremental_stats().invalidations, 2);
        assert!(db.certified_incremental());

        db.transact_source("+e(g, h).", &mut Inertia).unwrap();
        db.invalidate_warm();
        assert_eq!(db.incremental_stats().invalidations, 3);
        db.invalidate_warm(); // no live warm state: not an invalidation
        assert_eq!(db.incremental_stats().invalidations, 3);
    }

    #[test]
    fn incremental_mode_keeps_journaling_replayable() {
        let dir = std::env::temp_dir().join(format!("park-incjournal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inc.journal");
        let _ = std::fs::remove_file(&path);

        let mut db = reachability_db(true).with_journal(&path);
        db.transact_source("+e(c, d).", &mut Inertia).unwrap();
        db.transact_source("+e(d, a).", &mut Inertia).unwrap();
        db.settle(&mut Inertia).unwrap();
        assert!(db.incremental_stats().incremental_txs >= 2);
        let final_state = db.state().sorted_display();

        let vocab = Vocabulary::new();
        let program = parse_program("e(X, Y) -> +r(X, Y). r(X, Y), e(Y, Z) -> +r(X, Z).").unwrap();
        let initial = FactStore::from_source(vocab, "e(a, b). e(b, c).").unwrap();
        let replayed = ActiveDatabase::replay(&program, initial, &path, &mut Inertia).unwrap();
        assert_eq!(replayed.state().sorted_display(), final_state);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_skips_a_transaction_whose_warm_bail_fails_cold() {
        let dir = std::env::temp_dir().join(format!("park-bailjournal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bail.journal");
        let _ = std::fs::remove_file(&path);

        let mut db = reachability_db(true).with_journal(&path);
        db.transact_source("+e(c, d).", &mut Inertia).unwrap();
        db.transact_source("+e(d, e).", &mut Inertia).unwrap();
        assert_eq!(db.incremental_stats().incremental_txs, 1);
        // Deleting the derived r(a, b) bails the warm path; the cold run
        // then needs SELECT, which a dry interactive policy cannot answer.
        let mut dry = park_policies::Interactive::scripted([]);
        assert!(db.transact_source("-r(a, b).", &mut dry).is_err());
        assert_eq!(db.transactions(), 2);
        let final_state = db.state().sorted_display();

        let vocab = Vocabulary::new();
        let program = parse_program("e(X, Y) -> +r(X, Y). r(X, Y), e(Y, Z) -> +r(X, Z).").unwrap();
        let initial = FactStore::from_source(vocab, "e(a, b). e(b, c).").unwrap();
        let replayed = ActiveDatabase::replay(&program, initial, &path, &mut Inertia).unwrap();
        assert_eq!(replayed.state().sorted_display(), final_state);
        assert_eq!(replayed.transactions(), db.transactions());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn incremental_mode_with_metrics_or_trace_takes_the_cold_path() {
        use park_engine::JsonMetrics;
        let mut db = reachability_db(true);
        db.transact_source("+e(c, d).", &mut Inertia).unwrap();
        let mut sink = JsonMetrics::new("test");
        let u = UpdateSet::from_source(db.vocab(), "+e(d, e).").unwrap();
        db.transact_with_metrics(&u, &mut Inertia, &mut sink)
            .unwrap();
        // The metered transaction ran cold (events must be complete) but
        // still refreshed the warm state for the next one.
        assert_eq!(db.incremental_stats().cold_txs, 2);
        db.transact_source("+e(e, f).", &mut Inertia).unwrap();
        assert_eq!(db.incremental_stats().incremental_txs, 1);

        let vocab = Vocabulary::new();
        let program = parse_program("e(X, Y) -> +r(X, Y).").unwrap();
        let initial = FactStore::from_source(vocab, "e(a, b).").unwrap();
        let mut traced =
            ActiveDatabase::open_with_options(&program, initial, EngineOptions::traced())
                .unwrap()
                .with_incremental(true);
        traced.transact_source("+e(b, c).", &mut Inertia).unwrap();
        let r = traced.transact_source("+e(c, d).", &mut Inertia).unwrap();
        assert!(!r.trace.is_empty(), "traced runs must keep their trace");
        assert_eq!(traced.incremental_stats().incremental_txs, 0);
    }

    #[test]
    fn query_unknown_predicate_is_empty() {
        let db = payroll_db();
        assert!(db.query("nonexistent").is_empty());
    }

    #[test]
    fn conjunctive_queries_over_state() {
        let mut db = payroll_db();
        db.transact_source("-active(a).", &mut Inertia).unwrap();
        let rows = db.query_rows("?- emp(X), !active(X).").unwrap();
        assert_eq!(rows, vec!["X = a"]);
        let rows = db.query_rows("?- payroll(X, S), S >= 20.").unwrap();
        assert_eq!(rows, vec!["X = b, S = 20"]);
        assert!(db.query_rows("?- !active(X).").is_err());
    }

    #[test]
    fn conflicting_transaction_reports_blocked_instances() {
        let vocab = Vocabulary::new();
        let program = parse_program("r1: p(X) -> -s(X).").unwrap();
        let initial = FactStore::from_source(vocab, "p(b).").unwrap();
        let mut db = ActiveDatabase::open(&program, initial).unwrap();
        let report = db.transact_source("+s(b).", &mut Inertia).unwrap();
        // Inertia sides with the rule (s(b) ∉ D): the tx grounding blocks.
        assert_eq!(report.blocked, vec!["(tx1)"]);
        assert!(db.query("s").is_empty());
    }
}
