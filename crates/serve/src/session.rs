//! One hot database inside a serve session: an [`ActiveDatabase`] plus
//! the session policy, answering [`DbOp`]s with protocol frames.
//!
//! Determinism contract: every transaction constructs a **fresh** policy
//! from the session's policy name (or from the request's scripted
//! `answers`), so a stream of transactions served here is byte-identical
//! to the same transactions applied as chained one-shot `park run`
//! invocations — stateful policies like `priority` or `random:seed`
//! start from the same state each time in both worlds.

use crate::protocol::{self, frame, DbOp};
use park::db::{ActiveDatabase, TransactionReport, VocabStats};
use park::engine::{ConflictResolver, EngineOptions, JsonMetrics, NoopMetrics};
use park::policies::{by_name, parse_answer, Interactive, Resolution};
use park::storage::{FactStore, Snapshot, UpdateSet, Vocabulary};
use park::syntax::parse_program;
use park_json::Json;

/// Validate a session policy name. `interactive` is deliberately not a
/// session policy: a serve session has no tty to prompt, so conflict
/// answers travel **in** the protocol as a per-transaction `answers`
/// array instead (see docs/serve.md).
pub fn resolve_policy(name: &str) -> Result<(), String> {
    if name == "interactive" {
        return Err("policy `interactive` is not available in serve sessions; \
             pass per-transaction conflict answers instead, e.g. \
             {\"op\": \"transact\", ..., \"answers\": [\"i\", \"d\"]}"
            .into());
    }
    if by_name(name).is_none() {
        return Err(format!("unknown policy `{name}`"));
    }
    Ok(())
}

/// A named database held hot by the serve pipeline.
pub struct DbSession {
    name: String,
    db: ActiveDatabase,
    policy: String,
    traced: bool,
}

impl DbSession {
    /// Compile `program`, load `facts`, and open the database.
    pub fn open(
        name: &str,
        program_src: &str,
        facts_src: &str,
        policy: &str,
        options: EngineOptions,
        journal: Option<&str>,
        incremental: bool,
    ) -> Result<DbSession, String> {
        resolve_policy(policy)?;
        let program = parse_program(program_src).map_err(|e| format!("program: {e}"))?;
        let vocab = Vocabulary::new();
        let facts = FactStore::from_source(vocab, facts_src).map_err(|e| format!("facts: {e}"))?;
        let mut db = ActiveDatabase::open_with_options(&program, facts, options)
            .map_err(|e| e.to_string())?
            .with_incremental(incremental);
        if let Some(path) = journal {
            db = db.with_journal(path);
        }
        Ok(DbSession {
            name: name.into(),
            db,
            policy: policy.into(),
            traced: options.trace,
        })
    }

    /// The `created` frame for a successful open.
    pub fn created_frame(&self, seq: u64) -> String {
        frame(
            "created",
            seq,
            vec![
                ("db", Json::str(&self.name)),
                ("policy", Json::str(&self.policy)),
                ("facts", Json::Int(self.db.state().len() as i64)),
            ],
        )
    }

    /// Answer one operation. Returns the frame batch for `seq` and
    /// whether the database closed (the worker should exit).
    pub fn handle(&mut self, seq: u64, op: DbOp) -> (Vec<String>, bool) {
        let mut closed = false;
        let frames = match op {
            DbOp::Create { .. } => vec![self.error(seq, "database is already open")],
            DbOp::Transact {
                updates,
                answers,
                trace,
                metrics,
            } => self.transact(seq, &updates, answers, trace, metrics),
            DbOp::Query { query, pred } => {
                let rows = match (query, pred) {
                    (Some(q), _) => self.db.query_rows(&q).map_err(|e| e.to_string()),
                    (None, Some(p)) => Ok(self.db.query(&p)),
                    (None, None) => Err("missing query".into()),
                };
                match rows {
                    Ok(rows) => vec![frame(
                        "rows",
                        seq,
                        vec![
                            ("db", Json::str(&self.name)),
                            ("rows", protocol::str_array(&rows)),
                        ],
                    )],
                    Err(e) => vec![self.error(seq, &e)],
                }
            }
            DbOp::State => vec![frame(
                "state",
                seq,
                vec![
                    ("db", Json::str(&self.name)),
                    (
                        "facts",
                        protocol::str_array(&self.db.state().sorted_display()),
                    ),
                ],
            )],
            DbOp::Stats => {
                let mut fields = vec![
                    ("db", Json::str(&self.name)),
                    ("policy", Json::str(&self.policy)),
                    ("transactions", Json::Int(self.db.transactions() as i64)),
                    ("storage", self.storage_json()),
                ];
                // The incremental section appears only for incremental
                // databases, so existing sessions stay byte-identical.
                if self.db.incremental() {
                    let s = self.db.incremental_stats();
                    fields.push((
                        "incremental",
                        Json::object([
                            ("certified", Json::Bool(self.db.certified_incremental())),
                            ("incremental_txs", Json::Int(s.incremental_txs as i64)),
                            (
                                "partial_stratum_txs",
                                Json::Int(s.partial_stratum_txs as i64),
                            ),
                            ("cold_txs", Json::Int(s.cold_txs as i64)),
                            ("cold_txs_deletion", Json::Int(s.cold_txs_deletion as i64)),
                            (
                                "cold_txs_uncertified",
                                Json::Int(s.cold_txs_uncertified as i64),
                            ),
                            ("invalidations", Json::Int(s.invalidations as i64)),
                        ]),
                    ));
                }
                vec![frame("stats", seq, fields)]
            }
            DbOp::Reload { program } => match parse_program(&program)
                .map_err(|e| format!("program: {e}"))
                .and_then(|p| {
                    let before = self.db.vocab_stats();
                    self.db.reload(&p).map_err(|e| e.to_string())?;
                    Ok((p.rules.len(), before))
                }) {
                Ok((rules, before)) => vec![frame(
                    "reloaded",
                    seq,
                    vec![
                        ("db", Json::str(&self.name)),
                        ("rules", Json::Int(rules as i64)),
                        ("vocab_before", vocab_json(before)),
                        ("vocab_after", vocab_json(self.db.vocab_stats())),
                    ],
                )],
                Err(e) => vec![self.error(seq, &e)],
            },
            DbOp::Compact => match self.db.compact() {
                Ok((before, after)) => vec![frame(
                    "compacted",
                    seq,
                    vec![
                        ("db", Json::str(&self.name)),
                        ("vocab_before", vocab_json(before)),
                        ("vocab_after", vocab_json(after)),
                    ],
                )],
                Err(e) => vec![self.error(seq, &e.to_string())],
            },
            DbOp::Policy { policy } => match resolve_policy(&policy) {
                Ok(()) => {
                    self.policy = policy;
                    // A new policy may resolve future conflicts differently;
                    // the warm state (seeded under the old one) must not
                    // outlive it.
                    self.db.invalidate_warm();
                    vec![frame(
                        "ok",
                        seq,
                        vec![
                            ("db", Json::str(&self.name)),
                            ("policy", Json::str(&self.policy)),
                        ],
                    )]
                }
                Err(e) => vec![self.error(seq, &e)],
            },
            DbOp::Snapshot { path } => match self.write_snapshot(&path) {
                Ok(()) => vec![frame(
                    "snapshotted",
                    seq,
                    vec![
                        ("db", Json::str(&self.name)),
                        ("path", Json::str(&path)),
                        ("facts", Json::Int(self.db.state().len() as i64)),
                    ],
                )],
                Err(e) => vec![self.error(seq, &e)],
            },
            DbOp::Restore { path } => match std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read `{path}`: {e}"))
                .and_then(|text| Snapshot::from_json(&text).map_err(|e| e.to_string()))
                .and_then(|snap| self.db.restore(&snap).map_err(|e| e.to_string()))
            {
                Ok(()) => vec![frame(
                    "restored",
                    seq,
                    vec![
                        ("db", Json::str(&self.name)),
                        ("path", Json::str(&path)),
                        ("facts", Json::Int(self.db.state().len() as i64)),
                    ],
                )],
                Err(e) => vec![self.error(seq, &e)],
            },
            DbOp::Close { snapshot } => {
                closed = true;
                let mut fields = vec![
                    ("db", Json::str(&self.name)),
                    ("transactions", Json::Int(self.db.transactions() as i64)),
                    ("facts", Json::Int(self.db.state().len() as i64)),
                ];
                match snapshot {
                    Some(path) => match self.write_snapshot(&path) {
                        Ok(()) => {
                            fields.push(("snapshot", Json::str(&path)));
                            vec![frame("closed", seq, fields)]
                        }
                        // The close still happens; the lost snapshot is
                        // the caller's signal to re-open and retry.
                        Err(e) => vec![self.error(seq, &format!("{e} (database closed anyway)"))],
                    },
                    None => vec![frame("closed", seq, fields)],
                }
            }
        };
        (frames, closed)
    }

    /// The shutdown summary for the `bye` frame. With `snapshot_dir`,
    /// writes `<dir>/<name>.snapshot.json` first.
    pub fn summary(&self, snapshot_dir: Option<&str>) -> Json {
        let mut members = vec![
            ("db".to_string(), Json::str(&self.name)),
            (
                "transactions".to_string(),
                Json::Int(self.db.transactions() as i64),
            ),
            ("facts".to_string(), Json::Int(self.db.state().len() as i64)),
            ("vocab".to_string(), vocab_json(self.db.vocab_stats())),
        ];
        if let Some(dir) = snapshot_dir {
            let path = format!("{dir}/{}.snapshot.json", self.name);
            match self.write_snapshot(&path) {
                Ok(()) => members.push(("snapshot".to_string(), Json::str(&path))),
                Err(e) => members.push(("snapshot_error".to_string(), Json::str(e))),
            }
        }
        Json::Object(members)
    }

    fn transact(
        &mut self,
        seq: u64,
        updates: &str,
        answers: Option<Vec<String>>,
        trace: bool,
        metrics: bool,
    ) -> Vec<String> {
        if trace && !self.traced {
            return vec![self.error(
                seq,
                "tracing is not enabled for this database (create it with \"trace\": true)",
            )];
        }
        let updates = match UpdateSet::from_source(self.db.vocab(), updates) {
            Ok(u) => u,
            Err(e) => return vec![self.error(seq, &format!("updates: {e}"))],
        };
        // A fresh policy per transaction: served streams match chained
        // one-shot runs exactly (see the module docs).
        let mut scripted: Option<Interactive<_>> = None;
        let mut named: Option<Box<dyn ConflictResolver>> = None;
        let policy: &mut dyn ConflictResolver = match answers {
            Some(raw) => {
                let mut decisions: Vec<Resolution> = Vec::with_capacity(raw.len());
                for a in &raw {
                    match parse_answer(a) {
                        Some(r) => decisions.push(r),
                        None => {
                            return vec![self.error(
                                seq,
                                &format!("unrecognized answer `{a}` (want i[nsert] or d[elete])"),
                            )]
                        }
                    }
                }
                scripted.insert(Interactive::scripted(decisions))
            }
            None => &mut **named.insert(by_name(&self.policy).expect("validated at open")),
        };
        let mut sink = JsonMetrics::new("serve");
        let result = if metrics {
            self.db.transact_with_metrics(&updates, policy, &mut sink)
        } else {
            self.db
                .transact_with_metrics(&updates, policy, &mut NoopMetrics)
        };
        let report = match result {
            Ok(r) => r,
            Err(e) => return vec![self.error(seq, &e.to_string())],
        };
        let answers_unused = scripted.map(|p| p.oracle().remaining()).unwrap_or(0);

        let mut fields = vec![
            ("db", Json::str(&self.name)),
            ("tx", Json::Int(report.number as i64)),
            ("added", protocol::str_array(&report.added)),
            ("removed", protocol::str_array(&report.removed)),
            ("blocked", protocol::str_array(&report.blocked)),
            ("stats", stats_json(&report)),
            ("storage", self.storage_json()),
        ];
        if answers_unused > 0 {
            fields.push(("answers_unused", Json::Int(answers_unused as i64)));
        }
        let mut frames = vec![frame("delta", seq, fields)];
        if trace {
            let events = park_json::parse(&report.trace.to_json())
                .unwrap_or_else(|_| Json::Array(Vec::new()));
            frames.push(frame(
                "trace",
                seq,
                vec![
                    ("db", Json::str(&self.name)),
                    ("tx", Json::Int(report.number as i64)),
                    ("events", events),
                ],
            ));
        }
        if metrics {
            frames.push(frame(
                "metrics",
                seq,
                vec![
                    ("db", Json::str(&self.name)),
                    ("tx", Json::Int(report.number as i64)),
                    ("doc", sink.to_json()),
                ],
            ));
        }
        frames
    }

    fn write_snapshot(&self, path: &str) -> Result<(), String> {
        let text = self.db.snapshot().to_json().map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))
    }

    fn storage_json(&self) -> Json {
        let state = self.db.state();
        let vocab = self.db.vocab_stats();
        Json::object([
            ("facts", Json::Int(state.len() as i64)),
            ("encoded_bytes", Json::Int(state.encoded_bytes() as i64)),
            ("vocab_symbols", Json::Int(vocab.symbols as i64)),
            ("vocab_predicates", Json::Int(vocab.predicates as i64)),
            ("vocab_int_spills", Json::Int(vocab.int_spills as i64)),
        ])
    }

    fn error(&self, seq: u64, message: &str) -> String {
        protocol::error_frame(seq, Some(&self.name), message)
    }
}

fn vocab_json(v: VocabStats) -> Json {
    Json::object([
        ("symbols", Json::Int(v.symbols as i64)),
        ("predicates", Json::Int(v.predicates as i64)),
        ("int_spills", Json::Int(v.int_spills as i64)),
    ])
}

/// The deterministic slice of [`park::engine::RunStats`] for a delta
/// frame: identical across thread counts and hosts (scheduling counters
/// like `eval_tasks` and the replay counters stay out).
fn stats_json(report: &TransactionReport) -> Json {
    Json::object([
        ("gamma_steps", Json::Int(report.stats.gamma_steps as i64)),
        ("restarts", Json::Int(report.stats.restarts as i64)),
        (
            "conflicts_resolved",
            Json::Int(report.stats.conflicts_resolved as i64),
        ),
        (
            "blocked_instances",
            Json::Int(report.stats.blocked_instances as i64),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_payroll() -> DbSession {
        DbSession::open(
            "hr",
            "onleave: -active(X) -> +offboard(X).
             offb: offboard(X), payroll(X, S) -> -payroll(X, S).",
            "active(ann). payroll(ann, 50000).",
            "inertia",
            EngineOptions::default(),
            None,
            false,
        )
        .unwrap()
    }

    #[test]
    fn interactive_is_rejected_as_a_session_policy() {
        let err = resolve_policy("interactive").unwrap_err();
        assert!(err.contains("answers"), "{err}");
        assert!(resolve_policy("no-such-policy").is_err());
        assert!(resolve_policy("inertia").is_ok());
        assert!(resolve_policy("random:42").is_ok());
    }

    #[test]
    fn transact_emits_a_delta_with_storage_accounting() {
        let mut s = open_payroll();
        let (frames, closed) = s.handle(
            1,
            DbOp::Transact {
                updates: "-active(ann).".into(),
                answers: None,
                trace: false,
                metrics: false,
            },
        );
        assert!(!closed);
        assert_eq!(frames.len(), 1);
        let doc = park_json::parse(&frames[0]).unwrap();
        assert_eq!(doc.get("frame").and_then(|j| j.as_str()), Some("delta"));
        assert_eq!(doc.get("tx").and_then(|j| j.as_i64()), Some(1));
        assert_eq!(
            doc.get("added").and_then(|j| j.as_array()).map(|a| a.len()),
            Some(1)
        );
        let storage = doc.get("storage").expect("storage section");
        assert!(storage.get("vocab_symbols").and_then(|j| j.as_i64()) > Some(0));
        assert!(storage.get("facts").and_then(|j| j.as_i64()).is_some());
    }

    #[test]
    fn scripted_answers_resolve_conflicts_in_the_protocol() {
        let mut s = DbSession::open(
            "t",
            "r1: p -> +q. r2: p -> -q.",
            "p.",
            "inertia",
            EngineOptions::default(),
            None,
            false,
        )
        .unwrap();
        // Without answers, inertia resolves silently; with answers the
        // scripted oracle drives the choice. One conflict, answer insert.
        let (frames, _) = s.handle(
            1,
            DbOp::Transact {
                updates: String::new(),
                answers: Some(vec!["i".into()]),
                trace: false,
                metrics: false,
            },
        );
        let doc = park_json::parse(&frames[0]).unwrap();
        assert_eq!(doc.get("frame").and_then(|j| j.as_str()), Some("delta"));
        assert_eq!(
            doc.get("added").and_then(|j| j.as_array()).map(|a| a.len()),
            Some(1),
            "{}",
            frames[0]
        );
    }

    #[test]
    fn exhausted_answers_surface_the_conflict_prompt() {
        let mut s = DbSession::open(
            "t",
            "r1: p -> +q. r2: p -> -q.",
            "p.",
            "inertia",
            EngineOptions::default(),
            None,
            false,
        )
        .unwrap();
        let (frames, _) = s.handle(
            1,
            DbOp::Transact {
                updates: String::new(),
                answers: Some(vec![]),
                trace: false,
                metrics: false,
            },
        );
        let doc = park_json::parse(&frames[0]).unwrap();
        assert_eq!(doc.get("frame").and_then(|j| j.as_str()), Some("error"));
        let msg = doc.get("message").and_then(|j| j.as_str()).unwrap();
        assert!(msg.contains("no interactive answer"), "{msg}");
        // The failed transaction did not commit.
        let (frames, _) = s.handle(2, DbOp::Stats);
        let doc = park_json::parse(&frames[0]).unwrap();
        assert_eq!(doc.get("transactions").and_then(|j| j.as_i64()), Some(0));
    }

    #[test]
    fn surplus_answers_are_reported_not_swallowed() {
        let mut s = open_payroll();
        let (frames, _) = s.handle(
            1,
            DbOp::Transact {
                updates: "-active(ann).".into(),
                answers: Some(vec!["i".into(), "d".into()]),
                trace: false,
                metrics: false,
            },
        );
        let doc = park_json::parse(&frames[0]).unwrap();
        assert_eq!(doc.get("answers_unused").and_then(|j| j.as_i64()), Some(2));
    }

    #[test]
    fn trace_requires_a_traced_database() {
        let mut s = open_payroll();
        let (frames, _) = s.handle(
            1,
            DbOp::Transact {
                updates: "-active(ann).".into(),
                answers: None,
                trace: true,
                metrics: false,
            },
        );
        assert!(frames[0].contains("\"error\""), "{}", frames[0]);

        let mut traced = DbSession::open(
            "t",
            "onleave: -active(X) -> +offboard(X).",
            "active(ann).",
            "inertia",
            EngineOptions::traced(),
            None,
            false,
        )
        .unwrap();
        let (frames, _) = traced.handle(
            1,
            DbOp::Transact {
                updates: "-active(ann).".into(),
                answers: None,
                trace: true,
                metrics: true,
            },
        );
        assert_eq!(frames.len(), 3, "delta + trace + metrics");
        let trace = park_json::parse(&frames[1]).unwrap();
        assert_eq!(trace.get("frame").and_then(|j| j.as_str()), Some("trace"));
        assert!(!trace.get("events").unwrap().as_array().unwrap().is_empty());
        let metrics = park_json::parse(&frames[2]).unwrap();
        assert_eq!(
            metrics
                .get("doc")
                .and_then(|d| d.get("schema"))
                .and_then(|j| j.as_str()),
            Some("park-metrics/v1")
        );
    }

    #[test]
    fn reload_and_compact_report_vocab_movement() {
        let mut s = open_payroll();
        s.handle(
            1,
            DbOp::Transact {
                updates: "+scratch(tmp1). -scratch(tmp1).".into(),
                answers: None,
                trace: false,
                metrics: false,
            },
        );
        let (frames, _) = s.handle(
            2,
            DbOp::Reload {
                program: "q: offboard(X) -> +archived(X).".into(),
            },
        );
        let doc = park_json::parse(&frames[0]).unwrap();
        assert_eq!(doc.get("frame").and_then(|j| j.as_str()), Some("reloaded"));
        let before = doc
            .get("vocab_before")
            .unwrap()
            .get("symbols")
            .unwrap()
            .as_i64();
        let after = doc
            .get("vocab_after")
            .unwrap()
            .get("symbols")
            .unwrap()
            .as_i64();
        assert!(before > after, "reload compacts: {before:?} -> {after:?}");
        // A bad program leaves the session usable.
        let (frames, _) = s.handle(
            3,
            DbOp::Reload {
                program: "broken(".into(),
            },
        );
        assert!(frames[0].contains("\"error\""));
        let (frames, _) = s.handle(4, DbOp::Compact);
        assert!(frames[0].contains("\"compacted\""));
    }

    #[test]
    fn snapshot_restore_roundtrip_through_files() {
        let dir = std::env::temp_dir().join(format!("park-serve-session-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hr.snapshot.json").display().to_string();
        let mut s = open_payroll();
        let (frames, _) = s.handle(1, DbOp::Snapshot { path: path.clone() });
        assert!(frames[0].contains("\"snapshotted\""), "{}", frames[0]);
        s.handle(
            2,
            DbOp::Transact {
                updates: "-active(ann).".into(),
                answers: None,
                trace: false,
                metrics: false,
            },
        );
        let (frames, _) = s.handle(3, DbOp::Restore { path: path.clone() });
        assert!(frames[0].contains("\"restored\""), "{}", frames[0]);
        let (frames, _) = s.handle(
            4,
            DbOp::Query {
                query: None,
                pred: Some("payroll".into()),
            },
        );
        let doc = park_json::parse(&frames[0]).unwrap();
        assert_eq!(
            doc.get("rows").and_then(|j| j.as_array()).map(|a| a.len()),
            Some(1)
        );
        let _ = std::fs::remove_file(&path);
    }

    fn open_reach(incremental: bool) -> DbSession {
        DbSession::open(
            "g",
            "e(X, Y) -> +r(X, Y). r(X, Y), e(Y, Z) -> +r(X, Z).",
            "e(a, b).",
            "inertia",
            EngineOptions::default(),
            None,
            incremental,
        )
        .unwrap()
    }

    fn tx(updates: &str) -> DbOp {
        DbOp::Transact {
            updates: updates.into(),
            answers: None,
            trace: false,
            metrics: false,
        }
    }

    #[test]
    fn incremental_sessions_emit_byte_identical_deltas() {
        let mut warm = open_reach(true);
        let mut cold = open_reach(false);
        for (seq, updates) in ["+e(b, c).", "", "+e(c, a). +e(c, d).", "-e(a, b)."]
            .iter()
            .enumerate()
        {
            let (wf, _) = warm.handle(seq as u64 + 1, tx(updates));
            let (cf, _) = cold.handle(seq as u64 + 1, tx(updates));
            assert_eq!(wf, cf, "updates {updates:?}");
        }
    }

    #[test]
    fn stats_frame_reports_incremental_counters_only_when_enabled() {
        let mut s = open_reach(true);
        s.handle(1, tx("+e(b, c)."));
        s.handle(2, tx("+e(c, d)."));
        let (frames, _) = s.handle(3, DbOp::Stats);
        let doc = park_json::parse(&frames[0]).unwrap();
        let inc = doc.get("incremental").expect("incremental section");
        assert_eq!(inc.get("certified").and_then(|j| j.as_bool()), Some(true));
        assert_eq!(inc.get("cold_txs").and_then(|j| j.as_i64()), Some(1));
        assert_eq!(inc.get("incremental_txs").and_then(|j| j.as_i64()), Some(1));
        // The seeding transaction is cold for neither attributed reason.
        assert_eq!(
            inc.get("cold_txs_deletion").and_then(|j| j.as_i64()),
            Some(0)
        );
        assert_eq!(
            inc.get("cold_txs_uncertified").and_then(|j| j.as_i64()),
            Some(0)
        );

        // A base-fact deletion stays warm on the partial-stratum path…
        s.handle(4, tx("-e(b, c)."));
        // …while deleting a *derived* fact is a conflict: cold, attributed.
        s.handle(5, tx("-r(a, b)."));
        let (frames, _) = s.handle(6, DbOp::Stats);
        let doc = park_json::parse(&frames[0]).unwrap();
        let inc = doc.get("incremental").expect("incremental section");
        assert_eq!(
            inc.get("partial_stratum_txs").and_then(|j| j.as_i64()),
            Some(1)
        );
        assert_eq!(inc.get("cold_txs").and_then(|j| j.as_i64()), Some(2));
        assert_eq!(
            inc.get("cold_txs_deletion").and_then(|j| j.as_i64()),
            Some(1)
        );
        assert_eq!(
            inc.get("cold_txs_uncertified").and_then(|j| j.as_i64()),
            Some(0)
        );

        let mut off = open_reach(false);
        off.handle(1, tx("+e(b, c)."));
        let (frames, _) = off.handle(2, DbOp::Stats);
        let doc = park_json::parse(&frames[0]).unwrap();
        assert!(doc.get("incremental").is_none(), "{}", frames[0]);
    }

    #[test]
    fn policy_change_invalidates_the_warm_state() {
        let mut s = open_reach(true);
        s.handle(1, tx("+e(b, c).")); // seeds warm (cold)
        s.handle(2, tx("+e(c, d).")); // warm
        let (frames, _) = s.handle(
            3,
            DbOp::Policy {
                policy: "prefer-insert".into(),
            },
        );
        assert!(frames[0].contains("\"ok\""), "{}", frames[0]);
        s.handle(4, tx("+e(d, e).")); // reseeds cold under the new policy
        let (frames, _) = s.handle(5, DbOp::Stats);
        let doc = park_json::parse(&frames[0]).unwrap();
        let inc = doc.get("incremental").unwrap();
        assert_eq!(inc.get("invalidations").and_then(|j| j.as_i64()), Some(1));
        assert_eq!(inc.get("cold_txs").and_then(|j| j.as_i64()), Some(2));
    }

    #[test]
    fn close_reports_a_final_summary_and_ends_the_session() {
        let mut s = open_payroll();
        let (frames, closed) = s.handle(1, DbOp::Close { snapshot: None });
        assert!(closed);
        let doc = park_json::parse(&frames[0]).unwrap();
        assert_eq!(doc.get("frame").and_then(|j| j.as_str()), Some("closed"));
        assert_eq!(doc.get("facts").and_then(|j| j.as_i64()), Some(2));
    }
}
