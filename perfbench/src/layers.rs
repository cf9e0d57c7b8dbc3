//! The traced run: a session replayed through the layers' public
//! functions, one span per call, instead of through `serve()`.
//!
//! The replay renders the same frames the served session answered with,
//! so it doubles as the correctness reference for the timed run. Cold
//! tenants are driven through the engine directly (`Engine::run_with_metrics`
//! with a benchmark sink, then `FactStore::diff`); the incremental tenant
//! through `ActiveDatabase::transact` with no metrics sink, because a sink
//! forces the warm path to run cold.

use crate::gen::Tenant;
use crate::spans::Recorder;
use park::db::{ActiveDatabase, IncrementalStats};
use park::engine::{
    Conflict, ConflictResolver, Engine, MetricsSink, Query, Resolution, RestartEvent,
    SelectContext, StepEvent,
};
use park::policies::by_name;
use park::storage::{cow_shard_clones, FactStore, UpdateSet, Vocabulary};
use park::syntax::parse_program;
use park_json::Json;
use park_serve::protocol::{frame, parse_request, str_array, DbOp, Request};
use park_serve::ServeOptions;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// How a tenant's transactions are evaluated in the replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `Engine::run_with_metrics` + `FactStore::diff`, metered.
    Engine,
    /// `ActiveDatabase::transact` with the tenant's own incremental flag.
    Active,
    /// `ActiveDatabase::transact` with incremental evaluation off: the
    /// reference every warm delta must match.
    ActiveCold,
}

/// A `ConflictResolver` wrapper that counts and times `SELECT` calls.
struct TimedResolver {
    inner: Box<dyn ConflictResolver>,
    calls: u64,
    nanos: u64,
}

impl ConflictResolver for TimedResolver {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select(
        &mut self,
        ctx: &SelectContext<'_>,
        conflict: &Conflict,
    ) -> Result<Resolution, String> {
        let t = Instant::now();
        let r = self.inner.select(ctx, conflict);
        self.nanos += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }
}

/// The benchmark's metrics sink: Γ step time, the final mark count and
/// when restarts began.
#[derive(Default)]
struct LayerSink {
    step_ns: u64,
    last_marked: u64,
    first_restart: Option<Instant>,
}

impl MetricsSink for LayerSink {
    fn step(&mut self, ev: &StepEvent<'_>) {
        self.step_ns += ev.nanos;
        self.last_marked = ev.marked as u64;
    }

    fn restart(&mut self, _ev: &RestartEvent<'_>) {
        self.first_restart.get_or_insert_with(Instant::now);
    }
}

/// Per-layer accumulators: time samples (ns) per metric, and the work
/// counters of the first `counter_ops` ops of each tenant.
#[derive(Debug, Default)]
pub struct Acc {
    /// Time samples in nanoseconds, by metric name.
    pub times: BTreeMap<&'static str, Vec<f64>>,
    /// Deterministic counters, by metric name.
    pub counts: BTreeMap<&'static str, u64>,
    /// Final marks summed over the counted metered runs (for the yield).
    marks: u64,
}

impl Acc {
    fn time(&mut self, name: &'static str, ns: u64) {
        self.times.entry(name).or_default().push(ns as f64);
    }

    fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// The count named `name` (0 when never counted).
    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Marks ÷ groundings fired over the counted metered runs.
    pub fn fire_yield(&self) -> f64 {
        ratio(self.marks, self.get("gamma.groundings_fired"))
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// What replaying one tenant produced.
#[derive(Debug, Default)]
pub struct TenantReplay {
    /// Frames for create, settle and each op, rendered with the served
    /// sequence numbers.
    pub frames: Vec<String>,
    /// Per op: nanoseconds inside layer calls (the op's child spans).
    pub layer_ns: Vec<u64>,
    /// Per op: the op's whole traced duration.
    pub op_ns: Vec<u64>,
    /// The state after the served ops as a `state` frame, when the replay
    /// got that far.
    pub state: Option<String>,
}

enum Db {
    Engine {
        engine: Engine,
        state: FactStore,
        txs: u64,
    },
    Active(ActiveDatabase),
}

impl Db {
    fn state(&self) -> &FactStore {
        match self {
            Db::Engine { state, .. } => state,
            Db::Active(db) => db.state(),
        }
    }

    fn vocab(&self) -> &Arc<Vocabulary> {
        self.state().vocab()
    }
}

/// The delta frame's `stats` member (the deterministic slice of the run
/// counters).
fn stats_json(stats: &park::engine::RunStats) -> Json {
    Json::object([
        ("gamma_steps", Json::Int(stats.gamma_steps as i64)),
        ("restarts", Json::Int(stats.restarts as i64)),
        (
            "conflicts_resolved",
            Json::Int(stats.conflicts_resolved as i64),
        ),
        (
            "blocked_instances",
            Json::Int(stats.blocked_instances as i64),
        ),
    ])
}

/// The delta frame's `storage` member.
fn storage_json(state: &FactStore) -> Json {
    let vocab = state.vocab();
    Json::object([
        ("facts", Json::Int(state.len() as i64)),
        ("encoded_bytes", Json::Int(state.encoded_bytes() as i64)),
        ("vocab_symbols", Json::Int(vocab.sym_count() as i64)),
        ("vocab_predicates", Json::Int(vocab.pred_count() as i64)),
        ("vocab_int_spills", Json::Int(vocab.spill_count() as i64)),
    ])
}

/// The parts of a transaction's answer before rendering.
struct Delta {
    number: u64,
    added: Vec<String>,
    removed: Vec<String>,
    blocked: Vec<String>,
    stats: park::engine::RunStats,
}

/// One tenant's replay.
struct Replayer<'a> {
    db_name: String,
    policy: String,
    db: Db,
    rec: &'a mut Recorder,
    acc: &'a mut Acc,
    defaults: ServeOptions,
}

fn expect_db_op(req: Result<Request, String>) -> Result<DbOp, String> {
    match req? {
        Request::Db { op, .. } => Ok(op),
        other => Err(format!("unexpected request {other:?}")),
    }
}

impl<'a> Replayer<'a> {
    /// Parse, load and compile a tenant as `DbSession::open` does, timing
    /// each layer.
    fn open(
        tenant: &Tenant,
        backend: Backend,
        rec: &'a mut Recorder,
        acc: &'a mut Acc,
    ) -> Result<Self, String> {
        let defaults = ServeOptions::default();
        let line = tenant.create_line();
        let (req, _) = rec.time("protocol.parse_request", || parse_request(&line, &defaults));
        let DbOp::Create {
            program,
            facts,
            policy,
            options,
            incremental,
            ..
        } = expect_db_op(req)?
        else {
            return Err("create line did not parse as create".into());
        };
        let (program, ns) = rec.time("syntax.parse_program", || parse_program(&program));
        acc.time("syntax.parse_program_ms", ns);
        let program = program.map_err(|e| format!("program: {e}"))?;
        let (facts, ns) = rec.time("storage.load_facts", || {
            FactStore::from_source(Vocabulary::new(), &facts)
        });
        acc.time("storage.load_facts_ms", ns);
        let facts = facts.map_err(|e| format!("facts: {e}"))?;
        let (db, ns) = rec.time("engine.compile", || match backend {
            Backend::Engine => Engine::with_options(Arc::clone(facts.vocab()), &program, options)
                .map(|engine| Db::Engine {
                    engine,
                    state: facts,
                    txs: 0,
                }),
            Backend::Active | Backend::ActiveCold => {
                ActiveDatabase::open_with_options(&program, facts, options).map(|db| {
                    Db::Active(db.with_incremental(incremental && backend == Backend::Active))
                })
            }
        });
        acc.time("engine.compile_ms", ns);
        Ok(Replayer {
            db_name: tenant.db.clone(),
            policy,
            db: db.map_err(|e| e.to_string())?,
            rec,
            acc,
            defaults,
        })
    }

    fn created_frame(&self, seq: u64) -> String {
        frame(
            "created",
            seq,
            vec![
                ("db", Json::str(&self.db_name)),
                ("policy", Json::str(&self.policy)),
                ("facts", Json::Int(self.db.state().len() as i64)),
            ],
        )
    }

    fn state_frame(&self, seq: u64) -> String {
        frame(
            "state",
            seq,
            vec![
                ("db", Json::str(&self.db_name)),
                ("facts", str_array(&self.db.state().sorted_display())),
            ],
        )
    }

    /// Evaluate and commit one update set; `seed` marks the first settle,
    /// `counted` whether the op is inside the counter prefix.
    fn transact(
        &mut self,
        updates: &UpdateSet,
        seed: bool,
        counted: bool,
    ) -> Result<Delta, String> {
        let mut policy = TimedResolver {
            inner: by_name(&self.policy).ok_or("unknown policy")?,
            calls: 0,
            nanos: 0,
        };
        let (rec, acc) = (&mut *self.rec, &mut *self.acc);
        let cow_before = cow_shard_clones();
        let delta = match &mut self.db {
            Db::Engine { engine, state, txs } => {
                let mut sink = LayerSink::default();
                let (outcome, run_ns) = rec.time("fixpoint.run", || {
                    engine.run_with_metrics(state, updates, &mut policy, &mut sink)
                });
                let finished = Instant::now();
                let outcome = outcome.map_err(|e| e.to_string())?;
                let ((added, removed), diff_ns) =
                    rec.time("db.commit_diff", || state.diff(&outcome.database));
                let vocab = Arc::clone(state.vocab());
                let render = |xs: &[(park::storage::PredId, park::storage::Tuple)]| -> Vec<String> {
                    xs.iter().map(|(p, t)| vocab.display_fact(*p, t)).collect()
                };
                *txs += 1;
                let (delta, _) = rec.time("db.render_facts", || Delta {
                    number: *txs,
                    added: render(&added),
                    removed: render(&removed),
                    blocked: outcome.blocked_display(),
                    stats: outcome.stats.clone(),
                });
                *state = outcome.database;
                if seed {
                    acc.time("fixpoint.seed_run_ms", run_ns);
                } else {
                    acc.time("fixpoint.run_ms", run_ns);
                    acc.time(
                        "fixpoint.outside_gamma_ms",
                        run_ns.saturating_sub(sink.step_ns),
                    );
                    acc.time("gamma.step_ms", sink.step_ns);
                    acc.time("db.commit_diff_ms", diff_ns);
                    if let Some(t) = sink.first_restart {
                        acc.time("replay.restart_ms", (finished - t).as_nanos() as u64);
                    }
                    if counted {
                        acc.marks += sink.last_marked;
                    }
                }
                delta
            }
            Db::Active(db) => {
                let before = db.incremental_stats();
                let (report, ns) =
                    rec.time("incremental.transact", || db.transact(updates, &mut policy));
                let report = report.map_err(|e| e.to_string())?;
                let after = db.incremental_stats();
                if seed {
                    acc.time("fixpoint.seed_run_ms", ns);
                } else if db.incremental() {
                    let path = if after.incremental_txs > before.incremental_txs {
                        "incremental.warm_insert_us"
                    } else if after.partial_stratum_txs > before.partial_stratum_txs {
                        "incremental.partial_stratum_us"
                    } else {
                        "incremental.bail_ms"
                    };
                    acc.time(path, ns);
                    if counted {
                        count_incremental(acc, before, after);
                    }
                } else {
                    acc.time("fixpoint.run_ms", ns);
                }
                Delta {
                    number: report.number,
                    added: report.added,
                    removed: report.removed,
                    blocked: report.blocked,
                    stats: report.stats,
                }
            }
        };
        if !seed {
            if let Some(per_call) = policy.nanos.checked_div(policy.calls) {
                acc.time("policies.select_us", per_call);
            }
            if counted {
                let s = &delta.stats;
                acc.count("txs", 1);
                acc.count("storage.cow_shard_clones", cow_shard_clones() - cow_before);
                acc.count("gamma.steps", s.gamma_steps);
                acc.count("gamma.groundings_fired", s.groundings_fired);
                acc.count("gamma.eval_tasks", s.eval_tasks);
                acc.count("lower.lowered_ops", s.lowered_ops);
                acc.count("lower.index_picks", s.index_picks);
                acc.count("conflict.conflicts_resolved", s.conflicts_resolved);
                acc.count("conflict.blocked_instances", s.blocked_instances);
                acc.count("policies.select_calls", policy.calls);
                acc.count("replay.restarts", s.restarts);
                acc.count("replay.replayed_steps", s.replayed_steps);
            }
        }
        Ok(delta)
    }

    fn delta_frame(&self, seq: u64, d: &Delta) -> String {
        frame(
            "delta",
            seq,
            vec![
                ("db", Json::str(&self.db_name)),
                ("tx", Json::Int(d.number as i64)),
                ("added", str_array(&d.added)),
                ("removed", str_array(&d.removed)),
                ("blocked", str_array(&d.blocked)),
                ("stats", stats_json(&d.stats)),
                ("storage", storage_json(self.db.state())),
            ],
        )
    }

    /// Answer one request line as the served session would, inside an
    /// `op` span tagged `request`. Returns the frame, the nanoseconds
    /// spent in layer calls, and the op's whole duration.
    fn op(
        &mut self,
        request: u64,
        line: &str,
        seq: u64,
        seed: bool,
        counted: bool,
    ) -> Result<(String, u64, u64), String> {
        self.rec.begin_request(request);
        let root = self.rec.open("op");
        let (req, ns) = self.rec.time("protocol.parse_request", || {
            parse_request(line, &self.defaults)
        });
        self.acc.time("protocol.parse_request_us", ns);
        let frame = match expect_db_op(req)? {
            DbOp::Transact { updates, .. } => {
                let vocab = Arc::clone(self.db.vocab());
                let (u, ns) = self.rec.time("storage.parse_updates", || {
                    UpdateSet::from_source(&vocab, &updates)
                });
                self.acc.time("storage.parse_updates_us", ns);
                let u = u.map_err(|e| format!("updates: {e}"))?;
                let delta = self.transact(&u, seed, counted)?;
                let id = self.rec.open("protocol.render_delta");
                let frame = self.delta_frame(seq, &delta);
                let ns = self.rec.close(id);
                self.acc.time("protocol.render_delta_us", ns);
                frame
            }
            DbOp::Query {
                query: Some(src), ..
            } => {
                let vocab = Arc::clone(self.db.vocab());
                let (q, ns) = self.rec.time("query.parse", || Query::parse(&vocab, &src));
                self.acc.time("query.parse_us", ns);
                let q = q.map_err(|e| e.to_string())?;
                let state = self.db.state();
                let (rows, ns) = self.rec.time("query.run", || q.run_on_database(state));
                self.acc.time("query.run_ms", ns);
                if counted {
                    self.acc.count("query.rows", rows.len() as u64);
                }
                let id = self.rec.open("protocol.render_rows");
                let frame = frame(
                    "rows",
                    seq,
                    vec![
                        ("db", Json::str(&self.db_name)),
                        ("rows", str_array(&q.render_rows(&rows))),
                    ],
                );
                self.rec.close(id);
                frame
            }
            other => return Err(format!("unexpected op {other:?}")),
        };
        let total = self.rec.close(root);
        let layers = self.rec.spans()[root + 1..]
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| s.duration())
            .sum();
        Ok((frame, layers, total))
    }
}

fn count_incremental(acc: &mut Acc, before: IncrementalStats, after: IncrementalStats) {
    acc.count(
        "incremental.incremental_txs",
        after.incremental_txs - before.incremental_txs,
    );
    acc.count(
        "incremental.partial_stratum_txs",
        after.partial_stratum_txs - before.partial_stratum_txs,
    );
    acc.count("incremental.cold_txs", after.cold_txs - before.cold_txs);
    acc.count(
        "incremental.cold_txs_deletion",
        after.cold_txs_deletion - before.cold_txs_deletion,
    );
    acc.count(
        "incremental.cold_txs_uncertified",
        after.cold_txs_uncertified - before.cold_txs_uncertified,
    );
}

/// Replay `tenant`: create, settle, then `ops` operations of its stream.
/// `seqs` are the sequence numbers the served session gave create,
/// settle, each op and the final `state` request, in that order (ops past
/// the end get 0). The state is rendered after `served` ops if `ops`
/// reaches that far; work counters cover the first `counter_ops` ops.
#[allow(clippy::too_many_arguments)]
pub fn replay_tenant(
    tenant: Tenant,
    backend: Backend,
    seqs: &[u64],
    served: usize,
    ops: usize,
    counter_ops: usize,
    rec: &mut Recorder,
    acc: &mut Acc,
) -> Result<TenantReplay, String> {
    let seq = |i: usize| seqs.get(i).copied().unwrap_or(0);
    let mut replayer = Replayer::open(&tenant, backend, rec, acc)?;
    let mut out = TenantReplay::default();
    out.frames.push(replayer.created_frame(seq(0)));
    let (settled, _, _) = replayer.op(0, &tenant.settle_line(), seq(1), true, false)?;
    out.frames.push(settled);
    let symbols_before = replayer.db.vocab().sym_count();
    let mut stream = tenant.ops;
    for i in 0..ops {
        if i == served {
            out.state = Some(replayer.state_frame(seq(2 + served)));
        }
        let op = stream.next_op();
        let counted = i < counter_ops;
        let (frame, layers, total) =
            replayer.op(i as u64 + 1, &op.line, seq(2 + i), false, counted)?;
        out.frames.push(frame);
        out.layer_ns.push(layers);
        out.op_ns.push(total);
        if i + 1 == counter_ops {
            let growth = replayer.db.vocab().sym_count() - symbols_before;
            replayer
                .acc
                .count("storage.vocab_symbols_growth", growth as u64);
        }
    }
    if ops == served {
        out.state = Some(replayer.state_frame(seq(2 + served)));
    }
    Ok(out)
}
