//! One benchmark run of one workload: the timed closed-loop session,
//! repeated setups, the traced replay, and the correctness checks.

use crate::gen::{OpKind, Workload};
use crate::layers::{ratio, replay_tenant, Acc, Backend};
use crate::spans::Recorder;
use crate::stats::{median, summarize};
use crate::wire::{frame_seq, run_session, Sample, SessionRun};
use std::path::PathBuf;
use std::time::Duration;

/// Ops of the `warm_mixed` session checked against an incremental-off
/// replay. Every transaction of that replay is a cold run over ≈20k facts,
/// so it covers a prefix of the session (including at least one bail).
pub const WARM_REFERENCE_OPS: usize = 120;

/// Setup sessions per run, the timed session's own included; `setup_s` is
/// their median.
pub const SETUPS: u32 = 15;

/// A reported metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Human-readable context (percentile, sample count, ...).
    pub note: String,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64, note: String) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        note,
    }
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Report {
    /// End-to-end metrics (tracing off).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (from the traced replay).
    pub per_layer: Vec<Metric>,
    /// Ops sent in the timed phase.
    pub attempted: usize,
    /// Of those, answered with an `error` frame.
    pub failed: usize,
    /// One line per correctness check; a check that failed starts with
    /// `FAIL`.
    pub checks: Vec<String>,
    /// The traced run's spans.
    pub spans: Recorder,
}

impl Report {
    /// True when every correctness check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| !c.starts_with("FAIL"))
    }
}

/// The per-layer metrics, in reporting order, with their units.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("syntax.parse_program_ms", "ms"),
    ("storage.load_facts_ms", "ms"),
    ("storage.parse_updates_us", "us"),
    ("storage.cow_shard_clones_per_tx", "count"),
    ("storage.vocab_symbols_growth", "count"),
    ("engine.compile_ms", "ms"),
    ("fixpoint.seed_run_ms", "ms"),
    ("fixpoint.run_ms", "ms"),
    ("fixpoint.outside_gamma_ms", "ms"),
    ("gamma.step_ms", "ms"),
    ("gamma.steps", "count"),
    ("gamma.groundings_fired", "count"),
    ("gamma.eval_tasks", "count"),
    ("lower.lowered_ops", "count"),
    ("lower.index_picks", "count"),
    ("gamma.fire_yield", "ratio"),
    ("conflict.conflicts_resolved", "count"),
    ("conflict.blocked_instances", "count"),
    ("policies.select_calls", "count"),
    ("policies.select_us", "us"),
    ("replay.restarts", "count"),
    ("replay.replayed_steps", "count"),
    ("replay.replay_share", "ratio"),
    ("replay.restart_ms", "ms"),
    ("incremental.warm_insert_us", "us"),
    ("incremental.partial_stratum_us", "us"),
    ("incremental.bail_ms", "ms"),
    ("incremental.incremental_txs", "count"),
    ("incremental.partial_stratum_txs", "count"),
    ("incremental.cold_txs", "count"),
    ("incremental.cold_txs_deletion", "count"),
    ("incremental.cold_txs_uncertified", "count"),
    ("incremental.warm_ratio", "ratio"),
    ("db.commit_diff_ms", "ms"),
    ("query.parse_us", "us"),
    ("query.run_ms", "ms"),
    ("query.rows", "count"),
    ("protocol.parse_request_us", "us"),
    ("protocol.render_delta_us", "us"),
    ("pipeline.overhead_us", "us"),
    ("trace.overhead_us", "us"),
];

/// Peak resident memory of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(encoded_bytes, facts)` from the `storage` member of a delta frame.
fn storage_of(frame: &str) -> Option<(i64, i64)> {
    let doc = park_json::parse(frame).ok()?;
    let storage = doc.get("storage")?;
    Some((
        storage.get("encoded_bytes")?.as_i64()?,
        storage.get("facts")?.as_i64()?,
    ))
}

/// Where the traced run's span files go: a directory beside this
/// package's sources, ignored by git.
pub fn runs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("runs")
}

fn end_to_end(setups: &[f64], session: &SessionRun, peak_rss: f64) -> (Vec<Metric>, usize, usize) {
    let samples: Vec<&Sample> = session.tenants.iter().flat_map(|c| &c.samples).collect();
    let failed = samples.iter().filter(|s| s.failed).count();
    let mut out = vec![metric(
        "setup_s",
        "s",
        median(setups).expect("at least one setup"),
        format!(
            "median of {} setups, {:.4}..{:.4}",
            setups.len(),
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            setups.iter().copied().fold(0.0, f64::max)
        ),
    )];
    for kind in OpKind::ALL {
        let Some(sum) = summarize(&latencies(&samples, kind)) else {
            for suffix in ["p50_ms", "tail_ms"] {
                out.push(metric(
                    format!("{}_{suffix}", kind.name()),
                    "ms",
                    0.0,
                    "no samples".into(),
                ));
            }
            continue;
        };
        out.push(metric(
            format!("{}_p50_ms", kind.name()),
            "ms",
            sum.p50,
            format!("p50, n={}", sum.n),
        ));
        out.push(metric(
            format!("{}_tail_ms", kind.name()),
            "ms",
            sum.tail,
            format!("p{}, n={}", sum.tail_p, sum.n),
        ));
    }
    let timed = session.timed.as_secs_f64();
    let committed = samples
        .iter()
        .filter(|s| s.kind != OpKind::Query && !s.failed)
        .count();
    out.push(metric(
        "tx_per_s",
        "1/s",
        committed as f64 / timed,
        format!("{committed} transactions in {timed:.3} s"),
    ));
    out.push(metric(
        "peak_rss_mb",
        "MB",
        peak_rss,
        "VmHWM of the benchmark process after the setup and first slice of the timed session"
            .into(),
    ));
    let (bytes, facts) = session
        .tenants
        .iter()
        .filter_map(|c| c.frames.iter().rev().find_map(|f| storage_of(f)))
        .fold((0, 0), |(b, f), (b2, f2)| (b + b2, f + f2));
    out.push(metric(
        "bytes_per_fact",
        "B",
        ratio(bytes as u64, facts as u64),
        format!("{bytes} encoded bytes / {facts} facts, final state"),
    ));
    out.push(metric(
        "failed_ratio",
        "ratio",
        ratio(failed as u64, samples.len() as u64),
        format!("{failed} error frames / {} ops", samples.len()),
    ));
    (out, samples.len(), failed)
}

/// The latencies (ms) of the `kind` ops among `samples`. A failed op
/// misses every latency limit: it counts as infinitely slow.
fn latencies(samples: &[&Sample], kind: OpKind) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| {
            if s.failed {
                f64::INFINITY
            } else {
                s.latency.as_secs_f64() * 1e3
            }
        })
        .collect()
}

/// Compare served frames with replayed ones; returns a check line.
fn compare(what: &str, served: &[String], replayed: &[String]) -> String {
    let n = served.len().min(replayed.len());
    match (0..n).find(|&i| served[i] != replayed[i]) {
        Some(i) => format!(
            "FAIL {what}: frame {i} differs\n  served:   {}\n  replayed: {}",
            clip(&served[i]),
            clip(&replayed[i])
        ),
        None if served.len() > replayed.len() => {
            format!(
                "FAIL {what}: {} frames served, {} replayed",
                served.len(),
                replayed.len()
            )
        }
        None => format!("ok {what}: {n} frames byte-identical"),
    }
}

fn clip(s: &str) -> &str {
    &s[..s.len().min(400)]
}

/// Replay the counter prefix of every tenant a second time and check that
/// the work counters come out identical to the first replay's.
fn check_counters(w: Workload, seed: u64, backend: Backend, first: &Acc) -> String {
    let mut again = Acc::default();
    let mut rec = Recorder::default();
    for tenant in w.tenants(seed) {
        let n = w.counter_ops();
        if let Err(e) = replay_tenant(tenant, backend, &[], usize::MAX, n, n, &mut rec, &mut again)
        {
            return format!("FAIL counters: second replay: {e}");
        }
    }
    if again.counts == first.counts {
        format!(
            "ok counters: {} counters identical over two replays of the counter prefix",
            first.counts.len()
        )
    } else {
        let show = |acc: &Acc| -> String {
            acc.counts
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        format!(
            "FAIL counters: two replays of the counter prefix differ\n  first:  {}\n  second: {}",
            show(first),
            show(&again)
        )
    }
}

fn per_layer(acc: &Acc, pipeline: &[f64], tracing: &[f64]) -> Vec<Metric> {
    let txs = acc.get("txs");
    let inc = acc.get("incremental.incremental_txs") + acc.get("incremental.partial_stratum_txs");
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, note) = match name {
                "storage.cow_shard_clones_per_tx" => (
                    ratio(acc.get("storage.cow_shard_clones"), txs),
                    format!("{} clones / {txs} txs", acc.get("storage.cow_shard_clones")),
                ),
                "gamma.fire_yield" => (acc.fire_yield(), "final marks / groundings fired".into()),
                "replay.replay_share" => (
                    ratio(acc.get("replay.replayed_steps"), acc.get("gamma.steps")),
                    "replayed steps / Γ steps".into(),
                ),
                "incremental.warm_ratio" => (ratio(inc, txs), format!("{inc} warm / {txs} txs")),
                "pipeline.overhead_us" | "trace.overhead_us" => {
                    let v = if name == "pipeline.overhead_us" {
                        pipeline
                    } else {
                        tracing
                    };
                    (
                        median(v).unwrap_or(0.0),
                        format!("median over {} ops", v.len()),
                    )
                }
                _ if unit == "count" => (acc.get(name) as f64, "counted prefix".into()),
                _ => {
                    let scale = if unit == "ms" { 1e6 } else { 1e3 };
                    let samples = acc.times.get(name).map_or(&[][..], |v| v.as_slice());
                    (
                        median(samples).unwrap_or(0.0) / scale,
                        format!("median of {} calls", samples.len()),
                    )
                }
            };
            metric(name, unit, value, note)
        })
        .collect()
}

/// Run workload `w` once: the timed session with `seconds` of closed-loop
/// load and the other setups spread through it, then the traced replay
/// and the correctness checks. With `full`, the replay covers every served
/// op (and checks the final state); otherwise only the counter prefix,
/// which keeps runs that report end-to-end metrics short.
pub fn run(w: Workload, seed: u64, seconds: u64, full: bool) -> Report {
    // The other setup sessions run between slices of the timed phase, so
    // that a slow spell of the host does not set every setup sample. Peak
    // memory is read before the first of them: the heap a finished setup
    // session leaves in the allocator's per-thread arenas varies from run
    // to run.
    let mut setups = Vec::new();
    let mut peak_rss = None;
    let session = run_session(
        w.tenants(seed),
        Duration::from_secs(seconds),
        SETUPS - 1,
        || {
            peak_rss.get_or_insert_with(peak_rss_mb);
            let tenants = w.tenants(seed);
            setups.push(
                run_session(tenants, Duration::ZERO, 0, || {})
                    .setup
                    .as_secs_f64(),
            );
        },
    );
    let peak_rss = peak_rss.unwrap_or_else(peak_rss_mb);
    setups.push(session.setup.as_secs_f64());
    let (end_to_end, attempted, failed) = end_to_end(&setups, &session, peak_rss);
    let mut checks = vec![if failed == 0 {
        format!("ok failed_ratio: 0 error frames in {attempted} ops")
    } else {
        format!("FAIL failed_ratio: {failed} error frames in {attempted} ops")
    }];
    let mut rec = Recorder::default();
    let mut acc = Acc::default();
    let mut pipeline = Vec::new();
    let mut tracing = Vec::new();
    let backend = match w {
        Workload::WarmMixed => Backend::Active,
        _ => Backend::Engine,
    };
    for (tenant, client) in w.tenants(seed).into_iter().zip(&session.tenants) {
        let db = tenant.db.clone();
        let state = client.state.as_str();
        let mut seqs: Vec<u64> = client
            .frames
            .iter()
            .map(|f| frame_seq(f).unwrap_or(0) as u64)
            .collect();
        seqs.push(frame_seq(state).unwrap_or(0) as u64);
        let served = client.samples.len();
        let ops = if full {
            served.max(w.counter_ops())
        } else {
            w.counter_ops()
        };
        match replay_tenant(
            tenant,
            backend,
            &seqs,
            served,
            ops,
            w.counter_ops(),
            &mut rec,
            &mut acc,
        ) {
            Ok(replay) => {
                let n = served.min(ops);
                checks.push(compare(
                    &format!("{db} timed frames vs traced replay"),
                    &client.frames[..2 + n],
                    &replay.frames[..2 + n],
                ));
                checks.push(match replay.state {
                    Some(replayed) => compare(
                        &format!("{db} final state vs replayed transactions"),
                        &[state.to_string()],
                        &[replayed],
                    ),
                    None => format!(
                        "skip {db} final state: the replay stopped after {n} of {served} ops \
                         (--trace 1 replays them all)"
                    ),
                });
                for (i, sample) in client.samples.iter().take(n).enumerate() {
                    let served_us = sample.latency.as_secs_f64() * 1e6;
                    pipeline.push(served_us - replay.layer_ns[i] as f64 / 1e3);
                    tracing.push(replay.op_ns[i] as f64 / 1e3 - served_us);
                }
            }
            Err(e) => checks.push(format!("FAIL {db} traced replay: {e}")),
        }
    }
    if w == Workload::WarmMixed {
        for (tenant, client) in w.tenants(seed).into_iter().zip(&session.tenants) {
            let ops = client.samples.len().min(WARM_REFERENCE_OPS);
            let seqs: Vec<u64> = client
                .frames
                .iter()
                .map(|f| frame_seq(f).unwrap_or(0) as u64)
                .collect();
            let what = format!("{} timed frames vs incremental-off replay", tenant.db);
            let mut scratch = (Recorder::default(), Acc::default());
            checks.push(
                match replay_tenant(
                    tenant,
                    Backend::ActiveCold,
                    &seqs,
                    ops,
                    ops,
                    0,
                    &mut scratch.0,
                    &mut scratch.1,
                ) {
                    Ok(replay) => compare(&what, &client.frames[..2 + ops], &replay.frames),
                    Err(e) => format!("FAIL {what}: {e}"),
                },
            );
        }
    }
    checks.push(check_counters(w, seed, backend, &acc));
    Report {
        end_to_end,
        per_layer: per_layer(&acc, &pipeline, &tracing),
        attempted,
        failed,
        checks,
        spans: rec,
    }
}
