//! The serve pipeline: receiver → scheduler → per-database worker →
//! ordered sink.
//!
//! The receiving thread assigns each request line a sequence number and
//! routes it: control ops (`list`, `ping`, `shutdown`) are answered in
//! place, `create` spawns a dedicated worker thread owning that
//! database, and every other op is forwarded to its database's worker
//! over an mpsc channel. Workers answer with `(seq, frames)` batches to
//! a single sink thread that buffers out-of-order batches and writes
//! strictly in sequence — so output order is independent of worker
//! scheduling, and a session transcript is reproducible byte for byte.
//!
//! Invariant the sink relies on: every consumed sequence number produces
//! exactly one batch (workers answer even when the database failed to
//! open; the receiver answers unknown-database and parse errors itself).
//!
//! Request lines are read with a bound: a line longer than
//! [`MAX_REQUEST_BYTES`] or not valid UTF-8 consumes a sequence number
//! with an `error` frame, and the session keeps serving.

use crate::protocol::{self, error_frame, frame, DbOp, Request};
use crate::session::DbSession;
use crate::ServeOptions;
use park_json::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, Read, Write};
use std::sync::mpsc::{Receiver, Sender};

/// The longest request line the receiver accepts, newline excluded. A
/// longer line is answered with an `error` frame and skipped without being
/// buffered, so one request cannot make a session hold unbounded input.
pub const MAX_REQUEST_BYTES: usize = 16 << 20;

/// One request line as read from the input.
enum Line {
    /// A UTF-8 line of at most [`MAX_REQUEST_BYTES`], newline stripped.
    Text(String),
    /// A line that cannot be served, with the reason for its error frame.
    Rejected(String),
}

/// Read the next request line, or `None` at the end of the input. Buffers
/// at most [`MAX_REQUEST_BYTES`] + 1 bytes; the rest of an oversize line
/// is consumed and dropped.
fn read_line(input: &mut impl BufRead) -> std::io::Result<Option<Line>> {
    let mut buf = Vec::new();
    let limit = MAX_REQUEST_BYTES as u64 + 1;
    if Read::take(&mut *input, limit).read_until(b'\n', &mut buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > MAX_REQUEST_BYTES {
        skip_line(input)?;
        return Ok(Some(Line::Rejected(format!(
            "request line exceeds {MAX_REQUEST_BYTES} bytes"
        ))));
    }
    Ok(Some(match String::from_utf8(buf) {
        Ok(line) => Line::Text(line),
        Err(_) => Line::Rejected("request line is not valid UTF-8".into()),
    }))
}

/// Consume input up to and including the next newline (or the end).
fn skip_line(input: &mut impl BufRead) -> std::io::Result<()> {
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            return Ok(());
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                input.consume(i + 1);
                return Ok(());
            }
            None => {
                let n = chunk.len();
                input.consume(n);
            }
        }
    }
}

/// One unit of work for a database worker.
enum Job {
    Op { seq: u64, op: DbOp },
    Shutdown { snapshot_dir: Option<String> },
}

/// Run one serve session: read ndjson requests from `input`, write
/// ndjson frames to `output`. Returns when the input ends or a
/// `shutdown` op arrives — both paths emit a final `bye` frame with a
/// summary per open database.
pub fn serve(
    mut input: impl BufRead,
    output: impl Write + Send,
    opts: &ServeOptions,
) -> std::io::Result<()> {
    std::thread::scope(|s| {
        let (sink_tx, sink_rx) = std::sync::mpsc::channel::<(u64, Vec<String>)>();
        let sink = s.spawn(move || sink_loop(sink_rx, output));
        let (summary_tx, summary_rx) = std::sync::mpsc::channel::<(u64, Json)>();

        let _ = sink_tx.send((0, vec![hello_frame(opts)]));
        // Open databases in creation order: (name, creation id, jobs).
        let mut registry: Vec<(String, u64, Sender<Job>)> = Vec::new();
        let mut created: u64 = 0;
        let mut seq: u64 = 0;
        let mut snapshot_dir: Option<String> = None;
        let mut graceful = false;

        while let Ok(Some(line)) = read_line(&mut input) {
            let line = match line {
                Line::Text(line) => line,
                Line::Rejected(msg) => {
                    seq += 1;
                    let _ = sink_tx.send((seq, vec![error_frame(seq, None, &msg)]));
                    continue;
                }
            };
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            seq += 1;
            let req = match protocol::parse_request(line, opts) {
                Ok(r) => r,
                Err(msg) => {
                    let _ = sink_tx.send((seq, vec![error_frame(seq, None, &msg)]));
                    continue;
                }
            };
            match req {
                Request::Ping => {
                    let _ = sink_tx.send((seq, vec![frame("pong", seq, Vec::new())]));
                }
                Request::List => {
                    let names: Vec<String> = registry.iter().map(|(n, _, _)| n.clone()).collect();
                    let _ = sink_tx.send((
                        seq,
                        vec![frame(
                            "dbs",
                            seq,
                            vec![("dbs", protocol::str_array(&names))],
                        )],
                    ));
                }
                Request::Shutdown { snapshot_dir: dir } => {
                    snapshot_dir = dir;
                    graceful = true;
                    break;
                }
                Request::Db { db, op } => match op {
                    DbOp::Create { .. } => {
                        if registry.iter().any(|(n, _, _)| n == &db) {
                            let _ = sink_tx.send((
                                seq,
                                vec![error_frame(
                                    seq,
                                    Some(&db),
                                    &format!("database `{db}` is already open"),
                                )],
                            ));
                            continue;
                        }
                        let (tx, rx) = std::sync::mpsc::channel::<Job>();
                        let _ = tx.send(Job::Op { seq, op });
                        created += 1;
                        let (name, sink_tx, summary_tx) =
                            (db.clone(), sink_tx.clone(), summary_tx.clone());
                        let id = created;
                        s.spawn(move || worker_loop(name, id, rx, sink_tx, summary_tx));
                        registry.push((db, id, tx));
                    }
                    DbOp::Close { .. } => {
                        // Unregister eagerly: later ops on this name are
                        // unknown-database even while the worker drains.
                        match registry.iter().position(|(n, _, _)| n == &db) {
                            Some(i) => {
                                let (_, _, tx) = registry.remove(i);
                                let _ = tx.send(Job::Op { seq, op });
                            }
                            None => {
                                let _ = sink_tx.send((
                                    seq,
                                    vec![error_frame(
                                        seq,
                                        Some(&db),
                                        &format!("unknown database `{db}`"),
                                    )],
                                ));
                            }
                        }
                    }
                    op => match registry.iter().find(|(n, _, _)| n == &db) {
                        Some((_, _, tx)) => {
                            let _ = tx.send(Job::Op { seq, op });
                        }
                        None => {
                            let _ = sink_tx.send((
                                seq,
                                vec![error_frame(
                                    seq,
                                    Some(&db),
                                    &format!("unknown database `{db}`"),
                                )],
                            ));
                        }
                    },
                },
            }
        }

        // Shutdown barrier: every worker snapshots (if asked), reports a
        // summary, and exits; the bye frame lists them in creation order.
        if !graceful {
            seq += 1;
        }
        let open = registry.len();
        for (_, _, tx) in &registry {
            let _ = tx.send(Job::Shutdown {
                snapshot_dir: snapshot_dir.clone(),
            });
        }
        drop(registry);
        let mut summaries: Vec<(u64, Json)> = Vec::with_capacity(open);
        for _ in 0..open {
            match summary_rx.recv() {
                Ok(entry) => summaries.push(entry),
                Err(_) => break,
            }
        }
        summaries.sort_by_key(|(id, _)| *id);
        let bye = frame(
            "bye",
            seq,
            vec![(
                "databases",
                Json::Array(summaries.into_iter().map(|(_, j)| j).collect()),
            )],
        );
        let _ = sink_tx.send((seq, vec![bye]));
        drop(sink_tx);
        sink.join().expect("sink thread panicked")
    })
}

fn hello_frame(opts: &ServeOptions) -> String {
    frame(
        "hello",
        0,
        vec![
            ("schema", Json::str(protocol::SCHEMA)),
            ("policy", Json::str(&opts.policy)),
            ("scope", Json::str(protocol::scope_name(opts.scope))),
        ],
    )
}

/// A worker owns one database for its whole life. A failed `create`
/// keeps the worker (and the name) alive in a failed state so every
/// routed op still consumes its sequence number with an error frame —
/// `close` releases the name.
fn worker_loop(
    name: String,
    creation_id: u64,
    jobs: Receiver<Job>,
    sink: Sender<(u64, Vec<String>)>,
    summaries: Sender<(u64, Json)>,
) {
    let mut session: Result<DbSession, String> = Err("never created".into());
    for job in jobs {
        match job {
            Job::Op {
                seq,
                op:
                    DbOp::Create {
                        program,
                        facts,
                        policy,
                        options,
                        journal,
                        incremental,
                    },
            } if session.is_err() => {
                match DbSession::open(
                    &name,
                    &program,
                    &facts,
                    &policy,
                    options,
                    journal.as_deref(),
                    incremental,
                ) {
                    Ok(s) => {
                        let _ = sink.send((seq, vec![s.created_frame(seq)]));
                        session = Ok(s);
                    }
                    Err(msg) => {
                        let _ = sink.send((seq, vec![error_frame(seq, Some(&name), &msg)]));
                        session = Err(msg);
                    }
                }
            }
            Job::Op { seq, op } => match &mut session {
                Ok(s) => {
                    let (frames, closed) = s.handle(seq, op);
                    let _ = sink.send((seq, frames));
                    if closed {
                        return;
                    }
                }
                Err(msg) => {
                    let closing = matches!(op, DbOp::Close { .. });
                    let _ = sink.send((
                        seq,
                        vec![error_frame(
                            seq,
                            Some(&name),
                            &format!("database `{name}` failed to open: {msg}"),
                        )],
                    ));
                    if closing {
                        return;
                    }
                }
            },
            Job::Shutdown { snapshot_dir } => {
                let summary = match &session {
                    Ok(s) => s.summary(snapshot_dir.as_deref()),
                    Err(msg) => {
                        Json::object([("db", Json::str(&name)), ("error", Json::str(msg.clone()))])
                    }
                };
                let _ = summaries.send((creation_id, summary));
                return;
            }
        }
    }
}

/// Write batches strictly in sequence order, buffering early arrivals.
fn sink_loop(batches: Receiver<(u64, Vec<String>)>, mut output: impl Write) -> std::io::Result<()> {
    let mut next: u64 = 0;
    let mut pending: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for (seq, frames) in batches {
        pending.insert(seq, frames);
        while let Some(frames) = pending.remove(&next) {
            for f in &frames {
                writeln!(output, "{f}")?;
            }
            // Flush per batch: a TCP client scripting the session sees
            // each answer as soon as it is in order.
            output.flush()?;
            next += 1;
        }
    }
    // A gap here would mean a dropped sequence number; emit stragglers
    // in order rather than losing them.
    for (_, frames) in pending {
        for f in &frames {
            writeln!(output, "{f}")?;
        }
    }
    output.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_session(input: &str) -> Vec<Json> {
        let mut out: Vec<u8> = Vec::new();
        serve(input.as_bytes(), &mut out, &ServeOptions::default()).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| park_json::parse(l).unwrap_or_else(|e| panic!("bad frame {l}: {e}")))
            .collect()
    }

    fn kinds(frames: &[Json]) -> Vec<&str> {
        frames
            .iter()
            .map(|f| f.get("frame").and_then(|j| j.as_str()).unwrap())
            .collect()
    }

    #[test]
    fn empty_input_is_hello_then_bye() {
        let frames = run_session("");
        assert_eq!(kinds(&frames), ["hello", "bye"]);
        assert_eq!(
            frames[0].get("schema").and_then(|j| j.as_str()),
            Some(protocol::SCHEMA)
        );
        assert_eq!(frames[1].get("seq").and_then(|j| j.as_i64()), Some(1));
    }

    #[test]
    fn a_full_session_stays_in_sequence_order() {
        let frames = run_session(concat!(
            r#"{"op":"ping"}"#,
            "\n",
            "# a comment, not a request\n",
            "\n",
            r#"{"op":"create","db":"hr","program":"onleave: -active(X) -> +offboard(X).","facts":"active(ann). active(bob)."}"#,
            "\n",
            r#"{"op":"transact","db":"hr","updates":"-active(ann)."}"#,
            "\n",
            r#"{"op":"list"}"#,
            "\n",
            r#"{"op":"query","db":"hr","pred":"offboard"}"#,
            "\n",
            r#"{"op":"shutdown"}"#,
            "\n",
        ));
        assert_eq!(
            kinds(&frames),
            ["hello", "pong", "created", "delta", "dbs", "rows", "bye"]
        );
        let seqs: Vec<i64> = frames
            .iter()
            .map(|f| f.get("seq").and_then(|j| j.as_i64()).unwrap())
            .collect();
        assert_eq!(seqs, [0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(
            frames[3].get("added").and_then(|j| j.as_array()).unwrap(),
            [Json::str("offboard(ann)")]
        );
        let dbs = frames[6]
            .get("databases")
            .and_then(|j| j.as_array())
            .unwrap();
        assert_eq!(dbs.len(), 1);
        assert_eq!(dbs[0].get("transactions").and_then(|j| j.as_i64()), Some(1));
    }

    #[test]
    fn multi_tenant_databases_are_independent() {
        let frames = run_session(concat!(
            r#"{"op":"create","db":"a","program":"p -> +qa.","facts":"p."}"#,
            "\n",
            r#"{"op":"create","db":"b","program":"p -> +qb.","facts":"p."}"#,
            "\n",
            r#"{"op":"settle","db":"a"}"#,
            "\n",
            r#"{"op":"settle","db":"b"}"#,
            "\n",
            r#"{"op":"close","db":"a"}"#,
            "\n",
            r#"{"op":"settle","db":"a"}"#,
            "\n",
        ));
        assert_eq!(
            kinds(&frames),
            ["hello", "created", "created", "delta", "delta", "closed", "error", "bye"]
        );
        assert_eq!(
            frames[3].get("added").and_then(|j| j.as_array()).unwrap(),
            [Json::str("qa")]
        );
        assert_eq!(
            frames[4].get("added").and_then(|j| j.as_array()).unwrap(),
            [Json::str("qb")]
        );
        // Only b remains open at shutdown.
        let dbs = frames[7]
            .get("databases")
            .and_then(|j| j.as_array())
            .unwrap();
        assert_eq!(dbs.len(), 1);
        assert_eq!(dbs[0].get("db").and_then(|j| j.as_str()), Some("b"));
    }

    #[test]
    fn errors_consume_their_sequence_number_and_the_session_continues() {
        let frames = run_session(concat!(
            "this is not json\n",
            r#"{"op":"transact","db":"ghost","updates":"+p."}"#,
            "\n",
            r#"{"op":"create","db":"bad","program":"broken("}"#,
            "\n",
            r#"{"op":"settle","db":"bad"}"#,
            "\n",
            r#"{"op":"create","db":"bad","program":"p -> +q."}"#,
            "\n",
            r#"{"op":"close","db":"bad"}"#,
            "\n",
            r#"{"op":"create","db":"bad","program":"p -> +q.","facts":"p."}"#,
            "\n",
            r#"{"op":"settle","db":"bad"}"#,
            "\n",
            r#"{"op":"ping"}"#,
            "\n",
        ));
        assert_eq!(
            kinds(&frames),
            [
                "hello", "error", "error", "error", "error", "error", "error", "created", "delta",
                "pong", "bye"
            ]
        );
        // Re-creating a name while it is open (even failed-open) errors;
        // after close the name is free again.
        assert!(frames[5]
            .get("message")
            .and_then(|j| j.as_str())
            .unwrap()
            .contains("already open"));
        assert!(frames[6]
            .get("message")
            .and_then(|j| j.as_str())
            .unwrap()
            .contains("failed to open"));
        let seqs: Vec<i64> = frames
            .iter()
            .map(|f| f.get("seq").and_then(|j| j.as_i64()).unwrap())
            .collect();
        assert_eq!(seqs, (0..=10).collect::<Vec<i64>>());
    }

    fn run_bytes(input: &[u8]) -> Vec<Json> {
        let mut out: Vec<u8> = Vec::new();
        serve(input, &mut out, &ServeOptions::default()).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| park_json::parse(l).unwrap())
            .collect()
    }

    fn seqs(frames: &[Json]) -> Vec<i64> {
        frames
            .iter()
            .map(|f| f.get("seq").and_then(|j| j.as_i64()).unwrap())
            .collect()
    }

    #[test]
    fn a_non_utf8_line_gets_an_error_frame_and_the_session_continues() {
        let frames = run_bytes(b"{\"op\":\"ping\"}\n\xff\n{\"op\":\"ping\"}\n");
        assert_eq!(kinds(&frames), ["hello", "pong", "error", "pong", "bye"]);
        assert_eq!(seqs(&frames), [0, 1, 2, 3, 4]);
        let msg = frames[2].get("message").and_then(|j| j.as_str()).unwrap();
        assert!(msg.contains("UTF-8"), "{msg}");
    }

    #[test]
    fn an_oversize_line_gets_an_error_frame_and_the_session_continues() {
        // One byte over the bound, then a request on the same read: the
        // oversize line is skipped up to its newline, nothing more.
        let mut input = b"{\"op\":\"ping\"}\n".to_vec();
        input.resize(input.len() + MAX_REQUEST_BYTES + 1, b'x');
        input.extend_from_slice(b"\n{\"op\":\"ping\"}\n");
        // A line of exactly the bound is read (and fails to parse).
        input.resize(input.len() + MAX_REQUEST_BYTES - 1, b' ');
        input.extend_from_slice(b"x\n{\"op\":\"list\"}");
        let frames = run_bytes(&input);
        assert_eq!(
            kinds(&frames),
            ["hello", "pong", "error", "pong", "error", "dbs", "bye"]
        );
        assert_eq!(seqs(&frames), [0, 1, 2, 3, 4, 5, 6]);
        let msg = frames[2].get("message").and_then(|j| j.as_str()).unwrap();
        assert!(msg.contains("exceeds"), "{msg}");
        let msg = frames[4].get("message").and_then(|j| j.as_str()).unwrap();
        assert!(msg.contains("invalid request"), "{msg}");
    }

    #[test]
    fn shutdown_snapshot_dir_writes_one_snapshot_per_database() {
        let dir = std::env::temp_dir().join(format!("park-serve-shutdown-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = format!(
            concat!(
                r#"{{"op":"create","db":"a","program":"p -> +q.","facts":"p."}}"#,
                "\n",
                r#"{{"op":"create","db":"b","program":"p -> +q.","facts":"p. r."}}"#,
                "\n",
                r#"{{"op":"shutdown","snapshot_dir":"{dir}"}}"#,
                "\n",
            ),
            dir = dir.display()
        );
        let frames = run_session(&input);
        let bye = frames.last().unwrap();
        let dbs = bye.get("databases").and_then(|j| j.as_array()).unwrap();
        assert_eq!(dbs.len(), 2);
        for (name, facts) in [("a", 1), ("b", 2)] {
            let path = dir.join(format!("{name}.snapshot.json"));
            let snap = park::storage::Snapshot::from_json(&std::fs::read_to_string(&path).unwrap())
                .unwrap();
            assert_eq!(snap.len(), facts);
            let _ = std::fs::remove_file(&path);
        }
        let _ = std::fs::remove_dir(&dir);
    }
}
