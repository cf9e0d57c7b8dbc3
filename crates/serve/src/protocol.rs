//! The `park-serve/v1` wire protocol: ndjson requests in, ndjson frames out.
//!
//! Every input line is one JSON object with an `"op"` field; every op is
//! answered by one *batch* of one or more frames carrying the request's
//! sequence number. Frames are single-line JSON objects whose first two
//! members are always `"frame"` (the frame kind) and `"seq"`. The session
//! opens with a `hello` frame at seq 0 and ends with a `bye` frame; blank
//! lines and lines starting with `#` are skipped without consuming a
//! sequence number. See docs/serve.md for the full specification.

use crate::ServeOptions;
use park::engine::{EngineOptions, ResolutionScope};
use park_json::Json;

/// The protocol revision announced in the `hello` frame.
pub const SCHEMA: &str = "park-serve/v1";

/// A parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// An operation addressed to one named database.
    Db {
        /// The database name (`"db"` field).
        db: String,
        /// The operation.
        op: DbOp,
    },
    /// `{"op": "list"}` — enumerate open databases in creation order.
    List,
    /// `{"op": "ping"}` — liveness check.
    Ping,
    /// `{"op": "shutdown"}` — end the session; with `"snapshot_dir"`,
    /// write a final snapshot of every open database into that directory.
    Shutdown {
        /// Directory to write `<db>.snapshot.json` files into.
        snapshot_dir: Option<String>,
    },
}

/// A per-database operation.
#[derive(Debug, Clone)]
pub enum DbOp {
    /// `{"op": "create", "db": .., "program": ..}` — compile a rule
    /// program and open a database under `db`.
    Create {
        /// Rule program source.
        program: String,
        /// Initial facts source (default empty).
        facts: String,
        /// Session `SELECT` policy name (default: the serve default).
        policy: String,
        /// Engine options resolved from `scope`.
        options: EngineOptions,
        /// Journal file to append committed update sets to.
        journal: Option<String>,
        /// Cross-transaction incremental evaluation (default: the serve
        /// default; see docs/incremental.md).
        incremental: bool,
    },
    /// `{"op": "transact", "db": .., "updates": "+p(a)."}` — run one
    /// transaction through the rules and commit. `{"op": "settle"}` is
    /// the same with an empty update set. Optional fields: `answers`
    /// (conflict resolutions for this transaction, e.g. `["i", "d"]`),
    /// `trace` (emit a trace frame), and `metrics` (emit a park-metrics/v1
    /// frame).
    Transact {
        /// `.updates` source, e.g. `"+q(b). -p(a)."`.
        updates: String,
        /// Scripted conflict answers (`"i"`/`"insert"`/`"+"`, `"d"`/...).
        answers: Option<Vec<String>>,
        /// Emit the execution trace for this transaction.
        trace: bool,
        /// Emit a park-metrics/v1 document for this transaction.
        metrics: bool,
    },
    /// `{"op": "query", "db": .., "query": "?- p(X)."}` or
    /// `{"op": "query", "db": .., "pred": "p"}`.
    Query {
        /// Conjunctive query source (mutually exclusive with `pred`).
        query: Option<String>,
        /// Predicate name to dump (mutually exclusive with `query`).
        pred: Option<String>,
    },
    /// `{"op": "state", "db": ..}` — every fact, rendered and sorted.
    State,
    /// `{"op": "stats", "db": ..}` — transaction count and memory
    /// accounting (facts, encoded bytes, vocabulary intern-table sizes).
    Stats,
    /// `{"op": "reload", "db": .., "program": ..}` — swap the rule
    /// program, keeping state. Also a vocabulary compaction point.
    Reload {
        /// New rule program source.
        program: String,
    },
    /// `{"op": "compact", "db": ..}` — re-intern the live state and
    /// program into a fresh vocabulary (see docs/storage.md).
    Compact,
    /// `{"op": "policy", "db": .., "policy": ..}` — change the session
    /// policy for subsequent transactions.
    Policy {
        /// New policy name.
        policy: String,
    },
    /// `{"op": "snapshot", "db": .., "path": ..}` — write the state as a
    /// constant-level JSON snapshot (portable across sessions).
    Snapshot {
        /// Output file path.
        path: String,
    },
    /// `{"op": "restore", "db": .., "path": ..}` — replace the state
    /// from a snapshot file (any session's; constants re-intern).
    Restore {
        /// Snapshot file path.
        path: String,
    },
    /// `{"op": "close", "db": ..}` — close the database, optionally
    /// writing a final snapshot to `"snapshot"`.
    Close {
        /// Snapshot file path to write before closing.
        snapshot: Option<String>,
    },
}

/// Render one protocol frame: a compact JSON object whose first members
/// are `"frame"` and `"seq"`, followed by `fields` in order.
pub fn frame(kind: &str, seq: u64, fields: Vec<(&str, Json)>) -> String {
    let mut members: Vec<(String, Json)> = Vec::with_capacity(fields.len() + 2);
    members.push(("frame".into(), Json::str(kind)));
    members.push(("seq".into(), Json::Int(seq as i64)));
    members.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Object(members).to_compact()
}

/// Render an `error` frame; `db` is included when the failing op
/// addressed a database.
pub fn error_frame(seq: u64, db: Option<&str>, message: &str) -> String {
    let mut fields = Vec::new();
    if let Some(db) = db {
        fields.push(("db", Json::str(db)));
    }
    fields.push(("message", Json::str(message)));
    frame("error", seq, fields)
}

/// Render a sorted string list as a JSON array.
pub fn str_array(items: &[String]) -> Json {
    Json::Array(items.iter().map(Json::str).collect())
}

fn required_str(obj: &Json, key: &str, op: &str) -> Result<String, String> {
    match obj.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(_) => Err(format!("`{key}` must be a string in op `{op}`")),
        None => Err(format!("op `{op}` requires a `{key}` field")),
    }
}

fn optional_str(obj: &Json, key: &str) -> Result<Option<String>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("`{key}` must be a string")),
    }
}

fn optional_bool(obj: &Json, key: &str, default: bool) -> Result<bool, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("`{key}` must be a boolean")),
    }
}

fn parse_scope(s: &str) -> Result<ResolutionScope, String> {
    match s {
        "all" => Ok(ResolutionScope::All),
        "one" => Ok(ResolutionScope::One),
        other => Err(format!("unknown scope `{other}`")),
    }
}

/// The display name of a resolution scope (inverse of the `scope` field).
pub fn scope_name(scope: ResolutionScope) -> &'static str {
    match scope {
        ResolutionScope::All => "all",
        ResolutionScope::One => "one",
    }
}

/// Parse one request line against the session defaults. Errors are
/// human-readable messages destined for an `error` frame.
pub fn parse_request(line: &str, defaults: &ServeOptions) -> Result<Request, String> {
    let doc = park_json::parse(line).map_err(|e| format!("invalid request: {e}"))?;
    if doc.as_object().is_none() {
        return Err("invalid request: expected a JSON object".into());
    }
    let op = required_str(&doc, "op", "?")?;
    let op = op.as_str();
    match op {
        "list" => Ok(Request::List),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown {
            snapshot_dir: optional_str(&doc, "snapshot_dir")?,
        }),
        _ => {
            let db = required_str(&doc, "db", op)?;
            let dbop = match op {
                "create" => {
                    let mut options = EngineOptions {
                        scope: defaults.scope,
                        ..EngineOptions::default()
                    };
                    if let Some(s) = optional_str(&doc, "scope")? {
                        options.scope = parse_scope(&s)?;
                    }
                    DbOp::Create {
                        program: required_str(&doc, "program", op)?,
                        facts: optional_str(&doc, "facts")?.unwrap_or_default(),
                        policy: optional_str(&doc, "policy")?
                            .unwrap_or_else(|| defaults.policy.clone()),
                        options,
                        journal: optional_str(&doc, "journal")?,
                        incremental: optional_bool(&doc, "incremental", defaults.incremental)?,
                    }
                }
                "transact" | "settle" => {
                    let updates = if op == "settle" {
                        if doc.get("updates").is_some() {
                            return Err("op `settle` takes no `updates`".into());
                        }
                        String::new()
                    } else {
                        required_str(&doc, "updates", op)?
                    };
                    let answers = match doc.get("answers") {
                        None | Some(Json::Null) => None,
                        Some(Json::Array(items)) => {
                            let mut answers = Vec::with_capacity(items.len());
                            for item in items {
                                match item.as_str() {
                                    Some(s) => answers.push(s.to_string()),
                                    None => {
                                        return Err("`answers` must be an array of strings".into())
                                    }
                                }
                            }
                            Some(answers)
                        }
                        Some(_) => return Err("`answers` must be an array of strings".into()),
                    };
                    DbOp::Transact {
                        updates,
                        answers,
                        trace: optional_bool(&doc, "trace", false)?,
                        metrics: optional_bool(&doc, "metrics", false)?,
                    }
                }
                "query" => {
                    let query = optional_str(&doc, "query")?;
                    let pred = optional_str(&doc, "pred")?;
                    if query.is_some() == pred.is_some() {
                        return Err("op `query` takes exactly one of `query` or `pred`".into());
                    }
                    DbOp::Query { query, pred }
                }
                "state" => DbOp::State,
                "stats" => DbOp::Stats,
                "reload" => DbOp::Reload {
                    program: required_str(&doc, "program", op)?,
                },
                "compact" => DbOp::Compact,
                "policy" => DbOp::Policy {
                    policy: required_str(&doc, "policy", op)?,
                },
                "snapshot" => DbOp::Snapshot {
                    path: required_str(&doc, "path", op)?,
                },
                "restore" => DbOp::Restore {
                    path: required_str(&doc, "path", op)?,
                },
                "close" => DbOp::Close {
                    snapshot: optional_str(&doc, "snapshot")?,
                },
                other => return Err(format!("unknown op `{other}`")),
            };
            Ok(Request::Db { db, op: dbop })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defaults() -> ServeOptions {
        ServeOptions::default()
    }

    #[test]
    fn frames_lead_with_kind_and_seq() {
        let f = frame("ok", 7, vec![("db", Json::str("hr"))]);
        assert_eq!(f, r#"{"frame":"ok","seq":7,"db":"hr"}"#);
        assert_eq!(
            error_frame(3, Some("hr"), "boom"),
            r#"{"frame":"error","seq":3,"db":"hr","message":"boom"}"#
        );
    }

    #[test]
    fn parse_create_resolves_engine_options() {
        let req = parse_request(
            r#"{"op":"create","db":"hr","program":"p -> +q.","eval":"naive","scope":"one","threads":4,"trace":true}"#,
            &defaults(),
        )
        .unwrap();
        let Request::Db {
            db,
            op: DbOp::Create {
                options, policy, ..
            },
        } = req
        else {
            panic!("expected create")
        };
        assert_eq!(db, "hr");
        assert_eq!(policy, "inertia");
        // The retired `eval`, `threads` and `trace` keys are ignored like
        // any unknown key.
        assert_eq!(
            options,
            EngineOptions {
                scope: ResolutionScope::One,
                ..EngineOptions::default()
            }
        );
    }

    fn create_options(line: &str) -> EngineOptions {
        let Request::Db {
            op: DbOp::Create { options, .. },
            ..
        } = parse_request(line, &defaults()).unwrap()
        else {
            panic!("expected create")
        };
        options
    }

    #[test]
    fn create_ignores_the_retired_threads_key() {
        let plain = create_options(r#"{"op":"create","db":"d","program":"p -> +q."}"#);
        for threads in ["4", "0", "\"many\""] {
            let line =
                format!(r#"{{"op":"create","db":"d","program":"p -> +q.","threads":{threads}}}"#);
            assert_eq!(create_options(&line), plain, "{line}");
        }
    }

    #[test]
    fn create_ignores_the_retired_trace_key() {
        let plain = create_options(r#"{"op":"create","db":"d","program":"p -> +q."}"#);
        for trace in ["true", "false", "\"yes\""] {
            let line =
                format!(r#"{{"op":"create","db":"d","program":"p -> +q.","trace":{trace}}}"#);
            assert_eq!(create_options(&line), plain, "{line}");
        }
    }

    #[test]
    fn create_inherits_session_defaults() {
        let mut opts = defaults();
        opts.policy = "prefer-insert".into();
        opts.scope = ResolutionScope::One;
        let req = parse_request(r#"{"op":"create","db":"d","program":""}"#, &opts).unwrap();
        let Request::Db {
            op: DbOp::Create {
                options, policy, ..
            },
            ..
        } = req
        else {
            panic!("expected create")
        };
        assert_eq!(policy, "prefer-insert");
        assert_eq!(options.scope, ResolutionScope::One);
    }

    #[test]
    fn create_resolves_the_incremental_flag() {
        let d = defaults();
        let get = |line: &str, opts: &ServeOptions| {
            let Request::Db {
                op: DbOp::Create { incremental, .. },
                ..
            } = parse_request(line, opts).unwrap()
            else {
                panic!("expected create")
            };
            incremental
        };
        assert!(!get(r#"{"op":"create","db":"d","program":""}"#, &d));
        assert!(get(
            r#"{"op":"create","db":"d","program":"","incremental":true}"#,
            &d
        ));
        let mut on = defaults();
        on.incremental = true;
        assert!(get(r#"{"op":"create","db":"d","program":""}"#, &on));
        assert!(!get(
            r#"{"op":"create","db":"d","program":"","incremental":false}"#,
            &on
        ));
    }

    #[test]
    fn settle_is_an_empty_transaction() {
        let req = parse_request(r#"{"op":"settle","db":"d"}"#, &defaults()).unwrap();
        let Request::Db {
            op: DbOp::Transact { updates, .. },
            ..
        } = req
        else {
            panic!("expected transact")
        };
        assert!(updates.is_empty());
        assert!(parse_request(r#"{"op":"settle","db":"d","updates":"+p."}"#, &defaults()).is_err());
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        let d = defaults();
        for (line, needle) in [
            ("not json", "invalid request"),
            ("[1,2]", "expected a JSON object"),
            (r#"{"db":"d"}"#, "requires a `op` field"),
            (
                r#"{"op":"transact","db":"d"}"#,
                "requires a `updates` field",
            ),
            (r#"{"op":"frobnicate","db":"d"}"#, "unknown op"),
            (r#"{"op":"transact","updates":"+p."}"#, "requires a `db`"),
            (
                r#"{"op":"query","db":"d","query":"?- p.","pred":"p"}"#,
                "exactly one",
            ),
            (r#"{"op":"query","db":"d"}"#, "exactly one"),
            (
                r#"{"op":"transact","db":"d","updates":"","answers":[1]}"#,
                "array of strings",
            ),
        ] {
            let err = parse_request(line, &d).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }
}
