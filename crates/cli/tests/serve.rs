//! End-to-end tests of `park serve` — the park-serve/v1 protocol.
//!
//! The heart of the suite is the differential battery: a stream of
//! transactions through one live serve session must produce deltas
//! byte-identical to the same transactions applied as chained one-shot
//! `park run` processes, and to the paper-literal testkit oracle —
//! across pinned cases, regression-corpus cases, and generated fuzz
//! cases, under two policies.

use park_json::Json;
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;

fn park() -> Command {
    Command::new(env!("CARGO_BIN_EXE_park"))
}

fn write(dir: &Path, name: &str, contents: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

/// A fresh directory under the system temp dir, removed with everything in
/// it when the guard drops, on success and on a failed assertion alike.
struct TempDir(PathBuf);

impl std::ops::Deref for TempDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn tempdir(tag: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("park-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    TempDir(dir)
}

/// Run one full `park serve` session over stdin/stdout.
fn serve_session(extra_args: &[&str], input: &str) -> String {
    let mut child = park()
        .arg("serve")
        .args(extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Feed stdin from a thread: a long session's output would otherwise
    // fill the pipe while we are still writing requests.
    let mut stdin = child.stdin.take().unwrap();
    let input = input.to_string();
    let feeder = std::thread::spawn(move || {
        let _ = stdin.write_all(input.as_bytes());
    });
    let out = child.wait_with_output().unwrap();
    feeder.join().unwrap();
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// One transaction's observable effect, rendered and sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Delta {
    added: Vec<String>,
    removed: Vec<String>,
    blocked: Vec<String>,
}

fn str_list(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(|j| j.as_array())
        .unwrap_or(&[])
        .iter()
        .map(|j| j.as_str().unwrap().to_string())
        .collect()
}

/// Parse a serve transcript's `delta` frames, in order.
fn serve_deltas(transcript: &str) -> Vec<Delta> {
    transcript
        .lines()
        .map(|l| park_json::parse(l).unwrap_or_else(|e| panic!("bad frame `{l}`: {e}")))
        .filter(|doc| doc.get("frame").and_then(|j| j.as_str()) == Some("delta"))
        .map(|doc| Delta {
            added: str_list(&doc, "added"),
            removed: str_list(&doc, "removed"),
            blocked: str_list(&doc, "blocked"),
        })
        .collect()
}

/// A fact set parsed from `.facts` source (initial facts or `park run`
/// stdout), rendered the way serve deltas render facts.
fn fact_set(source: &str) -> std::collections::BTreeSet<String> {
    use park::storage::{FactStore, Vocabulary};
    let vocab = Vocabulary::new();
    let db = FactStore::from_source(Arc::clone(&vocab), source).unwrap();
    let (all, _) = FactStore::new(Arc::clone(&vocab)).diff(&db);
    all.iter().map(|(p, t)| vocab.display_fact(*p, t)).collect()
}

/// Apply `updates` to the facts in `db_src` via a one-shot `park run`
/// process; returns the result database source.
fn one_shot_run(dir: &Path, program: &Path, db_src: &str, updates: &str, policy: &str) -> String {
    let db = write(dir, "chain.facts", db_src);
    let mut cmd = park();
    cmd.args([
        "run",
        program.to_str().unwrap(),
        "--db",
        db.to_str().unwrap(),
    ]);
    if !updates.is_empty() {
        let u = write(dir, "chain.updates", updates);
        cmd.args(["--updates", u.to_str().unwrap()]);
    }
    cmd.args(["--policy", policy]);
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// A differential scenario: initial facts, then a transaction stream.
struct Scenario {
    name: String,
    program: String,
    facts: String,
    updates: Vec<String>,
}

fn pinned_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "payroll".into(),
            program: "onleave: -active(X) -> +offboard(X).
                      offb: offboard(X), payroll(X, S) -> -payroll(X, S)."
                .into(),
            facts: "active(a). active(b). payroll(a, 10). payroll(b, 20).".into(),
            updates: vec![
                "-active(a).".into(),
                "+active(c). +payroll(c, 30).".into(),
                "-active(b). -active(c).".into(),
                String::new(), // settle
            ],
        },
        Scenario {
            name: "conflict".into(),
            program: "r1: p(X) -> +q(X). r2: p(X) -> -q(X). r3: +q(X) -> +r(X).".into(),
            facts: "p(a).".into(),
            updates: vec![
                "+p(b).".into(),
                "+q(a).".into(),
                "-p(a).".into(),
                String::new(),
            ],
        },
        Scenario {
            name: "recursive".into(),
            program: "t: edge(X, Y), path(Y) -> +path(X).".into(),
            facts: "edge(a, b). edge(b, c). edge(c, d).".into(),
            updates: vec![
                "+path(d).".into(),
                "-edge(a, b). +edge(d, a).".into(),
                String::new(),
            ],
        },
    ]
}

/// Corpus and fuzz cases become scenarios: half the facts seed the
/// database, the rest arrive one per transaction, then a final settle.
fn case_scenario(name: String, case: &park_testkit::Case) -> Scenario {
    let split = case.facts.len() / 2;
    let facts = case.facts[..split].join(" ");
    let mut updates: Vec<String> = case.facts[split..]
        .iter()
        .map(|f| format!("+{f}"))
        .collect();
    updates.push(String::new());
    Scenario {
        name,
        program: case.rules.join("\n"),
        facts,
        updates,
    }
}

fn corpus_scenarios() -> Vec<Scenario> {
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("../testkit/tests/corpus");
    let mut names: Vec<PathBuf> = std::fs::read_dir(&corpus)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "case"))
        .collect();
    names.sort();
    names
        .iter()
        .map(|path| {
            let case = park_testkit::Case::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            case_scenario(
                path.file_stem().unwrap().to_string_lossy().into_owned(),
                &case,
            )
        })
        .collect()
}

fn fuzz_scenarios() -> Vec<Scenario> {
    (1..=6)
        .map(|seed| case_scenario(format!("fuzz-{seed}"), &park_testkit::generate(seed)))
        .collect()
}

/// The oracle's view of the same transaction stream, computed in-process
/// with the paper-literal evaluator.
fn oracle_deltas(scenario: &Scenario, policy: &str) -> Vec<Delta> {
    use park::engine::{CompiledProgram, ResolutionScope};
    use park::storage::{FactStore, UpdateSet, Vocabulary};
    let vocab = Vocabulary::new();
    let program = park::syntax::parse_program(&scenario.program).unwrap();
    let compiled = CompiledProgram::compile(Arc::clone(&vocab), &program).unwrap();
    let mut db = FactStore::from_source(Arc::clone(&vocab), &scenario.facts).unwrap();
    let mut deltas = Vec::new();
    for u in &scenario.updates {
        let updates = UpdateSet::from_source(&vocab, u).unwrap();
        let p_u = compiled.with_updates(&updates);
        let mut pol = park::policies::by_name(policy).unwrap();
        let run = park_testkit::oracle_evaluate(
            &p_u,
            &db,
            ResolutionScope::All,
            pol.as_mut(),
            park_testkit::OracleVariant::Faithful,
        )
        .unwrap();
        let render = |xs: &[(park::storage::PredId, park::storage::Tuple)]| -> Vec<String> {
            let mut rows: Vec<String> = xs.iter().map(|(p, t)| vocab.display_fact(*p, t)).collect();
            rows.sort();
            rows
        };
        let (added, removed) = db.diff(&run.outcome.database);
        deltas.push(Delta {
            added: render(&added),
            removed: render(&removed),
            blocked: run.outcome.blocked_display(),
        });
        db = run.outcome.database;
    }
    deltas
}

/// The chained one-shot view: each transaction is its own `park run`
/// process whose output database feeds the next.
fn chained_deltas(dir: &Path, scenario: &Scenario, policy: &str) -> Vec<Delta> {
    let program = write(dir, "chain.park", &scenario.program);
    let mut db_src = scenario.facts.clone();
    let mut deltas = Vec::new();
    for u in &scenario.updates {
        let next = one_shot_run(dir, &program, &db_src, u, policy);
        let before = fact_set(&db_src);
        let after = fact_set(&next);
        let mut added: Vec<String> = after.difference(&before).cloned().collect();
        let mut removed: Vec<String> = before.difference(&after).cloned().collect();
        added.sort();
        removed.sort();
        deltas.push(Delta {
            added,
            removed,
            // One-shot runs print blocked instances only under --stats;
            // the comparison against the oracle covers that column.
            blocked: Vec::new(),
        });
        db_src = next;
    }
    deltas
}

fn serve_scenario_deltas(scenario: &Scenario, policy: &str) -> Vec<Delta> {
    let mut lines = vec![Json::object([
        ("op", Json::str("create")),
        ("db", Json::str("d")),
        ("program", Json::str(&scenario.program)),
        ("facts", Json::str(&scenario.facts)),
        ("policy", Json::str(policy)),
    ])
    .to_compact()];
    for u in &scenario.updates {
        lines.push(
            Json::object([
                ("op", Json::str("transact")),
                ("db", Json::str("d")),
                ("updates", Json::str(u)),
            ])
            .to_compact(),
        );
    }
    lines.push(r#"{"op":"shutdown"}"#.into());
    lines.push(String::new());
    let transcript = serve_session(&[], &lines.join("\n"));
    serve_deltas(&transcript)
}

#[test]
fn served_streams_match_chained_one_shots_and_the_oracle() {
    let dir = tempdir("differential");
    let mut scenarios = pinned_scenarios();
    scenarios.extend(corpus_scenarios());
    scenarios.extend(fuzz_scenarios());
    assert!(scenarios.len() >= 12, "want a real battery");
    for scenario in &scenarios {
        for policy in ["inertia", "prefer-insert"] {
            let oracle = oracle_deltas(scenario, policy);
            let served = serve_scenario_deltas(scenario, policy);
            let chained = chained_deltas(&dir, scenario, policy);
            assert_eq!(
                served.len(),
                scenario.updates.len(),
                "{}/{policy}: every transaction must answer with a delta",
                scenario.name
            );
            for (k, ((s, c), o)) in served.iter().zip(&chained).zip(&oracle).enumerate() {
                assert_eq!(
                    (&s.added, &s.removed),
                    (&c.added, &c.removed),
                    "{}/{policy}: serve vs chained one-shots diverge at U{}",
                    scenario.name,
                    k + 1
                );
                assert_eq!(
                    (&s.added, &s.removed, &s.blocked),
                    (&o.added, &o.removed, &o.blocked),
                    "{}/{policy}: serve vs oracle diverge at U{}",
                    scenario.name,
                    k + 1
                );
            }
        }
    }
}

#[test]
fn golden_session_transcript_is_byte_stable() {
    let input = include_str!("golden/serve_session.ndjson");
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve_session.golden");
    let one = serve_session(&[], input);
    if std::env::var("UPDATE_GOLDENS").is_ok() {
        std::fs::write(&golden_path, &one).unwrap();
    }
    let golden =
        std::fs::read_to_string(&golden_path).expect("missing golden; bless with UPDATE_GOLDENS=1");
    assert_eq!(
        one,
        golden,
        "transcript drifted from {} (bless with UPDATE_GOLDENS=1)",
        golden_path.display()
    );
}

/// The acceptance scenario from the issue: two databases, 50+
/// transactions each through one resident session with a mid-stream
/// program reload, byte-identical to chained one-shot runs, with
/// vocabulary accounting that shrinks at the reload.
#[test]
fn multi_tenant_session_matches_chained_runs_through_a_reload() {
    let dir = tempdir("tenant");
    let program_v1 = "onx: -item(X) -> +seen(X).";
    let program_v2 = "onx: -item(X) -> +seen(X).\nlog: seen(X) -> +logged(X).";
    let program_b = "r: -job(X) -> +done(X).";

    // Interleaved serve session: a and b alternate; a reloads at its
    // midpoint. Transactions intern a throwaway tag constant each time
    // so the reload visibly compacts the vocabulary.
    let mut lines = vec![
        Json::object([
            ("op", Json::str("create")),
            ("db", Json::str("a")),
            ("program", Json::str(program_v1)),
        ])
        .to_compact(),
        Json::object([
            ("op", Json::str("create")),
            ("db", Json::str("b")),
            ("program", Json::str(program_b)),
        ])
        .to_compact(),
    ];
    let tx_a: Vec<String> = (0..25)
        .flat_map(|i| {
            [
                format!("+item(x{i}). +tag(tmp{i})."),
                format!("-item(x{i}). -tag(tmp{i})."),
            ]
        })
        .collect();
    let tx_b: Vec<String> = (0..25)
        .flat_map(|i| [format!("+job(j{i})."), format!("-job(j{i}).")])
        .collect();
    for k in 0..50 {
        if k == 25 {
            lines.push(
                Json::object([
                    ("op", Json::str("reload")),
                    ("db", Json::str("a")),
                    ("program", Json::str(program_v2)),
                ])
                .to_compact(),
            );
        }
        for (db, tx) in [("a", &tx_a[k]), ("b", &tx_b[k])] {
            lines.push(
                Json::object([
                    ("op", Json::str("transact")),
                    ("db", Json::str(db)),
                    ("updates", Json::str(tx)),
                ])
                .to_compact(),
            );
        }
    }
    lines.push(r#"{"op":"shutdown"}"#.into());
    lines.push(String::new());
    let transcript = serve_session(&[], &lines.join("\n"));

    // Split frames per database, keeping order.
    let frames: Vec<Json> = transcript
        .lines()
        .map(|l| park_json::parse(l).unwrap())
        .collect();
    let deltas_for = |db: &str| -> Vec<Delta> {
        frames
            .iter()
            .filter(|f| {
                f.get("frame").and_then(|j| j.as_str()) == Some("delta")
                    && f.get("db").and_then(|j| j.as_str()) == Some(db)
            })
            .map(|doc| Delta {
                added: str_list(doc, "added"),
                removed: str_list(doc, "removed"),
                blocked: str_list(doc, "blocked"),
            })
            .collect()
    };
    let served_a = deltas_for("a");
    let served_b = deltas_for("b");
    assert_eq!(served_a.len(), 50);
    assert_eq!(served_b.len(), 50);

    // Chained one-shot equivalents, one stream per database; database
    // a switches program files at the reload point.
    let p1 = write(&dir, "a1.park", program_v1);
    let p2 = write(&dir, "a2.park", program_v2);
    let pb = write(&dir, "b.park", program_b);
    let mut db_src = String::new();
    for (k, u) in tx_a.iter().enumerate() {
        let program = if k < 25 { &p1 } else { &p2 };
        let next = one_shot_run(&dir, program, &db_src, u, "inertia");
        let (before, after) = (fact_set(&db_src), fact_set(&next));
        let mut added: Vec<String> = after.difference(&before).cloned().collect();
        let mut removed: Vec<String> = before.difference(&after).cloned().collect();
        added.sort();
        removed.sort();
        assert_eq!(
            (&served_a[k].added, &served_a[k].removed),
            (&added, &removed),
            "db a diverges from chained runs at tx {}",
            k + 1
        );
        db_src = next;
    }
    let mut db_src = String::new();
    for (k, u) in tx_b.iter().enumerate() {
        let next = one_shot_run(&dir, &pb, &db_src, u, "inertia");
        let (before, after) = (fact_set(&db_src), fact_set(&next));
        let mut added: Vec<String> = after.difference(&before).cloned().collect();
        let mut removed: Vec<String> = before.difference(&after).cloned().collect();
        added.sort();
        removed.sort();
        assert_eq!(
            (&served_b[k].added, &served_b[k].removed),
            (&added, &removed),
            "db b diverges from chained runs at tx {}",
            k + 1
        );
        db_src = next;
    }

    // Memory accounting: every delta carries the storage section, and
    // the reload drops the 25 dead tag constants from a's vocabulary.
    let a_deltas: Vec<&Json> = frames
        .iter()
        .filter(|f| {
            f.get("frame").and_then(|j| j.as_str()) == Some("delta")
                && f.get("db").and_then(|j| j.as_str()) == Some("a")
        })
        .collect();
    let symbols = |f: &Json| {
        f.get("storage")
            .and_then(|s| s.get("vocab_symbols"))
            .and_then(|j| j.as_i64())
            .unwrap()
    };
    for f in &a_deltas {
        assert!(f.get("storage").is_some(), "every delta accounts storage");
    }
    let before_reload = symbols(a_deltas[24]);
    let after_reload = symbols(a_deltas[25]);
    assert!(
        after_reload < before_reload,
        "reload must compact: {before_reload} -> {after_reload}"
    );
    let reloaded = frames
        .iter()
        .find(|f| f.get("frame").and_then(|j| j.as_str()) == Some("reloaded"))
        .expect("reloaded frame");
    let rb = reloaded
        .get("vocab_before")
        .unwrap()
        .get("symbols")
        .unwrap();
    let ra = reloaded.get("vocab_after").unwrap().get("symbols").unwrap();
    assert!(ra.as_i64() < rb.as_i64(), "{reloaded:?}");
}

#[test]
fn interactive_policy_needs_a_terminal_or_the_protocol() {
    let dir = tempdir("interactive");
    let program = write(&dir, "c.park", "r1: p -> +q. r2: p -> -q.");
    let facts = write(&dir, "d.facts", "p.");

    // Satellite: a piped `park run --policy interactive` is rejected up
    // front instead of misreading its stdin as conflict answers.
    let out = park()
        .args([
            "run",
            program.to_str().unwrap(),
            "--db",
            facts.to_str().unwrap(),
            "--policy",
            "interactive",
        ])
        .stdin(Stdio::piped())
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("needs a terminal"), "{stderr}");
    assert!(stderr.contains("park serve"), "{stderr}");

    // `park serve --policy interactive` is rejected the same way.
    let out = park()
        .args(["serve", "--policy", "interactive"])
        .stdin(Stdio::piped())
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("answers"), "{stderr}");

    // In a session, `create` with the interactive policy is an error
    // frame; conflict answers travel per transaction instead.
    let transcript = serve_session(
        &[],
        concat!(
            r#"{"op":"create","db":"c","program":"r1: p -> +q. r2: p -> -q.","facts":"p.","policy":"interactive"}"#,
            "\n",
            r#"{"op":"create","db":"d","program":"r1: p -> +q. r2: p -> -q.","facts":"p."}"#,
            "\n",
            r#"{"op":"settle","db":"d","answers":["d"]}"#,
            "\n",
            r#"{"op":"settle","db":"d","answers":[]}"#,
            "\n",
            r#"{"op":"shutdown"}"#,
            "\n",
        ),
    );
    let frames: Vec<Json> = transcript
        .lines()
        .map(|l| park_json::parse(l).unwrap())
        .collect();
    let kind = |i: usize| frames[i].get("frame").and_then(|j| j.as_str()).unwrap();
    assert_eq!(kind(1), "error");
    assert!(frames[1]
        .get("message")
        .and_then(|j| j.as_str())
        .unwrap()
        .contains("answers"));
    assert_eq!(kind(2), "created");
    // "d" answer: the delete side wins, q is blocked from appearing.
    assert_eq!(kind(3), "delta");
    assert_eq!(str_list(&frames[3], "added"), Vec::<String>::new());
    assert_eq!(str_list(&frames[3], "blocked").len(), 1);
    // Exhausted answers: the error frame carries the conflict prompt.
    assert_eq!(kind(4), "error");
    let msg = frames[4].get("message").and_then(|j| j.as_str()).unwrap();
    assert!(msg.contains("no interactive answer"), "{msg}");
    assert!(msg.contains('q'), "prompt names the conflict atom: {msg}");
}

#[test]
fn tcp_listener_announces_its_port_and_serves_a_session() {
    let mut child = park()
        .args(["serve", "--listen", "127.0.0.1:0", "--once"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut status = String::new();
    BufReader::new(child.stdout.as_mut().unwrap())
        .read_line(&mut status)
        .unwrap();
    let addr = status
        .trim()
        .strip_prefix("park-serve listening on ")
        .unwrap_or_else(|| panic!("bad status line {status:?}"))
        .to_string();
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    writeln!(
        stream,
        r#"{{"op":"create","db":"hr","program":"p -> +q.","facts":"p."}}"#
    )
    .unwrap();
    writeln!(stream, r#"{{"op":"settle","db":"hr"}}"#).unwrap();
    writeln!(stream, r#"{{"op":"shutdown"}}"#).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
    assert_eq!(lines.len(), 4, "hello/created/delta/bye: {lines:?}");
    assert!(lines[0].contains("park-serve/v1"));
    assert!(lines[2].contains(r#""added":["q"]"#), "{}", lines[2]);
    assert!(lines[3].contains(r#""frame":"bye""#));
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "--once exits after the session");
}

#[test]
fn serve_journals_are_replayable_update_sources() {
    let dir = tempdir("journal");
    let journal = dir.join("hr.journal");
    let _ = std::fs::remove_file(&journal);
    let input = format!(
        concat!(
            r#"{{"op":"create","db":"hr","program":"onleave: -active(X) -> +offboard(X).","facts":"active(ann). active(bob).","journal":{journal}}}"#,
            "\n",
            r#"{{"op":"transact","db":"hr","updates":"-active(ann)."}}"#,
            "\n",
            r#"{{"op":"settle","db":"hr"}}"#,
            "\n",
            r#"{{"op":"transact","db":"hr","updates":"-active(bob). +active(cyd)."}}"#,
            "\n",
            r#"{{"op":"shutdown"}}"#,
            "\n",
        ),
        journal = Json::str(journal.to_str().unwrap()).to_compact()
    );
    serve_session(&[], &input);
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    assert_eq!(lines[0], "-active(ann).");
    assert_eq!(lines[1].trim(), "", "settle journals a blank line");
    assert_eq!(lines[2], "-active(bob). +active(cyd).");
    let _ = std::fs::remove_file(&journal);
}

/// Satellite: a snapshot written by one session restores into a *fresh*
/// session whose vocabulary interned the constants in a different
/// order — and queries render identically.
#[test]
fn snapshots_restore_across_sessions_with_different_intern_orders() {
    let dir = tempdir("xsession");
    let snap = dir.join("x.snapshot.json");
    let _ = std::fs::remove_file(&snap);
    let snap_json = Json::str(snap.to_str().unwrap()).to_compact();

    // Session 1 interns zeta before alpha.
    let input = format!(
        concat!(
            r#"{{"op":"create","db":"s1","program":"r: p(X) -> +q(X).","facts":"p(zeta). p(alpha)."}}"#,
            "\n",
            r#"{{"op":"settle","db":"s1"}}"#,
            "\n",
            r#"{{"op":"snapshot","db":"s1","path":{snap}}}"#,
            "\n",
            r#"{{"op":"query","db":"s1","query":"?- q(X)."}}"#,
            "\n",
            r#"{{"op":"shutdown"}}"#,
            "\n",
        ),
        snap = snap_json
    );
    let t1 = serve_session(&[], &input);
    let rows1 = t1
        .lines()
        .map(|l| park_json::parse(l).unwrap())
        .find(|f| f.get("frame").and_then(|j| j.as_str()) == Some("rows"))
        .map(|f| str_list(&f, "rows"))
        .unwrap();
    assert_eq!(
        rows1,
        ["X = alpha", "X = zeta"],
        "sorted by name, not SymId"
    );

    // Session 2 (a separate process) interns other constants first, so
    // every restored constant gets a different SymId.
    let input = format!(
        concat!(
            r#"{{"op":"create","db":"s2","program":"r: p(X) -> +q(X).","facts":"p(middle). q(omega)."}}"#,
            "\n",
            r#"{{"op":"restore","db":"s2","path":{snap}}}"#,
            "\n",
            r#"{{"op":"query","db":"s2","query":"?- q(X)."}}"#,
            "\n",
            r#"{{"op":"state","db":"s2"}}"#,
            "\n",
            r#"{{"op":"shutdown"}}"#,
            "\n",
        ),
        snap = snap_json
    );
    let t2 = serve_session(&[], &input);
    let frames: Vec<Json> = t2.lines().map(|l| park_json::parse(l).unwrap()).collect();
    let rows2 = frames
        .iter()
        .find(|f| f.get("frame").and_then(|j| j.as_str()) == Some("rows"))
        .map(|f| str_list(f, "rows"))
        .unwrap();
    assert_eq!(rows1, rows2, "restored rows render identically");
    let state = frames
        .iter()
        .find(|f| f.get("frame").and_then(|j| j.as_str()) == Some("state"))
        .map(|f| str_list(f, "facts"))
        .unwrap();
    assert_eq!(state, ["p(alpha)", "p(zeta)", "q(alpha)", "q(zeta)"]);
    let _ = std::fs::remove_file(&snap);
}

/// Satellite: the same audit end-to-end through the REPL's
/// `:snapshot`/`:restore`, with reversed intern order in session two.
#[test]
fn repl_snapshot_restores_into_a_fresh_session() {
    let dir = tempdir("repl-x");
    let snap = dir.join("repl.snapshot.json");
    let _ = std::fs::remove_file(&snap);
    let program = write(&dir, "p.park", "r: p(X) -> +q(X).");
    let facts1 = write(&dir, "d1.facts", "p(zeta). p(alpha).");
    let facts2 = write(&dir, "d2.facts", "p(middle).");

    let run_repl = |db: &Path, script: String| -> String {
        let mut child = park()
            .args([
                "repl",
                program.to_str().unwrap(),
                "--db",
                db.to_str().unwrap(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        child
            .stdin
            .take()
            .unwrap()
            .write_all(script.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };

    let out1 = run_repl(
        &facts1,
        format!(":settle\n:snapshot {}\n?- q(X).\n:quit\n", snap.display()),
    );
    let out2 = run_repl(
        &facts2,
        format!(":restore {}\n?- q(X).\n:quit\n", snap.display()),
    );
    let rows = |out: &str| -> Vec<String> {
        out.lines()
            .map(|l| l.trim_start_matches("park> "))
            .filter(|l| l.starts_with("X = "))
            .map(|l| l.to_string())
            .collect()
    };
    assert_eq!(rows(&out1), ["X = alpha", "X = zeta"], "{out1}");
    assert_eq!(rows(&out1), rows(&out2), "\n1: {out1}\n2: {out2}");
    let _ = std::fs::remove_file(&snap);
}

// ---------------------------------------------------------------------------
// Warm-state invalidation properties (cross-transaction incremental mode)
// ---------------------------------------------------------------------------

use proptest::prelude::*;

/// Certified reachability program (the incrementality-safe fragment).
const INC_V1: &str = "e(X, Y) -> +r(X, Y). r(X, Y), e(Y, Z) -> +r(X, Z).";
/// A certified extension reloads can swap in.
const INC_V2: &str = "e(X, Y) -> +r(X, Y). r(X, Y), e(Y, Z) -> +r(X, Z). r(X, Y) -> +seen(X).";
/// An *uncertified* variant (recursion through negation — stratified
/// negation would certify): reloading to it must force every following
/// transaction cold.
const INC_V3: &str = "e(X, Y), !r(Y, X) -> +r(X, Y).";

/// Render one abstract draw into a park-serve/v1 request line. The op mix
/// deliberately interleaves warm-friendly insert transactions with every
/// operation that must invalidate or bypass the warm state: deletions,
/// settles, `policy`, `reload` (certified and uncertified), `compact`,
/// and `restore`.
fn render_op(draw: (u8, u8, u8), snap: &str) -> String {
    let (kind, a, b) = draw;
    let c = |i: u8| format!("c{}", i % 5);
    let tx = |updates: String| {
        Json::object([
            ("op", Json::str("transact")),
            ("db", Json::str("x")),
            ("updates", Json::str(&updates)),
        ])
        .to_compact()
    };
    match kind % 8 {
        0..=2 => tx(format!("+e({}, {}).", c(a), c(b))),
        3 => tx(format!("-e({}, {}).", c(a), c(b))),
        4 => Json::object([("op", Json::str("settle")), ("db", Json::str("x"))]).to_compact(),
        5 => Json::object([
            ("op", Json::str("policy")),
            ("db", Json::str("x")),
            (
                "policy",
                Json::str(["inertia", "prefer-insert", "prefer-delete"][(a % 3) as usize]),
            ),
        ])
        .to_compact(),
        6 => Json::object([
            ("op", Json::str("reload")),
            ("db", Json::str("x")),
            (
                "program",
                Json::str([INC_V1, INC_V2, INC_V3][(a % 3) as usize]),
            ),
        ])
        .to_compact(),
        _ => {
            if b % 2 == 0 {
                Json::object([("op", Json::str("compact")), ("db", Json::str("x"))]).to_compact()
            } else {
                Json::object([
                    ("op", Json::str("restore")),
                    ("db", Json::str("x")),
                    ("path", Json::str(snap)),
                ])
                .to_compact()
            }
        }
    }
}

/// Drop `stats` frames — the only frames allowed to differ between the
/// incremental and plain sessions (they carry the incremental counters).
fn strip_stats(transcript: &str) -> String {
    transcript
        .lines()
        .filter(|l| {
            park_json::parse(l)
                .ok()
                .and_then(|f| f.get("frame").and_then(|j| j.as_str().map(String::from)))
                .as_deref()
                != Some("stats")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn stats_section(transcript: &str, key: &str) -> Option<Json> {
    transcript
        .lines()
        .map(|l| park_json::parse(l).unwrap())
        .find(|f| f.get("frame").and_then(|j| j.as_str()) == Some("stats"))
        .and_then(|f| f.get(key).cloned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: for ANY interleaving of transactions with the warm-state
    /// hazards (`reload`, `compact`, `policy`, `restore`), a session run
    /// with `--incremental` produces a transcript byte-identical to the
    /// plain session outside the opt-in `stats` frame — i.e. no operation
    /// ever leaks stale warm state into an observable answer.
    #[test]
    fn incremental_sessions_are_unobservable_across_op_interleavings(
        draws in prop::collection::vec((0u8..8, 0u8..16, 0u8..16), 1..12)
    ) {
        let dir = tempdir("prop-inc");
        let snap = dir.join("prop-inc.snapshot.json");
        let snap_str = snap.to_str().unwrap().to_string();
        let mut lines = vec![
            Json::object([
                ("op", Json::str("create")),
                ("db", Json::str("x")),
                ("program", Json::str(INC_V1)),
                ("facts", Json::str("e(c0, c1). e(c1, c2).")),
            ])
            .to_compact(),
            Json::object([
                ("op", Json::str("snapshot")),
                ("db", Json::str("x")),
                ("path", Json::str(&snap_str)),
            ])
            .to_compact(),
        ];
        let mut tx_ops = 0u64;
        let mut deletion_txs = 0u64;
        for &d in &draws {
            if matches!(d.0 % 8, 0..=4) {
                tx_ops += 1;
            }
            if d.0 % 8 == 3 {
                deletion_txs += 1;
            }
            lines.push(render_op(d, &snap_str));
        }
        // A trailing settle proves the committed states agree, not just
        // the per-transaction deltas.
        lines.push(Json::object([("op", Json::str("settle")), ("db", Json::str("x"))]).to_compact());
        tx_ops += 1;
        lines.push(Json::object([("op", Json::str("stats")), ("db", Json::str("x"))]).to_compact());
        lines.push(r#"{"op":"shutdown"}"#.into());
        lines.push(String::new());
        let input = lines.join("\n");

        let plain = serve_session(&[], &input);
        let inc = serve_session(&["--incremental"], &input);
        prop_assert_eq!(strip_stats(&plain), strip_stats(&inc));

        // Bookkeeping invariants: the plain session reports no incremental
        // section; the incremental one accounts every transaction as
        // exactly one of warm (insert-only or partial-stratum) or cold.
        prop_assert!(stats_section(&plain, "incremental").is_none());
        let section = stats_section(&inc, "incremental").expect("incremental counters");
        let count = |k: &str| section.get(k).and_then(|j| j.as_i64()).unwrap();
        prop_assert_eq!(
            count("incremental_txs") + count("partial_stratum_txs") + count("cold_txs"),
            tx_ops as i64
        );
        // The deletion-bearing and attributed-cold buckets never overcount
        // the transactions that exist: each transaction lands in at most
        // one of partial/deletion/uncertified, and each cold transaction
        // is blamed on at most one reason.
        prop_assert!(
            count("partial_stratum_txs") + count("cold_txs_deletion") + count("cold_txs_uncertified")
                <= tx_ops as i64
        );
        prop_assert!(
            count("cold_txs_deletion") + count("cold_txs_uncertified") <= count("cold_txs")
        );
        // Deletion-flavoured outcomes require an actual deletion draw.
        prop_assert!(count("cold_txs_deletion") <= deletion_txs as i64);
        prop_assert!(count("partial_stratum_txs") <= deletion_txs as i64);
        let _ = std::fs::remove_file(&snap);
    }
}

/// A designed interleaving pinning the invalidation semantics: warm hits
/// happen at all, and each hazard op drops the warm state (observable as
/// an invalidation count or a cold transaction immediately after).
#[test]
fn warm_state_survives_only_until_the_next_hazard_op() {
    let dir = tempdir("inc-hazard");
    let snap = dir.join("hazard.snapshot.json");
    let snap_str = snap.to_str().unwrap().to_string();
    let tx = |u: &str| {
        Json::object([
            ("op", Json::str("transact")),
            ("db", Json::str("x")),
            ("updates", Json::str(u)),
        ])
        .to_compact()
    };
    let op = |o: &str, extra: Vec<(&str, Json)>| {
        let mut fields = vec![("op", Json::str(o)), ("db", Json::str("x"))];
        fields.extend(extra);
        Json::object(fields).to_compact()
    };
    let lines = vec![
        Json::object([
            ("op", Json::str("create")),
            ("db", Json::str("x")),
            ("program", Json::str(INC_V1)),
            ("facts", Json::str("e(c0, c1).")),
            ("incremental", Json::Bool(true)),
        ])
        .to_compact(),
        op("snapshot", vec![("path", Json::str(&snap_str))]),
        tx("+e(c1, c2)."), // cold: seeds the warm state
        tx("+e(c2, c3)."), // warm
        tx("-e(c2, c3)."), // warm: a base-fact deletion replays partially
        op("policy", vec![("policy", Json::str("prefer-insert"))]), // invalidates
        tx("+e(c3, c4)."), // cold reseed
        tx("+e(c4, c0)."), // warm
        op("restore", vec![("path", Json::str(&snap_str))]), // invalidates
        tx("+e(c1, c2)."), // cold reseed
        tx("+e(c2, c3)."), // warm
        op("compact", vec![]), // invalidates
        tx("+e(c3, c4)."), // cold reseed
        op("reload", vec![("program", Json::str(INC_V3))]), // uncertified now
        tx("+e(c4, c0)."), // cold: uncertified programs never warm
        op("stats", vec![]),
        r#"{"op":"shutdown"}"#.into(),
        String::new(),
    ];
    let transcript = serve_session(&[], &lines.join("\n"));
    let section = stats_section(&transcript, "incremental").expect("incremental counters");
    let count = |k: &str| section.get(k).and_then(|j| j.as_i64()).unwrap();
    assert_eq!(count("incremental_txs"), 3, "{section:?}");
    assert_eq!(count("partial_stratum_txs"), 1, "{section:?}");
    assert_eq!(count("cold_txs"), 5, "{section:?}");
    // The base-fact deletion stayed warm (the partial-stratum path), so no
    // cold transaction is blamed on a deletion; exactly one is blamed on
    // the uncertified program, and seeding/reseeding runs on neither.
    assert_eq!(count("cold_txs_deletion"), 0, "{section:?}");
    assert_eq!(count("cold_txs_uncertified"), 1, "{section:?}");
    assert!(count("invalidations") >= 4, "{section:?}");
    assert_eq!(
        section.get("certified").and_then(|j| j.as_bool()),
        Some(false),
        "after the reload to the negated program: {section:?}"
    );
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn a_session_with_atoms_wider_than_a_column_mask_answers_every_frame() {
    let vars: Vec<String> = (0..33).map(|i| format!("X{i}")).collect();
    let mut cols: Vec<String> = (0..33).map(|i| format!("c{i}")).collect();
    cols[0] = "a".into();
    let create = Json::object([
        ("op", Json::str("create")),
        ("db", Json::str("wide")),
        (
            "program",
            Json::str(format!("p({}), r(X32) -> +q(X0).", vars.join(", "))),
        ),
        ("facts", Json::str(format!("p({}).", cols.join(", ")))),
    ]);
    let input = [
        create.to_string(),
        r#"{"op":"transact","db":"wide","updates":"+r(c32)."}"#.into(),
        r#"{"op":"create","db":"next","program":"p -> +q.","facts":"p."}"#.into(),
        r#"{"op":"transact","db":"next","updates":"+s."}"#.into(),
        r#"{"op":"ping"}"#.into(),
    ]
    .join("\n");
    let transcript = serve_session(&[], &input);
    let frames: Vec<Json> = transcript
        .lines()
        .map(|l| park_json::parse(l).unwrap())
        .collect();
    let kinds: Vec<&str> = frames
        .iter()
        .map(|f| f.get("frame").and_then(|j| j.as_str()).unwrap())
        .collect();
    assert_eq!(
        kinds,
        ["hello", "created", "delta", "created", "delta", "pong", "bye"],
        "{transcript}"
    );
    assert_eq!(str_list(&frames[2], "added"), ["q(a)", "r(c32)"]);
}
