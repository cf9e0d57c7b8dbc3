//! End-to-end tests of the `park` binary.

use std::path::{Path, PathBuf};
use std::process::Command;

fn park() -> Command {
    Command::new(env!("CARGO_BIN_EXE_park"))
}

fn write(dir: &std::path::Path, name: &str, contents: &str) -> PathBuf {
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
    let dir = std::env::temp_dir().join(format!("park-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    TempDir(dir)
}

#[test]
fn run_p1_prints_result() {
    let dir = tempdir("p1");
    let program = write(&dir, "p1.park", "p -> +q. p -> -a. q -> +a.");
    let facts = write(&dir, "d.facts", "p.");
    let out = park()
        .args([
            "run",
            program.to_str().unwrap(),
            "--db",
            facts.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "p.\nq.");
}

#[test]
fn run_handles_atoms_wider_than_a_column_mask() {
    let dir = tempdir("wide");
    let vars: Vec<String> = (0..33).map(|i| format!("X{i}")).collect();
    let mut cols: Vec<String> = (0..33).map(|i| format!("c{i}")).collect();
    cols[0] = "a".into();
    let program = write(
        &dir,
        "wide.park",
        &format!("p({}), r(X32) -> +q(X0).", vars.join(", ")),
    );
    let facts = write(&dir, "d.facts", &format!("p({}). r(c32).", cols.join(", ")));
    let out = park()
        .args([
            "run",
            program.to_str().unwrap(),
            "--db",
            facts.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.lines().any(|l| l == "q(a)."), "{stdout}");
}

#[test]
fn run_with_trace_and_stats() {
    let dir = tempdir("trace");
    let program = write(&dir, "p.park", "r1: p -> +q. r2: p -> -q.");
    let facts = write(&dir, "d.facts", "p.");
    let out = park()
        .args([
            "run",
            program.to_str().unwrap(),
            "--db",
            facts.to_str().unwrap(),
            "--trace",
            "--stats",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("inconsistent: q"), "{stdout}");
    assert!(stderr.contains("restarts=1"), "{stderr}");
}

#[test]
fn run_with_updates_and_policy() {
    let dir = tempdir("eca");
    let program = write(&dir, "p.park", "r1: p(X) -> -s(X).");
    let facts = write(&dir, "d.facts", "p(b).");
    let updates = write(&dir, "u.updates", "+s(b).");
    // transactions-win keeps the inserted s(b); inertia drops it.
    for (policy, expect_s) in [("transactions-win", true), ("inertia", false)] {
        let out = park()
            .args([
                "run",
                program.to_str().unwrap(),
                "--db",
                facts.to_str().unwrap(),
                "--updates",
                updates.to_str().unwrap(),
                "--policy",
                policy,
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            stdout.contains("s(b)."),
            expect_s,
            "policy {policy}: {stdout}"
        );
    }
}

#[test]
fn check_reports_unsafe_rules() {
    let dir = tempdir("check");
    let bad = write(&dir, "bad.park", "p(X) -> +q(X, Y).");
    let out = park()
        .args(["check", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("safety condition 1"));

    let good = write(&dir, "good.park", "p(X) -> +q(X).");
    let out = park()
        .args(["check", good.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("1 rules, safe"));
}

#[test]
fn snapshot_is_written() {
    let dir = tempdir("snap");
    let program = write(&dir, "p.park", "p -> +q.");
    let facts = write(&dir, "d.facts", "p.");
    let snap = dir.join("out.json");
    let out = park()
        .args([
            "run",
            program.to_str().unwrap(),
            "--db",
            facts.to_str().unwrap(),
            "--snapshot",
            snap.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = std::fs::read_to_string(&snap).unwrap();
    assert!(json.contains("\"q\""), "{json}");
}

#[test]
fn baseline_naive_differs_from_run_on_p2() {
    let dir = tempdir("naive");
    let program = write(
        &dir,
        "p2.park",
        "p -> +q. p -> -a. q -> +a. !a -> +r. a -> +s.",
    );
    let facts = write(&dir, "d.facts", "p.");
    let park_out = park()
        .args([
            "run",
            program.to_str().unwrap(),
            "--db",
            facts.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let naive_out = park()
        .args([
            "baseline",
            "naive",
            program.to_str().unwrap(),
            "--db",
            facts.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(park_out.status.success() && naive_out.status.success());
    let park_txt = String::from_utf8_lossy(&park_out.stdout);
    let naive_txt = String::from_utf8_lossy(&naive_out.stdout);
    assert!(!park_txt.contains("s."), "{park_txt}");
    assert!(naive_txt.contains("s."), "{naive_txt}");
}

#[test]
fn baseline_immediate_divergence_is_an_error() {
    let dir = tempdir("imm");
    let program = write(&dir, "p.park", "p, a -> -a. p, !a -> +a.");
    let facts = write(&dir, "d.facts", "p.");
    let out = park()
        .args([
            "baseline",
            "immediate",
            program.to_str().unwrap(),
            "--db",
            facts.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("diverged"));
}

#[test]
fn workload_generation() {
    let dir = tempdir("wl");
    let out = park()
        .args([
            "workload",
            "payroll",
            "--n",
            "5",
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for f in ["payroll.park", "payroll.facts", "payroll.updates"] {
        assert!(dir.join(f).exists(), "missing {f}");
    }
    // The generated workload runs.
    let run = park()
        .args([
            "run",
            dir.join("payroll.park").to_str().unwrap(),
            "--db",
            dir.join("payroll.facts").to_str().unwrap(),
            "--updates",
            dir.join("payroll.updates").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
}

#[test]
fn repl_session_end_to_end() {
    use std::io::Write as _;
    use std::process::Stdio;
    let dir = tempdir("repl");
    let program = write(
        &dir,
        "p.park",
        "onleave: -active(X) -> +offboard(X).
         offb: offboard(X), payroll(X, S) -> -payroll(X, S).",
    );
    let facts = write(
        &dir,
        "d.facts",
        "active(a). payroll(a, 10). payroll(b, 20).",
    );
    let mut child = park()
        .args([
            "repl",
            program.to_str().unwrap(),
            "--db",
            facts.to_str().unwrap(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"?payroll\n-active(a).\n?payroll\n:analyze\n:state\n:quit\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("payroll(a, 10)"), "{stdout}");
    assert!(
        stdout.contains("tx1: +offboard(a) -active(a) -payroll(a, 10)"),
        "{stdout}"
    );
    assert!(stdout.contains("rules: 2"), "{stdout}");
    assert!(stdout.contains("payroll(b, 20)."), "{stdout}");
}

#[test]
fn repl_rejects_bad_transactions_without_committing() {
    use std::io::Write as _;
    use std::process::Stdio;
    let dir = tempdir("repl2");
    let program = write(&dir, "p.park", "p(X) -> +q(X).");
    let mut child = park()
        .args(["repl", program.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"not an update\n+p(a).\n?q\n:quit\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error:"), "{stdout}");
    assert!(stdout.contains("q(a)"), "{stdout}");
}

#[test]
fn analyze_reports_structure() {
    let dir = tempdir("analyze");
    let program = write(
        &dir,
        "p.park",
        "base: edge(X, Y) -> +tc(X, Y). step: tc(X, Y), edge(Y, Z) -> +tc(X, Z).
         grow: p(X) -> +q(X). cut: p(X) -> -q(X).",
    );
    let out = park()
        .args(["analyze", program.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("recursive      : tc"), "{stdout}");
    assert!(stdout.contains("stratified     : yes"), "{stdout}");
    assert!(stdout.contains("grow (+q) vs cut (-q)"), "{stdout}");
}

#[test]
fn trace_json_is_written() {
    let dir = tempdir("tracejson");
    let program = write(&dir, "p.park", "r1: p -> +q. r2: p -> -q.");
    let facts = write(&dir, "d.facts", "p.");
    let json_path = dir.join("trace.json");
    let out = park()
        .args([
            "run",
            program.to_str().unwrap(),
            "--db",
            facts.to_str().unwrap(),
            "--trace-json",
            json_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("\"event\": \"conflict_resolved\""), "{json}");
    assert!(json.contains("\"policy\": \"inertia\""), "{json}");
}

#[test]
fn query_command_answers_conjunctive_queries() {
    let dir = tempdir("query");
    let facts = write(
        &dir,
        "d.facts",
        "emp(a). emp(b). active(a). payroll(a, 10). payroll(b, 200).",
    );
    let out = park()
        .args([
            "query",
            "?- emp(X), payroll(X, S), S > 100.",
            "--db",
            facts.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        "X = b, S = 200"
    );
    // Unsafe query fails cleanly.
    let out = park()
        .args(["query", "!emp(X)", "--db", facts.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // A syntax error is reported as one, not as a storage error.
    let out = park()
        .args(["query", "?- p(X", "--db", facts.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).trim(),
        "park: query syntax error: 1:5: expected `)` or `,`, found end of input"
    );
}

#[test]
fn repl_conjunctive_query() {
    use std::io::Write as _;
    use std::process::Stdio;
    let dir = tempdir("replq");
    let program = write(&dir, "p.park", "p(X) -> +q(X).");
    let facts = write(&dir, "d.facts", "p(a). p(b). r(a).");
    let mut child = park()
        .args([
            "repl",
            program.to_str().unwrap(),
            "--db",
            facts.to_str().unwrap(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"?- p(X), !r(X).\n:quit\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("X = b"), "{stdout}");
}

#[test]
fn analyze_with_database_probes_confluence() {
    let dir = tempdir("confluence");
    let program = write(&dir, "p.park", "grow: p -> +q. cut: p -> -q.");
    let facts = write(&dir, "d.facts", "p.");
    let out = park()
        .args([
            "analyze",
            program.to_str().unwrap(),
            "--db",
            facts.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("POLICY-SENSITIVE"), "{stdout}");
    assert!(stdout.contains("only under insert: q"), "{stdout}");
}

#[test]
fn analyze_with_database_reports_shard_stats() {
    let dir = tempdir("shard-stats");
    let program = write(&dir, "p.park", "e(X, Y) -> +r(X, Y).");
    let facts = write(&dir, "d.facts", "e(a, b). e(b, c). p.");
    let out = park()
        .args([
            "analyze",
            program.to_str().unwrap(),
            "--db",
            facts.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Two nonempty relations; e/2 holds 2 facts × 2 columns × 4 bytes.
    assert!(
        stdout.contains("shards         : 2 relations, 3 facts, 16 encoded bytes"),
        "{stdout}"
    );
    assert!(
        stdout.contains("e/2: 2 facts, 16 bytes, 0 indexes"),
        "{stdout}"
    );
    assert!(
        stdout.contains("p/0: 1 facts, 0 bytes, 0 indexes"),
        "{stdout}"
    );
}

#[test]
fn run_rejects_flags_it_does_not_read() {
    // `run`, `analyze` and `baseline` share one argument parser; each
    // accepts only the flags it reads, so `--graph` is no `run` flag.
    let dir = tempdir("run-flags");
    let program = write(&dir, "p.park", "p -> +q.");
    let facts = write(&dir, "d.facts", "p.");
    for flag in ["--graph", "--plan", "--dot"] {
        let out = park()
            .args(["run", program.to_str().unwrap(), flag])
            .output()
            .unwrap();
        assert!(!out.status.success(), "run {flag} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unexpected argument `{flag}`")),
            "{stderr}"
        );
    }
    // The flags `run` does read still work; the stats report is the one
    // summary line.
    let out = park()
        .args([
            "run",
            program.to_str().unwrap(),
            "--db",
            facts.to_str().unwrap(),
            "--stats",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("steps="), "{stderr}");
}

#[test]
fn analyze_rejects_flags_it_does_not_read() {
    let dir = tempdir("analyze-flags");
    let program = write(&dir, "p.park", "p -> +q.");
    let snapshot = dir.join("out.json");
    let _ = std::fs::remove_file(&snapshot);
    let out = park()
        .args([
            "analyze",
            program.to_str().unwrap(),
            "--stats",
            "--snapshot",
            snapshot.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "analyze --stats must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unexpected argument `--stats`"), "{stderr}");
    assert!(!snapshot.exists());
    for flag in ["--snapshot", "--updates", "--policy"] {
        let out = park()
            .args(["analyze", program.to_str().unwrap(), flag, "x"])
            .output()
            .unwrap();
        assert!(!out.status.success(), "analyze {flag} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unexpected argument `{flag}`")),
            "{stderr}"
        );
    }
}

#[test]
fn fuzz_subcommand_reports_zero_divergences() {
    let out = park()
        .args(["fuzz", "--seed", "0", "--cases", "25"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("25 cases, 0 divergences"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("25/25 cases checked"), "{stderr}");
}

#[test]
fn fuzz_subcommand_rejects_bad_flags() {
    let out = park().args(["fuzz", "--seed"]).output().unwrap();
    assert!(!out.status.success());
    let out = park().args(["fuzz", "--bogus"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn unknown_arguments_are_rejected() {
    let out = park().args(["run", "x.park", "--bogus"]).output().unwrap();
    assert!(!out.status.success());
    let out = park().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let out = park().args(["help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn run_metrics_writes_a_versioned_document() {
    let dir = tempdir("metrics");
    let program = write(
        &dir,
        "p.park",
        "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.",
    );
    let facts = write(&dir, "d.facts", "p.");
    let metrics = dir.join("m.json");
    let out = park()
        .args([
            "run",
            program.to_str().unwrap(),
            "--db",
            facts.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&metrics).unwrap();
    assert!(doc.contains("\"schema\": \"park-metrics/v1\""), "{doc}");
    // §5 example under inertia: 2 restarts, divergence at step 3.
    assert!(doc.contains("\"restarts\": 2"), "{doc}");
    assert!(doc.contains("\"replay_divergence_step\": 3"), "{doc}");
    assert!(doc.contains("\"rule\": \"r4\""), "{doc}");
}

#[test]
fn report_aggregates_metrics_documents() {
    let dir = tempdir("report");
    let program = write(&dir, "p.park", "r1: p -> +q. r2: p -> -q.");
    let facts = write(&dir, "d.facts", "p.");
    let m1 = dir.join("m1.json");
    let m2 = dir.join("m2.json");
    for (policy, path) in [("inertia", &m1), ("prefer-insert", &m2)] {
        let out = park()
            .args([
                "run",
                program.to_str().unwrap(),
                "--db",
                facts.to_str().unwrap(),
                "--policy",
                policy,
                "--metrics",
                path.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
    }
    let out = park()
        .args(["report", m1.to_str().unwrap(), m2.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("# PARK run-metrics report"), "{stdout}");
    assert!(
        stdout.contains("from 2 park-metrics/v1 documents"),
        "{stdout}"
    );
    assert!(stdout.contains("| **all** |"), "{stdout}");
    assert!(stdout.contains("## Restart causes"), "{stdout}");
    assert!(stdout.contains("| `q` |"), "{stdout}");
}

#[test]
fn report_loads_documents_written_with_a_thread_pool() {
    // Documents from before the intra-step pool was removed carry thread
    // counts in `options` and per-step `spans`; the report ignores them
    // and has no thread column.
    let dir = tempdir("oldreport");
    let old = write(
        &dir,
        "old.json",
        r#"{"schema": "park-metrics/v1", "source": "run", "policy": "inertia",
            "options": {"scope": "all", "effective_threads": 1, "oversubscribed": true},
            "totals": {"gamma_steps": 2, "restarts": 0, "conflicts_resolved": 0,
                       "groundings_fired": 1, "blocked_instances": 0, "eval_tasks": 1,
                       "replayed_steps": 0, "replay_divergence_step": null,
                       "peak_marked_atoms": 1, "elapsed_ns": 1000},
            "steps": [{"run": 1, "step": 1, "outcome": "applied", "replayed": false,
                       "fired": 1, "tasks": 1, "marked": 1, "nanos": 500,
                       "spans": [{"task": 0, "fired": 1, "nanos": 400}]}],
            "restarts": [], "replays": []}"#,
    );
    let out = park()
        .args(["report", old.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("| file | source | policy | scope | steps |"),
        "{stdout}"
    );
    assert!(
        stdout.contains("| run | inertia | all | 2 | 0 |"),
        "{stdout}"
    );
}

#[test]
fn report_rejects_invalid_documents() {
    let dir = tempdir("badreport");
    let bad_schema = write(&dir, "bad1.json", "{\"schema\": \"something-else\"}");
    let out = park()
        .args(["report", bad_schema.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unsupported schema"));

    let no_totals = write(&dir, "bad2.json", "{\"schema\": \"park-metrics/v1\"}");
    let out = park()
        .args(["report", no_totals.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("totals"));

    let not_json = write(&dir, "bad3.json", "not json at all");
    let out = park()
        .args(["report", not_json.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn fuzz_metrics_aggregate_is_reportable() {
    let dir = tempdir("fuzzmetrics");
    let metrics = dir.join("fuzz.json");
    let out = park()
        .args([
            "fuzz",
            "--seed",
            "0",
            "--cases",
            "5",
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&metrics).unwrap();
    assert!(doc.contains("\"source\": \"fuzz\""), "{doc}");
    let out = park()
        .args(["report", metrics.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("| fuzz |"), "{stdout}");
}

#[test]
fn check_reports_all_errors_across_files() {
    let dir = tempdir("check-multi");
    let bad1 = write(&dir, "bad1.park", "p(X) -> +q(X, Y).");
    let bad2 = write(&dir, "bad2.park", "a(X), !b(Y) -> +c(X).");
    let good = write(&dir, "good.park", "p(X) -> +q(X).");
    let out = park()
        .args([
            "check",
            bad1.to_str().unwrap(),
            good.to_str().unwrap(),
            bad2.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Both broken files are reported; the first does not mask the second.
    assert!(stderr.contains("bad1.park"), "{stderr}");
    assert!(stderr.contains("safety condition 1"), "{stderr}");
    assert!(stderr.contains("bad2.park"), "{stderr}");
    assert!(stderr.contains("safety condition 2"), "{stderr}");
    // The good file in the middle is still checked and reported safe.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("good.park: 1 rules, safe"), "{stdout}");
}

#[test]
fn lint_exit_codes_distinguish_clean_warnings_errors() {
    let dir = tempdir("lint-exit");
    let clean = write(&dir, "clean.park", "p(X), X < 5 -> +q(X).");
    let warny = write(&dir, "warny.park", "g: p(X) -> +q(X). c: p(X) -> -q(X).");
    let broken = write(&dir, "broken.park", "p(X) -> ");
    let code = |path: &std::path::Path| {
        park()
            .args(["lint", path.to_str().unwrap()])
            .output()
            .unwrap()
            .status
            .code()
    };
    assert_eq!(code(&clean), Some(0));
    assert_eq!(code(&warny), Some(1));
    assert_eq!(code(&broken), Some(2));
    // An unreadable file must not read as clean.
    let missing = dir.join("nope.park");
    assert_eq!(code(&missing), Some(2));
}

#[test]
fn lint_pragmas_suppress_down_to_clean() {
    let dir = tempdir("lint-allow");
    let program = write(
        &dir,
        "allowed.park",
        "%# allow(PARK001, PARK002)\n\
         g: p(X) -> +q(X).\n\
         %# allow(PARK002)\n\
         c: p(X) -> -q(X).\n",
    );
    let out = park()
        .args(["lint", program.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "suppressed lint should be clean"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3 suppressed"), "{stdout}");
}

#[test]
fn lint_json_matches_golden() {
    // The fixture is linted from the tests directory so the `file` field in
    // the JSON stays a stable relative path.
    let tests_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests");
    let out = park()
        .current_dir(tests_dir)
        .args(["lint", "golden/lint.park", "--format", "json"])
        .output()
        .unwrap();
    let got = String::from_utf8_lossy(&out.stdout).to_string();
    let golden = std::path::Path::new(tests_dir).join("golden/lint.json");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&golden, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    assert_eq!(
        got, want,
        "park-lint/v1 JSON output drifted from tests/golden/lint.json; \
         if the change is intentional, bless it with \
         `UPDATE_GOLDENS=1 cargo test -p park-cli lint_json_matches_golden`"
    );
}

#[test]
fn analyze_includes_lint_verdicts() {
    let dir = tempdir("analyze-lint");
    let program = write(
        &dir,
        "p.park",
        "grow: p(X), X < 5 -> +q(X). cut: p(X), X >= 5 -> -q(X).",
    );
    let out = park()
        .args(["analyze", program.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The syntactic pair is reported, but the guards partition the space:
    // refinement certifies the program conflict-free.
    assert!(stdout.contains("grow (+q) vs cut (-q)"), "{stdout}");
    assert!(
        stdout.contains("certificate    : conflict-free"),
        "{stdout}"
    );
    // The deleting head keeps `cut` off the warm incremental path — the
    // shared lint pass surfaces that as a PARK009 info line.
    assert!(stdout.contains("info[PARK009]"), "{stdout}");
    assert!(stdout.contains("blocks incremental reuse"), "{stdout}");
}

#[test]
fn analyze_graph_dumps_condensation_and_strata() {
    let dir = tempdir("analyze-graph");
    let program = write(
        &dir,
        "g.park",
        "e(X, Y) -> +r(X, Y). r(X, Y), e(Y, Z) -> +r(X, Z). \
         flag(X), !mute(X) -> +alert(X).",
    );
    let graph = |extra: &[&str]| {
        let mut args = vec!["analyze", program.to_str().unwrap(), "--graph"];
        args.extend_from_slice(extra);
        let out = park().args(&args).output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let text = graph(&[]);
    let doc = park_json::parse(&text).expect("park-graph/v1 output must be valid JSON");
    assert_eq!(
        doc.get("schema").unwrap().as_str(),
        Some("park-graph/v1"),
        "{text}"
    );
    assert_eq!(doc.get("stratified").unwrap().as_bool(), Some(true));
    assert_eq!(doc.get("max_stratum").unwrap().as_i64(), Some(1));
    // `alert` sits above the negated `mute`; the recursive `r` component
    // stays in stratum 0 with its positive self-edge.
    let preds = doc.get("predicates").unwrap().as_array().unwrap();
    let stratum_of = |name: &str| {
        preds
            .iter()
            .find(|p| p.get("name").unwrap().as_str() == Some(name))
            .and_then(|p| p.get("stratum").unwrap().as_i64())
            .unwrap()
    };
    assert_eq!(stratum_of("alert"), 1);
    assert_eq!(stratum_of("r"), 0);
    assert!(doc.get("offending").unwrap().as_array().unwrap().is_empty());
    // The dump is deterministic: a second run is byte-identical.
    assert_eq!(text, graph(&[]));
    // And the DOT rendering is a digraph with stratum clusters.
    let dot = graph(&["--dot"]);
    assert!(dot.starts_with("digraph park {"), "{dot}");
    assert!(dot.contains("cluster_stratum_1"), "{dot}");
    assert!(dot.contains("\"alert\" -> \"mute\" [style=dashed"), "{dot}");

    // An unstratified program localizes the offending cycle with rule spans.
    let bad = write(&dir, "bad.park", "step: move(X, Y), !win(Y) -> +win(X).");
    let out = park()
        .args(["analyze", bad.to_str().unwrap(), "--graph"])
        .output()
        .unwrap();
    let doc = park_json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(doc.get("stratified").unwrap().as_bool(), Some(false));
    let off = doc.get("offending").unwrap().as_array().unwrap();
    assert_eq!(off.len(), 1);
    assert_eq!(off[0].get("from").unwrap().as_str(), Some("win"));
    assert_eq!(off[0].get("kind").unwrap().as_str(), Some("negative"));
    let rules = off[0].get("rules").unwrap().as_array().unwrap();
    assert_eq!(rules[0].get("rule").unwrap().as_str(), Some("step"));
    assert_eq!(rules[0].get("line").unwrap().as_i64(), Some(1));
}

#[test]
fn analyze_dumps_the_compiled_plan() {
    let dir = tempdir("compiled");
    let program = write(
        &dir,
        "tc.park",
        "edge(X, Y) -> +tc(X, Y). tc(X, Y), edge(Y, Z) -> +tc(X, Z).",
    );
    let facts = write(&dir, "d.facts", "edge(a, b). edge(b, c). edge(c, a).");
    let out = park()
        .args([
            "run",
            program.to_str().unwrap(),
            "--db",
            facts.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("tc(a, c)."), "{stdout}");

    let out = park()
        .args([
            "analyze",
            program.to_str().unwrap(),
            "--db",
            facts.to_str().unwrap(),
            "--plan",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("lowered program: 2 rules"), "{stdout}");
    // Three edges sit below the cost model's index threshold: every
    // base access is a scan, none a probe.
    assert!(stdout.contains("scan"), "{stdout}");
    assert!(stdout.contains("0 cost-model index picks"), "{stdout}");
}
