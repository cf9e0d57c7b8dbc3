//! `park` — command-line driver for the PARK active-rule engine.
//!
//! ```text
//! park run <program.park> [--db <data.facts>] [--updates <tx.updates>]
//!          [--policy <name>] [--scope all|one]
//!          [--trace] [--trace-json <f>]
//!          [--stats] [--snapshot <out.json>] [--metrics <out.json>]
//! park check <program.park>...
//! park lint <program.park>... [--format text|json]
//! park analyze <program.park> [--db <data.facts>] [--plan] [--graph [--dot]]
//! park query '<body>' [--db <data.facts>]
//! park repl <program.park> [--db <data.facts>] [--policy <name>]
//! park serve [--listen <addr>] [--once] [--policy <name>] [engine options]
//! park baseline <naive|immediate> <program.park> [--db <data.facts>]
//!          [--updates <tx.updates>] [--stats]
//! park workload <list|name> [--out <dir>] [generator options]
//! park report <metrics.json>...
//! ```
//!
//! Policies: `inertia` (default), `anti-inertia`, `prefer-insert`,
//! `prefer-delete`, `priority`, `specificity`, `transactions-win`,
//! `random[:seed]`, and `interactive` (prompts on stdin: i/d).
//! Sample inputs live in `examples/data/`.
#![forbid(unsafe_code)]

use park_baselines::{immediate_fire, naive_mark_eliminate, ImmediateConfig, ImmediateResult};
use park_engine::{Engine, EngineOptions, JsonMetrics, ResolutionScope, Trace};
use park_json::Json;
use park_policies::{parse_answer, CallbackOracle, ConflictResolver, Interactive};
use park_storage::{FactStore, Snapshot, UpdateSet, Vocabulary};
use park_syntax::{check_program, parse_program};
use std::io::{BufRead, IsTerminal, Write};
use std::process::ExitCode;
use std::sync::Arc;

mod repl;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("park: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Vec<String>) -> Result<ExitCode, String> {
    let mut it = args.into_iter();
    let done = |r: Result<(), String>| r.map(|()| ExitCode::SUCCESS);
    match it.next().as_deref() {
        Some("run") => done(cmd_run(it.collect())),
        Some("check") => done(cmd_check(it.collect())),
        Some("lint") => cmd_lint(it.collect()),
        Some("analyze") => done(cmd_analyze(it.collect())),
        Some("repl") => done(cmd_repl(it.collect())),
        Some("serve") => done(cmd_serve(it.collect())),
        Some("query") => done(cmd_query(it.collect())),
        Some("baseline") => done(cmd_baseline(it.collect())),
        Some("workload") => done(cmd_workload(it.collect())),
        Some("fuzz") => done(cmd_fuzz(it.collect())),
        Some("report") => done(cmd_report(it.collect())),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", HELP);
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command `{other}` (try `park help`)")),
    }
}

const HELP: &str = "\
park - the PARK semantics for active rules (EDBT 1996)

USAGE:
  park run <program.park> [OPTIONS]      evaluate PARK(D, P, U)
  park check <program.park>...           parse + safety-check programs
                                         (reports every error in every file)
  park lint <program.park>...            static analysis with stable lint codes
                                         [--format text|json]; exit 0 = clean,
                                         1 = warnings, 2 = errors; suppress
                                         with `%# allow(PARKxxx)` comment lines
  park analyze <program.park> [--db <f>] dependency/recursion/conflict report;
                                         with --db also per-relation shard
                                         stats and a confluence probe; --plan
                                         dumps the compiled evaluator's lowered
                                         bytecode and cost-model choices;
                                         --graph dumps the SCC condensation +
                                         stratum assignment as park-graph/v1
                                         JSON (add --dot for Graphviz)
  park repl <program.park> [--db <f>]    interactive transactional session
  park serve [--listen <addr>] [--once]  resident multi-database engine:
                                         ndjson requests on stdin (or a TCP
                                         socket) answered with park-serve/v1
                                         frames; accepts --policy/--scope/
                                         --incremental session defaults (see
                                         docs/serve.md and docs/incremental.md)
  park query '<body>' --db <data.facts>  conjunctive query over a database
  park baseline <naive|immediate> <program.park> [--db <f>]
                                         [--updates <f>] [--stats]
  park workload <list|name> [--out DIR]  emit a generated workload
  park fuzz [--seed N] [--cases K]       differential-test the engine against
                                         the paper-literal oracle;
                                         --bias stratified draws layered
                                         stratified-negation programs with
                                         deletion-bearing update chains
  park report <metrics.json>...          aggregate park-metrics/v1 documents
                                         into a markdown report
  park help

OPTIONS (run):
  --db <file>         facts file for the database instance D (default: empty)
  --updates <file>    transaction updates U, e.g. `+q(b). -p(a).`
  --policy <name>     inertia | anti-inertia | prefer-insert | prefer-delete |
                      priority | specificity | transactions-win |
                      random[:seed] | interactive        (default: inertia)
  --scope <all|one>   conflicts resolved per restart     (default: all);
                      `one` resolves the least conflicting atom first
  --trace             print the paper-style step listing
  --trace-json <file> write the trace as JSON events
  --stats             print run statistics
  --snapshot <file>   write the result database as JSON
  --metrics <file>    write a park-metrics/v1 JSON document: per-step timings
                      and firing counts, per-rule tallies, restart causes,
                      replay savings (also accepted by `park fuzz`; aggregate
                      with `park report`)
";

#[derive(Default)]
struct RunArgs {
    program: Option<String>,
    db: Option<String>,
    updates: Option<String>,
    policy: String,
    scope: ResolutionScope,
    trace: bool,
    trace_json: Option<String>,
    stats: bool,
    snapshot: Option<String>,
    metrics: Option<String>,
    plan: bool,
    graph: bool,
    dot: bool,
}

/// The flags `park run` reads.
const RUN_FLAGS: &[&str] = &[
    "--db",
    "--updates",
    "--policy",
    "--scope",
    "--trace",
    "--trace-json",
    "--stats",
    "--snapshot",
    "--metrics",
];
/// The flags `park analyze` reads.
const ANALYZE_FLAGS: &[&str] = &["--db", "--plan", "--graph", "--dot"];
/// The flags `park baseline` reads.
const BASELINE_FLAGS: &[&str] = &["--db", "--updates", "--stats"];

/// Parse the arguments of a subcommand that takes one positional argument
/// and a subset of the [`RunArgs`] flags: any flag outside `flags` is an
/// `unexpected argument`, so no subcommand silently ignores another's flag.
fn parse_run_args(args: Vec<String>, flags: &[&str]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        policy: "inertia".into(),
        ..RunArgs::default()
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a.starts_with("--") && !flags.contains(&a.as_str()) {
            return Err(format!("unexpected argument `{a}`"));
        }
        let mut grab = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--db" => out.db = Some(grab("--db")?),
            "--updates" => out.updates = Some(grab("--updates")?),
            "--policy" => out.policy = grab("--policy")?,
            "--scope" => {
                out.scope = match grab("--scope")?.as_str() {
                    "all" => ResolutionScope::All,
                    "one" => ResolutionScope::One,
                    other => return Err(format!("unknown scope `{other}`")),
                }
            }
            "--plan" => out.plan = true,
            "--graph" => out.graph = true,
            "--dot" => out.dot = true,
            "--trace" => out.trace = true,
            "--trace-json" => out.trace_json = Some(grab("--trace-json")?),
            "--stats" => out.stats = true,
            "--snapshot" => out.snapshot = Some(grab("--snapshot")?),
            "--metrics" => out.metrics = Some(grab("--metrics")?),
            other if !other.starts_with("--") && out.program.is_none() => {
                out.program = Some(other.to_string())
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(out)
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

/// The shared front half of `check`, `analyze`, and `run`: read, parse, and
/// safety-check one program file, rendering the parse error or *every*
/// safety error as a caret diagnostic.
fn load_program(path: &str) -> Result<(String, park_syntax::Program), String> {
    let src = read_file(path)?;
    let program =
        parse_program(&src).map_err(|e| format!("in {path}:{}\n{}", e.span, e.render(&src)))?;
    check_program(&program).map_err(|errs| {
        errs.iter()
            .map(|e| format!("in {path}:{}\n{}", e.span, e.render(&src)))
            .collect::<Vec<_>>()
            .join("\n")
    })?;
    Ok((src, program))
}

fn load_session(
    a: &RunArgs,
) -> Result<(Arc<Vocabulary>, park_syntax::Program, FactStore, UpdateSet), String> {
    let program_path = a
        .program
        .as_deref()
        .ok_or("missing <program.park> argument")?;
    let (_, program) = load_program(program_path)?;
    let vocab = Vocabulary::new();
    let db = match &a.db {
        Some(path) => FactStore::from_source(Arc::clone(&vocab), &read_file(path)?)
            .map_err(|e| e.to_string())?,
        None => FactStore::new(Arc::clone(&vocab)),
    };
    let updates = match &a.updates {
        Some(path) => {
            UpdateSet::from_source(&vocab, &read_file(path)?).map_err(|e| e.to_string())?
        }
        None => UpdateSet::empty(),
    };
    Ok((vocab, program, db, updates))
}

/// The stdin-backed interactive policy.
fn interactive_policy() -> impl ConflictResolver {
    Interactive::new(CallbackOracle(|prompt: &str| {
        let stdin = std::io::stdin();
        loop {
            eprint!("conflict {prompt}\nresolve [i]nsert / [d]elete? ");
            std::io::stderr().flush().ok();
            let mut line = String::new();
            match stdin.lock().read_line(&mut line) {
                Ok(0) | Err(_) => return None,
                Ok(_) => {
                    if let Some(r) = parse_answer(&line) {
                        return Some(r);
                    }
                    eprintln!("unrecognized answer {line:?}");
                }
            }
        }
    }))
}

fn make_policy(name: &str) -> Result<Box<dyn ConflictResolver>, String> {
    if name == "interactive" {
        // The interactive policy prompts on stdin mid-evaluation. With
        // stdin redirected the first conflict would read updates (or EOF)
        // as answers and fail halfway through — reject up front instead.
        if !std::io::stdin().is_terminal() {
            return Err(
                "policy `interactive` needs a terminal on stdin; in scripts use a \
                 deterministic policy, or `park serve` with per-transaction \
                 \"answers\" (see docs/serve.md)"
                    .into(),
            );
        }
        return Ok(Box::new(interactive_policy()));
    }
    park_policies::by_name(name).ok_or_else(|| format!("unknown policy `{name}`"))
}

fn cmd_run(args: Vec<String>) -> Result<(), String> {
    let a = parse_run_args(args, RUN_FLAGS)?;
    let (vocab, program, db, updates) = load_session(&a)?;
    let options = EngineOptions {
        scope: a.scope,
        ..EngineOptions::default()
    };
    let engine = Engine::with_options(vocab, &program, options).map_err(|e| e.to_string())?;
    let mut policy = make_policy(&a.policy)?;
    let mut sinks = (
        (a.trace || a.trace_json.is_some()).then(Trace::new),
        a.metrics.as_ref().map(|_| JsonMetrics::new("run")),
    );
    let out = engine
        .run_with_metrics(&db, &updates, policy.as_mut(), &mut sinks)
        .map_err(|e| e.to_string())?;
    let (trace, metrics) = sinks;
    if let (Some(path), Some(metrics)) = (&a.metrics, metrics) {
        std::fs::write(path, format!("{}\n", metrics.to_json().to_pretty()))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    if let Some(trace) = trace {
        if a.trace {
            println!("{}", trace.render());
        }
        if let Some(path) = &a.trace_json {
            std::fs::write(path, trace.to_json())
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        }
    }
    println!("{}", out.database.to_source().trim_end());
    if a.stats {
        eprintln!("{}", out.stats.summary());
        let blocked = out.blocked_display();
        if !blocked.is_empty() {
            eprintln!("blocked: {}", blocked.join(", "));
        }
    }
    if let Some(path) = &a.snapshot {
        let json = Snapshot::of(&out.database)
            .to_json()
            .map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    Ok(())
}

fn cmd_serve(args: Vec<String>) -> Result<(), String> {
    let mut listen: Option<String> = None;
    let mut once = false;
    let mut opts = park_serve::ServeOptions::default();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut grab = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--listen" => listen = Some(grab("--listen")?),
            "--once" => once = true,
            "--policy" => opts.policy = grab("--policy")?,
            "--scope" => {
                opts.scope = match grab("--scope")?.as_str() {
                    "all" => ResolutionScope::All,
                    "one" => ResolutionScope::One,
                    other => return Err(format!("unknown scope `{other}`")),
                }
            }
            "--incremental" => opts.incremental = true,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    park_serve::resolve_policy(&opts.policy)?;
    match listen {
        Some(addr) => {
            let stdout = std::io::stdout();
            park_serve::serve_tcp(&addr, once, &opts, &mut stdout.lock()).map_err(|e| e.to_string())
        }
        None => {
            let stdin = std::io::stdin();
            park_serve::serve(stdin.lock(), std::io::stdout(), &opts).map_err(|e| e.to_string())
        }
    }
}

fn cmd_check(args: Vec<String>) -> Result<(), String> {
    let mut files = Vec::new();
    for a in args {
        if a.starts_with("--") {
            return Err(format!("unexpected argument `{a}`"));
        }
        files.push(a);
    }
    if files.is_empty() {
        return Err("missing <program.park> argument".into());
    }
    // Check every file and report every error before failing — a broken
    // first file must not mask problems in the rest of the batch.
    let mut failures = Vec::new();
    for path in &files {
        match load_program(path) {
            Ok((_, program)) => println!("{path}: {} rules, safe", program.len()),
            Err(e) => failures.push(e),
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn cmd_lint(args: Vec<String>) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut json = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => match it.next().ok_or("--format requires a value")?.as_str() {
                "text" => json = false,
                "json" => json = true,
                other => return Err(format!("unknown format `{other}` (text|json)")),
            },
            other if !other.starts_with("--") => files.push(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if files.is_empty() {
        return Err("usage: park lint <program.park>... [--format text|json]".into());
    }
    let mut reports = Vec::new();
    let mut sources = Vec::new();
    for path in &files {
        // An unreadable file is as fatal as an error-severity diagnostic:
        // CI must not read "clean" off a lint run that saw nothing.
        let src = match read_file(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("park: {e}");
                return Ok(ExitCode::from(2));
            }
        };
        reports.push(park_lint::lint_source(
            path,
            &src,
            park_lint::AnalysisVariant::Faithful,
        ));
        sources.push(src);
    }
    if json {
        println!("{}", park_lint::reports_to_json(&reports).to_pretty());
    } else {
        for (report, src) in reports.iter().zip(&sources) {
            print!("{}", park_lint::render_text(report, src));
        }
    }
    Ok(match park_lint::max_severity(&reports) {
        Some(park_lint::Severity::Error) => ExitCode::from(2),
        Some(park_lint::Severity::Warning) => ExitCode::from(1),
        _ => ExitCode::SUCCESS,
    })
}

fn cmd_analyze(args: Vec<String>) -> Result<(), String> {
    let a = parse_run_args(args, ANALYZE_FLAGS)?;
    let path = a
        .program
        .as_deref()
        .ok_or("missing <program.park> argument")?;
    let (src, program) = load_program(path)?;
    let compiled = park_engine::CompiledProgram::compile(Vocabulary::new(), &program)
        .map_err(|e| e.to_string())?;
    // --graph replaces the text report with a machine-readable dump of the
    // SCC condensation and stratum assignment: park-graph/v1 JSON, or a
    // Graphviz digraph with --dot. Both orderings are deterministic (the
    // condensation comes out of a sorted-adjacency Tarjan).
    if a.graph {
        let strata = park_engine::Strata::of(&compiled);
        if a.dot {
            print!("{}", graph_dot(&compiled, &strata));
        } else {
            println!("{}", graph_json(path, &compiled, &strata).to_pretty());
        }
        return Ok(());
    }
    let report = park_engine::analysis::report(&compiled);
    println!("{path}:");
    println!("  rules          : {}", report.rules);
    println!("  predicates     : {}", report.preds);
    println!(
        "  recursive      : {}",
        if report.recursive.is_empty() {
            "-".into()
        } else {
            report.recursive.join(", ")
        }
    );
    println!(
        "  stratified     : {}",
        if report.stratified { "yes" } else { "no" }
    );
    if report.conflicts.is_empty() {
        println!("  conflict pairs : none (statically conflict-free)");
    } else {
        println!("  conflict pairs :");
        for (ins, del, pred) in &report.conflicts {
            println!("    {ins} (+{pred}) vs {del} (-{pred})");
        }
    }
    // The refined verdicts from the shared lint analyses: which of the
    // syntactic pairs survive condition-overlap refinement, and the rest
    // of the diagnostics catalogue (see `park lint` / docs/lints.md).
    let lint = park_lint::lint_source(path, &src, park_lint::AnalysisVariant::Faithful);
    if lint.certified_conflict_free {
        println!("  certificate    : conflict-free (engine skips conflict bookkeeping)");
    }
    if lint.diagnostics.is_empty() {
        println!("  lint           : clean");
    } else {
        println!("  lint           :");
        for d in &lint.diagnostics {
            let loc = if d.span.is_synthetic() {
                String::new()
            } else {
                format!(" {}:{}:", d.span.line, d.span.col)
            };
            println!(
                "    {}[{}]{loc} {}",
                d.severity.as_str(),
                d.code.code(),
                d.message
            );
        }
    }
    // With a database, probe whether the result is policy-sensitive.
    if let Some(db_path) = &a.db {
        let vocab = Arc::clone(compiled.vocab());
        let db = FactStore::from_source(vocab, &read_file(db_path)?).map_err(|e| e.to_string())?;
        // Per-relation shard stats: how the interned columnar store lays
        // this database out (see docs/storage.md).
        let mut shard_preds: Vec<park_storage::PredId> = db.nonempty_preds().collect();
        shard_preds.sort_by_key(|p| db.vocab().pred_name(*p));
        println!(
            "  shards         : {} relations, {} facts, {} encoded bytes",
            shard_preds.len(),
            db.len(),
            db.encoded_bytes()
        );
        for p in shard_preds {
            let Some(rel) = db.relation(p) else { continue };
            println!(
                "    {}/{}: {} facts, {} bytes, {} indexes",
                db.vocab().pred_name(p),
                db.vocab().pred_arity(p),
                rel.len(),
                rel.encoded_bytes(),
                rel.index_count()
            );
        }
        let engine =
            Engine::new(Arc::clone(compiled.vocab()), &program).map_err(|e| e.to_string())?;
        match park_engine::confluence_probe(&engine, &db).map_err(|e| e.to_string())? {
            park_engine::Confluence::StaticallyConfluent => {
                println!("  confluence     : statically confluent (policy-independent)")
            }
            park_engine::Confluence::ProbablyConfluent { conflicts } => println!(
                "  confluence     : extreme policies agree on this database \
                 ({conflicts} conflicts probed)"
            ),
            park_engine::Confluence::PolicySensitive {
                only_with_insert,
                only_with_delete,
            } => {
                println!("  confluence     : POLICY-SENSITIVE on this database");
                if !only_with_insert.is_empty() {
                    println!("    only under insert: {}", only_with_insert.join(", "));
                }
                if !only_with_delete.is_empty() {
                    println!("    only under delete: {}", only_with_delete.join(", "));
                }
            }
        }
    }
    // The compiled evaluator's lowered bytecode: join order, index picks,
    // and per-op shapes. The cost model reads the --db shard sizes when
    // one is supplied; with no database it falls back to its defaults.
    if a.plan {
        let vocab = Arc::clone(compiled.vocab());
        let db = match &a.db {
            Some(db_path) => {
                FactStore::from_source(vocab, &read_file(db_path)?).map_err(|e| e.to_string())?
            }
            None => FactStore::new(vocab),
        };
        let lowered = park_engine::lower(&compiled, &db);
        for line in lowered.render(&compiled).lines() {
            println!("  {line}");
        }
    }
    Ok(())
}

fn edge_kind_name(kind: park_engine::EdgeKind) -> &'static str {
    match kind {
        park_engine::EdgeKind::Positive => "positive",
        park_engine::EdgeKind::Negative => "negative",
        park_engine::EdgeKind::Event => "event",
    }
}

/// The `park analyze --graph` document: the dependency graph's SCC
/// condensation with per-component strata, per-predicate assignments, the
/// (sorted) edge list, and the localized stratification failures.
fn graph_json(
    file: &str,
    program: &park_engine::CompiledProgram,
    strata: &park_engine::Strata,
) -> Json {
    let vocab = program.vocab();
    let name = |p: park_storage::PredId| vocab.pred_name(p).to_string();
    let graph = strata.graph();
    let self_loop = |p: park_storage::PredId| graph.edges.iter().any(|&(f, t, _)| f == p && t == p);

    // Components in condensation order: dependencies before dependents.
    let components: Vec<Json> = strata
        .components()
        .iter()
        .enumerate()
        .map(|(i, comp)| {
            let mut preds: Vec<String> = comp.iter().map(|&p| name(p)).collect();
            preds.sort();
            let recursive = comp.len() > 1 || self_loop(comp[0]);
            Json::object([
                ("index", Json::from(i)),
                (
                    "stratum",
                    Json::from(i64::from(strata.component_stratum(i))),
                ),
                ("recursive", Json::from(recursive)),
                (
                    "preds",
                    Json::from(preds.into_iter().map(Json::Str).collect::<Vec<_>>()),
                ),
            ])
        })
        .collect();

    let mut pred_rows: Vec<(String, usize, u32)> = strata
        .components()
        .iter()
        .enumerate()
        .flat_map(|(i, comp)| {
            comp.iter()
                .map(move |&p| (p, i))
                .collect::<Vec<_>>()
                .into_iter()
        })
        .map(|(p, i)| (name(p), i, strata.component_stratum(i)))
        .collect();
    pred_rows.sort();
    let predicates: Vec<Json> = pred_rows
        .into_iter()
        .map(|(n, comp, stratum)| {
            Json::object([
                ("name", Json::str(n)),
                ("component", Json::from(comp)),
                ("stratum", Json::from(i64::from(stratum))),
            ])
        })
        .collect();

    let mut edge_rows: Vec<(String, String, &'static str)> = graph
        .edges
        .iter()
        .map(|&(f, t, k)| (name(f), name(t), edge_kind_name(k)))
        .collect();
    edge_rows.sort();
    let edges: Vec<Json> = edge_rows
        .into_iter()
        .map(|(f, t, k)| {
            Json::object([
                ("from", Json::str(f)),
                ("to", Json::str(t)),
                ("kind", Json::str(k)),
            ])
        })
        .collect();

    let offending: Vec<Json> = strata
        .offending_edges()
        .iter()
        .map(|e| {
            let mut comp: Vec<String> = e.component.iter().map(|&p| name(p)).collect();
            comp.sort();
            let rules: Vec<Json> = e
                .rules
                .iter()
                .map(|&(id, span)| {
                    Json::object([
                        ("rule", Json::str(program.rule(id).display_name())),
                        ("line", Json::from(span.line as i64)),
                        ("col", Json::from(span.col as i64)),
                    ])
                })
                .collect();
            Json::object([
                ("from", Json::str(name(e.from))),
                ("to", Json::str(name(e.to))),
                ("kind", Json::str(edge_kind_name(e.kind))),
                (
                    "component",
                    Json::from(comp.into_iter().map(Json::Str).collect::<Vec<_>>()),
                ),
                ("rules", Json::from(rules)),
            ])
        })
        .collect();

    Json::object([
        ("schema", Json::str("park-graph/v1")),
        ("file", Json::str(file)),
        ("stratified", Json::from(strata.is_stratified())),
        ("max_stratum", Json::from(i64::from(strata.max_stratum()))),
        ("components", Json::from(components)),
        ("predicates", Json::from(predicates)),
        ("edges", Json::from(edges)),
        ("offending", Json::from(offending)),
    ])
}

/// The same condensation as a Graphviz digraph: one cluster per stratum,
/// negative edges dashed+red, event edges dotted+blue, offending edges
/// bold.
fn graph_dot(program: &park_engine::CompiledProgram, strata: &park_engine::Strata) -> String {
    use std::fmt::Write as _;
    let vocab = program.vocab();
    let name = |p: park_storage::PredId| vocab.pred_name(p).to_string();
    let mut out = String::from("digraph park {\n  rankdir=BT;\n  node [shape=box];\n");
    let max = strata.max_stratum();
    for s in 0..=max {
        let mut members: Vec<String> = strata
            .components()
            .iter()
            .enumerate()
            .filter(|&(i, _)| strata.component_stratum(i) == s)
            .flat_map(|(_, comp)| comp.iter().map(|&p| name(p)))
            .collect();
        members.sort();
        if members.is_empty() {
            continue;
        }
        let _ = writeln!(out, "  subgraph cluster_stratum_{s} {{");
        let _ = writeln!(out, "    label=\"stratum {s}\";");
        for m in &members {
            let _ = writeln!(out, "    \"{m}\";");
        }
        let _ = writeln!(out, "  }}");
    }
    let offending: std::collections::HashSet<(String, String, &'static str)> = strata
        .offending_edges()
        .iter()
        .map(|e| (name(e.from), name(e.to), edge_kind_name(e.kind)))
        .collect();
    let mut edge_rows: Vec<(String, String, park_engine::EdgeKind)> = strata
        .graph()
        .edges
        .iter()
        .map(|&(f, t, k)| (name(f), name(t), k))
        .collect();
    edge_rows.sort();
    for (f, t, k) in edge_rows {
        let mut attrs = match k {
            park_engine::EdgeKind::Positive => String::new(),
            park_engine::EdgeKind::Negative => "style=dashed, color=red, label=\"!\"".into(),
            park_engine::EdgeKind::Event => "style=dotted, color=blue, label=\"±\"".into(),
        };
        if offending.contains(&(f.clone(), t.clone(), edge_kind_name(k))) {
            if !attrs.is_empty() {
                attrs.push_str(", ");
            }
            attrs.push_str("penwidth=2.0");
        }
        if attrs.is_empty() {
            let _ = writeln!(out, "  \"{f}\" -> \"{t}\";");
        } else {
            let _ = writeln!(out, "  \"{f}\" -> \"{t}\" [{attrs}];");
        }
    }
    out.push_str("}\n");
    out
}

fn cmd_query(args: Vec<String>) -> Result<(), String> {
    let a = parse_run_args(args, &["--db"])?;
    let query_src = a.program.as_deref().ok_or("missing \"<body>\" argument")?;
    let vocab = Vocabulary::new();
    let db = match &a.db {
        Some(path) => FactStore::from_source(Arc::clone(&vocab), &read_file(path)?)
            .map_err(|e| e.to_string())?,
        None => FactStore::new(Arc::clone(&vocab)),
    };
    let q = park_engine::Query::parse(&vocab, query_src).map_err(|e| e.to_string())?;
    let rows = q.run_on_database(&db);
    if rows.is_empty() {
        println!("(no answers)");
    } else {
        for r in q.render_rows(&rows) {
            println!("{r}");
        }
    }
    Ok(())
}

fn cmd_repl(args: Vec<String>) -> Result<(), String> {
    let a = parse_run_args(args, &["--db", "--policy"])?;
    let program = a
        .program
        .as_deref()
        .ok_or("missing <program.park> argument")?;
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    repl::run_repl(
        program,
        a.db.as_deref(),
        &a.policy,
        &mut stdin.lock(),
        &mut stdout.lock(),
    )
}

fn cmd_baseline(mut args: Vec<String>) -> Result<(), String> {
    if args.is_empty() {
        return Err("usage: park baseline <naive|immediate> <program.park> ...".into());
    }
    let which = args.remove(0);
    let a = parse_run_args(args, BASELINE_FLAGS)?;
    let (vocab, program, db, updates) = load_session(&a)?;
    match which.as_str() {
        "naive" => {
            let compiled = park_engine::CompiledProgram::compile(vocab, &program)
                .map_err(|e| e.to_string())?;
            let out = naive_mark_eliminate(&compiled, &db, &updates, 1 << 22)
                .map_err(|e| e.to_string())?;
            println!("{}", out.database.to_source().trim_end());
            if a.stats {
                eprintln!(
                    "steps={} eliminated={}",
                    out.steps,
                    out.eliminated.join(",")
                );
            }
        }
        "immediate" => {
            if !updates.is_empty() {
                return Err("the immediate baseline does not support --updates".into());
            }
            let compiled = park_engine::CompiledProgram::compile(vocab, &program)
                .map_err(|e| e.to_string())?;
            let out = immediate_fire(&compiled, &db, ImmediateConfig::default());
            match &out {
                ImmediateResult::Converged { database, fires } => {
                    println!("{}", database.to_source().trim_end());
                    if a.stats {
                        eprintln!("converged after {fires} firings");
                    }
                }
                ImmediateResult::Diverged { fires, .. } => {
                    return Err(format!(
                        "immediate execution diverged after {fires} firings"
                    ));
                }
            }
        }
        other => return Err(format!("unknown baseline `{other}`")),
    }
    Ok(())
}

fn cmd_workload(args: Vec<String>) -> Result<(), String> {
    let mut name = None;
    let mut out_dir = ".".to_string();
    let mut n: usize = 50;
    let mut seed: u64 = 42;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_dir = it.next().ok_or("--out requires a value")?,
            "--n" => {
                n = it
                    .next()
                    .ok_or("--n requires a value")?
                    .parse()
                    .map_err(|e| format!("bad --n: {e}"))?
            }
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed requires a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            other if !other.starts_with("--") && name.is_none() => name = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let name = name.ok_or("usage: park workload <list|name> [--out DIR] [--n N] [--seed S]")?;
    let write = |stem: &str, ext: &str, contents: &str| -> Result<(), String> {
        let path = format!("{out_dir}/{stem}.{ext}");
        std::fs::write(&path, contents).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("wrote {path}");
        Ok(())
    };
    match name.as_str() {
        "list" => {
            println!("irreflexive-graph  closure  chains  payroll  inventory  inventory-guards");
        }
        "irreflexive-graph" => {
            write(
                "irreflexive_graph",
                "park",
                &park_workloads::irreflexive_graph_program(),
            )?;
            write(
                "irreflexive_graph",
                "facts",
                &park_workloads::nodes_database(n),
            )?;
        }
        "closure" => {
            write(
                "closure",
                "park",
                &park_workloads::transitive_closure_program(),
            )?;
            write(
                "closure",
                "facts",
                &park_workloads::erdos_renyi_edges(n, 0.1, seed),
            )?;
        }
        "chains" => {
            let (p, f) = park_workloads::staggered_conflicts(n.min(64));
            write("chains", "park", &p)?;
            write("chains", "facts", &f)?;
        }
        "payroll" => {
            let cfg = park_workloads::PayrollConfig {
                employees: n,
                seed,
                ..Default::default()
            };
            let (facts, updates) = park_workloads::payroll_database(&cfg);
            write("payroll", "park", &park_workloads::payroll_program())?;
            write("payroll", "facts", &facts)?;
            write("payroll", "updates", &updates)?;
        }
        "inventory" => {
            let cfg = park_workloads::InventoryConfig {
                items: n,
                seed,
                ..Default::default()
            };
            write("inventory", "park", &park_workloads::inventory_program())?;
            write(
                "inventory",
                "facts",
                &park_workloads::inventory_database(&cfg),
            )?;
        }
        "inventory-guards" => {
            let cfg = park_workloads::InventoryConfig {
                items: n,
                seed,
                ..Default::default()
            };
            write(
                "inventory_guards",
                "park",
                &park_workloads::inventory_guard_program(),
            )?;
            write(
                "inventory_guards",
                "facts",
                &park_workloads::inventory_guard_database(&cfg),
            )?;
        }
        other => {
            return Err(format!(
                "unknown workload `{other}` (try `park workload list`)"
            ))
        }
    }
    Ok(())
}

fn cmd_fuzz(args: Vec<String>) -> Result<(), String> {
    let mut seed: u64 = 0;
    let mut cases: u64 = 100;
    let mut metrics: Option<String> = None;
    let mut bias = park_testkit::FuzzBias::Default;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed requires a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--cases" => {
                cases = it
                    .next()
                    .ok_or("--cases requires a value")?
                    .parse()
                    .map_err(|e| format!("bad --cases: {e}"))?
            }
            "--metrics" => metrics = Some(it.next().ok_or("--metrics requires a value")?),
            "--bias" => {
                let v = it.next().ok_or("--bias requires a value")?;
                bias = park_testkit::FuzzBias::parse(&v)
                    .ok_or(format!("bad --bias `{v}` (expected default|stratified)"))?;
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let started = std::time::Instant::now();
    let progress_every = (cases / 10).max(1);
    let report = park_testkit::run_fuzz_biased(
        seed,
        cases,
        park_testkit::OracleVariant::Faithful,
        bias,
        |done, _| {
            if done % progress_every == 0 || done == cases {
                eprintln!("fuzz: {done}/{cases} cases checked");
            }
        },
    )
    .map_err(|f| {
        let flag = match bias {
            park_testkit::FuzzBias::Default => String::new(),
            park_testkit::FuzzBias::Stratified => " --bias stratified".to_string(),
        };
        format!(
            "divergence on case seed {} ({}):\n  {}\nminimized reproducer \
             (rerun with `park fuzz --seed {}{flag} --cases 1`):\n{}",
            f.divergence.seed,
            f.divergence.config,
            f.divergence,
            f.divergence.seed,
            f.minimized.to_text()
        )
    })?;
    if let Some(path) = &metrics {
        // Fuzzing sweeps thousands of independent runs, so the document
        // carries the aggregate counters (no per-step stream).
        let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let doc = Json::object([
            ("schema", Json::str("park-metrics/v1")),
            ("source", Json::str("fuzz")),
            ("seed", Json::from(seed)),
            ("cases", Json::from(report.cases)),
            ("totals", counters_json(&report.counters, elapsed_ns)),
        ]);
        std::fs::write(path, format!("{}\n", doc.to_pretty()))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    println!(
        "fuzz: {} cases, 0 divergences (seed {}, {} ground, {} with conflicts, \
         {} stratified cross-checks; {} engine configs x {} policies per case)",
        report.cases,
        seed,
        report.ground_cases,
        report.conflict_cases,
        report.stratified_checks,
        park_testkit::EngineConfig::matrix().len(),
        park_testkit::POLICIES.len(),
    );
    println!(
        "fuzz: {} update-sequence cases, {} transactions replayed, \
         {} answered warm by the incremental database ({} partial-stratum)",
        report.sequence_cases, report.sequence_txs, report.warm_txs, report.partial_txs,
    );
    Ok(())
}

fn counters_json(c: &park_engine::StatCounters, elapsed_ns: u64) -> Json {
    Json::object([
        ("gamma_steps", Json::from(c.gamma_steps)),
        ("restarts", Json::from(c.restarts)),
        ("conflicts_resolved", Json::from(c.conflicts_resolved)),
        ("groundings_fired", Json::from(c.groundings_fired)),
        ("blocked_instances", Json::from(c.blocked_instances)),
        ("eval_tasks", Json::from(c.eval_tasks)),
        ("replayed_steps", Json::from(c.replayed_steps)),
        (
            "replay_divergence_step",
            c.replay_divergence_step.map_or(Json::Null, Json::from),
        ),
        ("peak_marked_atoms", Json::from(c.peak_marked_atoms)),
        ("elapsed_ns", Json::from(elapsed_ns)),
    ])
}

/// One validated `park-metrics/v1` document, reduced to what the report
/// renders.
struct MetricsDoc {
    path: String,
    source: String,
    policy: String,
    scope: String,
    counters: park_engine::StatCounters,
    elapsed_ns: u64,
    rules: Vec<(String, u64, u64)>,
    resolutions: Vec<(String, String, u64)>,
    replays_served: u64,
    divergences: u64,
}

fn require_u64(totals: &Json, key: &str, path: &str) -> Result<u64, String> {
    totals
        .get(key)
        .and_then(Json::as_i64)
        .and_then(|n| u64::try_from(n).ok())
        .ok_or_else(|| format!("{path}: totals.{key} missing or not a non-negative integer"))
}

fn load_metrics_doc(path: &str) -> Result<MetricsDoc, String> {
    let doc = park_json::parse(&read_file(path)?).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("park-metrics/v1") => {}
        Some(other) => return Err(format!("{path}: unsupported schema `{other}`")),
        None => return Err(format!("{path}: missing `schema` field")),
    }
    let totals = doc
        .get("totals")
        .ok_or_else(|| format!("{path}: missing `totals` object"))?;
    let counters =
        park_engine::StatCounters {
            gamma_steps: require_u64(totals, "gamma_steps", path)?,
            restarts: require_u64(totals, "restarts", path)?,
            conflicts_resolved: require_u64(totals, "conflicts_resolved", path)?,
            groundings_fired: require_u64(totals, "groundings_fired", path)?,
            blocked_instances: require_u64(totals, "blocked_instances", path)?,
            eval_tasks: require_u64(totals, "eval_tasks", path)?,
            replayed_steps: require_u64(totals, "replayed_steps", path)?,
            replay_divergence_step: match totals.get("replay_divergence_step") {
                None | Some(&Json::Null) => None,
                Some(v) => Some(v.as_i64().and_then(|n| u64::try_from(n).ok()).ok_or_else(
                    || format!("{path}: totals.replay_divergence_step must be an integer or null"),
                )?),
            },
            peak_marked_atoms: require_u64(totals, "peak_marked_atoms", path)?
                .try_into()
                .map_err(|_| format!("{path}: totals.peak_marked_atoms out of range"))?,
        };
    let elapsed_ns = require_u64(totals, "elapsed_ns", path)?;
    let str_of = |v: Option<&Json>| v.and_then(Json::as_str).unwrap_or("-").to_string();
    // Documents written before the thread pool was removed carry thread
    // counts in `options` and per-step `spans`; unknown keys are ignored.
    let scope = str_of(doc.get("options").and_then(|o| o.get("scope")));
    let rules = doc
        .get("rules")
        .and_then(Json::as_array)
        .map(|rules| {
            rules
                .iter()
                .map(|r| {
                    (
                        str_of(r.get("rule")),
                        r.get("fired").and_then(Json::as_i64).unwrap_or(0) as u64,
                        r.get("blocked").and_then(Json::as_i64).unwrap_or(0) as u64,
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    let resolutions = doc
        .get("restarts")
        .and_then(Json::as_array)
        .map(|restarts| {
            restarts
                .iter()
                .flat_map(|r| {
                    r.get("resolutions")
                        .and_then(Json::as_array)
                        .unwrap_or(&[])
                        .iter()
                        .map(|res| {
                            (
                                str_of(res.get("atom")),
                                str_of(res.get("resolution")),
                                res.get("newly_blocked").and_then(Json::as_i64).unwrap_or(0) as u64,
                            )
                        })
                        .collect::<Vec<_>>()
                })
                .collect()
        })
        .unwrap_or_default();
    let (replays_served, divergences) = doc
        .get("replays")
        .and_then(Json::as_array)
        .map(|replays| {
            (
                replays
                    .iter()
                    .map(|r| r.get("served").and_then(Json::as_i64).unwrap_or(0) as u64)
                    .sum(),
                replays
                    .iter()
                    .filter(|r| !matches!(r.get("divergence_step"), None | Some(&Json::Null)))
                    .count() as u64,
            )
        })
        .unwrap_or((0, 0));
    Ok(MetricsDoc {
        path: path.to_string(),
        source: str_of(doc.get("source")),
        policy: str_of(doc.get("policy")),
        scope,
        counters,
        elapsed_ns,
        rules,
        resolutions,
        replays_served,
        divergences,
    })
}

fn cmd_report(args: Vec<String>) -> Result<(), String> {
    let mut files = Vec::new();
    let mut out_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = Some(it.next().ok_or("--out requires a value")?),
            other if !other.starts_with("--") => files.push(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if files.is_empty() {
        return Err("usage: park report <metrics.json>... [--out <file>]".into());
    }
    let docs = files
        .iter()
        .map(|f| load_metrics_doc(f))
        .collect::<Result<Vec<_>, _>>()?;

    use std::collections::BTreeMap;
    use std::fmt::Write as _;
    let mut md = String::new();
    let _ = writeln!(md, "# PARK run-metrics report");
    let _ = writeln!(md);
    let _ = writeln!(
        md,
        "(generated by `park report` from {} park-metrics/v1 document{})",
        docs.len(),
        if docs.len() == 1 { "" } else { "s" },
    );
    let _ = writeln!(md);
    let _ = writeln!(md, "## Totals");
    let _ = writeln!(md);
    let _ = writeln!(
        md,
        "| file | source | policy | scope | steps | restarts | conflicts | fired | blocked | tasks | replayed | peak | elapsed ms |"
    );
    let _ = writeln!(
        md,
        "|------|--------|--------|--------|-------|----------|-----------|-------|---------|-------|----------|------|------------|"
    );
    let mut total = park_engine::StatCounters::default();
    let mut total_ns: u64 = 0;
    for d in &docs {
        let c = &d.counters;
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {:.2} |",
            d.path,
            d.source,
            d.policy,
            d.scope,
            c.gamma_steps,
            c.restarts,
            c.conflicts_resolved,
            c.groundings_fired,
            c.blocked_instances,
            c.eval_tasks,
            c.replayed_steps,
            c.peak_marked_atoms,
            d.elapsed_ns as f64 / 1e6,
        );
        total.absorb(c);
        total_ns = total_ns.saturating_add(d.elapsed_ns);
    }
    if docs.len() > 1 {
        let _ = writeln!(
            md,
            "| **all** | | | | {} | {} | {} | {} | {} | {} | {} | {} | {:.2} |",
            total.gamma_steps,
            total.restarts,
            total.conflicts_resolved,
            total.groundings_fired,
            total.blocked_instances,
            total.eval_tasks,
            total.replayed_steps,
            total.peak_marked_atoms,
            total_ns as f64 / 1e6,
        );
    }

    let mut per_rule: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for d in &docs {
        for (rule, fired, blocked) in &d.rules {
            let e = per_rule.entry(rule.clone()).or_insert((0, 0));
            e.0 += fired;
            e.1 += blocked;
        }
    }
    if !per_rule.is_empty() {
        let _ = writeln!(md);
        let _ = writeln!(md, "## Per-rule firings");
        let _ = writeln!(md);
        let _ = writeln!(md, "| rule | fired | blocked groundings |");
        let _ = writeln!(md, "|------|-------|--------------------|");
        for (rule, (fired, blocked)) in &per_rule {
            let _ = writeln!(md, "| {rule} | {fired} | {blocked} |");
        }
    }

    let mut causes: BTreeMap<(String, String), (u64, u64)> = BTreeMap::new();
    for d in &docs {
        for (atom, resolution, newly) in &d.resolutions {
            let e = causes
                .entry((atom.clone(), resolution.clone()))
                .or_insert((0, 0));
            e.0 += 1;
            e.1 += newly;
        }
    }
    if !causes.is_empty() {
        let _ = writeln!(md);
        let _ = writeln!(md, "## Restart causes");
        let _ = writeln!(md);
        let _ = writeln!(md, "| conflict atom | resolution | times | newly blocked |");
        let _ = writeln!(md, "|---------------|------------|-------|---------------|");
        for ((atom, resolution), (times, newly)) in &causes {
            let _ = writeln!(md, "| `{atom}` | {resolution} | {times} | {newly} |");
        }
    }

    let served: u64 = docs.iter().map(|d| d.replays_served).sum();
    let diverged: u64 = docs.iter().map(|d| d.divergences).sum();
    if served > 0 || total.replayed_steps > 0 {
        let _ = writeln!(md);
        let _ = writeln!(md, "## Replay savings");
        let _ = writeln!(md);
        let _ = writeln!(
            md,
            "{} of {} Γ steps served from the warm-restart log instead of \
             evaluated live ({} replay{} diverged).",
            total.replayed_steps,
            total.gamma_steps + total.restarts,
            diverged,
            if diverged == 1 { "" } else { "s" },
        );
    }

    match out_path {
        Some(path) => {
            std::fs::write(&path, &md).map_err(|e| format!("cannot write `{path}`: {e}"))?
        }
        None => print!("{md}"),
    }
    Ok(())
}
