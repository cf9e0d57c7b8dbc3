//! `report` — regenerate every paper-vs-measured table for EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p park-bench --bin report --release
//! ```
//!
//! Prints markdown: one row per worked example (E1–E8) with the paper's
//! printed result next to the measured one, followed by the quantitative
//! experiments (C1–C5, C7–C9, C11).

use park_baselines::naive_mark_eliminate;
use park_bench::{growth_exponent, median_time_ms, Session};
use park_engine::{
    CompiledProgram, Conflict, ConflictResolver, Engine, EngineOptions, Inertia, Resolution,
    ResolutionScope, SelectContext,
};
use park_policies::{
    PolicyCritic, PreferDelete, PreferInsert, RandomPolicy, RulePriority, ScriptedOracle,
    Specificity, Voting,
};
use park_storage::{FactStore, UpdateSet, Vocabulary};
use park_syntax::parse_program;
use park_workloads as wl;
use std::sync::Arc;

fn session(rules: &str, facts: &str) -> Session {
    Session::new(rules, facts, EngineOptions::default())
}

fn show(store: &FactStore) -> String {
    store.to_string()
}

struct PaperSelect42;
impl ConflictResolver for PaperSelect42 {
    fn name(&self) -> &str {
        "paper-4.2"
    }
    fn select(&mut self, ctx: &SelectContext<'_>, c: &Conflict) -> Result<Resolution, String> {
        let v = ctx.program.vocab();
        let x = v.constant(c.tuple.get(0)).to_string();
        let y = v.constant(c.tuple.get(1)).to_string();
        if x == y || (x == "a" && y == "c") || (x == "c" && y == "a") {
            Ok(Resolution::Delete)
        } else {
            Ok(Resolution::Insert)
        }
    }
}

fn worked_examples() {
    println!("## Worked examples (E1-E8)\n");
    println!("| id | paper locus | policy | paper result | measured result | agree |");
    println!("|----|-------------|--------|--------------|-----------------|-------|");

    let row = |id: &str, locus: &str, policy: &str, paper: &str, measured: String, note: &str| {
        let agree = if measured == paper {
            "yes".to_string()
        } else {
            format!("see note: {note}")
        };
        println!("| {id} | {locus} | {policy} | `{paper}` | `{measured}` | {agree} |");
    };

    // E1
    let s = session("r1: p -> +q. r2: p -> -a. r3: q -> +a.", "p.");
    row(
        "E1",
        "§4.1 P1",
        "inertia",
        "{p, q}",
        show(&s.run_inertia().database),
        "",
    );

    // E2
    let s = session(
        "r1: p -> +q. r2: p -> -a. r3: q -> +a. r4: !a -> +r. r5: a -> +s.",
        "p.",
    );
    row(
        "E2",
        "§4.1 P2",
        "inertia",
        "{p, q, r}",
        show(&s.run_inertia().database),
        "",
    );

    // E3
    let s = session(
        "r1: p -> +q. r2: p -> -q. r3: q -> +a. r4: q -> -a. r5: p -> +a.",
        "p.",
    );
    row(
        "E3",
        "§4.1 P3",
        "inertia",
        "{a, p}",
        show(&s.run_inertia().database),
        "",
    );

    // E4
    let s = session(
        "r1: p(X), p(Y) -> +q(X, Y). r2: q(X, X) -> -q(X, X).
         r3: q(X, Y), q(X, Z), q(Z, Y) -> -q(X, Y).",
        "p(a). p(b). p(c).",
    );
    let out = s.run(&mut PaperSelect42);
    row(
        "E4",
        "§4.2 worked fixpoint",
        "paper's custom SELECT",
        "{p(a), p(b), p(c), q(a, b), q(b, a), q(b, c), q(c, b)}",
        show(&out.database),
        "",
    );

    // E5
    let s = session(
        "r1: p(X) -> +q(X). r2: q(X) -> +r(X). r3: +r(X) -> -s(X).",
        "p(a). s(a). s(b).",
    )
    .with_updates("+q(b).");
    row(
        "E5",
        "§4.3 ECA ex.1",
        "inertia",
        "{p(a), q(a), q(b), r(a), r(b)}",
        show(&s.run_inertia().database),
        "",
    );

    // E6
    let s = session(
        "r1: q(X, a) -> -p(X, a). r2: q(a, X) -> +r(a, X). r3: +r(X, Y) -> +p(X, Y).",
        "p(a, a). p(a, b). p(a, c).",
    )
    .with_updates("+q(a, a).");
    row(
        "E6",
        "§4.3 ECA ex.2",
        "inertia",
        "{p(a, a), p(a, b), p(a, c), r(a, a)}",
        show(&s.run_inertia().database),
        "paper erratum — its own fixpoint listing I5 contains q(a,a), which incorp keeps",
    );

    // E7a / E7b
    let s = session(
        "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.",
        "p.",
    );
    row(
        "E7a",
        "§5 five rules",
        "inertia",
        "{a, b, p}",
        show(&s.run_inertia().database),
        "",
    );
    let s = session(
        "@priority(1) r1: p -> +a. @priority(2) r2: p -> +q. @priority(3) r3: a -> +b.
         @priority(4) r4: a -> -q. @priority(5) r5: b -> +q.",
        "p.",
    );
    row(
        "E7b",
        "§5 five rules",
        "rule priority",
        "{a, b, p, q}",
        show(&s.run(&mut RulePriority::new()).database),
        "",
    );

    // E8
    let s = session(
        "r1: a -> +b. r2: a -> +d. r3: b -> +c. r4: b -> -d. r5: c -> -b.",
        "a.",
    );
    row(
        "E8",
        "§5 counterintuitive",
        "inertia",
        "{a}",
        show(&s.run_inertia().database),
        "",
    );
    println!();
}

fn c1_scaling() {
    println!("## C1 — polynomial tractability (runtime vs |D|)\n");
    println!("Transitive closure over G(n, 4/n), seed 9:\n");
    println!("| n | |D| edges | |result| | steps | median ms |");
    println!("|---|----------|----------|-------|-----------|");
    let mut points = Vec::new();
    for n in [16usize, 32, 64, 128, 256] {
        let facts = wl::erdos_renyi_edges(n, 4.0 / n as f64, 9);
        let s = session(&wl::transitive_closure_program(), &facts);
        let out = s.run_inertia();
        let ms = median_time_ms(5, || s.run_inertia());
        println!(
            "| {n} | {} | {} | {} | {ms:.2} |",
            s.db.len(),
            out.database.len(),
            out.stats.gamma_steps
        );
        points.push((s.db.len() as f64, ms.max(1e-3)));
    }
    println!(
        "\nempirical growth exponent (t ~ |D|^e): e = {:.2} — polynomial, as required.\n",
        growth_exponent(&points)
    );

    println!("Irreflexive-graph program (§4.2) on n nodes, inertia:\n");
    println!("| n | candidate arcs | conflicts | restarts | median ms |");
    println!("|---|----------------|-----------|----------|-----------|");
    let mut points = Vec::new();
    for n in [4usize, 8, 12, 16, 20] {
        let s = session(&wl::irreflexive_graph_program(), &wl::nodes_database(n));
        let out = s.run_inertia();
        let ms = median_time_ms(3, || s.run_inertia());
        println!(
            "| {n} | {} | {} | {} | {ms:.2} |",
            n * n,
            out.stats.conflicts_resolved,
            out.stats.restarts
        );
        points.push((n as f64, ms.max(1e-3)));
    }
    println!(
        "\nempirical growth exponent in n: e = {:.2} (r3 grounds n^3 instances).\n",
        growth_exponent(&points)
    );
}

fn c2_restarts() {
    println!("## C2 — restart bound (§4.2: at most one elimination per iteration)\n");
    println!("Staggered conflict chains, inertia:\n");
    println!("| chains k | groundings bound | restarts | blocked | median ms |");
    println!("|----------|------------------|----------|---------|-----------|");
    for k in [2usize, 4, 8, 16, 32, 64] {
        let (rules, facts) = wl::staggered_conflicts(k);
        let bound = parse_program(&rules).unwrap().len();
        let s = session(&rules, &facts);
        let out = s.run_inertia();
        let ms = median_time_ms(3, || s.run_inertia());
        println!(
            "| {k} | {bound} | {} | {} | {ms:.2} |",
            out.stats.restarts, out.stats.blocked_instances
        );
        assert!(out.stats.restarts <= bound as u64);
    }
    println!();
}

fn c3_policies() {
    println!("## C3 — policy cost on a fixed conflict load (§5 efficiency)\n");
    let cfg = wl::PayrollConfig {
        employees: 150,
        p_active: 1.0,
        p_eligible: 1.0,
        p_flagged: 1.0,
        p_deactivate: 0.0,
        seed: 13,
    };
    let (facts, _) = wl::payroll_database(&cfg);
    let s = session(&wl::payroll_program(), &facts);
    println!("150 employees, every bonus contested:\n");
    println!("| policy | conflicts | restarts | median ms |");
    println!("|--------|-----------|----------|-----------|");
    let run = |name: &str, policy: &mut dyn ConflictResolver| {
        let out = s.run(policy);
        let ms = median_time_ms(3, || s.run(policy));
        println!(
            "| {name} | {} | {} | {ms:.2} |",
            out.stats.conflicts_resolved, out.stats.restarts
        );
    };
    run("inertia", &mut Inertia);
    run("rule priority", &mut RulePriority::new());
    run("specificity", &mut Specificity::new());
    run("prefer-insert", &mut PreferInsert);
    run("random (seed 1)", &mut RandomPolicy::seeded(1));
    let mut interactive = park_policies::Interactive::new(ScriptedOracle::new(
        std::iter::repeat_n(Resolution::Delete, 1 << 14),
    ));
    run("interactive (scripted)", &mut interactive);
    let mut cheap_panel = Voting::new(
        vec![
            Box::new(PolicyCritic::new(Inertia, Resolution::Delete)),
            Box::new(PolicyCritic::new(PreferDelete, Resolution::Delete)),
            Box::new(PolicyCritic::new(PreferInsert, Resolution::Delete)),
        ],
        Resolution::Delete,
    );
    run("voting (3 cheap critics)", &mut cheap_panel);
    struct ScanCritic;
    impl park_policies::Critic for ScanCritic {
        fn vote(&mut self, ctx: &SelectContext<'_>, _: &Conflict) -> Resolution {
            if ctx.database.iter().count().is_multiple_of(2) {
                Resolution::Delete
            } else {
                Resolution::Insert
            }
        }
    }
    let mut heavy_panel = Voting::new(
        vec![
            Box::new(ScanCritic),
            Box::new(ScanCritic),
            Box::new(ScanCritic),
        ],
        Resolution::Delete,
    );
    run("voting (3 full-scan critics)", &mut heavy_panel);
    println!();
}

fn c4_baseline() {
    println!("## C4 — PARK vs naive mark-and-eliminate (§4.1)\n");
    println!("Correctness divergence (chains with witnesses, inertia):\n");
    println!("| chains k | PARK witnesses | naive witnesses | naive wrong facts |");
    println!("|----------|----------------|-----------------|-------------------|");
    for k in [2usize, 4, 8] {
        let (mut rules, facts) = wl::parallel_conflicts(k, 2);
        for i in 0..k {
            rules.push_str(&format!("w{i}: goal{i} -> +witness{i}.\n"));
        }
        let s = session(&rules, &facts);
        let park_out = s.run_inertia();
        let compiled =
            CompiledProgram::compile(Arc::clone(s.db.vocab()), &parse_program(&rules).unwrap())
                .unwrap();
        let naive_out =
            naive_mark_eliminate(&compiled, &s.db, &UpdateSet::empty(), 1 << 22).unwrap();
        let count = |db: &FactStore| {
            db.sorted_display()
                .iter()
                .filter(|f| f.starts_with("witness"))
                .count()
        };
        println!(
            "| {k} | {} | {} | {} |",
            count(&park_out.database),
            count(&naive_out.database),
            count(&naive_out.database)
        );
    }

    println!("\nRuntime on conflict-free closure (identical results):\n");
    println!("| n | PARK ms | naive ms |");
    println!("|---|---------|----------|");
    for n in [32usize, 64, 128] {
        let facts = wl::erdos_renyi_edges(n, 4.0 / n as f64, 21);
        let s = session(&wl::transitive_closure_program(), &facts);
        let compiled = CompiledProgram::compile(
            Arc::clone(s.db.vocab()),
            &parse_program(&wl::transitive_closure_program()).unwrap(),
        )
        .unwrap();
        let park_ms = median_time_ms(5, || s.run_inertia());
        let naive_ms = median_time_ms(5, || {
            naive_mark_eliminate(&compiled, &s.db, &UpdateSet::empty(), 1 << 22).unwrap()
        });
        let park_db = s.run_inertia().database;
        let naive_db = naive_mark_eliminate(&compiled, &s.db, &UpdateSet::empty(), 1 << 22)
            .unwrap()
            .database;
        assert!(park_db.same_facts(&naive_db));
        println!("| {n} | {park_ms:.2} | {naive_ms:.2} |");
    }
    println!();
}

fn c5_ablation() {
    println!("## C5 — resolution scope ablation (§4.2 closing remark)\n");
    println!("Parallel conflict chains (k chains, length 3), inertia:\n");
    println!("| k | scope | restarts | blocked | median ms | same result |");
    println!("|---|-------|----------|---------|-----------|-------------|");
    for k in [4usize, 16, 32, 64] {
        let (rules, facts) = wl::parallel_conflicts(k, 3);
        let mk = |scope| {
            let vocab = Vocabulary::new();
            let engine = Engine::with_options(
                Arc::clone(&vocab),
                &parse_program(&rules).unwrap(),
                EngineOptions::default().with_scope(scope),
            )
            .unwrap();
            let db = FactStore::from_source(vocab, &facts).unwrap();
            (engine, db)
        };
        let (ea, da) = mk(ResolutionScope::All);
        let (eo, do_) = mk(ResolutionScope::One);
        let oa = ea.park(&da, &mut Inertia).unwrap();
        let oo = eo.park(&do_, &mut Inertia).unwrap();
        let same = oa.database.sorted_display() == oo.database.sorted_display();
        let ms_a = median_time_ms(3, || ea.park(&da, &mut Inertia).unwrap());
        let ms_o = median_time_ms(3, || eo.park(&do_, &mut Inertia).unwrap());
        println!(
            "| {k} | all | {} | {} | {ms_a:.2} | {} |",
            oa.stats.restarts,
            oa.stats.blocked_instances,
            if same { "yes" } else { "no" }
        );
        println!(
            "| {k} | one | {} | {} | {ms_o:.2} | |",
            oo.stats.restarts, oo.stats.blocked_instances
        );
    }
    println!();
}

/// C7 — restart replay counters, and the `BENCH_restarts.json` artifact.
/// Staggered chains under prefer-insert block each chain's late-firing
/// `kill` rule, so nearly the whole previous run replays after every
/// restart. Every row is deterministic work counters: Γ steps, the steps
/// served from the replay log, the steps evaluated live, and the last
/// divergence step. The wall clock is informational only.
///
/// `gamma_steps` counts consistent steps only; each restart adds one more
/// Γ application (its conflicting step), which may itself be replayed. So
/// live steps = `gamma_steps + restarts − replayed_steps`.
fn c7_replay_counters(smoke: bool) {
    use park_json::Json;
    println!("## C7 — restart replay counters\n");
    println!("Staggered conflict chains, prefer-insert:\n");
    println!("| chains k | mode | restarts | Γ steps | replayed steps | live steps | diverged at | ms (informational) |");
    println!("|----------|------|----------|---------|----------------|------------|-------------|--------------------|");
    let sizes: &[usize] = if smoke { &[8] } else { &[16, 32, 64] };
    let mut results: Vec<Json> = Vec::new();
    for &k in sizes {
        let (rules, facts) = wl::staggered_conflicts(k);
        let mode_name = "compiled";
        let session = Session::new(&rules, &facts, EngineOptions::default());
        let out = session.run(&mut PreferInsert);
        let stats = &out.stats;
        assert!(stats.restarts > 0 && stats.replayed_steps > 0);
        let live_steps = stats.gamma_steps + stats.restarts - stats.replayed_steps;
        let ms = median_time_ms(5, || session.run(&mut PreferInsert));
        let diverged = stats
            .replay_divergence_step
            .map_or("-".to_string(), |d| d.to_string());
        println!(
            "| {k} | {mode_name} | {} | {} | {} | {live_steps} | {diverged} | {ms:.2} |",
            stats.restarts, stats.gamma_steps, stats.replayed_steps,
        );
        results.push(Json::object([
            ("workload", Json::str(format!("staggered_conflicts_{k}"))),
            ("mode", Json::str(mode_name)),
            ("policy", Json::str("prefer_insert")),
            ("restarts", Json::from(stats.restarts)),
            ("gamma_steps", Json::from(stats.gamma_steps)),
            ("replayed_steps", Json::from(stats.replayed_steps)),
            ("live_steps", Json::from(live_steps)),
            (
                "divergence_step",
                stats.replay_divergence_step.map_or(Json::Null, Json::from),
            ),
            ("warm_ms", Json::Float(ms)),
        ]));
    }
    let doc = Json::object([
        ("schema", Json::str("park-bench/restarts-v2")),
        ("smoke", Json::from(smoke)),
        ("results", Json::Array(results)),
    ]);
    let rendered = doc.to_pretty() + "\n";
    match std::fs::write("BENCH_restarts.json", &rendered) {
        Ok(()) => {
            // Self-check: the artifact must reparse and report actual replay.
            let back = park_json::parse(&rendered).expect("BENCH_restarts.json reparses");
            let rows = back
                .get("results")
                .and_then(|r| r.as_array())
                .expect("results array");
            assert!(rows.iter().all(|row| {
                row.get("replayed_steps")
                    .and_then(|n| n.as_i64())
                    .unwrap_or(0)
                    > 0
            }));
            println!("\nMachine-readable grid written to `BENCH_restarts.json` (reparse OK).\n");
        }
        Err(e) => println!("\n(could not write BENCH_restarts.json: {e})\n"),
    }
}

/// C8, C9 and C11: the conflict-free certificate verdict and the two
/// cross-transaction incremental experiments (warm vs cold, timed after
/// their outcomes are asserted identical).
fn c8_c11_certificate_and_incremental() {
    // C8: the conflict-free certificate verdict. The workload carries
    // syntactic conflict pairs, but guard refinement certifies it
    // conflict-free, so the run skips conflict provenance and the per-step
    // clash scan (debug builds still check every step inside the engine).
    let cert_out = Session::new(
        &wl::guard_partition_program(8),
        &wl::guard_partition_database(8, 400),
        EngineOptions::default(),
    )
    .run_inertia();
    assert!(cert_out.stats.certified_conflict_free);
    println!("## C8 — conflict-free certificate verdict\n");
    println!(
        "guard_partition_8 (8 guard-split rule pairs, 3200 facts): certified \
         conflict-free, {} restarts.\n",
        cert_out.stats.restarts,
    );
    // C9: cross-transaction incremental evaluation. A certified two-rule
    // program over a 100k-fact base; a chain of small insert transactions
    // is answered by the live warm state and, separately, re-run from
    // scratch per transaction. Warm and cold outcomes are asserted
    // identical per transaction before anything is timed (the soundness
    // contract of docs/incremental.md).
    {
        use park_engine::{certify_incremental, WarmState};
        let rules = "p(X) -> +q(X). q(X), r(X) -> +s(X).";
        let mut facts = String::with_capacity(2 << 20);
        for i in 0..50_000 {
            facts.push_str(&format!("p(k{i}). r(k{i}).\n"));
        }
        let vocab = Vocabulary::new();
        let program = parse_program(rules).expect("C9 program parses");
        let engine = Engine::with_options(Arc::clone(&vocab), &program, EngineOptions::default())
            .expect("C9 program compiles");
        assert!(certify_incremental(engine.program()));
        let db = FactStore::from_source(vocab, &facts).expect("C9 facts parse");
        let settle = engine
            .run(&db, &UpdateSet::empty(), &mut Inertia)
            .expect("PARK terminates");
        let base = settle.database.clone();
        let warm0 = WarmState::build(engine.program(), settle).expect("C9 warm state builds");
        let facts_n = base.len();
        const K: usize = 8;
        let chain: Vec<UpdateSet> = (0..K)
            .map(|i| {
                UpdateSet::from_source(base.vocab(), &format!("+p(new{i})."))
                    .expect("C9 updates parse")
            })
            .collect();
        {
            let mut warm = warm0.clone();
            let mut state = base.clone();
            for u in &chain {
                let report = warm
                    .transact(engine.program(), u)
                    .expect("C9 insert chain stays warm");
                let out = engine
                    .run(&state, u, &mut Inertia)
                    .expect("PARK terminates");
                let (added, removed) = state.diff(&out.database);
                assert!(removed.is_empty(), "C9 chain is insert-only");
                assert_eq!(report.added, added, "C9 warm/cold outcomes disagree");
                state = out.database;
            }
            assert!(warm.state().same_facts(&state), "C9 final states disagree");
        }
        // The warm side measures a *resident* session: one warm state
        // absorbing round after round of fresh single-fact transactions
        // (cloning it per round would re-copy COW-shared shards on the
        // first mutation and bill per-fact work the session never pays).
        let warm_rounds: Vec<Vec<UpdateSet>> = (0..5)
            .map(|r| {
                (0..K)
                    .map(|i| {
                        UpdateSet::from_source(base.vocab(), &format!("+p(w{r}_{i})."))
                            .expect("C9 updates parse")
                    })
                    .collect()
            })
            .collect();
        let mut warm = warm0.clone();
        let mut round = 0usize;
        let warm_ms = median_time_ms(5, || {
            for u in &warm_rounds[round] {
                let _ = warm.transact(engine.program(), u);
            }
            round += 1;
        }) / K as f64;
        let cold_ms = median_time_ms(5, || {
            let mut state = base.clone();
            for u in &chain {
                state = engine
                    .run(&state, u, &mut Inertia)
                    .expect("PARK terminates")
                    .database;
            }
        }) / K as f64;
        let speedup = cold_ms / warm_ms.max(1e-9);
        println!("## C9 — cross-transaction incremental evaluation\n");
        println!(
            "c9_small_updates_100k ({facts_n} settled facts, {K}-transaction chain of \
             1-fact inserts): warm {:.3} ms/tx amortized, cold compiled {:.3} ms/tx \
             ({speedup:.1}x; single-threaded, algorithmic — no parallelism claim).\n",
            warm_ms, cold_ms,
        );
    }
    // C11: deletion-affected-stratum reuse. A certified two-stratum program
    // over a ~100k-fact settled base: a heavy positive stratum (50k `p → q`
    // derivations) and a small negation stratum (`flag, !mute → alert`).
    // Each transaction deletes one `flag` fact — a change whose affected
    // closure is the top stratum alone — so the warm path seeds one minus
    // mark, commits the removal, and revalidates only the `alert` rules,
    // while the cold baseline re-fires all 50k+ groundings from scratch.
    // Warm and cold outcomes are asserted identical per transaction before
    // anything is timed.
    {
        use park_engine::{certify_incremental, WarmState};
        let rules = "p(X) -> +q(X). flag(X), !mute(X) -> +alert(X).";
        let mut facts = String::with_capacity(2 << 20);
        for i in 0..49_500 {
            facts.push_str(&format!("p(k{i}).\n"));
        }
        for i in 0..500 {
            facts.push_str(&format!("flag(f{i}).\n"));
        }
        for i in 0..50 {
            facts.push_str(&format!("mute(f{i}).\n"));
        }
        let vocab = Vocabulary::new();
        let program = parse_program(rules).expect("C11 program parses");
        let engine = Engine::with_options(Arc::clone(&vocab), &program, EngineOptions::default())
            .expect("C11 program compiles");
        assert!(
            certify_incremental(engine.program()),
            "stratified negation certifies"
        );
        let db = FactStore::from_source(vocab, &facts).expect("C11 facts parse");
        let settle = engine
            .run(&db, &UpdateSet::empty(), &mut Inertia)
            .expect("PARK terminates");
        let base = settle.database.clone();
        let warm0 = WarmState::build(engine.program(), settle).expect("C11 warm state builds");
        let facts_n = base.len();
        const K: usize = 8;
        let chain: Vec<UpdateSet> = (0..K)
            .map(|i| {
                UpdateSet::from_source(base.vocab(), &format!("-flag(f{}).", 100 + i))
                    .expect("C11 updates parse")
            })
            .collect();
        {
            let mut warm = warm0.clone();
            let mut state = base.clone();
            for u in &chain {
                let report = warm
                    .transact(engine.program(), u)
                    .expect("C11 base deletions stay warm");
                let out = engine
                    .run(&state, u, &mut Inertia)
                    .expect("PARK terminates");
                let (added, removed) = state.diff(&out.database);
                assert_eq!(report.added, added, "C11 warm/cold added disagree");
                assert_eq!(report.removed, removed, "C11 warm/cold removed disagree");
                assert_eq!(
                    report.stats.gamma_steps, out.stats.gamma_steps,
                    "C11 warm/cold gamma_steps disagree"
                );
                state = out.database;
            }
            assert!(warm.state().same_facts(&state), "C11 final states disagree");
        }
        // As in C9, the warm side measures a resident session: one warm
        // state absorbing rounds of fresh single-deletion transactions.
        let warm_rounds: Vec<Vec<UpdateSet>> = (0..5)
            .map(|r| {
                (0..K)
                    .map(|i| {
                        UpdateSet::from_source(
                            base.vocab(),
                            &format!("-flag(f{}).", 150 + r * K + i),
                        )
                        .expect("C11 updates parse")
                    })
                    .collect()
            })
            .collect();
        let mut warm = warm0.clone();
        let mut round = 0usize;
        let warm_ms = median_time_ms(5, || {
            for u in &warm_rounds[round] {
                let _ = warm.transact(engine.program(), u);
            }
            round += 1;
        }) / K as f64;
        let cold_ms = median_time_ms(5, || {
            let mut state = base.clone();
            for u in &chain {
                state = engine
                    .run(&state, u, &mut Inertia)
                    .expect("PARK terminates")
                    .database;
            }
        }) / K as f64;
        let speedup = cold_ms / warm_ms.max(1e-9);
        println!("## C11 — deletion-affected-stratum reuse\n");
        println!(
            "c11_top_stratum_deletions_100k ({facts_n} settled facts, {K}-transaction chain \
             of 1-fact `flag` deletions): warm partial-stratum {:.3} ms/tx amortized, cold \
             compiled {:.3} ms/tx ({speedup:.1}x; single-threaded, algorithmic — no \
             parallelism claim).\n",
            warm_ms, cold_ms,
        );
    }
}

/// Run the representative C7 warm-restart workload once with the engine's
/// JSON metrics sink and write the full `park-metrics/v1` document: the
/// per-step / per-restart / per-replay detail behind C7's summary table,
/// aggregatable with `park report`.
fn write_bench_metrics(path: &str) {
    use park_engine::JsonMetrics;
    let (rules, facts) = wl::staggered_conflicts(8);
    let s = session(&rules, &facts);
    let mut sink = JsonMetrics::new("bench");
    let out = s
        .engine
        .run_with_metrics(&s.db, &s.updates, &mut PreferInsert, &mut sink)
        .expect("PARK terminates");
    assert!(out.stats.replayed_steps > 0);
    match std::fs::write(path, sink.to_json().to_pretty() + "\n") {
        Ok(()) => println!("Metrics document (C7 warm run) written to `{path}`.\n"),
        Err(e) => println!("(could not write {path}: {e})\n"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let only = args
        .iter()
        .position(|a| a == "--only")
        .map(|i| args.get(i + 1).cloned().unwrap_or_default());
    let metrics = args
        .iter()
        .position(|a| a == "--metrics")
        .map(|i| args.get(i + 1).cloned().unwrap_or_default());
    if let Some(section) = only {
        match section.as_str() {
            "restarts" => c7_replay_counters(smoke),
            other => {
                eprintln!("unknown --only section `{other}` (expected: restarts)");
                std::process::exit(2);
            }
        }
        if let Some(path) = metrics {
            write_bench_metrics(&path);
        }
        return;
    }
    println!("# PARK paper-vs-measured report\n");
    println!("(regenerate with `cargo run -p park-bench --bin report --release`)\n");
    worked_examples();
    c1_scaling();
    c2_restarts();
    c3_policies();
    c4_baseline();
    c5_ablation();
    c7_replay_counters(smoke);
    c8_c11_certificate_and_incremental();
    if let Some(path) = metrics {
        write_bench_metrics(&path);
    }
}
