//! Cross-checks between the static analyzer (`park-lint` / the engine's
//! `refine` module) and observed runtime behaviour.
//!
//! Three claims are exercised:
//!
//! 1. The harness detects an *unsound* analysis: under the deliberately
//!    broken `IgnoreHeadConstants` variant, a program whose conflict hides
//!    behind a head constant is wrongly certified conflict-free, and the
//!    certificate cross-check — against the oracle, which collects
//!    conflicts on every step — reports it as a divergence.
//! 2. Every runtime conflict observed across the regression corpus and a
//!    fuzz sweep involves a rule pair listed by `analysis::conflict_pairs`
//!    — the syntactic pair analysis over-approximates, never misses.
//! 3. The conflict-free certificate fast path is unobservable: on a
//!    certified program, every cell of the matrix matches the
//!    paper-literal oracle (which keeps the conflict machinery live).

use park_engine::{
    analysis, CompiledProgram, Conflict, ConflictResolver, Engine, Resolution, RuleId,
    SelectContext,
};
use park_storage::{FactStore, Vocabulary};
use park_testkit::{check_case_with, AnalysisVariant, Case, EngineConfig, OracleVariant};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

/// The head-constant trap: `cut` only deletes `q(c0)`, which `grow`
/// inserts whenever `p(c0)` holds — a real conflict that disappears if the
/// analysis ignores constants in rule heads.
fn head_constant_case() -> Case {
    Case::parse(
        "rules:\n\
         grow: p(X) -> +q(X).\n\
         cut: p(X) -> -q(c0).\n\
         facts:\n\
         p(c0).\n",
    )
    .unwrap()
}

#[test]
fn faithful_analysis_passes_the_head_constant_case() {
    check_case_with(
        &head_constant_case(),
        OracleVariant::Faithful,
        AnalysisVariant::Faithful,
    )
    .unwrap_or_else(|d| panic!("faithful analysis diverged: {d}"));
}

#[test]
fn broken_analysis_variant_is_caught_by_the_certificate_crosscheck() {
    let err = check_case_with(
        &head_constant_case(),
        OracleVariant::Faithful,
        AnalysisVariant::IgnoreHeadConstants,
    )
    .expect_err("the broken analysis wrongly certifies this program");
    assert_eq!(err.config, "lint-certificate", "{err}");
    assert!(err.detail.contains("certified conflict-free"), "{err}");
}

/// A resolver wrapper that records the `(inserting, deleting)` rule-id
/// pairs of every conflict it is asked to resolve.
struct RecordingResolver {
    inner: Box<dyn ConflictResolver>,
    seen: Vec<(RuleId, RuleId)>,
}

impl ConflictResolver for RecordingResolver {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn select(
        &mut self,
        ctx: &SelectContext<'_>,
        conflict: &Conflict,
    ) -> Result<Resolution, String> {
        for ins in &conflict.ins {
            for del in &conflict.del {
                self.seen.push((ins.rule, del.rule));
            }
        }
        self.inner.select(ctx, conflict)
    }
}

/// Run one case under every policy with a default engine and assert every
/// observed conflict pair is in the static `conflict_pairs` listing.
fn assert_conflicts_predicted(tag: &str, case: &Case) {
    let vocab = Vocabulary::new();
    let program = park_syntax::parse_program(&case.program_source()).unwrap();
    let db = FactStore::from_source(Arc::clone(&vocab), &case.facts_source()).unwrap();
    let compiled = CompiledProgram::compile(Arc::clone(&vocab), &program).unwrap();
    let predicted: BTreeSet<(RuleId, RuleId)> = analysis::conflict_pairs(&compiled)
        .into_iter()
        .map(|p| (p.inserting, p.deleting))
        .collect();
    let engine = Engine::new(Arc::clone(&vocab), &program).unwrap();
    for policy in park_testkit::POLICIES {
        let mut rec = RecordingResolver {
            inner: park_policies::by_name(policy).unwrap(),
            seen: Vec::new(),
        };
        // Engine errors (e.g. resolver-driven livelock guards) are fine
        // here: any conflicts recorded before the failure still count.
        let _ = engine.park(&db, &mut rec);
        for (ins, del) in rec.seen {
            assert!(
                predicted.contains(&(ins, del)),
                "{tag} (policy {policy}): runtime conflict between rules \
                 {ins:?} and {del:?} was not predicted by conflict_pairs"
            );
        }
    }
}

#[test]
fn every_corpus_conflict_is_statically_predicted() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let case = Case::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_conflicts_predicted(&name, &case);
    }
}

#[test]
fn every_fuzzed_conflict_is_statically_predicted() {
    for seed in 0..500 {
        let case = park_testkit::generate(seed);
        assert_conflicts_predicted(&format!("seed {seed}"), &case);
    }
}

#[test]
fn certificate_fast_path_is_byte_identical_across_the_matrix() {
    // Guards partition the value space, so refinement certifies the
    // program conflict-free even though the heads alone clash. The
    // harness holds every certified matrix cell to the oracle, which
    // keeps the conflict machinery live, under every policy.
    let case = Case {
        seed: 0,
        rules: vec![
            "grow: p(X), X < 5 -> +q(X).".into(),
            "cut: p(X), X >= 5 -> -q(X).".into(),
        ],
        facts: (0..10).map(|i| format!("p({i}).")).collect(),
        txs: Vec::new(),
    };
    check_case_with(&case, OracleVariant::Faithful, AnalysisVariant::Faithful)
        .unwrap_or_else(|d| panic!("fast path observable: {d}"));
    let vocab = Vocabulary::new();
    let program = park_syntax::parse_program(&case.program_source()).unwrap();
    let db = FactStore::from_source(Arc::clone(&vocab), &case.facts_source()).unwrap();
    for cfg in EngineConfig::matrix() {
        let engine = Engine::with_options(Arc::clone(&vocab), &program, cfg.options()).unwrap();
        let mut select = park_policies::by_name("inertia").unwrap();
        let out = engine.park(&db, select.as_mut()).unwrap();
        assert!(out.stats.certified_conflict_free, "{}", cfg.label());
        assert_eq!(out.stats.restarts, 0, "{}", cfg.label());
    }
}
