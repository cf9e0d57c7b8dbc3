//! Conjunctive queries over database instances and i-interpretations.
//!
//! A query is a rule body evaluated for its satisfying substitutions —
//! positive and negated conditions, event literals (meaningful when the
//! target is a mid-run i-interpretation), and comparison guards all work,
//! with the same safety discipline as rule bodies. The query compiles
//! into a rule with a synthetic head capturing the query's variables.
//!
//! Answering runs on the compiled path, in place: the rule is lowered
//! against the state it reads ([`lowering`](mod@crate::lower)) and
//! executed by [`crate::bytecode::fire_all_lowered`] over an
//! i-interpretation that shares the caller's shards. A query runs exactly
//! once, so its first access op scans instead of asking for an index, and
//! a probe that binds every column reads the relation's row hash; only
//! the partially bound probes after the first op request base indexes,
//! and only those can copy a shared shard. Debug builds compare every
//! answer set with the definitional [`crate::gamma::fire_all`] over the
//! same state.
//!
//! ```
//! use park_engine::query::Query;
//! use park_storage::{FactStore, Vocabulary};
//!
//! let vocab = Vocabulary::new();
//! let db = FactStore::from_source(
//!     vocab.clone(),
//!     "emp(ann). emp(bob). active(ann).",
//! ).unwrap();
//! let q = Query::parse(&vocab, "?- emp(X), !active(X).").unwrap();
//! let rows = q.run_on_database(&db);
//! assert_eq!(q.render_rows(&rows), vec!["X = bob"]);
//! ```

use crate::bytecode;
use crate::compile::CompiledProgram;
use crate::error::{EngineError, EngineResult};
use crate::gamma::FiredAction;
use crate::grounding::BlockedSet;
use crate::interp::IInterpretation;
use crate::lower;
use park_storage::{FactStore, Tuple, Value, Vocabulary};
use park_syntax::{parse_query, Atom, BodyLiteral, Head, Program, Rule, Sign, Term};
use std::sync::Arc;

/// A compiled conjunctive query.
#[derive(Debug, Clone)]
pub struct Query {
    program: CompiledProgram,
    /// The distinct variable names, in first-occurrence order — the
    /// columns of each answer row.
    vars: Vec<String>,
}

/// The reserved head-predicate prefix queries compile into; the arity is
/// appended so queries of different widths coexist in one vocabulary.
const ANSWER_PRED: &str = "__park_query_answer";

impl Query {
    /// Compile a parsed body into a query against `vocab`.
    pub fn new(vocab: &Arc<Vocabulary>, body: Vec<BodyLiteral>) -> EngineResult<Query> {
        // Distinct variables in first-occurrence order become the head.
        let mut vars: Vec<String> = Vec::new();
        for lit in &body {
            for v in lit.vars() {
                if !vars.iter().any(|x| x == v) {
                    vars.push(v.to_string());
                }
            }
        }
        let head = Head {
            sign: Sign::Insert,
            atom: Atom::new(
                format!("{ANSWER_PRED}_{}", vars.len()),
                vars.iter().map(|v| Term::var(v.clone())).collect(),
            ),
        };
        let rule = Rule::new(body, head).named("query");
        let program =
            CompiledProgram::compile(Arc::clone(vocab), &Program::from_rules(vec![rule]))?;
        Ok(Query { program, vars })
    }

    /// Parse and compile a query source such as `"?- p(X), !q(X)."`.
    pub fn parse(vocab: &Arc<Vocabulary>, src: &str) -> EngineResult<Query> {
        let body = parse_query(src).map_err(EngineError::QuerySyntax)?;
        Query::new(vocab, body)
    }

    /// The answer columns (distinct variables, first-occurrence order).
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// Evaluate against an i-interpretation (event literals see its
    /// marks). Each row assigns the query's variables in order.
    ///
    /// The query is lowered against `interp`'s base zone, and the indexes
    /// the lowered plan requests are installed on the non-empty relations
    /// of `interp` first (a no-op when already present) — the first access
    /// op and every full-mask probe request none.
    pub fn run(&self, interp: &mut IInterpretation) -> Vec<Tuple> {
        let lowered = lower::lower_once(&self.program, interp.base());
        for req in lowered.index_requests() {
            if interp
                .zone(req.zone)
                .relation(req.pred)
                .is_some_and(|r| !r.is_empty())
            {
                interp.zone_mut(req.zone).ensure_index(req.pred, req.mask);
            }
        }
        let blocked = BlockedSet::new();
        let rows = self.answer_rows(bytecode::fire_all_lowered(&lowered, &blocked, interp, None).0);
        #[cfg(debug_assertions)]
        {
            let reference = crate::gamma::fire_all(&self.program, &blocked, interp);
            assert_eq!(
                rows,
                self.answer_rows(reference),
                "compiled query answers differ from the Γ reference"
            );
        }
        rows
    }

    /// Decode fired answer heads into rows, sorted and deduplicated.
    fn answer_rows(&self, fired: Vec<FiredAction>) -> Vec<Tuple> {
        // Decode at the answer boundary and sort with the vocabulary-aware
        // comparator (symbols by name): raw `Value` order ranks symbols by
        // SymId, i.e. intern order, so the same database restored into a
        // session that interned constants in a different order would answer
        // in a different row order.
        let vocab = self.program.vocab();
        let mut rows: Vec<Tuple> = fired.iter().map(|f| vocab.decode_row(&f.tuple)).collect();
        rows.sort_by(|a, b| vocab.cmp_tuples(a, b));
        rows.dedup();
        rows
    }

    /// Evaluate against a plain database (no marks: positive literals are
    /// membership, negation is closed-world, event literals never match).
    /// The evaluation shares `db`'s shards; a shard is copied only when a
    /// partially bound probe after the query's first op needs a base index
    /// `db` lacks.
    pub fn run_on_database(&self, db: &FactStore) -> Vec<Tuple> {
        self.run(&mut IInterpretation::from_database(db.clone()))
    }

    /// True if the query has at least one answer.
    pub fn holds_on(&self, db: &FactStore) -> bool {
        !self.run_on_database(db).is_empty()
    }

    /// Render rows as `X = a, Y = 3` strings.
    pub fn render_rows(&self, rows: &[Tuple]) -> Vec<String> {
        let vocab = self.program.vocab();
        rows.iter()
            .map(|t| {
                if self.vars.is_empty() {
                    "true".to_string()
                } else {
                    self.vars
                        .iter()
                        .enumerate()
                        .map(|(i, v)| format!("{v} = {}", vocab.constant(t.get(i))))
                        .collect::<Vec<_>>()
                        .join(", ")
                }
            })
            .collect()
    }
}

/// Resolve the value of variable `name` in a row of `query`.
pub fn row_value(query: &Query, row: &Tuple, name: &str) -> Option<Value> {
    query
        .vars()
        .iter()
        .position(|v| v == name)
        .map(|i| row.get(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::IndexRequest;
    use crate::validity::MarkZone;

    fn db(src: &str) -> (Arc<Vocabulary>, FactStore) {
        let vocab = Vocabulary::new();
        let store = FactStore::from_source(Arc::clone(&vocab), src).unwrap();
        (vocab, store)
    }

    #[test]
    fn single_literal_query() {
        let (vocab, store) = db("p(a). p(b). q(c).");
        let q = Query::parse(&vocab, "p(X)").unwrap();
        let rows = q.run_on_database(&store);
        assert_eq!(q.render_rows(&rows), vec!["X = a", "X = b"]);
        assert_eq!(q.vars(), &["X".to_string()]);
    }

    #[test]
    fn join_with_negation_and_guard() {
        let (vocab, store) = db(
            "emp(a). emp(b). emp(c). active(a). active(b). payroll(a, 10). \
             payroll(b, 200). payroll(c, 300).",
        );
        let q = Query::parse(&vocab, "?- emp(X), active(X), payroll(X, S), S > 100.").unwrap();
        let rows = q.run_on_database(&store);
        assert_eq!(q.render_rows(&rows), vec!["X = b, S = 200"]);
        let q = Query::parse(&vocab, "?- emp(X), !active(X).").unwrap();
        let rows = q.run_on_database(&store);
        assert_eq!(q.render_rows(&rows), vec!["X = c"]);
    }

    #[test]
    fn ground_queries_answer_true_or_nothing() {
        let (vocab, store) = db("p(a).");
        let q = Query::parse(&vocab, "p(a)").unwrap();
        assert_eq!(q.render_rows(&q.run_on_database(&store)), vec!["true"]);
        assert!(q.holds_on(&store));
        let q = Query::parse(&vocab, "p(b)").unwrap();
        assert!(q.run_on_database(&store).is_empty());
        assert!(!q.holds_on(&store));
    }

    #[test]
    fn event_literals_query_marks() {
        let (vocab, store) = db("s(a).");
        let mut interp = IInterpretation::from_database(store.clone());
        let s = vocab.lookup_pred("s").unwrap();
        let row = [vocab.encode(Value::Sym(vocab.sym("a")))];
        interp.insert_marked(Sign::Delete, s, &row);
        let q = Query::parse(&vocab, "-s(X)").unwrap();
        assert_eq!(q.render_rows(&q.run(&mut interp)), vec!["X = a"]);
        // Against the plain database the event never matches.
        assert!(q.run_on_database(&store).is_empty());
    }

    #[test]
    fn run_installs_the_plan_requested_indexes() {
        // Regression: `run` used to evaluate against a caller-supplied
        // interpretation without installing the plan's index requests
        // (unlike `run_on_database`), so mid-run queries joined through the
        // unindexed scan fallback. The requests are the run-once lowered
        // plan's: its first access scans, later partial probes index.
        let facts: String = (0..40)
            .map(|i| format!("p(n{i}). e(n{i}, m{i}). e(n{i}, k{i}). q(n{i}, m{i}). "))
            .collect();
        let (vocab, store) = db(&facts);
        // p scans, q is probed by X, e by X and Y (a full mask).
        let q = Query::parse(&vocab, "?- p(X), e(X, Y), q(X, Y).").unwrap();
        let lowered = lower::lower_once(&q.program, &store);
        let (full, partial): (Vec<&IndexRequest>, Vec<_>) = lowered
            .index_requests()
            .iter()
            .filter(|r| r.zone == MarkZone::Base)
            .partition(|r| r.mask.covers_all(2));
        assert_eq!((full.len(), partial.len()), (1, 1), "{partial:?} {full:?}");
        let partial = partial[0];
        let mut interp = IInterpretation::from_database(store);
        let indexed = |interp: &IInterpretation| {
            let rel = interp.base().relation(partial.pred);
            rel.is_some_and(|r| r.has_index(partial.mask))
        };
        assert!(
            !indexed(&interp),
            "precondition: the index is not there before the query runs"
        );
        let rows = q.run(&mut interp);
        assert_eq!(rows.len(), 40);
        assert!(
            indexed(&interp),
            "the indexed probe path is taken by `run` itself"
        );
        // The partial probe's index is the only one built: the full-mask
        // probe reads the row hash, so no full-mask index exists.
        let built: usize = [MarkZone::Base, MarkZone::Plus, MarkZone::Minus]
            .into_iter()
            .map(|zone| {
                let store = interp.zone(zone);
                store
                    .nonempty_preds()
                    .map(|p| store.relation(p).unwrap().index_count())
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(built, 1);
    }

    #[test]
    fn syntax_errors_are_typed() {
        let (vocab, _) = db("p(a).");
        let err = Query::parse(&vocab, "?- p(X").unwrap_err();
        assert!(matches!(err, EngineError::QuerySyntax(_)), "{err:?}");
        assert_eq!(
            err.to_string(),
            "query syntax error: 1:5: expected `)` or `,`, found end of input"
        );
    }

    #[test]
    fn unsafe_queries_are_rejected() {
        let (vocab, _) = db("p(a).");
        assert!(Query::parse(&vocab, "!p(X)").is_err());
        assert!(Query::parse(&vocab, "p(X), Y > 3").is_err());
        assert!(Query::parse(&vocab, "this is not a query").is_err());
    }

    #[test]
    fn duplicate_rows_are_collapsed() {
        let (vocab, store) = db("e(a, b). e(a, c).");
        // X occurs twice through the join but answers project onto X only.
        let q = Query::parse(&vocab, "e(X, Y)").unwrap();
        assert_eq!(q.run_on_database(&store).len(), 2);
        let q2 = Query::parse(&vocab, "e(a, Y), e(a, Z)").unwrap();
        // 2x2 combinations, all distinct as (Y, Z) pairs.
        assert_eq!(q2.run_on_database(&store).len(), 4);
    }

    #[test]
    fn queries_of_different_widths_share_a_vocabulary() {
        let (vocab, store) = db("e(a, b). p(a).");
        let q1 = Query::parse(&vocab, "p(X)").unwrap();
        let q2 = Query::parse(&vocab, "e(X, Y)").unwrap();
        let q3 = Query::parse(&vocab, "p(a)").unwrap();
        assert_eq!(q1.run_on_database(&store).len(), 1);
        assert_eq!(q2.run_on_database(&store).len(), 1);
        assert_eq!(q3.run_on_database(&store).len(), 1);
    }

    #[test]
    fn row_order_survives_cross_session_restore() {
        // Regression: rows used to sort in raw `Value` (SymId) order, so a
        // snapshot taken in one session and restored into a fresh session
        // with a different intern order answered in a different row order.
        let run = |src: &str| {
            let (vocab, store) = db(src);
            let q = Query::parse(&vocab, "p(X)").unwrap();
            q.render_rows(&q.run_on_database(&store))
        };
        // Same database, opposite intern orders (a snapshot restores in
        // sorted order; the live session interned zeta first).
        assert_eq!(run("p(zeta). p(alpha)."), run("p(alpha). p(zeta)."));
        assert_eq!(run("p(zeta). p(alpha)."), vec!["X = alpha", "X = zeta"]);
        // Spilled big integers break raw code order too; decoded rows must
        // still sort numerically with symbols first.
        let big = (1i64 << 40).to_string();
        let rows = run(&format!("p({big}). p(7). p(sym)."));
        assert_eq!(
            rows,
            vec!["X = sym".to_string(), "X = 7".into(), format!("X = {big}")]
        );
    }

    #[test]
    fn row_value_lookup() {
        let (vocab, store) = db("payroll(a, 10).");
        let q = Query::parse(&vocab, "payroll(X, S)").unwrap();
        let rows = q.run_on_database(&store);
        assert_eq!(row_value(&q, &rows[0], "S"), Some(Value::Int(10)));
        assert_eq!(row_value(&q, &rows[0], "Nope"), None);
    }
}
