//! Guard-partitioned conflict-free workloads (experiment C8).
//!
//! Each predicate family carries a syntactic conflict pair — an inserting
//! and a deleting rule whose heads unify — but the bodies split the value
//! space with complementary interval guards, so no grounding can ever
//! contest an atom. The syntactic pair analysis must keep the run's
//! firing log and scan every Γ step for clashes; the refined
//! condition-overlap analysis (`park_engine::refine`) certifies the
//! program conflict-free and the engine skips that bookkeeping entirely.
//! This is the workload that measures what the certificate buys.

use std::fmt::Write as _;

/// `k` predicate families of the shape
///
/// ```text
/// grow_i:  src_i(X), X < 500  -> +val_i(X).
/// cut_i:   src_i(X), X >= 500 -> -val_i(X).
/// chain_i: val_i(X), X < 250  -> +lo_i(X).
/// ```
///
/// `grow_i` / `cut_i` is a syntactic conflict pair on `val_i`, excluded by
/// guard refinement (`X < 500` contradicts `X >= 500` on the head-linked
/// variable).
pub fn guard_partition_program(k: usize) -> String {
    let mut p = String::new();
    for i in 0..k {
        writeln!(p, "grow{i}: src{i}(X), X < 500 -> +val{i}(X).").expect("write to String");
        writeln!(p, "cut{i}: src{i}(X), X >= 500 -> -val{i}(X).").expect("write to String");
        writeln!(p, "chain{i}: val{i}(X), X < 250 -> +lo{i}(X).").expect("write to String");
    }
    p
}

/// Facts for [`guard_partition_program`]: `per_family` integers `0..` per
/// `src_i`, straddling both sides of the guard split.
pub fn guard_partition_database(k: usize, per_family: usize) -> String {
    let mut facts = String::new();
    for i in 0..k {
        for v in 0..per_family {
            writeln!(facts, "src{i}({v}).").expect("write to String");
        }
    }
    facts
}

#[cfg(test)]
mod tests {
    use super::*;
    use park_engine::refine::{certify_conflict_free, AnalysisVariant};
    use park_engine::{analysis, CompiledProgram};
    use park_storage::Vocabulary;

    #[test]
    fn workload_is_pair_rich_but_certified() {
        let program = park_syntax::parse_program(&guard_partition_program(4)).unwrap();
        park_syntax::check_program(&program).unwrap();
        let compiled = CompiledProgram::compile(Vocabulary::new(), &program).unwrap();
        assert_eq!(analysis::conflict_pairs(&compiled).len(), 4);
        assert!(certify_conflict_free(&compiled, AnalysisVariant::Faithful).is_some());
    }
}
