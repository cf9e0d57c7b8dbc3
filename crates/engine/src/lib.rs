//! # park-engine
//!
//! The PARK semantics for active rules (*The PARK Semantics for Active
//! Rules*, Gottlob, Moerkotte, Subrahmanian; EDBT 1996): an inflationary
//! fixpoint engine for event–condition–action rule sets with pluggable
//! conflict resolution.
//!
//! The semantics decomposes exactly as the paper prescribes:
//!
//! ```text
//! ActiveDBSemantics = DeclarativeSemantics + ConflictResolutionPolicy
//! ```
//!
//! The declarative half is the inflationary consequence operator Γ over
//! [`IInterpretation`]s — evaluated on compiled bytecode
//! ([`fire_all_lowered`], [`fire_new_lowered`]) and defined by its
//! reference enumeration [`gamma::fire_all`]; the policy half is any
//! [`ConflictResolver`] (the paper's `SELECT` oracle). [`Engine::run`]
//! iterates the transition operator Δ to its fixpoint ω and applies
//! [`IInterpretation::incorp`]:
//!
//! ```
//! use park_engine::{Engine, Inertia};
//! use park_storage::{FactStore, Vocabulary};
//! use park_syntax::parse_program;
//! use std::sync::Arc;
//!
//! let vocab = Vocabulary::new();
//! let program = parse_program("p -> +q. p -> -a. q -> +a.").unwrap();
//! let engine = Engine::new(Arc::clone(&vocab), &program).unwrap();
//! let db = FactStore::from_source(vocab, "p.").unwrap();
//! let out = engine.park(&db, &mut Inertia).unwrap();
//! assert_eq!(out.database.to_string(), "{p, q}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod bistructure;
pub mod bytecode;
pub mod compile;
pub mod conflict;
pub mod error;
pub mod fixpoint;
pub mod gamma;
pub mod grounding;
pub mod incremental;
pub mod interp;
pub mod lower;
pub mod metrics;
pub mod options;
mod parallel;
pub mod query;
pub mod refine;
pub mod replay;
pub mod stats;
pub mod strata;
pub mod trace;
pub mod validity;

pub use analysis::{
    conflict_pairs, confluence_probe, ConflictPair, Confluence, DependencyGraph, EdgeKind,
    ProgramReport,
};
pub use bistructure::BiStructure;
pub use bytecode::{fire_all_lowered, fire_new_lowered, ZoneLens};
pub use compile::{
    CompiledAtom, CompiledLiteral, CompiledProgram, CompiledRule, LitKind, RuleId, TermSlot,
};
pub use conflict::{
    collect_conflicts, Conflict, ConflictResolver, Inertia, Provenance, Resolution, SelectContext,
};
pub use error::{EngineError, EngineResult};
pub use fixpoint::{Engine, ParkOutcome};
pub use gamma::{fire_all, FiredAction};
pub use grounding::{BlockedSet, Grounding};
pub use incremental::{
    certify_incremental, exclusions_with, incremental_exclusions, IncrementalBlocker,
    IncrementalExclusion, IncrementalReport, Propagation, WarmState,
};
pub use interp::IInterpretation;
pub use lower::{lower, LoweredProgram};
pub use metrics::{
    FinishEvent, JsonMetrics, MetricsSink, NoopMetrics, ReplayEvent, RestartEvent, StepEvent,
    StepOutcome, StorageCounters, TaskSpan,
};
pub use options::{EngineOptions, ResolutionScope};
pub use query::Query;
pub use refine::{
    always_blocked_rules, certify_conflict_free, never_fire_rules, refine_conflicts,
    unreachable_event_rules, AnalysisVariant, ConflictCertificate, ConstPolicy, ExclusionReason,
    RefinedConflicts,
};
pub use replay::{Replayer, StepLog};
pub use stats::{RunStats, StatCounters};
pub use strata::{OffendingEdge, Strata};
pub use trace::{Trace, TraceEvent};
pub use validity::{valid_event, valid_neg, valid_pos, MarkZone};

/// Semi-naive evaluation checks in the shape warm transactions run it.
#[cfg(test)]
mod seminaive {
    mod tests;
}
