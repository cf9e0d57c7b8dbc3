//! Execution traces in the paper's step-listing style.
//!
//! A [`Trace`] is a [`MetricsSink`]: passed to `Engine::run_with_metrics`
//! (alone, or paired with another sink), it records one event per run
//! start, per Γ step, per detected inconsistency, per conflict resolution,
//! and at the fixpoint. The renderer reproduces listings like the paper's
//! Section 5 computation:
//!
//! ```text
//! run 1
//!   (1) {p, +a, +q}
//!   (2) {p, +a, +q, +b, -q}   ! inconsistent: q
//!   conflict (q, {(r2)}, {(r4)}): inertia -> delete, blocking {(r2)}
//! run 2
//!   (1) {p, +a}
//!   ...
//! ```

use crate::conflict::{Conflict, Resolution};
use crate::metrics::{MetricsSink, RestartEvent, StepEvent, StepOutcome};
use park_json::Json;
use std::fmt;

/// One trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A (re)start of the inflationary computation from `D`.
    RunStarted {
        /// 1-based run number.
        run: u64,
    },
    /// A consistent Γ step was applied.
    Step {
        /// The run.
        run: u64,
        /// 1-based step within the run.
        step: u64,
        /// `I` after the step, in paper notation.
        interp: String,
        /// Marked atoms added in this step.
        added: Vec<String>,
    },
    /// Γ produced an inconsistent result; conflict resolution follows.
    Inconsistent {
        /// The run.
        run: u64,
        /// The step at which the inconsistency appeared.
        step: u64,
        /// The conflicting atoms actually handed to `SELECT` this restart.
        atoms: Vec<String>,
        /// Conflicting atoms detected but *not* resolved this restart
        /// (non-empty only under `ResolutionScope::One`).
        deferred: Vec<String>,
    },
    /// One conflict was resolved.
    ConflictResolved {
        /// The conflict, rendered `(a, ins, del)`.
        conflict: String,
        /// The policy's name.
        policy: String,
        /// The decision.
        resolution: Resolution,
        /// The groundings newly blocked.
        blocked: Vec<String>,
    },
    /// The final fixpoint was reached.
    Fixpoint {
        /// The run that converged.
        run: u64,
        /// `I` at the fixpoint.
        interp: String,
        /// The final blocked set, rendered.
        blocked: Vec<String>,
    },
}

impl TraceEvent {
    /// Encode as a JSON object whose `event` member names the variant in
    /// `snake_case`, followed by the variant's fields in declaration order.
    pub fn to_json_value(&self) -> Json {
        fn strings(items: &[String]) -> Json {
            Json::Array(items.iter().map(Json::str).collect())
        }
        match self {
            TraceEvent::RunStarted { run } => Json::object([
                ("event", Json::str("run_started")),
                ("run", Json::from(*run)),
            ]),
            TraceEvent::Step {
                run,
                step,
                interp,
                added,
            } => Json::object([
                ("event", Json::str("step")),
                ("run", Json::from(*run)),
                ("step", Json::from(*step)),
                ("interp", Json::str(interp)),
                ("added", strings(added)),
            ]),
            TraceEvent::Inconsistent {
                run,
                step,
                atoms,
                deferred,
            } => Json::object([
                ("event", Json::str("inconsistent")),
                ("run", Json::from(*run)),
                ("step", Json::from(*step)),
                ("atoms", strings(atoms)),
                ("deferred", strings(deferred)),
            ]),
            TraceEvent::ConflictResolved {
                conflict,
                policy,
                resolution,
                blocked,
            } => Json::object([
                ("event", Json::str("conflict_resolved")),
                ("conflict", Json::str(conflict)),
                ("policy", Json::str(policy)),
                (
                    "resolution",
                    Json::str(match resolution {
                        Resolution::Insert => "Insert",
                        Resolution::Delete => "Delete",
                    }),
                ),
                ("blocked", strings(blocked)),
            ]),
            TraceEvent::Fixpoint {
                run,
                interp,
                blocked,
            } => Json::object([
                ("event", Json::str("fixpoint")),
                ("run", Json::from(*run)),
                ("interp", Json::str(interp)),
                ("blocked", strings(blocked)),
            ]),
        }
    }
}

/// An ordered list of trace events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Append an event.
    pub fn push(&mut self, e: TraceEvent) {
        self.events.push(e);
    }

    /// The events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The events as a JSON array of tagged objects (see
    /// [`TraceEvent::to_json_value`]).
    pub fn to_json_value(&self) -> Json {
        Json::Array(self.events.iter().map(TraceEvent::to_json_value).collect())
    }

    /// [`Trace::to_json_value`], pretty-printed (for tooling).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_pretty()
    }

    /// Render the whole trace as indented text.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for e in &self.events {
            match e {
                TraceEvent::RunStarted { run } => {
                    s.push_str(&format!("run {run}\n"));
                }
                TraceEvent::Step {
                    step,
                    interp,
                    added,
                    ..
                } => {
                    s.push_str(&format!("  ({step}) {interp}"));
                    if !added.is_empty() {
                        s.push_str(&format!("   added: {}", added.join(", ")));
                    }
                    s.push('\n');
                }
                TraceEvent::Inconsistent {
                    step,
                    atoms,
                    deferred,
                    ..
                } => {
                    s.push_str(&format!("  ({step}) ! inconsistent: {}", atoms.join(", ")));
                    if !deferred.is_empty() {
                        s.push_str(&format!("   (deferred: {})", deferred.join(", ")));
                    }
                    s.push('\n');
                }
                TraceEvent::ConflictResolved {
                    conflict,
                    policy,
                    resolution,
                    blocked,
                } => {
                    s.push_str(&format!(
                        "  conflict {conflict}: {policy} -> {resolution}, blocking {{{}}}\n",
                        blocked.join(", ")
                    ));
                }
                TraceEvent::Fixpoint {
                    run,
                    interp,
                    blocked,
                } => {
                    s.push_str(&format!(
                        "fixpoint in run {run}: {interp}\n  blocked: {{{}}}\n",
                        blocked.join(", ")
                    ));
                }
            }
        }
        s
    }
}

/// The trace records from the loop's events: a run starts at its first
/// step, a consistent step lists its new marks, and a restart lists the
/// inconsistency and each resolution.
impl MetricsSink for Trace {
    fn step(&mut self, ev: &StepEvent<'_>) {
        if ev.step == 1 {
            self.push(TraceEvent::RunStarted { run: ev.run });
        }
        match ev.outcome {
            StepOutcome::Applied => {
                let vocab = ev.program.vocab();
                self.push(TraceEvent::Step {
                    run: ev.run,
                    step: ev.step,
                    interp: ev.interp.display(),
                    added: ev
                        .new_marks
                        .iter()
                        .map(|&i| {
                            let f = &ev.fired[i];
                            format!("{}{}", f.sign, vocab.display_row(f.pred, &f.tuple))
                        })
                        .collect(),
                });
            }
            StepOutcome::Fixpoint => self.push(TraceEvent::Fixpoint {
                run: ev.run,
                interp: ev.interp.display(),
                blocked: ev.blocked.display(ev.program),
            }),
            // Reported with its resolutions by the restart that follows.
            StepOutcome::Conflict => {}
        }
    }

    fn restart(&mut self, ev: &RestartEvent<'_>) {
        let vocab = ev.program.vocab();
        let atom = |c: &Conflict| vocab.display_fact(c.pred, &c.tuple);
        self.push(TraceEvent::Inconsistent {
            run: ev.run,
            step: ev.step,
            atoms: ev.selected.iter().map(atom).collect(),
            deferred: ev.deferred.iter().map(atom).collect(),
        });
        for (c, resolution, newly) in ev.resolved() {
            self.push(TraceEvent::ConflictResolved {
                conflict: c.display(ev.program),
                policy: ev.policy.to_string(),
                resolution,
                blocked: newly.map(|g| g.display(ev.program)).collect(),
            });
        }
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_produces_paper_style_listing() {
        let mut t = Trace::new();
        t.push(TraceEvent::RunStarted { run: 1 });
        t.push(TraceEvent::Step {
            run: 1,
            step: 1,
            interp: "{p, +a, +q}".into(),
            added: vec!["+a".into(), "+q".into()],
        });
        t.push(TraceEvent::Inconsistent {
            run: 1,
            step: 2,
            atoms: vec!["q".into()],
            deferred: vec![],
        });
        t.push(TraceEvent::ConflictResolved {
            conflict: "(q, {(r2)}, {(r4)})".into(),
            policy: "inertia".into(),
            resolution: Resolution::Delete,
            blocked: vec!["(r2)".into()],
        });
        t.push(TraceEvent::Fixpoint {
            run: 2,
            interp: "{p, +a}".into(),
            blocked: vec!["(r2)".into()],
        });
        let r = t.render();
        assert!(r.contains("run 1"));
        assert!(r.contains("(1) {p, +a, +q}"));
        assert!(r.contains("inconsistent: q"));
        assert!(r.contains("inertia -> delete"));
        assert!(r.contains("fixpoint in run 2"));
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
    }

    #[test]
    fn deferred_conflicts_render_and_encode() {
        let mut t = Trace::new();
        t.push(TraceEvent::Inconsistent {
            run: 1,
            step: 2,
            atoms: vec!["q".into()],
            deferred: vec!["r".into(), "s".into()],
        });
        t.push(TraceEvent::Inconsistent {
            run: 2,
            step: 1,
            atoms: vec!["r".into()],
            deferred: vec![],
        });
        t.push(TraceEvent::ConflictResolved {
            conflict: "(r, {(r1)}, {(r2)})".into(),
            policy: "inertia".into(),
            resolution: Resolution::Insert,
            blocked: vec!["(r2)".into()],
        });
        let rendered = t.render();
        assert!(rendered.contains("inconsistent: q"), "{rendered}");
        assert!(rendered.contains("(deferred: r, s)"), "{rendered}");
        // `deferred` is encoded on every inconsistency, empty or not.
        let json = t.to_json();
        assert!(json.contains("\"deferred\": [\n"), "{json}");
        assert!(json.contains("\"deferred\": []"), "{json}");
        assert!(json.contains("\"event\": \"conflict_resolved\""), "{json}");
        assert!(json.contains("\"resolution\": \"Insert\""), "{json}");
        let compact = t.to_json_value().to_string();
        assert!(compact.contains(r#""deferred":["r","s"]"#), "{compact}");
    }
}
