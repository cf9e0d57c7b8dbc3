//! Observable-identity comparison helpers.
//!
//! Both the differential harness and the hand-written identity tests
//! compare runs on the same surface: the
//! mode-independent *fingerprint* of a [`ParkOutcome`] (final database,
//! blocked set, key counters, and the full trace event stream — see
//! [`ParkOutcome::fingerprint`]) plus the `SELECT` call transcript. The
//! helpers here render that comparison and its failure messages in one
//! place so every call site reports divergences the same way.

use park_engine::{ParkOutcome, Trace, TraceEvent};
use park_policies::{ConflictResolver, Decision, Recording};

/// A [`Recording`] wrapper around a boxed policy, for capturing the
/// `SELECT` transcript of an engine run.
pub type RecordingPolicy = Recording<Box<dyn ConflictResolver>>;

/// Wrap the named policy (from `park_policies::by_name`) in a recorder.
pub fn recording_policy(name: &str) -> RecordingPolicy {
    Recording::new(park_policies::by_name(name).unwrap_or_else(|| panic!("unknown policy {name}")))
}

/// Render a recorded `SELECT` transcript as `"<conflict> -> <resolution>"`
/// lines — the same format `oracle::evaluate` records.
pub fn transcript(decisions: &[Decision]) -> Vec<String> {
    decisions
        .iter()
        .map(|d| format!("{} -> {}", d.conflict, d.resolution.as_str()))
        .collect()
}

/// First line-level difference between two multi-line strings, rendered
/// for a failure message; `None` when identical.
pub fn diff_lines(label_a: &str, a: &str, label_b: &str, b: &str) -> Option<String> {
    if a == b {
        return None;
    }
    let (mut la, mut lb) = (a.lines(), b.lines());
    let mut n = 1;
    loop {
        match (la.next(), lb.next()) {
            (Some(x), Some(y)) if x == y => n += 1,
            (x, y) => {
                let side = |s: Option<&str>| s.unwrap_or("<end of output>").to_string();
                return Some(format!(
                    "line {n} differs\n  {label_a}: {}\n  {label_b}: {}",
                    side(x),
                    side(y)
                ));
            }
        }
    }
}

/// Compare two runs on the full observable surface — fingerprint plus
/// `SELECT` transcript; `None` when identical.
pub fn diff_runs(
    label_a: &str,
    a: &ParkOutcome,
    a_calls: &[String],
    label_b: &str,
    b: &ParkOutcome,
    b_calls: &[String],
) -> Option<String> {
    diff_lines(label_a, &a.fingerprint(), label_b, &b.fingerprint()).or_else(|| {
        diff_lines(label_a, &a_calls.join("\n"), label_b, &b_calls.join("\n"))
            .map(|d| format!("SELECT transcript: {d}"))
    })
}

/// Assert two runs are observably identical (panicking helper for tests).
pub fn assert_observably_identical(
    context: &str,
    label_a: &str,
    a: &ParkOutcome,
    a_calls: &[String],
    label_b: &str,
    b: &ParkOutcome,
    b_calls: &[String],
) {
    if let Some(d) = diff_runs(label_a, a, a_calls, label_b, b, b_calls) {
        panic!("{context}: {d}");
    }
}

/// Rewrite a trace into a canonical form that is invariant under the
/// intra-step enumeration order: `added` lists and `Inconsistent` atom
/// lists are sorted, and each maximal batch of consecutive
/// `ConflictResolved` events is sorted by conflict rendering.
///
/// For variable (non-ground) programs the engine's greedy join planner
/// visits groundings in a different order than the oracle's brute-force
/// enumeration, so only this canonical form — not the raw event stream —
/// is comparable across the two (and only under `ResolutionScope::All`,
/// where the *set* of conflicts resolved per restart is order-free).
pub fn canonicalize_events(events: &[TraceEvent]) -> Vec<TraceEvent> {
    let mut out: Vec<TraceEvent> = Vec::with_capacity(events.len());
    let mut batch: Vec<TraceEvent> = Vec::new();
    let flush = |batch: &mut Vec<TraceEvent>, out: &mut Vec<TraceEvent>| {
        batch.sort_by_key(|e| match e {
            TraceEvent::ConflictResolved { conflict, .. } => conflict.clone(),
            _ => unreachable!("batch holds only ConflictResolved events"),
        });
        out.append(batch);
    };
    for e in events {
        match e {
            TraceEvent::ConflictResolved { .. } => batch.push(e.clone()),
            other => {
                flush(&mut batch, &mut out);
                let mut o = other.clone();
                match &mut o {
                    TraceEvent::Step { added, .. } => added.sort(),
                    TraceEvent::Inconsistent {
                        atoms, deferred, ..
                    } => {
                        atoms.sort();
                        deferred.sort();
                    }
                    _ => {}
                }
                out.push(o);
            }
        }
    }
    flush(&mut batch, &mut out);
    out
}

/// A copy of `out` with its trace canonicalized (see
/// [`canonicalize_events`]), for order-insensitive fingerprint comparison.
pub fn canonical(out: &ParkOutcome) -> ParkOutcome {
    let mut t = Trace::new();
    for e in canonicalize_events(out.trace.events()) {
        t.push(e);
    }
    let mut c = out.clone();
    c.trace = t;
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use park_engine::Resolution;

    #[test]
    fn diff_lines_reports_first_difference() {
        assert!(diff_lines("a", "x\ny", "b", "x\ny").is_none());
        let d = diff_lines("a", "x\ny", "b", "x\nz").unwrap();
        assert!(d.contains("line 2"), "{d}");
        assert!(d.contains("a: y"), "{d}");
        assert!(d.contains("b: z"), "{d}");
        let d = diff_lines("a", "x", "b", "x\nmore").unwrap();
        assert!(d.contains("<end of output>"), "{d}");
    }

    #[test]
    fn canonicalize_sorts_within_steps_and_conflict_batches() {
        let events = vec![
            TraceEvent::Step {
                run: 1,
                step: 1,
                interp: "{p, +a, +b}".into(),
                added: vec!["+b".into(), "+a".into()],
            },
            TraceEvent::Inconsistent {
                run: 1,
                step: 2,
                atoms: vec!["q".into(), "a".into()],
                deferred: vec![],
            },
            TraceEvent::ConflictResolved {
                conflict: "(q, {(r2)}, {(r3)})".into(),
                policy: "inertia".into(),
                resolution: Resolution::Delete,
                blocked: vec![],
            },
            TraceEvent::ConflictResolved {
                conflict: "(a, {(r1)}, {(r4)})".into(),
                policy: "inertia".into(),
                resolution: Resolution::Insert,
                blocked: vec![],
            },
            TraceEvent::RunStarted { run: 2 },
        ];
        let canon = canonicalize_events(&events);
        match &canon[0] {
            TraceEvent::Step { added, .. } => assert_eq!(added, &["+a", "+b"]),
            other => panic!("unexpected {other:?}"),
        }
        match &canon[1] {
            TraceEvent::Inconsistent { atoms, .. } => assert_eq!(atoms, &["a", "q"]),
            other => panic!("unexpected {other:?}"),
        }
        match (&canon[2], &canon[3]) {
            (
                TraceEvent::ConflictResolved { conflict: c1, .. },
                TraceEvent::ConflictResolved { conflict: c2, .. },
            ) => assert!(c1 < c2, "{c1} vs {c2}"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(canon[4], TraceEvent::RunStarted { run: 2 });
    }
}
