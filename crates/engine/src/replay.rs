//! Warm restarts: replaying the previous run's firing log.
//!
//! A conflict restart re-runs the inflationary computation from `I° = D`
//! under a strictly larger blocked set `B' ⊇ B`. Because blocking is
//! monotone and the Γ enumeration of a step depends only on the
//! interpretation reached so far and on `B'`, the cold re-run is forced to
//! reproduce the previous run step by step — minus the newly blocked
//! groundings — until the first step where that subtraction actually
//! removes something. A *warm* restart therefore replays the previous
//! run's fired-action log instead of re-enumerating it:
//!
//! 1. Every step whose filtered firings equal the logged firings is
//!    byte-identical to what the cold run would have computed; applying
//!    the logged actions verbatim skips the join/enumeration work.
//! 2. At the first *divergent* step — one where filtering removes a newly
//!    blocked grounding — the filtered vector is still *exactly* the cold
//!    run's fired vector for that step (the interpretations are equal up
//!    to here, and the blocked-set check is the last filter in
//!    enumeration, so it distributes over the logged order). The replayer
//!    hands it out for free and only then retires.
//! 3. From the step after the divergence the interpretations may differ,
//!    so the engine falls back to live naive/compiled evaluation.
//!
//! Conflict detection, tracing, and statistics all run through the
//! engine's ordinary step path for replayed steps, and replayed steps enter
//! the new run's own log like live ones, which is what makes the warm
//! result byte-identical to the cold one (see
//! `docs/semantics.md` §9 for the full argument; debug builds re-evaluate
//! every replayed step live and assert the two agree). The only observable
//! differences are `RunStats::replayed_steps` / `replay_divergence_step`
//! and `eval_tasks` (replayed steps schedule no evaluation tasks).
//!
//! Replay savings are also observable through the metrics layer: at the end
//! of each run that had a log to draw from, the engine reports a
//! `crate::metrics::ReplayEvent` built from [`Replayer::served`] and
//! [`Replayer::divergence_step`] — steps replayed vs. evaluated live, per
//! run, in the `park-metrics/v1` document.

use crate::gamma::FiredAction;
use crate::grounding::BlockedSet;

/// The fired-action log of one inflationary run: one entry per Γ step, in
/// step order, including the final (conflicting) step. Entries are moved
/// in after the engine is done with them — capture costs no clones. While
/// its run goes on, it is also the run's conflict history.
#[derive(Debug, Default)]
pub struct StepLog {
    steps: Vec<Vec<FiredAction>>,
}

impl StepLog {
    /// An empty log (start of a run).
    pub fn new() -> Self {
        StepLog::default()
    }

    /// Append one step's fired actions.
    pub fn push_step(&mut self, fired: Vec<FiredAction>) {
        self.steps.push(fired);
    }

    /// Every logged firing, in step order.
    pub fn firings(&self) -> impl Iterator<Item = &FiredAction> {
        self.steps.iter().flatten()
    }
}

/// Replays a [`StepLog`] against a grown blocked set, detecting the first
/// divergent step.
#[derive(Debug)]
pub struct Replayer {
    steps: Vec<Vec<FiredAction>>,
    cursor: usize,
    served: u64,
    diverged: Option<u64>,
}

impl Replayer {
    /// Start replaying `log` (the previous run's firing log).
    pub fn new(log: StepLog) -> Self {
        Replayer {
            steps: log.steps,
            cursor: 0,
            served: 0,
            diverged: None,
        }
    }

    /// The next step's fired actions, filtered against `blocked`, or
    /// `None` once the log is exhausted or a previous step diverged — the
    /// caller must then evaluate live.
    ///
    /// The returned vector is exactly what a cold run would have fired at
    /// this step (even at the divergent step itself; see the module docs),
    /// so the engine applies it through its ordinary step path.
    pub fn next_step(&mut self, blocked: &BlockedSet) -> Option<Vec<FiredAction>> {
        if self.diverged.is_some() || self.cursor >= self.steps.len() {
            return None;
        }
        let mut fired = std::mem::take(&mut self.steps[self.cursor]);
        self.cursor += 1;
        let before = fired.len();
        fired.retain(|f| !blocked.contains(&f.grounding));
        if fired.len() != before {
            self.diverged = Some(self.cursor as u64);
        }
        self.served += 1;
        Some(fired)
    }

    /// How many steps have been served from the log.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// The 1-based step at which the replay diverged from the log (a newly
    /// blocked grounding was filtered out), if it has.
    pub fn divergence_step(&self) -> Option<u64> {
        self.diverged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::RuleId;
    use crate::grounding::Grounding;
    use park_storage::{Code, PredId};
    use park_syntax::Sign;

    fn action(rule: u32, val: i64) -> FiredAction {
        let c = Code::from_small_int(val).expect("test values are small");
        FiredAction {
            grounding: Grounding {
                rule: RuleId(rule),
                subst: Box::from([c]),
            },
            sign: Sign::Insert,
            pred: PredId(0),
            tuple: Box::from([c]),
        }
    }

    fn log(steps: &[&[(u32, i64)]]) -> StepLog {
        let mut l = StepLog::new();
        for step in steps {
            l.push_step(step.iter().map(|&(r, v)| action(r, v)).collect());
        }
        l
    }

    #[test]
    fn clean_replay_serves_every_step_unchanged() {
        let mut r = Replayer::new(log(&[&[(0, 1)], &[(0, 1), (1, 2)]]));
        let blocked = BlockedSet::new();
        assert_eq!(r.next_step(&blocked).unwrap().len(), 1);
        assert_eq!(r.next_step(&blocked).unwrap().len(), 2);
        assert!(r.next_step(&blocked).is_none());
        assert_eq!(r.served(), 2);
        assert_eq!(r.divergence_step(), None);
    }

    #[test]
    fn newly_blocked_grounding_marks_divergence_and_stops_replay() {
        let mut r = Replayer::new(log(&[&[(0, 1)], &[(0, 1), (1, 2)], &[(2, 3)]]));
        let mut blocked = BlockedSet::new();
        blocked.insert(action(1, 2).grounding);
        // Step 1 is untouched; step 2 loses (r1, 2) and diverges; the
        // filtered step is still handed out, but step 3 is not.
        assert_eq!(r.next_step(&blocked).unwrap().len(), 1);
        assert_eq!(r.divergence_step(), None);
        let step2 = r.next_step(&blocked).unwrap();
        assert_eq!(step2, vec![action(0, 1)]);
        assert_eq!(r.divergence_step(), Some(2));
        assert!(r.next_step(&blocked).is_none());
        assert_eq!(r.served(), 2);
    }

    #[test]
    fn filtering_preserves_logged_order() {
        let mut r = Replayer::new(log(&[&[(3, 1), (1, 2), (2, 3)]]));
        let mut blocked = BlockedSet::new();
        blocked.insert(action(1, 2).grounding);
        let step = r.next_step(&blocked).unwrap();
        assert_eq!(step, vec![action(3, 1), action(2, 3)]);
    }

    #[test]
    fn empty_log_replays_nothing() {
        let mut r = Replayer::new(StepLog::new());
        assert!(r.next_step(&BlockedSet::new()).is_none());
        assert_eq!(r.served(), 0);
    }
}
