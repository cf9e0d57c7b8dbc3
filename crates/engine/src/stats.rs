//! Run statistics.

use std::time::Duration;

/// Counters collected during one PARK evaluation.
///
/// These are the quantities the paper's complexity argument speaks about:
/// the number of Γ applications, the number of conflict-resolution restarts
/// (bounded by the number of rule groundings), and the sizes of the blocked
/// set and interpretation.
///
/// `RunStats` deliberately does **not** implement `PartialEq`: it carries
/// the wall-clock `elapsed` field, so whole-struct equality would be flaky
/// by construction. Compare [`RunStats::counters`] instead — the
/// deterministic subset two equivalent runs must agree on.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Γ applications, summed over all runs (restarts included).
    pub gamma_steps: u64,
    /// Conflict-resolution restarts (the paper's "iterations").
    pub restarts: u64,
    /// Individual conflicts resolved by `SELECT`.
    pub conflicts_resolved: u64,
    /// Total rule-grounding firings enumerated (across steps; re-firings
    /// count each time).
    pub groundings_fired: u64,
    /// Size of the final blocked set `B`.
    pub blocked_instances: u64,
    /// Evaluation units (rule passes) run across all Γ steps: one per rule
    /// at a run's first step, then one per planned delta pass (see
    /// `crate::bytecode`). It depends only on the program and the steps'
    /// deltas. Replayed restart steps run no units, so it differs from the
    /// paper's restart-from-`D` construction, which is why it stays out of
    /// the testkit's run fingerprint (`park_testkit::compare::fingerprint`).
    pub eval_tasks: u64,
    /// Γ steps served from the warm-restart replay log instead of being
    /// evaluated live (see `crate::replay`). Like `eval_tasks`, this is
    /// scheduling information, outside the fingerprint.
    pub replayed_steps: u64,
    /// The 1-based step at which the most recent warm replay diverged from
    /// its log (a newly blocked grounding was filtered out). `None` when no
    /// replay diverged — runs without a restart, conflict-free runs.
    pub replay_divergence_step: Option<u64>,
    /// Largest number of marked atoms held at once.
    pub peak_marked_atoms: usize,
    /// Whether this run took the conflict-free fast path on the strength of
    /// a refinement certificate (`crate::refine`) — i.e. the program *was*
    /// possibly conflicting by the coarse head check, but every pair was
    /// excluded, so conflict collection and the firing log were skipped. Scheduling information like `eval_tasks`: results are
    /// byte-identical with or without it, so it is not part of
    /// [`StatCounters`].
    pub certified_conflict_free: bool,
    /// Total bytecode ops in the lowered program (see `crate::lower`).
    /// Lowering telemetry, not an execution counter: deterministic for a
    /// given program + database, but not part of the paper's construction,
    /// so it stays out of [`StatCounters`].
    pub lowered_ops: u64,
    /// Access ops whose base-zone probe the compiled cost model routed
    /// through a hash index rather than a scan. Lowering telemetry like
    /// `lowered_ops`.
    pub index_picks: u64,
    /// Wall-clock time of the evaluation.
    pub elapsed: Duration,
}

/// The deterministic subset of [`RunStats`]: every counter two runs of the
/// same configuration must agree on exactly, with the wall-clock field
/// (`elapsed`) left out.
///
/// This is the comparison surface for stats equality — used by the metrics
/// cross-check (`park_engine::metrics`) and anywhere a test wants to assert
/// "same run" without being flaky on timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatCounters {
    /// Γ applications, summed over all runs.
    pub gamma_steps: u64,
    /// Conflict-resolution restarts.
    pub restarts: u64,
    /// Individual conflicts resolved by `SELECT`.
    pub conflicts_resolved: u64,
    /// Total rule-grounding firings enumerated.
    pub groundings_fired: u64,
    /// Size of the final blocked set `B`.
    pub blocked_instances: u64,
    /// Evaluation units run across all Γ steps.
    pub eval_tasks: u64,
    /// Γ steps served from the warm-restart replay log.
    pub replayed_steps: u64,
    /// Step of the most recent replay divergence, if any.
    pub replay_divergence_step: Option<u64>,
    /// Largest number of marked atoms held at once.
    pub peak_marked_atoms: usize,
}

impl StatCounters {
    /// Fold another run's counters into this one (used when aggregating
    /// over many runs, e.g. a fuzzing sweep): counts add, the peak takes
    /// the maximum, and the divergence step keeps the latest `Some`.
    pub fn absorb(&mut self, other: &StatCounters) {
        self.gamma_steps += other.gamma_steps;
        self.restarts += other.restarts;
        self.conflicts_resolved += other.conflicts_resolved;
        self.groundings_fired += other.groundings_fired;
        self.blocked_instances += other.blocked_instances;
        self.eval_tasks += other.eval_tasks;
        self.replayed_steps += other.replayed_steps;
        if other.replay_divergence_step.is_some() {
            self.replay_divergence_step = other.replay_divergence_step;
        }
        self.peak_marked_atoms = self.peak_marked_atoms.max(other.peak_marked_atoms);
    }
}

impl RunStats {
    /// The deterministic counters, for equality comparisons and for the
    /// metrics cross-check.
    pub fn counters(&self) -> StatCounters {
        StatCounters {
            gamma_steps: self.gamma_steps,
            restarts: self.restarts,
            conflicts_resolved: self.conflicts_resolved,
            groundings_fired: self.groundings_fired,
            blocked_instances: self.blocked_instances,
            eval_tasks: self.eval_tasks,
            replayed_steps: self.replayed_steps,
            replay_divergence_step: self.replay_divergence_step,
            peak_marked_atoms: self.peak_marked_atoms,
        }
    }

    /// One summary line for logs and reports.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "steps={} restarts={} conflicts={} fired={} blocked={} tasks={} replayed={} peak_marked={} elapsed={:?}",
            self.gamma_steps,
            self.restarts,
            self.conflicts_resolved,
            self.groundings_fired,
            self.blocked_instances,
            self.eval_tasks,
            self.replayed_steps,
            self.peak_marked_atoms,
            self.elapsed
        );
        if let Some(step) = self.replay_divergence_step {
            line.push_str(&format!(" diverged_at={step}"));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mentions_all_counters() {
        let s = RunStats {
            gamma_steps: 7,
            restarts: 2,
            replayed_steps: 3,
            ..RunStats::default()
        };
        let line = s.summary();
        assert!(line.contains("steps=7"));
        assert!(line.contains("restarts=2"));
        assert!(line.contains("replayed=3"));
        assert!(!line.contains("diverged_at="));
    }

    #[test]
    fn summary_reports_divergence_step_when_present() {
        let s = RunStats {
            replay_divergence_step: Some(4),
            ..RunStats::default()
        };
        assert!(s.summary().contains("diverged_at=4"));
    }

    #[test]
    fn counters_ignore_wall_clock_and_host_fields() {
        let a = RunStats {
            gamma_steps: 5,
            restarts: 1,
            elapsed: Duration::from_millis(3),
            ..RunStats::default()
        };
        let b = RunStats {
            elapsed: Duration::from_millis(900),
            ..a.clone()
        };
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn absorb_sums_counts_and_maxes_the_peak() {
        let mut acc = StatCounters {
            gamma_steps: 2,
            peak_marked_atoms: 10,
            ..StatCounters::default()
        };
        acc.absorb(&StatCounters {
            gamma_steps: 3,
            restarts: 1,
            peak_marked_atoms: 4,
            replay_divergence_step: Some(2),
            ..StatCounters::default()
        });
        assert_eq!(acc.gamma_steps, 5);
        assert_eq!(acc.restarts, 1);
        assert_eq!(acc.peak_marked_atoms, 10);
        assert_eq!(acc.replay_divergence_step, Some(2));
    }
}
