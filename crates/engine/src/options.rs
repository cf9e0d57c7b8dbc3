//! Engine configuration.

/// How many of the detected conflicts are resolved (and their losers
/// blocked) per restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResolutionScope {
    /// Resolve every conflict in `conflicts(P, I)` before restarting — the
    /// paper's default construction (`blocked` unions the losing side of
    /// each conflict).
    #[default]
    All,
    /// Resolve only the first conflict (in derivation order) per restart.
    /// Permitted by the paper's closing remark in Section 4.2: blocking only
    /// a non-empty part of the conflicts avoids unnecessary blocking at the
    /// cost of more restarts. See the ablation benchmark.
    One,
}

/// How the Γ operator enumerates firable groundings each step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvaluationMode {
    /// Re-enumerate every valid grounding per step — the paper's
    /// definitional immediate-consequence operator, verbatim.
    #[default]
    Naive,
    /// Compiled delta (semi-naive) enumeration: each rule is lowered once
    /// per run into flat register bytecode (`crate::lower`) with
    /// cost-model-driven join ordering and index selection, and each step
    /// after the first joins only against the marks added in the previous
    /// step, with a per-rule fallback when a negated literal gains a new
    /// `-b` mark (`crate::bytecode`). The per-step grounding *sets* are
    /// identical to naive evaluation; the emission order within a step may
    /// differ where the cost model reorders a join.
    Compiled,
}

impl EvaluationMode {
    /// The canonical name, as `park --eval`, the serve protocol's `eval`
    /// field, and `park-metrics/v1` documents spell it.
    pub fn name(self) -> &'static str {
        match self {
            EvaluationMode::Naive => "naive",
            EvaluationMode::Compiled => "compiled",
        }
    }
}

impl std::str::FromStr for EvaluationMode {
    type Err = String;

    /// Parse an evaluation-mode name. Besides the canonical names this
    /// accepts `compile` and `bytecode`, and the retired semi-naive
    /// spellings (`semi`, `semi-naive`, `seminaive`), which select the
    /// compiled delta evaluator.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "naive" => Ok(EvaluationMode::Naive),
            "compiled" | "compile" | "bytecode" | "semi" | "semi-naive" | "seminaive" => {
                Ok(EvaluationMode::Compiled)
            }
            other => Err(format!("unknown evaluation mode `{other}`")),
        }
    }
}

/// Tunables for a PARK evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Conflict-resolution scope per restart.
    pub scope: ResolutionScope,
    /// Grounding enumeration strategy.
    pub evaluation: EvaluationMode,
    /// Record a full execution trace (costs string rendering per step).
    pub trace: bool,
    /// Upper bound on Γ applications across all runs; exceeding it is an
    /// error (it would indicate an engine bug — PARK terminates).
    pub max_steps: u64,
    /// Upper bound on conflict restarts; exceeding it is an error.
    pub max_restarts: u64,
    /// Intra-step evaluation parallelism: `Some(n)` evaluates each Γ step
    /// on up to `n` threads with a deterministic ordered merge, so results,
    /// traces, and `SELECT` inputs are identical to the sequential run
    /// (only `RunStats::eval_tasks` may differ). `None` (the default) and
    /// `Some(1)` run everything on the calling thread with no pool.
    pub parallelism: Option<usize>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            scope: ResolutionScope::All,
            evaluation: EvaluationMode::default(),
            trace: false,
            max_steps: 1 << 22,
            max_restarts: 1 << 22,
            parallelism: None,
        }
    }
}

impl EngineOptions {
    /// Default options with tracing enabled.
    pub fn traced() -> Self {
        EngineOptions {
            trace: true,
            ..EngineOptions::default()
        }
    }

    /// Set the resolution scope (builder style).
    pub fn with_scope(mut self, scope: ResolutionScope) -> Self {
        self.scope = scope;
        self
    }

    /// Set the evaluation mode (builder style).
    pub fn with_evaluation(mut self, evaluation: EvaluationMode) -> Self {
        self.evaluation = evaluation;
        self
    }

    /// Set the intra-step parallelism (builder style).
    pub fn with_parallelism(mut self, parallelism: Option<usize>) -> Self {
        self.parallelism = parallelism;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_faithful() {
        let o = EngineOptions::default();
        assert_eq!(o.scope, ResolutionScope::All);
        assert!(!o.trace);
        assert!(o.max_steps > 1_000_000);
        assert_eq!(o.parallelism, None);
    }

    #[test]
    fn builders() {
        let o = EngineOptions::traced()
            .with_scope(ResolutionScope::One)
            .with_evaluation(EvaluationMode::Compiled)
            .with_parallelism(Some(4));
        assert!(o.trace);
        assert_eq!(o.scope, ResolutionScope::One);
        assert_eq!(o.evaluation, EvaluationMode::Compiled);
        assert_eq!(o.parallelism, Some(4));
    }

    #[test]
    fn default_evaluation_is_the_definitional_operator() {
        assert_eq!(EngineOptions::default().evaluation, EvaluationMode::Naive);
    }

    #[test]
    fn evaluation_names_round_trip_and_keep_the_semi_naive_spellings() {
        for mode in [EvaluationMode::Naive, EvaluationMode::Compiled] {
            assert_eq!(mode.name().parse::<EvaluationMode>(), Ok(mode));
        }
        for alias in ["compile", "bytecode", "semi", "semi-naive", "seminaive"] {
            assert_eq!(alias.parse(), Ok(EvaluationMode::Compiled), "{alias}");
        }
        assert_eq!(
            "fast".parse::<EvaluationMode>(),
            Err("unknown evaluation mode `fast`".to_string())
        );
    }
}
