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
    /// Resolve only the least conflict per restart, ordered by the rendered
    /// contested atom (`Vocabulary::display_fact`), so the choice does not
    /// depend on evaluation order. Permitted by the paper's
    /// closing remark in Section 4.2: blocking only a non-empty part of the
    /// conflicts avoids unnecessary blocking at the cost of more restarts.
    /// See the ablation benchmark.
    One,
}

/// Tunables for a PARK evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Conflict-resolution scope per restart.
    pub scope: ResolutionScope,
    /// Upper bound on Γ applications across all runs; exceeding it is an
    /// error (it would indicate an engine bug — PARK terminates).
    pub max_steps: u64,
    /// Upper bound on conflict restarts; exceeding it is an error.
    pub max_restarts: u64,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            scope: ResolutionScope::All,
            max_steps: 1 << 22,
            max_restarts: 1 << 22,
        }
    }
}

impl EngineOptions {
    /// Set the resolution scope (builder style).
    pub fn with_scope(mut self, scope: ResolutionScope) -> Self {
        self.scope = scope;
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
        assert!(o.max_steps > 1_000_000);
    }

    #[test]
    fn builders() {
        let o = EngineOptions::default().with_scope(ResolutionScope::One);
        assert_eq!(o.scope, ResolutionScope::One);
    }
}
