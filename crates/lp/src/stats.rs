//! Solver work counters.

/// Work counters from one simplex solve, exposed via
/// [`crate::Problem::solve_with_stats`] and [`crate::Problem::solve_warm`].
///
/// All fields are exact operation counts, so for a fixed problem they are
/// deterministic — the scheduled-routing compiler sums them across its
/// candidate walk and reports them as thread-count-independent metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Total pivots (both phases, plus driving leftover artificials out of
    /// the basis).
    pub pivots: u64,
    /// Pivots spent in phase 1 (artificial elimination).
    pub phase1_pivots: u64,
    /// Pivots whose ratio test was (near-)zero — degenerate steps.
    pub degenerate_pivots: u64,
    /// Times Dantzig pricing stalled and the phase fell back to Bland's
    /// rule.
    pub bland_switches: u64,
    /// Pricing passes: one BTRAN of the basic costs per iteration.
    pub price_recomputes: u64,
    /// Fresh basis factorizations (cold/warm starts plus
    /// refactorizations).
    pub factorizations: u64,
    /// Mid-solve refactorizations triggered by eta-file growth.
    pub refactorizations: u64,
    /// Eta vectors created (factorization + pivot updates).
    pub eta_vectors: u64,
    /// Total nonzeros stored across all eta vectors — the fill-in the
    /// factorization paid for.
    pub eta_nonzeros: u64,
    /// Warm starts whose supplied basis was factorable and primal feasible
    /// for the new right-hand side (phase 1 skipped).
    pub warm_hits: u64,
    /// Warm starts that fell back to a cold start.
    pub warm_misses: u64,
}

impl SolveStats {
    /// Accumulates another solve's counters into this one.
    pub fn merge(&mut self, other: &SolveStats) {
        self.pivots += other.pivots;
        self.phase1_pivots += other.phase1_pivots;
        self.degenerate_pivots += other.degenerate_pivots;
        self.bland_switches += other.bland_switches;
        self.price_recomputes += other.price_recomputes;
        self.factorizations += other.factorizations;
        self.refactorizations += other.refactorizations;
        self.eta_vectors += other.eta_vectors;
        self.eta_nonzeros += other.eta_nonzeros;
        self.warm_hits += other.warm_hits;
        self.warm_misses += other.warm_misses;
    }
}
