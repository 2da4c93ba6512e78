//! Bounded-exhaustive schedule exploration.
//!
//! The floor-control algorithm (paper §4) is a distributed protocol:
//! locks are taken when an event is granted and released only after
//! every coupled instance reports `ExecuteDone`, so the server's lock
//! table, execution records, and registry evolve across multi-client
//! round trips. Whether an invariant violation is reachable depends on
//! the *order* those round trips interleave in — exactly what
//! example-based tests pin down to one schedule.
//!
//! [`explore`] enumerates every schedule instead: a depth-first search
//! over the tree of [`Model::actions`] choices, cloning the model at
//! each branch point, running [`Model::check`] after every applied
//! action and [`Model::at_quiescence`] at every terminal state. The
//! search is deterministic (no randomness, no time), so a reported
//! counterexample trace replays exactly.
//!
//! The model is generic: `lock_model.rs`, whose support module this is,
//! wraps the real `ServerCore` (which is `Clone` for this purpose), but
//! anything cloneable with enumerable actions fits — the engine itself
//! knows nothing about COSOFT.

use std::fmt;

/// A deterministic state machine the explorer can fork and step.
pub trait Model: Clone {
    /// One schedulable step (e.g. "client 2 delivers its ExecuteDone").
    type Action: Clone + fmt::Debug;

    /// The actions currently enabled. An empty vector means the state
    /// is quiescent (a maximal schedule ends here).
    fn actions(&self) -> Vec<Self::Action>;

    /// Applies one enabled action.
    fn apply(&mut self, action: &Self::Action);

    /// Invariant check, run after every applied action.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    fn check(&self) -> Result<(), String>;

    /// Terminal-state check, run when no actions remain (e.g. "all
    /// locks drained"). Defaults to no check.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated terminal condition.
    fn at_quiescence(&self) -> Result<(), String> {
        Ok(())
    }
}

/// Search bounds.
#[derive(Debug, Clone, Copy)]
pub struct ExploreLimits {
    /// Maximum schedule length; longer schedules are truncated (still
    /// counted, their terminal check skipped).
    pub max_depth: usize,
    /// Stop after this many complete schedules.
    pub max_schedules: u64,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits { max_depth: 64, max_schedules: 1_000_000 }
    }
}

/// What a completed exploration covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct complete schedules (maximal or depth-truncated action
    /// sequences) explored.
    pub schedules: u64,
    /// Total actions applied (internal nodes of the schedule tree).
    pub steps: u64,
    /// Length of the longest schedule reached.
    pub max_depth_reached: usize,
    /// Whether the schedule cap stopped the search before exhaustion.
    pub hit_schedule_cap: bool,
    /// Whether any schedule was truncated by the depth bound.
    pub hit_depth_bound: bool,
}

/// A counterexample: the exact action sequence that led to a violated
/// invariant, plus the violation message.
#[derive(Debug, Clone)]
pub struct ExploreError {
    /// Debug-rendered actions from the initial state to the violation.
    pub trace: Vec<String>,
    /// The invariant's error message.
    pub message: String,
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "invariant violated: {}", self.message)?;
        writeln!(f, "schedule ({} steps):", self.trace.len())?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>3}. {step}", i + 1)?;
        }
        Ok(())
    }
}

/// Explores every schedule of `initial` within `limits`.
///
/// # Errors
///
/// Returns the first [`ExploreError`] counterexample encountered (DFS
/// order, so the first schedule lexicographically by action index).
pub fn explore<M: Model>(initial: &M, limits: ExploreLimits) -> Result<ExploreStats, ExploreError> {
    let mut stats = ExploreStats::default();
    let mut trace = Vec::new();
    initial.check().map_err(|message| ExploreError { trace: Vec::new(), message })?;
    dfs(initial, 0, limits, &mut stats, &mut trace)?;
    Ok(stats)
}

fn dfs<M: Model>(
    state: &M,
    depth: usize,
    limits: ExploreLimits,
    stats: &mut ExploreStats,
    trace: &mut Vec<String>,
) -> Result<(), ExploreError> {
    if stats.schedules >= limits.max_schedules {
        stats.hit_schedule_cap = true;
        return Ok(());
    }
    stats.max_depth_reached = stats.max_depth_reached.max(depth);
    let actions = state.actions();
    if actions.is_empty() {
        state.at_quiescence().map_err(|message| ExploreError { trace: trace.clone(), message })?;
        stats.schedules += 1;
        return Ok(());
    }
    if depth >= limits.max_depth {
        stats.hit_depth_bound = true;
        stats.schedules += 1;
        return Ok(());
    }
    for action in actions {
        let mut next = state.clone();
        next.apply(&action);
        stats.steps += 1;
        trace.push(format!("{action:?}"));
        next.check().map_err(|message| ExploreError { trace: trace.clone(), message })?;
        dfs(&next, depth + 1, limits, stats, trace)?;
        trace.pop();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// N independent counters, each stepped to a target: the schedule
    /// tree is every interleaving of the per-counter step sequences.
    #[derive(Clone)]
    struct Counters {
        values: Vec<u32>,
        target: u32,
        poison: Option<(usize, u32)>,
    }

    impl Model for Counters {
        type Action = usize;

        fn actions(&self) -> Vec<usize> {
            (0..self.values.len()).filter(|&i| self.values[i] < self.target).collect()
        }

        fn apply(&mut self, i: &usize) {
            self.values[*i] += 1;
        }

        fn check(&self) -> Result<(), String> {
            if let Some((i, bad)) = self.poison {
                if self.values[i] == bad {
                    return Err(format!("counter {i} reached poisoned value {bad}"));
                }
            }
            Ok(())
        }

        fn at_quiescence(&self) -> Result<(), String> {
            if self.values.iter().all(|&v| v == self.target) {
                Ok(())
            } else {
                Err("quiescent before every counter reached its target".into())
            }
        }
    }

    #[test]
    fn counts_every_interleaving() {
        // 2 counters × 2 steps: C(4,2) = 6 interleavings.
        let m = Counters { values: vec![0, 0], target: 2, poison: None };
        let stats = explore(&m, ExploreLimits::default()).unwrap();
        assert_eq!(stats.schedules, 6);
        assert_eq!(stats.max_depth_reached, 4);
        assert!(!stats.hit_schedule_cap);
        assert!(!stats.hit_depth_bound);
    }

    #[test]
    fn three_way_interleavings() {
        // 3 counters × 2 steps: 6!/(2!2!2!) = 90 interleavings.
        let m = Counters { values: vec![0, 0, 0], target: 2, poison: None };
        let stats = explore(&m, ExploreLimits::default()).unwrap();
        assert_eq!(stats.schedules, 90);
    }

    #[test]
    fn finds_planted_violation_with_trace() {
        let m = Counters { values: vec![0, 0], target: 3, poison: Some((1, 2)) };
        let err = explore(&m, ExploreLimits::default()).unwrap_err();
        assert!(err.message.contains("poisoned"));
        // The DFS-first trace stepping counter 1 twice must end 1, 1.
        assert_eq!(err.trace.last().unwrap(), "1");
        let display = err.to_string();
        assert!(display.contains("schedule ("), "{display}");
    }

    #[test]
    fn schedule_cap_truncates() {
        let m = Counters { values: vec![0, 0, 0], target: 3, poison: None };
        let stats = explore(&m, ExploreLimits { max_depth: 64, max_schedules: 10 }).unwrap();
        assert_eq!(stats.schedules, 10);
        assert!(stats.hit_schedule_cap);
    }

    #[test]
    fn depth_bound_counts_truncated_schedules() {
        let m = Counters { values: vec![0, 0], target: 5, poison: None };
        let stats = explore(&m, ExploreLimits { max_depth: 3, max_schedules: 1_000 }).unwrap();
        assert!(stats.hit_depth_bound);
        // 2 choices at each of 3 levels: 8 truncated schedules.
        assert_eq!(stats.schedules, 8);
    }
}
