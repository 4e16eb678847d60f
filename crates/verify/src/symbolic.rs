//! The symbolic (zone-based) backend beside the concrete-run ones: a
//! three-valued summary of a [`pte_zones`] verdict and its cross-check
//! against the bounded-exhaustive explorer.
//!
//! Where [`crate::montecarlo`] samples timings and [`crate::exhaustive`]
//! enumerates the `2^k` loss fates of a prefix, the zone engine covers
//! *every* real-valued timing and *every* drop/deliver assignment at
//! once by exploring the zone graph of the lowered timed-automata
//! network. A `Safe` verdict is a proof over the timed abstraction; an
//! `Unsafe` verdict carries a symbolic counter-example trace. Requests
//! reach the engine through [`crate::api`].

use pte_core::pattern::LeaseConfig;
use pte_zones::{check_lease_pattern_with, SymbolicVerdict, ZonesError};
pub use pte_zones::{Extrapolation, Limits, SearchStats, TrippedLimit};
use std::fmt;

/// Three-valued summary of a symbolic verdict: a truncated search is
/// *inconclusive*, which must never be conflated with a falsification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SymbolicOutcome {
    /// Proof: no violating zone reachable.
    Safe,
    /// Falsification: a symbolic counter-example exists.
    Unsafe,
    /// Budget exhausted before the search finished — no verdict.
    Inconclusive,
}

impl From<&SymbolicVerdict> for SymbolicOutcome {
    fn from(v: &SymbolicVerdict) -> SymbolicOutcome {
        match v {
            SymbolicVerdict::Safe(_) => SymbolicOutcome::Safe,
            SymbolicVerdict::Unsafe(_) => SymbolicOutcome::Unsafe,
            SymbolicVerdict::OutOfBudget { .. } => SymbolicOutcome::Inconclusive,
        }
    }
}

/// Agreement record between the symbolic and bounded-exhaustive
/// backends on one configuration.
#[derive(Clone, Debug)]
pub struct CrossCheck {
    /// Symbolic outcome (proof-grade over the timed abstraction when
    /// conclusive).
    pub symbolic: SymbolicOutcome,
    /// Bounded-exhaustive verdict at the queried depth.
    pub exhaustive_safe: bool,
    /// Runs executed by the exhaustive backend.
    pub exhaustive_runs: usize,
    /// Symbolic states explored.
    pub symbolic_states: usize,
}

impl CrossCheck {
    /// `true` when the symbolic search proved safety.
    pub fn symbolic_safe(&self) -> bool {
        self.symbolic == SymbolicOutcome::Safe
    }

    /// `true` when both backends reached a conclusive, matching verdict.
    /// An inconclusive symbolic search never "agrees". (Disagreement
    /// with `Unsafe` can still be legitimate — the exhaustive backend
    /// only covers a bounded prefix of loss fates and a single driver
    /// script — but for the lease pattern's standard configurations the
    /// two coincide.)
    pub fn agree(&self) -> bool {
        match self.symbolic {
            SymbolicOutcome::Safe => self.exhaustive_safe,
            SymbolicOutcome::Unsafe => !self.exhaustive_safe,
            SymbolicOutcome::Inconclusive => false,
        }
    }
}

impl fmt::Display for CrossCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let symbolic = match self.symbolic {
            SymbolicOutcome::Safe => "safe",
            SymbolicOutcome::Unsafe => "UNSAFE",
            SymbolicOutcome::Inconclusive => "inconclusive",
        };
        write!(
            f,
            "symbolic: {} ({} states) | exhaustive: {} ({} runs) => {}",
            symbolic,
            self.symbolic_states,
            if self.exhaustive_safe {
                "safe"
            } else {
                "UNSAFE"
            },
            self.exhaustive_runs,
            if self.agree() { "agree" } else { "DISAGREE" },
        )
    }
}

/// Cross-checks the symbolic verdict against [`crate::exhaustive::explore`]
/// on the same configuration, with the default symbolic budget.
pub fn cross_check(
    cfg: &LeaseConfig,
    leased: bool,
    depth: usize,
    cancel_mid_emission: bool,
) -> Result<CrossCheck, ZonesError> {
    cross_check_with(cfg, leased, depth, cancel_mid_emission, &Limits::default())
}

/// [`cross_check`] with an explicit symbolic exploration budget.
pub fn cross_check_with(
    cfg: &LeaseConfig,
    leased: bool,
    depth: usize,
    cancel_mid_emission: bool,
    limits: &Limits,
) -> Result<CrossCheck, ZonesError> {
    let symbolic = check_lease_pattern_with(cfg, leased, limits)?;
    let symbolic_states = symbolic.stats().map_or(0, |s| s.states);
    let exhaustive = crate::exhaustive::explore(cfg, leased, depth, cancel_mid_emission);
    Ok(CrossCheck {
        symbolic: SymbolicOutcome::from(&symbolic),
        exhaustive_safe: exhaustive.all_safe(),
        exhaustive_runs: exhaustive.runs,
        symbolic_states,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pte_zones::check_lease_pattern;

    /// The case-study lease configuration is provably safe, and the
    /// baseline provably unsafe.
    #[test]
    fn case_study_verdicts() {
        let cfg = LeaseConfig::case_study();
        assert!(check_lease_pattern(&cfg, true).unwrap().is_safe());
        let baseline = check_lease_pattern(&cfg, false).unwrap();
        assert!(baseline.is_unsafe());
        if let SymbolicVerdict::Unsafe(ce) = baseline {
            // The witness is a real trace, not an empty stub.
            assert!(ce.steps.len() > 1, "{ce}");
        }
    }

    /// The engine reports its passed-list memory accounting: peak bytes
    /// are reported and the minimal constraint form undercuts the
    /// full-matrix equivalent.
    #[test]
    fn search_stats_report_compressed_passed_list() {
        let cfg = LeaseConfig::case_study();
        let verdict = check_lease_pattern(&cfg, true).unwrap();
        let stats = verdict.stats().expect("safe verdict carries stats");
        assert!(stats.peak_passed_bytes > 0);
        assert!(
            stats.peak_passed_bytes < stats.peak_passed_bytes_full,
            "compressed storage must undercut full matrices ({} vs {})",
            stats.peak_passed_bytes,
            stats.peak_passed_bytes_full
        );
    }

    /// A starved budget reports Inconclusive and never "agrees" — the
    /// sharp edge that once produced phantom disagreements.
    #[test]
    fn starved_budget_is_inconclusive_not_unsafe() {
        let cfg = LeaseConfig::case_study();
        let limits = Limits {
            max_states: 10,
            ..Limits::default()
        };
        let cc = cross_check_with(&cfg, true, 0, false, &limits).unwrap();
        assert_eq!(cc.symbolic, SymbolicOutcome::Inconclusive);
        assert!(!cc.symbolic_safe());
        assert!(!cc.agree());
        assert!(format!("{cc}").contains("inconclusive"), "{cc}");
    }

    /// A starved budget names the limit that tripped and the frontier
    /// left unexplored — the diagnosability fix for `Inconclusive`
    /// cross-checks.
    #[test]
    fn out_of_budget_reports_frontier_and_tripped_limit() {
        let cfg = LeaseConfig::case_study();
        let limits = Limits {
            max_states: 10,
            ..Limits::default()
        };
        let verdict = check_lease_pattern_with(&cfg, true, &limits).unwrap();
        let SymbolicVerdict::OutOfBudget { stats, tripped } = &verdict else {
            panic!("10-state budget must be exhausted, got {verdict}");
        };
        assert_eq!(*tripped, TrippedLimit::MaxStates(10));
        assert!(stats.frontier > 0, "a truncated search has a frontier");
        let text = format!("{verdict}");
        assert!(text.contains("max_states = 10"), "{text}");
        assert!(text.contains("frontier"), "{text}");
    }
}
