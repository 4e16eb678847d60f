//! Static model analysis over lowered [`TaNetwork`]s.
//!
//! Runs once per model, after [`crate::lower::lower_network`] and
//! before [`crate::reach::check`], and produces three artifacts:
//!
//! 1. **Activity masks** ([`ActivityMasks`], UPPAAL's active-clock
//!    reduction): a backward liveness dataflow per automaton computes,
//!    for every location, which of the automaton's clocks may still be
//!    read before their next reset. The engine frees dead clocks per
//!    state ([`crate::dbm::Dbm::free`]), collapsing zones that differ
//!    only in dead-clock history. These masks are the only thing the
//!    analysis changes about a search.
//! 2. **Redundant clocks** ([`ClockReduction`], the two rules of the
//!    Reveaal/ECDAR clock-reduction pass): clocks never read by any
//!    reachable guard or invariant, and clocks that are provably equal
//!    forever — reset by exactly the same live edges to the same
//!    values, hence never diverging. They are reported, not removed:
//!    the engine searches every clock of the network as lowered.
//! 3. **Lint diagnostics** ([`lint::Diagnostic`]): unreachable
//!    locations, statically unsatisfiable guards, dead edges,
//!    receiver-less sends, registers folded to constants, redundant
//!    clocks, and activity masks switched off on networks wider than
//!    64 clocks — surfaced by the `pte-lint` binary and attached to
//!    verification reports.
//!
//! Soundness contract: the masks preserve the verdict of the
//! reachability check bit-for-bit. A freed clock is dead (unread
//! before its next reset), so no guard, invariant, or observer
//! constraint ever sees a different value. Counter-example *traces*
//! are additionally pinned by the engine itself: [`crate::reach::check`]
//! re-derives any violation without the masks, so witness text is
//! identical by construction (see `Limits::reduce_clocks`).
//!
//! On the paper's own chain models the honest finding is that no clock
//! is redundant: during the innermost nested lease every supervisor
//! stage timer `g_k`, the phase clock `c`, and every device clock are
//! simultaneously live — the pattern's concurrency is exactly what the
//! paper verifies. The same holds for every registry model and every
//! compositional pair network. The measured win on chains comes from
//! the *per-location* masks (device clocks are dead in `Fall-Back`,
//! stage timers before their grant); the lint fixtures and
//! proptest-generated networks exercise the redundant-clock rules.

mod activity;
mod clocks;
pub mod lint;
mod reachable;

pub use activity::ActivityMasks;
use activity::MAX_MASKED_CLOCKS;
pub use clocks::ClockReduction;
pub use lint::{apply_allowlist, pattern_allowlist, AllowRule, Diagnostic, Severity};
pub use reachable::NetReachability;

use crate::ta::TaNetwork;

/// Everything the static analysis learned about one lowered network.
#[derive(Clone, Debug)]
pub struct ModelAnalysis {
    /// Discrete reachability / dead-edge classification.
    pub reachability: NetReachability,
    /// The redundant clocks (identity when nothing is redundant).
    pub reduction: ClockReduction,
    /// Per-(automaton, location) dead-clock masks over the network's
    /// clocks, which the search frees when [`crate::Limits::reduce_clocks`]
    /// is on.
    pub activity: ActivityMasks,
    /// Structured lint findings, in deterministic model order.
    pub diagnostics: Vec<Diagnostic>,
}

/// Compact numeric summary of a [`ModelAnalysis`], sized for
/// verification reports and bench records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Network clocks, all of which the search explores.
    pub clocks_before: usize,
    /// Network clocks less the redundant ones: the DBM dimension a
    /// clock-reducing search would need.
    pub clocks_after: usize,
    /// Clocks nothing reachable reads.
    pub clocks_dropped: usize,
    /// Clocks always equal to a lower-indexed representative.
    pub clocks_merged: usize,
    /// Statically unreachable locations across all automata.
    pub locations_unreachable: usize,
    /// Lint findings with [`Severity::Error`].
    pub errors: usize,
    /// Lint findings with [`Severity::Warning`].
    pub warnings: usize,
    /// Lint findings with [`Severity::Info`].
    pub infos: usize,
}

impl ModelAnalysis {
    /// The numeric summary of this analysis.
    pub fn stats(&self) -> AnalysisStats {
        let (mut errors, mut warnings, mut infos) = (0, 0, 0);
        for d in &self.diagnostics {
            match d.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
                Severity::Info => infos += 1,
            }
        }
        AnalysisStats {
            clocks_before: self.reduction.kept.len()
                + self.reduction.dropped.len()
                + self.reduction.merged.len(),
            clocks_after: self.reduction.kept.len(),
            clocks_dropped: self.reduction.dropped.len(),
            clocks_merged: self.reduction.merged.len(),
            locations_unreachable: self
                .reachability
                .reachable
                .iter()
                .map(|locs| locs.iter().filter(|r| !**r).count())
                .sum(),
            errors,
            warnings,
            infos,
        }
    }

    /// `true` if any diagnostic is [`Severity::Error`] — the CI lint
    /// gate's failure condition.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }
}

/// Runs the full static analysis over a lowered network.
///
/// Deterministic: iteration is in model order everywhere, so the same
/// network always produces the same diagnostics, redundant clocks, and
/// masks.
pub fn analyze(net: &TaNetwork) -> ModelAnalysis {
    let reachability = NetReachability::compute(net);
    let reduction = ClockReduction::compute(net, &reachability);
    let activity = ActivityMasks::compute(net, &reachability);
    let mut diagnostics = lint::lint(net, &reachability, &reduction);
    if net.clock_count() > MAX_MASKED_CLOCKS {
        diagnostics.push(Diagnostic {
            severity: Severity::Warning,
            code: "masks-disabled",
            automaton: None,
            site: None,
            message: format!(
                "{} clocks exceed the {MAX_MASKED_CLOCKS} the activity masks cover; the search \
                 will not free dead clocks",
                net.clock_count()
            ),
        });
    }
    ModelAnalysis {
        reachability,
        reduction,
        activity,
        diagnostics,
    }
}
