//! # pte-zones
//!
//! Symbolic zone-based reachability for the lease design pattern: the
//! engine behind the `symbolic` and `compositional` backends of
//! `pte-verify`'s request API.
//!
//! `pte-verify`'s concrete-run backends *sample* the system's
//! behaviours: Monte-Carlo draws concrete clock valuations, and the
//! bounded-exhaustive explorer enumerates the `2^k` drop/deliver fates
//! of the first `k` transmissions. This crate instead covers **all
//! real-valued timings and all loss fates at once**, in the style of
//! timed-automata model checkers (UPPAAL, ECDAR):
//!
//! 1. [`dbm`] — Difference Bound Matrices over integer ticks:
//!    construction-time canonicalization (Floyd–Warshall) plus the
//!    **incremental** re-closures the engine's hot path runs on (each
//!    redoes only what its operation changed: one tightened entry in
//!    [`Dbm::close1`] / [`Dbm::constrain_and_close`], all invariant
//!    upper bounds after a delay in
//!    [`Dbm::constrain_upper_and_close`], the entries extrapolation
//!    loosened), `up`/`down`/`free`/`reset` (all closure-preserving, law-tested),
//!    inclusion, emptiness, two extrapolation operators for
//!    termination (maximal-constant `Extra_M` and the coarser LU-bound
//!    `Extra⁺_LU`), the **minimal constraint form** ([`Dbm::reduce`] /
//!    [`MinimalDbm`]) that compresses the case study's passed list
//!    3.8×, and a [`DbmPool`] free-list for allocation-free successor
//!    computation;
//! 2. [`lower`] — a timed abstraction of the `pte-core` pattern
//!    automata: their continuous dynamics are clock-like by construction
//!    (rate-1 lease/dwell timers, rate-0 registers such as the
//!    Supervisor's approval flag), so the hybrid network lowers exactly
//!    into a network of timed automata ([`ta`]) with invariants, guards,
//!    resets and the reliable/lossy synchronization labels;
//! 3. [`analysis`] — static analysis of the lowered network: the
//!    per-location activity masks whose dead clocks the search frees,
//!    and the `pte-lint` diagnostics;
//! 4. [`monitor`] — the property layer: safety properties are
//!    [`Monitor`]s composed with the network (observer clocks,
//!    discrete observer state in every passed-list key, guard
//!    constants folded into the extrapolation bounds), in the
//!    component/observer style of ECDAR — [`PteMonitor`] encodes the
//!    paper's PTE rules for any entity count, and
//!    [`LocationReachMonitor`] turns the engine into a plain
//!    reachability checker;
//! 5. the model semantics (crate-private) — one successor function:
//!    the settled successors of the initial state or of one settled
//!    state, through edge firing, the lossy broadcast cascade with its
//!    drop/deliver/ignore fates, urgent escapes, delay, dead-clock
//!    frees, extrapolation and the monitor's checks;
//! 6. [`reach`] — a parallel, property-agnostic search over that
//!    function: the passed list is sharded by discrete-state hash with
//!    per-shard key interning ([`intern`]), scoped workers expand the
//!    frontier in deterministic BFS layers ([`Limits::max_workers`];
//!    the verdict and counter-example are identical for every worker
//!    count), candidates are probed against the passed list *before*
//!    extrapolation, and any monitor violation is reported as a
//!    symbolic counter-example trace ([`SearchStats`] includes peak
//!    passed-list bytes on the safe side). Case-study proof: ≈ 3.6 ms /
//!    368 states on a 2-vCPU container; chain-8 settles 19 816 states
//!    in ≈ 1.2 s (`cargo bench -p pte-bench --bench zones`, which also
//!    writes `BENCH_zones.json`);
//! 7. [`artifact`] — a `Safe` search's passed list as a versioned,
//!    checksummed proof artifact, and the gate that decides when it
//!    warm-starts the search of an edited model.
//!
//! ## Quickstart
//!
//! ```
//! use pte_core::pattern::LeaseConfig;
//! use pte_zones::check_lease_pattern;
//!
//! // The paper's laser-tracheotomy configuration is symbolically safe…
//! let verdict = check_lease_pattern(&LeaseConfig::case_study(), true).unwrap();
//! assert!(verdict.is_safe());
//! // …and the without-lease baseline is provably not.
//! let verdict = check_lease_pattern(&LeaseConfig::case_study(), false).unwrap();
//! assert!(verdict.is_unsafe());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod artifact;
pub mod dbm;
pub mod intern;
pub mod lower;
pub mod monitor;
pub mod reach;
mod semantics;
pub mod ta;

pub use analysis::{
    analyze, apply_allowlist, pattern_allowlist, ActivityMasks, AllowRule, AnalysisStats,
    ClockReduction, Diagnostic, ModelAnalysis, Severity,
};
pub use artifact::{
    new_sink, ArtifactError, ArtifactSink, PassedArtifact, PassedEntry, WarmProfile,
    ARTIFACT_VERSION,
};
pub use dbm::{Bound, Dbm, DbmPool, MinCon, MinimalDbm};
pub use lower::{lower_network, LowerError};
pub use monitor::{
    LocationReachMonitor, Monitor, MonitorState, MonitorViolation, ObserverSpec, PairBounds,
    PteMonitor, TransitionCtx, ViolationKind,
};
pub use reach::{
    check, check_monitored, CancelToken, Extrapolation, Limits, Progress, ProgressFn, SearchStats,
    SymbolicCounterExample, SymbolicVerdict, TrippedLimit,
};
pub use ta::LuBounds;

use pte_core::pattern::{build_pattern_system, LeaseConfig};
use std::fmt;
use std::sync::OnceLock;

/// Ticks per second: constants are scaled to integer microseconds, the
/// exactness condition for DBM canonicalization.
pub const SCALE: f64 = 1_000_000.0;

/// Scales seconds to integer ticks (nearest-microsecond rounding; the
/// pattern's configuration constants are all microsecond-exact).
pub fn to_ticks(secs: f64) -> i64 {
    (secs * SCALE).round() as i64
}

/// [`to_ticks`], but `None` when the constant is not microsecond-exact
/// (beyond float representation noise): rounding such a constant would
/// silently verify a *different* model, so the lowering rejects it.
pub fn try_to_ticks(secs: f64) -> Option<i64> {
    let scaled = secs * SCALE;
    let rounded = scaled.round();
    // 1e-3 ticks = 1 ns of slack absorbs binary-representation error of
    // decimal constants (0.1 s etc.) without admitting real sub-µs data.
    if (scaled - rounded).abs() <= 1e-3 {
        Some(rounded as i64)
    } else {
        None
    }
}

/// Everything that can go wrong between a [`LeaseConfig`] and a verdict.
#[derive(Clone, Debug)]
pub enum ZonesError {
    /// The pattern system failed to build.
    Build(String),
    /// The hybrid network is outside the clock-like fragment.
    Lower(LowerError),
    /// The observer spec names an unknown entity.
    Spec(String),
}

impl fmt::Display for ZonesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZonesError::Build(m) => write!(f, "pattern build failed: {m}"),
            ZonesError::Lower(e) => write!(f, "lowering failed: {e}"),
            ZonesError::Spec(m) => write!(f, "bad observer spec: {m}"),
        }
    }
}

impl std::error::Error for ZonesError {}

impl From<LowerError> for ZonesError {
    fn from(e: LowerError) -> ZonesError {
        ZonesError::Lower(e)
    }
}

/// Builds the `N`-entity lease-pattern system for `cfg`, lowers it to a
/// timed-automata network, and symbolically checks the PTE rules of
/// `cfg.pte_spec()` over every timing and loss fate.
pub fn check_lease_pattern(cfg: &LeaseConfig, leased: bool) -> Result<SymbolicVerdict, ZonesError> {
    check_lease_pattern_with(cfg, leased, &Limits::default())
}

/// [`check_lease_pattern`] with explicit exploration limits.
pub fn check_lease_pattern_with(
    cfg: &LeaseConfig,
    leased: bool,
    limits: &Limits,
) -> Result<SymbolicVerdict, ZonesError> {
    LoweredPattern::new(cfg, leased)?.check(limits)
}

/// Builds and lowers one arm of the `N`-entity lease-pattern system
/// for `cfg` and runs the [static model analysis](analysis) over it —
/// the entry point `pte-lint` uses. Purely static: no state-space
/// exploration happens.
pub fn analyze_lease_pattern(cfg: &LeaseConfig, leased: bool) -> Result<ModelAnalysis, ZonesError> {
    LoweredPattern::new(cfg, leased).map(|p| analyze(&p.net))
}

/// One arm of the `N`-entity lease-pattern system for a configuration,
/// built and lowered once, and statically analyzed at most once, on
/// first use: every search of the arm and a report's analysis summary
/// share one pass of each, and a caller that only reads the network
/// (the compositional argument) never pays for the analysis.
#[derive(Debug)]
pub struct LoweredPattern {
    /// The lowered timed-automata network.
    pub net: ta::TaNetwork,
    /// The [static model analysis](analysis) of [`LoweredPattern::net`],
    /// once something has asked for it.
    analysis: OnceLock<ModelAnalysis>,
    /// The PTE rules of the configuration, in ticks.
    spec: ObserverSpec,
}

impl LoweredPattern {
    /// Builds the leased (or lease-stripped) pattern system for `cfg`
    /// and lowers it.
    pub fn new(cfg: &LeaseConfig, leased: bool) -> Result<LoweredPattern, ZonesError> {
        let sys =
            build_pattern_system(cfg, leased).map_err(|e| ZonesError::Build(format!("{e:?}")))?;
        Ok(LoweredPattern {
            net: lower_network(&sys.automata)?,
            analysis: OnceLock::new(),
            spec: ObserverSpec::from(cfg.pte_spec()),
        })
    }

    /// The [static model analysis](analysis) of the network, run on the
    /// first call.
    pub fn analysis(&self) -> &ModelAnalysis {
        self.analysis.get_or_init(|| analyze(&self.net))
    }

    /// The analysis, if a search or [`LoweredPattern::analysis`] has
    /// already run it.
    pub fn analysis_if_run(&self) -> Option<&ModelAnalysis> {
        self.analysis.get()
    }

    /// Symbolically checks the configuration's PTE rules over every
    /// timing and loss fate, like [`check`], reusing this arm's
    /// analysis instead of running it again.
    pub fn check(&self, limits: &Limits) -> Result<SymbolicVerdict, ZonesError> {
        reach::check_analyzed(&self.net, self.analysis(), &self.spec, limits)
            .map_err(ZonesError::Spec)
    }
}

#[cfg(test)]
mod tests {
    use super::dbm::{Bound, Dbm};
    use super::*;

    #[test]
    fn tick_scaling_is_exact_for_pattern_constants() {
        assert_eq!(to_ticks(1.5), 1_500_000);
        assert_eq!(to_ticks(0.0), 0);
        assert_eq!(to_ticks(13.0), 13_000_000);
        assert_eq!(to_ticks(0.15), 150_000);
    }

    #[test]
    fn bound_encoding_orders_by_tightness() {
        assert!(Bound::lt(5) < Bound::le(5));
        assert!(Bound::le(5) < Bound::lt(6));
        assert!(Bound::le(5) < Bound::INF);
        assert_eq!(Bound::le(2) + Bound::lt(3), Bound::lt(5));
        assert_eq!(Bound::le(2) + Bound::le(3), Bound::le(5));
        assert!((Bound::INF + Bound::le(-10)).is_inf());
    }

    #[test]
    fn zero_zone_delays_into_the_diagonal() {
        let mut z = Dbm::zero(2);
        z.up();
        // x1 - x2 == 0 along the diagonal.
        assert_eq!(z.get(1, 2), Bound::LE_ZERO);
        assert_eq!(z.get(2, 1), Bound::LE_ZERO);
        assert!(z.get(1, 0).is_inf());
        // Constrain x1 <= 5 and recanonicalize: x2 <= 5 follows.
        z.constrain(1, 0, Bound::le(5));
        z.canonicalize();
        assert_eq!(z.get(2, 0), Bound::le(5));
        assert!(!z.is_empty());
    }

    #[test]
    fn contradictory_constraints_empty_the_zone() {
        let mut z = Dbm::zero(1);
        z.up();
        z.constrain(1, 0, Bound::le(3));
        z.constrain(0, 1, Bound::le(-5)); // x1 >= 5
        z.canonicalize();
        assert!(z.is_empty());
    }

    #[test]
    fn reset_pins_a_clock() {
        let mut z = Dbm::zero(2);
        z.up();
        z.constrain(1, 0, Bound::le(10));
        z.canonicalize();
        z.reset(2, 7);
        assert_eq!(z.get(2, 0), Bound::le(7));
        assert_eq!(z.get(0, 2), Bound::le(-7));
        assert!(!z.is_empty());
    }

    #[test]
    fn inclusion_is_a_partial_order() {
        let mut small = Dbm::zero(1);
        small.up();
        small.constrain(1, 0, Bound::le(2));
        small.canonicalize();
        let mut big = Dbm::zero(1);
        big.up();
        big.constrain(1, 0, Bound::le(5));
        big.canonicalize();
        assert!(big.includes(&small));
        assert!(!small.includes(&big));
        assert!(big.includes(&big));
    }

    #[test]
    fn extrapolation_widens_beyond_the_max_constant() {
        let mut z = Dbm::zero(1);
        z.up();
        z.constrain(0, 1, Bound::le(-50)); // x1 >= 50
        z.constrain(1, 0, Bound::le(80));
        z.canonicalize();
        z.extrapolate(&[0, 10]);
        // Upper bound 80 > 10 widens away; lower bound 50 clamps to > 10.
        assert!(z.get(1, 0).is_inf());
        assert_eq!(z.get(0, 1), Bound::lt(-10));
    }
}
