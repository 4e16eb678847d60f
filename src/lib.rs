//! # pte — Proper-Temporal-Embedding safety for wireless CPS
//!
//! Umbrella crate for the reproduction of Tan et al., *"Guaranteeing
//! Proper-Temporal-Embedding Safety Rules in Wireless CPS: A Hybrid Formal
//! Modeling Approach"* (DSN 2013).
//!
//! This crate re-exports the workspace members; see the individual crates
//! for the detailed APIs:
//!
//! * [`hybrid`] — hybrid automaton formalism (Section II) + elaboration
//!   methodology (Section IV-C);
//! * [`ode`] — ODE integration substrate;
//! * [`sim`] — hybrid system co-simulation executor;
//! * [`wireless`] — lossy wireless channel substrate (fault model II-B);
//! * [`core`] — the paper's contribution: PTE safety rules, lease design
//!   pattern, conditions c1–c7, parameter synthesis, runtime monitor;
//! * [`tracheotomy`] — the Section V laser tracheotomy case study;
//! * [`verify`] — the unified `verify::api` session layer (one
//!   `VerificationRequest` front door over the analytic, symbolic and
//!   compositional backends, whose `Auto` selection runs the analytic
//!   c1–c7 check, then the zone search, with cancellation and streaming
//!   progress), plus Monte-Carlo and bounded-exhaustive verification;
//! * [`zones`] — symbolic zone-based (DBM) reachability, the engine
//!   behind the symbolic backend — a property-agnostic search over one
//!   successor function plus a safety-monitor layer — proving PTE
//!   safety (or any composed monitor property) over all real-valued
//!   timings and loss fates;
//! * [`contracts`] — compositional assume-guarantee verification:
//!   lease-interface contract automata, a timed refinement checker,
//!   and the `compositional` backend's per-device + pair-network
//!   proof decomposition for chain-12/16/20-scale fleets.
//!
//! ## Quickstart
//!
//! ```
//! use pte::prelude::*;
//!
//! // Synthesize a lease configuration for N = 2 entities that satisfies
//! // Theorem 1's conditions c1..c7, build the pattern system, run it under
//! // heavy packet loss, and check the PTE safety rules on the trace.
//! let cfg = pte::core::pattern::LeaseConfig::case_study();
//! assert!(pte::core::pattern::check_conditions(&cfg).is_satisfied());
//! ```

#![forbid(unsafe_code)]

pub use pte_contracts as contracts;
pub use pte_core as core;
pub use pte_hybrid as hybrid;
pub use pte_ode as ode;
pub use pte_sim as sim;
pub use pte_tracheotomy as tracheotomy;
pub use pte_verify as verify;
pub use pte_wireless as wireless;
pub use pte_zones as zones;

/// Convenience prelude: the types most programs need.
pub mod prelude {
    pub use pte_core::monitor::{check_pte, PteReport};
    pub use pte_core::pattern::{check_conditions, LeaseConfig};
    pub use pte_core::rules::PteSpec;
    pub use pte_hybrid::{Expr, HybridAutomaton, Pred, Time};
    pub use pte_sim::executor::{Executor, ExecutorConfig};
    pub use pte_sim::trace::Trace;
    pub use pte_tracheotomy::{scenario_by_name, scenario_registry, Scenario};
    pub use pte_verify::api::{
        BackendSel, BackendStats, Budget, Query, Verdict, VerificationReport, VerificationRequest,
    };
    pub use pte_zones::{
        check_lease_pattern, check_lease_pattern_with, check_monitored, CancelToken, Extrapolation,
        Limits, Monitor, Progress, SymbolicVerdict,
    };
}
