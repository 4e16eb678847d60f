//! # pte-verify
//!
//! Verification substrate for the lease design pattern. The [`api`]
//! module is the one front door over the proof-grade backends: a
//! [`VerificationRequest`] (scenario-or-config × query × backend
//! selection × unified budget) returns one [`VerificationReport`]. Its
//! `Auto` selection runs the analytic c1–c7 check (Theorem 1) and falls
//! back to the symbolic zone engine ([`pte_zones`]) only when that check
//! is inconclusive; cooperative cancellation and streaming progress
//! reach the symbolic engine, and `Compositional` selects the
//! assume-guarantee checker of [`pte_contracts`].
//!
//! Beside the front door sit the modules behind the paper's tables and
//! the cross-checks:
//!
//! * [`montecarlo`] — seeded randomized batches (parallelized with
//!   crossbeam) with Wilson confidence intervals over failure rates; the
//!   statistical check of Theorem 1 and the engine behind the loss-sweep
//!   ablation;
//! * [`exhaustive`] — bounded-exhaustive exploration: every
//!   drop/deliver assignment of the first `k` wireless transmissions is
//!   enumerated (both tail defaults), a model-checking-flavoured
//!   complement to random testing;
//! * [`symbolic`] — the zone engine's three-valued outcome and its
//!   cross-check against the exhaustive explorer. The engine closes
//!   the behaviour space the other two sample or bound: a `Safe`
//!   verdict is a proof over the timed abstraction, and an `Unsafe`
//!   verdict comes with a symbolic counter-example trace.
//!
//! | backend      | timings covered  | loss fates covered  | verdict strength |
//! |--------------|------------------|---------------------|------------------|
//! | `montecarlo` | sampled          | sampled (Bernoulli) | statistical      |
//! | `exhaustive` | one concrete run | all `2^k` prefixes  | bounded proof    |
//! | `symbolic`   | all (dense time) | all (unbounded)     | proof            |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod exhaustive;
pub mod montecarlo;
pub mod report;
pub mod symbolic;

pub use api::{
    unknown_contract_diagnostic, AnalysisSummary, ApiError, ArtifactIo, BackendSel, BackendStats,
    Budget, Inconclusive, ProgressSink, Query, Verdict, VerificationReport, VerificationRequest,
};
pub use exhaustive::{explore, ExplorationResult};
pub use montecarlo::{run_batch, BatchSummary, TrialOutcome};
pub use pte_contracts::{CompositionalStats, ContractCacheStats, EnvProfile};
pub use pte_zones::{
    new_sink, ArtifactError, ArtifactSink, CancelToken, PassedArtifact, Progress, ProgressFn,
    ARTIFACT_VERSION,
};
pub use symbolic::{
    cross_check, cross_check_with, CrossCheck, Extrapolation, Limits, SymbolicOutcome, TrippedLimit,
};
