//! One front door: the unified verification session layer.
//!
//! Every backend of this crate — the analytic c1–c7 check, the
//! symbolic zone engine, and the compositional assume-guarantee
//! checker — historically exposed its own entry point, verdict type,
//! and budget knobs, and every consumer (`campaign`, `zprobe`, the
//! agreement tests) re-implemented the same dispatch and
//! verdict-mapping glue. This module replaces that glue with a single
//! query API in the style of ECDAR/Reveaal: build a
//! [`VerificationRequest`] (scenario-or-config × [`Query`] ×
//! [`BackendSel`] × [`Budget`]), call [`VerificationRequest::run`], and
//! get one [`VerificationReport`] (verdict, witness, per-backend stats,
//! tripped limits). Requests and reports are serde-serializable, so a
//! service layer can ship them over the wire unchanged.
//!
//! ## Backend conclusiveness caveats
//!
//! The backends differ in what their verdicts *mean* — the report
//! records which backend produced the verdict precisely because the
//! strength differs:
//!
//! * **analytic** ([`pte_core::pattern::check_conditions`]) is
//!   *conservative*: c1–c7 are sufficient, not necessary, and Theorem 1
//!   covers the leased arm only. It can conclude [`Verdict::Safe`]
//!   (leased arm, conditions satisfied) in microseconds but can never
//!   falsify — a violated condition yields
//!   [`Inconclusive::Unknown`], not `Unsafe`.
//! * **symbolic** ([`crate::symbolic::verify_symbolic_with`]) covers
//!   all real-valued timings and all loss fates at once: both `Safe`
//!   and `Unsafe` are proof-grade over the timed abstraction.
//! * **compositional** ([`pte_contracts::check_compositional`])
//!   verifies each device against a small contract automaton and the
//!   safety property on abstract per-pair networks; when the argument
//!   closes, its `Safe` is proof-grade like the symbolic engine's, at
//!   a fraction of the state count (linear instead of exponential in
//!   `N`). When it does not close it *falls back to the monolithic
//!   symbolic engine* under the same limits, so it is never spuriously
//!   safe — and never reports `Unsafe` from the abstraction alone.
//!   Explicit-only (never chosen by `Auto`).
//!
//! The bounded-exhaustive explorer and the Monte-Carlo sampler
//! ([`crate::exhaustive`], [`crate::montecarlo`]) sample concrete runs;
//! they are library code for the paper's figures and tables, not
//! request backends.
//!
//! ## `Auto`: the analytic check, then the zone search
//!
//! [`BackendSel::Auto`] runs its backends in order on the calling
//! thread and stops at the first conclusive verdict. For
//! [`Query::PteSafety`] it runs the analytic check first — Theorem 1
//! makes it a proof for every leased configuration that satisfies
//! c1–c7 — and the symbolic engine only when the analytic check is
//! inconclusive (a violated condition, or the lease-stripped arm).
//! [`Query::LocationReach`] runs the symbolic engine and
//! [`Query::ConditionCheck`] the analytic check. The report lists the
//! backends that ran, in run order, and takes its verdict, witness and
//! tripped limit from the last one, so every `Unsafe` comes from the
//! symbolic engine. The model is built, lowered and analyzed only when
//! a zone search runs, so a request the analytic check decides never
//! pays for it, and its report has no `analysis` summary. `Auto`
//! requests default to `max_workers = 0` (one symbolic worker per CPU)
//! so the front door is fast out of the box; an explicit
//! [`Budget::max_workers`] always wins.
//!
//! A [`CancelToken`] passed to [`VerificationRequest::run_with`] stops
//! the symbolic engine within one BFS layer; the report then says
//! `Inconclusive(Cancelled)`, never `Safe` or `Unsafe`.
//!
//! ## Example
//!
//! ```
//! use pte_verify::api::{VerificationRequest, Verdict};
//!
//! // `Auto` (the default selection) proves the leased case study with
//! // the analytic check…
//! let leased = VerificationRequest::scenario("case-study")
//!     .run()
//!     .expect("case-study is a registry scenario");
//! assert_eq!(leased.verdict, Verdict::Safe);
//! assert_eq!(leased.winner.as_deref(), Some("analytic"));
//!
//! // …and falsifies the lease-stripped baseline on the zone engine.
//! let stripped = VerificationRequest::scenario("case-study")
//!     .leased(false)
//!     .run()
//!     .expect("case-study is a registry scenario");
//! assert_eq!(stripped.verdict, Verdict::Unsafe);
//! assert_eq!(stripped.winner.as_deref(), Some("symbolic"));
//! ```

use pte_contracts::{
    check_compositional, CompositionalLimits, CompositionalStats, CompositionalVerdict, EnvProfile,
    RefineLimits, PROFILE_NAMES,
};
use pte_core::pattern::{check_conditions, LeaseConfig};
use pte_tracheotomy::registry;
use pte_zones::{
    check_monitored, ArtifactSink, CancelToken, Limits, LocationReachMonitor, LoweredPattern,
    ModelAnalysis, PassedArtifact, Progress, ProgressFn, SymbolicVerdict, TrippedLimit, ZonesError,
};
use serde::{Deserialize, Number, Serialize, Value};
use std::cell::OnceCell;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What to check.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Query {
    /// The paper's PTE safety rules (Rule 1 bounded dwelling plus
    /// per-pair proper temporal embedding) — every backend applies.
    PteSafety,
    /// Plain location reachability: is any `(automaton, location
    /// name-prefix)` target reachable? Symbolic-only (the zone engine
    /// composes a [`LocationReachMonitor`]); `Verdict::Unsafe` means
    /// *reachable* (with a witness trace), `Verdict::Safe` means
    /// unreachable over all timings and loss fates.
    LocationReach {
        /// `(automaton name, location name-prefix)` targets.
        targets: Vec<(String, String)>,
    },
    /// The analytic c1–c7 feasibility check alone (arm-independent:
    /// conditions constrain the configuration, not the lease arm).
    /// `Verdict::Safe` means every condition holds.
    ConditionCheck,
}

impl Query {
    /// Short name used in error messages.
    fn name(&self) -> &'static str {
        match self {
            Query::PteSafety => "pte-safety",
            Query::LocationReach { .. } => "location-reach",
            Query::ConditionCheck => "condition-check",
        }
    }
}

/// Which backend(s) to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendSel {
    /// The analytic c1–c7 check (conservative; see the module docs).
    Analytic,
    /// The symbolic zone engine (proof-grade both ways).
    Symbolic,
    /// Compositional assume-guarantee verification
    /// ([`pte_contracts::check_compositional`]): per-device contract
    /// refinement plus small abstract pair checks, falling back to the
    /// monolithic symbolic engine whenever the argument has a gap — so
    /// its `Safe` is proof-grade and it can never be *spuriously* safe.
    /// Explicit-only: `Auto` never selects it.
    Compositional,
    /// Run backends in order and stop at the first conclusive verdict:
    /// `PteSafety` → analytic, then symbolic; `LocationReach` →
    /// symbolic; `ConditionCheck` → analytic. `max_workers` defaults to
    /// `0` (auto).
    Auto,
}

/// Unified resource budget across all backends. Every field is
/// optional; unset fields resolve to per-backend defaults (documented
/// per field). The struct is plain data — serializable, clonable,
/// reusable across requests.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Budget {
    /// Symbolic state budget. Unset: the scenario's
    /// [`registry::Scenario::recommended_budget`] when the request
    /// names a registry scenario, otherwise the engine default
    /// ([`Limits::default`]).
    pub max_states: Option<usize>,
    /// Wall-clock budget in milliseconds for each zone search of the
    /// request, checked at BFS round boundaries. The analytic check
    /// ignores it.
    pub max_wall_ms: Option<u64>,
    /// Symbolic worker threads (`0` = one per CPU). Unset: `0` for
    /// [`BackendSel::Auto`] requests, `1` (the reproducible library
    /// default) otherwise.
    pub max_workers: Option<usize>,
    /// Seed the symbolic search from a prior run's passed-list
    /// artifact when the scheduler supplies one (see
    /// [`VerificationRequest::parent_key`] and
    /// [`VerificationRequest::run_with_artifacts`]). Warm starts are
    /// verdict-preserving by construction — the engine transfers a
    /// proof only when it re-validates against the new model, and
    /// falls back to a cold search otherwise — so the knob exists to
    /// *opt out* (`Some(false)` forces cold even when an artifact is
    /// available) and to separate warm rows in the report-cache key.
    /// Unset: warm when an artifact is supplied.
    pub warm_start: Option<bool>,
    /// Compositional refinement budget: state-**pair** cap per
    /// `Device ⊑ Contract` check
    /// ([`pte_contracts::RefineLimits::max_pairs`]). Unset: the
    /// refinement checker's default. Other backends ignore it.
    pub refine_pairs: Option<usize>,
}

/// A verification request: *what system* (registry scenario or inline
/// configuration) × *which arm* × *what property* ([`Query`]) × *which
/// backend(s)* ([`BackendSel`]) × *how much work* ([`Budget`]).
///
/// Build one with [`VerificationRequest::scenario`] or
/// [`VerificationRequest::config`] and the chained setters, then call
/// [`VerificationRequest::run`] (or
/// [`VerificationRequest::run_with`] for cancellation and streaming
/// progress).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VerificationRequest {
    /// Registry scenario name (mutually exclusive with `config`).
    pub scenario: Option<String>,
    /// Inline lease configuration (mutually exclusive with `scenario`).
    pub config: Option<LeaseConfig>,
    /// `true` checks the leased arm, `false` the lease-stripped
    /// baseline.
    pub leased: bool,
    /// The property to check.
    pub query: Query,
    /// The backend selection.
    pub backend: BackendSel,
    /// The resource budget.
    pub budget: Budget,
    /// [`VerificationRequest::cache_key`] of a prior request whose
    /// passed-list artifact this run should warm-start from. Purely a
    /// scheduler hint: the API layer never resolves keys to artifacts
    /// itself (a daemon looks the key up in its persistent cache and
    /// passes the artifact through
    /// [`VerificationRequest::run_with_artifacts`]), but the key is
    /// folded into this request's own cache key so warm and cold runs
    /// of the same configuration never share a cached report. Elided
    /// (`null`) on the wire when unset, so pre-existing serialized
    /// requests still deserialize.
    pub parent_key: Option<String>,
    /// Environment-contract profile for [`BackendSel::Compositional`]
    /// (one of [`pte_contracts::PROFILE_NAMES`]): how devices *outside*
    /// the safeguard pair under scrutiny are abstracted — `"top"`
    /// (default; untimed chatter contracts) or `"lease-client"` (timed
    /// lease contracts everywhere). Other backends ignore it; unknown
    /// names fail the request with [`ApiError::UnknownContract`].
    /// Elided (`null`) on the wire when unset.
    pub contract: Option<String>,
}

/// Why a backend (or the whole request) failed to reach a verdict.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Inconclusive {
    /// A [`CancelToken`] ended the search.
    Cancelled,
    /// A resource limit tripped before the search finished; the string
    /// names the limit (e.g. `"state budget (max_states = 10)"`).
    Budget(String),
    /// The backend failed to execute (build/lowering/simulation
    /// infrastructure error) — never conflated with a verdict.
    Error(String),
    /// The backend does not support the query (e.g. the analytic check
    /// asked for `LocationReach`).
    Unsupported(String),
    /// The backend ran to completion but its method cannot decide this
    /// instance (analytic conservatism).
    Unknown(String),
}

impl fmt::Display for Inconclusive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inconclusive::Cancelled => write!(f, "cancelled"),
            Inconclusive::Budget(s) => write!(f, "budget exhausted: {s}"),
            Inconclusive::Error(s) => write!(f, "backend error: {s}"),
            Inconclusive::Unsupported(s) => write!(f, "unsupported: {s}"),
            Inconclusive::Unknown(s) => write!(f, "undecided: {s}"),
        }
    }
}

/// The unified three-valued verdict. What `Safe`/`Unsafe` *prove*
/// depends on the backend that produced them — see the module docs'
/// conclusiveness table; [`VerificationReport::winner`] records which
/// backend it was.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    /// The property holds (to the producing backend's strength: a
    /// symbolic or compositional proof, or analytic sufficiency).
    Safe,
    /// The property is violated; [`VerificationReport::witness`] (and
    /// the per-backend [`BackendStats::witness`]) carries the
    /// counter-example.
    Unsafe,
    /// No verdict — the reason says why. Never conflated with `Safe`:
    /// a cancelled or budget-starved search cannot certify anything.
    Inconclusive(Inconclusive),
}

impl Verdict {
    /// `true` for `Safe` / `Unsafe` (where [`BackendSel::Auto`] stops).
    pub fn is_conclusive(&self) -> bool {
        matches!(self, Verdict::Safe | Verdict::Unsafe)
    }

    /// Four-way status label (`"safe"` / `"unsafe"` / `"error"` /
    /// `"inconclusive"`), the vocabulary the campaign table and JSON
    /// use.
    pub fn status(&self) -> &'static str {
        match self {
            Verdict::Safe => "safe",
            Verdict::Unsafe => "unsafe",
            Verdict::Inconclusive(Inconclusive::Error(_)) => "error",
            Verdict::Inconclusive(_) => "inconclusive",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Safe => write!(f, "safe"),
            Verdict::Unsafe => write!(f, "unsafe"),
            Verdict::Inconclusive(r) => write!(f, "inconclusive ({r})"),
        }
    }
}

/// One backend's contribution to a report: its verdict, its native
/// rendered verdict text, and its resource/stat counters. Fields that a
/// backend does not populate stay at their zero defaults (e.g.
/// `states` for the analytic check).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct BackendStats {
    /// Backend name: `"analytic"`, `"symbolic"`, or `"compositional"`.
    pub backend: String,
    /// The backend's verdict (see the module docs for per-backend
    /// strength).
    pub verdict: Verdict,
    /// The backend's native rendered verdict — exactly what its own
    /// `Display` prints (`zprobe` echoes this verbatim).
    pub rendered: String,
    /// Counter-example / witness text, for `Unsafe` verdicts.
    pub witness: Option<String>,
    /// Wall time of this backend's run, milliseconds.
    pub wall_ms: f64,
    /// Symbolic: settled states.
    pub states: usize,
    /// Symbolic: discrete transitions fired.
    pub transitions: usize,
    /// Symbolic: unexplored frontier at truncation (0 when complete).
    pub frontier: usize,
    /// Symbolic: peak passed-list bytes (minimal constraint form).
    pub peak_passed_bytes: usize,
    /// Symbolic: the same zones as full matrices (compression
    /// denominator).
    pub peak_passed_bytes_full: usize,
    /// Symbolic: passed-list entries transferred from a prior run's
    /// artifact instead of being re-explored. `0` on every cold run;
    /// equal to `states` when a warm start fully transferred the proof.
    pub warm_seeded: usize,
    /// The tripped limit, rendered, when a budget ended the search.
    pub tripped: Option<String>,
    /// Build / execution error text, when the backend failed to run.
    pub error: Option<String>,
    /// `true` when a [`CancelToken`] stopped this backend.
    pub cancelled: bool,
    /// Compositional: per-stage counters (refinement pairs explored,
    /// contracts deduplicated/cached, abstract pair-network states).
    /// Populated even when the run fell back to the monolithic engine —
    /// the counters then describe the attempt that triggered the
    /// fallback. `None` for every other backend.
    pub compositional: Option<CompositionalStats>,
}

impl Default for Verdict {
    fn default() -> Verdict {
        Verdict::Inconclusive(Inconclusive::Unknown("not run".into()))
    }
}

/// What the [static model analysis](pte_zones::analysis) found about
/// the verified network — clock reduction results and lint counts,
/// attached to every report whose system lowers (`pte-lint` renders the
/// full diagnostics; the report carries the summary).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisSummary {
    /// Network clocks before the global clock reduction.
    pub clocks_before: usize,
    /// Network clocks after dropping unread and merging equivalent ones.
    pub clocks_after: usize,
    /// Clocks dropped (never read by a reachable guard or invariant).
    pub clocks_dropped: usize,
    /// Clocks merged into an equivalent representative.
    pub clocks_merged: usize,
    /// Discretely unreachable locations across all automata.
    pub locations_unreachable: usize,
    /// Lint diagnostics at `error` severity.
    pub errors: usize,
    /// Lint diagnostics at `warning` severity.
    pub warnings: usize,
    /// Lint diagnostics at `info` severity.
    pub infos: usize,
}

impl From<&ModelAnalysis> for AnalysisSummary {
    fn from(a: &ModelAnalysis) -> AnalysisSummary {
        let s = a.stats();
        AnalysisSummary {
            clocks_before: s.clocks_before,
            clocks_after: s.clocks_after,
            clocks_dropped: s.clocks_dropped,
            clocks_merged: s.clocks_merged,
            locations_unreachable: s.locations_unreachable,
            errors: s.errors,
            warnings: s.warnings,
            infos: s.infos,
        }
    }
}

/// The unified verification report: one top-level verdict (+ witness)
/// plus per-backend stats. Serializable as-is.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VerificationReport {
    /// The registry scenario name, when the request used one.
    pub scenario: Option<String>,
    /// Which arm was checked.
    pub leased: bool,
    /// The top-level verdict: the last backend's verdict verbatim.
    pub verdict: Verdict,
    /// Counter-example / witness of the last backend (byte-for-byte its
    /// own witness).
    pub witness: Option<String>,
    /// Name of the backend that produced [`VerificationReport::verdict`]
    /// (`None` when no backend reached a conclusive verdict).
    pub winner: Option<String>,
    /// The last backend's tripped limit, when inconclusive on budget.
    pub tripped: Option<String>,
    /// Every backend that ran, in run order.
    pub backends: Vec<BackendStats>,
    /// Static model analysis of the arm a monolithic zone search
    /// explored: the symbolic backend's, or the compositional
    /// fallback's. `None` when no such search ran (a report the
    /// analytic check decided, or a compositional proof that closed
    /// without fallback, whose pair searches analyze their own
    /// networks) and when the system does not lower to the clock-like
    /// fragment.
    pub analysis: Option<AnalysisSummary>,
    /// The compositional backend's per-stage counters, when it ran
    /// (mirrors [`BackendStats::compositional`] for convenient
    /// top-level access).
    pub compositional: Option<CompositionalStats>,
    /// End-to-end wall time of the request, milliseconds.
    pub wall_ms: f64,
}

impl VerificationReport {
    /// The stats of a backend by name, if it ran.
    pub fn backend(&self, name: &str) -> Option<&BackendStats> {
        self.backends.iter().find(|b| b.backend == name)
    }

    /// The deciding backend's stats: the last backend that ran (`Auto`
    /// stops at the first conclusive verdict, so this is the winner's
    /// when there is one).
    ///
    /// # Panics
    ///
    /// Panics on an empty report (cannot happen for reports produced by
    /// [`VerificationRequest::run`]).
    pub fn primary(&self) -> &BackendStats {
        self.backends
            .last()
            .expect("a report from `run` lists the backends that ran")
    }
}

impl fmt::Display for VerificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verdict: {}", self.verdict)?;
        if let Some(w) = &self.winner {
            write!(f, " (by {w})")?;
        }
        writeln!(f, " in {:.1} ms", self.wall_ms)?;
        for b in &self.backends {
            writeln!(
                f,
                "  {:<10} {} ({:.1} ms){}",
                b.backend,
                b.verdict,
                b.wall_ms,
                if b.cancelled { " [cancelled]" } else { "" }
            )?;
        }
        Ok(())
    }
}

/// Request-level failures: the request itself is malformed (the
/// backends never ran). Backend-level failures are reported in-band as
/// [`Inconclusive::Error`] instead.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ApiError {
    /// The named scenario is not in the registry; `listing` is the
    /// one-line-per-scenario catalogue.
    UnknownScenario {
        /// The name that failed to resolve.
        name: String,
        /// [`registry::listing`] at the time of the request.
        listing: String,
    },
    /// Neither `scenario` nor `config` was provided.
    NoSystem,
    /// Both `scenario` and `config` were provided.
    AmbiguousSystem,
    /// [`VerificationRequest::contract`] names no known environment
    /// profile (see [`pte_contracts::PROFILE_NAMES`]).
    UnknownContract {
        /// The name that failed to resolve.
        name: String,
    },
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::UnknownScenario { name, listing } => {
                write!(
                    f,
                    "{}",
                    registry::unknown_scenario_diagnostic(name, listing)
                )
            }
            ApiError::NoSystem => {
                write!(f, "request names no system: set `scenario` or `config`")
            }
            ApiError::AmbiguousSystem => write!(
                f,
                "request names two systems: set `scenario` or `config`, not both"
            ),
            ApiError::UnknownContract { name } => {
                write!(f, "{}", unknown_contract_diagnostic(name))
            }
        }
    }
}

/// The canonical unknown-contract diagnostic (shared with the daemon's
/// `Error` frame and `pte-verify-client`, like
/// [`registry::unknown_scenario_diagnostic`] is for scenarios): a
/// "did you mean" near-miss suggestion over the environment-profile
/// names, plus the available set.
pub fn unknown_contract_diagnostic(name: &str) -> String {
    let suggestion = registry::nearest_of(name, PROFILE_NAMES)
        .map(|n| format!("; did you mean `{n}`?"))
        .unwrap_or_default();
    format!(
        "unknown contract profile `{name}`{suggestion}; available profiles: {}",
        PROFILE_NAMES.join(", ")
    )
}

impl std::error::Error for ApiError {}

/// Caller-facing progress sink: `(backend name, snapshot)`.
pub type ProgressSink = Arc<dyn Fn(&str, &Progress) + Send + Sync>;

/// Passed-list artifact plumbing for one run, threaded by schedulers
/// (like `pte-verifyd`) through
/// [`VerificationRequest::run_with_artifacts`]. Artifacts are runtime
/// objects, not request data: they never ride the serialized request
/// (a daemon resolves [`VerificationRequest::parent_key`] against its
/// own cache and hands the artifact in here), so this struct is not
/// serde-serializable by design.
#[derive(Clone, Default)]
pub struct ArtifactIo {
    /// A prior run's artifact to warm-start the symbolic engine from.
    /// Ignored when [`Budget::warm_start`] is `Some(false)`; the
    /// engine additionally re-validates it against the new model and
    /// silently runs cold when any gate fails — supplying a stale or
    /// foreign artifact can never flip a verdict.
    pub warm: Option<Arc<PassedArtifact>>,
    /// Sink that receives the passed-list artifact of this run (the
    /// transferred proof when it warm-started, the freshly captured
    /// passed list when a PTE-safety search concluded `Safe`).
    pub capture: Option<ArtifactSink>,
}

/// Schema version folded into every [`VerificationRequest::cache_key`]
/// digest. Bump it whenever the serialized shape of [`LeaseConfig`],
/// [`Query`], [`BackendSel`], or the normalized budget changes, so a
/// persisted report cache can never serve a report produced under a
/// different request schema.
pub const CACHE_KEY_VERSION: u64 = 4;

/// FNV-1a, 64-bit: the dependency-free stable hash behind
/// [`VerificationRequest::cache_key`]. Not cryptographic — the cache it
/// keys is a performance artifact, not a security boundary.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Canonicalizes a serialized [`Value`] tree for hashing: object
/// entries are sorted by key (so the digest is independent of field
/// order — both in wire JSON and in future struct-declaration
/// reorderings) and `null` entries are dropped (so an elided optional
/// field hashes identically to an explicit `null`). Arrays keep their
/// order: element order is data (e.g. per-entity timing vectors).
fn canonical_value(v: &Value) -> Value {
    match v {
        Value::Obj(entries) => {
            let mut entries: Vec<(String, Value)> = entries
                .iter()
                .filter(|(_, v)| !matches!(v, Value::Null))
                .map(|(k, v)| (k.clone(), canonical_value(v)))
                .collect();
            entries.sort_by(|(a, _), (b, _)| a.cmp(b));
            Value::Obj(entries)
        }
        Value::Arr(items) => Value::Arr(items.iter().map(canonical_value).collect()),
        other => other.clone(),
    }
}

/// The concrete (non-meta) backends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Concrete {
    Analytic,
    Symbolic,
    Compositional,
}

impl Concrete {
    fn name(self) -> &'static str {
        match self {
            Concrete::Analytic => "analytic",
            Concrete::Symbolic => "symbolic",
            Concrete::Compositional => "compositional",
        }
    }
}

impl VerificationRequest {
    /// Starts a request against a named registry scenario (leased arm,
    /// [`Query::PteSafety`], [`BackendSel::Auto`], default budget).
    pub fn scenario(name: impl Into<String>) -> VerificationRequest {
        VerificationRequest {
            scenario: Some(name.into()),
            config: None,
            leased: true,
            query: Query::PteSafety,
            backend: BackendSel::Auto,
            budget: Budget::default(),
            parent_key: None,
            contract: None,
        }
    }

    /// Starts a request against an inline [`LeaseConfig`] (leased arm,
    /// [`Query::PteSafety`], [`BackendSel::Auto`], default budget).
    pub fn config(cfg: LeaseConfig) -> VerificationRequest {
        VerificationRequest {
            scenario: None,
            config: Some(cfg),
            leased: true,
            query: Query::PteSafety,
            backend: BackendSel::Auto,
            budget: Budget::default(),
            parent_key: None,
            contract: None,
        }
    }

    /// Selects the arm: `true` = leased, `false` = baseline.
    pub fn leased(mut self, leased: bool) -> Self {
        self.leased = leased;
        self
    }

    /// Sets the property to check.
    pub fn query(mut self, query: Query) -> Self {
        self.query = query;
        self
    }

    /// Sets the backend selection.
    pub fn backend(mut self, backend: BackendSel) -> Self {
        self.backend = backend;
        self
    }

    /// Replaces the whole budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the symbolic state budget.
    pub fn max_states(mut self, max_states: usize) -> Self {
        self.budget.max_states = Some(max_states);
        self
    }

    /// Sets the symbolic worker count (`0` = one per CPU).
    pub fn workers(mut self, workers: usize) -> Self {
        self.budget.max_workers = Some(workers);
        self
    }

    /// Sets the wall-clock budget in milliseconds (see
    /// [`Budget::max_wall_ms`] for which backends honour it).
    pub fn max_wall_ms(mut self, ms: u64) -> Self {
        self.budget.max_wall_ms = Some(ms);
        self
    }

    /// Enables or disables warm-starting (see [`Budget::warm_start`]).
    pub fn warm_start(mut self, on: bool) -> Self {
        self.budget.warm_start = Some(on);
        self
    }

    /// Names the prior request (by cache key) whose passed-list
    /// artifact this run should warm-start from (see
    /// [`VerificationRequest::parent_key`]).
    pub fn warm_from(mut self, key: impl Into<String>) -> Self {
        self.parent_key = Some(key.into());
        self
    }

    /// Sets the compositional environment-contract profile (see
    /// [`VerificationRequest::contract`]).
    pub fn contract(mut self, profile: impl Into<String>) -> Self {
        self.contract = Some(profile.into());
        self
    }

    /// Sets the compositional refinement state-pair budget (see
    /// [`Budget::refine_pairs`]).
    pub fn refine_pairs(mut self, pairs: usize) -> Self {
        self.budget.refine_pairs = Some(pairs);
        self
    }

    /// Runs the request to completion.
    pub fn run(&self) -> Result<VerificationReport, ApiError> {
        self.run_with(&CancelToken::new(), None)
    }

    /// [`VerificationRequest::run`] with cooperative cancellation and
    /// streaming progress: firing `cancel` stops the symbolic engine
    /// within one BFS layer and yields `Inconclusive(Cancelled)`;
    /// `progress` receives the symbolic engine's round-boundary
    /// snapshots, labelled by backend name.
    pub fn run_with(
        &self,
        cancel: &CancelToken,
        progress: Option<ProgressSink>,
    ) -> Result<VerificationReport, ApiError> {
        self.run_with_artifacts(cancel, progress, None, &ArtifactIo::default())
    }

    /// [`VerificationRequest::run_with`] for schedulers — like
    /// `pte-verifyd` — that admit requests through a **shared** worker
    /// budget and thread passed-list artifacts between runs.
    ///
    /// * `slots` caps the symbolic worker pool (clamped to ≥ 1) so N
    ///   concurrent requests cannot oversubscribe the machine:
    ///   `max_workers = 0` resolves to `slots` instead of one-per-CPU,
    ///   and an explicit worker count is clamped to it. `None` means
    ///   uncapped. Verdicts and witnesses are unaffected — the engine
    ///   is worker-count-deterministic — only the degree of parallelism
    ///   is.
    /// * `io.warm` seeds the symbolic engine from a prior run's proof
    ///   (subject to the engine's soundness gates — an inadmissible
    ///   artifact silently runs cold), and `io.capture` receives this
    ///   run's artifact for persistence. Only the symbolic engine
    ///   consumes either side.
    pub fn run_with_artifacts(
        &self,
        cancel: &CancelToken,
        progress: Option<ProgressSink>,
        slots: Option<usize>,
        io: &ArtifactIo,
    ) -> Result<VerificationReport, ApiError> {
        let cap = slots.map(|s| s.max(1));
        let (cfg, scenario_name, recommended) = self.resolve()?;
        self.resolved_profile()?;
        let started = Instant::now();
        let arm = Arm {
            cfg,
            leased: self.leased,
            lowered: OnceCell::new(),
        };
        let mut backends = Vec::new();
        for &backend in self.members() {
            let stats = self.run_one(
                backend,
                &arm,
                recommended,
                cancel,
                progress.as_ref(),
                cap,
                io,
            );
            let conclusive = stats.verdict.is_conclusive();
            backends.push(stats);
            if conclusive {
                break;
            }
        }
        let last = backends.last().expect("every selection runs a backend");
        Ok(VerificationReport {
            scenario: scenario_name,
            leased: self.leased,
            verdict: last.verdict.clone(),
            witness: last.witness.clone(),
            winner: last.verdict.is_conclusive().then(|| last.backend.clone()),
            tripped: last.tripped.clone(),
            compositional: last.compositional.clone(),
            analysis: arm.analysis(),
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            backends,
        })
    }

    /// Resolves the scenario-or-config pair into a configuration, the
    /// echoed scenario name, and the registry's recommended budget.
    fn resolve(&self) -> Result<(LeaseConfig, Option<String>, Option<usize>), ApiError> {
        match (&self.scenario, &self.config) {
            (Some(name), None) => {
                let s = registry::by_name(name).ok_or_else(|| ApiError::UnknownScenario {
                    name: name.clone(),
                    listing: registry::listing(),
                })?;
                Ok((s.config, Some(s.name), Some(s.recommended_budget)))
            }
            (None, Some(cfg)) => Ok((cfg.clone(), None, None)),
            (None, None) => Err(ApiError::NoSystem),
            (Some(_), Some(_)) => Err(ApiError::AmbiguousSystem),
        }
    }

    /// The concrete backends this request may run, in run order.
    fn members(&self) -> &'static [Concrete] {
        match self.backend {
            BackendSel::Analytic => &[Concrete::Analytic],
            BackendSel::Symbolic => &[Concrete::Symbolic],
            // Explicit-only: its fallback already *is* the monolithic
            // symbolic engine.
            BackendSel::Compositional => &[Concrete::Compositional],
            BackendSel::Auto => match self.query {
                Query::PteSafety => &[Concrete::Analytic, Concrete::Symbolic],
                Query::LocationReach { .. } => &[Concrete::Symbolic],
                Query::ConditionCheck => &[Concrete::Analytic],
            },
        }
    }

    /// The effective symbolic worker count: an explicit
    /// [`Budget::max_workers`] wins; otherwise `Auto` defaults to `0`
    /// (one worker per CPU) and the explicit backends to the engine's
    /// reproducible default of `1`. Public so schedulers can account
    /// for a request before running it (`0` means "as wide as allowed"
    /// — see [`VerificationRequest::worker_cost`] for the
    /// machine-resolved slot count).
    pub fn resolved_workers(&self) -> usize {
        self.budget.max_workers.unwrap_or(match self.backend {
            BackendSel::Auto => 0,
            _ => 1,
        })
    }

    /// The number of worker slots this request occupies on *this*
    /// machine when run uncapped — what a shared-budget scheduler
    /// should reserve before calling
    /// [`VerificationRequest::run_with_artifacts`] with the grant. A
    /// request that runs only the analytic check is one slot; one that
    /// may run a zone search costs its resolved worker count (`0` →
    /// one per CPU).
    pub fn worker_cost(&self) -> usize {
        if self.members() == [Concrete::Analytic] {
            return 1;
        }
        match self.resolved_workers() {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
            w => w,
        }
    }

    /// The canonical report-cache key of this request: a 16-hex-digit
    /// FNV-1a digest of the **resolved, normalized** request —
    /// `(CACHE_KEY_VERSION, resolved LeaseConfig, leased arm, query,
    /// backend selection, normalized budget)` — so two requests that
    /// run the same search hash identically no matter how they were
    /// spelled:
    ///
    /// * field order never matters (object keys are sorted before
    ///   hashing, and `null`/elided optional fields are dropped);
    /// * a registry-scenario request and the equivalent inline-config
    ///   request collide (the scenario resolves to its config, and its
    ///   recommended state budget is folded into the normalized
    ///   budget);
    /// * unset budget fields hash as their resolved defaults (the
    ///   engine's default state budget, the backend policy's worker
    ///   default, the refinement checker's pair budget).
    ///
    /// **Stability caveats.** The digest is pinned by unit tests and
    /// stable across processes and machines *for one schema version*:
    /// it hashes the serde encoding of the request, so renaming or
    /// reordering-with-different-names a field, changing a float's
    /// shortest-round-trip `Display`, or changing budget defaults all
    /// change digests — bump [`CACHE_KEY_VERSION`] when they do. It is
    /// **not** collision-resistant against adversaries (FNV-1a); use it
    /// for caching, not authentication. `max_workers` is part of the
    /// key out of conservatism even though verdicts are
    /// worker-count-deterministic, so differently-parallel runs never
    /// share a (timing-bearing) cached report.
    ///
    /// Fails like [`VerificationRequest::run`] does when the request
    /// names no system, two systems, or an unknown scenario.
    pub fn cache_key(&self) -> Result<String, ApiError> {
        let (cfg, _, recommended) = self.resolve()?;
        let profile = self.resolved_profile()?;
        let num = |u: u64| Value::Num(Number::U(u));
        let mut budget = vec![
            (
                "max_states".to_string(),
                num(self
                    .budget
                    .max_states
                    .or(recommended)
                    .unwrap_or(Limits::default().max_states) as u64),
            ),
            (
                "max_workers".to_string(),
                num(self.resolved_workers() as u64),
            ),
            (
                "refine_pairs".to_string(),
                num(self
                    .budget
                    .refine_pairs
                    .unwrap_or(RefineLimits::default().max_pairs) as u64),
            ),
        ];
        if let Some(wall) = self.budget.max_wall_ms {
            budget.push(("max_wall_ms".to_string(), num(wall)));
        }
        if let Some(warm) = self.budget.warm_start {
            budget.push(("warm_start".to_string(), Value::Bool(warm)));
        }
        // The parent key separates a warm re-verification from a cold
        // run of the same request: their verdicts agree but their stats
        // (states, wall time, warm_seeded) do not, so they must never
        // share a cached report. `Value::Null` for the common unset
        // case is dropped by canonicalization, pinning pre-warm-start
        // digests.
        let parent = match &self.parent_key {
            Some(k) => Value::Str(k.clone()),
            None => Value::Null,
        };
        let tuple = Value::Obj(vec![
            ("v".to_string(), num(CACHE_KEY_VERSION)),
            ("config".to_string(), cfg.to_value()),
            ("leased".to_string(), Value::Bool(self.leased)),
            ("query".to_string(), self.query.to_value()),
            ("backend".to_string(), self.backend.to_value()),
            ("budget".to_string(), Value::Obj(budget)),
            ("parent".to_string(), parent),
            // Resolved, not raw: an elided `contract` and an explicit
            // `"top"` name the same run, so they share a cached report.
            (
                "contract".to_string(),
                Value::Str(profile.name().to_string()),
            ),
        ]);
        let json = serde_json::to_string(&canonical_value(&tuple))
            .expect("canonical request value serializes");
        Ok(format!("{:016x}", fnv1a64(json.as_bytes())))
    }

    /// Builds the symbolic engine limits for this request. `cap` is the
    /// scheduler grant from [`VerificationRequest::run_with_artifacts`]:
    /// it resolves an auto (`0`) worker count and clamps an explicit
    /// one.
    fn limits(
        &self,
        recommended: Option<usize>,
        cancel: CancelToken,
        progress: Option<ProgressFn>,
        cap: Option<usize>,
        io: &ArtifactIo,
    ) -> Limits {
        let workers = match (self.resolved_workers(), cap) {
            (w, None) => w,
            (0, Some(c)) => c,
            (w, Some(c)) => w.min(c),
        };
        Limits {
            max_states: self
                .budget
                .max_states
                .or(recommended)
                .unwrap_or(Limits::default().max_states),
            max_workers: workers,
            max_wall: self.budget.max_wall_ms.map(Duration::from_millis),
            cancel: Some(cancel),
            progress,
            warm_start: if self.budget.warm_start.unwrap_or(true) {
                io.warm.clone()
            } else {
                None
            },
            capture: io.capture.clone(),
            ..Limits::default()
        }
    }

    /// The environment-contract profile with its default applied
    /// (`"top"`), or [`ApiError::UnknownContract`] for an
    /// unrecognized name — validated for *every* request (not only
    /// compositional ones) so a typo surfaces immediately instead of
    /// silently riding along unused.
    fn resolved_profile(&self) -> Result<EnvProfile, ApiError> {
        match &self.contract {
            None => Ok(EnvProfile::default()),
            Some(name) => {
                EnvProfile::parse(name).map_err(|name| ApiError::UnknownContract { name })
            }
        }
    }

    /// Runs one concrete backend to completion (or cancellation).
    #[allow(clippy::too_many_arguments)]
    fn run_one(
        &self,
        backend: Concrete,
        arm: &Arm,
        recommended: Option<usize>,
        cancel: &CancelToken,
        progress: Option<&ProgressSink>,
        cap: Option<usize>,
        io: &ArtifactIo,
    ) -> BackendStats {
        let labelled: Option<ProgressFn> = progress.map(|sink| {
            let sink = sink.clone();
            let name = backend.name();
            Arc::new(move |p: &Progress| sink(name, p)) as ProgressFn
        });
        match backend {
            Concrete::Analytic => self.run_analytic(&arm.cfg),
            Concrete::Symbolic => self.run_symbolic(arm, recommended, cancel, labelled, cap, io),
            Concrete::Compositional => {
                self.run_compositional(arm, recommended, cancel, labelled, cap, io)
            }
        }
    }

    /// The analytic backend: microsecond-fast, conservative (see the
    /// module docs).
    fn run_analytic(&self, cfg: &LeaseConfig) -> BackendStats {
        let t = Instant::now();
        let mut stats = BackendStats {
            backend: "analytic".into(),
            ..BackendStats::default()
        };
        match &self.query {
            Query::LocationReach { .. } => {
                stats.verdict = Verdict::Inconclusive(Inconclusive::Unsupported(
                    "the analytic backend checks c1–c7 only".into(),
                ));
                stats.rendered = "unsupported query".into();
            }
            Query::PteSafety | Query::ConditionCheck => {
                let report = check_conditions(cfg);
                let satisfied = report.is_satisfied();
                stats.rendered = format!("{report}");
                stats.verdict = match (&self.query, satisfied, self.leased) {
                    (Query::ConditionCheck, true, _) => Verdict::Safe,
                    (Query::PteSafety, true, true) => Verdict::Safe,
                    (Query::PteSafety, true, false) => Verdict::Inconclusive(
                        Inconclusive::Unknown("Theorem 1 covers the leased arm only".into()),
                    ),
                    _ => Verdict::Inconclusive(Inconclusive::Unknown(
                        "c1–c7 violated; the analytic check is sufficient, not necessary".into(),
                    )),
                };
            }
        }
        stats.wall_ms = t.elapsed().as_secs_f64() * 1e3;
        stats
    }

    /// The symbolic backend: [`Query::PteSafety`] through
    /// [`LoweredPattern::check`],
    /// [`Query::LocationReach`] through a composed
    /// [`LocationReachMonitor`].
    fn run_symbolic(
        &self,
        arm: &Arm,
        recommended: Option<usize>,
        cancel: &CancelToken,
        progress: Option<ProgressFn>,
        cap: Option<usize>,
        io: &ArtifactIo,
    ) -> BackendStats {
        let t = Instant::now();
        let limits = self.limits(recommended, cancel.clone(), progress, cap, io);
        let mut stats = BackendStats {
            backend: "symbolic".into(),
            ..BackendStats::default()
        };
        let outcome: Result<SymbolicVerdict, String> = match &self.query {
            Query::PteSafety => arm.check(&limits),
            Query::LocationReach { targets } => symbolic_location_reach(arm, targets, &limits),
            Query::ConditionCheck => {
                stats.verdict = Verdict::Inconclusive(Inconclusive::Unsupported(
                    "the symbolic backend does not evaluate c1–c7".into(),
                ));
                stats.rendered = "unsupported query".into();
                stats.wall_ms = t.elapsed().as_secs_f64() * 1e3;
                return stats;
            }
        };
        record_symbolic(&mut stats, outcome);
        stats.wall_ms = t.elapsed().as_secs_f64() * 1e3;
        stats
    }

    /// The compositional assume-guarantee backend
    /// ([`pte_contracts::check_compositional`]): `N` contract
    /// refinement checks plus `N−1` abstract pair checks. A closed
    /// argument yields a proof-grade `Safe`; any gap (failed
    /// refinement, abstract violation, tripped pair budget) falls back
    /// to the monolithic symbolic engine *under the same limits*, and
    /// the verdict is then the monolithic one verbatim — the
    /// compositional route can be slower than monolithic on a bad day,
    /// but never wrong.
    fn run_compositional(
        &self,
        arm: &Arm,
        recommended: Option<usize>,
        cancel: &CancelToken,
        progress: Option<ProgressFn>,
        cap: Option<usize>,
        io: &ArtifactIo,
    ) -> BackendStats {
        let t = Instant::now();
        let mut stats = BackendStats {
            backend: "compositional".into(),
            ..BackendStats::default()
        };
        if !matches!(self.query, Query::PteSafety) {
            stats.verdict = Verdict::Inconclusive(Inconclusive::Unsupported(format!(
                "the compositional backend checks PTE safety only, not {}",
                self.query.name()
            )));
            stats.rendered = "unsupported query".into();
            stats.wall_ms = t.elapsed().as_secs_f64() * 1e3;
            return stats;
        }
        let profile = self
            .resolved_profile()
            .expect("contract profile validated at dispatch");
        let limits = self.limits(recommended, cancel.clone(), progress, cap, io);
        let climits = CompositionalLimits {
            // Warm-start artifacts describe the *monolithic* zone graph
            // and must not leak into the abstract pair searches; the
            // fallback path below still gets them.
            search: Limits {
                warm_start: None,
                capture: None,
                ..limits.clone()
            },
            refine: RefineLimits {
                max_pairs: self
                    .budget
                    .refine_pairs
                    .unwrap_or(RefineLimits::default().max_pairs),
                workers: match limits.max_workers {
                    0 => std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1),
                    w => w,
                },
            },
        };
        match check_compositional(&arm.cfg, self.leased, profile, &climits) {
            Err(e) => {
                stats.rendered = format!("error: {e}");
                stats.error = Some(e.clone());
                stats.verdict = Verdict::Inconclusive(Inconclusive::Error(e));
            }
            Ok(out) => {
                stats.compositional = Some(out.stats.clone());
                match out.verdict {
                    CompositionalVerdict::Safe => {
                        let s = &out.stats;
                        stats.states = s.abstract_states;
                        stats.transitions = s.abstract_transitions;
                        stats.rendered = format!(
                            "SAFE (compositional, profile {}): {} device contracts hold \
                             ({} refined, {} deduplicated, {} cached; {} refinement pairs) \
                             and all {} abstract pair networks are safe \
                             ({} abstract states)",
                            profile.name(),
                            s.contracts_total,
                            s.contracts_checked,
                            s.contracts_deduped,
                            s.contracts_cached,
                            s.refine_pairs,
                            s.pair_networks,
                            s.abstract_states,
                        );
                        stats.verdict = Verdict::Safe;
                    }
                    CompositionalVerdict::Fallback {
                        reason,
                        counter_example,
                    } => {
                        // Soundness by construction: the compositional
                        // argument did not close, so the verdict comes
                        // from the monolithic engine under the same
                        // limits. The fallback reason (and refinement
                        // counter-example, if any) is preserved in the
                        // rendered text.
                        stats.rendered =
                            format!("compositional argument fell back to monolithic: {reason}\n");
                        if let Some(ce) = &counter_example {
                            stats.rendered.push_str(ce);
                            stats.rendered.push('\n');
                        }
                        record_symbolic(&mut stats, arm.check(&limits));
                    }
                }
            }
        }
        stats.wall_ms = t.elapsed().as_secs_f64() * 1e3;
        stats
    }
}

/// Records a symbolic engine outcome in `stats`: its rendered verdict
/// (appended to whatever `stats.rendered` already holds, so the
/// compositional fallback keeps its prefix), the search counters, the
/// witness, the tripped limit and cancellation.
fn record_symbolic(stats: &mut BackendStats, outcome: Result<SymbolicVerdict, String>) {
    let verdict = match outcome {
        Ok(verdict) => verdict,
        Err(e) => {
            stats.rendered.push_str(&format!("error: {e}"));
            stats.error = Some(e.clone());
            stats.verdict = Verdict::Inconclusive(Inconclusive::Error(e));
            return;
        }
    };
    stats.rendered.push_str(&format!("{verdict}"));
    if let Some(s) = verdict.stats() {
        stats.states = s.states;
        stats.transitions = s.transitions;
        stats.frontier = s.frontier;
        stats.peak_passed_bytes = s.peak_passed_bytes;
        stats.peak_passed_bytes_full = s.peak_passed_bytes_full;
        stats.warm_seeded = s.warm_seeded;
    }
    stats.verdict = match verdict {
        SymbolicVerdict::Safe(_) => Verdict::Safe,
        SymbolicVerdict::Unsafe(ce) => {
            stats.witness = Some(format!("{ce}"));
            Verdict::Unsafe
        }
        SymbolicVerdict::OutOfBudget { tripped, .. } => {
            stats.tripped = Some(tripped.to_string());
            if tripped == TrippedLimit::Cancelled {
                stats.cancelled = true;
                Verdict::Inconclusive(Inconclusive::Cancelled)
            } else {
                Verdict::Inconclusive(Inconclusive::Budget(tripped.to_string()))
            }
        }
    };
}

/// Location reachability through the symbolic engine: compose a
/// [`LocationReachMonitor`] with the arm's network, explore.
fn symbolic_location_reach(
    arm: &Arm,
    targets: &[(String, String)],
    limits: &Limits,
) -> Result<SymbolicVerdict, String> {
    let net = &arm.lowered()?.net;
    let queries: Vec<(&str, &str)> = targets
        .iter()
        .map(|(a, l)| (a.as_str(), l.as_str()))
        .collect();
    let monitor = LocationReachMonitor::new(net, &queries)?;
    check_monitored(net, &monitor, limits)
}

/// The system a request checks: its configuration, and that arm built,
/// lowered and analyzed on first use. Only a monolithic zone search
/// reads the lowered network, so a request the analytic check decides
/// never builds it; every zone search of the request and its report's
/// analysis summary read the same [`LoweredPattern`].
struct Arm {
    cfg: LeaseConfig,
    leased: bool,
    lowered: OnceCell<Result<LoweredPattern, ZonesError>>,
}

impl Arm {
    /// This arm built, lowered and analyzed, on the first call.
    fn lowered(&self) -> Result<&LoweredPattern, String> {
        self.lowered
            .get_or_init(|| LoweredPattern::new(&self.cfg, self.leased))
            .as_ref()
            .map_err(ZonesError::to_string)
    }

    /// The PTE check of this arm on the symbolic engine.
    fn check(&self, limits: &Limits) -> Result<SymbolicVerdict, String> {
        self.lowered()?.check(limits).map_err(|e| e.to_string())
    }

    /// The analysis summary of this arm, when a zone search lowered it.
    fn analysis(&self) -> Option<AnalysisSummary> {
        let lowered = self.lowered.get()?.as_ref().ok()?;
        Some(AnalysisSummary::from(&lowered.analysis))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_defaults_to_auto_workers() {
        let base = VerificationRequest::scenario("case-study");
        assert_eq!(base.clone().backend(BackendSel::Auto).resolved_workers(), 0);
        assert_eq!(
            base.clone()
                .backend(BackendSel::Symbolic)
                .resolved_workers(),
            1
        );
        // An explicit worker count always wins over the defaults.
        assert_eq!(
            base.backend(BackendSel::Auto).workers(3).resolved_workers(),
            3
        );
    }

    #[test]
    fn scenario_budget_defaults_to_registry_recommendation() {
        let req = VerificationRequest::scenario("chain-4").backend(BackendSel::Symbolic);
        let (_, name, recommended) = req.resolve().unwrap();
        assert_eq!(name.as_deref(), Some("chain-4"));
        let limits = req.limits(
            recommended,
            CancelToken::new(),
            None,
            None,
            &ArtifactIo::default(),
        );
        assert_eq!(
            limits.max_states,
            registry::by_name("chain-4").unwrap().recommended_budget
        );
        // An explicit budget wins.
        let req = req.max_states(123);
        assert_eq!(
            req.limits(
                recommended,
                CancelToken::new(),
                None,
                None,
                &ArtifactIo::default()
            )
            .max_states,
            123
        );
    }

    /// A scheduler cap resolves auto workers to the grant and clamps an
    /// explicit worker count; without a cap nothing changes.
    #[test]
    fn slot_cap_resolves_and_clamps_workers() {
        let auto = VerificationRequest::scenario("case-study").backend(BackendSel::Auto);
        assert_eq!(
            auto.limits(None, CancelToken::new(), None, None, &ArtifactIo::default())
                .max_workers,
            0
        );
        assert_eq!(
            auto.limits(
                None,
                CancelToken::new(),
                None,
                Some(3),
                &ArtifactIo::default()
            )
            .max_workers,
            3
        );
        let explicit = VerificationRequest::scenario("case-study")
            .backend(BackendSel::Symbolic)
            .workers(8);
        assert_eq!(
            explicit
                .limits(
                    None,
                    CancelToken::new(),
                    None,
                    Some(2),
                    &ArtifactIo::default()
                )
                .max_workers,
            2
        );
        assert_eq!(
            explicit
                .limits(
                    None,
                    CancelToken::new(),
                    None,
                    Some(16),
                    &ArtifactIo::default()
                )
                .max_workers,
            8
        );
    }

    /// Worker-cost accounting: an analytic-only request is one slot, an
    /// explicit symbolic worker count is itself, and an `Auto` request
    /// that may reach the zone engine scales with the machine.
    #[test]
    fn worker_cost_accounts_for_backend_shape() {
        let ap = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2);
        let base = VerificationRequest::scenario("case-study");
        assert_eq!(base.clone().backend(BackendSel::Analytic).worker_cost(), 1);
        assert_eq!(
            base.clone()
                .backend(BackendSel::Symbolic)
                .workers(3)
                .worker_cost(),
            3
        );
        assert_eq!(base.clone().backend(BackendSel::Auto).worker_cost(), ap);
        assert_eq!(
            base.backend(BackendSel::Auto)
                .query(Query::ConditionCheck)
                .worker_cost(),
            1
        );
    }

    /// The canonical cache key is invariant across request *spellings*:
    /// scenario-vs-inline-config, elided-vs-explicit defaults, and wire
    /// JSON field order all hash identically, while every semantic
    /// field separates the digest.
    #[test]
    fn cache_key_is_canonical() {
        let by_name = VerificationRequest::scenario("case-study").backend(BackendSel::Symbolic);
        let key = by_name.cache_key().unwrap();

        // Scenario and the equivalent inline config collide — the
        // scenario's recommended budget is folded into the key.
        let by_config = VerificationRequest::config(LeaseConfig::case_study())
            .backend(BackendSel::Symbolic)
            .max_states(registry::by_name("case-study").unwrap().recommended_budget);
        assert_eq!(by_config.cache_key().unwrap(), key);

        // Spelling the resolved defaults explicitly changes nothing.
        let explicit = by_name
            .clone()
            .workers(1)
            .contract("top")
            .refine_pairs(RefineLimits::default().max_pairs);
        assert_eq!(explicit.cache_key().unwrap(), key);

        // Wire JSON field order is irrelevant: a reordered request
        // parses to the same key.
        let json = serde_json::to_string(&by_name).unwrap();
        let reordered: VerificationRequest = serde_json::from_str(
            r#"{"budget":{},"backend":"Symbolic","query":"PteSafety","leased":true,"scenario":"case-study"}"#,
        )
        .unwrap();
        assert_eq!(reordered.cache_key().unwrap(), key, "original: {json}");

        // Every semantic field separates digests.
        for other in [
            by_name.clone().leased(false),
            by_name.clone().backend(BackendSel::Auto),
            by_name.clone().query(Query::ConditionCheck),
            by_name.clone().max_states(99),
            by_name.clone().workers(2),
            by_name.clone().max_wall_ms(1000),
            by_name.clone().warm_start(true),
            by_name.clone().warm_start(false),
            by_name.clone().warm_from("024ff959927ea2b6"),
            by_name.clone().backend(BackendSel::Compositional),
            by_name.clone().contract("lease-client"),
            by_name.clone().refine_pairs(17),
        ] {
            assert_ne!(other.cache_key().unwrap(), key, "{other:?}");
        }
        // Two different parents separate too — a warm chain never
        // aliases across ancestors.
        assert_ne!(
            by_name.clone().warm_from("a").cache_key().unwrap(),
            by_name.clone().warm_from("b").cache_key().unwrap()
        );
        // Unknown scenarios fail like `run` does.
        assert!(matches!(
            VerificationRequest::scenario("no-such").cache_key(),
            Err(ApiError::UnknownScenario { .. })
        ));
    }

    /// Pins the digests themselves: a silent change to the canonical
    /// encoding (field sorting, null dropping, float rendering, budget
    /// normalization, FNV seed) is a cache-compatibility break and must
    /// show up here — bump [`CACHE_KEY_VERSION`] when one is intended.
    #[test]
    fn cache_key_digests_are_pinned() {
        let case = VerificationRequest::scenario("case-study").backend(BackendSel::Symbolic);
        let baseline = case.clone().leased(false);
        let chain = VerificationRequest::scenario("chain-3");
        insta_eq(case.cache_key().unwrap(), "891f93ed374637fb");
        insta_eq(baseline.cache_key().unwrap(), "ac22af43d0de3d70");
        insta_eq(chain.cache_key().unwrap(), "a701fed7e30c9412");
    }

    /// Tiny pinned-value helper so the expected digests live in one
    /// visually-diffable place.
    fn insta_eq(actual: String, expected: &str) {
        assert_eq!(actual, expected);
    }

    #[test]
    fn request_validation_errors() {
        let unknown = VerificationRequest::scenario("no-such").run();
        let Err(ApiError::UnknownScenario { name, listing }) = unknown else {
            panic!("unknown scenario must fail: {unknown:?}");
        };
        assert_eq!(name, "no-such");
        assert!(listing.contains("case-study"));

        let mut none = VerificationRequest::scenario("case-study");
        none.scenario = None;
        assert_eq!(none.run().unwrap_err(), ApiError::NoSystem);

        let mut both = VerificationRequest::scenario("case-study");
        both.config = Some(LeaseConfig::case_study());
        assert_eq!(both.run().unwrap_err(), ApiError::AmbiguousSystem);

        // Unknown contract profiles fail every entry point — `run`,
        // `cache_key` — with a did-you-mean diagnostic, exactly like
        // unknown scenarios do.
        let typo = VerificationRequest::scenario("case-study")
            .backend(BackendSel::Compositional)
            .contract("leese-client");
        let err = typo.run().unwrap_err();
        assert_eq!(
            err,
            ApiError::UnknownContract {
                name: "leese-client".into()
            }
        );
        assert!(
            err.to_string().contains("did you mean `lease-client`?"),
            "{err}"
        );
        assert!(err.to_string().contains("top"), "{err}");
        assert!(matches!(
            typo.cache_key(),
            Err(ApiError::UnknownContract { .. })
        ));
        // A distant name gets the listing but no suggestion.
        let err = VerificationRequest::scenario("case-study")
            .contract("zzzzzz")
            .run()
            .unwrap_err();
        assert!(!err.to_string().contains("did you mean"), "{err}");
    }

    #[test]
    fn auto_members_follow_the_query() {
        let auto = VerificationRequest::scenario("case-study").backend(BackendSel::Auto);
        assert_eq!(auto.members(), [Concrete::Analytic, Concrete::Symbolic]);
        let reach = auto.clone().query(Query::LocationReach { targets: vec![] });
        assert_eq!(reach.members(), [Concrete::Symbolic]);
        assert_eq!(
            auto.query(Query::ConditionCheck).members(),
            [Concrete::Analytic]
        );
        // Explicit selections run exactly their backend.
        let symbolic = VerificationRequest::scenario("case-study").backend(BackendSel::Symbolic);
        assert_eq!(symbolic.members(), [Concrete::Symbolic]);
    }

    #[test]
    fn analytic_condition_check_is_arm_independent() {
        for leased in [true, false] {
            let report = VerificationRequest::config(LeaseConfig::case_study())
                .leased(leased)
                .query(Query::ConditionCheck)
                .backend(BackendSel::Analytic)
                .run()
                .unwrap();
            assert_eq!(report.verdict, Verdict::Safe, "leased={leased}");
            assert_eq!(report.winner.as_deref(), Some("analytic"));
        }
        // On PteSafety the same backend only concludes for the leased arm.
        let baseline = VerificationRequest::config(LeaseConfig::case_study())
            .leased(false)
            .backend(BackendSel::Analytic)
            .run()
            .unwrap();
        assert!(!baseline.verdict.is_conclusive(), "{:?}", baseline.verdict);
    }

    #[test]
    fn verdict_status_vocabulary() {
        assert_eq!(Verdict::Safe.status(), "safe");
        assert_eq!(Verdict::Unsafe.status(), "unsafe");
        assert_eq!(
            Verdict::Inconclusive(Inconclusive::Error("x".into())).status(),
            "error"
        );
        assert_eq!(
            Verdict::Inconclusive(Inconclusive::Cancelled).status(),
            "inconclusive"
        );
        assert_eq!(
            Verdict::Inconclusive(Inconclusive::Budget("b".into())).status(),
            "inconclusive"
        );
    }
}
