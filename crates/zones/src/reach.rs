//! Zone-graph reachability of a [`TaNetwork`] composed with a safety
//! [`Monitor`] — parallel, sharded, and deterministic.
//!
//! A state of the product is a location vector plus the monitor's
//! observer state plus a zone (DBM) over every clock, network clocks
//! first and observer clocks above them. The passed/waiting-list
//! algorithm with zone inclusion and extrapolation (`Extra_M` or the
//! coarser `Extra⁺_LU`, [`Limits::extrapolation`]) terminates and covers
//! every drop/deliver assignment of every wireless emission and every
//! real-valued timing — the dense-time completion of `pte-verify`'s
//! bounded `2^k` exhaustive exploration.
//!
//! This module is the search only. The successors of one state (edge
//! firing, the emission cascade and its fates, urgent escapes, delay,
//! dead-clock frees, extrapolation and the monitor's checks) come from
//! the one successor function of the crate-private `semantics` module,
//! which every expansion here calls: the seed round, each frontier
//! entry and so the least-path round. The property is not part of the
//! engine either: it is a [`Monitor`] (see [`crate::monitor`]) whose
//! constants are folded into the extrapolation bound sets, which keeps
//! the pre-extrapolation subsumption probe sound for any monitor.
//! [`check`] composes a [`PteMonitor`]; [`check_monitored`] takes any
//! monitor.
//!
//! ## Parallel sharding
//!
//! The passed list is sharded by a hash of the discrete part of the
//! state into [`SHARD_COUNT`] shards, each behind its own
//! `parking_lot::Mutex`. A zone can only subsume another zone with the
//! *same* discrete part, so subsumption is shard-local. Exploration
//! proceeds in BFS layers with two phases per round, run by a pool of
//! `crossbeam` scoped workers spawned once per check
//! ([`Limits::max_workers`]; thread spawning costs ≈1 ms on some
//! kernels — far more than a round):
//!
//! 1. **Expand** — workers claim frontier states from a shared cursor
//!    and stage each one's successors, probed against the passed list
//!    before extrapolation, in the pending list of their target shard;
//!    violations are collected worker-locally.
//! 2. **Admit** — workers claim whole shards from a second cursor. Each
//!    shard sorts its pending candidates into a *content-defined* order
//!    (discrete key, zone matrix, parent id, action codes), discards
//!    those an already-passed zone subsumes, and appends the survivors
//!    to its node arena and the next frontier. Nodes keep their zones
//!    in minimal constraint form ([`Dbm::reduce`], typically O(n)
//!    constraints instead of `(n+1)²`, measured in
//!    [`SearchStats::peak_passed_bytes`]), subsumption runs directly
//!    against that form ([`crate::dbm::MinimalDbm::includes`]), and
//!    keys are interned per shard ([`crate::intern::Interner`]).
//!
//! ## Determinism
//!
//! The verdict and the reported counter-example are identical for every
//! worker count:
//!
//! * the frontier of round `r + 1` is a pure function of the frontier of
//!   round `r` — phase 1 only reads shared state, and phase 2 admits
//!   each shard's candidates in the content-defined order above, so
//!   races can only reorder *work*, never results;
//! * the violations an entry yields are a pure function of the entry:
//!   expanding it reads only zones settled in earlier rounds, never
//!   what the round has staged so far;
//! * the engine reports the **lexicographically least violating trace**
//!   (by step list, then violation rank, then zone) of the *earliest*
//!   violating round — a content-defined choice, independent of which
//!   worker found what first;
//! * the least trace does not need the whole round. Every entry of
//!   round `r` has a path (the steps from the seed to it) of the same
//!   length, so a violation under a greater path has a greater step
//!   list. [`check`] with the static analysis on (the default) uses
//!   this on every falsification. Its masked search decides only the
//!   verdict: workers stop claiming entries at the first violation and
//!   nothing is rendered. The witness then comes from a rerun without
//!   the activity masks, which expands rounds `< r` in full and round
//!   `r` on the calling thread, in groups of equal paths, least path
//!   first, stopping after the first group that yields a violation;
//! * budget checks run at round boundaries only, so `OutOfBudget`
//!   verdicts trip at the same round for every worker count (the
//!   optional wall-clock limit is the one deliberately nondeterministic
//!   exception).
//!
//! The early probe drops candidates whose (non-monotone) `Extra⁺_LU`
//! widening a search that probes only after extrapolation would admit,
//! so settled-state counts are comparable only within one such choice.

use crate::analysis::{analyze, ActivityMasks, ModelAnalysis};
use crate::artifact::{
    atom_ticks, masks_digest, net_structure_digest, try_warm_start, ArtifactSink, PassedArtifact,
    PassedEntry,
};
use crate::dbm::{Dbm, DbmPool, MinimalDbm};
use crate::intern::Interner;
use crate::monitor::{Monitor, ObserverSpec, PteMonitor};
use crate::semantics::{Act, Key, LocalStats, Semantics, Successor, Violation, Yield};
use crate::ta::TaNetwork;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cooperative cancellation handle: a cheaply clonable flag the engine
/// polls at every BFS round boundary. Firing it turns the search into an
/// [`SymbolicVerdict::OutOfBudget`] with [`TrippedLimit::Cancelled`]
/// within one layer — a cancelled search never reports `Safe` or
/// `Unsafe`, so cancellation can only lose work, never soundness.
///
/// Clones share the flag: cancel any clone and every holder observes it.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Fires the token. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// `true` once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// One progress snapshot, emitted through [`Limits::progress`] at every
/// BFS round boundary. Observational only: the callback cannot
/// influence the verdict except by firing a [`CancelToken`].
#[derive(Clone, Copy, Debug)]
pub struct Progress {
    /// BFS round.
    pub round: usize,
    /// Settled symbolic states so far.
    pub settled: usize,
    /// Frontier states awaiting expansion.
    pub frontier: usize,
    /// Wall-clock time since the search started.
    pub elapsed: Duration,
}

/// Shared, thread-safe progress callback (the engine invokes it from
/// the coordinator thread only).
pub type ProgressFn = Arc<dyn Fn(&Progress) + Send + std::marker::Sync>;

/// A symbolic counter-example: an interleaving of discrete actions
/// (with explicit drop/deliver fates) whose zone contains at least one
/// violating real-valued timing.
#[derive(Clone, Debug)]
pub struct SymbolicCounterExample {
    /// Rendered description of the violated property (monitor-defined).
    pub violation: String,
    /// Content-defined violation rank ([`crate::MonitorViolation::rank`]) used
    /// for deterministic tie-breaking.
    pub rank: (u8, u32),
    /// Discrete actions from the initial state to the violation, one
    /// line per settled step.
    pub steps: Vec<String>,
    /// Rendered zone constraints at the violation point (ticks).
    pub zone: String,
}

impl fmt::Display for SymbolicCounterExample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "symbolic safety violation: {}", self.violation)?;
        for (i, s) in self.steps.iter().enumerate() {
            writeln!(f, "  {:>3}. {s}", i + 1)?;
        }
        write!(f, "  zone: {}", self.zone)
    }
}

/// Search statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchStats {
    /// Settled symbolic states stored.
    pub states: usize,
    /// Discrete transitions fired (including cascade branches).
    pub transitions: usize,
    /// Successor states subsumed by an already-passed zone.
    pub subsumed: usize,
    /// Stutters: firings of a silent self-loop (no guard, no resets, no
    /// receiver for its emissions) that the entry's own passed zone
    /// covers, counted without building the successor. Each is also one
    /// of [`SearchStats::transitions`] and, when the entry's zone meets
    /// the location invariants, one of [`SearchStats::subsumed`]: the
    /// counts the full expansion would have made.
    pub stutters: usize,
    /// Unexplored frontier states at the moment the search ended
    /// (always 0 for a completed search).
    pub frontier: usize,
    /// Peak heap bytes of passed-list zone storage in the minimal
    /// constraint form actually used ([`Dbm::reduce`]). The passed list
    /// only grows, so the value at the end of the search *is* the peak.
    pub peak_passed_bytes: usize,
    /// Heap bytes the same passed zones would occupy as full
    /// `(n+1)²` bound matrices — the PR 2 storage format. The ratio
    /// `peak_passed_bytes_full / peak_passed_bytes` is the measured
    /// compression factor (asserted ≥ 2× in `bench/benches/zones.rs`).
    pub peak_passed_bytes_full: usize,
    /// DBM clock dimensions the search explored: the network's clocks
    /// plus the monitor's observer clocks.
    pub dbm_clocks: usize,
    /// Passed-list entries admitted from a prior run's artifact
    /// ([`Limits::warm_start`]). Non-zero only when the warm-start
    /// gates all passed and the search was answered by proof transfer;
    /// `0` for every cold search.
    pub warm_seeded: usize,
}

/// Which exploration limit ended an inconclusive search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrippedLimit {
    /// [`Limits::max_states`] was exceeded (carries the limit value).
    MaxStates(usize),
    /// [`Limits::max_wall`] was exceeded (carries the budget).
    WallClock(Duration),
    /// [`Limits::cancel`] was fired mid-search (cooperative
    /// cancellation, e.g. a client's `Cancel` frame or a daemon
    /// drain).
    Cancelled,
}

impl fmt::Display for TrippedLimit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrippedLimit::MaxStates(n) => write!(f, "state budget (max_states = {n})"),
            TrippedLimit::WallClock(d) => {
                write!(f, "wall-clock budget ({:.3} s)", d.as_secs_f64())
            }
            TrippedLimit::Cancelled => write!(f, "cancellation token"),
        }
    }
}

/// Outcome of a symbolic reachability check.
#[derive(Clone, Debug)]
pub enum SymbolicVerdict {
    /// No PTE violation is reachable for any loss fate or timing.
    Safe(SearchStats),
    /// A violation is reachable; the witness explains how.
    Unsafe(Box<SymbolicCounterExample>),
    /// An exploration limit was exhausted before the search finished.
    OutOfBudget {
        /// Search statistics at the point of truncation, including the
        /// size of the unexplored frontier.
        stats: SearchStats,
        /// The limit that ended the search.
        tripped: TrippedLimit,
    },
}

impl SymbolicVerdict {
    /// `true` if the verdict proves safety.
    pub fn is_safe(&self) -> bool {
        matches!(self, SymbolicVerdict::Safe(_))
    }

    /// `true` if a violation was found.
    pub fn is_unsafe(&self) -> bool {
        matches!(self, SymbolicVerdict::Unsafe(_))
    }

    /// Search statistics, when the verdict carries them (`Safe` and
    /// `OutOfBudget`; a falsification stops at its witness).
    pub fn stats(&self) -> Option<&SearchStats> {
        match self {
            SymbolicVerdict::Safe(s) => Some(s),
            SymbolicVerdict::OutOfBudget { stats, .. } => Some(stats),
            SymbolicVerdict::Unsafe(_) => None,
        }
    }
}

impl fmt::Display for SymbolicVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymbolicVerdict::Safe(s) => write!(
                f,
                "violation-unreachable: safe over all timings and loss fates \
                 ({} states, {} transitions)",
                s.states, s.transitions
            ),
            SymbolicVerdict::Unsafe(ce) => write!(f, "{ce}"),
            SymbolicVerdict::OutOfBudget { stats, tripped } => write!(
                f,
                "inconclusive: {tripped} exhausted with {} settled states \
                 and {} frontier states unexplored",
                stats.states, stats.frontier
            ),
        }
    }
}

/// Extrapolation operator applied to every settled zone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Extrapolation {
    /// Classical maximal-constant `Extra_M` ([`Dbm::extrapolate`]).
    ExtraM,
    /// LU-bound `Extra⁺_LU` ([`Dbm::extrapolate_lu_plus`]) — strictly
    /// coarser than `Extra_M`, so the search settles no more (usually
    /// strictly fewer) states. The default.
    #[default]
    ExtraLu,
}

/// Exploration limits and engine knobs.
#[derive(Clone)]
pub struct Limits {
    /// Maximum number of settled symbolic states.
    pub max_states: usize,
    /// Worker threads for the parallel exploration; `1` (the library
    /// default) explores on the calling thread — fully reproducible
    /// single-core cost — while `0` means one worker per available CPU
    /// (what `pte_verify::api` resolves `Auto` requests to, so the
    /// front door is fast out of the box). The verdict is
    /// identical for every value.
    pub max_workers: usize,
    /// Optional wall-clock budget, checked at round boundaries. `None`
    /// (the default) never trips, keeping verdicts fully deterministic.
    pub max_wall: Option<Duration>,
    /// Extrapolation operator (see [`Extrapolation`]).
    pub extrapolation: Extrapolation,
    /// Optional cooperative cancellation token, polled at every BFS
    /// round boundary: once fired, the search returns
    /// [`SymbolicVerdict::OutOfBudget`] with [`TrippedLimit::Cancelled`]
    /// within one layer.
    pub cancel: Option<CancelToken>,
    /// Optional progress callback, invoked at every BFS round boundary
    /// with settled/frontier counts and elapsed wall time.
    pub progress: Option<ProgressFn>,
    /// Run the [static model analysis](crate::analysis) before the
    /// search ([`check`] only) and free the per-location dead clocks of
    /// its activity masks during exploration, exactly as the monitor
    /// already does for its observer clocks. On by default; the verdict
    /// and the counter-example text are identical either way. The
    /// masked search only decides a falsification's verdict, stopping
    /// at its first violation; the witness is re-derived by a search
    /// without masks, which runs the rounds before the violating one in
    /// full and that round least path first (see the module's
    /// "Determinism" section).
    pub reduce_clocks: bool,
    /// Ignored; nothing reads it. It once switched a device-permutation
    /// symmetry quotient, which could never engage on a PTE check: the
    /// PTE monitor watches every device, so no two devices are
    /// interchangeable. The field stays only because perfbench's rerun
    /// limits (`perfbench/src/run.rs`) still set it; the next benchmark
    /// change drops that line and then deletes this field.
    pub symmetry: bool,
    /// Optional prior-run artifact to warm-start from. The engine
    /// re-validates it against the new model (see
    /// [`crate::artifact`]'s module docs for the gates: identical
    /// lowered network including every timing constant, weaker-or-equal
    /// monitor, same clock count / extrapolation / activity masks, and
    /// every entry re-checked against the new monitor); on any failure
    /// it silently falls back to a cold search, so a warm start can
    /// never flip a verdict.
    pub warm_start: Option<Arc<PassedArtifact>>,
    /// Optional sink the engine fills with this search's own passed
    /// list when the verdict is `Safe` and the monitor supports
    /// artifacts ([`crate::Monitor::warm_profile`]). A warm-started
    /// search passes its *input* artifact through unchanged, so chained
    /// warm starts always compare against the original proof.
    pub capture: Option<ArtifactSink>,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_states: 200_000,
            max_workers: 1,
            max_wall: None,
            extrapolation: Extrapolation::default(),
            cancel: None,
            progress: None,
            reduce_clocks: true,
            symmetry: true,
            warm_start: None,
            capture: None,
        }
    }
}

impl fmt::Debug for Limits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Limits")
            .field("max_states", &self.max_states)
            .field("max_workers", &self.max_workers)
            .field("max_wall", &self.max_wall)
            .field("extrapolation", &self.extrapolation)
            .field("cancel", &self.cancel)
            .field("progress", &self.progress.as_ref().map(|_| "<callback>"))
            .field("reduce_clocks", &self.reduce_clocks)
            .field(
                "warm_start",
                &self
                    .warm_start
                    .as_ref()
                    .map(|a| format!("<{} entries>", a.entries.len())),
            )
            .field("capture", &self.capture.as_ref().map(|_| "<sink>"))
            .finish()
    }
}

impl Limits {
    /// Worker count after resolving `0` to the available parallelism.
    pub fn effective_workers(&self) -> usize {
        if self.max_workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.max_workers
        }
    }
}

/// Number of passed-list shards. A constant (rather than a function of
/// the worker count) so the shard assignment — and hence node numbering
/// — is identical across worker counts.
pub const SHARD_COUNT: usize = 64;

/// FNV-1a over the discrete part of a state: deterministic across runs,
/// platforms, and (unlike `std`'s `RandomState`) processes.
fn shard_of(key: &Key) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &l in &key.0 {
        h = (h ^ u64::from(l)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &p in &key.1 {
        h = (h ^ u64::from(p)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % SHARD_COUNT as u64) as usize
}

/// Global node address: shard index + index into the shard's arena.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct NodeId {
    shard: u32,
    idx: u32,
}

/// A settled node in a shard's arena. The discrete key lives in the
/// shard's interner; nodes carry the zone in **minimal constraint
/// form** (subsumption checks run directly against it) plus the
/// fixed-size data trace reconstruction needs.
struct Node {
    zone: MinimalDbm,
    parent: Option<NodeId>,
    acts: Box<[Act]>,
}

/// One shard of the passed list: discrete keys interned to dense ids,
/// per-key subsumption buckets over a node arena, the staging area
/// phase 1 fills and phase 2 drains, and the shard's share of the
/// passed-list memory accounting.
#[derive(Default)]
struct Shard {
    /// Key → dense id; each key is stored exactly once.
    keys: Interner<Key>,
    /// `buckets[key_id]` = node indices settled under that key.
    buckets: Vec<Vec<u32>>,
    nodes: Vec<Node>,
    pending: Vec<Candidate>,
    /// Heap bytes of stored zones in minimal constraint form.
    min_bytes: usize,
    /// Heap bytes the same zones would occupy as full matrices.
    full_bytes: usize,
}

/// A cooked [`Successor`] staged for phase 2's shard-local admission,
/// with the node it was expanded from. Carries the key *content* (not
/// an id) because admission order — and hence interning order — must be
/// content-defined.
struct Candidate {
    succ: Successor,
    parent: Option<NodeId>,
}

impl Candidate {
    /// Content-defined admission order: discrete key, zone matrix,
    /// parent id, action codes. Sorting pending candidates by this key
    /// makes phase 2 independent of phase-1 arrival order.
    fn order_key(&self) -> (&Key, &Dbm, Option<NodeId>, &[Act]) {
        let s = &self.succ;
        (&s.key, &s.zone, self.parent, &s.acts)
    }
}

/// A frontier entry: a settled node plus the clones phase 1 needs to
/// expand it without touching its home shard.
struct FrontierEntry {
    id: NodeId,
    key: Key,
    zone: Dbm,
}

/// What a search is for. Private: only [`check_analyzed`] asks for
/// anything but [`Goal::Witness`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Goal {
    /// The verdict and, for `Unsafe`, the least counter-example of the
    /// earliest violating round.
    Witness,
    /// The verdict only: once any worker meets a violation, no worker
    /// claims another frontier entry, nothing is rendered, and the
    /// search reports the violating round ([`Outcome::Violated`]).
    Verdict,
    /// [`Goal::Witness`], told that BFS round `r` holds the first
    /// violation. Earlier rounds run as usual; round `r` runs on the
    /// calling thread, least path first ([`Engine::expand_least_paths`]).
    /// A wrong hint costs time, never a different answer.
    WitnessAt(usize),
}

/// What a search ended with.
enum Outcome {
    /// A verdict; never `Unsafe` under [`Goal::Verdict`].
    Done(SymbolicVerdict),
    /// A [`Goal::Verdict`] search met a violation in this BFS round (0 is
    /// the seed round).
    Violated(usize),
}

impl Outcome {
    /// The verdict of a search that renders its witness.
    fn verdict(self) -> SymbolicVerdict {
        match self {
            Outcome::Done(v) => v,
            Outcome::Violated(_) => unreachable!("only a verdict-only search skips its witness"),
        }
    }
}

struct Engine<'s> {
    /// The successor function of the network and monitor searched.
    sem: Semantics<'s>,
    shards: Vec<Mutex<Shard>>,
    goal: Goal,
}

/// Runs the symbolic PTE check of `spec` over `net` — the PTE-specific
/// entry point, composing a [`PteMonitor`] with the network and
/// delegating to [`check_monitored`].
///
/// Borrows both inputs — the network is *not* cloned (PR 2 cloned the
/// full automata; the observer clocks now live beside it instead of
/// inside it). Returns an error if a spec entity names no automaton in
/// the network.
pub fn check(
    net: &TaNetwork,
    spec: &ObserverSpec,
    limits: &Limits,
) -> Result<SymbolicVerdict, String> {
    if !limits.reduce_clocks {
        let monitor = PteMonitor::new(net, spec)?;
        return check_monitored(net, &monitor, limits);
    }
    check_analyzed(net, &analyze(net), spec, limits)
}

/// [`check`] with the static analysis of `net` ([`analyze`]) already
/// at hand, for callers that also report it: the search reads the same
/// analysis instead of running it a second time. Unused when
/// [`Limits::reduce_clocks`] is off.
pub(crate) fn check_analyzed(
    net: &TaNetwork,
    analysis: &ModelAnalysis,
    spec: &ObserverSpec,
    limits: &Limits,
) -> Result<SymbolicVerdict, String> {
    if !limits.reduce_clocks {
        return check(net, spec, limits);
    }

    // The analysis's per-location dead-clock masks, for the search to
    // free: the same collapse the monitor already applies to its own
    // observer clocks.
    let monitor = PteMonitor::new(net, spec)?;
    let masks = (analysis.activity.clocks != 0 && !analysis.activity.is_trivial())
        .then_some(&analysis.activity);

    // The masked search is the fast path for proofs. For a
    // falsification it only decides the verdict: its workers stop at
    // the first violation and render nothing, because the witness is
    // re-derived without masks, so the counter-example text (zone
    // constraints, step list) is byte-identical to a run with the
    // analysis off: the engine's determinism guarantee extended across
    // the knob.
    match check_monitored_with(net, &monitor, limits, masks, Goal::Verdict)? {
        Outcome::Violated(round) => {
            let mut legacy = limits.clone();
            legacy.reduce_clocks = false;
            // The rerun exists only to render the counter-example: it
            // must neither consume the warm artifact (captured with
            // masks) nor emit one.
            legacy.warm_start = None;
            legacy.capture = None;
            // Freeing dead clocks never removes a reachable violation,
            // so the rerun finds one too, and the masked search's
            // round is its hint: the rerun takes that round's entries
            // least path first and stops after the first group of equal
            // paths that violates. If the hint is wrong, the rerun expands the whole round
            // and goes on as an unhinted search would; if it trips a
            // budget first, that inconclusive verdict is returned as-is
            // — conservative, never wrong.
            check_monitored_with(net, &monitor, &legacy, None, Goal::WitnessAt(round))
                .map(Outcome::verdict)
        }
        Outcome::Done(verdict) => Ok(verdict),
    }
}

/// Runs the symbolic safety check of any [`Monitor`] composed with
/// `net`.
///
/// The monitor's observer clocks occupy the DBM dimensions above the
/// network's own clocks, its observer state becomes part of every
/// passed-list key, and its constants are folded into the
/// extrapolation bound sets — so both extrapolation and the
/// pre-extrapolation subsumption probe stay sound for whatever
/// property the monitor encodes. Returns an error when the composed
/// system exceeds the engine's size limits.
pub fn check_monitored(
    net: &TaNetwork,
    monitor: &dyn Monitor,
    limits: &Limits,
) -> Result<SymbolicVerdict, String> {
    check_monitored_with(net, monitor, limits, None, Goal::Witness).map(Outcome::verdict)
}

/// [`check_monitored`] plus optional per-location dead-clock masks over
/// `net`'s clock space (what [`check`] computes from the static
/// analysis — callers handing masks for a *different* network would
/// free live clocks and lose soundness, hence not public) and the
/// search's [`Goal`].
fn check_monitored_with(
    net: &TaNetwork,
    monitor: &dyn Monitor,
    limits: &Limits,
    masks: Option<&ActivityMasks>,
    goal: Goal,
) -> Result<Outcome, String> {
    // Warm start: when a prior run's artifact survives every validity
    // gate against *this* model, its passed list is a complete proof
    // and the search is answered by transfer — no exploration at all.
    // Any gate failure falls through to the cold search below.
    if let Some(art) = &limits.warm_start {
        if let Some(stats) = try_warm_start(art, net, monitor, masks, limits.extrapolation) {
            if let Some(sink) = &limits.capture {
                // Pass the original artifact through unchanged:
                // chained warm starts then always admit against the
                // original proof (the weakening order is transitive).
                *sink.lock() = Some((**art).clone());
            }
            return Ok(Outcome::Done(SymbolicVerdict::Safe(stats)));
        }
    }

    let engine = Engine {
        sem: Semantics::new(net, monitor, limits.extrapolation, masks)?,
        shards: (0..SHARD_COUNT)
            .map(|_| Mutex::new(Shard::default()))
            .collect(),
        goal,
    };
    let outcome = engine.run(limits);
    if let (Some(sink), Outcome::Done(SymbolicVerdict::Safe(_))) = (&limits.capture, &outcome) {
        if let Some(profile) = monitor.warm_profile() {
            *sink.lock() = Some(capture_artifact(&engine, limits, masks, profile));
        }
    }
    Ok(outcome)
}

/// Serializes the engine's passed list into a [`PassedArtifact`]:
/// shards in index order, keys in intern-id (first-intern) order, one
/// entry per settled node — deterministic at every worker count.
fn capture_artifact(
    engine: &Engine<'_>,
    limits: &Limits,
    masks: Option<&ActivityMasks>,
    profile: crate::artifact::WarmProfile,
) -> PassedArtifact {
    let mut entries = Vec::new();
    for shard in &engine.shards {
        let s = shard.lock();
        let mut keys: Vec<(&Key, u32)> = s.keys.iter().collect();
        keys.sort_by_key(|&(_, id)| id);
        for (key, kid) in keys {
            for &nidx in &s.buckets[kid as usize] {
                entries.push(PassedEntry {
                    locs: key.0.clone(),
                    mon: key.1.clone(),
                    zone: s.nodes[nidx as usize].zone.clone(),
                });
            }
        }
    }
    PassedArtifact {
        nclocks: engine.sem.nclocks,
        extrapolation: limits.extrapolation,
        reduce_clocks: limits.reduce_clocks,
        net_digest: net_structure_digest(engine.sem.net),
        atom_ticks: atom_ticks(engine.sem.net),
        masks_digest: masks_digest(masks),
        profile,
        entries,
    }
}

/// Phase selector for the persistent worker pool. Thread spawning is
/// expensive enough (≈1 ms per scope on some kernels) to swamp per-round
/// parallelism, so the pool is spawned once per [`check`] and rounds are
/// coordinated with an epoch counter: the coordinator stages a phase,
/// bumps `epoch`, participates in the work itself, and spin/yield-waits
/// for every helper to raise `done`.
const TASK_EXIT: usize = 0;
const TASK_EXPAND: usize = 1;
const TASK_ADMIT: usize = 2;

/// Phase-control block guarded by [`RoundSync::phase`].
struct PhaseCtl {
    /// Bumped by the coordinator to start the next phase.
    epoch: usize,
    /// Which phase the current epoch runs ([`TASK_EXPAND`], …).
    task: usize,
    /// Helpers that finished the current phase.
    done: usize,
}

/// Shared round state between the coordinator and the helper pool.
/// Phase hand-off uses `std::sync::Condvar` so idle helpers sleep
/// instead of burning a core (matters when `max_workers` exceeds the
/// machine's parallelism).
struct RoundSync {
    phase: std::sync::Mutex<PhaseCtl>,
    /// Signalled by the coordinator when a new phase starts.
    start: std::sync::Condvar,
    /// Signalled by helpers when they finish a phase.
    finish: std::sync::Condvar,
    /// Work-claim cursor of the current phase (frontier index or shard
    /// index).
    cursor: AtomicUsize,
    /// The frontier being expanded (published before the phase starts).
    frontier: RwLock<Vec<FrontierEntry>>,
    /// Violations found by helpers this round.
    violations: Mutex<Vec<(Option<NodeId>, Violation)>>,
    /// Per-shard admissions produced by helpers this round.
    admitted: Mutex<Vec<(usize, Vec<FrontierEntry>)>>,
    /// Helper-side transition / subsumption / stutter tallies.
    transitions: AtomicUsize,
    subsumed: AtomicUsize,
    stutters: AtomicUsize,
    /// Set by a helper whose phase work panicked; the coordinator
    /// aborts the check instead of trusting a partial round.
    helper_panicked: std::sync::atomic::AtomicBool,
}

impl RoundSync {
    fn new() -> RoundSync {
        RoundSync {
            phase: std::sync::Mutex::new(PhaseCtl {
                epoch: 0,
                task: TASK_EXIT,
                done: 0,
            }),
            start: std::sync::Condvar::new(),
            finish: std::sync::Condvar::new(),
            cursor: AtomicUsize::new(0),
            frontier: RwLock::new(Vec::new()),
            violations: Mutex::new(Vec::new()),
            admitted: Mutex::new(Vec::new()),
            transitions: AtomicUsize::new(0),
            subsumed: AtomicUsize::new(0),
            stutters: AtomicUsize::new(0),
            helper_panicked: std::sync::atomic::AtomicBool::new(false),
        }
    }

    fn ctl(&self) -> std::sync::MutexGuard<'_, PhaseCtl> {
        self.phase.lock().expect("phase lock poisoned")
    }
}

impl Engine<'_> {
    fn run(&self, limits: &Limits) -> Outcome {
        let workers = limits.effective_workers().max(1);
        let sync = RoundSync::new();
        if workers == 1 {
            return self.drive(&sync, limits, 0);
        }
        crossbeam::thread::scope(|scope| {
            for _ in 0..workers - 1 {
                scope.spawn(|_| self.helper_loop(&sync));
            }
            // Catch a coordinator panic so the pool is always dismissed:
            // the scope joins helpers before propagating, and helpers
            // blocked on the start condvar would otherwise hang forever,
            // turning the crash into a silent CI timeout.
            let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.drive(&sync, limits, workers - 1)
            }));
            self.start_phase(&sync, TASK_EXIT);
            match verdict {
                Ok(v) => v,
                Err(panic) => std::panic::resume_unwind(panic),
            }
        })
        .expect("worker pool scope")
    }

    /// The coordinator: seeds the search, then alternates expand/admit
    /// phases (participating in each) until a verdict is reached.
    fn drive(&self, sync: &RoundSync, limits: &Limits, helpers: usize) -> Outcome {
        let started = Instant::now();
        let mut stats = SearchStats {
            dbm_clocks: self.sem.nclocks,
            ..SearchStats::default()
        };
        let mut pool = DbmPool::new();

        // Seed round: the initial state's successors, on this thread.
        // Nothing is settled yet, so the probe drops nothing.
        let mut local = LocalStats::default();
        let mut violations = Vec::new();
        let mut stage = |y: Yield| match y {
            Ok(succ) => {
                let shard = &self.shards[shard_of(&succ.key)];
                shard.lock().pending.push(Candidate { succ, parent: None });
            }
            Err(v) => violations.push((None, *v)),
        };
        self.sem
            .initial(&|_, _| false, &mut local, &mut pool, &mut stage);
        local.fold_into(&mut stats);

        let mut round = 0usize;
        loop {
            if !violations.is_empty() {
                return self.violated(violations, round);
            }
            let frontier = self.admit_phase(sync, helpers, &mut stats, &mut pool);
            // Round boundary: publish a progress snapshot, then honour a
            // fired cancellation token *before* any verdict — a search
            // cancelled mid-flight must never settle into `Safe`, even
            // when the frontier happens to drain on the same boundary.
            if let Some(report) = &limits.progress {
                report(&Progress {
                    round,
                    settled: stats.states,
                    frontier: frontier.len(),
                    elapsed: started.elapsed(),
                });
            }
            round += 1;
            let tripped = if limits
                .cancel
                .as_ref()
                .is_some_and(CancelToken::is_cancelled)
            {
                Some(TrippedLimit::Cancelled)
            } else if frontier.is_empty() {
                None
            } else if stats.states > limits.max_states {
                Some(TrippedLimit::MaxStates(limits.max_states))
            } else {
                limits
                    .max_wall
                    .filter(|&budget| started.elapsed() > budget)
                    .map(TrippedLimit::WallClock)
            };
            if tripped.is_some() || frontier.is_empty() {
                stats.frontier = frontier.len();
                for shard in &self.shards {
                    let s = shard.lock();
                    stats.peak_passed_bytes += s.min_bytes;
                    stats.peak_passed_bytes_full += s.full_bytes;
                }
                return Outcome::Done(match tripped {
                    Some(tripped) => SymbolicVerdict::OutOfBudget { stats, tripped },
                    None => SymbolicVerdict::Safe(stats),
                });
            }
            violations = if self.goal == Goal::WitnessAt(round) {
                self.expand_least_paths(sync, frontier, &mut stats, &mut pool)
            } else {
                self.expand_phase(sync, frontier, helpers, &mut stats, &mut pool)
            };
        }
    }

    /// Helper thread body: wait for the next epoch, run its phase, raise
    /// `done`; exit on [`TASK_EXIT`]. Each helper owns a [`DbmPool`]
    /// that persists across phases, so successor zones recycle worker-
    /// locally without synchronization.
    fn helper_loop(&self, sync: &RoundSync) {
        // Baseline is the pool-creation epoch (0), NOT the current value:
        // a helper that spawns after the coordinator's first bump must
        // still join that phase, or the coordinator waits forever.
        let mut seen = 0usize;
        let mut pool = DbmPool::new();
        loop {
            let task = {
                let mut ctl = sync.ctl();
                while ctl.epoch == seen {
                    ctl = sync.start.wait(ctl).expect("phase lock poisoned");
                }
                seen = ctl.epoch;
                ctl.task
            };
            // A panicking phase must still raise `done`, or the
            // coordinator waits for this helper forever and a crash
            // becomes a hang. Catch the unwind, flag it, and let the
            // coordinator abort the whole check.
            let pool = &mut pool;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match task {
                TASK_EXPAND => {
                    let (local, violations) = {
                        let frontier = sync.frontier.read();
                        self.expand_work(&frontier, sync, pool)
                    };
                    sync.transitions
                        .fetch_add(local.transitions, Ordering::Relaxed);
                    sync.subsumed.fetch_add(local.subsumed, Ordering::Relaxed);
                    sync.stutters.fetch_add(local.stutters, Ordering::Relaxed);
                    if !violations.is_empty() {
                        sync.violations.lock().extend(violations);
                    }
                    true
                }
                TASK_ADMIT => {
                    let (admitted, subsumed) = self.admit_work(&sync.cursor, pool);
                    sync.subsumed.fetch_add(subsumed, Ordering::Relaxed);
                    if !admitted.is_empty() {
                        sync.admitted.lock().extend(admitted);
                    }
                    true
                }
                _ => false,
            }));
            let keep_going = match outcome {
                Ok(keep_going) => keep_going,
                Err(_) => {
                    sync.helper_panicked.store(true, Ordering::Release);
                    true
                }
            };
            if !keep_going {
                break;
            }
            let mut ctl = sync.ctl();
            ctl.done += 1;
            sync.finish.notify_one();
        }
    }

    /// Publishes a phase to the pool and waits for every helper to
    /// finish it (the coordinator's own share is run by the caller
    /// between `start` and `wait`).
    fn start_phase(&self, sync: &RoundSync, task: usize) {
        sync.cursor.store(0, Ordering::Relaxed);
        let mut ctl = sync.ctl();
        ctl.epoch += 1;
        ctl.task = task;
        ctl.done = 0;
        drop(ctl);
        sync.start.notify_all();
    }

    fn wait_helpers(&self, sync: &RoundSync, helpers: usize) {
        let mut ctl = sync.ctl();
        while ctl.done < helpers {
            ctl = sync.finish.wait(ctl).expect("phase lock poisoned");
        }
        drop(ctl);
        if sync.helper_panicked.load(Ordering::Acquire) {
            // Dismiss the pool first so the scope join below us cannot
            // deadlock on helpers waiting for a phase that never comes,
            // then surface the crash instead of trusting a partial round.
            self.start_phase(sync, TASK_EXIT);
            panic!("symbolic exploration worker panicked; aborting the check");
        }
    }

    /// Phase 1: expands every frontier entry, staging cooked successors
    /// into their target shards and returning the round's violations.
    fn expand_phase(
        &self,
        sync: &RoundSync,
        frontier: Vec<FrontierEntry>,
        helpers: usize,
        stats: &mut SearchStats,
        pool: &mut DbmPool,
    ) -> Vec<(Option<NodeId>, Violation)> {
        // The previous round's frontier has been fully expanded; recycle
        // its zones before publishing the new one.
        let expanded = std::mem::replace(&mut *sync.frontier.write(), frontier);
        for e in expanded {
            pool.recycle(e.zone);
        }
        self.start_phase(sync, TASK_EXPAND);
        let (local, mut violations) = {
            let frontier = sync.frontier.read();
            self.expand_work(&frontier, sync, pool)
        };
        self.wait_helpers(sync, helpers);
        local.fold_into(stats);
        stats.transitions += sync.transitions.swap(0, Ordering::Relaxed);
        stats.subsumed += sync.subsumed.swap(0, Ordering::Relaxed);
        stats.stutters += sync.stutters.swap(0, Ordering::Relaxed);
        violations.append(&mut sync.violations.lock());
        violations
    }

    /// One worker's share of an expand phase: claim frontier entries
    /// from the shared cursor, expand them, flush staged candidates to
    /// their shards (one lock per shard per call). Under
    /// [`Goal::Verdict`] one violation decides the search, so a worker
    /// that meets one moves the cursor past the last entry and no
    /// worker claims another.
    fn expand_work(
        &self,
        frontier: &[FrontierEntry],
        sync: &RoundSync,
        pool: &mut DbmPool,
    ) -> (LocalStats, Vec<(Option<NodeId>, Violation)>) {
        let verdict_only = self.goal == Goal::Verdict;
        let mut local = LocalStats::default();
        let mut violations = Vec::new();
        let mut staged: Vec<Vec<Candidate>> = (0..SHARD_COUNT).map(|_| Vec::new()).collect();
        loop {
            let i = sync.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(entry) = frontier.get(i) else { break };
            let probe = |key: &Key, zone: &Dbm| self.passed_covers(key, zone);
            let mut stage = |y: Yield| match y {
                Ok(succ) => staged[shard_of(&succ.key)].push(Candidate {
                    succ,
                    parent: Some(entry.id),
                }),
                Err(v) => violations.push((Some(entry.id), *v)),
            };
            let (key, zone) = (&entry.key, &entry.zone);
            self.sem
                .successors(key, zone, &probe, &mut local, pool, &mut stage);
            if verdict_only && !violations.is_empty() {
                sync.cursor.store(frontier.len(), Ordering::Relaxed);
            }
        }
        for (s, mut batch) in staged.into_iter().enumerate() {
            if !batch.is_empty() {
                self.shards[s].lock().pending.append(&mut batch);
            }
        }
        (local, violations)
    }

    /// The hinted round of a [`Goal::WitnessAt`] search, on the calling
    /// thread. Every entry of a round sits at the same depth, so its
    /// rendered path (the steps from the seed to it) has the same
    /// length, and a violation found under a greater path has a greater
    /// step list. The entries are therefore sorted by path and expanded
    /// in groups of equal paths, least path first, and the round stops
    /// after the first group that yields a violation: the least
    /// counter-example of that group is the least of the whole round, at
    /// every worker count. Expanding an entry reads only earlier rounds'
    /// zones, so each entry yields the same violations it would in a full
    /// round. Each group is one [`Engine::expand_work`] call while the
    /// helpers stay parked. If no group violates, every entry has been
    /// expanded and staged, and the search goes on as usual.
    fn expand_least_paths(
        &self,
        sync: &RoundSync,
        frontier: Vec<FrontierEntry>,
        stats: &mut SearchStats,
        pool: &mut DbmPool,
    ) -> Vec<(Option<NodeId>, Violation)> {
        let mut memo = HashMap::new();
        let mut by_path: Vec<(Rc<[String]>, FrontierEntry)> = frontier
            .into_iter()
            .map(|e| (self.path(e.id, &mut memo), e))
            .collect();
        by_path.sort_by(|a, b| a.0.cmp(&b.0));
        let (paths, frontier): (Vec<_>, Vec<_>) = by_path.into_iter().unzip();
        let mut start = 0;
        for group in paths.chunk_by(|a, b| a == b) {
            let end = start + group.len();
            sync.cursor.store(0, Ordering::Relaxed);
            let (local, violations) = self.expand_work(&frontier[start..end], sync, pool);
            local.fold_into(stats);
            if !violations.is_empty() {
                return violations;
            }
            start = end;
        }
        for e in frontier {
            pool.recycle(e.zone);
        }
        Vec::new()
    }

    /// The rendered steps from the seed to node `id`: the steps
    /// [`Engine::render_ce`] lists before a violation's last step, and
    /// the order of a hinted round. Memoised per node in `memo`, so
    /// shared ancestors render once.
    fn path(&self, id: NodeId, memo: &mut HashMap<NodeId, Rc<[String]>>) -> Rc<[String]> {
        let mut unrendered = Vec::new();
        let mut cursor = Some(id);
        let mut path: Rc<[String]> = Rc::new([]);
        while let Some(n) = cursor {
            if let Some(known) = memo.get(&n) {
                path = known.clone();
                break;
            }
            let shard = self.shards[n.shard as usize].lock();
            let node = &shard.nodes[n.idx as usize];
            unrendered.push((n, self.sem.render_step(&node.acts)));
            cursor = node.parent;
        }
        for (n, step) in unrendered.into_iter().rev() {
            path = path.iter().cloned().chain(std::iter::once(step)).collect();
            memo.insert(n, path.clone());
        }
        path
    }

    /// Phase 2: drains every shard's pending list in content-defined
    /// order, admitting unsubsumed candidates; returns the next
    /// frontier (concatenated in shard order — deterministic).
    fn admit_phase(
        &self,
        sync: &RoundSync,
        helpers: usize,
        stats: &mut SearchStats,
        pool: &mut DbmPool,
    ) -> Vec<FrontierEntry> {
        self.start_phase(sync, TASK_ADMIT);
        let (mut per_shard, subsumed) = self.admit_work(&sync.cursor, pool);
        self.wait_helpers(sync, helpers);
        stats.subsumed += subsumed + sync.subsumed.swap(0, Ordering::Relaxed);
        per_shard.append(&mut sync.admitted.lock());
        per_shard.sort_by_key(|(s, _)| *s);
        let frontier: Vec<FrontierEntry> =
            per_shard.into_iter().flat_map(|(_, fresh)| fresh).collect();
        stats.states += frontier.len();
        frontier
    }

    /// One worker's share of an admit phase: claim whole shards from the
    /// shared cursor and admit their pending candidates deterministically.
    ///
    /// Admission is where keys are interned (content order ⇒ id
    /// assignment is identical for every worker count) and where zones
    /// are compressed: the node arena stores the minimal constraint
    /// form, against which future subsumption checks run directly.
    fn admit_work(
        &self,
        cursor: &AtomicUsize,
        pool: &mut DbmPool,
    ) -> (Vec<(usize, Vec<FrontierEntry>)>, usize) {
        let mut admitted: Vec<(usize, Vec<FrontierEntry>)> = Vec::new();
        let mut subsumed = 0usize;
        loop {
            let s = cursor.fetch_add(1, Ordering::Relaxed);
            if s >= SHARD_COUNT {
                break;
            }
            let mut shard = self.shards[s].lock();
            if shard.pending.is_empty() {
                continue;
            }
            let mut pending = std::mem::take(&mut shard.pending);
            pending.sort_by(|a, b| a.order_key().cmp(&b.order_key()));
            let mut fresh = Vec::new();
            let Shard {
                keys,
                buckets,
                nodes,
                min_bytes,
                full_bytes,
                ..
            } = &mut *shard;
            for Candidate { succ, parent } in pending {
                let Successor { key, zone, acts } = succ;
                debug_assert!(
                    zone.closed_through_zero(),
                    "candidates must arrive canonical"
                );
                let (kid, new_key) = keys.intern(&key);
                if new_key {
                    buckets.push(Vec::new());
                }
                let bucket = &mut buckets[kid as usize];
                if bucket
                    .iter()
                    .any(|&ni| nodes[ni as usize].zone.includes(&zone))
                {
                    subsumed += 1;
                    pool.recycle(zone);
                    continue;
                }
                let reduced = zone.reduce();
                *min_bytes += reduced.heap_bytes();
                *full_bytes += reduced.full_matrix_bytes();
                let idx = nodes.len() as u32;
                nodes.push(Node {
                    zone: reduced,
                    parent,
                    acts: acts.into_boxed_slice(),
                });
                bucket.push(idx);
                fresh.push(FrontierEntry {
                    id: NodeId {
                        shard: s as u32,
                        idx,
                    },
                    key,
                    zone,
                });
            }
            admitted.push((s, fresh));
        }
        (admitted, subsumed)
    }

    /// The pre-extrapolation subsumption probe the successor function
    /// calls: whether a zone settled under `key` in an earlier round
    /// includes `zone`. Phase 1 never mutates node arenas, so this read
    /// is deterministic.
    fn passed_covers(&self, key: &Key, zone: &Dbm) -> bool {
        let shard = self.shards[shard_of(key)].lock();
        shard.keys.get(key).is_some_and(|kid| {
            shard.buckets[kid as usize]
                .iter()
                .any(|&ni| shard.nodes[ni as usize].zone.includes(zone))
        })
    }

    /// The outcome of a round that met `violations`: the round itself
    /// under [`Goal::Verdict`], the least counter-example otherwise.
    fn violated(&self, violations: Vec<(Option<NodeId>, Violation)>, round: usize) -> Outcome {
        match self.goal {
            Goal::Verdict => Outcome::Violated(round),
            Goal::Witness | Goal::WitnessAt(_) => {
                Outcome::Done(self.least_counter_example(violations))
            }
        }
    }

    /// Renders every violation a round collected (in a hinted round,
    /// those of its least violating group of paths) and returns the
    /// lexicographically least counter-example (by step list, then
    /// violation rank, then zone text) — a content-defined choice, so
    /// the witness is identical for every worker count.
    fn least_counter_example(
        &self,
        violations: Vec<(Option<NodeId>, Violation)>,
    ) -> SymbolicVerdict {
        let mut memo = HashMap::new();
        let least = violations
            .into_iter()
            .map(|(parent, v)| self.render_ce(parent, v, &mut memo))
            .min_by(|a, b| (&a.steps, a.rank, &a.zone).cmp(&(&b.steps, b.rank, &b.zone)))
            .expect("at least one violation");
        SymbolicVerdict::Unsafe(Box::new(least))
    }

    fn render_ce(
        &self,
        parent: Option<NodeId>,
        v: Violation,
        memo: &mut HashMap<NodeId, Rc<[String]>>,
    ) -> SymbolicCounterExample {
        let steps = parent.map_or_else(Vec::new, |id| self.path(id, memo).to_vec());
        self.sem.counter_example(steps, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ta::{Atom, Rel, Sync, TaAutomaton, TaEdge, TaLocation};
    use crate::LoweredPattern;
    use pte_hybrid::Root;

    /// Registry arms small enough for a debug-build unit test.
    fn arm(name: &str, leased: bool) -> LoweredPattern {
        let s = pte_tracheotomy::registry::by_name(name).expect("registry scenario");
        LoweredPattern::new(&s.config, leased).expect("registry arm lowers")
    }

    /// One search of `p` toward `goal`: with the activity masks, set up
    /// as [`check_analyzed`] does, or without them. Returns the outcome
    /// and every round-boundary progress snapshot as `(round, settled,
    /// frontier)`.
    fn search(
        p: &LoweredPattern,
        masked: bool,
        workers: usize,
        goal: Goal,
    ) -> (Outcome, Vec<(usize, usize, usize)>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let limits = Limits {
            max_workers: workers,
            progress: Some(Arc::new(move |p: &Progress| {
                sink.lock().push((p.round, p.settled, p.frontier));
            })),
            ..Limits::default()
        };
        let analysis = p.analysis();
        let masks = (masked && analysis.activity.clocks != 0 && !analysis.activity.is_trivial())
            .then_some(&analysis.activity);
        let monitor = PteMonitor::new(&p.net, &p.spec).expect("registry spec");
        let outcome = check_monitored_with(&p.net, &monitor, &limits, masks, goal)
            .expect("registry arm checks");
        let seen = seen.lock().clone();
        (outcome, seen)
    }

    /// A verdict as comparable text: the witness of an `Unsafe`, the
    /// full statistics otherwise.
    fn rendered(o: Outcome) -> String {
        match o.verdict() {
            SymbolicVerdict::Unsafe(ce) => format!("{ce}"),
            SymbolicVerdict::Safe(stats) => format!("safe {stats:?}"),
            SymbolicVerdict::OutOfBudget { stats, tripped } => format!("{tripped}: {stats:?}"),
        }
    }

    /// The round a `Goal::Verdict` search stopped in.
    fn violated_round(o: &Outcome) -> usize {
        match o {
            Outcome::Violated(round) => *round,
            Outcome::Done(v) => panic!("expected a violation, got {v}"),
        }
    }

    /// A hint one round early or late leaves the answer alone: the same
    /// witness and the same round-by-round settled and frontier counts
    /// as the unhinted search, and the right hint renders the same
    /// witness too.
    #[test]
    fn a_wrong_hint_changes_nothing_on_a_falsification() {
        for name in ["case-study", "chain-3"] {
            let p = arm(name, false);
            for workers in [1usize, 2] {
                let r = violated_round(&search(&p, false, workers, Goal::Verdict).0);
                assert!(r >= 2, "{name}: violation in round {r}");
                let (plain, plain_rounds) = search(&p, false, workers, Goal::Witness);
                let plain = rendered(plain);
                assert!(plain.starts_with("symbolic safety violation"), "{plain}");
                for hint in [r - 1, r, r + 1] {
                    let (hinted, rounds) = search(&p, false, workers, Goal::WitnessAt(hint));
                    let at = format!("{name}, hint {hint} (violation in {r}), {workers} workers");
                    assert_eq!(rendered(hinted), plain, "{at}");
                    assert_eq!(rounds, plain_rounds, "{at}");
                }
            }
        }
    }

    /// On a `Safe` model every hinted round is expanded in full, so any
    /// hint, past the last round included, yields the same statistics.
    /// The activity masks keep the test fast (368 states, not 3 494);
    /// the hinted round does not depend on the masks.
    #[test]
    fn any_hint_on_a_safe_model_changes_nothing() {
        let p = arm("case-study", true);
        for workers in [1usize, 2] {
            let (plain, plain_rounds) = search(&p, true, workers, Goal::Witness);
            let plain = rendered(plain);
            assert!(plain.starts_with("safe"), "{plain}");
            for hint in 0..=plain_rounds.len() + 1 {
                let (hinted, rounds) = search(&p, true, workers, Goal::WitnessAt(hint));
                assert_eq!(rendered(hinted), plain, "hint {hint}, {workers} workers");
                assert_eq!(rounds, plain_rounds, "hint {hint}, {workers} workers");
            }
        }
    }

    /// A single-threaded search over the successor function alone, with
    /// the monitor and activity masks [`check_analyzed`] uses: a
    /// `HashMap` passed list, inclusion in it as the probe, and each
    /// round's successors admitted in `(key, zone, step codes)` order.
    /// Returns `[states, transitions, subsumed, stutters]` once the
    /// frontier drains, or the round of the first violation.
    fn plain_bfs(p: &LoweredPattern) -> Result<SearchStats, usize> {
        let analysis = p.analysis();
        let masks = (analysis.activity.clocks != 0 && !analysis.activity.is_trivial())
            .then_some(&analysis.activity);
        let monitor = PteMonitor::new(&p.net, &p.spec).expect("registry spec");
        let sem = Semantics::new(&p.net, &monitor, Extrapolation::default(), masks)
            .expect("registry arm fits the engine");
        let mut stats = SearchStats::default();
        let (mut local, mut pool) = (LocalStats::default(), DbmPool::new());
        let mut passed: HashMap<Key, Vec<Dbm>> = HashMap::new();
        let mut frontier: Vec<(Key, Dbm)> = Vec::new();
        for round in 0.. {
            if round > 0 && frontier.is_empty() {
                break;
            }
            let (mut next, mut violated) = (Vec::new(), false);
            let probe = |k: &Key, z: &Dbm| {
                passed
                    .get(k)
                    .is_some_and(|zs| zs.iter().any(|p| p.includes(z)))
            };
            let mut sink = |y: Yield| match y {
                Ok(s) => next.push(s),
                Err(_) => violated = true,
            };
            if round == 0 {
                sem.initial(&probe, &mut local, &mut pool, &mut sink);
            }
            for (key, zone) in &frontier {
                sem.successors(key, zone, &probe, &mut local, &mut pool, &mut sink);
            }
            if violated {
                return Err(round);
            }
            next.sort_by(|a, b| (&a.key, &a.zone, &a.acts).cmp(&(&b.key, &b.zone, &b.acts)));
            frontier.clear();
            for s in next {
                let zones = passed.entry(s.key.clone()).or_default();
                if zones.iter().any(|z| z.includes(&s.zone)) {
                    stats.subsumed += 1;
                } else {
                    zones.push(s.zone.clone());
                    frontier.push((s.key, s.zone));
                    stats.states += 1;
                }
            }
        }
        local.fold_into(&mut stats);
        Ok(stats)
    }

    /// The plain search reproduces the sharded search's counters on the
    /// leased arms and stops in the verdict-only search's round on the
    /// lease-stripped ones, at 1 and 2 workers: staging and admission
    /// add nothing to the successor function and drop nothing from it.
    #[test]
    fn a_plain_search_over_the_successor_function_matches_the_engine() {
        let counters = |s: SearchStats| [s.states, s.transitions, s.subsumed, s.stutters];
        for name in ["case-study", "chain-2", "chain-3"] {
            let (leased, stripped) = (arm(name, true), arm(name, false));
            let plain = counters(plain_bfs(&leased).expect("leased arms are safe"));
            let first_violation = plain_bfs(&stripped).expect_err("stripped arms are unsafe");
            for workers in [1usize, 2] {
                let limits = Limits {
                    max_workers: workers,
                    ..Limits::default()
                };
                let verdict = leased.check(&limits).expect("arm checks");
                let at = format!("{name}, {workers} workers");
                assert_eq!(verdict.stats().map(|&s| counters(s)), Some(plain), "{at}");
                let round = violated_round(&search(&stripped, true, workers, Goal::Verdict).0);
                assert_eq!(first_violation, round, "{at}");
            }
        }
    }

    /// A location of a hand-built automaton.
    fn loc(name: &str, invariant: Vec<Atom>) -> TaLocation {
        TaLocation {
            name: name.to_string(),
            invariant,
            frozen: false,
            risky: false,
        }
    }

    /// A bare spontaneous edge of a hand-built automaton.
    fn edge(src: usize, dst: usize) -> TaEdge {
        TaEdge {
            src,
            dst,
            guard: Vec::new(),
            resets: Vec::new(),
            sync: Sync::None,
            emits: Vec::new(),
            urgent: false,
        }
    }

    /// `x ⋈ ticks` over the hand-built networks' one clock.
    fn x(rel: Rel, ticks: i64) -> Atom {
        Atom {
            clock: 1,
            rel,
            ticks,
        }
    }

    /// `m: Init -> names[i] -> Bad` for i = 0, 1, with the second hop of
    /// branch `i` entering location `bad[i]` (3 and 4 are both named
    /// `Bad`): every violation sits in BFS round 2.
    fn fan(names: [&str; 2], bad: [usize; 2]) -> TaNetwork {
        TaNetwork {
            clocks: vec!["m.x".to_string()],
            automata: vec![TaAutomaton {
                name: "m".to_string(),
                locations: vec![
                    loc("Init", Vec::new()),
                    loc(names[0], Vec::new()),
                    loc(names[1], Vec::new()),
                    loc("Bad", Vec::new()),
                    loc("Bad", Vec::new()),
                ],
                edges: vec![edge(0, 1), edge(0, 2), edge(1, bad[0]), edge(2, bad[1])],
                initial: 0,
            }],
        }
    }

    /// `m` beside a `chatter` automaton whose one location `Top` carries
    /// a bare self-loop emitting `ping`: the universal chatter of a
    /// compositional pair network, reduced to one root.
    fn with_chatter(m: TaAutomaton) -> TaNetwork {
        let chatter = TaAutomaton {
            name: "chatter".to_string(),
            locations: vec![loc("Top", Vec::new())],
            edges: vec![TaEdge {
                emits: vec![Root::new("ping")],
                ..edge(0, 0)
            }],
            initial: 0,
        };
        TaNetwork {
            clocks: vec!["m.x".to_string()],
            automata: vec![chatter, m],
        }
    }

    /// `m` cycles `A -> B -> A`: `A` (invariant `x ≤ 4`) is left at
    /// `x ≥ 2`, `B` at `x ≥ 3` with `x` reset. `Bad` is entered only on
    /// a `ping` that `m` receives in `B` when `receives` is set.
    fn cycle(receives: bool) -> TaAutomaton {
        let mut edges = vec![
            TaEdge {
                guard: vec![x(Rel::Ge, 2)],
                ..edge(0, 1)
            },
            TaEdge {
                guard: vec![x(Rel::Ge, 3)],
                resets: vec![(1, 0)],
                ..edge(1, 0)
            },
        ];
        if receives {
            edges.push(TaEdge {
                sync: Sync::Lossy(Root::new("ping")),
                ..edge(1, 2)
            });
        }
        TaAutomaton {
            name: "m".to_string(),
            locations: vec![
                loc("A", vec![x(Rel::Le, 4)]),
                loc("B", Vec::new()),
                loc("Bad", Vec::new()),
            ],
            edges,
            initial: 0,
        }
    }

    /// A search of `net` for `m.Bad` under a [`crate::LocationReachMonitor`]
    /// at `workers` workers.
    fn reach_bad(net: &TaNetwork, workers: usize) -> SymbolicVerdict {
        let monitor = crate::LocationReachMonitor::new(net, &[("m", "Bad")]).unwrap();
        let limits = Limits {
            max_workers: workers,
            ..Limits::default()
        };
        check_monitored(net, &monitor, &limits).unwrap()
    }

    /// The chatter's self-loop emits a root nobody can receive, so every
    /// firing of it is silent and every entry's own zone covers it
    /// (`A`'s invariant has no urgent escape, though extrapolation
    /// widens `A`'s zone past it): each of the two entries counts one
    /// stutter, one transition and one subsumed successor. `m`'s own
    /// two firings add the entry `B` and a successor that `A` subsumes.
    /// Debug builds also expand every counted firing and assert it.
    #[test]
    fn a_chatter_automatons_silent_self_loop_is_counted() {
        let net = with_chatter(cycle(false));
        for workers in [1usize, 2] {
            let SymbolicVerdict::Safe(stats) = reach_bad(&net, workers) else {
                panic!("m.Bad is unreachable without a receiver");
            };
            assert_eq!(
                (
                    stats.states,
                    stats.transitions,
                    stats.subsumed,
                    stats.stutters
                ),
                (2, 4, 3, 2),
                "{workers} workers"
            );
        }
    }

    /// Once `m` listens for `ping` in `B`, the chatter's firings from
    /// `B` are not silent: they are expanded, deliver `ping` and reach
    /// `Bad`. The firings from `A` are still counted.
    #[test]
    fn a_self_loop_whose_root_has_a_receiver_is_expanded() {
        let net = with_chatter(cycle(true));
        for workers in [1usize, 2] {
            let SymbolicVerdict::Unsafe(ce) = reach_bad(&net, workers) else {
                panic!("the delivered ping reaches m.Bad");
            };
            assert_eq!(
                format!("{ce}"),
                "symbolic safety violation: location `m.Bad` is reachable\n    \
                 1. initial state\n    \
                 2. m: A -> B\n    \
                 3. chatter: Top -> Top; deliver ping to m; m: B -> Bad (recv ping)\n  \
                 zone: 2 <= m.x",
                "{workers} workers"
            );
        }
    }

    /// `Wait`'s invariant `x ≤ 5` has an urgent escape to `Bad`, and
    /// extrapolation widens the `Wait` entry's zone past it. The
    /// chatter's firing from that entry must not be counted: its
    /// expansion settles the sub-zone within the invariant and sends
    /// the one beyond it down the escape. That witness is the least of
    /// its round, ahead of `m`'s own firing of the escape edge.
    #[test]
    fn an_urgent_escape_past_an_extrapolated_invariant_still_fires() {
        let m = TaAutomaton {
            name: "m".to_string(),
            locations: vec![
                loc("Init", Vec::new()),
                loc("Wait", vec![x(Rel::Le, 5)]),
                loc("Bad", Vec::new()),
            ],
            edges: vec![
                TaEdge {
                    resets: vec![(1, 0)],
                    ..edge(0, 1)
                },
                TaEdge {
                    urgent: true,
                    ..edge(1, 2)
                },
            ],
            initial: 0,
        };
        let net = with_chatter(m);
        for workers in [1usize, 2] {
            let SymbolicVerdict::Unsafe(ce) = reach_bad(&net, workers) else {
                panic!("the escape reaches m.Bad");
            };
            assert_eq!(
                format!("{ce}"),
                "symbolic safety violation: location `m.Bad` is reachable\n    \
                 1. initial state\n    \
                 2. m: Init -> Wait\n    \
                 3. chatter: Top -> Top; m invariant expired; m: Wait -> Bad\n  \
                 zone: 5 < m.x",
                "{workers} workers"
            );
        }
    }

    /// The hinted round must pick the least violation, not the first one
    /// in frontier order, which follows the shard hash of each entry's
    /// locations. Each pair of mirrored networks below puts the least
    /// violation first in frontier order in one and last in the other.
    /// With distinct paths (`A` < `B`) the least path decides; with
    /// equal ones (`L`, `L`) the whole group is expanded and the lower
    /// violation rank (the first `Bad`) decides.
    #[test]
    fn the_hinted_round_reports_the_least_violation_not_the_first() {
        let cases = [
            (["A", "B"], [3, 3]),
            (["B", "A"], [3, 3]),
            (["L", "L"], [3, 4]),
            (["L", "L"], [4, 3]),
        ];
        for (names, bad) in cases {
            let net = fan(names, bad);
            let monitor = crate::LocationReachMonitor::new(&net, &[("m", "Bad")]).unwrap();
            for workers in [1usize, 2] {
                let limits = Limits {
                    max_workers: workers,
                    ..Limits::default()
                };
                let run = |goal| check_monitored_with(&net, &monitor, &limits, None, goal).unwrap();
                let round = violated_round(&run(Goal::Verdict));
                assert_eq!(round, 2);
                let witness = |goal| match run(goal).verdict() {
                    SymbolicVerdict::Unsafe(ce) => *ce,
                    v => panic!("{names:?}: expected a violation, got {v}"),
                };
                let (plain, hinted) = (witness(Goal::Witness), witness(Goal::WitnessAt(round)));
                assert_eq!(
                    format!("{hinted:?}"),
                    format!("{plain:?}"),
                    "{names:?} {bad:?}"
                );
                assert_eq!(hinted.rank, (0, 0), "{names:?} {bad:?}");
                let via = if names[0] == names[1] { "L" } else { "A" };
                assert_eq!(hinted.steps[1], format!("m: Init -> {via}"));
            }
        }
    }

    /// The verdict-only search stops in the round whose violations the
    /// witness search reports, after the same rounds, at every worker
    /// count: the rounds before it are expanded in full by both.
    #[test]
    fn the_verdict_only_search_stops_in_the_witness_round() {
        for name in ["case-study", "stress-lossy", "chain-2", "chain-4"] {
            let p = arm(name, false);
            for workers in [1usize, 2, 4, 8] {
                let (verdict, verdict_rounds) = search(&p, true, workers, Goal::Verdict);
                let (witness, witness_rounds) = search(&p, true, workers, Goal::Witness);
                assert!(witness.verdict().is_unsafe(), "{name}");
                // One progress snapshot opens every round after the
                // seed, so the violating round is the snapshot count.
                assert_eq!(
                    violated_round(&verdict),
                    witness_rounds.len(),
                    "{name}, {workers} workers"
                );
                assert_eq!(verdict_rounds, witness_rounds, "{name}, {workers} workers");
            }
        }
    }
}
