//! Zone-graph reachability of a [`TaNetwork`] composed with a safety
//! [`Monitor`] — parallel, sharded, and deterministic.
//!
//! The engine explores the product of a [`TaNetwork`] and a monitor
//! symbolically: a state is a location vector plus the monitor's
//! observer state plus a zone (DBM) over every clock (network clocks
//! and observer clocks), and the passed/waiting-list algorithm with
//! zone inclusion and extrapolation (maximal-constant `Extra_M` or the
//! coarser LU-bound `Extra_LU`, selectable via
//! [`Limits::extrapolation`]) guarantees termination. Every
//! drop/deliver assignment of every wireless emission and every
//! real-valued timing is covered — the dense-time completion of
//! `pte-verify`'s bounded `2^k` exhaustive exploration.
//!
//! ## Parallel sharding
//!
//! The passed list is sharded by a hash of the discrete part of the
//! state (location vector + observer state) into [`SHARD_COUNT`]
//! shards, each behind its own `parking_lot::Mutex`. Because a zone can
//! only subsume another zone with the *same* discrete part, subsumption
//! is a shard-local operation and shards never need to coordinate.
//!
//! Exploration proceeds in BFS layers with two phases per round, run by
//! a pool of `crossbeam` scoped workers spawned once per check
//! ([`Limits::max_workers`]) and coordinated with epoch counters and
//! spin/yield barriers (thread spawning costs ≈1 ms on some kernels —
//! far more than a round):
//!
//! 1. **Expand** — workers claim frontier states from a shared cursor
//!    (an atomic index over the round's frontier vector), fire every
//!    enabled edge, resolve emission cascades, apply delay closure +
//!    extrapolation, and run all monitor checks. Cooked successor
//!    candidates are pushed into the pending list of their target shard;
//!    violations are collected worker-locally.
//! 2. **Admit** — workers claim whole shards from a second cursor. Each
//!    shard sorts its pending candidates into a *content-defined* order
//!    (discrete key, then zone matrix, then parent id, then action
//!    text), discards those subsumed by an already-passed zone, and
//!    appends the survivors to the shard's node arena and the next
//!    frontier.
//!
//! ## Determinism
//!
//! The verdict (`Safe` / `Unsafe` / `OutOfBudget`) and the reported
//! counter-example are identical for every worker count:
//!
//! * the frontier of round `r + 1` is a pure function of the frontier of
//!   round `r` — phase 1 only reads shared state, and phase 2 admits
//!   each shard's candidates in the content-defined order above, so
//!   races can only reorder *work*, never results;
//! * violations never abort the round; they are collected, and once the
//!   round completes the engine reports the **lexicographically least
//!   violating trace** (by step list, then violation kind, then zone),
//!   which is a content-defined choice independent of which worker found
//!   it first. Layered BFS additionally guarantees the reported trace
//!   belongs to the *earliest* round containing any violation;
//! * budget checks run at round boundaries only, so `OutOfBudget`
//!   verdicts trip at the same round for every worker count (the
//!   optional wall-clock limit is the one deliberately nondeterministic
//!   exception).
//!
//! The property being checked is **not** part of this engine: it is a
//! [`Monitor`] (see [`crate::monitor`]) composed with the network —
//! observer clocks live in the DBM dimensions above the network's
//! clocks, observer locations are part of the passed-list key, and the
//! monitor's constants are folded into the extrapolation bound sets
//! (which is what keeps the pre-extrapolation subsumption probe below
//! sound for *any* monitor, not just the PTE observer the engine once
//! hard-coded). [`check`] is the PTE entry point (it composes a
//! [`PteMonitor`]); [`check_monitored`] takes any monitor.
//!
//! ## Hot-path engineering
//!
//! Three layers keep the per-state cost low:
//!
//! * **Closure that only redoes what changed** — no per-state step
//!   runs a full O(n³) Floyd–Warshall; each re-closes just the entries
//!   its operation can affect, and each yields the unique canonical
//!   form a full closure would, so results are bit-identical:
//!   - guards and urgent splits tighten one entry at a time
//!     ([`crate::ta::Atom::apply_and_close`] → [`Dbm::close1`],
//!     O(n²)): every shorter path uses the new edge exactly once;
//!   - delay conjoins all location invariants after `up()` in one pass
//!     ([`Dbm::constrain_upper_and_close`]): each invariant edge enters
//!     the reference clock, so a shortest path uses at most one of
//!     them — column 0 takes the best, then only the rows it improved
//!     extend through row 0;
//!   - extrapolation relaxes only the entries it loosened, over every
//!     pivot (O(n·k)): raising entries of a closed matrix cannot
//!     shorten any path, so every other entry is already final.
//!
//!   A full closure remains only where a matrix is rebuilt from stored
//!   constraints (warm-start validation,
//!   [`crate::dbm::MinimalDbm::restore`]).
//! * **Interned, allocation-free successor plumbing** — action labels
//!   are fixed-size `Act` codes (rendered to strings only when a
//!   counter-example is reported), event roots are interned into
//!   `u16` ids with per-`(automaton, location)` dispatch tables
//!   replacing edge scans, discrete keys are interned per shard into
//!   `u32` ids ([`crate::intern::Interner`]), and successor zones are
//!   drawn from a per-worker [`DbmPool`] free-list.
//! * **Compressed passed list** — settled zones are stored in minimal
//!   constraint form ([`Dbm::reduce`], typically O(n) constraints
//!   instead of the full `(n+1)²` matrix) with subsumption checked
//!   directly against the compact form
//!   ([`crate::dbm::MinimalDbm::includes`]); reduction allocates only
//!   its result, and the measured footprint is
//!   reported in [`SearchStats::peak_passed_bytes`]. Candidates are
//!   additionally probed against the passed list *before*
//!   extrapolation: a subsumed candidate's concrete behaviours are all
//!   covered by an explored (and violation-free) state, so it is
//!   dropped without paying for extrapolation or admission.
//!
//! Determinism is unchanged: canonical forms are unique and every
//! admission/drop decision is content-defined, so verdicts, stored
//! zones, and counter-examples are bit-for-bit identical at every
//! worker count. The *explored set* can differ slightly from the PR 2
//! engine, though — the pre-extrapolation probe drops candidates whose
//! (non-monotone) `Extra⁺_LU` widening the old engine would have
//! admitted — so settled-state counts are comparable only within a
//! version, never across the optimization boundary.

use crate::analysis::{analyze, ActivityMasks, ModelAnalysis};
use crate::artifact::{
    atom_ticks, masks_digest, net_structure_digest, ArtifactSink, PassedArtifact, PassedEntry,
};
use crate::dbm::{Dbm, DbmPool, MinimalDbm};
use crate::intern::Interner;
use crate::monitor::{
    Monitor, MonitorState, MonitorViolation, ObserverSpec, PteMonitor, TransitionCtx,
};
use crate::ta::{LuBounds, Sync, TaNetwork};
use parking_lot::{Mutex, RwLock};
use pte_hybrid::Root;
use std::collections::{HashMap, VecDeque};
use std::fmt;
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
    /// Content-defined violation rank ([`MonitorViolation::rank`]) used
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
    /// DBM clock dimensions the search actually explored (network plus
    /// observer clocks, *after* the static clock reduction when
    /// [`Limits::reduce_clocks`] is on).
    pub dbm_clocks: usize,
    /// DBM clock dimensions the unreduced network would have used.
    /// Equal to [`SearchStats::dbm_clocks`] when reduction is off or
    /// found nothing to drop.
    pub dbm_clocks_unreduced: usize,
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
    /// search ([`check`] only): drop/merge provably redundant network
    /// clocks (shrinking every DBM) and free per-location dead clocks
    /// during exploration, exactly as the monitor already does for its
    /// observer clocks. On by default; the verdict and the
    /// counter-example text are identical either way — a violation
    /// found in the reduced space is re-derived on the unreduced
    /// network, so witnesses never mention a remapped clock.
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

/// Discrete part of a product state: the network's location vector plus
/// the monitor's observer state.
type Key = (Vec<u32>, MonitorState);

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

/// One step of a discrete action, as a fixed-size code. The hot path
/// moves and compares these 8-byte values; the human-readable strings
/// of PR 2 are produced only when a counter-example is rendered
/// (`Engine::render_act`). Automata are referenced by index, event
/// roots by interned id (`Engine::roots`). The derived `Ord` gives the
/// content-defined tie-break order previously provided by action text.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
enum Act {
    /// The seed state.
    Initial,
    /// Edge `eid` of automaton `aut` fired.
    Edge { aut: u16, eid: u16 },
    /// Event `root` delivered to `aut`.
    Deliver { root: u16, aut: u16 },
    /// Event `root` dropped by the wireless hop / ignored by `aut`.
    Lost { root: u16, aut: u16 },
    /// Event `root` ignored by `aut` on the sub-zone where its single
    /// guarded edge is disabled.
    GuardOff { root: u16, aut: u16 },
    /// Event `root` possibly ignored by `aut` (over-approximated fate
    /// when several guarded reliable edges compete).
    MaybeIgnored { root: u16, aut: u16 },
    /// `aut`'s location invariant expired, forcing an urgent escape.
    InvariantExpired { aut: u16 },
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

/// A fully cooked successor: delay-closed, activity-reduced,
/// extrapolated, and observer-checked — everything except subsumption,
/// which is phase 2's shard-local job. Carries the key *content* (not
/// an id) because admission order — and hence interning order — must be
/// content-defined.
struct Candidate {
    key: Key,
    zone: Dbm,
    parent: Option<NodeId>,
    acts: Vec<Act>,
}

impl Candidate {
    /// Content-defined admission order: discrete key, zone matrix,
    /// parent id, action codes. Sorting pending candidates by this key
    /// makes phase 2 independent of phase-1 arrival order.
    fn order_key(&self) -> (&Key, &Dbm, Option<NodeId>, &[Act]) {
        (&self.key, &self.zone, self.parent, &self.acts)
    }
}

/// A frontier entry: a settled node plus the clones phase 1 needs to
/// expand it without touching its home shard.
struct FrontierEntry {
    id: NodeId,
    locs: Vec<u32>,
    mon: MonitorState,
    zone: Dbm,
}

/// In-flight resolution work: a state mid-cascade (pending emissions not
/// yet assigned a fate) with the actions taken so far this step.
struct Work {
    locs: Vec<u32>,
    mon: MonitorState,
    zone: Dbm,
    /// In-flight emissions: `(sender automaton, interned root id)` —
    /// the sender is excluded from delivery (the executor never
    /// self-delivers).
    queue: VecDeque<(u32, u16)>,
    acts: Vec<Act>,
}

impl Work {
    /// Clones this work item, drawing the zone copy from `pool`.
    fn clone_via(&self, pool: &mut DbmPool) -> Work {
        Work {
            locs: self.locs.clone(),
            mon: self.mon.clone(),
            zone: pool.clone_dbm(&self.zone),
            queue: self.queue.clone(),
            acts: self.acts.clone(),
        }
    }
}

/// A monitor violation with the engine-side context a counter-example
/// needs: the action trace of the violating step and the violating
/// (sub-)zone.
struct Violation {
    mv: MonitorViolation,
    acts: Vec<Act>,
    zone: Dbm,
}

/// Worker-local tallies merged into [`SearchStats`] at round barriers.
#[derive(Default)]
struct LocalStats {
    transitions: usize,
    /// Successors dropped by the pre-extrapolation subsumption probe.
    subsumed: usize,
}

/// Maximum zero-time cascade depth (urgent chains + deliveries) before
/// the engine settles a state as-is; prevents pathological recursion on
/// malformed inputs.
const CASCADE_DEPTH: usize = 128;

/// One receiving edge in a location's dispatch table.
#[derive(Clone, Copy)]
struct RecvEdge {
    /// Interned root id this edge listens for.
    root: u16,
    /// Edge index within the owning automaton.
    eid: u32,
    /// `true` for lossy wireless receives.
    lossy: bool,
}

struct Engine<'s> {
    /// The lowered network, **borrowed** — the monitor's observer
    /// clocks live in the DBM dimensions above
    /// [`TaNetwork::clock_count`], so the network itself is never
    /// cloned or mutated.
    net: &'s TaNetwork,
    /// The composed safety monitor (see [`crate::monitor`]).
    monitor: &'s dyn Monitor,
    /// Total clock count (network + observer clocks).
    nclocks: usize,
    /// `Extra_M` ceiling vector (network + monitor constants).
    kmax: Vec<i64>,
    /// `Extra_LU` bound vectors (network + monitor constants).
    lu: LuBounds,
    extrapolation: Extrapolation,
    /// Interned event roots (`Act`/queue ids index into this).
    roots: Vec<Root>,
    /// `spont[ai][loc]` — spontaneous/external edges leaving `loc`.
    spont: Vec<Vec<Vec<u32>>>,
    /// `urgent[ai][loc]` — urgent escape edges leaving `loc`.
    urgent: Vec<Vec<Vec<u32>>>,
    /// `recv[ai][loc]` — receiving edges leaving `loc`, by root id.
    recv: Vec<Vec<Vec<RecvEdge>>>,
    /// `emit_ids[ai][eid]` — interned roots the edge emits.
    emit_ids: Vec<Vec<Vec<u16>>>,
    /// Per-location dead-clock masks over the *network's* clock space
    /// (already in `net`'s indices when `net` is a reduced network).
    /// `None` when reduction is off or the masks are trivial.
    masks: Option<&'s ActivityMasks>,
    shards: Vec<Mutex<Shard>>,
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

    // Static analysis first: drop/merge provably redundant network
    // clocks (smaller DBMs on every operation) and collect per-location
    // dead-clock masks for the search to free, the same collapse the
    // monitor already applies to its own observer clocks.
    let reduced;
    let rnet: &TaNetwork = if analysis.reduction.is_identity() {
        net
    } else {
        reduced = analysis.reduction.apply(net);
        &reduced
    };
    let monitor = PteMonitor::new(rnet, spec)?;
    let masks = (analysis.activity.clocks != 0 && !analysis.activity.is_trivial())
        .then_some(&analysis.activity);

    match check_monitored_with(rnet, &monitor, limits, masks)? {
        // Rerun-on-violation: the reduced search is the fast path for
        // proofs; a falsification is re-derived on the unreduced
        // network, so the counter-example text (clock names, zone
        // constraints, step list) is byte-identical to a run with the
        // analysis off: the engine's determinism guarantee extended
        // across the knob. Freeing dead clocks never removes a
        // reachable violation, so the rerun finds a violation too; if
        // it instead trips a budget first, that inconclusive verdict
        // is returned as-is — conservative, never wrong.
        SymbolicVerdict::Unsafe(_) => {
            let mut legacy = limits.clone();
            legacy.reduce_clocks = false;
            // The rerun exists only to render the counter-example on
            // the unreduced network: it must neither consume the warm
            // artifact (captured on the *reduced* network) nor emit one.
            legacy.warm_start = None;
            legacy.capture = None;
            check(net, spec, &legacy)
        }
        SymbolicVerdict::Safe(mut stats) => {
            stats.dbm_clocks_unreduced = net.clock_count() + monitor.clock_names().len();
            Ok(SymbolicVerdict::Safe(stats))
        }
        SymbolicVerdict::OutOfBudget { mut stats, tripped } => {
            stats.dbm_clocks_unreduced = net.clock_count() + monitor.clock_names().len();
            Ok(SymbolicVerdict::OutOfBudget { stats, tripped })
        }
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
    check_monitored_with(net, monitor, limits, None)
}

/// [`check_monitored`] plus optional per-location dead-clock masks over
/// `net`'s clock space (what [`check`] computes from the static
/// analysis — callers handing masks for a *different* network would
/// free live clocks and lose soundness, hence not public).
fn check_monitored_with(
    net: &TaNetwork,
    monitor: &dyn Monitor,
    limits: &Limits,
    masks: Option<&ActivityMasks>,
) -> Result<SymbolicVerdict, String> {
    let base = net.clock_count();
    let nclocks = base + monitor.clock_names().len();

    // Maximal constants: network constants plus whatever the monitor's
    // guards compare its clocks against.
    let mut kmax = net.max_constants();
    kmax.resize(nclocks + 1, 0);
    let mut lu = net.lu_bounds();
    lu.lower.resize(nclocks + 1, 0);
    lu.upper.resize(nclocks + 1, 0);
    monitor.fold_bounds(&mut kmax, &mut lu);

    // `Act` codes and interned root ids index automata/edges/roots with
    // u16, and the minimal constraint form ([`Dbm::reduce`]) indexes
    // clocks with u8; reject (rather than silently truncate) networks
    // beyond those bounds, far past anything the lowering produces.
    if net.automata.len() > u16::MAX as usize
        || net
            .automata
            .iter()
            .any(|a| a.edges.len() > u16::MAX as usize)
    {
        return Err("network too large: more than 65535 automata or edges per automaton".into());
    }
    if nclocks + 1 > u8::MAX as usize {
        return Err(format!(
            "network too large: {nclocks} clocks (incl. observer clocks) exceed the \
             254-clock limit of the compressed passed list"
        ));
    }

    // Warm start: when a prior run's artifact survives every validity
    // gate against *this* model, its passed list is a complete proof
    // and the search is answered by transfer — no exploration at all.
    // Any gate failure falls through to the cold search below.
    if let Some(art) = &limits.warm_start {
        if let Some(stats) = try_warm_start(art, net, monitor, masks, limits, nclocks) {
            if let Some(sink) = &limits.capture {
                // Pass the original artifact through unchanged:
                // chained warm starts then always admit against the
                // original proof (the weakening order is transitive).
                *sink.lock() = Some((**art).clone());
            }
            return Ok(SymbolicVerdict::Safe(stats));
        }
    }

    // Intern every event root in deterministic first-seen order over
    // the network. Roots accumulate *across* automata, so their count
    // is bounded separately from the per-automaton edge guard above —
    // and gracefully, like the other size limits.
    let mut roots: Vec<Root> = Vec::new();
    let mut root_ids: HashMap<Root, u16> = HashMap::new();
    for aut in &net.automata {
        for e in &aut.edges {
            for r in e.sync.root().into_iter().chain(e.emits.iter()) {
                if root_ids.contains_key(r) {
                    continue;
                }
                if roots.len() > u16::MAX as usize {
                    return Err(
                        "network too large: more than 65536 distinct event roots".to_string()
                    );
                }
                root_ids.insert(r.clone(), roots.len() as u16);
                roots.push(r.clone());
            }
        }
    }

    // Per-(automaton, location) dispatch tables replacing per-expansion
    // edge scans.
    let mut spont = Vec::with_capacity(net.automata.len());
    let mut urgent = Vec::with_capacity(net.automata.len());
    let mut recv = Vec::with_capacity(net.automata.len());
    let mut emit_ids = Vec::with_capacity(net.automata.len());
    for aut in &net.automata {
        let nloc = aut.locations.len();
        let mut sp = vec![Vec::new(); nloc];
        let mut ur = vec![Vec::new(); nloc];
        let mut rc: Vec<Vec<RecvEdge>> = vec![Vec::new(); nloc];
        let mut em = Vec::with_capacity(aut.edges.len());
        for (eid, e) in aut.edges.iter().enumerate() {
            match &e.sync {
                Sync::None | Sync::External(_) => sp[e.src].push(eid as u32),
                Sync::Reliable(r) => rc[e.src].push(RecvEdge {
                    root: root_ids[r],
                    eid: eid as u32,
                    lossy: false,
                }),
                Sync::Lossy(r) => rc[e.src].push(RecvEdge {
                    root: root_ids[r],
                    eid: eid as u32,
                    lossy: true,
                }),
            }
            if e.urgent {
                ur[e.src].push(eid as u32);
            }
            em.push(e.emits.iter().map(|r| root_ids[r]).collect::<Vec<u16>>());
        }
        spont.push(sp);
        urgent.push(ur);
        recv.push(rc);
        emit_ids.push(em);
    }

    let engine = Engine {
        net,
        monitor,
        nclocks,
        kmax,
        lu,
        extrapolation: limits.extrapolation,
        roots,
        spont,
        urgent,
        recv,
        emit_ids,
        masks,
        shards: (0..SHARD_COUNT)
            .map(|_| Mutex::new(Shard::default()))
            .collect(),
    };
    let verdict = engine.run(limits);
    if let (Some(sink), SymbolicVerdict::Safe(_)) = (&limits.capture, &verdict) {
        if let Some(profile) = monitor.warm_profile() {
            *sink.lock() = Some(capture_artifact(&engine, limits, masks, profile));
        }
    }
    Ok(verdict)
}

/// Validates `art` against the model about to be searched and, when
/// every gate passes, returns the transferred-proof `Safe` statistics.
/// `None` means "cold-start instead" — the only failure mode.
///
/// Soundness of the transfer: the structural digest plus elementwise
/// tick equality pin the lowered network exactly, so the zone graph and
/// the monitor's state evolution are those of the proved run; the
/// monitor profile admission ([`crate::WarmProfile::admits`]) means
/// every new violation predicate is a subset of an old one; hence the
/// old "no violation reachable" verdict covers the new model verbatim.
/// The per-entry re-validation below (shape checks, non-empty restore,
/// re-running the *new* monitor's settled check on every stored zone)
/// is defense in depth against a corrupt or mismatched artifact that
/// happens to pass the digests.
fn try_warm_start(
    art: &PassedArtifact,
    net: &TaNetwork,
    monitor: &dyn Monitor,
    masks: Option<&ActivityMasks>,
    limits: &Limits,
    nclocks: usize,
) -> Option<SearchStats> {
    let profile = monitor.warm_profile()?;
    if art.nclocks != nclocks
        || art.extrapolation != limits.extrapolation
        || art.net_digest != net_structure_digest(net)
        || art.masks_digest != masks_digest(masks)
        || art.atom_ticks != atom_ticks(net)
        || !art.profile.admits(&profile)
        || art.entries.is_empty()
    {
        return None;
    }
    let mon_len = monitor.initial_state().len();
    let mut scratch = Dbm::universe(nclocks);
    for e in &art.entries {
        if e.locs.len() != net.automata.len()
            || e.mon.len() != mon_len
            || usize::from(e.zone.dim()) != nclocks + 1
        {
            return None;
        }
        if e.locs
            .iter()
            .zip(&net.automata)
            .any(|(&l, aut)| l as usize >= aut.locations.len())
        {
            return None;
        }
        e.zone.restore_into(&mut scratch);
        if scratch.is_empty() || monitor.check_settled(&e.locs, &e.mon, &scratch).is_err() {
            return None;
        }
    }
    Some(SearchStats {
        states: art.entries.len(),
        warm_seeded: art.entries.len(),
        dbm_clocks: nclocks,
        dbm_clocks_unreduced: nclocks,
        ..SearchStats::default()
    })
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
        nclocks: engine.nclocks,
        extrapolation: limits.extrapolation,
        reduce_clocks: limits.reduce_clocks,
        net_digest: net_structure_digest(engine.net),
        atom_ticks: atom_ticks(engine.net),
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
    /// Helper-side transition / subsumption tallies.
    transitions: AtomicUsize,
    subsumed: AtomicUsize,
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
            helper_panicked: std::sync::atomic::AtomicBool::new(false),
        }
    }

    fn ctl(&self) -> std::sync::MutexGuard<'_, PhaseCtl> {
        self.phase.lock().expect("phase lock poisoned")
    }
}

impl Engine<'_> {
    fn run(&self, limits: &Limits) -> SymbolicVerdict {
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

    /// Sums the per-shard passed-list byte accounting into `stats`.
    fn fold_passed_bytes(&self, stats: &mut SearchStats) {
        let (mut min_bytes, mut full_bytes) = (0usize, 0usize);
        for shard in &self.shards {
            let s = shard.lock();
            min_bytes += s.min_bytes;
            full_bytes += s.full_bytes;
        }
        stats.peak_passed_bytes = min_bytes;
        stats.peak_passed_bytes_full = full_bytes;
    }

    /// The coordinator: seeds the search, then alternates expand/admit
    /// phases (participating in each) until a verdict is reached.
    fn drive(&self, sync: &RoundSync, limits: &Limits, helpers: usize) -> SymbolicVerdict {
        let started = Instant::now();
        let mut stats = SearchStats {
            // `check` overwrites the unreduced count when it ran the
            // reduction; on the direct path both are the real dimension.
            dbm_clocks: self.nclocks,
            dbm_clocks_unreduced: self.nclocks,
            ..SearchStats::default()
        };
        let mut pool = DbmPool::new();

        // Seed round: resolve + cook the initial state on this thread.
        let init = Work {
            locs: self.net.automata.iter().map(|a| a.initial as u32).collect(),
            mon: self.monitor.initial_state(),
            zone: Dbm::zero(self.nclocks),
            queue: VecDeque::new(),
            acts: vec![Act::Initial],
        };
        let mut local = LocalStats::default();
        let mut settled = Vec::new();
        let mut violations: Vec<(Option<NodeId>, Violation)> = Vec::new();
        match self.resolve(init, 0, &mut settled, &mut local, &mut pool) {
            Ok(()) => {}
            Err(v) => violations.push((None, *v)),
        }
        for w in settled {
            match self.cook(w, None, &mut local, &mut pool) {
                Ok(Some(c)) => self.shards[shard_of(&c.key)].lock().pending.push(c),
                Ok(None) => {}
                Err(v) => violations.push((None, *v)),
            }
        }
        stats.transitions += local.transitions;
        stats.subsumed += local.subsumed;
        if !violations.is_empty() {
            return self.least_counter_example(violations);
        }
        let mut frontier = self.admit_phase(sync, helpers, &mut stats, &mut pool);

        let mut round = 0usize;
        loop {
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
            if limits
                .cancel
                .as_ref()
                .is_some_and(CancelToken::is_cancelled)
            {
                stats.frontier = frontier.len();
                self.fold_passed_bytes(&mut stats);
                return SymbolicVerdict::OutOfBudget {
                    stats,
                    tripped: TrippedLimit::Cancelled,
                };
            }
            if frontier.is_empty() {
                stats.frontier = 0;
                self.fold_passed_bytes(&mut stats);
                return SymbolicVerdict::Safe(stats);
            }
            if stats.states > limits.max_states {
                stats.frontier = frontier.len();
                self.fold_passed_bytes(&mut stats);
                return SymbolicVerdict::OutOfBudget {
                    stats,
                    tripped: TrippedLimit::MaxStates(limits.max_states),
                };
            }
            if let Some(budget) = limits.max_wall {
                if started.elapsed() > budget {
                    stats.frontier = frontier.len();
                    self.fold_passed_bytes(&mut stats);
                    return SymbolicVerdict::OutOfBudget {
                        stats,
                        tripped: TrippedLimit::WallClock(budget),
                    };
                }
            }
            let violations = self.expand_phase(sync, frontier, helpers, &mut stats, &mut pool);
            if !violations.is_empty() {
                return self.least_counter_example(violations);
            }
            frontier = self.admit_phase(sync, helpers, &mut stats, &mut pool);
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
                        self.expand_work(&frontier, &sync.cursor, pool)
                    };
                    sync.transitions
                        .fetch_add(local.transitions, Ordering::Relaxed);
                    sync.subsumed.fetch_add(local.subsumed, Ordering::Relaxed);
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
            self.expand_work(&frontier, &sync.cursor, pool)
        };
        self.wait_helpers(sync, helpers);
        stats.transitions += local.transitions + sync.transitions.swap(0, Ordering::Relaxed);
        stats.subsumed += local.subsumed + sync.subsumed.swap(0, Ordering::Relaxed);
        violations.append(&mut sync.violations.lock());
        violations
    }

    /// One worker's share of an expand phase: claim frontier entries
    /// from the shared cursor, expand them, flush staged candidates to
    /// their shards (one lock per shard per phase).
    fn expand_work(
        &self,
        frontier: &[FrontierEntry],
        cursor: &AtomicUsize,
        pool: &mut DbmPool,
    ) -> (LocalStats, Vec<(Option<NodeId>, Violation)>) {
        let mut local = LocalStats::default();
        let mut violations = Vec::new();
        let mut staged: Vec<Vec<Candidate>> = (0..SHARD_COUNT).map(|_| Vec::new()).collect();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(entry) = frontier.get(i) else { break };
            self.expand(entry, &mut staged, &mut violations, &mut local, pool);
        }
        for (s, mut batch) in staged.into_iter().enumerate() {
            if !batch.is_empty() {
                self.shards[s].lock().pending.append(&mut batch);
            }
        }
        (local, violations)
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
            for c in pending {
                debug_assert!(
                    c.zone.closed_through_zero(),
                    "candidates must arrive canonical"
                );
                let (kid, new_key) = keys.intern(&c.key);
                if new_key {
                    buckets.push(Vec::new());
                }
                let bucket = &mut buckets[kid as usize];
                if bucket
                    .iter()
                    .any(|&ni| nodes[ni as usize].zone.includes(&c.zone))
                {
                    subsumed += 1;
                    pool.recycle(c.zone);
                    continue;
                }
                let reduced = c.zone.reduce();
                *min_bytes += reduced.heap_bytes();
                *full_bytes += reduced.full_matrix_bytes();
                let idx = nodes.len() as u32;
                nodes.push(Node {
                    zone: reduced,
                    parent: c.parent,
                    acts: c.acts.into_boxed_slice(),
                });
                bucket.push(idx);
                fresh.push(FrontierEntry {
                    id: NodeId {
                        shard: s as u32,
                        idx,
                    },
                    locs: c.key.0,
                    mon: c.key.1,
                    zone: c.zone,
                });
            }
            admitted.push((s, fresh));
        }
        (admitted, subsumed)
    }

    /// Expands one settled state: fires every spontaneous/external edge,
    /// resolves the emission cascade, cooks the settled successors into
    /// shard-staged candidates, and records violations. A violation in
    /// one edge branch never hides violations or successors of sibling
    /// branches (determinism requires the full per-node violation set).
    fn expand(
        &self,
        entry: &FrontierEntry,
        staged: &mut [Vec<Candidate>],
        violations: &mut Vec<(Option<NodeId>, Violation)>,
        local: &mut LocalStats,
        pool: &mut DbmPool,
    ) {
        for ai in 0..self.net.automata.len() {
            let loc = entry.locs[ai] as usize;
            for &eid in &self.spont[ai][loc] {
                let eid = eid as usize;
                // Guards are pre-tested atom-by-atom on the parent zone,
                // skipping the Work clone entirely when any single atom
                // is unsatisfiable (necessary condition; the joint
                // conjunction is still checked by apply_edge).
                let guard = &self.net.automata[ai].edges[eid].guard;
                if guard.iter().any(|a| !a.satisfiable_in(&entry.zone)) {
                    continue;
                }
                let mut w = Work {
                    locs: entry.locs.clone(),
                    mon: entry.mon.clone(),
                    zone: pool.clone_dbm(&entry.zone),
                    queue: VecDeque::new(),
                    acts: Vec::new(),
                };
                match self.apply_edge(&mut w, ai, eid, local) {
                    Ok(true) => {}
                    Ok(false) => {
                        pool.recycle(w.zone);
                        continue;
                    }
                    Err(v) => {
                        violations.push((Some(entry.id), *v));
                        pool.recycle(w.zone);
                        continue;
                    }
                }
                let mut settled = Vec::new();
                if let Err(v) = self.resolve(w, 0, &mut settled, local, pool) {
                    violations.push((Some(entry.id), *v));
                    continue;
                }
                for s in settled {
                    match self.cook(s, Some(entry.id), local, pool) {
                        Ok(Some(c)) => staged[shard_of(&c.key)].push(c),
                        Ok(None) => {}
                        Err(v) => violations.push((Some(entry.id), *v)),
                    }
                }
            }
        }
    }

    /// Packages a monitor violation with the trace context of `w` (the
    /// monitor's witness sub-zone when it tightened one, the current
    /// zone otherwise).
    fn violation(&self, mut mv: MonitorViolation, w: &Work) -> Box<Violation> {
        let zone = mv.witness.take().unwrap_or_else(|| w.zone.clone());
        Box::new(Violation {
            mv,
            acts: w.acts.clone(),
            zone,
        })
    }

    /// Fires edge `eid` of automaton `ai` on `w` in place: guard
    /// restriction (incremental closure — the zone stays canonical
    /// throughout, no Floyd–Warshall), monitor transition checks,
    /// resets, location move, emission enqueue. `Ok(false)` when the
    /// guard is unsatisfiable (the caller recycles `w.zone`).
    fn apply_edge(
        &self,
        w: &mut Work,
        ai: usize,
        eid: usize,
        local: &mut LocalStats,
    ) -> Result<bool, Box<Violation>> {
        let edge = &self.net.automata[ai].edges[eid];
        for atom in &edge.guard {
            if !atom.apply_and_close(&mut w.zone) {
                return Ok(false);
            }
        }
        local.transitions += 1;
        w.acts.push(Act::Edge {
            aut: ai as u16,
            eid: eid as u16,
        });

        // Monitor observation: guard applied, resets and location move
        // still pending (`ctx.locs` shows the pre-move vector).
        let ctx = TransitionCtx {
            net: self.net,
            aut: ai,
            src: edge.src,
            dst: edge.dst,
            locs: &w.locs,
        };
        let Work {
            ref mut mon,
            ref mut zone,
            ..
        } = *w;
        if let Err(mv) = self.monitor.on_transition(&ctx, mon, zone) {
            return Err(self.violation(mv, w));
        }

        let edge = &self.net.automata[ai].edges[eid];
        for (clock, v) in &edge.resets {
            w.zone.reset(*clock, *v);
        }
        w.locs[ai] = edge.dst as u32;
        for &rid in &self.emit_ids[ai][eid] {
            w.queue.push_back((ai as u32, rid));
        }
        Ok(true)
    }

    /// Assigns a delivery fate to receiver `idx` of an in-flight event
    /// and recurses over the remaining receivers (in automaton order,
    /// matching the executor's broadcast order), producing the full
    /// cartesian product of per-receiver fates:
    ///
    /// * every enabled receiving edge is a *delivered* branch;
    /// * a **lossy** receiver can always *drop* instead;
    /// * a **reliable** receiver only ignores the event where no edge of
    ///   its is enabled — exact via guard-atom negation for a single
    ///   guarded edge, conservatively over-approximated (full-zone
    ///   ignore, which can only add behaviours, never hide one) when
    ///   several guarded edges compete.
    #[allow(clippy::too_many_arguments)]
    fn deliver_fates(
        &self,
        w: Work,
        root: u16,
        receivers: &[(usize, Vec<(usize, bool)>)],
        idx: usize,
        depth: usize,
        out: &mut Vec<Work>,
        local: &mut LocalStats,
        pool: &mut DbmPool,
    ) -> Result<(), Box<Violation>> {
        if idx == receivers.len() {
            return self.resolve(w, depth + 1, out, local, pool);
        }
        let (ai, edges) = &receivers[idx];
        let mut any_delivered = false;
        for (eid, _) in edges {
            let mut branch = w.clone_via(pool);
            branch.acts.push(Act::Deliver {
                root,
                aut: *ai as u16,
            });
            if self.apply_edge(&mut branch, *ai, *eid, local)? {
                any_delivered = true;
                self.deliver_fates(branch, root, receivers, idx + 1, depth, out, local, pool)?;
            } else {
                pool.recycle(branch.zone);
            }
        }
        // Any lossy receiving edge means the wireless hop itself can drop
        // the message (also the conservative fate when an automaton mixes
        // lossy and reliable edges on one root, which the pattern never
        // does); a purely reliable receiver only misses the event where
        // none of its edges is enabled.
        let any_lossy = edges.iter().any(|(_, lossy)| *lossy);
        if any_lossy || !any_delivered {
            // Drop (lossy) or discard (reliable but nowhere enabled).
            let mut branch = w.clone_via(pool);
            branch.acts.push(Act::Lost {
                root,
                aut: *ai as u16,
            });
            self.deliver_fates(branch, root, receivers, idx + 1, depth, out, local, pool)?;
        } else {
            // Reliable and at least one edge delivered somewhere in the
            // zone: the event is still ignored on the sub-zone where no
            // edge is enabled.
            let guarded: Vec<usize> = edges
                .iter()
                .filter(|(eid, _)| !self.net.automata[*ai].edges[*eid].guard.is_empty())
                .map(|(eid, _)| *eid)
                .collect();
            let unguarded_exists = edges.len() > guarded.len();
            if !unguarded_exists && guarded.len() == 1 {
                // Exact complement: one guarded edge, branch per negated
                // guard atom.
                for atom in &self.net.automata[*ai].edges[guarded[0]].guard {
                    let mut branch = w.clone_via(pool);
                    if !atom.negated().apply_and_close(&mut branch.zone) {
                        pool.recycle(branch.zone);
                        continue;
                    }
                    branch.acts.push(Act::GuardOff {
                        root,
                        aut: *ai as u16,
                    });
                    self.deliver_fates(branch, root, receivers, idx + 1, depth, out, local, pool)?;
                }
            } else if !unguarded_exists {
                // Several guarded reliable edges: over-approximate with a
                // full-zone ignore branch (sound for Safe verdicts).
                let mut branch = w.clone_via(pool);
                branch.acts.push(Act::MaybeIgnored {
                    root,
                    aut: *ai as u16,
                });
                self.deliver_fates(branch, root, receivers, idx + 1, depth, out, local, pool)?;
            }
            // An unguarded reliable edge is always enabled: no ignore
            // fate exists.
        }
        pool.recycle(w.zone);
        Ok(())
    }

    /// Resolves pending emissions (branching on delivery fates) and
    /// invariant-expired sub-zones (firing urgent escapes), collecting
    /// fully settled states.
    fn resolve(
        &self,
        mut w: Work,
        depth: usize,
        out: &mut Vec<Work>,
        local: &mut LocalStats,
        pool: &mut DbmPool,
    ) -> Result<(), Box<Violation>> {
        if depth > CASCADE_DEPTH {
            out.push(w);
            return Ok(());
        }
        if let Some((sender, root)) = w.queue.pop_front() {
            // Candidate receivers, grouped per automaton: the executor
            // broadcasts an emission to every listener except the sender
            // (`route_emission` skips `receiver == sender`), and each
            // listener's wireless delivery has its own drop fate. The
            // per-location dispatch table replaces the full edge scan.
            let mut receivers: Vec<(usize, Vec<(usize, bool)>)> = Vec::new(); // (aut, [(edge, lossy)])
            for ai in 0..self.net.automata.len() {
                if ai == sender as usize {
                    continue;
                }
                let loc = w.locs[ai] as usize;
                let edges: Vec<(usize, bool)> = self.recv[ai][loc]
                    .iter()
                    .filter(|re| re.root == root)
                    .map(|re| (re.eid as usize, re.lossy))
                    .collect();
                if !edges.is_empty() {
                    receivers.push((ai, edges));
                }
            }
            return self.deliver_fates(w, root, &receivers, 0, depth, out, local, pool);
        }

        // No pending events: split on invariant satisfaction.
        let mut zin = pool.clone_dbm(&w.zone);
        if self.apply_invariants(&w.locs, &mut zin) {
            out.push(Work {
                locs: w.locs.clone(),
                mon: w.mon.clone(),
                zone: zin,
                queue: VecDeque::new(),
                acts: w.acts.clone(),
            });
        } else {
            pool.recycle(zin);
        }
        // Sub-zones beyond some invariant must take an urgent escape now.
        for (ai, aut) in self.net.automata.iter().enumerate() {
            let loc = w.locs[ai] as usize;
            for atom in &aut.locations[loc].invariant {
                let mut zout = pool.clone_dbm(&w.zone);
                if !atom.negated().apply_and_close(&mut zout) {
                    pool.recycle(zout);
                    continue;
                }
                for &eid in &self.urgent[ai][loc] {
                    let mut branch = Work {
                        locs: w.locs.clone(),
                        mon: w.mon.clone(),
                        zone: pool.clone_dbm(&zout),
                        queue: w.queue.clone(),
                        acts: w.acts.clone(),
                    };
                    branch.acts.push(Act::InvariantExpired { aut: ai as u16 });
                    if self.apply_edge(&mut branch, ai, eid as usize, local)? {
                        self.resolve(branch, depth + 1, out, local, pool)?;
                    } else {
                        pool.recycle(branch.zone);
                    }
                }
                pool.recycle(zout);
            }
        }
        pool.recycle(w.zone);
        Ok(())
    }

    /// Conjoins the invariants of the locations `locs` onto a canonical
    /// zone; `false` when they empty it. The upper bounds — every
    /// invariant the pattern lowers to — close together in one pass
    /// ([`Dbm::constrain_upper_and_close`]); a lower-bound atom closes
    /// on its own first. The result is the canonical form of the whole
    /// conjunction, so the order is immaterial.
    fn apply_invariants(&self, locs: &[u32], zone: &mut Dbm) -> bool {
        let atoms = || {
            self.net
                .automata
                .iter()
                .zip(locs)
                .flat_map(|(aut, &l)| &aut.locations[l as usize].invariant)
        };
        atoms()
            .filter(|a| a.upper_bound().is_none())
            .all(|a| a.apply_and_close(zone))
            && zone.constrain_upper_and_close(
                atoms().filter_map(|a| Some((a.clock, a.upper_bound()?))),
            )
    }

    /// Cooks a settled work item into an admission candidate: delay
    /// closure, observer-clock activity reduction, extrapolation, and
    /// the state-level PTE checks. Subsumption is deferred to phase 2.
    /// Every step keeps the zone canonical and re-closes only what it
    /// changed: the invariants after `up()` in one pass, extrapolation
    /// over just the entries it loosened.
    fn cook(
        &self,
        mut w: Work,
        parent: Option<NodeId>,
        local: &mut LocalStats,
        pool: &mut DbmPool,
    ) -> Result<Option<Candidate>, Box<Violation>> {
        // Delay: up-close within the conjunction of location invariants,
        // unless some occupied location freezes time.
        let frozen = w
            .locs
            .iter()
            .enumerate()
            .any(|(ai, &l)| self.net.automata[ai].locations[l as usize].frozen);
        if !frozen {
            w.zone.up();
            if !self.apply_invariants(&w.locs, &mut w.zone) {
                // Cannot happen for a zone that satisfied the
                // invariants, but guard against malformed inputs.
                pool.recycle(w.zone);
                return Ok(None);
            }
        }
        // Observer-clock activity reduction: the monitor frees whichever
        // of its clocks are dead in this state, collapsing zones that
        // differ only in dead-clock history.
        self.monitor.reduce_activity(&w.locs, &w.mon, &mut w.zone);
        // …and the same collapse for the network's own clocks, from the
        // static per-location liveness masks. A freed clock is reset
        // before its next read, so no future guard, invariant, or
        // observer constraint can tell the difference.
        if let Some(masks) = self.masks {
            let mut dead = masks.dead_mask(&w.locs);
            while dead != 0 {
                w.zone.free(dead.trailing_zeros() as usize + 1);
                dead &= dead - 1;
            }
        }

        // Early subsumption probe — *before* extrapolation: if an
        // already-passed zone (from a previous round; phase 1 never
        // mutates node arenas, so this read is deterministic) includes
        // the un-extrapolated candidate, every concrete behaviour from
        // here is covered by an explored state and the candidate can be
        // dropped without paying for extrapolation, reduction, or
        // admission. Sound for violation reporting too: passed zones
        // are violation-free by construction (a cooked zone with a
        // satisfiable violation is reported, never admitted), and the
        // bound sets cover every monitor constant
        // ([`Monitor::fold_bounds`]), so a violation satisfiable in the
        // dropped candidate's widening would be satisfiable in the
        // subsuming passed zone as well.
        let key: Key = (w.locs, w.mon);
        {
            let shard = self.shards[shard_of(&key)].lock();
            if let Some(kid) = shard.keys.get(&key) {
                if shard.buckets[kid as usize]
                    .iter()
                    .any(|&ni| shard.nodes[ni as usize].zone.includes(&w.zone))
                {
                    local.subsumed += 1;
                    pool.recycle(w.zone);
                    return Ok(None);
                }
            }
        }

        match self.extrapolation {
            Extrapolation::ExtraM => w.zone.extrapolate(&self.kmax),
            Extrapolation::ExtraLu => w.zone.extrapolate_lu_plus(&self.lu.lower, &self.lu.upper),
        }

        // State-level monitor checks on the delay-closed zone.
        if let Err(mut mv) = self.monitor.check_settled(&key.0, &key.1, &w.zone) {
            let zone = mv.witness.take().unwrap_or_else(|| w.zone.clone());
            return Err(Box::new(Violation {
                mv,
                acts: w.acts.clone(),
                zone,
            }));
        }

        Ok(Some(Candidate {
            key,
            zone: w.zone,
            parent,
            acts: w.acts,
        }))
    }

    /// Renders every violation of the round and returns the
    /// lexicographically least counter-example (by step list, then
    /// violation rank, then zone text) — a content-defined choice, so
    /// the witness is identical for every worker count.
    fn least_counter_example(
        &self,
        violations: Vec<(Option<NodeId>, Violation)>,
    ) -> SymbolicVerdict {
        let least = violations
            .into_iter()
            .map(|(parent, v)| self.render_ce(parent, v))
            .min_by(|a, b| (&a.steps, a.rank, &a.zone).cmp(&(&b.steps, b.rank, &b.zone)))
            .expect("at least one violation");
        SymbolicVerdict::Unsafe(Box::new(least))
    }

    /// Renders one action code to its human-readable string (the exact
    /// PR 2 wording — only the moment of formatting moved, from the hot
    /// path to counter-example reporting).
    fn render_act(&self, a: Act) -> String {
        match a {
            Act::Initial => "initial state".to_string(),
            Act::Edge { aut, eid } => {
                let a = &self.net.automata[aut as usize];
                let edge = &a.edges[eid as usize];
                format!(
                    "{}: {} -> {}{}",
                    a.name,
                    a.locations[edge.src].name,
                    a.locations[edge.dst].name,
                    match &edge.sync {
                        Sync::External(r) => format!(" (on {})", r.as_str()),
                        Sync::Reliable(r) | Sync::Lossy(r) => format!(" (recv {})", r.as_str()),
                        Sync::None => String::new(),
                    }
                )
            }
            Act::Deliver { root, aut } => format!(
                "deliver {} to {}",
                self.roots[root as usize].as_str(),
                self.net.automata[aut as usize].name
            ),
            Act::Lost { root, aut } => format!(
                "{} lost/ignored by {}",
                self.roots[root as usize].as_str(),
                self.net.automata[aut as usize].name
            ),
            Act::GuardOff { root, aut } => format!(
                "{} ignored by {} (guard off)",
                self.roots[root as usize].as_str(),
                self.net.automata[aut as usize].name
            ),
            Act::MaybeIgnored { root, aut } => format!(
                "{} possibly ignored by {}",
                self.roots[root as usize].as_str(),
                self.net.automata[aut as usize].name
            ),
            Act::InvariantExpired { aut } => {
                format!("{} invariant expired", self.net.automata[aut as usize].name)
            }
        }
    }

    /// Renders one step (a settle's action codes) as PR 2's `"; "`-joined
    /// line.
    fn render_step(&self, acts: &[Act]) -> String {
        acts.iter()
            .map(|&a| self.render_act(a))
            .collect::<Vec<_>>()
            .join("; ")
    }

    fn render_ce(&self, parent: Option<NodeId>, v: Violation) -> SymbolicCounterExample {
        let mut steps = Vec::new();
        let mut cursor = parent;
        while let Some(id) = cursor {
            let shard = self.shards[id.shard as usize].lock();
            let node = &shard.nodes[id.idx as usize];
            steps.push(self.render_step(&node.acts));
            cursor = node.parent;
        }
        steps.reverse();
        // The monitor's trace note (e.g. "dwell risky beyond the Rule-1
        // bound") joins the final step like any other action.
        let mut last = self.render_step(&v.acts);
        if let Some(note) = &v.mv.trace_note {
            if last.is_empty() {
                last = note.clone();
            } else {
                last.push_str("; ");
                last.push_str(note);
            }
        }
        steps.push(last);
        let mut names = self.net.clocks.clone();
        names.extend(self.monitor.clock_names().iter().cloned());
        let rank = v.mv.rank();
        SymbolicCounterExample {
            violation: v.mv.message,
            rank,
            steps,
            zone: v.zone.render(&names),
        }
    }
}
