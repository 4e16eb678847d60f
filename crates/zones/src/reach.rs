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
//! * the violations an entry yields are a pure function of the entry:
//!   expanding it reads only zones settled in earlier rounds, never
//!   what the round has staged so far. They need not be every violation
//!   reachable in one step: within one edge's emission cascade the first
//!   violation ends the cascade (`deliver_fates` and `resolve` return it
//!   through `?`), so the fate branches after it are never tried. Other
//!   edges are unaffected, and the branch order is fixed;
//! * the engine reports the **lexicographically least violating trace**
//!   (by step list, then violation rank, then zone) among the
//!   violations the round collects — a content-defined choice,
//!   independent of which worker found what first. Layered BFS
//!   additionally guarantees the reported trace belongs to the
//!   *earliest* round containing any violation;
//! * the least trace does not need the whole round. Every entry of
//!   round `r` has a path (the steps from the seed to it) of the same
//!   length, so a violation under a greater path has a greater step
//!   list. [`check`] with the static analysis on (the default) uses
//!   this on every falsification. Its masked search decides only the
//!   verdict: workers stop claiming entries at the first violation and
//!   nothing is rendered. The witness then comes from a rerun without
//!   the activity masks, which expands rounds `< r` in full and round
//!   `r` on the calling thread, in groups of equal paths, least path
//!   first, stopping after the first group that yields a violation. That
//!   group's least trace is the round's, at every worker count; a round
//!   without a violation is expanded in full and the search goes on;
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
//! Five layers keep the per-state cost low:
//!
//! * **Stutters are counted, not built** — most firings in a
//!   compositional pair network, and one per settled state of every
//!   leased registry arm (the supervisor's environment-approval
//!   self-loop),
//!   are *silent*: a self-loop with no guard and no resets whose
//!   emissions no other automaton can receive in its current location
//!   (`Engine::silent`). Expanding one from entry `E = (l, m, Z)`
//!   re-derives `E`'s own state: the monitor ignores a self-loop from
//!   an admitted state (the self-loop contract of
//!   [`Monitor::on_transition`]), every emission is lost with no fate to
//!   branch on, and `resolve` settles `Z` within the invariants, plus
//!   urgent escapes from any sub-zone beyond the invariant of a location
//!   that has an urgent edge. When there is no such sub-zone and cook's
//!   pre-probe steps (`Engine::delay_and_free`) map that settled zone
//!   into `Z` (`Engine::stutter_cover`, computed at most once per
//!   entry), the expansion would yield exactly one transition and, if
//!   `Z` meets the invariants, one successor that the subsumption probe
//!   drops against `E`'s own node, settled in an earlier round, and no
//!   violation. So the engine counts exactly that (a transition, a
//!   subsumed successor and a [`SearchStats::stutters`]) and builds
//!   nothing. Debug builds still expand every counted firing and assert
//!   the same tallies. Extrapolation can widen `Z` past an invariant, so
//!   the escape check is not vacuous. Stutters deeper in a cascade are
//!   still built.
//! * **A lean emission cascade** — receive tables are sorted by root,
//!   so one emission collects its receivers as slices in one `Vec`;
//!   the drop fate, always a receiver's last branch, takes the work
//!   item instead of a clone; and a work item with no urgent escape to
//!   fire settles in place within the invariants, while the escape
//!   check reads only locations that have an urgent edge. Branch order,
//!   and hence every settled set and witness, is unchanged.
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
//!   Warm-start validation rebuilds no matrix at all: it reads
//!   emptiness and the upper-bound column straight from each stored
//!   zone's constraints ([`crate::dbm::MinimalDbm::upper_bounds`],
//!   O(n·k)). The one full closure left,
//!   [`crate::dbm::MinimalDbm::restore`], is a test oracle.
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
    /// Stutters: firings of a silent self-loop that the entry's own
    /// passed zone covers, counted without building the successor (see
    /// the module's "Hot-path engineering" section). Each is also one
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
    /// Silent self-loop firings counted without expansion.
    stutters: usize,
}

impl LocalStats {
    /// Adds these tallies to `stats`.
    fn fold_into(&self, stats: &mut SearchStats) {
        stats.transitions += self.transitions;
        stats.subsumed += self.subsumed;
        stats.stutters += self.stutters;
    }
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
    /// `recv[ai][loc]` — receiving edges leaving `loc`, sorted by root
    /// id and, within one root, in edge order
    /// ([`Engine::receivers_in`]).
    recv: Vec<Vec<Vec<RecvEdge>>>,
    /// `emit_ids[ai][eid]` — interned roots the edge emits.
    emit_ids: Vec<Vec<Vec<u16>>>,
    /// `bare_loop[ai][eid]` — the edge is a self-loop with no guard and
    /// no resets whose emissions fit one cascade: the shape of a silent
    /// firing ([`Engine::silent`]).
    bare_loop: Vec<Vec<bool>>,
    /// Per-location dead-clock masks over the network's clock space.
    /// `None` when [`Limits::reduce_clocks`] is off or the masks are
    /// trivial.
    masks: Option<&'s ActivityMasks>,
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
            return Ok(Outcome::Done(SymbolicVerdict::Safe(stats)));
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
    let mut bare_loop = Vec::with_capacity(net.automata.len());
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
        // A stable sort keeps edge order within each root, the order
        // the delivery fates branch in.
        for table in &mut rc {
            table.sort_by_key(|re| re.root);
        }
        spont.push(sp);
        urgent.push(ur);
        recv.push(rc);
        emit_ids.push(em);
        bare_loop.push(
            aut.edges
                .iter()
                .map(|e| {
                    e.src == e.dst
                        && e.guard.is_empty()
                        && e.resets.is_empty()
                        && e.emits.len() <= CASCADE_DEPTH
                })
                .collect::<Vec<bool>>(),
        );
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
        bare_loop,
        masks,
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
/// The per-entry re-validation below (shape checks, non-emptiness, the
/// *new* monitor's settled check on every stored zone) is defense in
/// depth against a corrupt or mismatched artifact that happens to pass
/// the digests. It reads each stored zone in O(n·k) without rebuilding
/// its matrix: the settled check needs only emptiness and the
/// upper-bound column ([`MinimalDbm::upper_bounds`],
/// [`Monitor::settled_ok`]), so a monitor without that bounds form
/// never warm-starts.
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
    let mut upper = Vec::with_capacity(nclocks + 1);
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
        if !e.zone.upper_bounds(&mut upper)
            || monitor.settled_ok(&e.locs, &e.mon, &upper) != Some(true)
        {
            return None;
        }
    }
    Some(SearchStats {
        states: art.entries.len(),
        warm_seeded: art.entries.len(),
        dbm_clocks: nclocks,
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
    fn drive(&self, sync: &RoundSync, limits: &Limits, helpers: usize) -> Outcome {
        let started = Instant::now();
        let mut stats = SearchStats {
            dbm_clocks: self.nclocks,
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
        local.fold_into(&mut stats);
        if !violations.is_empty() {
            return self.violated(violations, 0);
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
                return Outcome::Done(SymbolicVerdict::OutOfBudget {
                    stats,
                    tripped: TrippedLimit::Cancelled,
                });
            }
            if frontier.is_empty() {
                stats.frontier = 0;
                self.fold_passed_bytes(&mut stats);
                return Outcome::Done(SymbolicVerdict::Safe(stats));
            }
            if stats.states > limits.max_states {
                stats.frontier = frontier.len();
                self.fold_passed_bytes(&mut stats);
                return Outcome::Done(SymbolicVerdict::OutOfBudget {
                    stats,
                    tripped: TrippedLimit::MaxStates(limits.max_states),
                });
            }
            if let Some(budget) = limits.max_wall {
                if started.elapsed() > budget {
                    stats.frontier = frontier.len();
                    self.fold_passed_bytes(&mut stats);
                    return Outcome::Done(SymbolicVerdict::OutOfBudget {
                        stats,
                        tripped: TrippedLimit::WallClock(budget),
                    });
                }
            }
            let violations = if self.goal == Goal::WitnessAt(round) {
                self.expand_least_paths(sync, frontier, &mut stats, &mut pool)
            } else {
                self.expand_phase(sync, frontier, helpers, &mut stats, &mut pool)
            };
            if !violations.is_empty() {
                return self.violated(violations, round);
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
            self.expand(entry, &mut staged, &mut violations, &mut local, pool);
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
            unrendered.push((n, self.render_step(&node.acts)));
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
    /// shard-staged candidates, and records violations. A violation on
    /// one edge never hides another edge's violations or successors.
    /// Within one edge's cascade it does: the first violation returns
    /// through `?` from `deliver_fates` or `resolve`, so the fate
    /// branches after it are never tried and the successors settled
    /// before it are not cooked. The branch order is fixed, so what an
    /// entry yields depends on the entry alone, and "least" in
    /// [`Engine::least_counter_example`] means least among the
    /// violations a round collects.
    ///
    /// A [silent](Engine::silent) firing that the entry's own passed
    /// zone covers ([`Engine::stutter_cover`], computed at most once
    /// per entry) is counted, not expanded: it would settle only its
    /// source state again, which the subsumption probe then drops.
    fn expand(
        &self,
        entry: &FrontierEntry,
        staged: &mut [Vec<Candidate>],
        violations: &mut Vec<(Option<NodeId>, Violation)>,
        local: &mut LocalStats,
        pool: &mut DbmPool,
    ) {
        let mut cover = None;
        for ai in 0..self.net.automata.len() {
            let loc = entry.locs[ai] as usize;
            for &eid in &self.spont[ai][loc] {
                let eid = eid as usize;
                if self.silent(&entry.locs, ai, eid) {
                    if let Some(settles) =
                        *cover.get_or_insert_with(|| self.stutter_cover(entry, pool))
                    {
                        local.transitions += 1;
                        local.subsumed += usize::from(settles);
                        local.stutters += 1;
                        #[cfg(debug_assertions)]
                        self.assert_stutter(entry, ai, eid, settles, pool);
                        continue;
                    }
                }
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

    /// Whether firing edge `eid` of automaton `ai` in the locations
    /// `locs` is silent: the edge is a bare self-loop (no guard, no
    /// resets) and no other automaton has a receiving edge, in its
    /// current location, for any root the edge emits. Such a firing
    /// changes neither the locations nor the zone, every emission is
    /// lost without a fate to branch on, and the monitor ignores it
    /// (the self-loop contract of [`Monitor::on_transition`]).
    fn silent(&self, locs: &[u32], ai: usize, eid: usize) -> bool {
        self.bare_loop[ai][eid]
            && self.emit_ids[ai][eid].iter().all(|&root| {
                locs.iter()
                    .enumerate()
                    .all(|(aj, &l)| aj == ai || self.receivers_in(aj, l, root).is_empty())
            })
    }

    /// Whether a silent firing from `entry` may be counted instead of
    /// expanded: `Some(settles)` when its expansion would yield exactly
    /// one transition and no candidate, `settles` telling whether it
    /// settles a successor, which the subsumption probe then drops;
    /// `None` when it must be expanded.
    ///
    /// The expansion settles the entry's zone `Z` within the location
    /// invariants, unless some sub-zone beyond them must take an urgent
    /// escape ([`Engine::has_escape`]), and `cook` then applies its
    /// pre-probe steps ([`Engine::delay_and_free`]) to it under the
    /// entry's own key. When the result lies inside `Z`, the entry's
    /// own node, settled in an earlier round, subsumes it.
    fn stutter_cover(&self, entry: &FrontierEntry, pool: &mut DbmPool) -> Option<bool> {
        if self.has_escape(&entry.locs, &entry.zone) {
            return None;
        }
        let mut z = pool.clone_dbm(&entry.zone);
        let cover = if !self.apply_invariants(&entry.locs, &mut z)
            || !self.delay_and_free(&entry.locs, &entry.mon, &mut z)
        {
            Some(false)
        } else if entry.zone.includes(&z) {
            Some(true)
        } else {
            None
        };
        pool.recycle(z);
        cover
    }

    /// Debug builds check every counted silent firing against its full
    /// expansion, run with scratch tallies: no violation, exactly one
    /// transition, and only successors the subsumption probe drops, as
    /// many as were counted.
    #[cfg(debug_assertions)]
    fn assert_stutter(
        &self,
        entry: &FrontierEntry,
        ai: usize,
        eid: usize,
        settles: bool,
        pool: &mut DbmPool,
    ) {
        let mut scratch = LocalStats::default();
        let mut w = Work {
            locs: entry.locs.clone(),
            mon: entry.mon.clone(),
            zone: pool.clone_dbm(&entry.zone),
            queue: VecDeque::new(),
            acts: Vec::new(),
        };
        assert!(
            matches!(self.apply_edge(&mut w, ai, eid, &mut scratch), Ok(true)),
            "a silent self-loop fires without a violation"
        );
        let mut settled = Vec::new();
        assert!(
            self.resolve(w, 0, &mut settled, &mut scratch, pool).is_ok(),
            "a silent self-loop's cascade has no violation"
        );
        for s in settled {
            assert!(
                matches!(self.cook(s, Some(entry.id), &mut scratch, pool), Ok(None)),
                "a stutter's successor is dropped before admission"
            );
        }
        assert_eq!(
            scratch.transitions, 1,
            "a silent self-loop is one transition"
        );
        assert_eq!(
            scratch.subsumed,
            usize::from(settles),
            "the probe drops exactly the counted successors"
        );
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
    ///
    /// The drop fate is always a receiver's last branch, so it takes `w`
    /// itself; every other branch works on a clone.
    #[allow(clippy::too_many_arguments)]
    fn deliver_fates(
        &self,
        mut w: Work,
        root: u16,
        receivers: &[(usize, &[RecvEdge])],
        idx: usize,
        depth: usize,
        out: &mut Vec<Work>,
        local: &mut LocalStats,
        pool: &mut DbmPool,
    ) -> Result<(), Box<Violation>> {
        if idx == receivers.len() {
            return self.resolve(w, depth + 1, out, local, pool);
        }
        let (ai, edges) = receivers[idx];
        let aut = ai as u16;
        let mut any_delivered = false;
        for re in edges {
            let mut branch = w.clone_via(pool);
            branch.acts.push(Act::Deliver { root, aut });
            if self.apply_edge(&mut branch, ai, re.eid as usize, local)? {
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
        if edges.iter().any(|re| re.lossy) || !any_delivered {
            // Drop (lossy) or discard (reliable but nowhere enabled).
            w.acts.push(Act::Lost { root, aut });
            return self.deliver_fates(w, root, receivers, idx + 1, depth, out, local, pool);
        }
        // Reliable and at least one edge delivered somewhere in the zone:
        // the event is still ignored on the sub-zone where no edge is
        // enabled. An unguarded reliable edge is always enabled, so no
        // ignore fate exists then.
        let guard = |re: &RecvEdge| &self.net.automata[ai].edges[re.eid as usize].guard;
        if edges.iter().all(|re| !guard(re).is_empty()) {
            if let [only] = edges {
                // Exact complement: one guarded edge, branch per negated
                // guard atom.
                for atom in guard(only) {
                    let mut branch = w.clone_via(pool);
                    if !atom.negated().apply_and_close(&mut branch.zone) {
                        pool.recycle(branch.zone);
                        continue;
                    }
                    branch.acts.push(Act::GuardOff { root, aut });
                    self.deliver_fates(branch, root, receivers, idx + 1, depth, out, local, pool)?;
                }
            } else {
                // Several guarded reliable edges: over-approximate with a
                // full-zone ignore branch (sound for Safe verdicts).
                let mut branch = w.clone_via(pool);
                branch.acts.push(Act::MaybeIgnored { root, aut });
                self.deliver_fates(branch, root, receivers, idx + 1, depth, out, local, pool)?;
            }
        }
        pool.recycle(w.zone);
        Ok(())
    }

    /// The receiving edges of automaton `ai` in location `loc` that
    /// listen for `root`, in edge order: one run of the root-sorted
    /// dispatch table.
    fn receivers_in(&self, ai: usize, loc: u32, root: u16) -> &[RecvEdge] {
        let table = &self.recv[ai][loc as usize];
        let start = table.partition_point(|re| re.root < root);
        let len = table[start..].partition_point(|re| re.root == root);
        &table[start..start + len]
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
            // Candidate receivers, one slice of the dispatch table per
            // listening automaton: the executor broadcasts an emission
            // to every listener except the sender (`route_emission`
            // skips `receiver == sender`), and each listener's wireless
            // delivery has its own drop fate.
            let receivers: Vec<(usize, &[RecvEdge])> = w
                .locs
                .iter()
                .enumerate()
                .filter(|&(ai, _)| ai != sender as usize)
                .map(|(ai, &l)| (ai, self.receivers_in(ai, l, root)))
                .filter(|(_, edges)| !edges.is_empty())
                .collect();
            return self.deliver_fates(w, root, &receivers, 0, depth, out, local, pool);
        }

        // No pending events. Without an urgent escape to fire, the work
        // item settles in place, within the invariants.
        if !self.has_escape(&w.locs, &w.zone) {
            if self.apply_invariants(&w.locs, &mut w.zone) {
                out.push(w);
            } else {
                pool.recycle(w.zone);
            }
            return Ok(());
        }
        // Otherwise the sub-zone within the invariants settles first…
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
        // …then the sub-zones beyond an invariant of a location with
        // urgent edges take an urgent escape now. (Those beyond the
        // invariant of a location without one have nothing to fire and
        // are dropped.)
        for (ai, aut) in self.net.automata.iter().enumerate() {
            let loc = w.locs[ai] as usize;
            if self.urgent[ai][loc].is_empty() {
                continue;
            }
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

    /// Whether some occupied location with an urgent edge has an
    /// invariant atom whose negation the canonical, non-empty `zone`
    /// satisfies: a sub-zone [`Engine::resolve`] must send down an
    /// urgent escape.
    fn has_escape(&self, locs: &[u32], zone: &Dbm) -> bool {
        locs.iter().enumerate().any(|(ai, &l)| {
            !self.urgent[ai][l as usize].is_empty()
                && self.net.automata[ai].locations[l as usize]
                    .invariant
                    .iter()
                    .any(|atom| atom.negated().satisfiable_in(zone))
        })
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

    /// Cook's steps before its subsumption probe, on a zone settled in
    /// the locations `locs` with observer state `mon`: delay within the
    /// location invariants (unless some occupied location freezes time),
    /// then the monitor's and the static masks' dead-clock frees.
    /// `false` when the invariants empty the zone, which cannot happen
    /// to a zone that satisfied them. [`Engine::stutter_cover`] runs the
    /// same steps.
    fn delay_and_free(&self, locs: &[u32], mon: &MonitorState, zone: &mut Dbm) -> bool {
        // Delay: up-close within the conjunction of location invariants,
        // unless some occupied location freezes time.
        let frozen = locs
            .iter()
            .enumerate()
            .any(|(ai, &l)| self.net.automata[ai].locations[l as usize].frozen);
        if !frozen {
            zone.up();
            if !self.apply_invariants(locs, zone) {
                return false;
            }
        }
        // Observer-clock activity reduction: the monitor frees whichever
        // of its clocks are dead in this state, collapsing zones that
        // differ only in dead-clock history.
        self.monitor.reduce_activity(locs, mon, zone);
        // …and the same collapse for the network's own clocks, from the
        // static per-location liveness masks. A freed clock is reset
        // before its next read, so no future guard, invariant, or
        // observer constraint can tell the difference.
        if let Some(masks) = self.masks {
            let mut dead = masks.dead_mask(locs);
            while dead != 0 {
                zone.free(dead.trailing_zeros() as usize + 1);
                dead &= dead - 1;
            }
        }
        true
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
        if !self.delay_and_free(&w.locs, &w.mon, &mut w.zone) {
            // Guards against malformed inputs.
            pool.recycle(w.zone);
            return Ok(None);
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

    fn render_ce(
        &self,
        parent: Option<NodeId>,
        v: Violation,
        memo: &mut HashMap<NodeId, Rc<[String]>>,
    ) -> SymbolicCounterExample {
        let mut steps = parent.map_or_else(Vec::new, |id| self.path(id, memo).to_vec());
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ta::{Atom, Rel, TaAutomaton, TaEdge, TaLocation};
    use crate::LoweredPattern;

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
                for hint in [r - 1, r + 1] {
                    let (hinted, rounds) = search(&p, false, workers, Goal::WitnessAt(hint));
                    assert_eq!(
                        rendered(hinted),
                        plain,
                        "{name}, hint {hint}, {workers} workers"
                    );
                    assert_eq!(
                        rounds, plain_rounds,
                        "{name}, hint {hint}, {workers} workers"
                    );
                }
                let (hinted, rounds) = search(&p, false, workers, Goal::WitnessAt(r));
                assert_eq!(
                    rendered(hinted),
                    plain,
                    "{name}, right hint, {workers} workers"
                );
                assert_eq!(
                    rounds, plain_rounds,
                    "{name}, right hint, {workers} workers"
                );
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
