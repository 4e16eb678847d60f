//! The compositional assume-guarantee driver.
//!
//! [`check_compositional`] decomposes the PTE safety obligation of an
//! `N`-entity lease system into
//!
//! 1. **N refinement checks** — every device (Participant / Initializer)
//!    must implement its [`lease_client`] contract, deduplicated across
//!    structurally identical devices by a root-renaming structural
//!    digest and memoized in a process-global verdict cache keyed by
//!    that digest;
//! 2. **N−1 abstract pair checks** — one small network per safeguard pair
//!    `(ξk, ξk+1)`: the *concrete* Supervisor (which owns every wind-down
//!    budget clock, so all pair-relevant timing races survive), the two
//!    pair members replaced by their timed `lease_client` contracts, and
//!    every other device replaced per the [`EnvProfile`] — by default the
//!    universal [`top_for`] chatter (clock- and location-free). Each pair
//!    network runs through the ordinary monitored zone engine
//!    ([`pte_zones::check`]) against the pair-restricted observer.
//!
//! Soundness: each slot of a pair network over-approximates the concrete
//! component it replaces (the Supervisor is itself; refinement-checked
//! contracts reproduce every observable emission *and* the exact risky
//! trajectory; chatter reproduces every emission of an unmonitored device
//! and receivers in this engine never constrain emitters), so every
//! concrete run projects onto an abstract run with the same observable
//! timeline for the monitored pair. All pairs Safe ⇒ the system is Safe.
//! Anything else — a refinement failure, an abstract violation (possibly
//! spurious), an exhausted budget — yields [`CompositionalVerdict::Fallback`]
//! and the caller must consult the monolithic engine: the compositional
//! path can never mint a spurious Safe, and it never reports Unsafe at all.

use crate::contract::{lease_client, localize, top_for, Contract};
use crate::refine::{refine, RefineLimits, RefineOutcome};
use pte_core::pattern::{build_pattern_system, config::LeaseConfig};
use pte_zones::lower::lower_network;
use pte_zones::ta::{TaAutomaton, TaNetwork};
use pte_zones::{check, Limits, ObserverSpec, SymbolicVerdict};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Which contract stands in for the devices *outside* the monitored pair.
/// The two pair members always get their timed `lease-client` contract —
/// the observer watches their risky flags, which only a refinement-checked
/// timed contract preserves.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EnvProfile {
    /// Universal chatter ([`top_for`]): coarsest and cheapest — removes
    /// the environment devices' locations and clocks entirely.
    #[default]
    Top,
    /// Timed `lease-client` contracts everywhere: the tightest abstract
    /// network (close to monolithic cost) — an A/B lever for measuring
    /// what the chatter abstraction buys.
    LeaseClient,
}

/// The environment-profile names accepted by [`EnvProfile::parse`], in
/// display order.
pub const PROFILE_NAMES: [&str; 2] = ["top", "lease-client"];

impl EnvProfile {
    /// Parses a profile name. Unknown names are returned as `Err` so the
    /// caller can attach a did-you-mean suggestion over
    /// [`crate::contract::CONTRACT_NAMES`].
    pub fn parse(name: &str) -> Result<EnvProfile, String> {
        match name {
            "top" => Ok(EnvProfile::Top),
            "lease-client" => Ok(EnvProfile::LeaseClient),
            other => Err(other.to_string()),
        }
    }

    /// The canonical name (the `parse` inverse).
    pub fn name(&self) -> &'static str {
        match self {
            EnvProfile::Top => "top",
            EnvProfile::LeaseClient => "lease-client",
        }
    }
}

/// Budgets for one compositional run. `search` applies to **each**
/// abstract pair network individually (the engine-native meaning of
/// [`Limits::max_states`]); the per-stage totals are reported in
/// [`CompositionalStats`].
#[derive(Clone, Default)]
pub struct CompositionalLimits {
    /// Zone-engine limits for each abstract pair check.
    pub search: Limits,
    /// Budget for each refinement check.
    pub refine: RefineLimits,
}

/// Per-stage counters of a compositional run.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompositionalStats {
    /// Device slots that needed a contract.
    pub contracts_total: usize,
    /// Refinement checks actually explored.
    pub contracts_checked: usize,
    /// Slots skipped because a structurally identical device (equal
    /// root-renaming refinement digest) was already checked this run.
    pub contracts_deduped: usize,
    /// Slots answered from the process-global refinement verdict cache.
    pub contracts_cached: usize,
    /// State pairs admitted across all refinement checks.
    pub refine_pairs: usize,
    /// Successor pairs generated across all refinement checks.
    pub refine_transitions: usize,
    /// Abstract pair networks explored.
    pub pair_networks: usize,
    /// Zone-graph states across all abstract pair checks.
    pub abstract_states: usize,
    /// Zone-graph transitions across all abstract pair checks.
    pub abstract_transitions: usize,
}

/// What the compositional argument established.
#[derive(Clone, Debug)]
pub enum CompositionalVerdict {
    /// Every refinement holds and every abstract pair network is Safe:
    /// the concrete system is Safe.
    Safe,
    /// The argument did not close; the caller must fall back to the
    /// monolithic engine. Carries the reason and, for refinement
    /// failures, the symbolic counter-example.
    Fallback {
        /// One-line reason.
        reason: String,
        /// Rendered refinement counter-example, when one exists.
        counter_example: Option<String>,
    },
}

/// Verdict plus per-stage counters.
#[derive(Clone, Debug)]
pub struct CompositionalOutcome {
    /// The verdict.
    pub verdict: CompositionalVerdict,
    /// Stage counters (populated for fallbacks too).
    pub stats: CompositionalStats,
}

impl CompositionalOutcome {
    fn fallback(reason: String, ce: Option<String>, stats: CompositionalStats) -> Self {
        CompositionalOutcome {
            verdict: CompositionalVerdict::Fallback {
                reason,
                counter_example: ce,
            },
            stats,
        }
    }
}

// --- process-global refinement verdict cache -----------------------------

#[derive(Clone)]
enum CachedRefinement {
    Holds,
    Fails { reason: String, rendered: String },
}

static REFINE_CACHE: OnceLock<Mutex<HashMap<u64, CachedRefinement>>> = OnceLock::new();
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static DEDUPED: AtomicU64 = AtomicU64::new(0);

fn cache() -> &'static Mutex<HashMap<u64, CachedRefinement>> {
    REFINE_CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Counters of the process-global refinement verdict cache (polled by the
/// verification daemon into its `DaemonStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContractCacheStats {
    /// Refinement checks answered from the cache.
    pub hits: u64,
    /// Refinement checks that had to be explored.
    pub misses: u64,
    /// Distinct (device, contract) digests cached.
    pub entries: u64,
    /// Within-run slots skipped via structural dedup, cumulative.
    pub deduped: u64,
}

/// A snapshot of the cache counters.
pub fn cache_stats() -> ContractCacheStats {
    ContractCacheStats {
        hits: CACHE_HITS.load(Ordering::Relaxed),
        misses: CACHE_MISSES.load(Ordering::Relaxed),
        entries: cache().lock().map(|c| c.len() as u64).unwrap_or(0),
        deduped: DEDUPED.load(Ordering::Relaxed),
    }
}

/// Clears the cache and its counters (test isolation).
pub fn reset_cache() {
    if let Ok(mut c) = cache().lock() {
        c.clear();
    }
    CACHE_HITS.store(0, Ordering::Relaxed);
    CACHE_MISSES.store(0, Ordering::Relaxed);
    DEDUPED.store(0, Ordering::Relaxed);
}

// --- structural digests ---------------------------------------------------

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A digest of `(device, contract)` invariant under renaming event roots —
/// two slots with equal digests are interchangeable for refinement, so
/// uniform fleets whose members differ only in their channel indices
/// check one representative per shape.
fn refinement_digest(device: &TaAutomaton, contract: &Contract) -> u64 {
    use std::fmt::Write as _;
    let mut names: HashMap<String, usize> = HashMap::new();
    let mut buf = String::new();
    {
        let mut norm = |r: &pte_hybrid::Root, buf: &mut String| {
            let next = names.len();
            let id = *names.entry(r.as_str().to_string()).or_insert(next);
            let _ = write!(buf, "r{id},");
        };
        let mut aut = |a: &TaAutomaton, buf: &mut String| {
            let _ = write!(buf, "A[{}/{}]", a.locations.len(), a.initial);
            for l in &a.locations {
                let _ = write!(buf, "L{}{}", l.risky as u8, l.frozen as u8);
                for at in &l.invariant {
                    let _ = write!(buf, "i{}{:?}{};", at.clock, at.rel, at.ticks);
                }
            }
            for e in &a.edges {
                let _ = write!(buf, "E{}>{}u{}", e.src, e.dst, e.urgent as u8);
                for at in &e.guard {
                    let _ = write!(buf, "g{}{:?}{};", at.clock, at.rel, at.ticks);
                }
                for (c, v) in &e.resets {
                    let _ = write!(buf, "x{c}={v};");
                }
                match &e.sync {
                    pte_zones::ta::Sync::None => buf.push('n'),
                    pte_zones::ta::Sync::External(r) => {
                        buf.push('e');
                        norm(r, buf);
                    }
                    pte_zones::ta::Sync::Reliable(r) => {
                        buf.push('l');
                        norm(r, buf);
                    }
                    pte_zones::ta::Sync::Lossy(r) => {
                        buf.push('y');
                        norm(r, buf);
                    }
                }
                for r in &e.emits {
                    buf.push('!');
                    norm(r, buf);
                }
            }
        };
        aut(device, &mut buf);
        buf.push('|');
        aut(&contract.automaton, &mut buf);
        buf.push('|');
        // The alphabet, in the deterministic order of its BTreeSet.
        for r in &contract.alphabet {
            norm(r, &mut buf);
        }
    }
    fnv1a64(buf.as_bytes())
}

// --- pair-network assembly ------------------------------------------------

fn entity_index(cfg: &LeaseConfig, name: &str) -> Option<usize> {
    (1..=cfg.n).find(|&j| cfg.entity_name(j) == name)
}

/// Builds the abstract network for safeguard pair `k` (`0..n-1`,
/// protecting entities `k+1` and `k+2`): concrete supervisor, timed
/// contracts for the pair members, profile-selected contracts elsewhere.
fn build_pair_network(
    net: &TaNetwork,
    cfg: &LeaseConfig,
    k: usize,
    profile: EnvProfile,
) -> Result<TaNetwork, String> {
    let (outer, inner) = (k + 1, k + 2);
    let mut clocks = net.clocks.clone();
    let mut automata = Vec::with_capacity(net.automata.len());
    for aut in &net.automata {
        if aut.name == "supervisor" {
            automata.push(aut.clone());
            continue;
        }
        let j = entity_index(cfg, &aut.name)
            .ok_or_else(|| format!("unknown network component {:?}", aut.name))?;
        let contract = if j == outer || j == inner || profile == EnvProfile::LeaseClient {
            lease_client(cfg, j)
        } else {
            top_for(aut)
        };
        let map: Vec<usize> = contract
            .clocks
            .iter()
            .map(|cn| {
                clocks.push(format!("{}::{cn}", aut.name));
                clocks.len()
            })
            .collect();
        automata.push(contract.instantiate(&map));
    }
    Ok(TaNetwork { clocks, automata })
}

/// The observer restricted to safeguard pair `k`: the two entities, their
/// Rule 1 bounds, and the single pair-coverage safeguard, sliced from the
/// full [`ObserverSpec`] so the semantics match the monolithic monitor.
fn pair_spec(full: &ObserverSpec, k: usize) -> ObserverSpec {
    ObserverSpec {
        entities: full.entities[k..=k + 1].to_vec(),
        rule1_ticks: full.rule1_ticks[k..=k + 1].to_vec(),
        pairs: full.pairs[k..k + 1].to_vec(),
    }
}

// --- the driver -----------------------------------------------------------

/// Runs the compositional assume-guarantee argument for a lease system.
///
/// Never returns Unsafe: an abstract violation may be spurious, so it —
/// like any refinement failure or exhausted budget — surfaces as
/// [`CompositionalVerdict::Fallback`] for the caller to discharge with the
/// monolithic engine. The baseline (lease-stripped) arm fails refinement
/// naturally: without its lease timers a device may dwell in `Risky Core`
/// past the contract's `t_run` envelope.
pub fn check_compositional(
    cfg: &LeaseConfig,
    leased: bool,
    profile: EnvProfile,
    limits: &CompositionalLimits,
) -> Result<CompositionalOutcome, String> {
    let sys = build_pattern_system(cfg, leased).map_err(|e| format!("build: {e:?}"))?;
    let net = lower_network(&sys.automata).map_err(|e| format!("lower: {e}"))?;
    let mut stats = CompositionalStats {
        contracts_total: cfg.n,
        ..CompositionalStats::default()
    };

    // Stage 1: every device must implement its lease-client contract (and,
    // under the Top profile, be emission-covered by its chatter stand-in).
    let mut seen: HashMap<u64, ()> = HashMap::new();
    for j in 1..=cfg.n {
        let name = cfg.entity_name(j);
        let device = net
            .automaton_by_name(&name)
            .map(|i| &net.automata[i])
            .ok_or_else(|| format!("device {name:?} missing from the lowered network"))?;
        let contract = lease_client(cfg, j);
        let (local_dev, local_clocks) = localize(device, &net.clocks);
        let digest = refinement_digest(&local_dev, &contract);
        if seen.contains_key(&digest) {
            stats.contracts_deduped += 1;
            DEDUPED.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        seen.insert(digest, ());

        let cached = cache().lock().ok().and_then(|c| c.get(&digest).cloned());
        let outcome = match cached {
            Some(CachedRefinement::Holds) => {
                CACHE_HITS.fetch_add(1, Ordering::Relaxed);
                stats.contracts_cached += 1;
                None
            }
            Some(CachedRefinement::Fails { reason, rendered }) => {
                CACHE_HITS.fetch_add(1, Ordering::Relaxed);
                stats.contracts_cached += 1;
                return Ok(CompositionalOutcome::fallback(
                    format!("refinement failed for {name}: {reason} (cached)"),
                    Some(rendered),
                    stats,
                ));
            }
            None => {
                CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
                stats.contracts_checked += 1;
                Some(refine(&local_dev, &local_clocks, &contract, &limits.refine))
            }
        };
        if let Some(outcome) = outcome {
            let rs = outcome.stats();
            stats.refine_pairs += rs.pairs;
            stats.refine_transitions += rs.transitions;
            match outcome {
                RefineOutcome::Holds(_) => {
                    if let Ok(mut c) = cache().lock() {
                        c.insert(digest, CachedRefinement::Holds);
                    }
                }
                RefineOutcome::Fails(f) => {
                    if let Ok(mut c) = cache().lock() {
                        c.insert(
                            digest,
                            CachedRefinement::Fails {
                                reason: f.reason.clone(),
                                rendered: f.rendered.clone(),
                            },
                        );
                    }
                    return Ok(CompositionalOutcome::fallback(
                        format!("refinement failed for {name}: {}", f.reason),
                        Some(f.rendered),
                        stats,
                    ));
                }
                RefineOutcome::OutOfBudget(_) => {
                    return Ok(CompositionalOutcome::fallback(
                        format!("refinement budget exhausted for {name}"),
                        None,
                        stats,
                    ));
                }
            }
        }
        if profile == EnvProfile::Top {
            // The chatter stand-in must cover the device's emissions.
            let cover = refine(&local_dev, &local_clocks, &top_for(device), &limits.refine);
            if let RefineOutcome::Fails(f) = cover {
                return Ok(CompositionalOutcome::fallback(
                    format!("chatter cover failed for {name}: {}", f.reason),
                    Some(f.rendered),
                    stats,
                ));
            }
        }
    }

    // Stage 2: one abstract check per safeguard pair.
    let full_spec = ObserverSpec::from_spec(&cfg.pte_spec());
    for k in 0..cfg.n - 1 {
        let pair_net = build_pair_network(&net, cfg, k, profile)?;
        let spec = pair_spec(&full_spec, k);
        stats.pair_networks += 1;
        match check(&pair_net, &spec, &limits.search).map_err(|e| format!("pair {k}: {e}"))? {
            SymbolicVerdict::Safe(s) => {
                stats.abstract_states += s.states;
                stats.abstract_transitions += s.transitions;
            }
            SymbolicVerdict::Unsafe(_) => {
                return Ok(CompositionalOutcome::fallback(
                    format!(
                        "abstract pair network {k} (entities {}, {}) reported a violation \
                         (possibly spurious under the contract abstraction)",
                        k + 1,
                        k + 2
                    ),
                    None,
                    stats,
                ));
            }
            SymbolicVerdict::OutOfBudget { stats: s, .. } => {
                stats.abstract_states += s.states;
                stats.abstract_transitions += s.transitions;
                return Ok(CompositionalOutcome::fallback(
                    format!("abstract pair network {k} exhausted its search budget"),
                    None,
                    stats,
                ));
            }
        }
    }
    Ok(CompositionalOutcome {
        verdict: CompositionalVerdict::Safe,
        stats,
    })
}
