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
//! ## Pair proof transfer
//!
//! A pair search that ends `Safe` leaves its passed list — the proof —
//! in a process-global store keyed by the pair network's identity: its
//! structural digest and timing constants
//! ([`pte_zones::artifact::net_structure_digest`],
//! [`pte_zones::artifact::atom_ticks`]) plus the watched pair. The next
//! search of the same pair network warm-starts from it
//! ([`Limits::warm_start`]), under the engine's own gates: identical
//! network, a weaker-or-equal pair observer
//! ([`pte_zones::WarmProfile::admits`]), the same clocks, extrapolation
//! and activity masks, and every stored entry re-checked against the new
//! observer. A safeguard-only edit that relaxes `T^min_risky` /
//! `T^min_safe` changes only the observers, so every pair proof
//! transfers; any timing edit changes the supervisor, which every pair
//! network contains, so every pair runs cold and its new proof replaces
//! the stored one. A failed gate only costs the cold search it falls
//! back to, so the cold verdict, witness and counts never change.
//!
//! The store keeps each pair proof encoded
//! ([`pte_zones::PassedArtifact::to_bytes`]) and holds the refinement
//! verdicts too. It forgets its oldest entries first, beyond 4 096
//! verdicts or 32 MiB of encoded pair proofs; chain-20's 19 pair proofs
//! take 14.1 MB. [`cache_stats`] reports the store and [`reset_cache`]
//! empties it.
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
use crate::store::{CachedRefinement, Store};
use pte_core::pattern::{build_pattern_system, config::LeaseConfig};
use pte_zones::artifact::{atom_ticks, net_structure_digest, Digest};
use pte_zones::lower::lower_network;
use pte_zones::ta::{TaAutomaton, TaNetwork};
use pte_zones::{check, new_sink, Limits, ObserverSpec, PassedArtifact, SymbolicVerdict};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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
/// [`CompositionalStats`]. Its `warm_start` and `capture` are not read:
/// pair searches warm-start from, and capture into, the pair proof
/// store (see the module docs).
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
    /// Pair searches answered by transferring a stored pair proof.
    pub pairs_transferred: usize,
    /// Passed-list entries those transfers admitted — the settled states
    /// the transferred pairs would otherwise have explored.
    pub warm_seeded: usize,
    /// Silent self-loop firings the cold pair searches counted without
    /// expanding them ([`pte_zones::SearchStats::stutters`]), summed.
    /// Like the two fields above, it is never serialized.
    pub stutters: usize,
}

impl CompositionalOutcome {
    fn fallback(reason: String, ce: Option<String>, stats: CompositionalStats) -> Self {
        CompositionalOutcome {
            verdict: CompositionalVerdict::Fallback {
                reason,
                counter_example: ce,
            },
            stats,
            pairs_transferred: 0,
            warm_seeded: 0,
            stutters: 0,
        }
    }
}

// --- process-global verdict and pair proof store ---------------------------

static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static DEDUPED: AtomicU64 = AtomicU64::new(0);
static PAIR_HITS: AtomicU64 = AtomicU64::new(0);
static PAIR_MISSES: AtomicU64 = AtomicU64::new(0);

fn store() -> &'static Mutex<Store> {
    STORE.get_or_init(|| Mutex::new(Store::new()))
}

/// Counters of the process-global refinement verdict and pair proof
/// store (polled by the verification daemon into its `DaemonStats`).
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
    /// Pair searches answered by transferring a stored pair proof.
    pub pair_hits: u64,
    /// Pair searches that found no admissible stored proof and ran cold
    /// (searches that skipped the lookup count in neither).
    pub pair_misses: u64,
    /// Pair proofs stored.
    pub pair_entries: u64,
    /// Bytes of the stored pair proofs, encoded.
    pub pair_bytes: u64,
}

/// A snapshot of the store's counters.
pub fn cache_stats() -> ContractCacheStats {
    let (entries, pair_entries, pair_bytes) = store()
        .lock()
        .map(|s| (s.verdicts.len(), s.pairs.len(), s.pairs.bytes()))
        .unwrap_or_default();
    ContractCacheStats {
        hits: CACHE_HITS.load(Ordering::Relaxed),
        misses: CACHE_MISSES.load(Ordering::Relaxed),
        entries: entries as u64,
        deduped: DEDUPED.load(Ordering::Relaxed),
        pair_hits: PAIR_HITS.load(Ordering::Relaxed),
        pair_misses: PAIR_MISSES.load(Ordering::Relaxed),
        pair_entries: pair_entries as u64,
        pair_bytes: pair_bytes as u64,
    }
}

/// Empties the store — refinement verdicts and pair proofs — and zeroes
/// its counters (test isolation; cold bench rows).
pub fn reset_cache() {
    if let Ok(mut s) = store().lock() {
        s.verdicts.clear();
        s.pairs.clear();
    }
    for counter in [
        &CACHE_HITS,
        &CACHE_MISSES,
        &DEDUPED,
        &PAIR_HITS,
        &PAIR_MISSES,
    ] {
        counter.store(0, Ordering::Relaxed);
    }
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
///
/// The supervisor keeps its clock indices. The lowering numbers clocks
/// in network order and the supervisor comes first, so its clocks are
/// the first of `net`'s; the contract clocks follow them, and the clocks
/// of the replaced devices are left out.
fn build_pair_network(
    net: &TaNetwork,
    cfg: &LeaseConfig,
    k: usize,
    profile: EnvProfile,
) -> Result<TaNetwork, String> {
    let (outer, inner) = (k + 1, k + 2);
    let supervisor = net
        .automaton_by_name("supervisor")
        .map(|i| &net.automata[i])
        .ok_or("the lowered network has no supervisor")?;
    let (_, mut clocks) = localize(supervisor, &net.clocks);
    if net.clocks.get(..clocks.len()) != Some(&clocks[..]) {
        return Err("the supervisor's clocks are not the network's first".into());
    }
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

/// The store key of a pair proof: the pair network's structure and
/// timing constants — what the engine's network gates compare — and the
/// watched entities, so pairs whose networks coincide (every pair under
/// [`EnvProfile::LeaseClient`]) keep separate proofs.
fn pair_key(pair_net: &TaNetwork, spec: &ObserverSpec) -> u64 {
    let mut d = Digest::new();
    d.write_u64(net_structure_digest(pair_net));
    let ticks = atom_ticks(pair_net);
    d.write_u64(ticks.len() as u64);
    for t in ticks {
        d.write_i64(t);
    }
    for name in &spec.entities {
        d.write_str(name);
    }
    d.finish()
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
///
/// Builds and lowers the arm, then runs
/// [`check_compositional_lowered`] with pair proof transfers on.
pub fn check_compositional(
    cfg: &LeaseConfig,
    leased: bool,
    profile: EnvProfile,
    limits: &CompositionalLimits,
) -> Result<CompositionalOutcome, String> {
    let sys = build_pattern_system(cfg, leased).map_err(|e| format!("build: {e:?}"))?;
    let net = lower_network(&sys.automata).map_err(|e| format!("lower: {e}"))?;
    check_compositional_lowered(cfg, &net, profile, limits, true)
}

/// [`check_compositional`] over an arm of `cfg` the caller already
/// built and lowered (`net`), so a caller that falls back to the
/// monolithic engine lowers the arm once. `transfer` chooses whether
/// pair searches look up stored pair proofs; `false` runs every pair
/// cold. Pair searches that end `Safe` cold store their proofs either
/// way.
pub fn check_compositional_lowered(
    cfg: &LeaseConfig,
    net: &TaNetwork,
    profile: EnvProfile,
    limits: &CompositionalLimits,
    transfer: bool,
) -> Result<CompositionalOutcome, String> {
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

        let cached = store()
            .lock()
            .ok()
            .and_then(|s| s.verdicts.get(digest).cloned());
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
                    if let Ok(mut s) = store().lock() {
                        s.verdicts.insert(digest, CachedRefinement::Holds);
                    }
                }
                RefineOutcome::Fails(f) => {
                    if let Ok(mut s) = store().lock() {
                        s.verdicts.insert(
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

    // Stage 2: one abstract check per safeguard pair, each warm-started
    // from its stored proof when one transfers.
    let full_spec = ObserverSpec::from_spec(&cfg.pte_spec());
    let (mut pairs_transferred, mut warm_seeded, mut stutters) = (0, 0, 0);
    for k in 0..cfg.n - 1 {
        let pair_net = build_pair_network(net, cfg, k, profile)?;
        let spec = pair_spec(&full_spec, k);
        let key = pair_key(&pair_net, &spec);
        let stored = if transfer {
            store().lock().ok().and_then(|s| s.pairs.get(key).cloned())
        } else {
            None
        };
        let sink = new_sink();
        let search = Limits {
            warm_start: stored
                .and_then(|bytes| PassedArtifact::from_bytes(&bytes).ok())
                .map(Arc::new),
            capture: Some(sink.clone()),
            ..limits.search.clone()
        };
        stats.pair_networks += 1;
        let verdict = check(&pair_net, &spec, &search).map_err(|e| format!("pair {k}: {e}"))?;
        let seeded = verdict.stats().map_or(0, |s| s.warm_seeded);
        if let Some(s) = verdict.stats() {
            stats.abstract_states += s.states;
            stats.abstract_transitions += s.transitions;
            stutters += s.stutters;
        }
        if seeded > 0 {
            pairs_transferred += 1;
            warm_seeded += seeded;
            PAIR_HITS.fetch_add(1, Ordering::Relaxed);
        } else if transfer {
            PAIR_MISSES.fetch_add(1, Ordering::Relaxed);
        }
        let reason = match verdict {
            SymbolicVerdict::Safe(_) => {
                // A transfer passes the stored proof through the sink;
                // only a cold proof is new.
                let captured = sink.lock().take();
                if let (0, Some(art)) = (seeded, captured) {
                    let bytes: Arc<[u8]> = art.to_bytes().into();
                    if let Ok(mut store) = store().lock() {
                        store.pairs.insert(key, bytes);
                    }
                }
                continue;
            }
            SymbolicVerdict::Unsafe(_) => format!(
                "abstract pair network {k} (entities {}, {}) reported a violation \
                 (possibly spurious under the contract abstraction)",
                k + 1,
                k + 2
            ),
            SymbolicVerdict::OutOfBudget { .. } => {
                format!("abstract pair network {k} exhausted its search budget")
            }
        };
        return Ok(CompositionalOutcome {
            pairs_transferred,
            warm_seeded,
            stutters,
            ..CompositionalOutcome::fallback(reason, None, stats)
        });
    }
    Ok(CompositionalOutcome {
        verdict: CompositionalVerdict::Safe,
        stats,
        pairs_transferred,
        warm_seeded,
        stutters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every pair network of every registry scenario, both arms and both
    /// profiles, holds exactly the supervisor's `N+1` clocks followed by
    /// its contracts' clocks, so the static analysis finds no clock to
    /// drop or merge: the engine never searches an orphan clock.
    #[test]
    fn pair_networks_hold_only_supervisor_and_contract_clocks() {
        for s in pte_tracheotomy::registry::registry() {
            for leased in [true, false] {
                let sys = build_pattern_system(&s.config, leased).expect("registry arm builds");
                let net = lower_network(&sys.automata).expect("registry arm lowers");
                for profile in [EnvProfile::Top, EnvProfile::LeaseClient] {
                    for k in 0..s.n - 1 {
                        let at = format!("{} leased={leased} {} pair {k}", s.name, profile.name());
                        let pair_net = build_pair_network(&net, &s.config, k, profile)
                            .unwrap_or_else(|e| panic!("{at}: {e}"));
                        let timed = |j: usize| {
                            j == k + 1 || j == k + 2 || profile == EnvProfile::LeaseClient
                        };
                        let mut expected = net.clocks[..=s.n].to_vec();
                        for j in (1..=s.n).filter(|&j| timed(j)) {
                            let device = s.config.entity_name(j);
                            for c in &lease_client(&s.config, j).clocks {
                                expected.push(format!("{device}::{c}"));
                            }
                        }
                        assert!(
                            expected[..=s.n]
                                .iter()
                                .all(|c| c.starts_with("supervisor.")),
                            "{at}: {expected:?}"
                        );
                        assert_eq!(pair_net.clocks, expected, "{at}");
                        let analysis = pte_zones::analyze(&pair_net);
                        assert!(analysis.reduction.is_identity(), "{at}");
                    }
                }
            }
        }
        let top_clocks = |n: usize| {
            let cfg = LeaseConfig::chain(n);
            let sys = build_pattern_system(&cfg, true).expect("chain builds");
            let net = lower_network(&sys.automata).expect("chain lowers");
            let pair_net = build_pair_network(&net, &cfg, 0, EnvProfile::Top).expect("pair 0");
            pair_net.clock_count()
        };
        assert_eq!((top_clocks(4), top_clocks(20)), (7, 23));
    }
}
