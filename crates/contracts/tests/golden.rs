//! Golden counters of the compositional argument: the per-stage
//! [`CompositionalStats`] of leased chain-2…8 and chain-12 under the
//! default `top` profile, and of leased chain-2…5 under `lease-client`,
//! each run cold (empty store) with its pair searches at 1 and 4
//! workers.
//!
//! The stage counters were recorded from the engine before silent
//! self-loops were counted instead of expanded, so the table also pins
//! that every pair search settles exactly what the full expansion did.
//! The stutter counts (`CompositionalOutcome::stutters`) were recorded
//! with the cover.
//!
//! Chains of at most five devices under `top`, and of at most four under
//! `lease-client`, run in the debug suite; the rest run in release:
//!
//! ```sh
//! cargo test --release -p pte-contracts --test golden -- --ignored
//! ```

use pte_contracts::{
    check_compositional, reset_cache, CompositionalLimits, CompositionalStats,
    CompositionalVerdict, EnvProfile, RefineLimits,
};
use pte_core::pattern::LeaseConfig;
use pte_zones::Limits;
use std::sync::{Mutex, MutexGuard};

/// The store behind the compositional driver is process-global and
/// every test empties it.
fn store_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// `(chain length, expected stutters, expected stats)` under
/// [`EnvProfile::Top`].
#[rustfmt::skip]
const PINNED: &[(usize, usize, CompositionalStats)] = &[
    (2, 360, CompositionalStats { contracts_total: 2, contracts_checked: 2, contracts_deduped: 0, contracts_cached: 0, refine_pairs: 12, refine_transitions: 22, pair_networks: 1, abstract_states: 360, abstract_transitions: 1836 }),
    (3, 2648, CompositionalStats { contracts_total: 3, contracts_checked: 3, contracts_deduped: 0, contracts_cached: 0, refine_pairs: 18, refine_transitions: 32, pair_networks: 2, abstract_states: 635, abstract_transitions: 5231 }),
    (4, 6921, CompositionalStats { contracts_total: 4, contracts_checked: 4, contracts_deduped: 0, contracts_cached: 0, refine_pairs: 24, refine_transitions: 42, pair_networks: 3, abstract_states: 958, abstract_transitions: 10807 }),
    (5, 13644, CompositionalStats { contracts_total: 5, contracts_checked: 5, contracts_deduped: 0, contracts_cached: 0, refine_pairs: 30, refine_transitions: 52, pair_networks: 4, abstract_states: 1333, abstract_transitions: 19140 }),
    (6, 23147, CompositionalStats { contracts_total: 6, contracts_checked: 6, contracts_deduped: 0, contracts_cached: 0, refine_pairs: 36, refine_transitions: 62, pair_networks: 5, abstract_states: 1749, abstract_transitions: 30408 }),
    (7, 36185, CompositionalStats { contracts_total: 7, contracts_checked: 7, contracts_deduped: 0, contracts_cached: 0, refine_pairs: 42, refine_transitions: 72, pair_networks: 6, abstract_states: 2231, abstract_transitions: 45712 }),
    (8, 54858, CompositionalStats { contracts_total: 8, contracts_checked: 8, contracts_deduped: 0, contracts_cached: 0, refine_pairs: 48, refine_transitions: 82, pair_networks: 7, abstract_states: 2857, abstract_transitions: 67354 }),
    (12, 208163, CompositionalStats { contracts_total: 12, contracts_checked: 12, contracts_deduped: 0, contracts_cached: 0, refine_pairs: 72, refine_transitions: 122, pair_networks: 11, abstract_states: 6694, abstract_transitions: 240103 }),
];

/// The same under [`EnvProfile::LeaseClient`], which keeps every
/// device's timed contract in every pair network. These counters were
/// recorded while pair networks still copied the clocks of the devices
/// they replace, so the table also pins that dropping those clocks left
/// every pair search's zone graph as it was.
#[rustfmt::skip]
const PINNED_LEASE_CLIENT: &[(usize, usize, CompositionalStats)] = &[
    (2, 360, CompositionalStats { contracts_total: 2, contracts_checked: 2, contracts_deduped: 0, contracts_cached: 0, refine_pairs: 12, refine_transitions: 22, pair_networks: 1, abstract_states: 360, abstract_transitions: 1836 }),
    (3, 1801, CompositionalStats { contracts_total: 3, contracts_checked: 3, contracts_deduped: 0, contracts_cached: 0, refine_pairs: 18, refine_transitions: 32, pair_networks: 2, abstract_states: 1801, abstract_transitions: 9446 }),
    (4, 5517, CompositionalStats { contracts_total: 4, contracts_checked: 4, contracts_deduped: 0, contracts_cached: 0, refine_pairs: 24, refine_transitions: 42, pair_networks: 3, abstract_states: 5517, abstract_transitions: 29291 }),
    (5, 12898, CompositionalStats { contracts_total: 5, contracts_checked: 5, contracts_deduped: 0, contracts_cached: 0, refine_pairs: 30, refine_transitions: 52, pair_networks: 4, abstract_states: 12898, abstract_transitions: 69163 }),
];

/// A cold compositional proof of leased chain-`n` under `profile`: its
/// stutter count and stage counters.
fn observe(n: usize, profile: EnvProfile, workers: usize) -> (usize, CompositionalStats) {
    let limits = CompositionalLimits {
        search: Limits {
            max_states: 40_000,
            max_workers: workers,
            ..Limits::default()
        },
        refine: RefineLimits::default(),
    };
    reset_cache();
    let out =
        check_compositional(&LeaseConfig::chain(n), true, profile, &limits).expect("chain lowers");
    assert!(
        matches!(out.verdict, CompositionalVerdict::Safe),
        "chain-{n}: {:?}",
        out.verdict
    );
    assert_eq!(out.pairs_transferred, 0, "chain-{n} ran cold");
    (out.stutters, out.stats)
}

fn check_chains(profile: EnvProfile, table: &[(usize, usize, CompositionalStats)], ns: &[usize]) {
    let _store = store_lock();
    let mut observed = Vec::new();
    let mut wrong = Vec::new();
    for &n in ns {
        let pinned = table
            .iter()
            .find(|(m, _, _)| *m == n)
            .map(|(_, stutters, s)| (*stutters, s.clone()));
        for workers in [1usize, 4] {
            let got = observe(n, profile, workers);
            if pinned.as_ref() != Some(&got) {
                wrong.push(format!("chain-{n} workers={workers}"));
            }
            if workers == 1 {
                observed.push(format!("    ({n}, {}, {:?}),", got.0, got.1));
            }
        }
    }
    reset_cache();
    assert!(
        wrong.is_empty(),
        "counters differ from the pinned table: {wrong:?}\nobserved rows:\n{}",
        observed.join("\n")
    );
}

#[test]
fn chains_up_to_five_devices_match_the_golden_counters() {
    check_chains(EnvProfile::Top, PINNED, &[2, 3, 4, 5]);
}

#[test]
#[ignore = "release-only: cargo test --release -p pte-contracts --test golden -- --ignored"]
fn longer_chains_match_the_golden_counters() {
    check_chains(EnvProfile::Top, PINNED, &[6, 7, 8, 12]);
}

#[test]
fn lease_client_chains_up_to_four_devices_match_the_golden_counters() {
    check_chains(EnvProfile::LeaseClient, PINNED_LEASE_CLIENT, &[2, 3, 4]);
}

#[test]
#[ignore = "release-only: cargo test --release -p pte-contracts --test golden -- --ignored"]
fn lease_client_chain_5_matches_the_golden_counters() {
    check_chains(EnvProfile::LeaseClient, PINNED_LEASE_CLIENT, &[5]);
}
