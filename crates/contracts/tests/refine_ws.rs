//! Verdicts and counter-examples of the timed refinement checker on
//! both arms of a chain configuration. The baseline arm is the
//! load-bearing case: its lease-stripped devices escape the contract's
//! dwell envelope, and the compositional driver caches and re-renders
//! the symbolic trace that exhibits it.

use pte_contracts::{lease_client, localize, refine, RefineLimits, RefineOutcome};
use pte_core::pattern::{build_pattern_system, LeaseConfig};
use pte_zones::lower_network;

/// `device j ⊑ lease_client(j)`, folded to a comparable string:
/// `"holds"`, `"out-of-budget"`, or the failure's reason plus its full
/// rendered trace.
fn refine_rendered(cfg: &LeaseConfig, leased: bool, j: usize) -> String {
    let sys = build_pattern_system(cfg, leased).expect("pattern system builds");
    let net = lower_network(&sys.automata).expect("network lowers");
    let name = cfg.entity_name(j);
    let i = net
        .automaton_by_name(&name)
        .unwrap_or_else(|| panic!("device {name:?} missing"));
    let (local_dev, local_clocks) = localize(&net.automata[i], &net.clocks);
    let contract = lease_client(cfg, j);
    match refine(
        &local_dev,
        &local_clocks,
        &contract,
        &RefineLimits::default(),
    ) {
        RefineOutcome::Holds(_) => "holds".to_string(),
        RefineOutcome::OutOfBudget(_) => "out-of-budget".to_string(),
        RefineOutcome::Fails(f) => format!("{}\n{}", f.reason, f.rendered),
    }
}

/// Every chain-3 device implements its own lease-client contract.
#[test]
fn leased_chain_devices_refine() {
    let cfg = LeaseConfig::chain(3);
    for j in 1..=3 {
        assert_eq!(refine_rendered(&cfg, true, j), "holds", "device {j}");
    }
}

/// The lease-stripped baseline fails refinement — the fallback trigger
/// the compositional driver relies on — with a real counter-example
/// trace.
#[test]
fn baseline_fails_refinement_with_a_counter_example() {
    let cfg = LeaseConfig::chain(3);
    let reference = refine_rendered(&cfg, false, 1);
    assert_ne!(reference, "holds", "the baseline must fail refinement");
    assert!(
        reference.lines().count() > 2,
        "the failure must carry a real trace:\n{reference}"
    );
}
