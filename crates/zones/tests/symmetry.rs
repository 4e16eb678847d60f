//! Quotient laws: the symmetry reduction is a *true* quotient
//! (verdicts — and for falsifications the exact rendered
//! counter-example — are bit-identical to a `symmetry: false` run) at
//! every worker count. The state-count *win* is asserted on the
//! symmetric demo fleet; the lease chains are asymmetric by
//! construction, so the honest assertion there is that the quotient
//! self-disables and changes nothing.

use proptest::prelude::*;
use pte_core::pattern::LeaseConfig;
use pte_zones::reach::check_monitored;
use pte_zones::{
    check_lease_pattern_with, demo_fleet, Limits, LocationReachMonitor, SymbolicVerdict,
};

fn limits(workers: usize, symmetry: bool) -> Limits {
    Limits {
        max_states: 120_000,
        max_workers: workers,
        symmetry,
        ..Limits::default()
    }
}

/// Full exploration of a fleet: no targets, so the checker settles the
/// whole (quotiented) state space and returns Safe with its stats.
fn explore_fleet(devices: usize, l: &Limits) -> pte_zones::SearchStats {
    let net = demo_fleet(devices);
    let monitor = LocationReachMonitor::new(&net, &[]).unwrap();
    match check_monitored(&net, &monitor, l).unwrap() {
        SymbolicVerdict::Safe(stats) => stats,
        other => panic!("fleet exploration must settle: {other}"),
    }
}

/// The acceptance bar: the quotient keeps the verdict and shrinks the
/// passed list by at least 5×. Fleet-3 is the largest size whose
/// *unquotiented* exploration stays test-suite cheap (75 ms vs 29 s
/// for fleet-4); the factor grows with fleet size (5.1× here, 17.9×
/// at fleet-4 — the bench measures that one).
#[test]
fn fleet_quotient_shrinks_passed_list_at_least_5x() {
    let off = explore_fleet(3, &limits(1, false));
    let on = explore_fleet(3, &limits(1, true));
    assert_eq!(off.orbits, 0, "quotient off must fold nothing");
    assert!(on.orbits > 0, "quotient on must fold orbit members");
    assert!(
        on.states * 5 <= off.states,
        "quotient must shrink the fleet-3 passed list ≥ 5× \
         (on {} vs off {})",
        on.states,
        off.states
    );
}

/// Defaults pinned: symmetry is on by default — and because every
/// lease chain is asymmetric, the default-on quotient self-disables
/// there, leaving the engine's bit-stable statistics untouched.
#[test]
fn chains_auto_disable_the_quotient_with_identical_stats() {
    let defaults = Limits::default();
    assert!(defaults.symmetry, "symmetry defaults on");

    let cfg = LeaseConfig::chain(4);
    let run = |symmetry: bool| {
        let l = Limits {
            max_states: 120_000,
            symmetry,
            ..Limits::default()
        };
        check_lease_pattern_with(&cfg, true, &l).unwrap()
    };
    let (on, off) = (run(true), run(false));
    let (on_stats, off_stats) = (on.stats().unwrap(), off.stats().unwrap());
    assert_eq!(on_stats.orbits, 0, "chain-4 must auto-disable the quotient");
    assert_eq!(
        (on_stats.states, on_stats.peak_passed_bytes),
        (off_stats.states, off_stats.peak_passed_bytes),
        "a self-disabled quotient must not perturb the search"
    );
}

/// A monitor that watches a *device* location breaks orbit invariance,
/// so the quotient self-gates off and the falsification is rendered
/// identically with the knob on or off.
#[test]
fn device_targeting_monitor_gates_the_quotient_off() {
    let net = demo_fleet(4);
    let run = |symmetry: bool| {
        let monitor = LocationReachMonitor::new(&net, &[("device2", "Cooling")]).unwrap();
        let v = check_monitored(&net, &monitor, &limits(1, symmetry)).unwrap();
        assert!(v.is_unsafe(), "Cooling is reachable: {v}");
        format!("{v}")
    };
    assert_eq!(run(true), run(false));
}

/// A coordinator-targeting monitor *is* orbit-invariant, so the
/// quotient stays active on the violating run — and the deterministic
/// re-search still renders the counter-example bit-identically to a
/// quotient-free run at every worker count.
#[test]
fn quotiented_falsification_matches_unquotiented_text() {
    let net = demo_fleet(3);
    let run = |symmetry: bool, workers: usize| {
        let monitor = LocationReachMonitor::new(&net, &[("coordinator", "Pace")]).unwrap();
        let v = check_monitored(&net, &monitor, &limits(workers, symmetry)).unwrap();
        assert!(v.is_unsafe(), "Pace is initial, hence reachable: {v}");
        format!("{v}")
    };
    let reference = run(false, 1);
    for workers in [1usize, 2, 4, 8] {
        assert_eq!(reference, run(true, workers), "at {workers} workers");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The quotient is a true quotient on every fleet size and worker
    /// count: Safe either way, never more states with it on, and the
    /// orbit tally exactly accounts for the fold (states_on + folds
    /// covers every successor the unquotiented engine would have had
    /// to store or subsume — weaker ≤ form asserted, since subsumption
    /// interleaves).
    #[test]
    fn fleet_quotient_is_sound_for_all_sizes(
        devices in 2usize..4,
        workers_exp in 0u32..3,
    ) {
        let workers = 1usize << workers_exp;
        let on = explore_fleet(devices, &limits(workers, true));
        let off = explore_fleet(devices, &limits(workers, false));
        prop_assert!(on.orbits > 0);
        prop_assert!(on.states <= off.states);
        prop_assert_eq!(off.orbits, 0);
    }
}
