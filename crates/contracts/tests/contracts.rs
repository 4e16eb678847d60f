//! The contract library and the compositional driver's bookkeeping:
//! builder shapes, profile parsing, dedup/cache counters, pair proof
//! transfers, and the soundness-by-construction fallback on the
//! baseline arm.

use pte_contracts::{
    cache_stats, check_compositional, check_compositional_lowered, lease_client, lease_provider,
    localize, reset_cache, supervisor_iface, top_for, CompositionalLimits, CompositionalOutcome,
    CompositionalVerdict, ContractKind, EnvProfile, CONTRACT_NAMES, PROFILE_NAMES,
};
use pte_core::pattern::{build_pattern_system, LeaseConfig};
use pte_core::rules::PairSpec;
use pte_hybrid::Time;
use pte_zones::lower_network;
use std::sync::{Mutex, MutexGuard};

/// The store behind the compositional driver is process-global, and
/// tests of one binary run in parallel: every test that empties it or
/// asserts its counters holds this lock.
fn store_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn contract_library_builders_have_expected_shapes() {
    let cfg = LeaseConfig::chain(3);
    let client = lease_client(&cfg, 1);
    assert_eq!(client.kind, ContractKind::Timed);
    assert!(!client.clocks.is_empty(), "the client envelope is timed");
    assert!(
        !client.alphabet.is_empty(),
        "the client speaks the lease protocol"
    );

    let provider = lease_provider(&cfg, 1);
    assert_eq!(provider.kind, ContractKind::Timed);

    let sys = build_pattern_system(&cfg, true).unwrap();
    let net = lower_network(&sys.automata).unwrap();
    let sup = &net.automata[net.automaton_by_name("supervisor").unwrap()];
    let iface = supervisor_iface(sup, &net.clocks);
    assert_eq!(iface.kind, ContractKind::Identity);

    let dev = &net.automata[net.automaton_by_name(&cfg.entity_name(1)).unwrap()];
    let top = top_for(dev);
    assert_eq!(top.kind, ContractKind::Universal);
    assert!(top.clocks.is_empty(), "top is untimed chatter");

    // Localization renames the device's clocks into a dense 1-based
    // local frame.
    let (local, clocks) = localize(dev, &net.clocks);
    assert!(!clocks.is_empty());
    for l in &local.locations {
        for a in &l.invariant {
            assert!(a.clock >= 1 && a.clock <= clocks.len());
        }
    }
}

#[test]
fn profile_and_contract_names_parse() {
    assert_eq!(EnvProfile::default(), EnvProfile::Top);
    for name in PROFILE_NAMES {
        let p = EnvProfile::parse(name).unwrap_or_else(|n| panic!("{n} must parse"));
        assert_eq!(p.name(), name);
    }
    assert_eq!(
        EnvProfile::parse("leese-client"),
        Err("leese-client".to_string())
    );
    assert!(CONTRACT_NAMES.contains(&"lease-client"));
    assert!(CONTRACT_NAMES.contains(&"top"));
}

/// The process-global refinement cache: a second identical run checks
/// nothing and serves every contract from the cache; the baseline arm
/// always falls back (never a direct Unsafe).
#[test]
fn refinement_cache_and_baseline_fallback() {
    let _store = store_lock();
    reset_cache();
    let cfg = LeaseConfig::chain(2);
    let limits = CompositionalLimits::default();

    let cold = check_compositional(&cfg, true, EnvProfile::Top, &limits).unwrap();
    assert!(matches!(cold.verdict, CompositionalVerdict::Safe));
    assert!(cold.stats.contracts_checked > 0, "cold run must refine");
    assert_eq!(cold.stats.contracts_cached, 0);

    let warm = check_compositional(&cfg, true, EnvProfile::Top, &limits).unwrap();
    assert!(matches!(warm.verdict, CompositionalVerdict::Safe));
    assert_eq!(
        warm.stats.contracts_checked, 0,
        "warm run re-checks nothing"
    );
    assert!(warm.stats.contracts_cached > 0);

    let s = cache_stats();
    assert!(s.entries > 0);
    assert!(s.hits > 0 && s.misses > 0);

    // Baseline: the stripped devices escape the contract envelope, so
    // the argument falls back — it must never claim Safe or Unsafe.
    let baseline = check_compositional(&cfg, false, EnvProfile::Top, &limits).unwrap();
    match baseline.verdict {
        CompositionalVerdict::Fallback {
            reason,
            counter_example,
        } => {
            assert!(
                reason.contains("refinement failed"),
                "the baseline should fail refinement, got: {reason}"
            );
            assert!(
                counter_example.is_some(),
                "the refinement failure carries a symbolic trace"
            );
        }
        CompositionalVerdict::Safe => panic!("baseline must not be claimed safe"),
    }
}

/// `cfg` with every time constant scaled by `k`: the same zone graph up
/// to scaling, under a key no other test in this binary stores.
fn scaled(cfg: &LeaseConfig, k: f64) -> LeaseConfig {
    let s = |t: Time| Time::seconds(t.as_secs_f64() * k);
    let all = |ts: &[Time]| ts.iter().copied().map(s).collect::<Vec<_>>();
    LeaseConfig {
        n: cfg.n,
        t_fb0_min: s(cfg.t_fb0_min),
        t_wait_max: s(cfg.t_wait_max),
        t_req_max: s(cfg.t_req_max),
        t_enter: all(&cfg.t_enter),
        t_run: all(&cfg.t_run),
        t_exit: all(&cfg.t_exit),
        safeguards: cfg
            .safeguards
            .iter()
            .map(|p| PairSpec::new(s(p.t_min_risky), s(p.t_min_safe)))
            .collect(),
    }
}

/// The safeguard-relaxed edit: every `T^min_risky` / `T^min_safe`
/// halved, the network untouched.
fn relaxed(cfg: &LeaseConfig) -> LeaseConfig {
    let half = |t: Time| Time::seconds(t.as_secs_f64() / 2.0);
    LeaseConfig {
        safeguards: cfg
            .safeguards
            .iter()
            .map(|p| PairSpec::new(half(p.t_min_risky), half(p.t_min_safe)))
            .collect(),
        ..cfg.clone()
    }
}

/// The cold reference for an edit: the same argument with the pair
/// proof lookup skipped.
fn cold_run(cfg: &LeaseConfig, profile: EnvProfile) -> CompositionalOutcome {
    let sys = build_pattern_system(cfg, true).unwrap();
    let net = lower_network(&sys.automata).unwrap();
    check_compositional_lowered(cfg, &net, profile, &CompositionalLimits::default(), false).unwrap()
}

/// An edit that must transfer nothing: it runs cold, with a cold run's
/// verdict and counts.
fn assert_ran_cold(what: &str, edit: &CompositionalOutcome, cold: &CompositionalOutcome) {
    assert_eq!(
        (edit.pairs_transferred, edit.warm_seeded),
        (0, 0),
        "{what}: nothing may transfer"
    );
    assert_eq!(
        matches!(edit.verdict, CompositionalVerdict::Safe),
        matches!(cold.verdict, CompositionalVerdict::Safe),
        "{what}: {:?} vs cold {:?}",
        edit.verdict,
        cold.verdict
    );
    let counts = |o: &CompositionalOutcome| {
        (
            o.stats.pair_networks,
            o.stats.abstract_states,
            o.stats.abstract_transitions,
        )
    };
    assert_eq!(counts(edit), counts(cold), "{what}: cold counts");
}

/// Pair proofs transfer exactly where the proof does: a relaxed edit
/// transfers every pair with the cold proof's abstract states, while a
/// timing edit, a tightened safeguard, another environment profile and
/// an emptied store all run cold with cold counts.
#[test]
fn pair_proofs_transfer_only_to_relaxed_edits() {
    let _store = store_lock();
    let cfg = scaled(&LeaseConfig::chain(4), 2.0);
    let limits = CompositionalLimits::default();
    let run =
        |cfg: &LeaseConfig, profile| check_compositional(cfg, true, profile, &limits).unwrap();

    let cold = run(&cfg, EnvProfile::Top);
    assert!(matches!(cold.verdict, CompositionalVerdict::Safe));
    assert_eq!(cold.pairs_transferred, 0);
    let before = cache_stats();

    let warm = run(&relaxed(&cfg), EnvProfile::Top);
    assert!(matches!(warm.verdict, CompositionalVerdict::Safe));
    assert_eq!(warm.pairs_transferred, cfg.n - 1, "every pair transfers");
    assert_eq!(warm.warm_seeded, cold.stats.abstract_states);
    assert_eq!(warm.stats.abstract_states, cold.stats.abstract_states);
    let after = cache_stats();
    assert_eq!(after.pair_hits - before.pair_hits, (cfg.n - 1) as u64);
    assert_eq!(
        after.pair_entries, before.pair_entries,
        "a transfer stores nothing new"
    );

    // A network timing edit: every pair network carries the supervisor.
    let mut timing = cfg.clone();
    timing.t_run[cfg.n - 1] += Time::seconds(1.0);
    let edit = run(&timing, EnvProfile::Top);
    assert_ran_cold("t_run edit", &edit, &cold_run(&timing, EnvProfile::Top));

    // Tightened safeguards: every stored observer is weaker than the
    // new one. (A pair whose safeguard is untouched would transfer: its
    // network and observer are both unchanged.)
    let mut tightened = cfg.clone();
    for p in &mut tightened.safeguards {
        *p = PairSpec::new(p.t_min_risky + Time::seconds(1.0), p.t_min_safe);
    }
    let edit = run(&tightened, EnvProfile::Top);
    assert_ran_cold(
        "tightened safeguards",
        &edit,
        &cold_run(&tightened, EnvProfile::Top),
    );

    // Another environment profile builds other pair networks.
    let edit = run(&cfg, EnvProfile::LeaseClient);
    assert_ran_cold(
        "lease-client profile",
        &edit,
        &cold_run(&cfg, EnvProfile::LeaseClient),
    );

    // An emptied store has nothing to transfer.
    reset_cache();
    let edit = run(&relaxed(&cfg), EnvProfile::Top);
    assert_ran_cold(
        "relaxed edit after reset_cache",
        &edit,
        &cold_run(&relaxed(&cfg), EnvProfile::Top),
    );
}
