//! Determinism and agreement laws of the parallel sharded engine.
//!
//! The engine guarantees that the verdict — and, for falsifications,
//! the exact counter-example — is identical for every worker count and
//! that the two extrapolation operators agree on verdicts. These tests
//! pin both guarantees on the case-study configuration and on
//! randomized lease configurations.

use proptest::prelude::*;
use pte_core::pattern::LeaseConfig;
use pte_hybrid::Time;
use pte_zones::{check_lease_pattern_with, Extrapolation, Limits, SymbolicVerdict};

fn limits(workers: usize, extrapolation: Extrapolation, max_states: usize) -> Limits {
    Limits {
        max_states,
        max_workers: workers,
        extrapolation,
        ..Limits::default()
    }
}

/// A stable fingerprint of a verdict: discriminant plus every
/// content-bearing field that must not depend on scheduling — including
/// the passed-list byte accounting, which pins the *stored zones*
/// themselves (minimal constraint form) as bit-identical across worker
/// counts, not just their number.
fn fingerprint(v: &SymbolicVerdict) -> String {
    match v {
        SymbolicVerdict::Safe(s) => format!(
            "safe states={} passed_bytes={}/{}",
            s.states, s.peak_passed_bytes, s.peak_passed_bytes_full
        ),
        // The full rendered counter-example: kind, step list, zone.
        SymbolicVerdict::Unsafe(_) => format!("unsafe {v}"),
        SymbolicVerdict::OutOfBudget { stats, tripped } => format!(
            "out-of-budget states={} frontier={} tripped={tripped:?}",
            stats.states, stats.frontier
        ),
    }
}

#[test]
fn case_study_verdict_identical_across_worker_counts() {
    let cfg = LeaseConfig::case_study();
    for leased in [true, false] {
        let reference =
            check_lease_pattern_with(&cfg, leased, &limits(1, Extrapolation::ExtraLu, 60_000))
                .expect("case study lowers");
        assert_eq!(reference.is_safe(), leased);
        for workers in [2usize, 4, 8] {
            let parallel = check_lease_pattern_with(
                &cfg,
                leased,
                &limits(workers, Extrapolation::ExtraLu, 60_000),
            )
            .expect("case study lowers");
            assert_eq!(
                fingerprint(&reference),
                fingerprint(&parallel),
                "worker count {workers} changed the verdict (leased={leased})"
            );
        }
    }
}

#[test]
fn counter_example_is_reproducible_across_worker_counts() {
    let cfg = LeaseConfig::case_study();
    let render = |workers: usize| {
        let v = check_lease_pattern_with(
            &cfg,
            false,
            &limits(workers, Extrapolation::ExtraLu, 60_000),
        )
        .expect("case study lowers");
        assert!(v.is_unsafe(), "baseline must be falsified");
        format!("{v}")
    };
    let reference = render(1);
    for workers in [2usize, 3, 4, 8] {
        assert_eq!(
            reference,
            render(workers),
            "witness drifted at {workers} workers"
        );
    }
}

/// Round-barrier stress under a watchdog: 50 leased proofs and 50
/// lease-stripped falsifications of the case study at each of 2, 4 and
/// 8 workers (300 searches), every fingerprint equal to the 1-worker
/// reference. The searches run on a spawned thread and the test waits
/// at most 120 s for them, so a pool deadlock fails the test instead of
/// hanging the suite.
#[test]
fn round_barrier_stress_under_a_watchdog() {
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::Duration;
    const REPEATS: usize = 50;
    // Nothing is ever sent: the sender drops when the search thread
    // ends, whether it returns or panics, and that wakes the watchdog.
    let (done, ended) = mpsc::channel::<()>();
    let searcher = std::thread::spawn(move || {
        let _done = done;
        let cfg = LeaseConfig::case_study();
        let run = |leased: bool, workers: usize| {
            let verdict = check_lease_pattern_with(
                &cfg,
                leased,
                &limits(workers, Extrapolation::ExtraLu, 60_000),
            )
            .expect("case study lowers");
            fingerprint(&verdict)
        };
        let mut searches = 0usize;
        for leased in [true, false] {
            let reference = run(leased, 1);
            for workers in [2usize, 4, 8] {
                for i in 0..REPEATS {
                    assert_eq!(
                        run(leased, workers),
                        reference,
                        "search {i} at {workers} workers (leased={leased}) drifted"
                    );
                    searches += 1;
                }
            }
        }
        searches
    });
    // A hung pool cannot be joined, so only a timeout leaves the
    // thread behind.
    if let Err(RecvTimeoutError::Timeout) = ended.recv_timeout(Duration::from_secs(120)) {
        panic!("300 round-barrier searches did not finish within 120 s");
    }
    let searches = searcher
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
    assert_eq!(searches, 300);
}

#[test]
fn wall_clock_budget_trips_as_out_of_budget() {
    let cfg = LeaseConfig::case_study();
    let limits = Limits {
        max_wall: Some(std::time::Duration::ZERO),
        ..limits(2, Extrapolation::ExtraLu, 60_000)
    };
    let verdict = check_lease_pattern_with(&cfg, true, &limits).expect("case study lowers");
    let SymbolicVerdict::OutOfBudget { stats, tripped } = &verdict else {
        panic!("a zero wall budget must be inconclusive, got {verdict}");
    };
    assert!(matches!(
        tripped,
        pte_zones::TrippedLimit::WallClock(d) if d.is_zero()
    ));
    assert!(stats.frontier > 0);
    assert!(format!("{verdict}").contains("wall-clock"));
}

/// The compressed passed list reports its footprint and beats
/// full-matrix storage by at least 2× on the case study (the measured
/// factor is higher; the bench prints it).
#[test]
fn passed_list_compression_is_reported_and_substantial() {
    let cfg = LeaseConfig::case_study();
    let verdict = check_lease_pattern_with(&cfg, true, &limits(1, Extrapolation::ExtraLu, 60_000))
        .expect("case study lowers");
    let stats = verdict.stats().expect("safe verdict carries stats");
    assert!(stats.states > 0);
    assert!(
        stats.peak_passed_bytes > 0,
        "peak passed-list bytes must be reported"
    );
    assert!(
        stats.peak_passed_bytes_full >= 2 * stats.peak_passed_bytes,
        "minimal constraint form must at least halve passed-list memory \
         (minimal {} vs full {})",
        stats.peak_passed_bytes,
        stats.peak_passed_bytes_full
    );
}

#[test]
fn extrapolation_operators_agree_and_lu_settles_fewer_states() {
    let cfg = LeaseConfig::case_study();
    let m = check_lease_pattern_with(&cfg, true, &limits(4, Extrapolation::ExtraM, 60_000))
        .expect("case study lowers");
    let lu = check_lease_pattern_with(&cfg, true, &limits(4, Extrapolation::ExtraLu, 60_000))
        .expect("case study lowers");
    assert!(m.is_safe() && lu.is_safe());
    let m_states = m.stats().unwrap().states;
    let lu_states = lu.stats().unwrap().states;
    assert!(
        lu_states < m_states,
        "LU must settle strictly fewer states on the case study \
         (LU {lu_states} vs M {m_states})"
    );
}

/// The N-entity lease-chain lowering is deterministic: building and
/// lowering the same scenario twice yields structurally identical
/// networks (the engine's cross-worker determinism starts from here —
/// a nondeterministic lowering would desynchronize shard hashes).
#[test]
fn chain_lowering_is_deterministic_and_scales() {
    use pte_core::pattern::build_pattern_system;
    let mut prev_clocks = 0;
    for n in 2..=6 {
        let cfg = LeaseConfig::chain(n);
        let lower = || {
            let sys = build_pattern_system(&cfg, true).expect("chain builds");
            pte_zones::lower_network(&sys.automata).expect("chain lowers")
        };
        let net = lower();
        assert_eq!(
            format!("{net:?}"),
            format!("{:?}", lower()),
            "chain({n}) lowering must be reproducible"
        );
        // One supervisor + n devices, every one contributing clocks:
        // the composed network grows strictly with N.
        assert_eq!(net.automata.len(), n + 1, "chain({n}) automata");
        assert!(
            net.clock_count() > prev_clocks,
            "chain({n}) clock space must grow ({} vs {prev_clocks})",
            net.clock_count()
        );
        prev_clocks = net.clock_count();
    }
}

/// Randomized configurations: whatever the verdict (safe, unsafe, or
/// out-of-budget), it must be bit-identical across worker counts, and
/// ExtraM/ExtraLU must agree on conclusive verdicts.
#[derive(Clone, Debug)]
struct RandomConfig {
    t_run1: i64,
    t_enter2: i64,
    leased: bool,
}

fn random_config() -> impl Strategy<Value = RandomConfig> {
    (5i64..50, 2i64..16, 0u8..2).prop_map(|(t_run1, t_enter2, leased)| RandomConfig {
        t_run1,
        t_enter2,
        leased: leased == 1,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn randomized_configs_agree_across_workers(rc in random_config()) {
        let mut cfg = LeaseConfig::case_study();
        // Integer seconds stay microsecond-exact, so the lowering never
        // rejects the randomized constants.
        cfg.t_run[0] = Time::seconds(rc.t_run1 as f64);
        cfg.t_enter[1] = Time::seconds(rc.t_enter2 as f64);

        let budget = 20_000;
        let reference =
            check_lease_pattern_with(&cfg, rc.leased, &limits(1, Extrapolation::ExtraLu, budget))
                .expect("randomized config lowers");
        for workers in [2usize, 4, 8] {
            let parallel = check_lease_pattern_with(
                &cfg,
                rc.leased,
                &limits(workers, Extrapolation::ExtraLu, budget),
            )
            .expect("randomized config lowers");
            prop_assert_eq!(
                fingerprint(&reference),
                fingerprint(&parallel),
                "worker count {} changed the verdict for {:?}",
                workers,
                rc
            );
        }

        // ExtraM agreement on conclusive verdicts (give M more head
        // room: it settles more states than LU for the same system).
        let m = check_lease_pattern_with(
            &cfg,
            rc.leased,
            &limits(4, Extrapolation::ExtraM, 3 * budget),
        )
        .expect("randomized config lowers");
        let conclusive =
            |v: &SymbolicVerdict| matches!(v, SymbolicVerdict::Safe(_) | SymbolicVerdict::Unsafe(_));
        if conclusive(&reference) && conclusive(&m) {
            prop_assert_eq!(
                reference.is_safe(),
                m.is_safe(),
                "extrapolation operators disagree for {:?}",
                rc
            );
        }
    }
}

/// A generated N-entity scenario: a lease chain with perturbed timing
/// constants, either arm. Perturbations keep integer seconds (so the
/// lowering never rejects a constant) but freely break c5/c6 nesting,
/// so generated cases cover safe, unsafe, and out-of-budget verdicts.
#[derive(Clone, Debug)]
struct GeneratedScenario {
    n: usize,
    run_bump: i64,
    enter_bump: i64,
    leased: bool,
}

fn generated_scenario() -> impl Strategy<Value = GeneratedScenario> {
    (2usize..=3, -3i64..8, 0i64..6, 0u8..2).prop_map(|(n, run_bump, enter_bump, leased)| {
        GeneratedScenario {
            n,
            run_bump,
            enter_bump,
            leased: leased == 1,
        }
    })
}

fn generated_config(g: &GeneratedScenario) -> LeaseConfig {
    let mut cfg = LeaseConfig::chain(g.n);
    // Perturb the outermost lease and the innermost enter dwell — the
    // two knobs c6 and c5 are most sensitive to.
    cfg.t_run[0] = Time::seconds((9 + g.run_bump).max(1) as f64);
    let last = g.n - 1;
    cfg.t_enter[last] = Time::seconds((2 * g.n as i64 + g.enter_bump) as f64);
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Generated N-entity scenarios: the lowering is deterministic, and
    /// the verdict *and* counter-example are bit-identical at 1/2/4/8
    /// workers (the fingerprint covers the rendered witness trace and
    /// the passed-list byte accounting, so stored zones are pinned
    /// too). A deliberately small budget keeps debug-mode runtime down
    /// and makes `OutOfBudget` determinism part of the covered space.
    #[test]
    fn generated_scenarios_deterministic_across_workers(g in generated_scenario()) {
        use pte_core::pattern::build_pattern_system;

        let cfg = generated_config(&g);

        // Lowering determinism on the generated system.
        let lowered = || {
            let sys = build_pattern_system(&cfg, g.leased).expect("generated scenario builds");
            let net = pte_zones::lower_network(&sys.automata).expect("generated scenario lowers");
            format!("{net:?}")
        };
        prop_assert_eq!(lowered(), lowered(), "lowering must be reproducible for {:?}", g);

        // Verdict + counter-example bit-identity across worker counts.
        let budget = 6_000;
        let reference =
            check_lease_pattern_with(&cfg, g.leased, &limits(1, Extrapolation::ExtraLu, budget))
                .expect("generated scenario lowers");
        let reference_fp = format!("{} {}", fingerprint(&reference), reference);
        for workers in [2usize, 4, 8] {
            let parallel = check_lease_pattern_with(
                &cfg,
                g.leased,
                &limits(workers, Extrapolation::ExtraLu, budget),
            )
            .expect("generated scenario lowers");
            prop_assert_eq!(
                &reference_fp,
                &format!("{} {}", fingerprint(&parallel), parallel),
                "worker count {} changed the verdict for {:?}",
                workers,
                g
            );
        }
    }
}
