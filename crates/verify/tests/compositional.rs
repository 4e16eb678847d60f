//! The compositional assume-guarantee backend through the unified API
//! front door: agreement with the monolithic symbolic engine on every
//! fast chain (both arms), the soundness-by-construction fallback on
//! the baseline, pair proof transfers on a relaxed edit, and the scale
//! gap the chain-12/16/20 registry scenarios exist for — the monolithic
//! engine trips a budget the compositional argument closes with room to
//! spare. The fast tests stay debug-mode cheap; the full release-mode
//! matrix (chain-2..8 both arms, and the registry-budget scale gate) is
//! `#[ignore]`d and run where tier-1 time permits.

use pte_core::pattern::LeaseConfig;
use pte_core::rules::PairSpec;
use pte_hybrid::Time;
use pte_tracheotomy::registry;
use pte_verify::{BackendSel, Inconclusive, Verdict, VerificationRequest};

fn request(
    scenario: &str,
    leased: bool,
    backend: BackendSel,
    budget: usize,
) -> VerificationRequest {
    VerificationRequest::scenario(scenario)
        .leased(leased)
        .backend(backend)
        .max_states(budget)
        .workers(2)
}

/// Compositional and symbolic verdicts agree on the fast registry
/// scenarios, both arms. The leased arm closes through the contract
/// argument (stats prove it stayed compositional, and the report has
/// no analysis: nothing analyzed the monolithic network); the baseline
/// arm falls back to the monolithic engine and reports the `Symbolic`
/// run's verdict, witness and analysis — never a spurious Safe, never
/// an abstract Unsafe.
#[test]
fn compositional_agrees_with_symbolic_on_fast_scenarios() {
    for s in registry::registry() {
        if s.n > 3 {
            continue;
        }
        for leased in [true, false] {
            let symbolic = request(&s.name, leased, BackendSel::Symbolic, 80_000)
                .run()
                .unwrap_or_else(|e| panic!("{} (leased={leased}): {e}", s.name));
            let comp = request(&s.name, leased, BackendSel::Compositional, 80_000)
                .run()
                .unwrap_or_else(|e| panic!("{} (leased={leased}): {e}", s.name));
            assert_eq!(
                comp.verdict, symbolic.verdict,
                "{} (leased={leased}): compositional disagrees\n{comp}\n{symbolic}",
                s.name
            );
            let stats = comp
                .compositional
                .as_ref()
                .expect("the compositional backend reports its stage counters");
            assert!(stats.contracts_total > 0);
            if leased {
                assert_eq!(comp.verdict, Verdict::Safe, "{}: {comp}", s.name);
                assert!(
                    stats.pair_networks == s.n - 1,
                    "{}: one abstract network per safeguard pair, got {}",
                    s.name,
                    stats.pair_networks
                );
                assert!(stats.abstract_states > 0);
                assert_eq!(comp.analysis, None, "{}", s.name);
            } else {
                assert_eq!(comp.verdict, Verdict::Unsafe, "{}: {comp}", s.name);
                let b = comp.backend("compositional").expect("backend stats");
                assert!(
                    b.rendered.contains("fell back to monolithic"),
                    "{}: the baseline must be discharged by the fallback:\n{}",
                    s.name,
                    b.rendered
                );
                assert!(
                    comp.witness.is_some(),
                    "{}: the fallback falsification carries a witness",
                    s.name
                );
                assert_eq!(comp.witness, symbolic.witness, "{}", s.name);
                assert!(comp.analysis.is_some(), "{}", s.name);
                assert_eq!(comp.analysis, symbolic.analysis, "{}", s.name);
            }
        }
    }
}

/// A relaxed edit of a compositional proof (every safeguard halved, the
/// network untouched) transfers every pair proof: the report names the
/// transferred pairs and seeds exactly the cold proof's abstract states.
/// `warm_start(false)` forces the same edit cold. The configuration is
/// chain-4 with every constant tripled, which no other test in this
/// binary proves: the pair proof store is process-global.
#[test]
fn relaxed_edit_transfers_every_pair_proof() {
    let triple = |t: Time| Time::seconds(t.as_secs_f64() * 3.0);
    let all = |ts: &[Time]| ts.iter().copied().map(triple).collect::<Vec<_>>();
    let chain = LeaseConfig::chain(4);
    let cfg = LeaseConfig {
        t_fb0_min: triple(chain.t_fb0_min),
        t_wait_max: triple(chain.t_wait_max),
        t_req_max: triple(chain.t_req_max),
        t_enter: all(&chain.t_enter),
        t_run: all(&chain.t_run),
        t_exit: all(&chain.t_exit),
        safeguards: vec![PairSpec::new(Time::seconds(3.0), Time::seconds(1.5)); 3],
        ..chain
    };
    let edit = LeaseConfig {
        safeguards: vec![PairSpec::new(Time::seconds(1.5), Time::seconds(0.75)); 3],
        ..cfg.clone()
    };
    let run = |cfg: &LeaseConfig, warm: bool| {
        let report = VerificationRequest::config(cfg.clone())
            .backend(BackendSel::Compositional)
            .workers(2)
            .warm_start(warm)
            .run()
            .unwrap();
        assert_eq!(report.verdict, Verdict::Safe, "{report}");
        let b = report
            .backend("compositional")
            .expect("backend stats")
            .clone();
        (report, b)
    };

    let (cold, b) = run(&cfg, true);
    assert_eq!(b.warm_seeded, 0);
    assert!(!b.rendered.contains("transferred"), "{}", b.rendered);
    let states = cold.compositional.expect("stage counters").abstract_states;

    let (warm, b) = run(&edit, true);
    assert_eq!(b.warm_seeded, states, "{}", b.rendered);
    assert!(
        b.rendered.contains("3 pair proofs transferred"),
        "{}",
        b.rendered
    );
    assert_eq!(warm.analysis, None);

    let (_, b) = run(&edit, false);
    assert_eq!(b.warm_seeded, 0, "warm_start(false) transfers nothing");
    assert!(!b.rendered.contains("transferred"), "{}", b.rendered);
}

/// The scale gap, sized for debug-mode tier-1: at a 6 000-state
/// budget the monolithic engine trips on chain-12 while every
/// abstract pair search of the compositional argument fits with room
/// to spare. (`chain_12_closes_at_registry_budget` pins the same gap
/// at the registry's real 40 000-state recommendation.)
#[test]
fn chain_12_scale_gap_at_reduced_budget() {
    let mono = request("chain-12", true, BackendSel::Symbolic, 6_000)
        .run()
        .expect("chain-12 registered");
    match &mono.verdict {
        Verdict::Inconclusive(Inconclusive::Budget(what)) => {
            assert!(what.contains("state budget"), "tripped on: {what}")
        }
        other => panic!("monolithic chain-12 must trip the 6k budget, got {other:?}"),
    }

    let comp = request("chain-12", true, BackendSel::Compositional, 6_000)
        .run()
        .expect("chain-12 registered");
    assert_eq!(comp.verdict, Verdict::Safe, "{comp}");
    let stats = comp.compositional.as_ref().expect("stage counters");
    assert_eq!(stats.contracts_total, 12);
    assert_eq!(stats.pair_networks, 11);
    assert!(stats.refine_pairs > 0);

    // The baseline arm at scale: refinement fails fast, the fallback
    // falsifies — Unsafe, not a spurious Safe.
    let baseline = request("chain-12", false, BackendSel::Compositional, 6_000)
        .run()
        .expect("chain-12 registered");
    assert_eq!(baseline.verdict, Verdict::Unsafe, "{baseline}");
}

/// The full agreement matrix, chain-2..chain-8 both arms at each
/// scenario's recommended budget. Release-mode territory (the chain-8
/// proof alone is minutes in debug): `cargo test --release -p
/// pte-verify --test compositional -- --ignored`.
#[test]
#[ignore = "release-mode matrix; tier-1 covers n <= 3"]
fn full_chain_matrix_agreement() {
    for s in registry::registry() {
        let chain = s
            .name
            .strip_prefix("chain-")
            .and_then(|n| n.parse::<usize>().ok());
        if !matches!(chain, Some(n) if (2..=8).contains(&n)) {
            continue;
        }
        for leased in [true, false] {
            let budget = s.recommended_budget;
            let symbolic = request(&s.name, leased, BackendSel::Symbolic, budget)
                .run()
                .unwrap();
            let comp = request(&s.name, leased, BackendSel::Compositional, budget)
                .run()
                .unwrap();
            assert_eq!(
                comp.verdict, symbolic.verdict,
                "{} (leased={leased}):\n{comp}\n{symbolic}",
                s.name
            );
        }
    }
}

/// The registry claim itself: chain-12/16/20 close compositionally at
/// their recommended 40k budget, and the monolithic engine trips that
/// same budget on chain-12. Release-mode (the monolithic trip burns
/// ~45k settled states before giving up).
#[test]
#[ignore = "release-mode scale gate; the reduced-budget test covers tier-1"]
fn chain_12_closes_at_registry_budget() {
    let budget = registry::by_name("chain-12").unwrap().recommended_budget;
    let mono = request("chain-12", true, BackendSel::Symbolic, budget)
        .run()
        .unwrap();
    assert!(
        matches!(
            &mono.verdict,
            Verdict::Inconclusive(Inconclusive::Budget(_))
        ),
        "monolithic chain-12 must trip the registry budget: {mono}"
    );
    for name in ["chain-12", "chain-16", "chain-20"] {
        let comp = request(name, true, BackendSel::Compositional, budget)
            .run()
            .unwrap();
        assert_eq!(comp.verdict, Verdict::Safe, "{name}: {comp}");
    }
}
