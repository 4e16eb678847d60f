//! Static model analysis: lint fixtures, redundant-clock fixtures, and
//! agreement of searches with and without activity masks on perturbed
//! chains.
//!
//! The fixtures are deliberately *broken* models — an unreachable
//! location, a statically unsatisfiable guard — that `pte-lint` (which
//! renders exactly the [`analyze`] output asserted here) must flag
//! with the right severity, plus a clean model that must lint to zero
//! diagnostics. The agreement proptests pin the analysis's hard
//! correctness requirement: verdicts and counter-example text are
//! bit-identical with the analysis (`Limits::reduce_clocks`) on and
//! off, at every worker count.

use proptest::prelude::*;
use pte_core::pattern::LeaseConfig;
use pte_zones::ta::{Atom, Rel, Sync, TaAutomaton, TaEdge, TaLocation, TaNetwork};
use pte_zones::{analyze, check_lease_pattern_with, Limits, Severity, SymbolicVerdict};

fn loc(name: &str, invariant: Vec<Atom>) -> TaLocation {
    TaLocation {
        name: name.to_string(),
        invariant,
        frozen: false,
        risky: false,
    }
}

fn edge(src: usize, dst: usize, guard: Vec<Atom>, resets: Vec<(usize, i64)>) -> TaEdge {
    TaEdge {
        src,
        dst,
        guard,
        resets,
        sync: Sync::None,
        emits: Vec::new(),
        urgent: false,
    }
}

fn atom(clock: usize, rel: Rel, ticks: i64) -> Atom {
    Atom { clock, rel, ticks }
}

fn single(
    name: &str,
    clocks: &[&str],
    locations: Vec<TaLocation>,
    edges: Vec<TaEdge>,
) -> TaNetwork {
    TaNetwork {
        clocks: clocks.iter().map(|c| c.to_string()).collect(),
        automata: vec![TaAutomaton {
            name: name.to_string(),
            locations,
            edges,
            initial: 0,
        }],
    }
}

/// Fixture 1: a location no edge reaches. `pte-lint` must flag it as a
/// warning — and nothing else in the model lints.
#[test]
fn unreachable_location_fixture_warns() {
    let net = single(
        "m",
        &["m.x"],
        vec![
            loc("Start", vec![atom(1, Rel::Le, 10)]),
            loc("Work", Vec::new()),
            loc("Orphan", Vec::new()),
        ],
        vec![edge(0, 1, vec![atom(1, Rel::Ge, 2)], vec![(1, 0)])],
    );
    let a = analyze(&net);
    let hits: Vec<_> = a
        .diagnostics
        .iter()
        .filter(|d| d.code == "unreachable-location")
        .collect();
    assert_eq!(hits.len(), 1, "exactly Orphan: {:?}", a.diagnostics);
    assert_eq!(hits[0].severity, Severity::Warning);
    assert_eq!(hits[0].site.as_deref(), Some("Orphan"));
    assert!(!a.has_errors(), "{:?}", a.diagnostics);
    assert_eq!(a.stats().locations_unreachable, 1);
}

/// Fixture 2: a guard demanding `x ≥ 8` under a source invariant
/// capping `x ≤ 5` — statically impossible, the lint's only
/// error-severity finding (and what the CI gate fails on).
#[test]
fn unsatisfiable_guard_fixture_errors() {
    let net = single(
        "m",
        &["m.x"],
        vec![
            loc("Start", vec![atom(1, Rel::Le, 5)]),
            loc("End", Vec::new()),
        ],
        vec![
            edge(0, 1, vec![atom(1, Rel::Ge, 8)], Vec::new()),
            // A live escape so End itself stays reachable.
            edge(0, 1, vec![atom(1, Rel::Ge, 1)], Vec::new()),
        ],
    );
    let a = analyze(&net);
    let errors: Vec<_> = a
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert_eq!(errors.len(), 1, "{:?}", a.diagnostics);
    assert_eq!(errors[0].code, "unsat-guard");
    assert!(
        errors[0].message.contains("source invariant"),
        "the guard alone is satisfiable; the invariant kills it: {}",
        errors[0].message
    );
    assert!(a.has_errors());

    // Self-contradictory variant: `x ≥ 8 ∧ x < 8` with no invariant.
    let net = single(
        "m",
        &["m.x"],
        vec![loc("Start", Vec::new()), loc("End", Vec::new())],
        vec![edge(
            0,
            1,
            vec![atom(1, Rel::Ge, 8), atom(1, Rel::Lt, 8)],
            Vec::new(),
        )],
    );
    let a = analyze(&net);
    assert!(a.has_errors());
    let d = a
        .diagnostics
        .iter()
        .find(|d| d.code == "unsat-guard")
        .expect("flagged");
    assert!(d.message.contains("contradictory"), "{}", d.message);
}

/// A clean model lints to zero diagnostics of any severity.
#[test]
fn clean_model_lints_empty() {
    let net = single(
        "m",
        &["m.x"],
        vec![
            loc("Start", vec![atom(1, Rel::Le, 10)]),
            loc("Work", vec![atom(1, Rel::Le, 4)]),
        ],
        vec![
            edge(0, 1, vec![atom(1, Rel::Ge, 2)], vec![(1, 0)]),
            edge(1, 0, Vec::new(), vec![(1, 0)]),
        ],
    );
    let a = analyze(&net);
    assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    assert!(a.reduction.is_identity());
    assert_eq!(a.stats().clocks_before, a.stats().clocks_after);
}

/// Redundant-clock fixture: one clock nothing reads and two clocks
/// always reset together by the same edges — 1 of 3 would do, and the
/// info diagnostics say why.
#[test]
fn reduction_drops_unread_and_merges_duplicate_clocks() {
    let net = single(
        "m",
        &["m.read", "m.twin", "m.noise"],
        vec![
            loc("A", vec![atom(1, Rel::Le, 9)]),
            loc("B", vec![atom(2, Rel::Le, 9)]),
        ],
        vec![
            // Both edges reset clocks 1 and 2 together (same value) and
            // clock 3 on one of them; nothing ever reads clock 3.
            edge(0, 1, Vec::new(), vec![(1, 0), (2, 0), (3, 0)]),
            edge(1, 0, vec![atom(2, Rel::Ge, 1)], vec![(1, 0), (2, 0)]),
        ],
    );
    let a = analyze(&net);
    let s = a.stats();
    assert_eq!(
        (
            s.clocks_before,
            s.clocks_after,
            s.clocks_dropped,
            s.clocks_merged
        ),
        (3, 1, 1, 1),
        "{:?}",
        a.diagnostics
    );
    assert!(a.diagnostics.iter().any(|d| d.code == "unread-clock"));
    assert!(a.diagnostics.iter().any(|d| d.code == "duplicate-clock"));
}

/// Every registry model, both arms, is clock-irreducible *globally*
/// (every clock is live during the innermost nested lease), while its
/// per-location activity masks are non-trivial — the documented honest
/// finding the engine's measured win rests on, and the reason the
/// engine searches every clock as lowered.
#[test]
fn registry_models_are_globally_irreducible_but_have_dead_clocks() {
    for s in pte_tracheotomy::registry::registry() {
        for leased in [true, false] {
            let a = pte_zones::analyze_lease_pattern(&s.config, leased).expect("arm lowers");
            let arm = format!("{} leased={leased}", s.name);
            assert!(a.reduction.is_identity(), "{arm} must not reduce");
            assert!(
                !a.activity.is_trivial(),
                "{arm} must have per-location dead clocks"
            );
            assert!(!a.has_errors(), "{arm} must pass the lint gate");
        }
    }
}

/// Activity masks cover at most 64 clocks. Chain-32 lowers to 65, so its
/// analysis warns that the search runs without them; chain-28 (57
/// clocks) is still covered and stays quiet.
#[test]
fn masks_disabled_above_64_clocks_is_reported() {
    let masks_disabled = |n: usize| {
        let a =
            pte_zones::analyze_lease_pattern(&LeaseConfig::chain(n), true).expect("chain lowers");
        let warnings: Vec<_> = a
            .diagnostics
            .iter()
            .filter(|d| d.code == "masks-disabled")
            .cloned()
            .collect();
        (a.activity.clocks, warnings)
    };
    let (clocks, warnings) = masks_disabled(32);
    assert_eq!(clocks, 0, "chain-32 runs without masks");
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert_eq!(warnings[0].severity, Severity::Warning);
    assert!(warnings[0].automaton.is_none() && warnings[0].site.is_none());
    assert!(
        warnings[0].message.starts_with("65 clocks"),
        "{}",
        warnings[0]
    );

    let (clocks, warnings) = masks_disabled(28);
    assert_eq!(clocks, 57, "chain-28 keeps its masks");
    assert!(warnings.is_empty(), "{warnings:?}");
}

/// Runs one arm of a chain config at one worker count, the analysis on
/// or off, and renders the verdict.
fn run(cfg: &LeaseConfig, leased: bool, workers: usize, reduce: bool) -> SymbolicVerdict {
    let limits = Limits {
        max_states: 80_000,
        max_workers: workers,
        reduce_clocks: reduce,
        ..Limits::default()
    };
    check_lease_pattern_with(cfg, leased, &limits).expect("chain config checks")
}

/// Perturbs a chain config by microsecond-exact 0.1 s steps — enough to
/// flip some configurations unsafe, so both verdict polarities are
/// exercised.
fn perturbed(n: usize, d_wait: i32, d_run: i32, d_exit: i32) -> LeaseConfig {
    let mut cfg = LeaseConfig::chain(n);
    let bump = |t: &mut pte_hybrid::Time, d: i32| {
        *t = pte_hybrid::Time::seconds((t.as_secs_f64() + d as f64 * 0.1).max(0.1));
    };
    bump(&mut cfg.t_wait_max, d_wait);
    let last = cfg.t_run.len() - 1;
    bump(&mut cfg.t_run[last], d_run);
    bump(&mut cfg.t_exit[0], d_exit);
    cfg
}

proptest! {
    // Each case runs up to four searches (two modes × both when the
    // leased arm is drawn); keep the count low enough for tier-1.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The hard requirement, sampled: on perturbed chains the searches
    /// with and without the activity masks agree on the verdict kind,
    /// and falsifications render byte-identical counter-example text,
    /// at every worker count in {1, 2, 4, 8}.
    #[test]
    fn reduced_and_unreduced_agree_on_perturbed_chains(
        // Leased proofs explore the full zone graph, so the arm decides
        // how large a chain stays debug-affordable: baselines falsify
        // at shallow depth even at n = 6, leased proofs cap at n = 3.
        n_raw in 2usize..=6,
        leased_raw in 0usize..2,
        widx in 0usize..4,
        d_wait in -2i32..3,
        d_run in -3i32..4,
        d_exit in -1i32..2,
    ) {
        let leased = leased_raw == 1;
        let n = if leased { 2 + (n_raw & 1) } else { n_raw };
        let workers = [1usize, 2, 4, 8][widx];
        let cfg = perturbed(n, d_wait, d_run, d_exit);
        let reduced = run(&cfg, leased, workers, true);
        let unreduced = run(&cfg, leased, workers, false);
        prop_assert_eq!(
            std::mem::discriminant(&reduced),
            std::mem::discriminant(&unreduced),
            "verdict kind diverged (n={}, leased={}, workers={}): {} vs {}",
            n, leased, workers, reduced, unreduced
        );
        if let (SymbolicVerdict::Unsafe(a), SymbolicVerdict::Unsafe(b)) = (&reduced, &unreduced) {
            prop_assert_eq!(
                format!("{a}"),
                format!("{b}"),
                "counter-example text diverged (n={}, workers={})",
                n, workers
            );
        }
    }
}

/// The headline agreement pinned deterministically (not sampled): the
/// unperturbed chain-3 proof and the chain-4 falsification agree
/// across modes at 1 and 8 workers, counter-example text included.
#[test]
fn chain_agreement_pinned() {
    let safe_cfg = LeaseConfig::chain(3);
    let unsafe_cfg = LeaseConfig::chain(4);
    for workers in [1usize, 8] {
        assert!(run(&safe_cfg, true, workers, true).is_safe());
        assert!(run(&safe_cfg, true, workers, false).is_safe());
        let (a, b) = (
            run(&unsafe_cfg, false, workers, true),
            run(&unsafe_cfg, false, workers, false),
        );
        let (SymbolicVerdict::Unsafe(a), SymbolicVerdict::Unsafe(b)) = (&a, &b) else {
            panic!("chain-4 baseline must falsify: {a} / {b}");
        };
        assert_eq!(
            format!("{a}"),
            format!("{b}"),
            "CE text at {workers} workers"
        );
    }
}

/// Every registry lease-stripped arm with N ≤ 8 falsifies through the
/// verdict-only masked search and the least-path-first rerun, and
/// `check` renders exactly the text of the full unhinted search without
/// masks, at 1, 2, 4 and 8 workers.
#[test]
fn stripped_registry_witnesses_match_the_unhinted_search() {
    let arms: Vec<_> = pte_tracheotomy::registry::registry()
        .into_iter()
        .filter(|s| s.n <= 8)
        .collect();
    assert_eq!(
        arms.len(),
        10,
        "case-study, chain-2..8, factory-cell, stress-lossy"
    );
    for s in arms {
        let pattern = pte_zones::LoweredPattern::new(&s.config, false).expect("arm lowers");
        for workers in [1usize, 2, 4, 8] {
            let limits = |reduce_clocks: bool| Limits {
                max_states: s.recommended_budget,
                max_workers: workers,
                reduce_clocks,
                ..Limits::default()
            };
            let checked = pattern.check(&limits(true)).expect("arm checks");
            let unhinted = pattern.check(&limits(false)).expect("arm checks");
            let (SymbolicVerdict::Unsafe(a), SymbolicVerdict::Unsafe(b)) = (&checked, &unhinted)
            else {
                panic!("{} stripped must falsify: {checked} / {unhinted}", s.name);
            };
            assert_eq!(
                format!("{a}"),
                format!("{b}"),
                "{} witness at {workers} workers",
                s.name
            );
        }
    }
}
