//! Acceptance gates of the scenario registry, driven through the
//! unified [`pte_verify::api`] front door (plus the bounded-exhaustive
//! explorer, called directly): every backend consumes the same named
//! scenarios, the symbolic engine proves the N = 4 lease
//! chain, and the backends agree wherever tier-1 time permits (the
//! full matrix — including `chain-5`/`chain-6` — is the `campaign`
//! binary's job; these tests pin the fast core of it).

use pte_tracheotomy::registry;
use pte_verify::{explore, BackendSel, Verdict, VerificationRequest};

/// A symbolic request against a registry scenario with the test-wide
/// budget. Two workers: verdicts are bit-identical at every count (the
/// engine's determinism guarantee, pinned by
/// `crates/zones/tests/parallel.rs`), so tests may as well use both
/// vCPUs of the CI container.
fn symbolic(scenario: &str, leased: bool, max_states: usize) -> VerificationRequest {
    VerificationRequest::scenario(scenario)
        .leased(leased)
        .backend(BackendSel::Symbolic)
        .max_states(max_states)
        .workers(2)
}

/// The headline scale gate: the symbolic backend proves the 4-device
/// interlocking lease chain safe over all timings and loss fates, and
/// falsifies its lease-stripped baseline with a real counter-example
/// trace.
#[test]
fn chain_4_proved_safe_and_baseline_falsified() {
    let proof = symbolic("chain-4", true, 80_000)
        .run()
        .expect("chain-4 registered");
    assert_eq!(proof.verdict, Verdict::Safe, "chain-4 leased: {proof}");
    let stats = proof.backend("symbolic").expect("symbolic ran");
    // Pre-reduction this proof settled ≈ 56 700 states; the static
    // activity masks collapse the dead-clock interleavings of idle
    // chain devices to ≈ 2 500. The gate now pins both facts: the
    // reduced search still exercises a non-trivial state space, and
    // the collapse itself keeps delivering (a regression that disables
    // masking would shoot past the ceiling).
    assert!(stats.states > 1_500, "N=4 must exercise scale: {proof}");
    assert!(
        stats.states < 50_000,
        "activity masks should collapse idle-device interleavings: {proof}"
    );

    let baseline = symbolic("chain-4", false, 80_000).run().expect("resolves");
    assert_eq!(baseline.verdict, Verdict::Unsafe, "{baseline}");
    let ce = baseline
        .witness
        .as_deref()
        .expect("falsification carries a witness");
    assert!(
        ce.lines().count() > 2,
        "witness must be a real trace:\n{ce}"
    );
    assert!(ce.contains("zone:"), "witness zone must be rendered:\n{ce}");
}

/// Cross-backend agreement on the fast registry scenarios (N ≤ 3 plus
/// the stress variant), both arms: analytic c1–c7 says the leased arm is safe (Theorem 1), the
/// symbolic engine proves it, the bounded-exhaustive explorer confirms
/// it at depth 4 — and symbolic + exhaustive both falsify the baseline
/// (the analytic backend is conservative there and must report
/// inconclusive, never a verdict). `chain-4` has its own gate above;
/// `chain-5`/`chain-6` are campaign territory (25 s / 170 s
/// release-mode proofs).
#[test]
fn fast_registry_scenarios_agree_across_backends() {
    for s in registry::registry() {
        if s.n > 3 {
            continue;
        }
        for leased in [true, false] {
            let request = symbolic(&s.name, leased, 80_000);
            let analytic = request
                .clone()
                .backend(BackendSel::Analytic)
                .run()
                .unwrap_or_else(|e| panic!("{} (leased={leased}): {e}", s.name));
            if leased {
                assert_eq!(
                    analytic.verdict,
                    Verdict::Safe,
                    "{}: registry scenarios satisfy c1–c7, so Theorem 1 applies",
                    s.name
                );
            } else {
                assert!(
                    !analytic.verdict.is_conclusive(),
                    "{}: the analytic backend must not judge the baseline: {:?}",
                    s.name,
                    analytic.verdict
                );
            }

            let symbolic = request
                .run()
                .unwrap_or_else(|e| panic!("{} (leased={leased}): {e}", s.name));
            let expected = if leased {
                Verdict::Safe
            } else {
                Verdict::Unsafe
            };
            assert_eq!(
                symbolic.verdict, expected,
                "{} (leased={leased}): {symbolic}",
                s.name
            );

            let exhaustive = explore(&s.config, leased, 4, false);
            assert_eq!(
                exhaustive.all_safe(),
                leased,
                "{} (leased={leased}): exhaustive disagrees: {exhaustive}",
                s.name
            );
        }
    }
}
