//! Integration gates of the unified `pte_verify::api` front door:
//! cooperative cancellation (prompt, never a spurious verdict, at every
//! worker count), `Auto` sequencing (the analytic check first, the zone
//! search only when it is inconclusive, with the symbolic backend's own
//! witness), query routing, and serde round-trips of requests and
//! reports.

use proptest::prelude::*;
use pte_verify::api::{
    ApiError, BackendSel, Inconclusive, Query, Verdict, VerificationReport, VerificationRequest,
};
use pte_verify::{CancelToken, Progress, ProgressSink};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A progress sink that fires `token` once `cancel_round` is reached
/// and records the highest round it ever observed.
fn cancelling_sink(
    token: CancelToken,
    cancel_round: usize,
    max_seen: Arc<AtomicUsize>,
) -> ProgressSink {
    Arc::new(move |_backend: &str, p: &Progress| {
        max_seen.fetch_max(p.round, Ordering::Relaxed);
        if p.round >= cancel_round {
            token.cancel();
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A `CancelToken` fired mid-search stops the symbolic engine
    /// within one BFS layer — the progress stream ends at the round
    /// that fired — and the verdict is `Inconclusive(Cancelled)`,
    /// never a spurious `Safe`/`Unsafe`, at 1/2/4/8 workers alike.
    #[test]
    fn cancellation_is_prompt_and_never_a_verdict(cancel_round in 0usize..5) {
        for workers in [1usize, 2, 4, 8] {
            let token = CancelToken::new();
            let max_seen = Arc::new(AtomicUsize::new(0));
            let sink = cancelling_sink(token.clone(), cancel_round, max_seen.clone());
            let report = VerificationRequest::scenario("case-study")
                .leased(true)
                .backend(BackendSel::Symbolic)
                .workers(workers)
                .run_with(&token, Some(sink))
                .expect("case-study resolves");
            prop_assert_eq!(
                &report.verdict,
                &Verdict::Inconclusive(Inconclusive::Cancelled),
                "workers={}: {}", workers, report
            );
            prop_assert!(!report.verdict.is_conclusive());
            // Within one layer: the engine honours the token at the
            // very boundary whose snapshot fired it, so no later round
            // is ever explored (or reported).
            let seen = max_seen.load(Ordering::Relaxed);
            prop_assert_eq!(
                seen, cancel_round,
                "workers={}: cancellation at round {} must not run past it (saw {})",
                workers, cancel_round, seen
            );
            let stats = report.backend("symbolic").expect("symbolic ran");
            prop_assert!(stats.cancelled);
            prop_assert_eq!(stats.tripped.as_deref(), Some("cancellation token"));
            // A cancelled search is truncated mid-flight: its frontier
            // is still populated.
            prop_assert!(stats.frontier > 0, "workers={}", workers);
        }
    }
}

/// The names of the backends a report ran, in run order.
fn ran(report: &VerificationReport) -> Vec<&str> {
    report.backends.iter().map(|b| b.backend.as_str()).collect()
}

/// `Auto` on every registry scenario with N ≤ 8, both arms: the leased
/// arm is proved by the analytic check alone; the lease-stripped arm
/// leaves the analytic check inconclusive and is falsified by the zone
/// search, with the witness and analysis summary `Symbolic` reports
/// under the same budget (the leased report has no analysis: nothing
/// lowered the model). `LocationReach` runs only the zone search and
/// `ConditionCheck` only the analytic check.
#[test]
fn auto_runs_the_analytic_check_then_the_zone_search() {
    for s in pte_tracheotomy::registry::registry() {
        if s.n > 8 {
            continue;
        }
        let auto = |leased: bool| VerificationRequest::scenario(&s.name).leased(leased);

        let leased = auto(true).run().expect("registry scenario resolves");
        assert_eq!(leased.verdict, Verdict::Safe, "{}: {leased}", s.name);
        assert_eq!(leased.winner.as_deref(), Some("analytic"), "{}", s.name);
        assert_eq!(ran(&leased), ["analytic"], "{}", s.name);
        // No zone search ran, so the model was never lowered.
        assert_eq!(leased.analysis, None, "{}", s.name);

        let stripped = auto(false).run().expect("registry scenario resolves");
        assert_eq!(stripped.verdict, Verdict::Unsafe, "{}: {stripped}", s.name);
        assert_eq!(stripped.winner.as_deref(), Some("symbolic"), "{}", s.name);
        assert_eq!(ran(&stripped), ["analytic", "symbolic"], "{}", s.name);
        // Same request, same budget, explicit backend.
        let symbolic = auto(false)
            .backend(BackendSel::Symbolic)
            .run()
            .expect("registry scenario resolves");
        assert_eq!(
            stripped.witness, symbolic.witness,
            "{}: the Auto witness must be the symbolic backend's, byte for byte",
            s.name
        );
        assert_eq!(stripped.tripped, None, "{}", s.name);
        // The zone search lowered the arm, and the report carries the
        // analysis that search read.
        assert!(stripped.analysis.is_some(), "{}", s.name);
        assert_eq!(stripped.analysis, symbolic.analysis, "{}", s.name);

        for arm in [true, false] {
            let reach = auto(arm)
                .query(Query::LocationReach {
                    targets: vec![("initializer".into(), "Requesting".into())],
                })
                .run()
                .expect("registry scenario resolves");
            assert_eq!(reach.verdict, Verdict::Unsafe, "{}: {reach}", s.name);
            assert_eq!(ran(&reach), ["symbolic"], "{}", s.name);

            let conditions = auto(arm)
                .query(Query::ConditionCheck)
                .run()
                .expect("registry scenario resolves");
            assert_eq!(conditions.verdict, Verdict::Safe, "{}", s.name);
            assert_eq!(ran(&conditions), ["analytic"], "{}", s.name);
        }
    }
}

/// `LocationReach` routes to the symbolic engine: a reachable target
/// yields `Unsafe` with a witness trace, an unknown automaton an
/// in-band backend error.
#[test]
fn location_reach_routes_to_the_symbolic_engine() {
    let reach = |targets: Vec<(String, String)>| {
        VerificationRequest::scenario("case-study")
            .leased(true)
            .query(Query::LocationReach { targets })
            .backend(BackendSel::Auto)
            .run()
            .expect("case-study resolves")
    };
    let hit = reach(vec![("participant1".into(), "Risky Core".into())]);
    assert_eq!(hit.verdict, Verdict::Unsafe, "{hit}");
    assert_eq!(hit.winner.as_deref(), Some("symbolic"));
    assert!(
        hit.witness.as_deref().unwrap().contains("Risky Core"),
        "{:?}",
        hit.witness
    );

    let bogus = reach(vec![("no-such-automaton".into(), "x".into())]);
    assert!(
        matches!(bogus.verdict, Verdict::Inconclusive(Inconclusive::Error(_))),
        "{:?}",
        bogus.verdict
    );
}

/// Requests and reports round-trip through the vendored serde — the
/// wire contract a service layer builds on.
#[test]
fn requests_and_reports_serde_round_trip() {
    let request = VerificationRequest::scenario("chain-3")
        .leased(false)
        .backend(BackendSel::Auto)
        .query(Query::LocationReach {
            targets: vec![("participant1".into(), "Risky Core".into())],
        })
        .max_states(12_345)
        .workers(2)
        .max_wall_ms(9_000);
    let json = serde_json::to_string(&request).expect("request serializes");
    let back: VerificationRequest = serde_json::from_str(&json).expect("request parses");
    assert_eq!(request, back);

    let report = VerificationRequest::scenario("case-study")
        .leased(true)
        .backend(BackendSel::Analytic)
        .run()
        .expect("case-study resolves");
    let json = serde_json::to_string(&report).expect("report serializes");
    let back: VerificationReport = serde_json::from_str(&json).expect("report parses");
    assert_eq!(report, back);

    // Errors are serializable too (they cross the same wire).
    let err = VerificationRequest::scenario("no-such").run().unwrap_err();
    let json = serde_json::to_string(&err).expect("error serializes");
    let back: ApiError = serde_json::from_str(&json).expect("error parses");
    assert_eq!(err, back);
}
