//! Serde round-trip gates for [`VerificationReport`] — the artifact
//! `pte-verifyd` ships over the wire and stores in its report cache.
//! A report that does not survive serialization byte-for-byte would
//! silently corrupt both, so every variant of the verdict lattice
//! (each [`Inconclusive`] reason included) and witness text of every
//! unpleasant shape (control characters, quotes, non-BMP unicode,
//! bidi overrides) must come back exactly.

use proptest::prelude::*;
use pte_verify::api::{AnalysisSummary, BackendStats, Inconclusive, Verdict, VerificationReport};
use pte_verify::CompositionalStats;
use serde::{Deserialize as _, Serialize as _};

/// Characters chosen to stress JSON escaping: ASCII, quotes and
/// backslashes, every escape-class control character, DEL, combining
/// and non-BMP unicode, and a bidi override.
const NASTY_CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1b}',
    '\u{7f}', 'é', 'λ', '→', '子', '𝄞', '\u{202e}', '\u{301}',
];

fn text() -> BoxedStrategy<String> {
    proptest::collection::vec(
        (0usize..NASTY_CHARS.len()).prop_map(|i| NASTY_CHARS[i]),
        0..24,
    )
    .prop_map(|cs| cs.into_iter().collect())
    .boxed()
}

fn option_text() -> BoxedStrategy<Option<String>> {
    prop_oneof![Just(None), text().prop_map(Some)].boxed()
}

fn boolean() -> BoxedStrategy<bool> {
    prop_oneof![Just(false), Just(true)].boxed()
}

/// Every [`Inconclusive`] reason, with adversarial payload text.
fn inconclusive() -> BoxedStrategy<Inconclusive> {
    prop_oneof![
        Just(Inconclusive::Cancelled),
        text().prop_map(Inconclusive::Budget),
        text().prop_map(Inconclusive::Error),
        text().prop_map(Inconclusive::Unsupported),
        text().prop_map(Inconclusive::Unknown),
    ]
    .boxed()
}

fn verdict() -> BoxedStrategy<Verdict> {
    prop_oneof![
        Just(Verdict::Safe),
        Just(Verdict::Unsafe),
        inconclusive().prop_map(Verdict::Inconclusive),
    ]
    .boxed()
}

/// Optional compositional stage counters, as the compositional
/// backend attaches them (absent on every other backend).
fn compositional() -> BoxedStrategy<Option<CompositionalStats>> {
    prop_oneof![
        Just(None),
        proptest::collection::vec(0usize..100_000, 10).prop_map(|ns| {
            Some(CompositionalStats {
                contracts_total: ns[0],
                contracts_checked: ns[1],
                contracts_deduped: ns[2],
                contracts_cached: ns[3],
                symmetry_groups: ns[4],
                refine_pairs: ns[5],
                refine_transitions: ns[6],
                pair_networks: ns[7],
                abstract_states: ns[8],
                abstract_transitions: ns[9],
            })
        }),
    ]
    .boxed()
}

fn backend_stats() -> BoxedStrategy<BackendStats> {
    (
        prop_oneof![
            Just("analytic".to_string()),
            Just("symbolic".to_string()),
            Just("compositional".to_string()),
        ],
        verdict(),
        (text(), option_text(), option_text(), option_text()),
        (0.0f64..5e3, boolean()),
        proptest::collection::vec(0usize..1_000_000, 5),
        compositional(),
    )
        .prop_map(
            |(
                backend,
                verdict,
                (rendered, witness, tripped, error),
                (wall_ms, cancelled),
                ns,
                compositional,
            )| {
                BackendStats {
                    backend,
                    verdict,
                    rendered,
                    witness,
                    wall_ms,
                    states: ns[0],
                    transitions: ns[1],
                    frontier: ns[2],
                    peak_passed_bytes: ns[3],
                    peak_passed_bytes_full: ns[4],
                    warm_seeded: ns[4] % 10_000,
                    tripped,
                    error,
                    cancelled,
                    compositional,
                }
            },
        )
        .boxed()
}

fn analysis() -> BoxedStrategy<Option<AnalysisSummary>> {
    prop_oneof![
        Just(None),
        proptest::collection::vec(0usize..200, 8).prop_map(|ns| {
            Some(AnalysisSummary {
                clocks_before: ns[0],
                clocks_after: ns[1],
                clocks_dropped: ns[2],
                clocks_merged: ns[3],
                locations_unreachable: ns[4],
                errors: ns[5],
                warnings: ns[6],
                infos: ns[7],
            })
        }),
    ]
    .boxed()
}

fn report() -> BoxedStrategy<VerificationReport> {
    (
        option_text(),
        boolean(),
        verdict(),
        // The vendored proptest implements `Strategy` for tuples of at
        // most six elements; nest to stay under the limit.
        (option_text(), option_text(), option_text(), analysis()),
        proptest::collection::vec(backend_stats(), 0..4),
        0.0f64..6e4,
    )
        .prop_map(
            |(
                scenario,
                leased,
                verdict,
                (witness, winner, tripped, analysis),
                backends,
                wall_ms,
            )| {
                // Mirror the dispatcher: the report-level counters are
                // hoisted from whichever backend attached them.
                let compositional = backends.iter().find_map(|b| b.compositional.clone());
                VerificationReport {
                    scenario,
                    leased,
                    verdict,
                    witness,
                    winner,
                    tripped,
                    backends,
                    analysis,
                    compositional,
                    wall_ms,
                }
            },
        )
        .boxed()
}

/// One full round trip through compact JSON text — the exact path the
/// daemon's `Report` frames and cache comparisons take.
fn round_trip(report: &VerificationReport) -> VerificationReport {
    let json = serde_json::to_string(&report.to_value()).expect("report serializes");
    let value = serde_json::from_str_value(&json).expect("report JSON parses");
    VerificationReport::from_value(&value).expect("report deserializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary reports — every verdict shape, adversarial strings,
    /// random stat blocks — survive value-tree AND text round trips
    /// exactly.
    #[test]
    fn reports_round_trip_through_serde(report in report()) {
        let via_value = VerificationReport::from_value(&report.to_value())
            .expect("value round trip");
        prop_assert_eq!(&via_value, &report);
        let via_text = round_trip(&report);
        prop_assert_eq!(&via_text, &report);
    }
}

/// Pinned (non-random) coverage: every `Inconclusive` reason variant
/// round-trips inside a full report, so a missing match arm in a
/// future serde impl cannot hide behind sampling.
#[test]
fn every_inconclusive_reason_round_trips() {
    let reasons = vec![
        Inconclusive::Cancelled,
        Inconclusive::Budget("state budget (max_states = 10)".into()),
        Inconclusive::Error("lowering failed: \"clock overflow\"\n  at λ".into()),
        Inconclusive::Unsupported("the analytic backend checks c1–c7 only".into()),
        Inconclusive::Unknown(String::new()),
    ];
    for reason in reasons {
        let report = VerificationReport {
            scenario: Some("case-study".into()),
            leased: true,
            verdict: Verdict::Inconclusive(reason.clone()),
            witness: None,
            winner: None,
            tripped: Some("cancellation token".into()),
            backends: vec![BackendStats {
                backend: "symbolic".into(),
                verdict: Verdict::Inconclusive(reason.clone()),
                cancelled: matches!(reason, Inconclusive::Cancelled),
                ..BackendStats::default()
            }],
            analysis: Some(AnalysisSummary {
                clocks_before: 5,
                clocks_after: 5,
                warnings: 3,
                infos: 3,
                locations_unreachable: 2,
                ..AnalysisSummary::default()
            }),
            compositional: Some(CompositionalStats {
                contracts_total: 12,
                contracts_checked: 3,
                contracts_deduped: 9,
                refine_pairs: 72,
                pair_networks: 11,
                abstract_states: 6_694,
                ..CompositionalStats::default()
            }),
            wall_ms: 1.5,
        };
        assert_eq!(round_trip(&report), report, "reason {reason:?}");
    }
}

/// Pinned witness-text shapes: the strings most likely to break a JSON
/// writer (raw control characters, backslash runs, bidi overrides,
/// astral-plane symbols, embedded JSON) come back byte-identical.
#[test]
fn unusual_witness_text_round_trips() {
    let witnesses = [
        "plain ascii witness",
        "quotes \" and \\ backslashes \\\\ and / slashes",
        "controls: \u{0}\u{1}\u{8}\t\n\r\u{c}\u{1b}\u{7f}",
        "unicode: é λ → 子 𝄞 🚨 \u{301}combining",
        "bidi: \u{202e}override\u{202c} done",
        "{\"looks\":\"like json\",\"n\":[1,2,3]}",
        "line1\nline2\n  indented zone: x - y <= 17\n",
    ];
    for witness in witnesses {
        let report = VerificationReport {
            scenario: None,
            leased: false,
            verdict: Verdict::Unsafe,
            witness: Some(witness.to_string()),
            winner: Some("symbolic".into()),
            tripped: None,
            backends: vec![BackendStats {
                backend: "symbolic".into(),
                verdict: Verdict::Unsafe,
                witness: Some(witness.to_string()),
                rendered: format!("unsafe: {witness}"),
                ..BackendStats::default()
            }],
            analysis: None,
            compositional: None,
            wall_ms: 0.25,
        };
        let back = round_trip(&report);
        assert_eq!(back.witness.as_deref(), Some(witness));
        assert_eq!(back, report, "witness {witness:?}");
    }
}
