//! The scenario registry: named lease-pattern configurations every
//! verification backend consumes.
//!
//! Until PR 4 each backend, bench, and campaign cell was hard-wired to
//! the single 2-device laser-tracheotomy instance. The registry turns
//! "which system are we verifying?" into data: a [`Scenario`] is a
//! named [`LeaseConfig`] (the analytic c1–c7 check, the bounded
//! exhaustive explorer, and the symbolic zone engine all start from
//! one), and the standard set spans
//!
//! * `case-study` — the paper's Section V laser-tracheotomy constants;
//! * `chain-2` … `chain-8` — N-device interlocking lease chains
//!   ([`LeaseConfig::chain`]): one supervisor, `N` leased devices, a
//!   c5/c6 nesting ladder with slack exactly 1 at every rung;
//! * `factory-cell` — a second domain: the industrial welding-robot
//!   cell of `examples/factory_cell.rs` (exhaust fan ⊃ light curtain ⊃
//!   part clamp ⊃ welding arc), with its timing **synthesized** from
//!   the safeguard requirements via [`pte_core::synthesis::synthesize`]
//!   rather than hand-written — so the registry also exercises the
//!   synthesis path end-to-end;
//! * `chain-12` / `chain-16` / `chain-20` — compositional-scale
//!   fleets: their recommended budget (40 000 states) is deliberately
//!   *below* the monolithic zone graph (chain-12 already exceeds
//!   66 000 settled states), so only the assume-guarantee backend
//!   (`--backend compositional`, whose largest abstract pair search is
//!   three orders of magnitude smaller) can close them within budget;
//! * `stress-lossy` — the case-study wiring with the outermost lease
//!   stretched to its c4 boundary (`T^max_run,1 = 47`,
//!   `T^max_enter,2 = 10`), which maximizes the window in which lossy
//!   messages race the lease timers and is the largest 2-device zone
//!   graph in the set.
//!
//! Every scenario in the registry satisfies c1–c7, so Theorem 1 says
//! its leased arm is PTE-safe and the symbolic backend must prove it
//! (and falsify the lease-stripped baseline) — the cross-backend
//! agreement gate `campaign` enforces.

use pte_core::pattern::LeaseConfig;
use pte_core::rules::PairSpec;
use pte_core::synthesis::{synthesize, SynthesisRequest};
use pte_hybrid::Time;
use serde::{Deserialize, Serialize};

/// A named verification scenario. Serializable as-is, so a service
/// layer (`pte-verifyd`'s `ListScenarios` frame) can ship the whole
/// catalogue — configs and recommended budgets included — over the
/// wire instead of re-encoding a parallel listing type.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Registry name (stable; used by `--scenario` selectors).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Number of leased entities `N`.
    pub n: usize,
    /// The timing configuration (satisfies c1–c7).
    pub config: LeaseConfig,
    /// Symbolic state budget that concludes this scenario with ample
    /// headroom over its measured explored set — the single source
    /// every `--scenario` consumer (campaign, zprobe) scales its
    /// default budget from, so a future shift in the engine's search
    /// cannot silently turn one tool's default inconclusive. The
    /// budgets deliberately keep the headroom of a search without the
    /// activity masks (`chain-6` settles ≈ 477k states unmasked; the
    /// masks cut that to ≈ 8k, with `chain-7` ≈ 13k and `chain-8` ≈ 20k)
    /// because a falsification re-derives its witness without the masks
    /// under the same budget.
    pub recommended_budget: usize,
}

/// The ≥ 2×-headroom budget for an `N`-entity scenario (see
/// [`Scenario::recommended_budget`]).
fn recommended_budget(n: usize) -> usize {
    match n {
        0..=3 => 60_000,
        4 => 120_000,
        5 => 350_000,
        _ => 1_000_000,
    }
}

/// The `factory-cell` configuration: the welding-robot requirements of
/// `examples/factory_cell.rs` run through the timing synthesizer. The
/// request is infallible by construction (the same constants the
/// example asserts feasible), so the registry stays a pure catalogue.
fn factory_cell() -> LeaseConfig {
    let request = SynthesisRequest {
        n: 4,
        safeguards: vec![
            PairSpec::new(Time::seconds(3.0), Time::seconds(2.0)),
            PairSpec::new(Time::seconds(2.0), Time::seconds(1.0)),
            PairSpec::new(Time::seconds(1.0), Time::seconds(0.5)),
        ],
        rule1_bound: Time::seconds(600.0),
        min_run_initializer: Time::seconds(20.0),
        t_wait: Time::seconds(2.0),
        margin: Time::seconds(0.5),
    };
    synthesize(&request).expect("the factory-cell timing requirements are feasible")
}

/// The standard scenario set, in registry order (`case-study` first,
/// chains by `N`, stress variant last).
pub fn registry() -> Vec<Scenario> {
    let mut scenarios = vec![Scenario {
        name: "case-study".to_string(),
        description: "Section V laser tracheotomy (ventilator < laser scalpel)".to_string(),
        n: 2,
        config: LeaseConfig::case_study(),
        recommended_budget: recommended_budget(2),
    }];
    for n in 2..=8 {
        scenarios.push(Scenario {
            name: format!("chain-{n}"),
            description: format!("{n}-device interlocking lease chain"),
            n,
            config: LeaseConfig::chain(n),
            recommended_budget: recommended_budget(n),
        });
    }
    scenarios.push(Scenario {
        name: "factory-cell".to_string(),
        description: "welding-robot cell (fan ⊃ curtain ⊃ clamp ⊃ arc), synthesized timing"
            .to_string(),
        n: 4,
        config: factory_cell(),
        recommended_budget: recommended_budget(4),
    });
    // Compositional-scale fleets: the 40k budget is deliberately below
    // the monolithic zone graph (chain-12 ≈ 66.8k settled states) but
    // far above any single abstract pair search of the compositional
    // backend (chain-20's largest is well under 4k), so these close
    // only through `--backend compositional` — that scale gap is the
    // scenario's point.
    for n in [12usize, 16, 20] {
        scenarios.push(Scenario {
            name: format!("chain-{n}"),
            description: format!("{n}-device fleet (compositional-scale: monolithic trips 40k)"),
            n,
            config: LeaseConfig::chain(n),
            recommended_budget: 40_000,
        });
    }
    let mut stress = LeaseConfig::case_study();
    stress.t_run[0] = Time::seconds(47.0);
    stress.t_enter[1] = Time::seconds(10.0);
    scenarios.push(Scenario {
        name: "stress-lossy".to_string(),
        description: "case study with T^max_run,1 at the c4 boundary (largest loss-race window)"
            .to_string(),
        n: 2,
        config: stress,
        recommended_budget: recommended_budget(2),
    });
    scenarios
}

/// Looks a scenario up by name.
pub fn by_name(name: &str) -> Option<Scenario> {
    registry().into_iter().find(|s| s.name == name)
}

/// The registry's scenario names, in registry order.
pub fn names() -> Vec<String> {
    registry().into_iter().map(|s| s.name).collect()
}

/// One-line-per-scenario listing for `--scenario` error messages.
pub fn listing() -> String {
    registry()
        .iter()
        .map(|s| format!("  {:<12} (N={}) — {}", s.name, s.n, s.description))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Case-insensitive Levenshtein edit distance, the basis of the
/// nearest-name suggestion in [`unknown_scenario_diagnostic`]. Small
/// inputs only (scenario names), so the O(|a|·|b|) two-row form is
/// plenty.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().flat_map(char::to_lowercase).collect();
    let b: Vec<char> = b.chars().flat_map(char::to_lowercase).collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            cur[j + 1] = subst.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The candidate closest to `name`, when it is close enough to be a
/// plausible typo (edit distance ≤ 2, or ≤ a third of the name's
/// length for long names) — the generic "did you mean" engine behind
/// [`nearest_name`], reused by every other name-resolving surface
/// (e.g. `pte-verify`'s contract-profile selector) so suggestion
/// behaviour cannot drift between them.
pub fn nearest_of<I, S>(name: &str, candidates: I) -> Option<String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let (best, dist) = candidates
        .into_iter()
        .map(|n| {
            let d = edit_distance(name, n.as_ref());
            (n.as_ref().to_string(), d)
        })
        .min_by_key(|(n, d)| (*d, n.clone()))?;
    let threshold = 2.max(name.chars().count() / 3);
    (dist <= threshold).then_some(best)
}

/// The registry name closest to `name` ([`nearest_of`] over the
/// scenario names) — the "did you mean" candidate.
pub fn nearest_name(name: &str) -> Option<String> {
    nearest_of(name, names())
}

/// The canonical unknown-scenario diagnostic, shared by every surface
/// that reports one (the CLI resolver here and
/// `pte_verify::api::ApiError`), so the wording cannot drift between
/// them. When the failed name is a near-miss of a registry name the
/// first line carries a "did you mean" suggestion. `listing` is the
/// catalogue to embed — pass [`listing`]'s output unless replaying a
/// captured one.
pub fn unknown_scenario_diagnostic(name: &str, listing: &str) -> String {
    let suggestion = nearest_name(name)
        .map(|n| format!("; did you mean `{n}`?"))
        .unwrap_or_default();
    format!("unknown scenario `{name}`{suggestion}; available scenarios:\n{listing}")
}

/// Resolves a `--scenario` CLI value: `Ok` for a registry name, `Err`
/// with the ready-to-print diagnostic (unknown name + [`listing`])
/// otherwise.
pub fn resolve(name: &str) -> Result<Scenario, String> {
    by_name(name).ok_or_else(|| unknown_scenario_diagnostic(name, &listing()))
}

/// The shared CLI front door for `--scenario` (used by `campaign` and
/// `zprobe`): resolves the name, or prints the diagnostic — listing
/// included — to **stderr** and exits with status `2`. (`--list`
/// output goes to stdout with status `0`; only the error path lands on
/// stderr.)
pub fn resolve_cli(name: &str) -> Scenario {
    resolve(name).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pte_core::pattern::check_conditions;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names = names();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "duplicate scenario `{n}`");
            assert_eq!(by_name(n).unwrap().name, *n);
        }
        assert!(by_name("no-such-scenario").is_none());
        assert!(listing().contains("case-study"));
    }

    /// The CLI resolver returns the scenario for known names and a
    /// diagnostic that embeds the listing for unknown ones.
    #[test]
    fn resolve_embeds_listing_on_unknown_names() {
        assert_eq!(resolve("chain-3").unwrap().name, "chain-3");
        let err = resolve("no-such-scenario").unwrap_err();
        assert!(err.contains("unknown scenario `no-such-scenario`"), "{err}");
        assert!(err.contains("case-study"), "{err}");
        assert!(err.contains("stress-lossy"), "{err}");
    }

    /// Near-miss names get a "did you mean" line; distant ones do not.
    #[test]
    fn unknown_name_suggests_the_nearest_scenario() {
        let err = resolve("chain4").unwrap_err();
        assert!(err.contains("did you mean `chain-4`?"), "{err}");
        let err = resolve("CASE-STUDY ").unwrap_err();
        assert!(err.contains("did you mean `case-study`?"), "{err}");
        let err = resolve("stress_lossy").unwrap_err();
        assert!(err.contains("did you mean `stress-lossy`?"), "{err}");
        // A name nothing like any scenario stays suggestion-free but
        // still embeds the listing.
        let err = resolve("ventilator-only-fleet").unwrap_err();
        assert!(!err.contains("did you mean"), "{err}");
        assert!(err.contains("available scenarios:"), "{err}");
        assert_eq!(nearest_name("chain-44").as_deref(), Some("chain-4"));
        assert_eq!(nearest_name("zzzzzzzzzz"), None);
    }

    /// Scenarios ship over the wire unchanged: the whole registry
    /// round-trips through serde, configs and budgets included.
    #[test]
    fn scenarios_round_trip_through_serde() {
        use serde::{Deserialize as _, Serialize as _};
        for s in registry() {
            let back = Scenario::from_value(&s.to_value()).unwrap();
            assert_eq!(back, s, "{}", s.name);
        }
    }

    #[test]
    fn every_scenario_satisfies_theorem_1_conditions() {
        for s in registry() {
            let report = check_conditions(&s.config);
            assert!(report.is_satisfied(), "{}:\n{report}", s.name);
            assert_eq!(s.config.n, s.n, "{}", s.name);
        }
    }

    #[test]
    fn every_scenario_builds_both_arms() {
        for s in registry() {
            for leased in [true, false] {
                pte_core::pattern::build_pattern_system(&s.config, leased)
                    .unwrap_or_else(|e| panic!("{} (leased={leased}): {e:?}", s.name));
            }
        }
    }
}
