//! `pte-lint`: the static model linter over lowered lease-pattern
//! networks.
//!
//! Builds and lowers the named registry scenarios (both arms by
//! default), runs the [static analysis](pte_zones::analysis) —
//! redundant clocks, activity masks, lint diagnostics — and prints
//! every finding. Exit status is the CI contract: `1` when any diagnostic is
//! `error`-severity, `2` on usage/build failures, `0` otherwise
//! (warnings and infos never fail the gate).
//!
//! The canonical pattern allowlist
//! ([`pte_zones::analysis::lint::pattern_allowlist`]) is applied by
//! default, downgrading the base pattern's *intentional* dead text
//! (the `lease_deny` receives that go live only under
//! `PatternOptions { deny_capable: true }`, and the `[approval_bad=1]`
//! mode copies of the register fold) to info — so registry scenarios
//! lint warning-clean and any *new* warning stands out. `--raw` shows
//! undowngraded findings.
//!
//! ```sh
//! cargo run --release -p pte-bench --bin pte-lint                # all scenarios
//! cargo run --release -p pte-bench --bin pte-lint -- chain-4    # one scenario
//! cargo run --release -p pte-bench --bin pte-lint -- --chain 8  # ad-hoc chain N
//! cargo run --release -p pte-bench --bin pte-lint -- --raw      # no allowlist
//! cargo run --release -p pte-bench --bin pte-lint -- --arm leased --json
//! ```

use pte_core::pattern::LeaseConfig;
use pte_tracheotomy::registry;
use pte_zones::{analyze_lease_pattern, apply_allowlist, pattern_allowlist, ModelAnalysis};
use serde::{Number, Value};

/// One linted (scenario, arm) cell.
struct Cell {
    name: String,
    leased: bool,
    analysis: ModelAnalysis,
}

fn lint_config(name: &str, cfg: &LeaseConfig, arms: &[bool], raw: bool, out: &mut Vec<Cell>) {
    for &leased in arms {
        match analyze_lease_pattern(cfg, leased) {
            Ok(mut analysis) => {
                if !raw {
                    apply_allowlist(&mut analysis.diagnostics, &pattern_allowlist());
                }
                out.push(Cell {
                    name: name.to_string(),
                    leased,
                    analysis,
                })
            }
            Err(e) => {
                eprintln!("pte-lint: {name} (leased={leased}): {e}");
                std::process::exit(2);
            }
        }
    }
}

fn cell_value(c: &Cell) -> Value {
    let num = |u: usize| Value::Num(Number::U(u as u64));
    let s = c.analysis.stats();
    let diagnostics: Vec<Value> = c
        .analysis
        .diagnostics
        .iter()
        .map(|d| {
            let mut fields = vec![
                ("severity".into(), Value::Str(d.severity.to_string())),
                ("code".into(), Value::Str(d.code.to_string())),
            ];
            if let Some(a) = &d.automaton {
                fields.push(("automaton".into(), Value::Str(a.clone())));
            }
            if let Some(site) = &d.site {
                fields.push(("site".into(), Value::Str(site.clone())));
            }
            fields.push(("message".into(), Value::Str(d.message.clone())));
            Value::Obj(fields)
        })
        .collect();
    Value::Obj(vec![
        ("scenario".into(), Value::Str(c.name.clone())),
        ("leased".into(), Value::Bool(c.leased)),
        ("clocks_before".into(), num(s.clocks_before)),
        ("clocks_after".into(), num(s.clocks_after)),
        ("clocks_dropped".into(), num(s.clocks_dropped)),
        ("clocks_merged".into(), num(s.clocks_merged)),
        ("locations_unreachable".into(), num(s.locations_unreachable)),
        ("errors".into(), num(s.errors)),
        ("warnings".into(), num(s.warnings)),
        ("infos".into(), num(s.infos)),
        ("diagnostics".into(), Value::Arr(diagnostics)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let raw = args.iter().any(|a| a == "--raw");
    let arms: &[bool] = match pte_bench::arg_value(&args, "--arm").as_deref() {
        None | Some("both") => &[true, false],
        Some("leased") => &[true],
        Some("baseline") => &[false],
        Some(other) => {
            eprintln!("pte-lint: unknown --arm `{other}` (leased | baseline | both)");
            std::process::exit(2);
        }
    };

    let mut cells = Vec::new();
    if let Some(n) = pte_bench::arg_value(&args, "--chain") {
        let n: usize = n.parse().unwrap_or_else(|_| {
            eprintln!("pte-lint: --chain expects an entity count");
            std::process::exit(2);
        });
        lint_config(
            &format!("chain-{n}"),
            &LeaseConfig::chain(n),
            arms,
            raw,
            &mut cells,
        );
    }
    let named: Vec<&String> = args[1..]
        .iter()
        .filter(|a| !a.starts_with("--"))
        .filter(|a| {
            // Skip option values (`--arm leased`, `--chain 8`).
            let pos = args.iter().position(|x| &x == a).unwrap();
            !matches!(args[pos - 1].as_str(), "--arm" | "--chain")
        })
        .collect();
    if !named.is_empty() {
        for name in named {
            match registry::by_name(name) {
                Some(s) => lint_config(&s.name, &s.config, arms, raw, &mut cells),
                None => {
                    eprintln!(
                        "{}",
                        registry::unknown_scenario_diagnostic(name, &registry::listing())
                    );
                    std::process::exit(2);
                }
            }
        }
    } else if cells.is_empty() {
        for s in registry::registry() {
            lint_config(&s.name, &s.config, arms, raw, &mut cells);
        }
    }

    let errors: usize = cells.iter().map(|c| c.analysis.stats().errors).sum();
    if json {
        let doc = Value::Obj(vec![
            ("lint".into(), Value::Str("pte".into())),
            (
                "scenarios".into(),
                Value::Arr(cells.iter().map(cell_value).collect()),
            ),
            ("errors".into(), Value::Num(Number::U(errors as u64))),
        ]);
        println!(
            "{}",
            serde_json::to_string(&doc).expect("lint report serializes")
        );
    } else {
        for c in &cells {
            let s = c.analysis.stats();
            println!(
                "{} ({}): clocks {} -> {} ({} dropped, {} merged), \
                 {} unreachable locations, {} errors / {} warnings / {} infos",
                c.name,
                if c.leased { "leased" } else { "baseline" },
                s.clocks_before,
                s.clocks_after,
                s.clocks_dropped,
                s.clocks_merged,
                s.locations_unreachable,
                s.errors,
                s.warnings,
                s.infos,
            );
            for d in &c.analysis.diagnostics {
                println!("  {d}");
            }
        }
        println!(
            "pte-lint: {} cell(s), {errors} error(s){}",
            cells.len(),
            if errors > 0 { " — FAILED" } else { "" }
        );
    }
    if errors > 0 {
        std::process::exit(1);
    }
}
