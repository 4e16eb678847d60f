//! Prints the symbolic verdicts for a registry scenario: a safety proof
//! for the leased system and a symbolic counter-example for the
//! without-lease baseline. A thin shell over the unified
//! [`pte_verify::api`] session layer.
//!
//! ```sh
//! cargo run --release -p pte-bench --bin zprobe
//! cargo run --release -p pte-bench --bin zprobe -- --scenario chain-4
//! cargo run --release -p pte-bench --bin zprobe -- --list
//! cargo run --release -p pte-bench --bin zprobe -- --workers 4 --budget 200000
//! ```
//!
//! `--list` prints the scenario catalogue to stdout and exits 0; an
//! unknown `--scenario` prints it to stderr and exits 2
//! ([`registry::resolve_cli`]).
//!
//! After the leased arm's verdict it prints the zone engine's own
//! counters, which a report does not carry, from one more search of
//! that arm under the same limits: states, transitions, subsumed
//! successors, and stutters — silent self-loop firings counted instead
//! of expanded ([`pte_zones::SearchStats::stutters`]).

use pte_bench::arg_value;
use pte_tracheotomy::registry;
use pte_verify::{BackendSel, VerificationRequest};
use pte_zones::{Limits, LoweredPattern};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--list") {
        println!("available scenarios:\n{}", registry::listing());
        return;
    }
    let name = arg_value(&args, "--scenario").unwrap_or_else(|| "case-study".to_string());
    let scenario = registry::resolve_cli(&name);

    // The registry's recommended budget (the request default when only
    // a scenario name is given) concludes every advertised scenario out
    // of the box; `--budget`/`--workers` override it.
    let workers = arg_value(&args, "--workers")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let budget = arg_value(&args, "--budget").and_then(|v| v.parse().ok());
    let mut request = VerificationRequest::scenario(&scenario.name)
        .backend(BackendSel::Symbolic)
        .workers(workers);
    if let Some(budget) = budget {
        request = request.max_states(budget);
    }

    println!(
        "scenario {} (N={}): {}",
        scenario.name, scenario.n, scenario.description
    );
    for (label, leased) in [("with lease", true), ("without lease", false)] {
        let report = request
            .clone()
            .leased(leased)
            .run()
            .expect("registry scenarios resolve");
        let stats = report.primary();
        println!(
            "{label} ({:.2?}):\n{}",
            Duration::from_secs_f64(stats.wall_ms / 1e3),
            stats.rendered
        );
        if leased {
            let limits = Limits {
                max_states: budget.unwrap_or(scenario.recommended_budget),
                max_workers: workers,
                ..Limits::default()
            };
            let verdict = LoweredPattern::new(&scenario.config, true)
                .and_then(|p| p.check(&limits))
                .expect("registry scenarios lower");
            if let Some(s) = verdict.stats() {
                println!(
                    "engine: {} states, {} transitions, {} subsumed, {} stutters \
                     (silent self-loops counted, not expanded)",
                    s.states, s.transitions, s.subsumed, s.stutters
                );
            }
            println!();
        }
    }
}
