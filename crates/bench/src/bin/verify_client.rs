//! `pte-verify-client` — submit verification requests to a running
//! `pte-verifyd`, render its streamed progress, and exit with the
//! verdict.
//!
//! ```sh
//! pte-verify-client --scenario case-study            # leased arm, symbolic
//! pte-verify-client --scenario chain-4 --baseline    # lease-stripped arm
//! pte-verify-client --scenario chain-3 --backend auto  # analytic, then symbolic
//! pte-verify-client --scenario chain-6 --warm-from KEY   # seed from a prior proof
//! pte-verify-client --list                           # daemon's catalogue
//! pte-verify-client --stats                          # scheduler/cache stats
//! pte-verify-client --shutdown                       # graceful drain
//! ```
//!
//! Connection flags: `--socket PATH` (default `/tmp/pte-verifyd.sock`)
//! or `--tcp ADDR`. Request flags: `--baseline`, `--backend
//! {analytic,symbolic,compositional,auto}` (`auto` runs the analytic
//! c1–c7 check, then the symbolic engine only if that is inconclusive),
//! `--contract PROFILE` (environment contract profile for the
//! compositional backend; unknown names get a "did you mean"
//! diagnostic), `--refine-pairs N` (refinement state-pair budget),
//! `--budget N` (symbolic state budget), `--workers N`, `--quiet`
//! (suppress progress lines), `--no-cache` (bypass both cache tiers for
//! the lookup and the store), `--warm-from KEY` (ask the daemon to seed
//! the search from the named prior run's passed-list artifact — needs a
//! daemon started with `--cache-dir` and a parent that ran the zone
//! search: a leased `auto` proof is analytic and leaves no artifact;
//! inadmissible artifacts silently fall back to a cold run), and
//! `--relax-safeguards MS` (submit the
//! scenario's config with every safeguard pair weakened to
//! `(MS, MS/2)` milliseconds — the canonical warm-start demo: a weaker
//! monitor over the same network admits the parent's whole proof).
//!
//! Exit status mirrors the CLI conventions of `zprobe`: `0` for a
//! `Safe` verdict (and for `--list`/`--stats`/`--shutdown`), `1` for
//! `Unsafe`, `2` for usage, connection, and unknown-scenario errors
//! (the daemon's diagnostic — "did you mean" suggestion included — is
//! printed to stderr verbatim), `3` for an inconclusive verdict.

use pte_bench::arg_value;
use pte_server::client::Client;
use pte_server::protocol::ServerFrame;
use pte_server::transport::Endpoint;
use pte_verify::{BackendSel, Verdict, VerificationRequest};
use std::path::PathBuf;

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let args: Vec<String> = std::env::args().collect();
    let endpoint = match arg_value(&args, "--tcp") {
        Some(addr) => Endpoint::Tcp(addr),
        None => Endpoint::Unix(PathBuf::from(
            arg_value(&args, "--socket").unwrap_or_else(|| "/tmp/pte-verifyd.sock".to_string()),
        )),
    };
    let mut client = match Client::connect(&endpoint) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("pte-verify-client: cannot connect to {endpoint}: {e}");
            return 2;
        }
    };

    if args.iter().any(|a| a == "--list") {
        return match client.list_scenarios() {
            Ok(scenarios) => {
                println!("available scenarios (from {endpoint}):");
                for s in scenarios {
                    println!("  {:<12} (N={}) — {}", s.name, s.n, s.description);
                }
                0
            }
            Err(e) => {
                eprintln!("pte-verify-client: {e}");
                2
            }
        };
    }
    if args.iter().any(|a| a == "--stats") {
        return match client.stats() {
            Ok(s) => {
                println!(
                    "workers: {}/{} in use (peak {}), {} queued, {} active",
                    s.workers_in_use, s.worker_budget, s.peak_workers_in_use, s.queued, s.active
                );
                println!(
                    "requests: {} submitted, {} completed, {} cancelled",
                    s.submitted, s.completed, s.cancelled
                );
                println!(
                    "cache: {} entries ({} B{}), {} hits / {} misses, {} evictions",
                    s.cache_entries,
                    s.cache_bytes,
                    if s.cache_max_bytes != 0 {
                        format!(" of {} B", s.cache_max_bytes)
                    } else {
                        String::new()
                    },
                    s.cache_hits,
                    s.cache_misses,
                    s.cache_evictions
                );
                println!(
                    "artifacts: {} in memory ({} B of {} B), {} hits / {} misses, \
                     {} evictions",
                    s.artifact_cache_entries,
                    s.artifact_cache_bytes,
                    s.artifact_cache_max_bytes,
                    s.artifact_cache_hits,
                    s.artifact_cache_misses,
                    s.artifact_cache_evictions
                );
                println!(
                    "disk: {} files ({} B{}), {} hits / {} misses, \
                     {} artifact hits / {} artifact misses, {} stores, \
                     {} evictions, {} corrupt",
                    s.disk_files,
                    s.disk_bytes,
                    if s.disk_max_bytes != 0 {
                        format!(" of {} B", s.disk_max_bytes)
                    } else {
                        String::new()
                    },
                    s.disk_hits,
                    s.disk_misses,
                    s.disk_artifact_hits,
                    s.disk_artifact_misses,
                    s.disk_stores,
                    s.disk_evictions,
                    s.disk_corrupt
                );
                println!(
                    "contracts: {} refinements cached, {} hits / {} misses, {} deduped",
                    s.refine_cache_entries,
                    s.refine_cache_hits,
                    s.refine_cache_misses,
                    s.contracts_deduped
                );
                println!(
                    "pair proofs: {} stored ({} B), {} transferred / {} cold",
                    s.pair_cache_entries,
                    s.pair_cache_bytes,
                    s.pair_cache_hits,
                    s.pair_cache_misses
                );
                println!("uptime: {:.1} s", s.uptime_ms / 1e3);
                0
            }
            Err(e) => {
                eprintln!("pte-verify-client: {e}");
                2
            }
        };
    }
    if args.iter().any(|a| a == "--shutdown") {
        return match client.shutdown() {
            Ok(()) => {
                println!("daemon at {endpoint} is draining");
                0
            }
            Err(e) => {
                eprintln!("pte-verify-client: {e}");
                2
            }
        };
    }

    let name = arg_value(&args, "--scenario").unwrap_or_else(|| "case-study".to_string());
    let backend = match arg_value(&args, "--backend").as_deref() {
        None | Some("symbolic") => BackendSel::Symbolic,
        Some("analytic") => BackendSel::Analytic,
        Some("compositional") => BackendSel::Compositional,
        Some("auto") => BackendSel::Auto,
        Some(other) => {
            eprintln!("unknown backend `{other}`");
            return 2;
        }
    };
    // `--relax-safeguards MS` swaps the scenario-by-name spelling for
    // its inline config with every safeguard pair weakened to
    // `(MS, MS/2)` ms — same network, weaker monitor, so a
    // `--warm-from` parent proof transfers whole.
    let mut request = match arg_value(&args, "--relax-safeguards") {
        Some(ms) => {
            let Ok(ms) = ms.parse::<u64>() else {
                eprintln!("--relax-safeguards needs milliseconds, got `{ms}`");
                return 2;
            };
            let Some(scenario) = pte_tracheotomy::registry::by_name(&name) else {
                eprintln!("unknown scenario `{name}` (relaxation needs the registry config)");
                return 2;
            };
            let mut config = scenario.config;
            let pair = pte_core::rules::PairSpec::new(
                pte_hybrid::Time::seconds(ms as f64 / 1e3),
                pte_hybrid::Time::seconds(ms as f64 / 2e3),
            );
            config.safeguards = vec![pair; config.safeguards.len()];
            VerificationRequest::config(config).max_states(scenario.recommended_budget)
        }
        None => VerificationRequest::scenario(&name),
    }
    .leased(!args.iter().any(|a| a == "--baseline"))
    .backend(backend);
    if let Some(budget) = arg_value(&args, "--budget").and_then(|v| v.parse().ok()) {
        request = request.max_states(budget);
    }
    if let Some(workers) = arg_value(&args, "--workers").and_then(|v| v.parse().ok()) {
        request = request.workers(workers);
    }
    if let Some(pairs) = arg_value(&args, "--refine-pairs").and_then(|v| v.parse().ok()) {
        request = request.refine_pairs(pairs);
    }
    if let Some(profile) = arg_value(&args, "--contract") {
        // Validate locally so typos fail fast with the same diagnostic
        // the daemon would produce, without a round trip.
        if pte_verify::EnvProfile::parse(&profile).is_err() {
            eprintln!("{}", pte_verify::unknown_contract_diagnostic(&profile));
            return 2;
        }
        request = request.contract(&profile);
    }
    if let Some(parent) = arg_value(&args, "--warm-from") {
        request = request.warm_from(parent);
    }
    let no_cache = args.iter().any(|a| a == "--no-cache");
    let quiet = args.iter().any(|a| a == "--quiet");

    let id = match client.submit_with(&request, no_cache) {
        Ok(id) => id,
        Err(e) => {
            eprintln!("pte-verify-client: {e}");
            return 2;
        }
    };
    let outcome = client.wait_report(id, |frame| {
        if quiet {
            return;
        }
        if let ServerFrame::Progress {
            backend,
            round,
            settled,
            frontier,
            elapsed_ms,
            ..
        } = frame
        {
            eprintln!(
                "  [{backend}] round {round}: {settled} settled, {frontier} frontier ({:.1} s)",
                elapsed_ms / 1e3
            );
        }
    });
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            // Unknown-scenario diagnostics (with the "did you mean"
            // suggestion and the catalogue) arrive here.
            eprintln!("{e}");
            return 2;
        }
    };
    print!("{}", outcome.report);
    println!(
        "key: {}{}",
        outcome.key,
        if outcome.cached { " (cached)" } else { "" }
    );
    // A symbolic warm start, or the pair proofs a compositional run
    // transferred.
    if let Some(seeded) = outcome
        .report
        .backends
        .iter()
        .map(|b| b.warm_seeded)
        .find(|&s| s > 0)
    {
        println!("warm-start: {seeded} states transferred");
    }
    // The compositional backend's rendered verdict carries the whole
    // assume-guarantee story (contracts held / fallback reason +
    // refinement counter-example); surface it like a witness.
    if let Some(b) = outcome.report.backend("compositional") {
        println!("{}", b.rendered);
    }
    if let Some(c) = &outcome.report.compositional {
        println!(
            "compositional: {} contracts ({} checked, {} deduped, {} cached), \
             {} refine pairs, {} pair networks, {} abstract states",
            c.contracts_total,
            c.contracts_checked,
            c.contracts_deduped,
            c.contracts_cached,
            c.refine_pairs,
            c.pair_networks,
            c.abstract_states
        );
    }
    if let Some(witness) = &outcome.report.witness {
        println!("witness:\n{witness}");
    }
    match outcome.report.verdict {
        Verdict::Safe => 0,
        Verdict::Unsafe => 1,
        Verdict::Inconclusive(_) => 3,
    }
}
