//! Bench-regression gate: compares a freshly emitted `BENCH_zones.json`
//! against the committed baseline and fails (exit 1) when the
//! case-study row's `states_per_sec` regressed by more than the
//! allowed fraction, when any chain scaling row present in **both**
//! records regressed past the same margin, when the fresh record
//! lacks the `chain-8` scaling row (the deep chain must stay feasible,
//! not silently drop out of the bench), or when it lacks the
//! `chain-12` compositional row (the assume-guarantee argument must
//! keep closing the fleet the monolithic engine cannot).
//!
//! ```sh
//! cargo run --release -p pte-bench --bin bench_gate -- \
//!     [--fresh BENCH_zones.json] \
//!     [--baseline crates/bench/BENCH_zones.baseline.json] \
//!     [--daemon-fresh BENCH_daemon.json] \
//!     [--daemon-baseline crates/bench/BENCH_daemon.baseline.json] \
//!     [--max-regression 0.25]
//! ```
//!
//! When `--daemon-fresh` is given, the daemon record's warm-start row
//! is gated too: the fresh `warm_speedup` (cold re-verification wall
//! time over warm) must reach the same fraction of the baseline's,
//! and the row must be present at all — a change that silently stops
//! warm starts from engaging would otherwise just drop it.
//!
//! The baseline is a real record from the PR 4 container (2 vCPUs);
//! `--max-regression` (default 0.25, i.e. a fresh run must reach at
//! least 75% of the baseline throughput) absorbs ordinary scheduler
//! noise while still catching real hot-path regressions. Runners with
//! wildly different hardware should regenerate the baseline or widen
//! the margin rather than delete the gate.

use pte_bench::arg_value;
use serde::Value;

/// One zones bench record: the case-study throughput/wall-time pair
/// plus the per-scenario chain scaling throughputs (scenario →
/// states_per_sec).
struct Record {
    states_per_sec: f64,
    wall_ms: f64,
    scaling: Vec<(String, f64)>,
    /// Compositional rows: scenario → abstract states/sec.
    compositional: Vec<(String, f64)>,
}

/// Reads and validates a zones bench record at `path`.
fn read_record(path: &str) -> Result<Record, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let value = serde_json::from_str_value(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let Value::Obj(fields) = &value else {
        return Err(format!("{path}: expected a JSON object"));
    };
    let field = |name: &str| -> Result<f64, String> {
        fields
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| match v {
                Value::Num(n) => Some(n.as_f64()),
                _ => None,
            })
            .ok_or_else(|| format!("{path}: missing numeric field `{name}`"))
    };
    match fields.iter().find(|(k, _)| k == "bench") {
        Some((_, Value::Str(s))) if s == "zones" => {}
        _ => return Err(format!("{path}: not a zones bench record")),
    }
    // Both the scaling and compositional arrays carry
    // `(scenario, states_per_sec)` rows; a row missing either is
    // skipped.
    let rate_rows = |name: &str| -> Vec<(String, f64)> {
        let mut out = Vec::new();
        if let Some((_, Value::Arr(rows))) = fields.iter().find(|(k, _)| k == name) {
            for row in rows {
                let Value::Obj(row) = row else { continue };
                let get = |name: &str| row.iter().find(|(k, _)| k == name).map(|(_, v)| v);
                let (Some(Value::Str(scenario)), Some(Value::Num(rate))) =
                    (get("scenario"), get("states_per_sec"))
                else {
                    continue;
                };
                out.push((scenario.clone(), rate.as_f64()));
            }
        }
        out
    };
    Ok(Record {
        states_per_sec: field("states_per_sec")?,
        wall_ms: field("wall_ms")?,
        scaling: rate_rows("scaling"),
        compositional: rate_rows("compositional"),
    })
}

fn num_f(v: Option<&str>, default: f64) -> f64 {
    v.and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Reads a daemon bench record's warm-start row: `(warm_speedup,
/// warm_seeded_states)`, or `None` when the record has no warm row.
fn read_daemon_warm(path: &str) -> Result<Option<(f64, u64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let value = serde_json::from_str_value(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let Value::Obj(fields) = &value else {
        return Err(format!("{path}: expected a JSON object"));
    };
    match fields.iter().find(|(k, _)| k == "bench") {
        Some((_, Value::Str(s))) if s == "daemon" => {}
        _ => return Err(format!("{path}: not a daemon bench record")),
    }
    let num = |name: &str| {
        fields
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| match v {
                Value::Num(n) => Some(n.as_f64()),
                _ => None,
            })
    };
    Ok(num("warm_speedup").map(|s| (s, num("warm_seeded_states").unwrap_or(0.0) as u64)))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let fresh_path = arg_value(&args, "--fresh").unwrap_or_else(|| "BENCH_zones.json".to_string());
    let baseline_path = arg_value(&args, "--baseline")
        .unwrap_or_else(|| "crates/bench/BENCH_zones.baseline.json".to_string());
    let max_regression = num_f(arg_value(&args, "--max-regression").as_deref(), 0.25);
    let floor = 1.0 - max_regression;

    let fresh = read_record(&fresh_path).unwrap_or_else(|e| {
        eprintln!("bench gate: {e}");
        std::process::exit(2);
    });
    let baseline = read_record(&baseline_path).unwrap_or_else(|e| {
        eprintln!("bench gate: {e}");
        std::process::exit(2);
    });

    let mut failed = false;
    let ratio = fresh.states_per_sec / baseline.states_per_sec;
    println!(
        "bench gate: case-study states/sec {:.0} vs baseline {:.0} \
         (ratio {ratio:.2}; wall {:.1} ms vs {:.1} ms; \
         allowed regression {:.0}%)",
        fresh.states_per_sec,
        baseline.states_per_sec,
        fresh.wall_ms,
        baseline.wall_ms,
        max_regression * 100.0
    );
    if ratio < floor {
        eprintln!(
            "bench gate FAILED: fresh throughput is {:.0}% of baseline \
             (floor {:.0}%) — the zone-engine hot path regressed",
            ratio * 100.0,
            floor * 100.0
        );
        failed = true;
    }

    // The deep chain must stay in the record: a change that makes
    // chain-8 blow its budget would otherwise just drop the row.
    if !fresh.scaling.iter().any(|(s, _)| s == "chain-8") {
        eprintln!("bench gate FAILED: fresh record has no chain-8 scaling row");
        failed = true;
    }

    // The compositional argument must keep closing chain-12: a
    // refinement or contract regression that pushed it to the
    // monolithic fallback would panic the bench and drop the row.
    if !fresh.compositional.iter().any(|(s, _)| s == "chain-12") {
        eprintln!("bench gate FAILED: fresh record has no chain-12 compositional row");
        failed = true;
    }

    // Per-scenario throughput, for rows both records carry — the
    // monolithic chain scaling rows and the compositional rows alike.
    let arms = [
        ("", &fresh.scaling, &baseline.scaling),
        (
            " (compositional)",
            &fresh.compositional,
            &baseline.compositional,
        ),
    ];
    for (tag, fresh_rows, base_rows) in arms {
        for (scenario, fresh_rate) in fresh_rows.iter() {
            let Some((_, base_rate)) = base_rows.iter().find(|(s, _)| s == scenario) else {
                continue;
            };
            let ratio = fresh_rate / base_rate;
            println!(
                "bench gate: {scenario}{tag} states/sec {fresh_rate:.0} vs baseline \
                 {base_rate:.0} (ratio {ratio:.2})"
            );
            if ratio < floor {
                eprintln!(
                    "bench gate FAILED: {scenario}{tag} throughput is {:.0}% of baseline \
                     (floor {:.0}%)",
                    ratio * 100.0,
                    floor * 100.0
                );
                failed = true;
            }
        }
    }

    // The daemon warm-start row, when a daemon record was supplied.
    if let Some(daemon_fresh_path) = arg_value(&args, "--daemon-fresh") {
        let daemon_baseline_path = arg_value(&args, "--daemon-baseline")
            .unwrap_or_else(|| "crates/bench/BENCH_daemon.baseline.json".to_string());
        let fresh_warm = read_daemon_warm(&daemon_fresh_path).unwrap_or_else(|e| {
            eprintln!("bench gate: {e}");
            std::process::exit(2);
        });
        let base_warm = read_daemon_warm(&daemon_baseline_path).unwrap_or_else(|e| {
            eprintln!("bench gate: {e}");
            std::process::exit(2);
        });
        match (fresh_warm, base_warm) {
            (None, _) => {
                eprintln!(
                    "bench gate FAILED: {daemon_fresh_path} has no warm-start row \
                     — warm re-verification silently stopped engaging"
                );
                failed = true;
            }
            (Some((fresh, seeded)), base) => {
                let base_speedup = base.map(|(s, _)| s);
                let ratio = base_speedup.map(|b| fresh / b);
                println!(
                    "bench gate: warm-start speedup {fresh:.1}x vs baseline {} \
                     ({seeded} states transferred)",
                    base_speedup
                        .map(|b| format!("{b:.1}x (ratio {:.2})", fresh / b))
                        .unwrap_or_else(|| "none".to_string()),
                );
                if seeded == 0 {
                    eprintln!(
                        "bench gate FAILED: warm row transferred 0 states — the \
                         artifact was rejected and the 'warm' run was really cold"
                    );
                    failed = true;
                }
                if let Some(ratio) = ratio {
                    if ratio < floor {
                        eprintln!(
                            "bench gate FAILED: warm-vs-cold speedup is {:.0}% of \
                             baseline (floor {:.0}%) — the warm-start path regressed",
                            ratio * 100.0,
                            floor * 100.0
                        );
                        failed = true;
                    }
                }
            }
        }
    }

    if failed {
        std::process::exit(1);
    }
    println!("bench gate passed");
}
