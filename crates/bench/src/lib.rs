//! # pte-bench
//!
//! Benchmarks and regenerators for every table and figure of the paper.
//!
//! Binaries (run with `cargo run --release -p pte-bench --bin <name>`):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table I — PTE failure statistics, 4 trials × 30 min |
//! | `fig1_timeline` | Fig. 1 — PTE timeline with measured t1..t4 |
//! | `fig2_ventilator` | Fig. 2 — stand-alone ventilator (trajectory + DOT) |
//! | `fig3_supervisor` | Fig. 3 — Supervisor pattern automaton (DOT) |
//! | `fig4_flowblocks` | Fig. 4 — Lease/Cancel/Abort flow blocks (text) |
//! | `fig5_roles` | Fig. 5 — Initializer & Participant automata (DOT) |
//! | `fig6_elaboration` | Fig. 6 — atomic elaboration example (DOT ×2) |
//! | `fig7_layout` | Fig. 7 — emulation layout (star topology) |
//! | `scenarios` | Section V failure narratives |
//! | `ablation_loss_sweep` | failure rate vs loss probability × lease arm |
//! | `ablation_conditions` | safeguard margin vs c5 slack |
//! | `exhaustive` | bounded-exhaustive loss exploration |
//! | `campaign` | config-matrix sweep across analytic/symbolic/exhaustive backends (JSON + text report) |
//!
//! Criterion benches (`cargo bench -p pte-bench`): executor throughput,
//! monitor throughput, channel models, parameter synthesis, elaboration,
//! and the symbolic zone engine (DBM ops, worker-count scaling,
//! ExtraM-vs-ExtraLU extrapolation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pte_zones::{Limits, SearchStats};
use serde::{Number, Value};

/// Parses `--name value` style options from `std::env::args`-like input.
pub fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// One per-scenario scaling measurement attached to `BENCH_zones.json`
/// (states settled and states/sec vs the entity count `N`).
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Registry scenario name (e.g. `chain-4`).
    pub scenario: String,
    /// Number of leased entities.
    pub n: usize,
    /// Settled symbolic states of the leased safety proof.
    pub states: usize,
    /// Proof wall time in seconds, when measured **sequentially**
    /// (`benches/zones.rs`). `None` for rows derived from campaign
    /// cells, which run up to 4 cells concurrently — their wall times
    /// measure contention, not the engine, so only the
    /// contention-free state counts are recorded.
    pub secs: Option<f64>,
}

/// One reduced-vs-unreduced measurement pair attached to
/// `BENCH_zones.json`: the same leased safety proof run with the
/// static-analysis pass on and off, so the clock-reduction /
/// activity-mask payoff is a recorded number rather than a claim.
#[derive(Clone, Debug)]
pub struct ReductionRow {
    /// Registry scenario name (e.g. `chain-4`).
    pub scenario: String,
    /// DBM clock count (network + observer) with the analysis pass on.
    pub clocks_reduced: usize,
    /// DBM clock count with the analysis pass off.
    pub clocks_unreduced: usize,
    /// Settled states / wall seconds / states-per-sec, analysis on.
    pub reduced: (usize, f64, f64),
    /// Settled states / wall seconds / states-per-sec, analysis off.
    pub unreduced: (usize, f64, f64),
}

/// One compositional-verification measurement attached to
/// `BENCH_zones.json`: a chain scenario proved Safe through the
/// assume-guarantee argument (per-device refinement + abstract pair
/// networks) instead of the monolithic zone search — the scale regime
/// where the monolithic engine trips its budget.
#[derive(Clone, Debug)]
pub struct CompositionalRow {
    /// Registry scenario name (e.g. `chain-12`).
    pub scenario: String,
    /// Number of leased entities.
    pub n: usize,
    /// Settled abstract states summed over all pair networks.
    pub abstract_states: usize,
    /// Abstract pair networks checked.
    pub pair_networks: usize,
    /// Admitted refinement state pairs summed over all contracts.
    pub refine_pairs: usize,
    /// End-to-end wall time in seconds (refinements + pair checks).
    pub secs: f64,
}

/// Writes the `BENCH_zones.json` perf record shared by
/// `benches/zones.rs` and `campaign --bench-json`: wall time of the
/// leased case-study proof, settled states, states/sec, the
/// passed-list byte accounting, per-N chain scaling rows,
/// reduced-vs-unreduced ablation rows, and compositional-scale rows.
/// `falsify_secs` is the optional baseline-falsification timing (the
/// bench measures it, the campaign does not). The emitted JSON is
/// round-trip-validated before writing.
#[allow(clippy::too_many_arguments)]
pub fn write_zones_bench_json(
    path: &str,
    proof_secs: f64,
    falsify_secs: Option<f64>,
    stats: &SearchStats,
    limits: &Limits,
    scaling: &[ScalingRow],
    reduction: &[ReductionRow],
    compositional: &[CompositionalRow],
) {
    let num_u = |u: usize| Value::Num(Number::U(u as u64));
    let num_f = |f: f64| Value::Num(Number::F(f));
    let mut fields = vec![
        ("bench".into(), Value::Str("zones".into())),
        ("case".into(), Value::Str("leased_case_study_proof".into())),
        ("wall_ms".into(), num_f(proof_secs * 1e3)),
    ];
    if let Some(secs) = falsify_secs {
        fields.push(("falsify_baseline_ms".into(), num_f(secs * 1e3)));
    }
    fields.extend([
        ("settled_states".into(), num_u(stats.states)),
        ("transitions".into(), num_u(stats.transitions)),
        (
            "states_per_sec".into(),
            num_f(stats.states as f64 / proof_secs),
        ),
        ("peak_passed_bytes".into(), num_u(stats.peak_passed_bytes)),
        (
            "peak_passed_bytes_full".into(),
            num_u(stats.peak_passed_bytes_full),
        ),
        (
            "compression_factor".into(),
            num_f(stats.peak_passed_bytes_full as f64 / stats.peak_passed_bytes.max(1) as f64),
        ),
        ("workers".into(), num_u(limits.effective_workers())),
        ("max_states".into(), num_u(limits.max_states)),
    ]);
    if !scaling.is_empty() {
        let rows: Vec<Value> = scaling
            .iter()
            .map(|r| {
                let mut row = vec![
                    ("scenario".into(), Value::Str(r.scenario.clone())),
                    ("n".into(), num_u(r.n)),
                    ("settled_states".into(), num_u(r.states)),
                ];
                if let Some(secs) = r.secs {
                    row.push(("wall_ms".into(), num_f(secs * 1e3)));
                    row.push((
                        "states_per_sec".into(),
                        num_f(r.states as f64 / secs.max(1e-9)),
                    ));
                }
                Value::Obj(row)
            })
            .collect();
        fields.push(("scaling".into(), Value::Arr(rows)));
    }
    if !reduction.is_empty() {
        let arm = |clocks: usize, (states, secs, rate): (usize, f64, f64)| {
            Value::Obj(vec![
                ("dbm_clocks".into(), num_u(clocks)),
                ("settled_states".into(), num_u(states)),
                ("wall_ms".into(), num_f(secs * 1e3)),
                ("states_per_sec".into(), num_f(rate)),
            ])
        };
        let rows: Vec<Value> = reduction
            .iter()
            .map(|r| {
                Value::Obj(vec![
                    ("scenario".into(), Value::Str(r.scenario.clone())),
                    ("reduced".into(), arm(r.clocks_reduced, r.reduced)),
                    ("unreduced".into(), arm(r.clocks_unreduced, r.unreduced)),
                    (
                        "speedup".into(),
                        num_f(r.reduced.2 / r.unreduced.2.max(1e-9)),
                    ),
                ])
            })
            .collect();
        fields.push(("reduction".into(), Value::Arr(rows)));
    }
    if !compositional.is_empty() {
        let rows: Vec<Value> = compositional
            .iter()
            .map(|r| {
                Value::Obj(vec![
                    ("scenario".into(), Value::Str(r.scenario.clone())),
                    ("n".into(), num_u(r.n)),
                    ("abstract_states".into(), num_u(r.abstract_states)),
                    ("pair_networks".into(), num_u(r.pair_networks)),
                    ("refine_pairs".into(), num_u(r.refine_pairs)),
                    ("wall_ms".into(), num_f(r.secs * 1e3)),
                    (
                        "states_per_sec".into(),
                        num_f(r.abstract_states as f64 / r.secs.max(1e-9)),
                    ),
                ])
            })
            .collect();
        fields.push(("compositional".into(), Value::Arr(rows)));
    }
    let json = serde_json::to_string(&Value::Obj(fields)).expect("bench report serializes");
    serde_json::from_str_value(&json).expect("bench JSON must parse back");
    std::fs::write(path, &json).expect("write zones bench JSON");
    println!(
        "zones bench record: {:.1} ms, {:.0} states/s -> {path}",
        proof_secs * 1e3,
        stats.states as f64 / proof_secs
    );
}

/// The warm-start measurement pair attached to `BENCH_daemon.json`:
/// re-verifying a perturbed scenario cold vs warm-seeded from the
/// unperturbed parent's persisted passed-list artifact.
#[derive(Clone, Debug)]
pub struct WarmBenchRow {
    /// What was re-verified (e.g. `chain-6 safeguards relaxed`).
    pub case: String,
    /// Best-of-N cold re-verification latency (full zone search).
    pub cold_ms: f64,
    /// Best-of-N warm re-verification latency (proof transfer).
    pub warm_ms: f64,
    /// States the warm run seeded from the parent artifact.
    pub seeded_states: usize,
}

/// Writes the `BENCH_daemon.json` perf record emitted by
/// `benches/daemon.rs`: best-of-N wall times of the same case-study
/// proof run three ways — in-process (`VerificationRequest::run`),
/// through `pte-verifyd` cold (socket + scheduling + a real search),
/// and through the daemon's report cache — plus the derived dispatch
/// overhead and cache speedup, and (when measured) the chain-6
/// warm-start re-verification row. The emitted JSON is
/// round-trip-validated before writing.
pub fn write_daemon_bench_json(
    path: &str,
    in_process_ms: f64,
    daemon_cold_ms: f64,
    daemon_cached_ms: f64,
    warm: Option<&WarmBenchRow>,
) {
    let num_f = |f: f64| Value::Num(Number::F(f));
    let mut fields = vec![
        ("bench".into(), Value::Str("daemon".into())),
        ("case".into(), Value::Str("leased_case_study_proof".into())),
        ("in_process_ms".into(), num_f(in_process_ms)),
        ("daemon_cold_ms".into(), num_f(daemon_cold_ms)),
        ("daemon_cached_ms".into(), num_f(daemon_cached_ms)),
        (
            "dispatch_overhead_ms".into(),
            num_f(daemon_cold_ms - in_process_ms),
        ),
        (
            "cache_speedup".into(),
            num_f(daemon_cold_ms / daemon_cached_ms.max(1e-9)),
        ),
    ];
    if let Some(w) = warm {
        fields.extend([
            ("warm_case".into(), Value::Str(w.case.clone())),
            ("warm_cold_ms".into(), num_f(w.cold_ms)),
            ("warm_ms".into(), num_f(w.warm_ms)),
            (
                "warm_speedup".into(),
                num_f(w.cold_ms / w.warm_ms.max(1e-9)),
            ),
            (
                "warm_seeded_states".into(),
                Value::Num(Number::U(w.seeded_states as u64)),
            ),
        ]);
    }
    let json = serde_json::to_string(&Value::Obj(fields)).expect("daemon bench report serializes");
    serde_json::from_str_value(&json).expect("daemon bench JSON must parse back");
    std::fs::write(path, &json).expect("write daemon bench JSON");
    println!(
        "daemon bench record: in-process {in_process_ms:.1} ms, cold {daemon_cold_ms:.1} ms, \
         cached {daemon_cached_ms:.2} ms{} -> {path}",
        warm.map(|w| format!(
            ", warm re-verify {:.1} ms vs cold {:.1} ms",
            w.warm_ms, w.cold_ms
        ))
        .unwrap_or_default()
    );
}

/// Parses a `--seeds N` option with a default.
pub fn seeds_arg(args: &[String], default: usize) -> usize {
    arg_value(args, "--seeds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arg_parsing() {
        let a = args(&["prog", "--seeds", "12", "--x", "y"]);
        assert_eq!(arg_value(&a, "--x").as_deref(), Some("y"));
        assert_eq!(arg_value(&a, "--missing"), None);
        assert_eq!(seeds_arg(&a, 3), 12);
        assert_eq!(seeds_arg(&args(&["prog"]), 3), 3);
        assert_eq!(seeds_arg(&args(&["prog", "--seeds", "zz"]), 3), 3);
    }
}
