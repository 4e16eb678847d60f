//! Verification campaign driver: sweeps the scenario registry (case
//! study, `chain-2` … `chain-6` N-device lease chains, the lossy
//! stress variant) plus a case-study parameter sweep, each × {leased,
//! baseline}, across the analytic (c1–c7), symbolic (zone-based), and
//! bounded-exhaustive backends in parallel, and emits both a text table
//! and a machine-readable JSON report.
//!
//! ```sh
//! cargo run --release -p pte-bench --bin campaign -- \
//!     [--smoke] [--scenario NAME] [--depth K] [--workers W] \
//!     [--budget N] [--json PATH] [--bench-json PATH]
//! ```
//!
//! * `--smoke` — tiny matrix for CI (case study + `chain-3` + a
//!   violating sweep corner): asserts that every cell reaches a
//!   conclusive symbolic verdict, that conclusive backends agree, and
//!   that the emitted JSON parses back cleanly; any failure exits
//!   non-zero.
//! * `--scenario NAME` — run a single registry scenario (both arms,
//!   all backends). An unknown name exits with status 2 after listing
//!   the available scenarios on stderr
//!   ([`registry::resolve_cli`]).
//! * `--list` — print the scenario listing to stdout and exit 0.
//! * `--depth K` — bounded-exhaustive decision depth (default 6).
//! * `--workers W` — symbolic engine workers per cell (default 1).
//! * `--budget N` — symbolic state budget per cell. When omitted, each
//!   cell gets the registry's `recommended_budget` (N-scaled, ≥ 2×
//!   the measured explored set) so the default run stays conclusive
//!   on every registry scenario; an explicit value applies verbatim to every cell (and
//!   can deliberately starve a search to exercise the `inconclusive`
//!   reporting path).
//! * `--json PATH` — write the JSON report to `PATH` (default: print a
//!   `== JSON ==` section to stdout).
//! * `--bench-json PATH` — additionally time the leased case-study
//!   proof (best of 3) and write a `BENCH_zones.json`-schema record
//!   (wall time, settled states, states/sec, peak passed-list bytes,
//!   plus per-N scaling rows derived from the campaign's own chain
//!   cells) to `PATH`.
//!
//! A tripped budget is **never** a verdict: such cells are reported as
//! `inconclusive` (with the tripped limit named) in the table, the
//! JSON, and the gate summary — distinct from `safe`, `unsafe`, and
//! `error`.
//!
//! Concurrency: the campaign runs a few cells at a time (capped, since
//! each cell's exhaustive `explore` already fans out to every core
//! internally — uncapped nesting would square the thread count and the
//! timing columns would measure scheduler contention, not backends).
//!
//! The analytic and symbolic columns go through the unified
//! [`pte_verify::api`] session layer; the exhaustive column calls
//! [`pte_verify::explore`] directly. This binary only builds requests,
//! lays the per-backend stats out as a table/JSON, and enforces the
//! cross-backend gates.

use crossbeam::thread;
use parking_lot::Mutex;
use pte_bench::{arg_value, ScalingRow};
use pte_core::pattern::LeaseConfig;
use pte_hybrid::Time;
use pte_tracheotomy::registry;
use pte_verify::report::TextTable;
use pte_verify::{
    explore, BackendSel, CrossCheck, Extrapolation, Limits, Query, SymbolicOutcome, Verdict,
    VerificationRequest,
};
use serde::{Number, Value};
use std::time::Instant;

/// Cap on concurrently running cells (see module docs).
const MAX_CELL_WORKERS: usize = 4;

/// One cell of the campaign matrix: a named configuration and an arm.
#[derive(Clone, Debug)]
struct Cell {
    /// Registry scenario name, or `sweep[r=..,e=..]` for sweep cells.
    name: String,
    /// Number of leased entities.
    n: usize,
    cfg: LeaseConfig,
    leased: bool,
    /// Per-cell symbolic state budget (N-scaled for big chains).
    budget: usize,
    /// Sweep parameters in milliseconds `(t_run1, t_enter2)` for sweep
    /// cells (`None` for registry cells): rows sort by name then by
    /// these numerically, so `e=2` precedes `e=10` and `e=14.5`.
    sweep_params: Option<(i64, i64)>,
}

/// Backend results of one cell: the library's [`CrossCheck`] (which
/// owns the agreement semantics) plus per-backend timings, the
/// exhaustive explorer's violation/error split, and the explicit
/// symbolic status (`safe` / `unsafe` / `inconclusive` / `error` —
/// a tripped budget or a failed build must never read as a verdict).
#[derive(Clone, Debug)]
struct Row {
    cell: Cell,
    analytic_ok: bool,
    cross: CrossCheck,
    /// The limit that ended an inconclusive search, rendered.
    symbolic_tripped: Option<String>,
    /// Build/lowering failure, rendered (status `error`).
    symbolic_error: Option<String>,
    exhaustive_violations: usize,
    exhaustive_errors: usize,
    symbolic_ms: f64,
    exhaustive_ms: f64,
    /// Peak passed-list bytes (minimal form, full-matrix equivalent).
    passed_bytes: (usize, usize),
}

impl Row {
    /// Explicit four-valued symbolic status for table/JSON/gates.
    fn symbolic_status(&self) -> &'static str {
        if self.symbolic_error.is_some() {
            "error"
        } else {
            match self.cross.symbolic {
                SymbolicOutcome::Safe => "safe",
                SymbolicOutcome::Unsafe => "unsafe",
                SymbolicOutcome::Inconclusive => "inconclusive",
            }
        }
    }
}

/// Maps an API verdict back onto the three-valued [`SymbolicOutcome`]
/// the agreement logic ([`CrossCheck`]) speaks.
fn outcome_of(v: &Verdict) -> SymbolicOutcome {
    match v {
        Verdict::Safe => SymbolicOutcome::Safe,
        Verdict::Unsafe => SymbolicOutcome::Unsafe,
        Verdict::Inconclusive(_) => SymbolicOutcome::Inconclusive,
    }
}

fn run_cell(cell: &Cell, workers: usize, depth: usize) -> Row {
    let request = |backend: BackendSel| {
        VerificationRequest::config(cell.cfg.clone())
            .leased(cell.leased)
            .backend(backend)
            .max_states(cell.budget)
            .workers(workers)
    };

    // The c1–c7 column is arm-independent: conditions constrain the
    // configuration, not the lease arm.
    let analytic_ok = request(BackendSel::Analytic)
        .query(Query::ConditionCheck)
        .run()
        .expect("inline-config requests are well-formed")
        .verdict
        == Verdict::Safe;

    let symbolic = request(BackendSel::Symbolic)
        .run()
        .expect("inline-config requests are well-formed")
        .primary()
        .clone();
    let started = Instant::now();
    let exhaustive = explore(&cell.cfg, cell.leased, depth, false);
    let exhaustive_ms = started.elapsed().as_secs_f64() * 1e3;

    Row {
        cell: cell.clone(),
        analytic_ok,
        cross: CrossCheck {
            symbolic: outcome_of(&symbolic.verdict),
            exhaustive_safe: exhaustive.all_safe(),
            exhaustive_runs: exhaustive.runs,
            symbolic_states: symbolic.states,
        },
        symbolic_tripped: symbolic.tripped,
        symbolic_error: symbolic.error,
        exhaustive_violations: exhaustive.violations.len(),
        exhaustive_errors: exhaustive.errors.len(),
        symbolic_ms: symbolic.wall_ms,
        exhaustive_ms,
        passed_bytes: (symbolic.peak_passed_bytes, symbolic.peak_passed_bytes_full),
    }
}

/// Human label for the exhaustive column: an errored exploration is not
/// "UNSAFE", it failed to execute.
fn exhaustive_label(r: &Row) -> &'static str {
    if r.exhaustive_errors > 0 {
        "ERROR"
    } else if r.cross.exhaustive_safe {
        "safe"
    } else {
        "UNSAFE"
    }
}

/// Builds the report as a `serde::Value` tree and serializes it with
/// the vendored `serde_json` — the same machinery the self-validation
/// parse uses, so escaping/number formatting can't diverge from it.
fn to_json(
    rows: &[Row],
    depth: usize,
    base_budget: usize,
    workers: usize,
    elapsed_ms: f64,
) -> String {
    let num_u = |u: usize| Value::Num(Number::U(u as u64));
    let num_f = |f: f64| Value::Num(Number::F(f));
    let opt_str = |o: &Option<String>| match o {
        Some(s) => Value::Str(s.clone()),
        None => Value::Null,
    };
    let cells: Vec<Value> = rows
        .iter()
        .map(|r| {
            Value::Obj(vec![
                ("scenario".into(), Value::Str(r.cell.name.clone())),
                ("n".into(), num_u(r.cell.n)),
                ("leased".into(), Value::Bool(r.cell.leased)),
                ("analytic".into(), Value::Bool(r.analytic_ok)),
                ("symbolic".into(), Value::Str(r.symbolic_status().into())),
                ("symbolic_tripped".into(), opt_str(&r.symbolic_tripped)),
                ("symbolic_error".into(), opt_str(&r.symbolic_error)),
                ("symbolic_budget".into(), num_u(r.cell.budget)),
                ("symbolic_states".into(), num_u(r.cross.symbolic_states)),
                ("symbolic_ms".into(), num_f(r.symbolic_ms)),
                ("symbolic_passed_bytes".into(), num_u(r.passed_bytes.0)),
                ("symbolic_passed_bytes_full".into(), num_u(r.passed_bytes.1)),
                (
                    "exhaustive_safe".into(),
                    Value::Bool(r.cross.exhaustive_safe),
                ),
                (
                    "exhaustive_violations".into(),
                    num_u(r.exhaustive_violations),
                ),
                ("exhaustive_errors".into(), num_u(r.exhaustive_errors)),
                ("exhaustive_runs".into(), num_u(r.cross.exhaustive_runs)),
                ("exhaustive_ms".into(), num_f(r.exhaustive_ms)),
                ("agree".into(), Value::Bool(r.cross.agree())),
            ])
        })
        .collect();
    let count = |status: &str| {
        rows.iter()
            .filter(|r| r.symbolic_status() == status)
            .count()
    };
    let report = Value::Obj(vec![
        (
            "campaign".into(),
            Value::Obj(vec![
                ("depth".into(), num_u(depth)),
                ("base_symbolic_budget".into(), num_u(base_budget)),
                ("symbolic_workers".into(), num_u(effective_workers(workers))),
                // The extrapolation operator the API's symbolic runs use
                // (the engine default; the API exposes no override).
                (
                    "extrapolation".into(),
                    Value::Str(format!("{:?}", Extrapolation::default())),
                ),
                ("wall_ms".into(), num_f(elapsed_ms)),
            ]),
        ),
        // Explicit status tally: `inconclusive`/`error` counts can never
        // be silently folded into `safe` by a report consumer.
        (
            "summary".into(),
            Value::Obj(vec![
                ("safe".into(), num_u(count("safe"))),
                ("unsafe".into(), num_u(count("unsafe"))),
                ("inconclusive".into(), num_u(count("inconclusive"))),
                ("error".into(), num_u(count("error"))),
                (
                    "agree".into(),
                    num_u(rows.iter().filter(|r| r.cross.agree()).count()),
                ),
            ]),
        ),
        ("cells".into(), Value::Arr(cells)),
    ]);
    serde_json::to_string(&report).expect("report serializes")
}

/// The case-study parameter sweep (the `ablation_symbolic_region`
/// plane, coarsened): the paper's configuration plus violating corners.
fn sweep_cells(smoke: bool, base_budget: usize) -> Vec<Cell> {
    let (runs1, enters2): (Vec<f64>, Vec<f64>) = if smoke {
        (vec![35.0], vec![2.0, 10.0])
    } else {
        (vec![23.0, 35.0, 47.0], vec![2.0, 7.0, 10.0, 14.5])
    };
    let mut cells = Vec::new();
    for r in &runs1 {
        for e in &enters2 {
            for leased in [true, false] {
                let mut cfg = LeaseConfig::case_study();
                cfg.t_run[0] = Time::seconds(*r);
                cfg.t_enter[1] = Time::seconds(*e);
                cells.push(Cell {
                    name: format!("sweep[r={r},e={e}]"),
                    n: 2,
                    cfg,
                    leased,
                    budget: base_budget,
                    sweep_params: Some(((r * 1e3) as i64, (e * 1e3) as i64)),
                });
            }
        }
    }
    cells
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let depth: usize = arg_value(&args, "--depth")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 4 } else { 6 });
    let explicit_budget: Option<usize> = arg_value(&args, "--budget").and_then(|v| v.parse().ok());
    let base_budget: usize = explicit_budget.unwrap_or(60_000);
    let workers: usize = arg_value(&args, "--workers")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let json_path = arg_value(&args, "--json");
    let bench_json_path = arg_value(&args, "--bench-json");
    let only_scenario = arg_value(&args, "--scenario");

    if args.iter().any(|a| a == "--list") {
        println!("available scenarios:\n{}", registry::listing());
        return;
    }

    let registry_cell = |s: &registry::Scenario, leased: bool| Cell {
        name: s.name.clone(),
        n: s.n,
        cfg: s.config.clone(),
        leased,
        budget: explicit_budget.unwrap_or(s.recommended_budget),
        sweep_params: None,
    };

    let mut cells: Vec<Cell> = Vec::new();
    match &only_scenario {
        Some(name) => {
            let s = registry::resolve_cli(name);
            for leased in [true, false] {
                cells.push(registry_cell(&s, leased));
            }
        }
        None => {
            for s in registry::registry() {
                // The smoke matrix keeps CI fast: case study + chain-3
                // cover both the paper instance and an N > 2 chain.
                if smoke && !matches!(s.name.as_str(), "case-study" | "chain-3") {
                    continue;
                }
                // Compositional-scale fleets (chain-12+) are excluded
                // from the default matrix: their recommended budget is
                // deliberately below the monolithic zone graph, so the
                // symbolic and exhaustive columns here could only
                // report inconclusive. Run them explicitly
                // (`--scenario chain-12`) or through
                // `pte-verify-client --backend compositional`.
                if s.n > 8 {
                    continue;
                }
                for leased in [true, false] {
                    cells.push(registry_cell(&s, leased));
                }
            }
            cells.extend(sweep_cells(smoke, base_budget));
        }
    }

    println!(
        "campaign: {} cells × 3 backends (exhaustive depth {depth}, base symbolic budget \
         {base_budget}, {} symbolic workers)\n",
        cells.len(),
        effective_workers(workers),
    );

    // Run cells concurrently: each worker pops the next unstarted cell.
    let started = Instant::now();
    let n_cells = cells.len();
    let queue: Mutex<Vec<Cell>> = Mutex::new(cells);
    let results: Mutex<Vec<Row>> = Mutex::new(Vec::new());
    let n_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .min(MAX_CELL_WORKERS)
        .min(n_cells);
    thread::scope(|scope| {
        for _ in 0..n_workers {
            scope.spawn(|_| loop {
                let Some(cell) = queue.lock().pop() else {
                    break;
                };
                let row = run_cell(&cell, workers, depth);
                results.lock().push(row);
            });
        }
    })
    .expect("campaign worker panicked");
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut rows = results.into_inner();
    fn row_order(r: &Row) -> (&str, i64, i64, bool) {
        match r.cell.sweep_params {
            // Sweep cells group under "sweep" and order numerically.
            Some((run, enter)) => ("sweep", run, enter, r.cell.leased),
            None => (r.cell.name.as_str(), 0, 0, r.cell.leased),
        }
    }
    rows.sort_by(|a, b| row_order(a).cmp(&row_order(b)));

    let mut table = TextTable::new(vec![
        "scenario",
        "N",
        "arm",
        "c1-c7",
        "symbolic",
        "states",
        "sym ms",
        "exhaustive",
        "runs",
        "exh ms",
        "agree",
    ]);
    for r in &rows {
        table.row(vec![
            r.cell.name.clone(),
            format!("{}", r.cell.n),
            if r.cell.leased { "leased" } else { "baseline" }.to_string(),
            if r.analytic_ok { "ok" } else { "-" }.to_string(),
            r.symbolic_status().to_string(),
            format!("{}", r.cross.symbolic_states),
            format!("{:.0}", r.symbolic_ms),
            exhaustive_label(r).to_string(),
            format!("{}", r.cross.exhaustive_runs),
            format!("{:.0}", r.exhaustive_ms),
            if r.cross.agree() { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("campaign wall time: {elapsed_ms:.0} ms");

    let json = to_json(&rows, depth, base_budget, workers, elapsed_ms);
    match &json_path {
        Some(path) => {
            std::fs::write(path, &json).expect("write JSON report");
            println!("JSON report written to {path}");
        }
        None => println!("\n== JSON ==\n{json}"),
    }

    // Self-validation (always; `--smoke` additionally asserts verdicts).
    let parsed = serde_json::from_str_value(&json).expect("campaign JSON must be well-formed");
    drop(parsed);

    // Gates. Always fatal: an exhaustive backend that failed to execute
    // (infrastructure, not a verdict), a symbolic backend that failed
    // to build, a Theorem-1 soundness hole (analytically valid leased
    // cell falsified symbolically), and a symbolic *proof* contradicted
    // by a concrete exhaustive counter-example. An inconclusive cell is
    // surfaced by name with the limit that tripped — fatal in `--smoke`
    // (its matrix is sized to be conclusive), a loud warning otherwise
    // — and never counts as agreement. The reverse disagreement —
    // symbolic Unsafe, bounded-exhaustive safe — can be legitimate at
    // small depths (the explorer only covers a `2^k` prefix of loss
    // fates and one driver script; see `CrossCheck::agree`), so outside
    // `--smoke` it is a warning too.
    let mut failures = Vec::new();
    for r in &rows {
        let where_ = format!(
            "{} ({})",
            r.cell.name,
            if r.cell.leased { "leased" } else { "baseline" }
        );
        if r.exhaustive_errors > 0 {
            failures.push(format!(
                "exhaustive backend failed to execute ({} errors) at {where_}",
                r.exhaustive_errors
            ));
            continue;
        }
        if let Some(e) = &r.symbolic_error {
            failures.push(format!("symbolic backend failed to build at {where_}: {e}"));
            continue;
        }
        if r.cell.leased && r.analytic_ok && r.cross.symbolic == SymbolicOutcome::Unsafe {
            failures.push(format!("soundness hole at {where_}"));
        }
        match r.cross.symbolic {
            SymbolicOutcome::Safe if !r.cross.exhaustive_safe => {
                failures.push(format!(
                    "symbolic proof contradicted by a concrete counter-example at {where_}"
                ));
            }
            SymbolicOutcome::Unsafe if r.cross.exhaustive_safe => {
                let msg = format!(
                    "symbolic falsification not reproduced at exhaustive depth {depth} at {where_}"
                );
                if smoke {
                    failures.push(msg);
                } else {
                    eprintln!("WARNING: {msg}");
                }
            }
            SymbolicOutcome::Inconclusive => {
                let msg = format!(
                    "inconclusive cell at {where_} (tripped: {}; raise --budget)",
                    r.symbolic_tripped.as_deref().unwrap_or("unknown"),
                );
                if smoke {
                    failures.push(msg);
                } else {
                    eprintln!("WARNING: {msg}");
                }
            }
            _ => {}
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAILURE: {f}");
        }
        std::process::exit(1);
    }
    println!("all campaign gates passed");

    if let Some(path) = bench_json_path {
        write_bench_json(&path, base_budget, workers, &rows);
    }
}

/// `--workers 0` resolved to one per CPU — the same rule the symbolic
/// engine applies ([`Limits::effective_workers`]), used here only for
/// report metadata.
fn effective_workers(workers: usize) -> usize {
    Limits {
        max_workers: workers,
        ..Limits::default()
    }
    .effective_workers()
}

/// Times the leased case-study proof (best of 3) and writes the
/// `BENCH_zones.json` schema shared with `bench/benches/zones.rs`,
/// attaching per-N scaling rows derived from the campaign's own leased
/// chain cells (no re-verification needed).
fn write_bench_json(path: &str, base_budget: usize, workers: usize, rows: &[Row]) {
    use pte_zones::SearchStats;

    // The limits the timed request actually runs under (the bench
    // record schema reports max_states/workers from them).
    let limits = Limits {
        max_states: base_budget,
        max_workers: workers,
        ..Limits::default()
    };
    let request = VerificationRequest::config(LeaseConfig::case_study())
        .leased(true)
        .backend(BackendSel::Symbolic)
        .max_states(limits.max_states)
        .workers(limits.max_workers);
    let mut best_secs = f64::INFINITY;
    let mut stats = None;
    for _ in 0..3 {
        let report = request.run().expect("case study lowers");
        let s = report.primary().clone();
        assert_eq!(s.verdict, Verdict::Safe, "leased case study must be safe");
        best_secs = best_secs.min(s.wall_ms / 1e3);
        stats = Some(SearchStats {
            states: s.states,
            transitions: s.transitions,
            peak_passed_bytes: s.peak_passed_bytes,
            peak_passed_bytes_full: s.peak_passed_bytes_full,
            ..SearchStats::default()
        });
    }
    let stats = stats.expect("at least one proof run");
    let scaling: Vec<ScalingRow> = rows
        .iter()
        .filter(|r| {
            r.cell.leased && r.cell.name.starts_with("chain-") && r.symbolic_status() == "safe"
        })
        .map(|r| ScalingRow {
            scenario: r.cell.name.clone(),
            n: r.cell.n,
            states: r.cross.symbolic_states,
            // Campaign cells run concurrently; their wall times measure
            // contention, so only the state counts travel.
            secs: None,
        })
        .collect();
    pte_bench::write_zones_bench_json(path, best_secs, None, &stats, &limits, &scaling, &[], &[]);
}
