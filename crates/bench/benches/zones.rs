//! Benchmarks of the symbolic zone engine: raw DBM throughput,
//! end-to-end verdict latency on the case-study pattern, the parallel
//! worker-count scaling of the sharded engine, the ExtraM-vs-LU
//! extrapolation comparison, the passed-list compression factor, and
//! the compositional assume-guarantee rows for the chain-12/16/20
//! fleets the monolithic engine cannot close within the registry
//! budget, plus the chain-12 safeguard edit that transfers every pair
//! proof.
//!
//! Besides the human-readable `bench:` lines, the run emits a
//! machine-readable `BENCH_zones.json` (path overridable via the
//! `BENCH_ZONES_JSON` env var) with wall time, settled states,
//! states/sec, and peak passed-list bytes, so CI tracks the perf
//! trajectory instead of an empty folder.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pte_core::pattern::LeaseConfig;
use pte_zones::dbm::{Bound, Dbm};
use pte_zones::{check_lease_pattern_with, lower_network, Extrapolation, Limits, SymbolicVerdict};
use std::time::Instant;

fn case_limits() -> Limits {
    Limits {
        max_states: 60_000,
        ..Limits::default()
    }
}

/// Timed runs behind every scaling and compositional row: the row
/// records their median, so one slow phase of the host does not move
/// it.
const RUNS: usize = 5;

/// Runs `f` [`RUNS`] times; returns the median wall time in seconds and
/// every run's result, whose deterministic counters the caller asserts
/// equal.
fn timed_median<T>(mut f: impl FnMut() -> T) -> (f64, Vec<T>) {
    let mut secs = Vec::with_capacity(RUNS);
    let mut outs = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let t = Instant::now();
        outs.push(f());
        secs.push(t.elapsed().as_secs_f64());
    }
    secs.sort_by(f64::total_cmp);
    (secs[RUNS / 2], outs)
}

/// Asserts that every run of a row produced the same deterministic
/// counters and returns them.
fn same_counters<C: PartialEq + std::fmt::Debug>(row: &str, counters: Vec<C>) -> C {
    assert!(
        counters.windows(2).all(|w| w[0] == w[1]),
        "{row}: deterministic counters differ across runs: {counters:?}"
    );
    counters.into_iter().next().expect("at least one run")
}

/// Canonicalization cost on a representative matrix (the engine's inner
/// loop: every successor zone is re-closed).
fn bench_dbm_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("dbm");
    for clocks in [4usize, 8, 16] {
        // A non-trivial zone: staggered resets and bounds.
        let mut base = Dbm::zero(clocks);
        for x in 1..=clocks {
            base.up();
            base.reset(x, x as i64);
            base.constrain(x, 0, Bound::le(40 + x as i64));
        }
        base.canonicalize();
        group.throughput(Throughput::Elements(((clocks + 1) * (clocks + 1)) as u64));
        group.bench_with_input(BenchmarkId::new("canonicalize", clocks), &base, |b, z| {
            b.iter(|| {
                let mut m = z.clone();
                m.up();
                m.constrain(1, 0, Bound::le(35));
                m.canonicalize();
                m.is_empty()
            })
        });
    }
    group.finish();
}

/// Lowering the full case-study pattern network to timed automata.
fn bench_lowering(c: &mut Criterion) {
    let sys = pte_core::pattern::build_pattern_system(&LeaseConfig::case_study(), true).unwrap();
    c.bench_function("lower/case_study", |b| {
        b.iter(|| lower_network(&sys.automata).unwrap().clock_count())
    });
}

/// End-to-end symbolic verdicts: the full safety proof of the leased
/// system and the (much faster) falsification of the baseline.
fn bench_symbolic_verdicts(c: &mut Criterion) {
    let cfg = LeaseConfig::case_study();
    let limits = case_limits();
    let mut group = c.benchmark_group("symbolic");
    group.bench_function("prove_leased_safe", |b| {
        b.iter(|| {
            assert!(check_lease_pattern_with(&cfg, true, &limits)
                .unwrap()
                .is_safe())
        })
    });
    group.bench_function("falsify_unleased", |b| {
        b.iter(|| {
            assert!(check_lease_pattern_with(&cfg, false, &limits)
                .unwrap()
                .is_unsafe())
        })
    });
    group.finish();
}

/// Worker-count scaling of the sharded parallel engine on the leased
/// safety proof. Verdicts are asserted identical across counts (the
/// engine's determinism guarantee), so these rows differ only in
/// wall-clock time.
fn bench_parallel_workers(c: &mut Criterion) {
    let cfg = LeaseConfig::case_study();
    let mut group = c.benchmark_group("symbolic_workers");
    for workers in [1usize, 2, 4, 8] {
        let limits = Limits {
            max_workers: workers,
            ..case_limits()
        };
        group.bench_with_input(
            BenchmarkId::new("prove_leased_safe", workers),
            &limits,
            |b, limits| {
                b.iter(|| {
                    assert!(check_lease_pattern_with(&cfg, true, limits)
                        .unwrap()
                        .is_safe())
                })
            },
        );
    }
    group.finish();
}

/// ExtraM vs ExtraLU on the leased safety proof: LU is a coarser sound
/// abstraction, so it must settle no more states — and on this
/// configuration strictly fewer (asserted, so the claim can't bit-rot).
fn bench_extrapolation(c: &mut Criterion) {
    let cfg = LeaseConfig::case_study();
    let settled = |extrapolation: Extrapolation| -> usize {
        let limits = Limits {
            extrapolation,
            ..case_limits()
        };
        let verdict = check_lease_pattern_with(&cfg, true, &limits).unwrap();
        assert!(verdict.is_safe());
        verdict.stats().expect("safe verdict carries stats").states
    };
    let m_states = settled(Extrapolation::ExtraM);
    let lu_states = settled(Extrapolation::ExtraLu);
    assert!(
        lu_states < m_states,
        "ExtraLU must settle strictly fewer states than ExtraM \
         on the case study (LU {lu_states} vs M {m_states})"
    );
    println!("bench: symbolic_extrapolation/settled_states          ExtraM {m_states}, ExtraLU {lu_states}");

    let mut group = c.benchmark_group("symbolic_extrapolation");
    for (name, extrapolation) in [
        ("extra_m", Extrapolation::ExtraM),
        ("extra_lu", Extrapolation::ExtraLu),
    ] {
        let limits = Limits {
            extrapolation,
            ..case_limits()
        };
        group.bench_with_input(
            BenchmarkId::new("prove_leased_safe", name),
            &limits,
            |b, limits| {
                b.iter(|| {
                    assert!(check_lease_pattern_with(&cfg, true, limits)
                        .unwrap()
                        .is_safe())
                })
            },
        );
    }
    group.finish();
}

/// Passed-list compression: the engine stores settled zones in minimal
/// constraint form; the full-matrix footprint it replaces is tracked
/// alongside, and the ratio is asserted ≥ 2× so the compression claim
/// can't bit-rot (the measured factor on the case study is far higher —
/// printed below and recorded in `BENCH_zones.json`).
fn bench_passed_compression(_c: &mut Criterion) {
    let cfg = LeaseConfig::case_study();
    let verdict = check_lease_pattern_with(&cfg, true, &case_limits()).unwrap();
    let stats = verdict.stats().expect("safe verdict carries stats");
    assert!(stats.peak_passed_bytes > 0, "peak bytes must be reported");
    assert!(
        stats.peak_passed_bytes_full >= 2 * stats.peak_passed_bytes,
        "minimal constraint form must at least halve passed-list memory \
         (minimal {} vs full-matrix {})",
        stats.peak_passed_bytes,
        stats.peak_passed_bytes_full
    );
    println!(
        "bench: symbolic_memory/passed_list                       minimal {} B vs full {} B ({:.1}x)",
        stats.peak_passed_bytes,
        stats.peak_passed_bytes_full,
        stats.peak_passed_bytes_full as f64 / stats.peak_passed_bytes as f64
    );
}

/// N-entity chain scaling: settled states and states/sec of the leased
/// safety proof for `chain-2` … `chain-8` (the registry's scalable
/// scenario family), run with the default engine — static analysis on,
/// so the rows track what `check` actually does — plus the wall time of
/// the same chain's lease-stripped falsification. Each timing is the
/// median of [`RUNS`] runs whose counters (states, transitions,
/// subsumed, passed bytes; the witness text of a falsification) must be
/// equal. The unmasked `chain-4` proof (≈ 57k states) is recorded
/// separately by [`reduction_row`]. The measured rows are printed and
/// carried into `BENCH_zones.json` by [`emit_bench_json`]; the bench
/// gate requires the `chain-8` row, so a regression that makes the
/// deep chain infeasible fails CI instead of dropping a row. The
/// falsification timing is recorded, not gated.
fn chain_scaling_rows() -> Vec<pte_bench::ScalingRow> {
    let mut rows = Vec::new();
    for n in 2..=8usize {
        let cfg = LeaseConfig::chain(n);
        // Real headroom over the explored set: a small future shift
        // must not turn this row into an OutOfBudget panic. Deep chains
        // need the registry-scale budget.
        let limits = Limits {
            max_states: if n >= 6 { 1_000_000 } else { 120_000 },
            ..case_limits()
        };
        let (secs, proofs) =
            timed_median(|| check_lease_pattern_with(&cfg, true, &limits).unwrap());
        let counters = proofs
            .iter()
            .map(|v| {
                let SymbolicVerdict::Safe(s) = v else {
                    panic!("chain-{n} leased must be safe");
                };
                (s.states, s.transitions, s.subsumed, s.peak_passed_bytes)
            })
            .collect();
        let (states, ..) = same_counters(&format!("chain-{n} proof"), counters);
        let (falsify_secs, falsifications) =
            timed_median(|| check_lease_pattern_with(&cfg, false, &limits).unwrap());
        let witnesses = falsifications
            .iter()
            .map(|v| {
                let SymbolicVerdict::Unsafe(ce) = v else {
                    panic!("chain-{n} lease-stripped must falsify");
                };
                ce.to_string()
            })
            .collect();
        same_counters(&format!("chain-{n} falsification"), witnesses);
        println!(
            "bench: symbolic_scaling/chain-{n}                          {states} states, {:.0} ms, {:.0} states/s; falsify {:.2} ms",
            secs * 1e3,
            states as f64 / secs,
            falsify_secs * 1e3
        );
        rows.push(pte_bench::ScalingRow {
            scenario: format!("chain-{n}"),
            n,
            states,
            secs,
            falsify_secs,
        });
    }
    // Zone graphs must grow strictly with N, or the scenarios are not
    // actually exercising scale.
    assert!(rows.windows(2).all(|w| w[0].states < w[1].states));
    rows
}

/// Masked-vs-unmasked ablation: the chain-4 leased safety proof run
/// with the static analysis pass on (`Limits::reduce_clocks = true`,
/// the default) and off. The search explores every network clock
/// either way, so the DBM dimension is identical across arms and the
/// row measures the per-location activity masks alone: they collapse
/// the idle-device interleavings, and the states/sec improvement is
/// asserted so the payoff can't silently bit-rot. The row keeps its
/// `reduced`/`unreduced` JSON keys. One run per arm: the unmasked proof
/// settles ≈ 57k states. Larger chains make the same point at far
/// greater cost (unmasked chain-6 settles ≈ 477k states in over two
/// minutes), so they are not rerun.
fn reduction_row() -> pte_bench::ReductionRow {
    let n = 4usize;
    let cfg = LeaseConfig::chain(n);
    let arm = |reduce: bool| -> (usize, usize, f64, f64) {
        let limits = Limits {
            max_states: 600_000,
            reduce_clocks: reduce,
            ..Limits::default()
        };
        let t = Instant::now();
        let verdict = check_lease_pattern_with(&cfg, true, &limits).unwrap();
        let secs = t.elapsed().as_secs_f64();
        let SymbolicVerdict::Safe(stats) = verdict else {
            panic!("chain-{n} leased must be safe (reduce={reduce})");
        };
        (
            stats.dbm_clocks,
            stats.states,
            secs,
            stats.states as f64 / secs,
        )
    };
    let (clocks_r, states_r, secs_r, rate_r) = arm(true);
    let (clocks_u, states_u, secs_u, rate_u) = arm(false);
    println!(
        "bench: symbolic_reduction/chain-{n}                        \
         reduced {clocks_r} clocks / {states_r} states / {:.0} ms vs \
         unreduced {clocks_u} clocks / {states_u} states / {:.0} ms",
        secs_r * 1e3,
        secs_u * 1e3,
    );
    assert!(
        secs_r < secs_u && rate_r > rate_u,
        "the analysis pass must speed chain-{n} up \
         (reduced {:.0} ms vs unreduced {:.0} ms)",
        secs_r * 1e3,
        secs_u * 1e3
    );
    pte_bench::ReductionRow {
        scenario: format!("chain-{n}"),
        clocks_reduced: clocks_r,
        clocks_unreduced: clocks_u,
        reduced: (states_r, secs_r, rate_r),
        unreduced: (states_u, secs_u, rate_u),
    }
}

/// Compositional-scale rows: chain-12/16/20 proved Safe through the
/// assume-guarantee argument (per-device refinement against the
/// `lease_client` contract library, then N−1 abstract pair networks)
/// at the registry's 40k budget — the budget the monolithic engine
/// trips at chain-12 (≈ 67k+ states). Each verdict is asserted Safe
/// and asserted to have stayed on the compositional path (zero
/// fallback), so a refinement regression that silently rerouted these
/// rows through the monolithic engine would fail the bench instead of
/// recording a meaningless timing. Each row is the median of [`RUNS`]
/// runs whose counters (abstract states, pair networks, refinement
/// pairs) must be equal.
///
/// Every run is a cold proof: the process-global refinement verdict and
/// pair proof store is emptied before each one, whatever ran earlier
/// in the process. After the chain-12 row, its safeguard-relaxed edit
/// (every `T^min_risky` / `T^min_safe` halved) is timed as the median
/// of [`RUNS`] runs against the pair proofs the row's last run stored:
/// every pair must transfer in every run, with equal counters, and the
/// median must be at least 4x faster than the row's cold proof.
fn compositional_rows() -> (
    Vec<pte_bench::CompositionalRow>,
    pte_bench::CompositionalWarmRow,
) {
    use pte_contracts::{
        check_compositional, reset_cache, CompositionalLimits, CompositionalVerdict, EnvProfile,
        RefineLimits,
    };
    use pte_core::rules::PairSpec;
    use pte_hybrid::Time;
    let limits = CompositionalLimits {
        search: Limits {
            max_states: 40_000,
            ..Limits::default()
        },
        refine: RefineLimits::default(),
    };
    let mut rows = Vec::new();
    let mut warm = None;
    for n in [12usize, 16, 20] {
        let cfg = LeaseConfig::chain(n);
        let (secs, outs) = timed_median(|| {
            reset_cache();
            check_compositional(&cfg, true, EnvProfile::default(), &limits).unwrap()
        });
        let counters = outs
            .iter()
            .map(|out| {
                assert!(
                    matches!(out.verdict, CompositionalVerdict::Safe),
                    "chain-{n} must close compositionally, got {:?}",
                    out.verdict
                );
                (
                    out.stats.abstract_states,
                    out.stats.pair_networks,
                    out.stats.refine_pairs,
                    out.stutters,
                )
            })
            .collect();
        let (abstract_states, pair_networks, refine_pairs, stutters) =
            same_counters(&format!("compositional chain-{n}"), counters);
        println!(
            "bench: compositional/chain-{n}                             \
             {abstract_states} abstract states, {pair_networks} pair nets, \
             {stutters} stutters, {:.0} ms",
            secs * 1e3,
        );
        if n == 12 {
            let half = |t: Time| Time::seconds(t.as_secs_f64() / 2.0);
            let relaxed = LeaseConfig {
                safeguards: cfg
                    .safeguards
                    .iter()
                    .map(|p| PairSpec::new(half(p.t_min_risky), half(p.t_min_safe)))
                    .collect(),
                ..cfg.clone()
            };
            // A transfer stores nothing, so every run of the edit finds
            // the same pair proofs.
            let (warm_secs, edits) = timed_median(|| {
                check_compositional(&relaxed, true, EnvProfile::default(), &limits).unwrap()
            });
            let counters = edits
                .iter()
                .map(|edit| {
                    assert!(matches!(edit.verdict, CompositionalVerdict::Safe));
                    (edit.pairs_transferred, edit.warm_seeded)
                })
                .collect();
            let (pairs_transferred, warm_seeded) =
                same_counters(&format!("compositional_warm chain-{n}"), counters);
            assert_eq!(
                pairs_transferred, pair_networks,
                "every pair proof of the relaxed chain-{n} edit must transfer"
            );
            assert!(
                warm_secs * 4.0 <= secs,
                "the relaxed chain-{n} edit ({:.1} ms) must be at least 4x faster than \
                 its cold proof ({:.1} ms)",
                warm_secs * 1e3,
                secs * 1e3
            );
            println!(
                "bench: compositional_warm/chain-{n} (safeguards halved)   \
                 {pairs_transferred} of {pair_networks} pair proofs transferred, \
                 {:.1} ms ({:.0}x)",
                warm_secs * 1e3,
                secs / warm_secs,
            );
            warm = Some(pte_bench::CompositionalWarmRow {
                scenario: format!("chain-{n}"),
                cold_secs: secs,
                warm_secs,
                pairs_transferred,
                warm_seeded,
            });
        }
        rows.push(pte_bench::CompositionalRow {
            scenario: format!("chain-{n}"),
            n,
            abstract_states,
            pair_networks,
            refine_pairs,
            stutters,
            secs,
        });
    }
    (rows, warm.expect("the chain-12 row times its relaxed edit"))
}

/// Emits `BENCH_zones.json`: best-of-5 wall time of the leased
/// case-study proof (plus the baseline falsification), settled states,
/// states/sec, the passed-list byte accounting, the chain scaling
/// rows, the masked-vs-unmasked ablation row, and the compositional
/// rows.
fn emit_bench_json(_c: &mut Criterion) {
    let cfg = LeaseConfig::case_study();
    let limits = case_limits();

    let mut proof_secs = f64::INFINITY;
    let mut stats = None;
    for _ in 0..5 {
        let t = Instant::now();
        let verdict = check_lease_pattern_with(&cfg, true, &limits).unwrap();
        let secs = t.elapsed().as_secs_f64();
        let SymbolicVerdict::Safe(s) = verdict else {
            panic!("leased case study must be safe");
        };
        proof_secs = proof_secs.min(secs);
        stats = Some(s);
    }
    let stats = stats.expect("at least one proof run");

    let mut falsify_secs = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        assert!(check_lease_pattern_with(&cfg, false, &limits)
            .unwrap()
            .is_unsafe());
        falsify_secs = falsify_secs.min(t.elapsed().as_secs_f64());
    }

    let scaling = chain_scaling_rows();
    let reduction = [reduction_row()];
    let (compositional, compositional_warm) = compositional_rows();
    let path = std::env::var("BENCH_ZONES_JSON").unwrap_or_else(|_| "BENCH_zones.json".to_string());
    pte_bench::write_zones_bench_json(
        &path,
        proof_secs,
        falsify_secs,
        &stats,
        &limits,
        &scaling,
        &reduction,
        &compositional,
        &compositional_warm,
    );
}

criterion_group!(
    benches,
    bench_dbm_ops,
    bench_lowering,
    bench_symbolic_verdicts,
    bench_parallel_workers,
    bench_extrapolation,
    bench_passed_compression,
    emit_bench_json
);
criterion_main!(benches);
