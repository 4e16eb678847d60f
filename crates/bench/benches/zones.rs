//! Benchmarks of the symbolic zone engine: raw DBM throughput,
//! end-to-end verdict latency on the case-study pattern, the parallel
//! worker-count scaling of the sharded engine, the ExtraM-vs-LU
//! extrapolation comparison, the passed-list compression factor, and
//! the compositional assume-guarantee rows for the chain-12/16/20
//! fleets the monolithic engine cannot close within the registry
//! budget.
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
/// so the rows track what `check` actually does. The unreduced
/// `chain-4` proof (≈ 57k states) is recorded separately by
/// [`reduction_row`]. The measured rows are
/// printed and carried into `BENCH_zones.json` by [`emit_bench_json`];
/// the bench gate requires the `chain-8` row, so a regression that
/// makes the deep chain infeasible fails CI instead of dropping a row.
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
        let t = Instant::now();
        let verdict = check_lease_pattern_with(&cfg, true, &limits).unwrap();
        let secs = t.elapsed().as_secs_f64();
        let SymbolicVerdict::Safe(stats) = verdict else {
            panic!("chain-{n} leased must be safe");
        };
        println!(
            "bench: symbolic_scaling/chain-{n}                          {} states, {:.0} ms, {:.0} states/s",
            stats.states,
            secs * 1e3,
            stats.states as f64 / secs
        );
        rows.push(pte_bench::ScalingRow {
            scenario: format!("chain-{n}"),
            n,
            states: stats.states,
            secs: Some(secs),
        });
    }
    // Zone graphs must grow strictly with N, or the scenarios are not
    // actually exercising scale.
    assert!(rows.windows(2).all(|w| w[0].states < w[1].states));
    rows
}

/// Reduced-vs-unreduced ablation: the chain-4 leased safety proof run
/// with the static analysis pass on (`Limits::reduce_clocks = true`,
/// the default) and off. Chains are globally clock-irreducible — every
/// clock is live during the innermost nested lease, so the DBM
/// dimension is identical across arms — but the per-location activity
/// masks collapse the idle-device interleavings, and the states/sec
/// improvement is asserted so the payoff can't silently bit-rot. One
/// run per arm: the unreduced proof settles ≈ 57k states. Larger
/// chains make the same point at far greater cost (unreduced chain-6
/// settles ≈ 477k states in over two minutes), so they are not rerun.
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
/// recording a meaningless timing. One run per row: chain-20 takes
/// several seconds end to end.
fn compositional_rows() -> Vec<pte_bench::CompositionalRow> {
    use pte_contracts::{
        check_compositional, CompositionalLimits, CompositionalVerdict, EnvProfile, RefineLimits,
    };
    let mut rows = Vec::new();
    for n in [12usize, 16, 20] {
        let cfg = LeaseConfig::chain(n);
        let limits = CompositionalLimits {
            search: Limits {
                max_states: 40_000,
                ..Limits::default()
            },
            refine: RefineLimits {
                workers: 2,
                ..RefineLimits::default()
            },
        };
        let t = Instant::now();
        let out = check_compositional(&cfg, true, EnvProfile::default(), &limits).unwrap();
        let secs = t.elapsed().as_secs_f64();
        assert!(
            matches!(out.verdict, CompositionalVerdict::Safe),
            "chain-{n} must close compositionally, got {:?}",
            out.verdict
        );
        println!(
            "bench: compositional/chain-{n}                             \
             {} abstract states, {} pair nets, {:.0} ms",
            out.stats.abstract_states,
            out.stats.pair_networks,
            secs * 1e3,
        );
        rows.push(pte_bench::CompositionalRow {
            scenario: format!("chain-{n}"),
            n,
            abstract_states: out.stats.abstract_states,
            pair_networks: out.stats.pair_networks,
            refine_pairs: out.stats.refine_pairs,
            secs,
        });
    }
    rows
}

/// Emits `BENCH_zones.json`: best-of-5 wall time of the leased
/// case-study proof (plus the baseline falsification), settled states,
/// states/sec, the passed-list byte accounting, the chain scaling
/// rows, the reduced-vs-unreduced ablation row, and the compositional
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
    let compositional = compositional_rows();
    let path = std::env::var("BENCH_ZONES_JSON").unwrap_or_else(|_| "BENCH_zones.json".to_string());
    pte_bench::write_zones_bench_json(
        &path,
        proof_secs,
        Some(falsify_secs),
        &stats,
        &limits,
        &scaling,
        &reduction,
        &compositional,
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
