//! Metrics from a run's samples and traces, and the printed result.

use crate::plan::Kind;
use crate::run::{Counts, Layers, Outcome, Sample};
use crate::{stats, trace, Args};
use pte_server::DaemonStats;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// What a run measured.
pub struct Run {
    pub outcomes: Vec<Outcome>,
    /// Every set-up's duration in seconds.
    pub setups: Vec<f64>,
    /// Length of the timed phase in seconds.
    pub seconds: f64,
    /// The daemon's counters at the end of a `service` run.
    pub daemon: Option<DaemonStats>,
    /// Generated configurations that failed the screen and were replaced.
    pub rejected: usize,
}

/// The end-to-end metrics with their units, in `BENCHMARK.json` order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("proof_ms", "ms"),
    ("proof_top_ms", "ms"),
    ("falsify_ms", "ms"),
    ("hit_ms", "ms"),
    ("warm_ms", "ms"),
    ("completed_frac", "ratio"),
];

/// Peak resident set of this process, in MB. Not an end-to-end metric:
/// on `service` the daemon runs every job on a thread of its own, and
/// glibc keeps each thread arena's high-water mark, so the peak depends
/// on which arenas happened to hold the large searches (127-170 MB
/// across three runs of one build).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The fast-state time of every `(kind, base model)` class of answered
/// requests: its fastest sample. Every sample of a class does the same
/// work (variants are isomorphic to their base model).
fn class_floors(samples: &[&Sample]) -> BTreeMap<(&'static str, &'static str), f64> {
    let mut classes: BTreeMap<(&'static str, &'static str), Vec<f64>> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.ok) {
        classes
            .entry((s.kind.name(), s.base))
            .or_default()
            .push(s.ms);
    }
    classes
        .into_iter()
        .map(|(class, ms)| (class, stats::min(&ms).expect("classes are non-empty")))
        .collect()
}

/// End-to-end metrics of a run's timed samples. `audit` is the witness
/// audit's `(attempted, failed)`: untimed, it counts towards
/// `completed_frac` only. Each latency metric is the geometric mean, over
/// the workload's base models, of each model's fast-state time, so it
/// does not depend on how many sessions of each model the run finished.
fn end_to_end(
    samples: &[&Sample],
    audit: (usize, usize),
    callers: usize,
    setup_s: f64,
) -> BTreeMap<&'static str, f64> {
    let floors = class_floors(samples);
    let of = |k: Kind| -> Vec<f64> {
        floors
            .iter()
            .filter(|((kind, _), _)| *kind == k.name())
            .map(|(_, &ms)| ms)
            .collect()
    };
    let gm = |k: Kind| stats::geomean(&of(k)).unwrap_or(0.0);
    let correct: Vec<&&Sample> = samples.iter().filter(|s| s.ok).collect();
    // The run's correct verdicts over their request time at their classes'
    // fast-state times, shared among the callers.
    let busy_s: f64 = correct
        .iter()
        .map(|s| floors[&(s.kind.name(), s.base)])
        .sum::<f64>()
        / 1e3
        / callers.max(1) as f64;
    let answered = correct.len() + audit.0 - audit.1;
    BTreeMap::from([
        ("setup_s", setup_s),
        ("verdicts_per_s", correct.len() as f64 / busy_s.max(1e-9)),
        ("proof_ms", gm(Kind::Proof)),
        (
            "proof_top_ms",
            of(Kind::Proof).into_iter().fold(0.0, f64::max),
        ),
        ("falsify_ms", gm(Kind::Falsify)),
        ("hit_ms", gm(Kind::Hit)),
        ("warm_ms", gm(Kind::Warm)),
        (
            "completed_frac",
            answered as f64 / (samples.len() + audit.0).max(1) as f64,
        ),
    ])
}

/// Prints the human-readable summary and returns the result line.
pub fn report(args: &Args, run: &Run) -> String {
    let samples: Vec<&Sample> = run.outcomes.iter().flat_map(|o| &o.samples).collect();
    let audit = run
        .outcomes
        .iter()
        .fold((0, 0), |(a, f), o| (a + o.audited, f + o.audit_failed));
    let attempted = samples.len() + audit.0;
    let failed = samples.iter().filter(|s| !s.ok).count() + audit.1;
    for f in run.outcomes.iter().flat_map(|o| &o.failures) {
        eprintln!("failed: {f}");
    }
    let kernel: Vec<f64> = run
        .outcomes
        .iter()
        .flat_map(|o| o.kernel_us.iter().copied())
        .collect();
    let k50 = stats::median(&kernel).unwrap_or(0.0);
    let kmin = kernel.iter().copied().fold(f64::INFINITY, f64::min);
    let slow = kernel.iter().filter(|&&k| k > 1.35 * kmin).count() as f64;
    println!(
        "workload={} seed={} seconds={} trace={} attempted={attempted} failed={failed} \
         audited={} screened_out={} setups_ms={:.1?}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        audit.0,
        run.rejected,
        run.setups.iter().map(|s| s * 1e3).collect::<Vec<_>>()
    );
    println!(
        "host: kernel_p50_us={k50:.2} kernel_min_us={kmin:.2} slow_share={:.2} \
         (diagnostic only: a fixed 48x48 kernel timed between requests; slow means \
         over 1.35x the run's fastest)",
        slow / kernel.len().max(1) as f64
    );
    print_classes(&samples);
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        layer_metrics(args, run, &samples)
    } else {
        // The fastest set-up: like the requests, set-ups run at either of
        // the host's speeds, and they are spread through the run.
        let setup_s = run.setups.iter().copied().fold(f64::INFINITY, f64::min);
        let m = end_to_end(&samples, audit, run.outcomes.len(), setup_s);
        END_TO_END
            .iter()
            .map(|(name, unit)| (name.to_string(), m[name], *unit))
            .collect()
    };
    for (name, value, unit) in &metrics {
        println!("  {name} = {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}

/// Per-class sample counts, minima and medians.
fn print_classes(samples: &[&Sample]) {
    for kind in [Kind::Proof, Kind::Hit, Kind::Warm, Kind::Falsify] {
        let of_kind: Vec<&&Sample> = samples.iter().filter(|s| s.kind == kind).collect();
        let mut classes: Vec<&str> = of_kind.iter().map(|s| s.base).collect();
        classes.sort();
        classes.dedup();
        let classes: Vec<String> = classes
            .iter()
            .map(|&class| {
                let ms: Vec<f64> = of_kind
                    .iter()
                    .filter(|s| s.base == class)
                    .map(|s| s.ms)
                    .collect();
                format!(
                    "{class}:{}@{:.3}/{:.3}",
                    ms.len(),
                    stats::min(&ms).unwrap_or(0.0),
                    stats::median(&ms).unwrap_or(0.0)
                )
            })
            .collect();
        println!(
            "  {:<8} samples={} {}",
            kind.name(),
            of_kind.len(),
            classes.join(" ")
        );
    }
}

/// Per-layer metrics of a traced run, in `BENCHMARK.json` order.
fn layer_metrics(args: &Args, run: &Run, samples: &[&Sample]) -> Vec<(String, f64, &'static str)> {
    let spans: Vec<trace::Span> = run
        .outcomes
        .iter()
        .flat_map(|o| o.spans.iter().cloned())
        .collect();
    let path = PathBuf::from(".bench_out").join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = trace::write_jsonl(&path, &spans) {
        eprintln!("writing {}: {e}", path.display());
    }
    let times = trace::layer_times(&spans);
    let med = |name: &str| -> f64 {
        times
            .get(name)
            .and_then(|per_req| stats::median(&per_req.values().copied().collect::<Vec<_>>()))
            .unwrap_or(0.0)
    };
    let total = |name: &str| -> f64 { times.get(name).map_or(0.0, |r| r.values().sum()) };
    let mut l = Layers::default();
    for o in &run.outcomes {
        l.absorb(o.layers.clone());
    }
    let m = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let sum = |f: fn(&Counts) -> usize| l.counts.values().map(f).sum::<usize>() as f64;
    let max = |f: fn(&Counts) -> usize| l.counts.values().map(f).max().unwrap_or(0) as f64;
    // States per second of search, over the replayed proofs with N in
    // `lo..=hi`.
    let rate = |lo: usize, hi: usize| -> f64 {
        let (states, ms) = l
            .searches
            .iter()
            .filter(|(n, _, _)| (lo..=hi).contains(n))
            .fold((0, 0.0), |(s, t), (_, st, ms)| (s + st, t + ms));
        ratio(states as f64, ms / 1e3)
    };
    let per_pair = |n: usize| -> f64 {
        m(&l.per_pair
            .iter()
            .filter(|(k, _)| *k == n)
            .map(|(_, v)| *v)
            .collect::<Vec<_>>())
    };
    let transitions = sum(|c| c.transitions);
    let subsumed = sum(|c| c.subsumed);
    let local = run.outcomes.iter().find_map(|o| o.local_cache.as_ref());
    let (hits, lookups, disk_bytes) = match (&run.daemon, local) {
        (Some(d), _) => (d.cache_hits, d.cache_hits + d.cache_misses, d.disk_bytes),
        (None, Some(c)) => (
            c.hits,
            c.hits + c.misses,
            run.outcomes.iter().map(|o| o.replay_disk_bytes).sum(),
        ),
        (None, None) => (0, 0, 0),
    };
    let contracts = (l.contracts_cached + l.contracts_checked) as f64;
    let mut out: Vec<(String, f64, &'static str)> = [
        ("core.build_ms", med("core.build"), "ms"),
        ("zones.lower_ms", med("zones.lower"), "ms"),
        ("zones.analysis_ms", med("zones.analysis"), "ms"),
        ("zones.reach.dbm_clocks", max(|c| c.dbm_clocks), "count"),
        (
            "zones.reach.proof_ms",
            total("zones.reach.proof") + l.pairs_ms.iter().sum::<f64>(),
            "ms",
        ),
        ("zones.reach.states", sum(|c| c.states), "count"),
        ("zones.reach.transitions", transitions, "count"),
        ("zones.reach.subsumed", subsumed, "count"),
        (
            "zones.reach.subsumed_frac",
            ratio(subsumed, transitions),
            "ratio",
        ),
        ("zones.reach.states_per_s.n_le3", rate(0, 3), "1/s"),
        ("zones.reach.states_per_s.n4_5", rate(4, 5), "1/s"),
        ("zones.reach.states_per_s.n_ge6", rate(6, usize::MAX), "1/s"),
        (
            "zones.reach.peak_passed_mb",
            max(|c| c.peak_passed_bytes) / 1e6,
            "MB",
        ),
        ("zones.reach.falsify_ms", med("zones.reach.falsify"), "ms"),
        ("zones.reach.rerun_ms", med("zones.reach.rerun"), "ms"),
        ("zones.reach.warm_ms", med("zones.reach.warm"), "ms"),
        (
            "zones.artifact.decode_ms",
            med("zones.artifact.decode"),
            "ms",
        ),
        (
            "zones.artifact.encode_ms",
            med("zones.artifact.encode"),
            "ms",
        ),
        ("zones.artifact.bytes", m(&l.artifact_bytes), "bytes"),
        ("zones.artifact.seeded_frac", m(&l.seeded_frac), "ratio"),
        ("contracts.refine_ms", med("contracts.refine"), "ms"),
        ("contracts.refine_pairs", sum(|c| c.refine_pairs), "count"),
        ("contracts.pairs_ms", m(&l.pairs_ms), "ms"),
        ("contracts.pair_networks", sum(|c| c.pair_networks), "count"),
        (
            "contracts.abstract_states",
            sum(|c| c.abstract_states),
            "count",
        ),
        (
            "contracts.abstract_states_per_pair.n4",
            per_pair(4),
            "count",
        ),
        (
            "contracts.abstract_states_per_pair.n5",
            per_pair(5),
            "count",
        ),
        (
            "contracts.abstract_states_per_pair.n6",
            per_pair(6),
            "count",
        ),
        ("contracts.fallback_ms", m(&l.fallback_ms), "ms"),
        (
            "contracts.cache_hit_frac",
            ratio(l.contracts_cached as f64, contracts),
            "ratio",
        ),
        ("verify.api_overhead_ms", m(&l.api_overhead_ms), "ms"),
        ("verify.cache_key_ms", med("verify.cache_key"), "ms"),
        ("verify.report_bytes", m(&l.report_bytes), "bytes"),
        ("server.dispatch_ms", m(&l.dispatch_ms), "ms"),
        ("server.frame_ms", med("server.frame"), "ms"),
        ("server.cache_get_ms", med("server.cache_get"), "ms"),
        ("server.disk_put_ms", med("server.disk_put"), "ms"),
        (
            "server.disk_get_artifact_ms",
            med("server.disk_get_artifact"),
            "ms",
        ),
        (
            "server.cache_hit_frac",
            ratio(hits as f64, lookups as f64),
            "ratio",
        ),
        ("server.disk_bytes", disk_bytes as f64, "bytes"),
    ]
    .into_iter()
    .map(|(name, value, unit)| (name.to_string(), value, unit))
    .collect();
    // Tracing overhead. Spans open and close outside each request's timer
    // and the replays run after it stops, so the latency metrics,
    // verdicts_per_s (built from request times) and completed_frac carry
    // none by construction. What tracing costs is the replays' share of
    // the phase (raw verdicts per second lost against the same run
    // without them), opening the replays' scratch state before the first
    // request, and the span buffer.
    let correct = samples.iter().filter(|s| s.ok).count() as f64;
    let replay_s: f64 = spans
        .iter()
        .filter(|s| s.name == "replay")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum::<f64>()
        / run.outcomes.len().max(1) as f64;
    let per_s = |secs: f64| correct / secs.max(1e-9);
    let lost = per_s(run.seconds - replay_s) - per_s(run.seconds);
    let replay_setup_s: f64 = run.outcomes.iter().map(|o| o.replay_setup_s).sum();
    let span_mb = (spans.len() * std::mem::size_of::<trace::Span>()) as f64 / 1e6;
    out.extend([
        ("process.peak_rss_mb".to_string(), peak_rss_mb(), "MB"),
        ("trace.overhead.setup_s".to_string(), replay_setup_s, "s"),
        ("trace.overhead.verdicts_per_s".to_string(), lost, "1/s"),
        ("trace.overhead.span_mb".to_string(), span_mb, "MB"),
    ]);
    out.push(("trace.spans".into(), spans.len() as f64, "count"));
    out
}
