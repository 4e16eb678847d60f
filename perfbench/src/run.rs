//! Request execution: one caller issues a session's requests in closed
//! loop, checks every answer against its known verdict, and — in the
//! traced run — replays the program's public layer functions on the
//! same data to time each layer from outside.

use crate::oracle::{self, Digests};
use crate::plan::{Kind, Session, Workload};
use crate::stats;
use crate::trace::{self, Tracer};
use pte_contracts::{
    check_compositional, lease_client, localize, refine, top_for, CompositionalLimits, EnvProfile,
    RefineLimits,
};
use pte_core::pattern::{build_pattern_system, LeaseConfig};
use pte_server::protocol::{read_frame, write_frame, ServerFrame};
use pte_server::{strip_timing, CacheStats, Client, DiskCache, ReportCache};
use pte_verify::api::{ArtifactIo, BackendSel, Verdict, VerificationReport, VerificationRequest};
use pte_verify::{new_sink, CancelToken};
use pte_zones::ta::TaNetwork;
use pte_zones::{
    analyze, check, lower_network, Limits, ObserverSpec, PassedArtifact, SymbolicVerdict,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One answered (or failed) request.
#[derive(Clone, Debug)]
pub struct Sample {
    pub kind: Kind,
    /// Base model of the session.
    pub base: &'static str,
    pub ms: f64,
    pub ok: bool,
}

/// Deterministic per-base-model counters, from the first session of
/// each base model.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub states: usize,
    pub transitions: usize,
    pub subsumed: usize,
    pub dbm_clocks: usize,
    pub peak_passed_bytes: usize,
    pub refine_pairs: usize,
    pub pair_networks: usize,
    pub abstract_states: usize,
}

/// Per-layer measurements that are not span self times.
#[derive(Clone, Default)]
pub struct Layers {
    pub counts: BTreeMap<&'static str, Counts>,
    /// `(N, settled states, search ms)` of every replayed proof search.
    pub searches: Vec<(usize, usize, f64)>,
    /// `(N, abstract states / pair network)` of every compositional
    /// proof.
    pub per_pair: Vec<(usize, f64)>,
    pub api_overhead_ms: Vec<f64>,
    pub dispatch_ms: Vec<f64>,
    pub report_bytes: Vec<f64>,
    pub artifact_bytes: Vec<f64>,
    pub seeded_frac: Vec<f64>,
    pub pairs_ms: Vec<f64>,
    pub fallback_ms: Vec<f64>,
    pub contracts_cached: usize,
    pub contracts_checked: usize,
}

impl Layers {
    /// Adds another caller's measurements (per-model counts: first wins).
    pub fn absorb(&mut self, other: Layers) {
        for (base, counts) in other.counts {
            self.counts.entry(base).or_insert(counts);
        }
        self.searches.extend(other.searches);
        self.per_pair.extend(other.per_pair);
        self.api_overhead_ms.extend(other.api_overhead_ms);
        self.dispatch_ms.extend(other.dispatch_ms);
        self.report_bytes.extend(other.report_bytes);
        self.artifact_bytes.extend(other.artifact_bytes);
        self.seeded_frac.extend(other.seeded_frac);
        self.pairs_ms.extend(other.pairs_ms);
        self.fallback_ms.extend(other.fallback_ms);
        self.contracts_cached += other.contracts_cached;
        self.contracts_checked += other.contracts_checked;
    }
}

/// How requests reach the program.
pub enum Transport {
    /// Library calls; repeats are answered from a caller-side
    /// `ReportCache` keyed by `cache_key`.
    InProcess(ReportCache),
    /// One connection to `pte-verifyd`.
    Daemon(Client),
}

/// Scratch state of the traced run's replays: a disk cache in a scratch
/// directory and a replica of the report cache.
struct Replay {
    disk: DiskCache,
    replica: ReportCache,
}

/// Everything one caller measured.
pub struct Outcome {
    pub samples: Vec<Sample>,
    /// Witness-audit requests issued and failed.
    pub audited: usize,
    pub audit_failed: usize,
    pub failures: Vec<String>,
    pub kernel_us: Vec<f64>,
    pub layers: Layers,
    pub spans: Vec<trace::Span>,
    /// Counters of the caller-side report cache (in process only).
    pub local_cache: Option<CacheStats>,
    /// Bytes the replays wrote to their scratch disk cache.
    pub replay_disk_bytes: u64,
    /// Seconds spent opening the replays' scratch state.
    pub replay_setup_s: f64,
}

/// What a session carries from its cold requests to its later steps.
#[derive(Default)]
struct SessionState {
    /// Cache key of the cold proof (the warm edit's parent).
    key: Option<String>,
    /// The latest cold request's kind and report: what a hit repeats.
    cold: Option<(Kind, VerificationReport)>,
    artifact: Option<Arc<PassedArtifact>>,
    artifact_bytes: Option<Vec<u8>>,
}

/// The answer to one request, as the caller observed it.
struct Answer {
    report: Option<VerificationReport>,
    cached: bool,
    error: Option<String>,
}

pub struct Caller<'a> {
    w: Workload,
    digests: &'a Digests,
    tracer: Tracer,
    transport: Transport,
    replay: Option<Replay>,
    replay_setup_s: f64,
    samples: Vec<Sample>,
    audited: usize,
    audit_failed: usize,
    failures: Vec<String>,
    kernel_us: Vec<f64>,
    layers: Layers,
    /// Request ids are `tag << 32 | sequence`.
    next_request: u64,
}

fn backend(w: Workload) -> BackendSel {
    match w {
        Workload::Fleet => BackendSel::Compositional,
        Workload::Mono | Workload::Service => BackendSel::Symbolic,
    }
}

/// The request for step `kind` of session `s`.
fn request(w: Workload, s: &Session, kind: Kind, parent: Option<&str>) -> VerificationRequest {
    let cfg = if kind == Kind::Warm {
        &s.relaxed
    } else {
        &s.config
    };
    let req = VerificationRequest::config(cfg.clone())
        .max_states(s.budget)
        .backend(backend(w))
        .leased(kind != Kind::Falsify);
    match (kind, parent) {
        // The compositional route keeps no passed-list artifact; its
        // warm path is the process-global refinement cache.
        (Kind::Warm, Some(key)) if w != Workload::Fleet => req.warm_from(key),
        _ => req,
    }
}

fn search_limits(s: &Session) -> Limits {
    Limits {
        max_states: s.budget,
        ..Limits::default()
    }
}

impl<'a> Caller<'a> {
    /// A caller issuing requests through `transport`. `replay_dir` (the
    /// traced run only) holds the replays' scratch disk cache; its
    /// presence turns on span recording and the layer replays. Spans are
    /// timed from `epoch`.
    pub fn new(
        w: Workload,
        digests: &'a Digests,
        epoch: Instant,
        transport: Transport,
        replay_dir: Option<&Path>,
        tag: u64,
    ) -> Result<Caller<'a>, String> {
        let t = Instant::now();
        let replay = match replay_dir {
            Some(dir) => Some(Replay {
                disk: DiskCache::open(dir, 0)
                    .map_err(|e| format!("opening {}: {e}", dir.display()))?,
                replica: ReportCache::new(1 << 20),
            }),
            None => None,
        };
        let mut tracer = Tracer::new(epoch);
        tracer.set_enabled(replay.is_some());
        Ok(Caller {
            w,
            digests,
            tracer,
            transport,
            replay,
            replay_setup_s: t.elapsed().as_secs_f64(),
            samples: Vec::new(),
            audited: 0,
            audit_failed: 0,
            failures: Vec::new(),
            kernel_us: Vec::new(),
            layers: Layers::default(),
            next_request: tag << 32,
        })
    }

    /// Hands over what this caller measured.
    pub fn finish(self) -> Outcome {
        Outcome {
            local_cache: match &self.transport {
                Transport::InProcess(cache) => Some(cache.stats()),
                Transport::Daemon(_) => None,
            },
            replay_disk_bytes: self.replay.as_ref().map_or(0, |r| r.disk.stats().bytes),
            replay_setup_s: self.replay_setup_s,
            samples: self.samples,
            audited: self.audited,
            audit_failed: self.audit_failed,
            failures: self.failures,
            kernel_us: self.kernel_us,
            layers: self.layers,
            spans: self.tracer.spans,
        }
    }

    /// Runs session `s` step by step while `open()` holds.
    pub fn run_session(&mut self, s: &Session, open: &dyn Fn() -> bool) {
        let mut st = SessionState::default();
        for &kind in s.steps {
            if !open() {
                return;
            }
            self.step(s, kind, &mut st);
            let t = Instant::now();
            stats::kernel();
            self.kernel_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }

    fn step(&mut self, s: &Session, kind: Kind, st: &mut SessionState) {
        self.next_request += 1;
        self.tracer.set_request(self.next_request);
        let target = match (kind, &st.cold) {
            (Kind::Hit, Some((repeated, _))) => *repeated,
            _ => kind,
        };
        let req = request(self.w, s, target, st.key.as_deref());
        let open = self.tracer.start(match kind {
            Kind::Proof => "request.proof",
            Kind::Hit => "request.hit",
            Kind::Warm => "request.warm",
            Kind::Falsify => "request.falsify",
        });
        let answer = self.call(&req, kind, st);
        let ms = self.tracer.end(open);
        let verdict = self.judge(kind, st, &answer);
        if let (Kind::Proof | Kind::Falsify, Some(report)) = (kind, &answer.report) {
            if let Transport::InProcess(cache) = &self.transport {
                let key = req.cache_key().expect("generated requests resolve");
                cache.insert(&key, report);
                if kind == Kind::Proof {
                    st.key = Some(key);
                }
            }
            st.cold = Some((kind, report.clone()));
        }
        if let Err(why) = &verdict {
            if self.failures.len() < 20 {
                self.failures.push(format!(
                    "{} {} ({}): {why}",
                    kind.name(),
                    s.base,
                    self.w.name()
                ));
            }
        }
        if kind != Kind::Hit {
            if let Some(report) = &answer.report {
                self.layers.dispatch_ms.push(ms - report.wall_ms);
            }
        }
        // A request that failed its oracle is counted, not replayed.
        if self.replay.is_some() && verdict.is_ok() {
            if let Some(report) = &answer.report {
                // In process the call is `run` itself; through the daemon
                // the report's own wall time is the `run` inside it.
                let run_ms = match self.transport {
                    Transport::InProcess(_) => ms,
                    Transport::Daemon(_) => report.wall_ms,
                };
                self.replay_layers(s, kind, &req, report, st, run_ms);
            }
        }
        self.samples.push(Sample {
            kind,
            base: s.base,
            ms,
            ok: verdict.is_ok(),
        });
    }

    /// Issues `req` the way this workload's caller does.
    fn call(&mut self, req: &VerificationRequest, kind: Kind, st: &mut SessionState) -> Answer {
        let w = self.w;
        match &mut self.transport {
            Transport::InProcess(cache) => {
                if kind == Kind::Hit {
                    let report = req.cache_key().ok().and_then(|key| cache.get(&key));
                    return Answer {
                        cached: report.is_some(),
                        report,
                        error: None,
                    };
                }
                let token = CancelToken::new();
                let result = match (w, kind) {
                    (Workload::Fleet, _) | (_, Kind::Falsify) => req.run(),
                    (_, Kind::Proof) => {
                        let sink = new_sink();
                        let io = ArtifactIo {
                            warm: None,
                            capture: Some(sink.clone()),
                        };
                        let r = req.run_with_artifacts(&token, None, None, &io);
                        st.artifact = sink.lock().take().map(Arc::new);
                        r
                    }
                    _ => {
                        let io = ArtifactIo {
                            warm: st.artifact.clone(),
                            capture: None,
                        };
                        req.run_with_artifacts(&token, None, None, &io)
                    }
                };
                match result {
                    Ok(report) => Answer {
                        report: Some(report),
                        cached: false,
                        error: None,
                    },
                    Err(e) => Answer {
                        report: None,
                        cached: false,
                        error: Some(e.to_string()),
                    },
                }
            }
            Transport::Daemon(client) => match client.verify(req) {
                Ok(out) => {
                    if kind == Kind::Proof {
                        st.key = Some(out.key.clone());
                    }
                    Answer {
                        report: Some(out.report),
                        cached: out.cached,
                        error: None,
                    }
                }
                Err(e) => Answer {
                    report: None,
                    cached: false,
                    error: Some(e.to_string()),
                },
            },
        }
    }

    /// The known-answer oracle. In process, a hit returns the report this
    /// caller stored under the cold request's key, so comparing it with
    /// the cold report only checks that an equal request maps to the same
    /// cache key; through the daemon it checks the server's cache.
    fn judge(&self, kind: Kind, st: &SessionState, a: &Answer) -> Result<(), String> {
        if let Some(e) = &a.error {
            return Err(e.clone());
        }
        let Some(r) = &a.report else {
            return Err("no report".into());
        };
        let want_cached = kind == Kind::Hit;
        if a.cached != want_cached {
            return Err(format!("cached = {}, expected {want_cached}", a.cached));
        }
        match kind {
            Kind::Proof if r.verdict == Verdict::Safe => Ok(()),
            Kind::Hit => match &st.cold {
                Some((_, cold)) if strip_timing(cold) == strip_timing(r) => Ok(()),
                _ => Err("cached report differs from the cold one".into()),
            },
            Kind::Warm if r.verdict == Verdict::Safe => {
                if self.w == Workload::Fleet {
                    match &r.compositional {
                        Some(c) if c.contracts_checked == 0 && c.contracts_cached > 0 => Ok(()),
                        _ => Err("warm edit re-ran a refinement".into()),
                    }
                } else {
                    let b = r.primary();
                    if b.states > 0 && b.warm_seeded == b.states {
                        Ok(())
                    } else {
                        Err(format!(
                            "warm edit seeded {} of {} states",
                            b.warm_seeded, b.states
                        ))
                    }
                }
            }
            Kind::Falsify if r.verdict == Verdict::Unsafe => match &r.witness {
                Some(w) if !w.is_empty() => Ok(()),
                _ => Err("Unsafe without a witness".into()),
            },
            _ => Err(format!("verdict {}", r.verdict)),
        }
    }

    /// The witness byte-identity audit, untimed, after the timed phase:
    /// every registry scenario's lease-stripped arm by name, through both
    /// pinned paths and this caller's transport. A wrong verdict or a
    /// witness that differs from the recorded digest is a failed request.
    pub fn audit(&mut self) {
        for (scenario, path, req) in oracle::stripped_requests() {
            let answer = match &mut self.transport {
                Transport::InProcess(_) => req.run().map_err(|e| e.to_string()),
                Transport::Daemon(client) => client
                    .verify(&req)
                    .map(|out| out.report)
                    .map_err(|e| e.to_string()),
            };
            let verdict = answer.and_then(|r| match (&r.verdict, &r.witness) {
                (Verdict::Unsafe, Some(w)) if !w.is_empty() => {
                    self.digests.check(&scenario, path, w)
                }
                _ => Err(format!("verdict {}", r.verdict)),
            });
            self.audited += 1;
            if let Err(why) = verdict {
                self.audit_failed += 1;
                self.failures
                    .push(format!("audit {scenario} via {path}: {why}"));
            }
        }
    }

    /// `build_pattern_system` + `lower_network`, each in its span.
    fn build_lower(&mut self, cfg: &LeaseConfig, leased: bool) -> (TaNetwork, f64) {
        let (sys, build_ms) = self.tracer.span("core.build", || {
            build_pattern_system(cfg, leased).expect("screened configs build")
        });
        let (net, lower_ms) = self.tracer.span("zones.lower", || {
            lower_network(&sys.automata).expect("pattern systems lower")
        });
        (net, build_ms + lower_ms)
    }

    /// Times each layer of the request just answered by calling the
    /// same public functions on the same data.
    fn replay_layers(
        &mut self,
        s: &Session,
        kind: Kind,
        req: &VerificationRequest,
        report: &VerificationReport,
        st: &mut SessionState,
        run_ms: f64,
    ) {
        let open = self.tracer.start("replay");
        let cfg = if kind == Kind::Warm {
            &s.relaxed
        } else {
            &s.config
        };
        let (key, _) = self.tracer.span("verify.cache_key", || {
            req.cache_key().expect("generated requests resolve")
        });
        let Replay { replica, .. } = self.replay.as_ref().expect("traced run");
        self.tracer.span("server.cache_get", || replica.get(&key));
        let frame = ServerFrame::Report {
            id: 1,
            key: key.clone(),
            cached: kind == Kind::Hit,
            report: report.clone(),
        };
        let (bytes, _) = self.tracer.span("server.frame", || {
            let mut buf = Vec::new();
            write_frame(&mut buf, &frame).expect("frames serialize");
            let back: Option<ServerFrame> = read_frame(&mut buf.as_slice()).expect("frames parse");
            assert!(back.is_some());
            buf.len()
        });
        if kind == Kind::Hit {
            self.tracer.end(open);
            return;
        }
        self.layers.report_bytes.push(bytes as f64);
        let replay = self.replay.as_ref().expect("traced run");
        replay.replica.insert(&key, report);
        let disk = &replay.disk;
        self.tracer
            .span("server.disk_put", || disk.put_report(&key, report));
        let leased = kind != Kind::Falsify;
        let (net, pipeline_ms) = self.build_lower(cfg, leased);
        let (_, analysis_ms) = self.tracer.span("zones.analysis", || analyze(&net));
        let spec = ObserverSpec::from(cfg.pte_spec());
        let fleet = self.w == Workload::Fleet;
        match (kind, fleet) {
            (Kind::Proof, false) => {
                let sink = new_sink();
                let limits = Limits {
                    capture: Some(sink.clone()),
                    ..search_limits(s)
                };
                let (v, search_ms) = self
                    .tracer
                    .span("zones.reach.proof", || check(&net, &spec, &limits));
                let stats = match v {
                    Ok(SymbolicVerdict::Safe(stats)) => stats,
                    other => panic!("replayed proof of {}: {other:?}", s.base),
                };
                self.layers.searches.push((s.n, stats.states, search_ms));
                self.layers.counts.entry(s.base).or_insert(Counts {
                    states: stats.states,
                    transitions: stats.transitions,
                    subsumed: stats.subsumed,
                    dbm_clocks: stats.dbm_clocks,
                    peak_passed_bytes: stats.peak_passed_bytes,
                    ..Counts::default()
                });
                let artifact = sink
                    .lock()
                    .take()
                    .expect("a safe search captures its artifact");
                let (encoded, _) = self
                    .tracer
                    .span("zones.artifact.encode", || artifact.to_bytes());
                self.layers.artifact_bytes.push(encoded.len() as f64);
                let disk = &self.replay.as_ref().expect("traced run").disk;
                self.tracer
                    .span("server.disk_put", || disk.put_artifact(&key, &artifact));
                st.artifact_bytes = Some(encoded);
                self.layers
                    .api_overhead_ms
                    .push(run_ms - report_parts(pipeline_ms, search_ms, analysis_ms));
            }
            (Kind::Falsify, _) => {
                let limits = search_limits(s);
                let (v, search_ms) = self
                    .tracer
                    .span("zones.reach.falsify", || check(&net, &spec, &limits));
                assert!(
                    matches!(v, Ok(SymbolicVerdict::Unsafe(_))),
                    "replayed falsification"
                );
                let legacy = Limits {
                    reduce_clocks: false,
                    symmetry: false,
                    ..search_limits(s)
                };
                let _ = self
                    .tracer
                    .span("zones.reach.rerun", || check(&net, &spec, &legacy));
                if fleet {
                    // The compositional argument fails refinement, then
                    // the monolithic engine decides: build, lower, search.
                    let climits = compositional_limits(s);
                    let _ = self.tracer.span("contracts.compose", || {
                        check_compositional(cfg, false, EnvProfile::default(), &climits)
                    });
                    self.layers.fallback_ms.push(pipeline_ms + search_ms);
                } else {
                    self.layers
                        .api_overhead_ms
                        .push(run_ms - report_parts(pipeline_ms, search_ms, analysis_ms));
                }
            }
            (Kind::Warm, false) => {
                let parent = st.key.clone().unwrap_or_default();
                let disk = &self.replay.as_ref().expect("traced run").disk;
                self.tracer
                    .span("server.disk_get_artifact", || disk.get_artifact(&parent));
                let Some(bytes) = st.artifact_bytes.take() else {
                    self.tracer.end(open);
                    return;
                };
                let (artifact, _) = self.tracer.span("zones.artifact.decode", || {
                    PassedArtifact::from_bytes(&bytes).expect("artifacts round-trip")
                });
                let limits = Limits {
                    warm_start: Some(Arc::new(artifact)),
                    ..search_limits(s)
                };
                let (v, _) = self
                    .tracer
                    .span("zones.reach.warm", || check(&net, &spec, &limits));
                if let Ok(SymbolicVerdict::Safe(stats)) = v {
                    self.layers
                        .seeded_frac
                        .push(stats.warm_seeded as f64 / stats.states.max(1) as f64);
                }
            }
            (Kind::Proof, true) => {
                let rl = RefineLimits::default();
                let (pairs, _) = self.tracer.span("contracts.refine", || {
                    let mut pairs = 0;
                    for j in 1..=cfg.n {
                        let name = cfg.entity_name(j);
                        let idx = net.automaton_by_name(&name).expect("every device lowers");
                        let device = &net.automata[idx];
                        let (local, clocks) = localize(device, &net.clocks);
                        pairs += refine(&local, &clocks, &lease_client(cfg, j), &rl)
                            .stats()
                            .pairs;
                        refine(&local, &clocks, &top_for(device), &rl);
                    }
                    pairs
                });
                // The refinement verdicts are cached by now, so the
                // composition's own time is build, lower and the pair
                // searches.
                let climits = compositional_limits(s);
                let (_, compose_ms) = self.tracer.span("contracts.compose", || {
                    check_compositional(cfg, true, EnvProfile::default(), &climits)
                });
                let pairs_ms = compose_ms - pipeline_ms;
                self.layers.pairs_ms.push(pairs_ms);
                let c = report.compositional.clone().unwrap_or_default();
                self.layers
                    .searches
                    .push((s.n, c.abstract_states, pairs_ms));
                self.layers.per_pair.push((
                    s.n,
                    c.abstract_states as f64 / c.pair_networks.max(1) as f64,
                ));
                self.layers.counts.entry(s.base).or_insert(Counts {
                    states: c.abstract_states,
                    transitions: c.abstract_transitions,
                    refine_pairs: pairs,
                    pair_networks: c.pair_networks,
                    abstract_states: c.abstract_states,
                    ..Counts::default()
                });
            }
            (Kind::Warm, true) => {
                // The edit's refinements are cached, so this is its pair
                // searches (plus the composition's own build and lower).
                let climits = compositional_limits(s);
                let _ = self.tracer.span("zones.reach.warm", || {
                    check_compositional(cfg, true, EnvProfile::default(), &climits)
                });
            }
            (Kind::Hit, _) => unreachable!("hits return before the search replays"),
        }
        if let Some(c) = &report.compositional {
            self.layers.contracts_cached += c.contracts_cached;
            self.layers.contracts_checked += c.contracts_checked;
        }
        self.tracer.end(open);
    }
}

/// The measured parts of one `run`: `check_lease_pattern_with` (build,
/// lower, search) plus the second build, lower and analysis that the
/// report's `analysis` summary costs.
fn report_parts(pipeline_ms: f64, search_ms: f64, analysis_ms: f64) -> f64 {
    2.0 * pipeline_ms + search_ms + analysis_ms
}

fn compositional_limits(s: &Session) -> CompositionalLimits {
    CompositionalLimits {
        search: search_limits(s),
        refine: RefineLimits::default(),
    }
}
