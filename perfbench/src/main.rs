//! The repository's benchmark: three workloads against the PTE verifier,
//! every verdict checked, end-to-end metrics from untraced runs and
//! per-layer metrics from a traced run over the same seeded inputs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mono|fleet|service --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --record-witnesses perfbench/witness_digests.txt
//! ```
//!
//! Run from the repository root. Each run works in its own directory
//! under `.bench_tmp/` (removed at exit); a traced run writes its spans
//! to `.bench_out/`. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.
//! `perfbench/rationale.json` says why the workloads and metrics are
//! what they are.

mod metrics;
mod oracle;
mod plan;
mod run;
mod stats;
mod trace;

use plan::{Plan, Workload};
use pte_server::daemon::{Daemon, DaemonConfig, DaemonHandle};
use pte_server::transport::Endpoint;
use pte_server::{Client, ReportCache};
use run::{Caller, Transport};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Set-ups per run: the first precedes the timed phase, the lead caller
/// runs the others at evenly spaced times of it, so they see the host's
/// speeds as the requests do.
const SETUPS: usize = 7;
/// Daemon worker budget and connections on the `service` workload: one
/// slot per connection keeps queue wait out of every latency.
const CONNECTIONS: usize = 2;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload mono|fleet|service --seed N --seconds S --trace 0|1\n\
         \x20      perfbench --record-witnesses PATH"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() == 2 && argv[0] == "--record-witnesses" {
        let written = oracle::record()
            .and_then(|text| std::fs::write(&argv[1], text).map_err(|e| e.to_string()));
        return match written {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("recording witnesses: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let args = Args {
        workload,
        seed,
        seconds,
        trace,
    };
    let dir = PathBuf::from(".bench_tmp").join(format!(
        "{}-{}-{}",
        workload.name(),
        seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("creating {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = run_workload(&args, &dir, started);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_tmp");
    match outcome {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A bound daemon with its connected clients.
struct Service {
    handle: DaemonHandle,
    serving: thread::JoinHandle<std::io::Result<()>>,
    clients: Vec<Client>,
}

impl Service {
    /// Binds an in-process `pte-verifyd` on a Unix socket in `dir` with a
    /// fresh cache directory and connects `CONNECTIONS` clients.
    fn start(dir: &Path, tag: usize) -> Result<Service, String> {
        // A relative socket path stays within the sun_path length limit
        // wherever the checkout lives.
        let endpoint = Endpoint::Unix(dir.join(format!("d{tag}.sock")));
        let daemon = Daemon::bind(&DaemonConfig {
            endpoint: endpoint.clone(),
            workers: CONNECTIONS,
            cache_capacity: 1 << 20,
            cache_mem_bytes: 0,
            cache_dir: Some(dir.join(format!("cache{tag}"))),
            cache_disk_bytes: 0,
        })
        .map_err(|e| format!("binding the daemon: {e}"))?;
        let handle = daemon.handle();
        let serving = thread::spawn(move || daemon.run());
        let clients = (0..CONNECTIONS)
            .map(|_| Client::connect(&endpoint))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connecting: {e}"))?;
        Ok(Service {
            handle,
            serving,
            clients,
        })
    }

    /// Disconnects, shuts the daemon down and waits for it.
    fn stop(self) -> Result<(), String> {
        drop(self.clients);
        self.handle.shutdown();
        self.serving
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))
    }
}

/// One set-up: seeded generation and c1–c7 screening of every session,
/// plus (on `service`) daemon bind and connect. Returns its products
/// and its duration in seconds.
fn setup(args: &Args, dir: &Path, tag: usize) -> Result<(Plan, Option<Service>, f64), String> {
    let t = Instant::now();
    let plan = plan::build(args.workload, args.seed, args.seconds);
    let service = match args.workload {
        Workload::Service => Some(Service::start(dir, tag)?),
        _ => None,
    };
    Ok((plan, service, t.elapsed().as_secs_f64()))
}

/// A repeat set-up: timed, then torn down.
fn setup_again(args: &Args, dir: &Path, tag: usize) -> Result<f64, String> {
    let (_, service, secs) = setup(args, dir, tag)?;
    if let Some(s) = service {
        s.stop()?;
        let _ = std::fs::remove_dir_all(dir.join(format!("cache{tag}")));
    }
    Ok(secs)
}

/// The timed phase's schedule, shared by the run's callers.
struct Schedule<'p> {
    plan: &'p Plan,
    next: AtomicUsize,
    t0: Instant,
    budget: Duration,
}

/// One caller's closed loop over the shared schedule until the phase
/// ends. A request started before the end runs to completion. The lead
/// caller (given `setups`) also runs the repeat set-ups as they fall due;
/// the other caller keeps going meanwhile. Returns whether the schedule
/// ran out first, and when the caller stopped, in seconds of the phase.
fn drive(
    caller: &mut Caller,
    sch: &Schedule,
    mut setups: Option<(&Args, &Path, &mut Vec<f64>)>,
) -> Result<(bool, f64), String> {
    let open = || sch.t0.elapsed() < sch.budget;
    let exhausted = loop {
        if let Some((args, dir, secs)) = setups.as_mut() {
            let done = secs.len();
            if done < SETUPS && sch.t0.elapsed() >= sch.budget * done as u32 / SETUPS as u32 {
                secs.push(setup_again(args, dir, done)?);
            }
        }
        if !open() {
            break false;
        }
        let i = sch.next.fetch_add(1, Ordering::SeqCst);
        let Some(s) = sch.plan.sessions.get(i) else {
            break true;
        };
        caller.run_session(s, &open);
    };
    Ok((exhausted, sch.t0.elapsed().as_secs_f64()))
}

fn run_workload(args: &Args, dir: &Path, started: Instant) -> Result<String, String> {
    let digests = oracle::Digests::load();
    let (plan, service, _) = setup(args, dir, 0)?;
    let mut setups = vec![started.elapsed().as_secs_f64()];
    let sch = Schedule {
        plan: &plan,
        next: AtomicUsize::new(0),
        t0: Instant::now(),
        budget: Duration::from_secs(args.seconds),
    };
    let replay_dir = |tag: usize| args.trace.then(|| dir.join(format!("replay{tag}")));
    // Each caller's loop result; the lead caller runs the witness audit
    // once every caller has stopped.
    let (outcomes, ends, daemon) = match service {
        None => {
            let transport = Transport::InProcess(ReportCache::new(1 << 20));
            let mut caller = Caller::new(
                args.workload,
                &digests,
                started,
                transport,
                replay_dir(0).as_deref(),
                0,
            )?;
            let end = drive(&mut caller, &sch, Some((args, dir, &mut setups)))?;
            caller.audit();
            (vec![caller.finish()], vec![end], None)
        }
        Some(mut svc) => {
            let mut lead_setups = Some(&mut setups);
            let results = thread::scope(|scope| {
                let callers: Vec<_> = svc
                    .clients
                    .drain(..)
                    .enumerate()
                    .map(|(tag, client)| {
                        let (digests, sch, replay) = (&digests, &sch, replay_dir(tag));
                        let setups = lead_setups.take().map(|secs| (args, dir, secs));
                        scope.spawn(move || -> Result<_, String> {
                            let transport = Transport::Daemon(client);
                            let mut caller = Caller::new(
                                args.workload,
                                digests,
                                started,
                                transport,
                                replay.as_deref(),
                                tag as u64,
                            )?;
                            let end = drive(&mut caller, sch, setups)?;
                            Ok((caller, end))
                        })
                    })
                    .collect();
                callers
                    .into_iter()
                    .map(|h| h.join().map_err(|_| "caller thread panicked".to_string())?)
                    .collect::<Result<Vec<_>, String>>()
            })?;
            let (mut callers, ends): (Vec<Caller>, Vec<(bool, f64)>) = results.into_iter().unzip();
            let daemon = svc.handle.stats();
            callers[0].audit();
            let outcomes = callers.into_iter().map(Caller::finish).collect();
            svc.stop()?;
            (outcomes, ends, Some(daemon))
        }
    };
    let exhausted = ends.iter().any(|&(e, _)| e);
    let seconds = ends.iter().map(|&(_, t)| t).fold(0.0, f64::max);
    while setups.len() < SETUPS {
        setups.push(setup_again(args, dir, setups.len())?);
    }
    if exhausted {
        eprintln!("note: the seeded schedule ran out before the timed phase ended");
    }
    Ok(metrics::report(
        args,
        &metrics::Run {
            outcomes,
            setups,
            seconds,
            daemon,
            rejected: plan.rejected,
        },
    ))
}
