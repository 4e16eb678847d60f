//! The daemon proper: accept loop, per-connection protocol loop, job
//! execution, and the graceful-shutdown drain.
//!
//! ## Threading model
//!
//! One non-blocking accept loop ([`Daemon::run`]) spawns a thread per
//! connection; each connection thread reads [`ClientFrame`]s with a
//! short read timeout (so it can poll shutdown) and spawns a thread
//! per admitted job. Writes to a connection — `Accepted`, throttled
//! `Progress`, the terminal `Report`, errors — all go through one
//! `Mutex<BufWriter>` per connection, so frames never interleave
//! mid-line regardless of which thread produced them.
//!
//! ## Cancellation & shutdown
//!
//! Every job owns a [`CancelToken`]; the connection registers it under
//! the submit id (for `Cancel` frames) and the daemon registers it
//! globally (for shutdown). The token is honoured in **both** wait
//! states a job can be in: [`WorkerBudget::acquire`] polls it while
//! queued, and the engine polls it at every BFS round boundary while
//! running — so "cancel everything" converges within one round no
//! matter where each job is. A cancelled search yields
//! `Inconclusive(Cancelled)`, never `Safe`, and inconclusive reports
//! are never cached, so cancellation cannot corrupt anything — it only
//! discards work.
//!
//! Shutdown (SIGTERM, SIGINT, or a `Shutdown` frame) runs the same
//! drain: stop accepting, fire every registered token, wait for the
//! in-flight reports to flush to their clients and for their disk
//! writes to finish, join the connection threads, unlink the socket.
//!
//! ## Reply first, persist after
//!
//! A finished job puts its report into the memory report tier and a
//! `Safe` run's passed-list artifact into the memory artifact tier
//! ([`ArtifactCache`]), sends the `Report` frame, and only then writes
//! both to the disk tier, on the same job thread. A request for the
//! same key, or a warm start from it, sent after that reply is served
//! from memory, so no reply waits on a file, not even a warm start's.
//! Then the job hands the artifact to the daemon's one copier thread,
//! which swaps the stored proof for a copy of its own
//! ([`ArtifactCache::compact`]), so that kept proofs do not pin the
//! heap of every short-lived job thread. The connection loop joins its
//! job threads before it exits and the drain joins the connections, so
//! Shutdown and SIGTERM finish pending writes. A crash between reply
//! and write loses that one cache entry, never a verdict: the client
//! already holds the report, and the next identical request runs
//! again. A `Stats` frame first waits for the disk writes of every
//! report sent before it, so its disk counters are exact.

use crate::cache::{ArtifactCache, DiskCache, ReportCache, ARTIFACT_MEM_BYTES};
use crate::protocol::{
    read_frame_buffered, write_frame, ClientFrame, DaemonStats, FrameTooLarge, ServerFrame,
};
use crate::scheduler::WorkerBudget;
use crate::signal;
use crate::transport::{Endpoint, Listener, Stream};
use parking_lot::Mutex;
use pte_tracheotomy::registry;
use pte_verify::api::{ArtifactIo, Inconclusive, Verdict, VerificationReport, VerificationRequest};
use pte_verify::{new_sink, CancelToken, PassedArtifact, ProgressSink};
use std::collections::{BTreeSet, HashMap};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar};
use std::thread;
use std::time::{Duration, Instant};

/// How often a blocked connection reader rechecks the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);
/// Accept-loop sleep when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Minimum interval between `Progress` frames per job (round-boundary
/// snapshots can arrive every few microseconds on small scenarios).
const PROGRESS_INTERVAL: Duration = Duration::from_millis(25);
/// How long the shutdown drain waits for cancelled jobs to flush their
/// reports and for delivered reports to reach disk before giving up
/// and exiting anyway; also how long a `Stats` frame waits for disk
/// writes.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Daemon configuration (the `pte-verifyd` CLI maps flags onto this).
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// Global worker budget; `0` = auto (`available_parallelism - 1`,
    /// minimum 1 — one core is left for the daemon's own accept /
    /// reader / writer threads).
    pub workers: usize,
    /// Report-cache capacity in entries (`0` disables caching).
    pub cache_capacity: usize,
    /// In-memory report-cache byte bound (`0` = unbounded).
    pub cache_mem_bytes: usize,
    /// Persistent cache directory. `None` runs memory-only: reports die
    /// with the daemon, no passed-list artifact is captured, and a
    /// request naming a parent runs cold. With a directory, each `Safe`
    /// run's artifact is kept in a memory tier of fixed size
    /// ([`ARTIFACT_MEM_BYTES`]) and written, with the report, to the
    /// directory after the reply.
    pub cache_dir: Option<PathBuf>,
    /// Disk-tier byte bound (`0` = unbounded), enforced oldest-first
    /// after every store.
    pub cache_disk_bytes: u64,
}

impl DaemonConfig {
    /// The resolved worker budget (applies the `0` = auto rule).
    pub fn resolved_workers(&self) -> usize {
        if self.workers != 0 {
            return self.workers;
        }
        thread::available_parallelism()
            .map(|n| n.get().saturating_sub(1))
            .unwrap_or(1)
            .max(1)
    }
}

/// Disk writes of reports already sent, each under a ticket taken
/// before its `Report` frame, so a `Stats` frame can wait for exactly
/// the writes of the reports sent before it. Every update leaves the
/// state valid, so a poisoned lock is taken over as it is.
#[derive(Default)]
struct Persists {
    /// The next ticket, and the tickets whose writes are unfinished.
    state: std::sync::Mutex<(u64, BTreeSet<u64>)>,
    finished: Condvar,
}

impl Persists {
    fn begin(&self) -> u64 {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let ticket = state.0;
        state.0 += 1;
        state.1.insert(ticket);
        ticket
    }

    fn end(&self, ticket: u64) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.1.remove(&ticket);
        self.finished.notify_all();
    }

    /// Waits until every write begun before this call has ended, or
    /// `timeout` has passed.
    fn wait_begun(&self, timeout: Duration) {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let before = state.0;
        let _ = self
            .finished
            .wait_timeout_while(state, timeout, |(_, pending)| {
                pending.first().is_some_and(|&t| t < before)
            });
    }
}

/// A proof the memory artifact tier stored, under its key, on its way
/// to the copier thread.
type Stored = (String, Arc<PassedArtifact>);

/// State shared by the accept loop, every connection, and every job.
struct Shared {
    budget: WorkerBudget,
    cache: ReportCache,
    /// The persistent tier, when the daemon was given `--cache-dir`.
    disk: Option<DiskCache>,
    /// Recent `Safe` runs' artifacts (filled only beside a disk tier).
    artifacts: ArtifactCache,
    /// Where a job sends the artifact it stored, for
    /// [`ArtifactCache::compact`] on the copier thread of
    /// [`Daemon::run`] (`None` before that starts and after the drain).
    copier: Mutex<Option<mpsc::Sender<Stored>>>,
    persists: Persists,
    /// Daemon-local shutdown flag (`Shutdown` frame, [`DaemonHandle`]).
    shutdown: AtomicBool,
    started: Instant,
    submitted: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    active: AtomicUsize,
    /// Every in-flight job's token, keyed by a process-unique job id —
    /// the shutdown drain fires them all.
    jobs: Mutex<HashMap<u64, CancelToken>>,
    next_job: AtomicU64,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::shutdown_requested()
    }

    /// Current counters, once the disk writes of every report already
    /// sent have finished.
    fn stats(&self) -> DaemonStats {
        self.persists.wait_begun(DRAIN_TIMEOUT);
        let b = self.budget.stats();
        let c = self.cache.stats();
        let a = self.artifacts.stats();
        let d = self.disk.as_ref().map(|d| d.stats()).unwrap_or_default();
        // The refinement verdict and pair proof store is process-global
        // (the compositional backend shares it across requests), so the
        // daemon polls rather than owns it.
        let r = pte_contracts::cache_stats();
        DaemonStats {
            worker_budget: b.total,
            workers_in_use: b.in_use,
            peak_workers_in_use: b.peak_in_use,
            queued: b.queued,
            admitted: b.admitted,
            active: self.active.load(Ordering::SeqCst),
            submitted: self.submitted.load(Ordering::SeqCst),
            completed: self.completed.load(Ordering::SeqCst),
            cancelled: self.cancelled.load(Ordering::SeqCst),
            cache_hits: c.hits,
            cache_misses: c.misses,
            cache_entries: c.entries,
            cache_evictions: c.evictions,
            cache_bytes: c.bytes,
            cache_capacity: c.capacity,
            cache_max_bytes: c.max_bytes,
            artifact_cache_hits: a.hits,
            artifact_cache_misses: a.misses,
            artifact_cache_entries: a.entries,
            artifact_cache_evictions: a.evictions,
            artifact_cache_bytes: a.bytes,
            artifact_cache_max_bytes: a.max_bytes,
            disk_hits: d.hits,
            disk_misses: d.misses,
            disk_artifact_hits: d.artifact_hits,
            disk_artifact_misses: d.artifact_misses,
            disk_corrupt: d.corrupt,
            disk_stores: d.stores,
            disk_evictions: d.evictions,
            disk_bytes: d.bytes,
            disk_files: d.files,
            disk_max_bytes: d.max_bytes,
            refine_cache_hits: r.hits,
            refine_cache_misses: r.misses,
            refine_cache_entries: r.entries as usize,
            contracts_deduped: r.deduped,
            pair_cache_hits: r.pair_hits,
            pair_cache_misses: r.pair_misses,
            pair_cache_entries: r.pair_entries as usize,
            pair_cache_bytes: r.pair_bytes,
            uptime_ms: self.started.elapsed().as_secs_f64() * 1e3,
        }
    }
}

/// A clonable remote control for a running daemon (tests and the
/// binary's signal path use it; clients use the `Shutdown` frame).
#[derive(Clone)]
pub struct DaemonHandle {
    shared: Arc<Shared>,
}

impl DaemonHandle {
    /// Requests a graceful shutdown: equivalent to a `Shutdown` frame.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Current daemon statistics, once the disk writes of every report
    /// already sent have finished (as for a `Stats` frame).
    pub fn stats(&self) -> DaemonStats {
        self.shared.stats()
    }
}

/// A bound-but-not-yet-running daemon. [`Daemon::run`] consumes it and
/// blocks until shutdown.
pub struct Daemon {
    listener: Listener,
    shared: Arc<Shared>,
}

impl Daemon {
    /// Binds the endpoint and prepares shared state. Fails fast if the
    /// endpoint is taken (another daemon on the socket / port).
    pub fn bind(config: &DaemonConfig) -> io::Result<Daemon> {
        let listener = Listener::bind(&config.endpoint)?;
        let disk = match &config.cache_dir {
            Some(dir) => Some(DiskCache::open(dir, config.cache_disk_bytes)?),
            None => None,
        };
        let shared = Arc::new(Shared {
            budget: WorkerBudget::new(config.resolved_workers()),
            cache: ReportCache::bounded(config.cache_capacity, config.cache_mem_bytes),
            disk,
            artifacts: ArtifactCache::new(ARTIFACT_MEM_BYTES),
            copier: Mutex::new(None),
            persists: Persists::default(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            jobs: Mutex::new(HashMap::new()),
            next_job: AtomicU64::new(0),
        });
        Ok(Daemon { listener, shared })
    }

    /// The locally-bound TCP address, for `host:0` binds.
    pub fn tcp_addr(&self) -> Option<std::net::SocketAddr> {
        self.listener.tcp_addr()
    }

    /// A remote control for this daemon (clone before calling
    /// [`Daemon::run`]).
    pub fn handle(&self) -> DaemonHandle {
        DaemonHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until shutdown is requested (signal, handle, or
    /// `Shutdown` frame), then drains: fires every in-flight job's
    /// token, waits for the cancelled reports to flush and for pending
    /// disk writes to finish, joins connection threads, and removes the
    /// socket file.
    pub fn run(self) -> io::Result<()> {
        // One long-lived thread re-allocates every artifact the memory
        // tier stores (see `ArtifactCache::compact`). On a 2-vCPU host,
        // a two-connection edit workload then ran warm edits, proofs
        // and falsifications a few percent faster and peaked lower.
        let (to_copier, stored) = mpsc::channel::<Stored>();
        *self.shared.copier.lock() = Some(to_copier);
        let copier = {
            let shared = Arc::clone(&self.shared);
            thread::spawn(move || {
                for (key, artifact) in stored {
                    shared.artifacts.compact(&key, &artifact);
                }
            })
        };
        let mut connections: Vec<thread::JoinHandle<()>> = Vec::new();
        while !self.shared.shutting_down() {
            match self.listener.accept() {
                Ok(Some(stream)) => {
                    let shared = Arc::clone(&self.shared);
                    connections.push(thread::spawn(move || serve_connection(stream, shared)));
                }
                Ok(None) => thread::sleep(ACCEPT_POLL),
                Err(_) => thread::sleep(ACCEPT_POLL),
            }
            connections.retain(|h| !h.is_finished());
        }
        // Drain: cancel everything in flight...
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for token in self.shared.jobs.lock().values() {
            token.cancel();
        }
        // ...wait for the cancelled reports to flush to their clients
        // and the delivered ones to reach disk (connection threads exit
        // once their own jobs are done)...
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        for conn in connections {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break; // give up; process exit reaps the rest
            }
            join_with_timeout(conn, remaining);
        }
        // ...stop the copier once its queue is done...
        self.shared.copier.lock().take();
        join_with_timeout(copier, deadline.saturating_duration_since(Instant::now()));
        // ...and clean the socket file up.
        self.listener.cleanup();
        Ok(())
    }
}

/// Joins `handle` but gives up after `timeout` (std has no native
/// join-with-timeout; polling `is_finished` is the portable form).
fn join_with_timeout(handle: thread::JoinHandle<()>, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    while !handle.is_finished() {
        if Instant::now() >= deadline {
            return;
        }
        thread::sleep(Duration::from_millis(5));
    }
    let _ = handle.join();
}

/// Everything one connection's threads share.
struct Conn {
    shared: Arc<Shared>,
    /// The single serialized writer for this connection.
    writer: Mutex<BufWriter<Stream>>,
    /// This connection's in-flight jobs: submit id → (global job id,
    /// token). `Cancel` frames and disconnect teardown resolve here.
    inflight: Mutex<HashMap<u64, (u64, CancelToken)>>,
}

impl Conn {
    fn send(&self, frame: &ServerFrame) -> io::Result<()> {
        write_frame(&mut *self.writer.lock(), frame)
    }
}

/// The per-connection protocol loop.
fn serve_connection(stream: Stream, shared: Arc<Shared>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let conn = Arc::new(Conn {
        shared: Arc::clone(&shared),
        writer: Mutex::new(BufWriter::new(stream)),
        inflight: Mutex::new(HashMap::new()),
    });
    let hello = ServerFrame::Hello {
        protocol: crate::protocol::PROTOCOL_VERSION,
        worker_budget: shared.budget.total(),
    };
    if conn.send(&hello).is_err() {
        return;
    }
    let mut reader = BufReader::new(read_half);
    let mut line = String::new();
    let mut jobs: Vec<thread::JoinHandle<()>> = Vec::new();
    let mut client_requested_shutdown = false;
    loop {
        if shared.shutting_down() {
            break;
        }
        match read_frame_buffered::<ClientFrame>(&mut reader, &mut line) {
            Ok(Some(frame)) => {
                if handle_frame(&conn, frame, &mut jobs) {
                    client_requested_shutdown = true;
                    break;
                }
            }
            Ok(None) => {
                // Client disconnected: its in-flight work is orphaned —
                // cancel it so the budget frees up within one round.
                for (_, (_, token)) in conn.inflight.lock().iter() {
                    token.cancel();
                }
                break;
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) if FrameTooLarge::is(&e) => {
                // The stream is mid-line with no way to find the next
                // frame: answer, then close as if the client had left.
                let _ = conn.send(&ServerFrame::Error {
                    id: None,
                    message: format!("closing connection: {e}"),
                });
                for (_, (_, token)) in conn.inflight.lock().iter() {
                    token.cancel();
                }
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let _ = conn.send(&ServerFrame::Error {
                    id: None,
                    message: format!("malformed frame: {e}"),
                });
            }
            Err(_) => break,
        }
        jobs.retain(|h| !h.is_finished());
    }
    if shared.shutting_down() {
        // Daemon-wide drain: this connection's jobs are being cancelled
        // globally; make sure the client still gets its reports.
        for (_, (_, token)) in conn.inflight.lock().iter() {
            token.cancel();
        }
    }
    for job in jobs {
        let _ = job.join();
    }
    if client_requested_shutdown {
        let _ = conn.send(&ServerFrame::ShuttingDown);
    }
    let _ = conn.writer.lock().flush();
}

/// Dispatches one client frame. Returns `true` when the frame was
/// `Shutdown` (the connection loop then drains and exits).
fn handle_frame(
    conn: &Arc<Conn>,
    frame: ClientFrame,
    jobs: &mut Vec<thread::JoinHandle<()>>,
) -> bool {
    match frame {
        ClientFrame::Submit {
            id,
            request,
            no_cache,
        } => {
            submit(conn, id, request, no_cache.unwrap_or(false), jobs);
            false
        }
        ClientFrame::Cancel { id } => {
            if let Some((_, token)) = conn.inflight.lock().get(&id) {
                token.cancel();
            }
            false
        }
        ClientFrame::ListScenarios => {
            let _ = conn.send(&ServerFrame::Scenarios {
                scenarios: registry::registry(),
            });
            false
        }
        ClientFrame::Stats => {
            let _ = conn.send(&ServerFrame::Stats {
                stats: conn.shared.stats(),
            });
            false
        }
        ClientFrame::Shutdown => {
            conn.shared.shutdown.store(true, Ordering::SeqCst);
            true
        }
    }
}

/// Handles a `Submit`: validates and keys the request, answers from
/// the memory tier, then the disk tier (promoting the report into
/// memory), otherwise resolves the warm-start artifact and spawns the
/// job thread. `no_cache` skips both report lookups *and* every store;
/// a warm start's artifact is still looked up.
fn submit(
    conn: &Arc<Conn>,
    id: u64,
    request: VerificationRequest,
    no_cache: bool,
    jobs: &mut Vec<thread::JoinHandle<()>>,
) {
    // `cache_key` resolves the scenario, so every malformed-request
    // error (unknown scenario incl. the did-you-mean suggestion, no
    // system, ambiguous system) surfaces here, before any scheduling.
    let key = match request.cache_key() {
        Ok(k) => k,
        Err(e) => {
            let _ = conn.send(&ServerFrame::Error {
                id: Some(id),
                message: e.to_string(),
            });
            return;
        }
    };
    // Cancel frames and disconnect teardown find a job by its submit
    // id, so a second job under a running id would orphan the first.
    // Only this connection's reader thread inserts ids, so the check
    // cannot race an insert. `id: None` keeps the error from reading as
    // the running job's failure.
    if conn.inflight.lock().contains_key(&id) {
        let _ = conn.send(&ServerFrame::Error {
            id: None,
            message: format!("submit id {id} is already in flight on this connection"),
        });
        return;
    }
    conn.shared.submitted.fetch_add(1, Ordering::SeqCst);
    if !no_cache {
        let hit = conn.shared.cache.get(&key).or_else(|| {
            // Disk tier: a hit is promoted into memory, so a restarted
            // daemon pays the file read once per key.
            let report = conn.shared.disk.as_ref()?.get_report(&key)?;
            conn.shared.cache.insert(&key, &report);
            Some(report)
        });
        if let Some(report) = hit {
            let _ = conn.send(&ServerFrame::Accepted {
                id,
                key: key.clone(),
                cached: true,
            });
            let _ = conn.send(&ServerFrame::Report {
                id,
                key,
                cached: true,
                report,
            });
            conn.shared.completed.fetch_add(1, Ordering::SeqCst);
            return;
        }
    }
    // Warm start: the parent key names a prior `Safe` run whose
    // artifact the memory tier holds if the run was recent, and the
    // disk tier if it survived eviction or a restart (a disk hit is
    // promoted into memory, like a report). Missing or inadmissible
    // artifacts degrade to a cold run; they can never flip a verdict.
    let warm: Option<Arc<PassedArtifact>> = match (&request.parent_key, &conn.shared.disk) {
        (Some(parent), Some(disk)) if request.budget.warm_start != Some(false) => {
            conn.shared.artifacts.get(parent).or_else(|| {
                // Evicted, or larger than the tier: its file may still
                // be being written behind the parent's reply.
                conn.shared.persists.wait_begun(DRAIN_TIMEOUT);
                let artifact = Arc::new(disk.get_artifact(parent)?);
                if !no_cache {
                    drop(conn.shared.artifacts.insert(parent, Arc::clone(&artifact)));
                }
                Some(artifact)
            })
        }
        _ => None,
    };
    let _ = conn.send(&ServerFrame::Accepted {
        id,
        key: key.clone(),
        cached: false,
    });
    let token = CancelToken::new();
    let job_id = conn.shared.next_job.fetch_add(1, Ordering::SeqCst);
    conn.inflight.lock().insert(id, (job_id, token.clone()));
    conn.shared.jobs.lock().insert(job_id, token.clone());
    let conn = Arc::clone(conn);
    jobs.push(thread::spawn(move || {
        run_job(&conn, id, job_id, key, request, warm, no_cache, token);
    }));
}

/// Executes one admitted request on the job thread: waits for worker
/// slots, runs capped to the grant (warm-seeded when an admissible
/// parent artifact was resolved), streams throttled progress, stores a
/// conclusive report and a `Safe` run's captured passed-list artifact
/// in the memory tiers, sends the terminal report, then persists both
/// to the disk tier, and maintains every registry and counter.
#[allow(clippy::too_many_arguments)]
fn run_job(
    conn: &Arc<Conn>,
    id: u64,
    job_id: u64,
    key: String,
    request: VerificationRequest,
    warm: Option<Arc<PassedArtifact>>,
    no_cache: bool,
    token: CancelToken,
) {
    let started = Instant::now();
    let (outcome, artifact) = match conn.shared.budget.acquire(request.worker_cost(), &token) {
        None => {
            // Cancelled while queued: the search never started, so
            // synthesize the same inconclusive shape a cancelled run
            // reports (no backends ran — none were admitted).
            let report = VerificationReport {
                scenario: request.scenario.clone(),
                leased: request.leased,
                verdict: Verdict::Inconclusive(Inconclusive::Cancelled),
                witness: None,
                winner: None,
                tripped: None,
                backends: Vec::new(),
                analysis: None,
                compositional: None,
                wall_ms: started.elapsed().as_secs_f64() * 1e3,
            };
            (Ok(report), None)
        }
        Some(permit) => {
            conn.shared.active.fetch_add(1, Ordering::SeqCst);
            let sink: ProgressSink = {
                let conn = Arc::clone(conn);
                let last = Mutex::new(
                    Instant::now()
                        .checked_sub(PROGRESS_INTERVAL)
                        .unwrap_or_else(Instant::now),
                );
                Arc::new(move |backend: &str, p: &pte_verify::Progress| {
                    let mut last = last.lock();
                    if last.elapsed() < PROGRESS_INTERVAL {
                        return;
                    }
                    *last = Instant::now();
                    let _ = conn.send(&ServerFrame::Progress {
                        id,
                        backend: backend.to_string(),
                        round: p.round,
                        settled: p.settled,
                        frontier: p.frontier,
                        elapsed_ms: p.elapsed.as_secs_f64() * 1e3,
                    });
                })
            };
            // Capture the passed list only when there is a disk tier to
            // persist it into; the memory tier only fronts that one.
            let capture = conn.shared.disk.as_ref().map(|_| new_sink());
            let io = ArtifactIo {
                warm,
                capture: capture.clone(),
            };
            let r = request.run_with_artifacts(&token, Some(sink), Some(permit.slots()), &io);
            conn.shared.active.fetch_sub(1, Ordering::SeqCst);
            drop(permit);
            let artifact = match (&r, capture) {
                (Ok(report), Some(sink)) if !no_cache && report.verdict == Verdict::Safe => {
                    sink.lock().take().map(Arc::new)
                }
                _ => None,
            };
            (r, artifact)
        }
    };
    conn.shared.jobs.lock().remove(&job_id);
    conn.inflight.lock().remove(&id);
    match outcome {
        Ok(report) => {
            if matches!(
                report.verdict,
                Verdict::Inconclusive(Inconclusive::Cancelled)
            ) {
                conn.shared.cancelled.fetch_add(1, Ordering::SeqCst);
            }
            let mut evicted = Vec::new();
            if !no_cache {
                conn.shared.cache.insert(&key, &report);
                if let Some(artifact) = &artifact {
                    evicted = conn.shared.artifacts.insert(&key, Arc::clone(artifact));
                }
            }
            conn.shared.completed.fetch_add(1, Ordering::SeqCst);
            // The ticket is taken before the reply, so a Stats frame
            // the client sends after reading it waits for these writes.
            let persist = (conn.shared.disk.as_ref())
                .filter(|_| !no_cache && report.verdict.is_conclusive())
                .map(|disk| (disk, conn.shared.persists.begin()));
            let _ = conn.send(&ServerFrame::Report {
                id,
                key: key.clone(),
                cached: false,
                report: report.clone(),
            });
            if let Some((disk, ticket)) = persist {
                if let Some(artifact) = &artifact {
                    disk.put_artifact(&key, artifact);
                }
                disk.put_report(&key, &report);
                conn.shared.persists.end(ticket);
            }
            // Freed only now, off the reply's path.
            drop(evicted);
            if let (Some(artifact), Some(copier)) = (artifact, &*conn.shared.copier.lock()) {
                let _ = copier.send((key, artifact));
            }
        }
        Err(e) => {
            let _ = conn.send(&ServerFrame::Error {
                id: Some(id),
                message: e.to_string(),
            });
        }
    }
}
