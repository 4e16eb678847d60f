//! End-to-end daemon tests: real sockets, real clients, real zone
//! searches — the acceptance criteria of the service layer.
//!
//! Each test boots its own daemon on a unique Unix socket under the
//! system temp dir, so the tests are independent and parallelizable.

use pte_server::client::Client;
use pte_server::daemon::{Daemon, DaemonConfig, DaemonHandle};
use pte_server::protocol::{read_frame, ClientFrame, ServerFrame};
use pte_server::strip_timing;
use pte_server::transport::Endpoint;
use pte_verify::api::{BackendSel, Inconclusive, Verdict, VerificationRequest};
use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// A unique socket path per test (process id + counter keeps parallel
/// test binaries and parallel tests within one binary apart).
fn socket_path() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("pte-verifyd-test-{}-{n}.sock", std::process::id()))
}

/// Boots a daemon with the given worker budget; returns the endpoint,
/// a handle, and the serving thread (joined by `stop`).
fn boot(workers: usize) -> (Endpoint, DaemonHandle, thread::JoinHandle<()>) {
    let endpoint = Endpoint::Unix(socket_path());
    let daemon = Daemon::bind(&DaemonConfig {
        endpoint: endpoint.clone(),
        workers,
        cache_capacity: 16,
        cache_mem_bytes: 0,
        cache_dir: None,
        cache_disk_bytes: 0,
    })
    .expect("bind");
    let handle = daemon.handle();
    let serving = thread::spawn(move || daemon.run().expect("daemon run"));
    (endpoint, handle, serving)
}

fn stop(handle: &DaemonHandle, serving: thread::JoinHandle<()>) {
    handle.shutdown();
    serving.join().expect("daemon thread");
}

/// A raw connection past the daemon's `Hello`, for bytes the typed
/// client never sends.
fn raw_connection(endpoint: &Endpoint) -> (UnixStream, BufReader<UnixStream>) {
    let Endpoint::Unix(path) = endpoint else {
        unreachable!("boot binds a Unix socket")
    };
    let raw = UnixStream::connect(path).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let hello: ServerFrame = read_frame(&mut reader).unwrap().unwrap();
    assert!(matches!(hello, ServerFrame::Hello { .. }), "{hello:?}");
    (raw, reader)
}

/// A fast conclusive request (case-study proves Safe in well under a
/// second even unoptimized).
fn fast_request() -> VerificationRequest {
    VerificationRequest::scenario("case-study").backend(BackendSel::Symbolic)
}

/// A request big enough that cancellation always lands while the
/// search is still running (the chain-6 proof settles 8 216 states;
/// the tests cancel it within milliseconds of admission).
fn slow_request() -> VerificationRequest {
    VerificationRequest::scenario("chain-6").backend(BackendSel::Symbolic)
}

#[test]
fn cold_then_cached_reports_agree_modulo_timing() {
    let (endpoint, handle, serving) = boot(2);

    let mut first = Client::connect(&endpoint).expect("connect");
    let cold = first.verify(&fast_request()).expect("cold verify");
    assert!(!cold.cached, "first submit must miss the cache");
    assert_eq!(cold.report.verdict, Verdict::Safe);

    // A *different* client hits the daemon-wide cache.
    let mut second = Client::connect(&endpoint).expect("connect");
    let hit = second.verify(&fast_request()).expect("cached verify");
    assert!(hit.cached, "second submit must hit the cache");
    assert_eq!(hit.key, cold.key, "same request, same canonical key");

    // Identical modulo wall-clock fields (in fact verbatim: the cached
    // report carries the cold run's timings, so even the full structs
    // agree — but the contract is "modulo timing", so that is what the
    // assertion pins).
    let cold_flat = serde_json::to_string(&strip_timing(&cold.report)).unwrap();
    let hit_flat = serde_json::to_string(&strip_timing(&hit.report)).unwrap();
    assert_eq!(cold_flat, hit_flat);
    assert_eq!(hit.report.backends.len(), cold.report.backends.len());

    // The scenario-by-name spelling and the equivalent inline-config
    // spelling share a cache entry (canonical keys, not wire bytes).
    let scenario = pte_tracheotomy::registry::by_name("case-study").unwrap();
    let inline = VerificationRequest::config(scenario.config)
        .max_states(scenario.recommended_budget)
        .backend(BackendSel::Symbolic);
    let inline_hit = second.verify(&inline).expect("inline verify");
    assert!(inline_hit.cached, "inline spelling must share the entry");
    assert_eq!(inline_hit.key, cold.key);

    let stats = second.stats().expect("stats");
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, 2);
    assert_eq!(stats.cache_entries, 1);
    stop(&handle, serving);
}

#[test]
fn four_concurrent_clients_never_exceed_the_worker_budget() {
    const BUDGET: usize = 2;
    let (endpoint, handle, serving) = boot(BUDGET);

    // Four clients, four *distinct* requests (different scenarios /
    // arms), all submitted at once against a 2-slot budget.
    let requests = vec![
        VerificationRequest::scenario("case-study").backend(BackendSel::Symbolic),
        VerificationRequest::scenario("case-study")
            .backend(BackendSel::Symbolic)
            .leased(false),
        VerificationRequest::scenario("chain-2").backend(BackendSel::Symbolic),
        VerificationRequest::scenario("stress-lossy").backend(BackendSel::Symbolic),
    ];
    let expected: Vec<Verdict> = vec![
        Verdict::Safe,
        Verdict::Unsafe, // the lease-stripped baseline is falsified
        Verdict::Safe,
        Verdict::Safe,
    ];
    let workers: Vec<_> = requests
        .into_iter()
        .map(|req| {
            let endpoint = endpoint.clone();
            thread::spawn(move || {
                let mut c = Client::connect(&endpoint).expect("connect");
                assert_eq!(c.worker_budget(), BUDGET);
                c.verify(&req).expect("verify")
            })
        })
        .collect();
    for (w, expected) in workers.into_iter().zip(expected) {
        let outcome = w.join().expect("client thread");
        assert!(!outcome.cached);
        assert_eq!(outcome.report.verdict, expected);
    }

    let stats = handle.stats();
    assert_eq!(stats.worker_budget, BUDGET);
    assert!(
        stats.peak_workers_in_use <= BUDGET,
        "budget oversubscribed: peak {} > {BUDGET}",
        stats.peak_workers_in_use
    );
    assert!(stats.peak_workers_in_use >= 1);
    assert_eq!(stats.admitted, 4);
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.cache_misses, 4);
    assert_eq!(stats.workers_in_use, 0, "all slots returned");
    stop(&handle, serving);
}

#[test]
fn cancel_frame_yields_cancelled_never_safe() {
    let (endpoint, handle, serving) = boot(2);
    let mut c = Client::connect(&endpoint).expect("connect");
    let id = c.submit(&slow_request()).expect("submit");
    match c.recv().expect("accepted") {
        ServerFrame::Accepted { cached, .. } => assert!(!cached),
        other => panic!("expected Accepted, got {other:?}"),
    }
    c.cancel(id).expect("cancel");
    let outcome = c.wait_report(id, |_| {}).expect("report");
    assert_eq!(
        outcome.report.verdict,
        Verdict::Inconclusive(Inconclusive::Cancelled),
        "a cancelled search must never report Safe"
    );

    // And the inconclusive report must not have poisoned the cache: a
    // resubmit runs cold (and this time completes... no, chain-6 is
    // too big to wait for — assert via stats instead).
    let stats = c.stats().expect("stats");
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.cache_entries, 0, "cancelled reports are not cached");
    assert_eq!(stats.workers_in_use, 0);
    stop(&handle, serving);
}

#[test]
fn client_disconnect_cancels_in_flight_work() {
    let (endpoint, handle, serving) = boot(2);
    {
        let mut doomed = Client::connect(&endpoint).expect("connect");
        doomed.submit(&slow_request()).expect("submit");
        match doomed.recv().expect("accepted") {
            ServerFrame::Accepted { .. } => {}
            other => panic!("expected Accepted, got {other:?}"),
        }
        // Dropping the client closes the socket with the search still
        // running.
    }
    // The daemon notices the disconnect and cancels the orphaned job;
    // its worker slot returns to the budget within one BFS round.
    await_cancellation(&endpoint);
    stop(&handle, serving);
}

/// Waits until every job has stopped and at least one was cancelled.
fn await_cancellation(endpoint: &Endpoint) {
    let mut observer = Client::connect(endpoint).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = observer.stats().expect("stats");
        if stats.cancelled >= 1 && stats.workers_in_use == 0 && stats.active == 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect did not cancel the in-flight job: {stats:?}"
        );
        thread::sleep(Duration::from_millis(20));
    }
}

/// A `Submit` that reuses an id still in flight gets an id-less
/// `Error` and leaves the running job alone: dropping the connection
/// still cancels that job, because its token is still filed under the
/// id.
#[test]
fn reused_in_flight_id_is_rejected_and_the_job_stays_cancellable() {
    use pte_server::protocol::write_frame;
    let (endpoint, handle, serving) = boot(2);
    {
        let (mut raw, mut reader) = raw_connection(&endpoint);
        let submit = ClientFrame::Submit {
            id: 7,
            request: slow_request(),
            no_cache: Some(true),
        };
        write_frame(&mut raw, &submit).expect("write");
        match read_frame::<ServerFrame>(&mut reader).unwrap() {
            Some(ServerFrame::Accepted { id: 7, .. }) => {}
            other => panic!("expected Accepted, got {other:?}"),
        }
        write_frame(&mut raw, &submit).expect("write");
        loop {
            match read_frame::<ServerFrame>(&mut reader).unwrap() {
                Some(ServerFrame::Error { id: None, message }) => {
                    assert!(message.contains("id 7"), "{message}");
                    break;
                }
                Some(ServerFrame::Progress { id: 7, .. }) => {}
                other => panic!("expected an Error frame, got {other:?}"),
            }
        }
        // Dropping the connection closes the socket with the first
        // job still running.
    }
    await_cancellation(&endpoint);
    stop(&handle, serving);
}

#[test]
fn shutdown_frame_drains_in_flight_reports_before_exit() {
    let (endpoint, handle, serving) = boot(2);
    let mut c = Client::connect(&endpoint).expect("connect");
    let id = c.submit(&slow_request()).expect("submit");
    match c.recv().expect("accepted") {
        ServerFrame::Accepted { .. } => {}
        other => panic!("expected Accepted, got {other:?}"),
    }
    c.send(&ClientFrame::Shutdown).expect("shutdown frame");
    // The drain contract: the in-flight request's report is still
    // delivered (cancelled, never Safe), *then* the shutdown ack.
    let mut saw_report = false;
    loop {
        match c.recv().expect("drain frame") {
            ServerFrame::Report {
                id: rid, report, ..
            } => {
                assert_eq!(rid, id);
                assert_eq!(
                    report.verdict,
                    Verdict::Inconclusive(Inconclusive::Cancelled)
                );
                saw_report = true;
            }
            ServerFrame::ShuttingDown => break,
            ServerFrame::Progress { .. } => {}
            other => panic!("unexpected drain frame {other:?}"),
        }
    }
    assert!(saw_report, "the cancelled report must precede the ack");
    serving.join().expect("daemon thread");
    // The socket file is gone after a clean drain.
    if let Endpoint::Unix(path) = &endpoint {
        assert!(!path.exists(), "socket file must be unlinked");
    }
    let _ = handle;
}

#[test]
fn unknown_scenario_errors_carry_the_suggestion_over_the_wire() {
    let (endpoint, handle, serving) = boot(1);
    let mut c = Client::connect(&endpoint).expect("connect");
    let err = c
        .verify(&VerificationRequest::scenario("chain4").backend(BackendSel::Symbolic))
        .expect_err("unknown scenario must fail");
    let msg = err.to_string();
    assert!(msg.contains("unknown scenario `chain4`"), "{msg}");
    assert!(msg.contains("did you mean `chain-4`?"), "{msg}");
    assert!(msg.contains("case-study"), "listing included: {msg}");

    // The registry also ships whole over the wire.
    let scenarios = c.list_scenarios().expect("list");
    assert_eq!(scenarios, pte_tracheotomy::registry::registry());
    stop(&handle, serving);
}

#[test]
fn oversize_frame_gets_an_error_and_the_connection_closes() {
    use pte_server::protocol::MAX_FRAME_BYTES;
    let (endpoint, handle, serving) = boot(1);
    let (mut raw, mut reader) = raw_connection(&endpoint);

    // A frame one byte past the cap, never terminated.
    raw.write_all(&vec![b'x'; MAX_FRAME_BYTES + 1])
        .expect("write");
    match read_frame::<ServerFrame>(&mut reader).unwrap() {
        Some(ServerFrame::Error { id: None, message }) => {
            assert!(message.contains("frame exceeds"), "{message}")
        }
        other => panic!("expected an Error frame, got {other:?}"),
    }
    assert!(
        read_frame::<ServerFrame>(&mut reader).unwrap().is_none(),
        "the daemon must close the connection"
    );

    // The daemon itself keeps serving.
    let mut c = Client::connect(&endpoint).expect("connect");
    assert_eq!(
        c.verify(&fast_request()).expect("verify").report.verdict,
        Verdict::Safe
    );
    stop(&handle, serving);
}

/// A `Submit` naming a backend the API no longer has gets an `Error`
/// frame that names it, and the connection keeps serving.
#[test]
fn removed_backend_gets_an_error_and_the_connection_keeps_serving() {
    use pte_server::protocol::write_frame;
    let (endpoint, handle, serving) = boot(1);
    let (mut raw, mut reader) = raw_connection(&endpoint);

    raw.write_all(
        br#"{"Submit":{"id":1,"request":{"scenario":"case-study","config":null,"leased":true,"query":"PteSafety","backend":"Portfolio","budget":{}}}}"#,
    )
    .expect("write");
    raw.write_all(b"\n").expect("write");
    match read_frame::<ServerFrame>(&mut reader).unwrap() {
        Some(ServerFrame::Error { message, .. }) => {
            assert!(message.contains("Portfolio"), "{message}")
        }
        other => panic!("expected an Error frame, got {other:?}"),
    }

    let submit = ClientFrame::Submit {
        id: 2,
        request: fast_request(),
        no_cache: None,
    };
    write_frame(&mut raw, &submit).expect("write");
    loop {
        match read_frame::<ServerFrame>(&mut reader).unwrap() {
            Some(ServerFrame::Report { id, report, .. }) => {
                assert_eq!(id, 2);
                assert_eq!(report.verdict, Verdict::Safe);
                break;
            }
            Some(ServerFrame::Accepted { .. } | ServerFrame::Progress { .. }) => {}
            other => panic!("expected the request's frames, got {other:?}"),
        }
    }
    stop(&handle, serving);
}

#[test]
fn progress_frames_stream_for_long_requests() {
    let (endpoint, handle, serving) = boot(2);
    let mut c = Client::connect(&endpoint).expect("connect");
    // chain-4 is big enough (~57k states) to outlast several progress
    // intervals even if the machine is fast.
    let req = VerificationRequest::scenario("chain-4").backend(BackendSel::Symbolic);
    let id = c.submit(&req).expect("submit");
    let mut progress_frames = 0usize;
    let outcome = c
        .wait_report(id, |frame| {
            if let ServerFrame::Progress {
                id: pid, backend, ..
            } = frame
            {
                assert_eq!(*pid, id);
                assert_eq!(backend, "symbolic");
                progress_frames += 1;
            }
        })
        .expect("report");
    assert_eq!(outcome.report.verdict, Verdict::Safe);
    assert!(
        progress_frames >= 1,
        "a multi-second search must stream at least one snapshot"
    );
    stop(&handle, serving);
}
