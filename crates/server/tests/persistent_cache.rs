//! The persistent tier end-to-end: reports and passed-list artifacts
//! survive daemon restarts, warm starts engage through the wire
//! protocol, concurrent submits and mid-flight shutdowns never publish
//! a torn file, and corruption degrades to a cold run — never a wrong
//! answer. The daemon writes behind its replies: a warm start right
//! after its parent's reply is served from memory, a shutdown right
//! after the last reply still writes every file, and a `Stats` frame
//! right after a reply counts that reply's writes.
//!
//! Each test boots its own daemon on a unique Unix socket and its own
//! cache directory under the system temp dir.

use pte_core::rules::PairSpec;
use pte_hybrid::Time;
use pte_server::client::Client;
use pte_server::daemon::{Daemon, DaemonConfig, DaemonHandle};
use pte_server::strip_timing;
use pte_server::transport::Endpoint;
use pte_server::DiskCache;
use pte_verify::api::{BackendSel, Verdict, VerificationRequest};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

/// A unique temp path per call (process id + counter keeps parallel
/// tests apart).
fn unique_path(kind: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!(
        "pte-persist-test-{}-{n}.{kind}",
        std::process::id()
    ))
}

/// Boots a daemon with a persistent tier rooted at `cache_dir`.
fn boot(cache_dir: &Path) -> (Endpoint, DaemonHandle, thread::JoinHandle<()>) {
    let endpoint = Endpoint::Unix(unique_path("sock"));
    let daemon = Daemon::bind(&DaemonConfig {
        endpoint: endpoint.clone(),
        workers: 2,
        cache_capacity: 16,
        cache_mem_bytes: 0,
        cache_dir: Some(cache_dir.to_path_buf()),
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

fn fast_request() -> VerificationRequest {
    VerificationRequest::scenario("case-study").backend(BackendSel::Symbolic)
}

/// A weakened-monitor variant of a registry scenario: same network,
/// smaller safeguard minima — the warm-start-admissible delta.
fn relaxed_chain(name: &str) -> VerificationRequest {
    let scenario = pte_tracheotomy::registry::by_name(name).expect("registry scenario");
    let mut config = scenario.config;
    config.safeguards =
        vec![PairSpec::new(Time::seconds(0.5), Time::seconds(0.25)); config.safeguards.len()];
    VerificationRequest::config(config)
        .max_states(scenario.recommended_budget)
        .backend(BackendSel::Symbolic)
}

#[test]
fn restarted_daemon_serves_the_report_from_disk_without_rerunning() {
    let dir = unique_path("cache");

    let (endpoint, handle, serving) = boot(&dir);
    let mut client = Client::connect(&endpoint).expect("connect");
    let cold = client.verify(&fast_request()).expect("cold verify");
    assert!(!cold.cached);
    assert_eq!(cold.report.verdict, Verdict::Safe);
    stop(&handle, serving);

    // A brand-new daemon process (fresh memory tier) on the same
    // directory answers from disk: cached, byte-identical modulo the
    // timing fields (in fact verbatim — the stored report carries the
    // cold run's timings).
    let (endpoint, handle, serving) = boot(&dir);
    let mut client = Client::connect(&endpoint).expect("connect");
    let hit = client.verify(&fast_request()).expect("disk-hit verify");
    assert!(hit.cached, "the restarted daemon must answer from disk");
    assert_eq!(hit.key, cold.key);
    assert_eq!(
        serde_json::to_string(&strip_timing(&hit.report)).unwrap(),
        serde_json::to_string(&strip_timing(&cold.report)).unwrap()
    );

    let stats = client.stats().expect("stats");
    assert_eq!(stats.disk_hits, 1);
    assert_eq!(stats.disk_corrupt, 0);
    // The promoted entry now also serves from memory.
    let again = client.verify(&fast_request()).expect("mem-hit verify");
    assert!(again.cached);
    assert_eq!(client.stats().expect("stats").disk_hits, 1);
    stop(&handle, serving);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_start_engages_over_the_wire_and_survives_a_restart() {
    let dir = unique_path("cache");

    let (endpoint, handle, serving) = boot(&dir);
    let mut client = Client::connect(&endpoint).expect("connect");
    let parent = client
        .verify(&VerificationRequest::scenario("chain-2").backend(BackendSel::Symbolic))
        .expect("parent proof");
    assert_eq!(parent.report.verdict, Verdict::Safe);
    let parent_states = parent.report.backend("symbolic").expect("symbolic").states;
    stop(&handle, serving);

    // Restart: the artifact must come off disk, not daemon memory.
    let (endpoint, handle, serving) = boot(&dir);
    let mut client = Client::connect(&endpoint).expect("connect");
    let child = relaxed_chain("chain-2").warm_from(parent.key.clone());
    let warm = client.verify(&child).expect("warm verify");
    assert!(!warm.cached, "a new key never hits the report cache");
    assert_eq!(warm.report.verdict, Verdict::Safe);
    assert_eq!(
        warm.report
            .backend("symbolic")
            .expect("symbolic")
            .warm_seeded,
        parent_states,
        "the whole parent proof must transfer"
    );

    // The cold run of the same relaxed config (no parent) agrees.
    let cold = client
        .verify_with(&relaxed_chain("chain-2"), true)
        .expect("cold verify");
    assert_eq!(cold.report.verdict, warm.report.verdict);
    assert_eq!(cold.report.witness, warm.report.witness);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.disk_artifact_hits, 1);

    // A bogus parent key degrades to a cold run, not an error.
    let orphan = relaxed_chain("chain-2")
        .workers(2)
        .warm_from("ffffffffffffffff");
    let outcome = client.verify(&orphan).expect("orphan verify");
    assert_eq!(outcome.report.verdict, Verdict::Safe);
    assert_eq!(
        outcome
            .report
            .backend("symbolic")
            .expect("symbolic")
            .warm_seeded,
        0,
        "a missing artifact must fall back to cold"
    );
    stop(&handle, serving);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_on_one_key_never_publish_a_torn_file() {
    let dir = unique_path("cache");
    let (endpoint, handle, serving) = boot(&dir);

    // Four clients race the same request: some run, some hit the
    // cache mid-flight — every report must be Safe and keyed alike.
    let outcomes: Vec<_> = (0..4)
        .map(|_| {
            let endpoint = endpoint.clone();
            thread::spawn(move || {
                let mut c = Client::connect(&endpoint).expect("connect");
                c.verify(&fast_request()).expect("verify")
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let key = outcomes[0].key.clone();
    for o in &outcomes {
        assert_eq!(o.key, key);
        assert_eq!(o.report.verdict, Verdict::Safe);
    }
    stop(&handle, serving);

    // Whatever interleaving happened, the published files are whole:
    // a fresh DiskCache reads both back without a corruption event,
    // and no write-ahead temp files survived.
    let disk = DiskCache::open(&dir, 0).expect("reopen");
    assert!(disk.get_report(&key).is_some(), "report file is readable");
    assert!(
        disk.get_artifact(&key).is_some(),
        "artifact file is readable"
    );
    assert_eq!(disk.stats().corrupt, 0);
    for entry in std::fs::read_dir(&dir).expect("read cache dir") {
        let name = entry.expect("dir entry").file_name();
        assert!(
            !name.to_string_lossy().starts_with(".tmp-"),
            "temp file leaked: {name:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_mid_search_leaves_the_cache_clean() {
    let dir = unique_path("cache");
    let (endpoint, handle, serving) = boot(&dir);
    let mut client = Client::connect(&endpoint).expect("connect");
    // chain-6 outlives the shutdown by orders of magnitude; the drain
    // cancels it, and a cancelled (inconclusive) run must persist
    // nothing.
    let id = client
        .submit(&VerificationRequest::scenario("chain-6").backend(BackendSel::Symbolic))
        .expect("submit");
    stop(&handle, serving);
    let _ = id;

    let disk = DiskCache::open(&dir, 0).expect("reopen");
    let stats = disk.stats();
    assert_eq!(stats.files, 0, "an interrupted run must persist nothing");
    assert_eq!(stats.corrupt, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_cache_bypasses_lookup_and_store_on_both_tiers() {
    let dir = unique_path("cache");
    let (endpoint, handle, serving) = boot(&dir);
    let mut client = Client::connect(&endpoint).expect("connect");

    let first = client.verify_with(&fast_request(), true).expect("verify");
    let second = client.verify_with(&fast_request(), true).expect("verify");
    assert!(!first.cached && !second.cached, "no-cache runs never hit");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.cache_entries, 0, "no-cache runs never store");
    assert_eq!(stats.disk_stores, 0);

    // A normal submit still runs cold (nothing was stored) and then
    // populates both tiers.
    let cold = client.verify(&fast_request()).expect("verify");
    assert!(!cold.cached);
    let hit = client.verify(&fast_request()).expect("verify");
    assert!(hit.cached);
    assert!(client.stats().expect("stats").disk_stores >= 1);
    stop(&handle, serving);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_disk_files_degrade_to_a_cold_run() {
    let dir = unique_path("cache");

    let (endpoint, handle, serving) = boot(&dir);
    let mut client = Client::connect(&endpoint).expect("connect");
    let cold = client.verify(&fast_request()).expect("cold verify");
    stop(&handle, serving);

    // Flip a byte in every cache file.
    for entry in std::fs::read_dir(&dir).expect("read cache dir") {
        let path = entry.expect("dir entry").path();
        let mut bytes = std::fs::read(&path).expect("read cache file");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("corrupt cache file");
    }

    let (endpoint, handle, serving) = boot(&dir);
    let mut client = Client::connect(&endpoint).expect("connect");
    // The corrupt artifact is rejected by its checksum: a warm request
    // naming it falls back to cold. It goes first, while the corrupt
    // file is still the only copy of the parent proof (re-running the
    // parent would rewrite it, and memory would serve it).
    let child = relaxed_chain("case-study").warm_from(cold.key.clone());
    let warm = client.verify(&child).expect("warm verify");
    assert_eq!(warm.report.verdict, Verdict::Safe);
    assert_eq!(
        warm.report
            .backend("symbolic")
            .expect("symbolic")
            .warm_seeded,
        0,
        "a corrupt artifact must fall back to cold"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(
        (
            stats.disk_corrupt,
            stats.disk_artifact_hits,
            stats.disk_artifact_misses
        ),
        (1, 0, 1),
        "the corrupt artifact must be detected and counted: {stats:?}"
    );
    // The report is detected as corrupt and the search re-runs cold —
    // same verdict, no torn data served.
    let rerun = client.verify(&fast_request()).expect("re-verify");
    assert!(!rerun.cached, "a corrupt file must be a miss");
    assert_eq!(rerun.report.verdict, cold.report.verdict);
    let stats = client.stats().expect("stats");
    assert!(
        stats.disk_corrupt >= 1,
        "corruption must be detected and counted: {stats:?}"
    );
    assert_eq!(stats.disk_corrupt, 2, "the report too: {stats:?}");
    // The re-run's fresh proof does transfer to the same child, so the
    // cold fallback above was the corruption's doing.
    let again = client.verify_with(&child, true).expect("warm verify");
    assert!(
        again
            .report
            .backend("symbolic")
            .expect("symbolic")
            .warm_seeded
            > 0
    );
    stop(&handle, serving);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `body` on a thread of its own and fails the test if it has not
/// finished within `limit`: a daemon that never answers, or a drain
/// that never ends, hangs the body, not the suite.
fn within<T: Send + 'static>(limit: Duration, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, ended) = mpsc::channel();
    let worker = thread::spawn(move || {
        let out = body();
        let _ = done.send(());
        out
    });
    if let Err(RecvTimeoutError::Timeout) = ended.recv_timeout(limit) {
        panic!("the test did not finish within {limit:?}");
    }
    worker
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

const LIMIT: Duration = Duration::from_secs(300);

#[test]
fn a_warm_start_right_after_its_parent_reads_no_file() {
    within(LIMIT, || {
        let dir = unique_path("cache");
        let (endpoint, handle, serving) = boot(&dir);
        let mut client = Client::connect(&endpoint).expect("connect");
        let parent = client
            .verify(&VerificationRequest::scenario("chain-2").backend(BackendSel::Symbolic))
            .expect("parent proof");
        assert_eq!(parent.report.verdict, Verdict::Safe);
        let parent_states = parent.report.backend("symbolic").expect("symbolic").states;
        // Sent as soon as the parent's report arrives, while its files
        // may still be being written.
        let warm = client
            .verify(&relaxed_chain("chain-2").warm_from(parent.key.clone()))
            .expect("warm verify");
        assert_eq!(warm.report.verdict, Verdict::Safe);
        assert_eq!(
            warm.report
                .backend("symbolic")
                .expect("symbolic")
                .warm_seeded,
            parent_states,
            "the whole parent proof must transfer"
        );
        let stats = client.stats().expect("stats");
        assert_eq!(
            (stats.artifact_cache_hits, stats.artifact_cache_misses),
            (1, 0),
            "{stats:?}"
        );
        assert_eq!(
            (stats.disk_artifact_hits, stats.disk_artifact_misses),
            (0, 0),
            "no artifact may be read from disk: {stats:?}"
        );
        // Both proofs' reports and artifacts still reach disk.
        assert_eq!((stats.disk_stores, stats.disk_files), (4, 4), "{stats:?}");
        assert_eq!(stats.artifact_cache_entries, 2);
        assert!(stats.artifact_cache_bytes <= stats.artifact_cache_max_bytes);
        stop(&handle, serving);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn shutdown_right_after_the_last_report_persists_every_proof() {
    within(LIMIT, || {
        let dir = unique_path("cache");
        let (endpoint, handle, serving) = boot(&dir);
        let symbolic =
            |name: &str| VerificationRequest::scenario(name).backend(BackendSel::Symbolic);
        let batches = [
            vec![
                symbolic("case-study"),
                symbolic("chain-2"),
                relaxed_chain("case-study"),
            ],
            vec![
                symbolic("stress-lossy"),
                relaxed_chain("chain-2"),
                symbolic("case-study").max_states(123_456),
            ],
        ];
        let clients: Vec<_> = batches
            .into_iter()
            .map(|batch| {
                let endpoint = endpoint.clone();
                thread::spawn(move || {
                    let mut c = Client::connect(&endpoint).expect("connect");
                    let keys: Vec<String> = batch
                        .iter()
                        .map(|r| {
                            let o = c.verify(r).expect("verify");
                            assert!(!o.cached);
                            assert_eq!(o.report.verdict, Verdict::Safe);
                            o.key
                        })
                        .collect();
                    (c, keys)
                })
            })
            .collect();
        let (mut conns, keys): (Vec<Client>, Vec<Vec<String>>) = clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .unzip();
        // The last report has just arrived; its files may not be written.
        conns[0].shutdown().expect("shutdown");
        serving.join().expect("daemon thread");
        let _ = handle;

        let disk = DiskCache::open(&dir, 0).expect("reopen");
        let keys: Vec<String> = keys.into_iter().flatten().collect();
        assert_eq!(keys.len(), 6);
        for key in &keys {
            assert!(disk.get_report(key).is_some(), "report {key} is readable");
            assert!(
                disk.get_artifact(key).is_some(),
                "artifact {key} is readable"
            );
        }
        let stats = disk.stats();
        assert_eq!((stats.corrupt, stats.files), (0, 12), "{stats:?}");
        for entry in std::fs::read_dir(&dir).expect("read cache dir") {
            let name = entry.expect("dir entry").file_name();
            assert!(
                !name.to_string_lossy().starts_with(".tmp-"),
                "temp file leaked: {name:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn stats_right_after_a_report_counts_its_disk_writes() {
    within(LIMIT, || {
        let dir = unique_path("cache");
        let (endpoint, handle, serving) = boot(&dir);
        let mut client = Client::connect(&endpoint).expect("connect");
        for i in 0..20u64 {
            // A new budget is a new key, so every request runs and
            // stores a report and an artifact.
            let request = fast_request().max_states(100_000 + i as usize);
            let outcome = client.verify(&request).expect("verify");
            assert!(!outcome.cached);
            assert_eq!(outcome.report.verdict, Verdict::Safe);
            let stats = client.stats().expect("stats");
            let written = 2 * (i + 1);
            assert_eq!(stats.disk_stores, written, "request {i}: {stats:?}");
            assert_eq!(stats.disk_files as u64, written, "request {i}: {stats:?}");
        }
        stop(&handle, serving);
        let _ = std::fs::remove_dir_all(&dir);
    });
}
