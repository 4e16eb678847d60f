//! The `pte-verifyd` wire protocol: JSON-lines framing over a typed
//! frame enum pair.
//!
//! Every frame is one line of compact JSON — the externally-tagged
//! serde encoding of [`ClientFrame`] (client → daemon) or
//! [`ServerFrame`] (daemon → client) — terminated by `\n`. The payload
//! types are the *existing* serde types of the verification stack
//! ([`VerificationRequest`], [`VerificationReport`],
//! [`pte_tracheotomy::registry::Scenario`]); the protocol adds only
//! correlation ids, cache metadata, and scheduler statistics, so a
//! report read off the wire is the same artifact `run()` returns in
//! process.
//!
//! Multiplexing: a client may keep any number of requests in flight on
//! one connection; it correlates [`ServerFrame::Progress`] /
//! [`ServerFrame::Report`] frames by the `id` it chose at
//! [`ClientFrame::Submit`] time. Ids are client-scoped — two
//! connections may both use id `1`. An id may be reused once its
//! request has reported; a `Submit` that reuses an id still in flight
//! on its connection gets an id-less [`ServerFrame::Error`], and the
//! running request is left alone.
//!
//! ## Example transcript
//!
//! ```text
//! C: {"Submit":{"id":1,"request":{"scenario":"case-study","config":null,"leased":true,"query":"PteSafety","backend":"Symbolic","budget":{}}}}
//! S: {"Accepted":{"id":1,"key":"891f93ed374637fb","cached":false}}
//! S: {"Progress":{"id":1,"backend":"symbolic","round":12,"settled":310,"frontier":55,"elapsed_ms":4.1}}
//! S: {"Report":{"id":1,"key":"891f93ed374637fb","cached":false,"report":{...,"verdict":"Safe",...}}}
//! C: {"Submit":{"id":2,"request":{...same...}}}
//! S: {"Accepted":{"id":2,"key":"891f93ed374637fb","cached":true}}
//! S: {"Report":{"id":2,"key":"891f93ed374637fb","cached":true,"report":{...}}}
//! ```

use pte_tracheotomy::registry::Scenario;
use pte_verify::api::{VerificationReport, VerificationRequest};
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, Read, Write};

/// Protocol revision carried in [`ServerFrame::Hello`]. Bumped on any
/// frame-shape change; clients refuse to talk to a daemon speaking a
/// different revision.
pub const PROTOCOL_VERSION: u32 = 1;

/// Client → daemon frames.
///
/// `Submit` dwarfs the other variants, but frames are transient (one
/// decode per line, consumed immediately) so indirection would buy
/// nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ClientFrame {
    /// Submit a verification request under a client-chosen correlation
    /// id. The daemon answers with [`ServerFrame::Accepted`] (or
    /// [`ServerFrame::Error`]), then zero or more
    /// [`ServerFrame::Progress`], then exactly one
    /// [`ServerFrame::Report`].
    Submit {
        /// Correlation id, echoed on every frame about this request.
        id: u64,
        /// The request, verbatim `pte_verify::api` data.
        request: VerificationRequest,
        /// `Some(true)` bypasses **both** cache tiers: the lookup is
        /// skipped (the search always runs) and the resulting report
        /// and artifact are not stored. Elided/`null`/`Some(false)`
        /// mean normal caching, so pre-existing clients are
        /// unaffected.
        no_cache: Option<bool>,
    },
    /// Cooperatively cancel an in-flight request. The search stops
    /// within one BFS round and its [`ServerFrame::Report`] carries
    /// `Inconclusive(Cancelled)` — never `Safe`. Unknown or
    /// already-completed ids are ignored.
    Cancel {
        /// The id given at submit time.
        id: u64,
    },
    /// Ask for the scenario registry ([`ServerFrame::Scenarios`]).
    ListScenarios,
    /// Ask for scheduler/cache statistics ([`ServerFrame::Stats`]).
    Stats,
    /// Ask the daemon to shut down gracefully: it stops accepting,
    /// fires every in-flight request's [`pte_verify::CancelToken`],
    /// waits for the cancelled reports to flush, and exits.
    Shutdown,
}

/// Daemon → client frames.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ServerFrame {
    /// First frame on every connection: protocol revision and the
    /// daemon's global worker budget.
    Hello {
        /// [`PROTOCOL_VERSION`] of the daemon.
        protocol: u32,
        /// Total worker slots shared by all clients.
        worker_budget: usize,
    },
    /// A [`ClientFrame::Submit`] was accepted and keyed.
    Accepted {
        /// The submit id.
        id: u64,
        /// [`VerificationRequest::cache_key`] of the request.
        key: String,
        /// `true` when the report is served from cache (the
        /// [`ServerFrame::Report`] follows immediately, no search
        /// runs).
        cached: bool,
    },
    /// Round-boundary progress snapshot of an in-flight request
    /// (throttled; the final state arrives in the report itself).
    Progress {
        /// The submit id.
        id: u64,
        /// Which backend produced the snapshot (`"symbolic"` or
        /// `"compositional"` — the backends that run zone searches).
        backend: String,
        /// BFS round / reporting tick.
        round: usize,
        /// Settled states (zone engine) or completed runs.
        settled: usize,
        /// Frontier states / runs still queued.
        frontier: usize,
        /// Wall time since the search started, milliseconds.
        elapsed_ms: f64,
    },
    /// Terminal frame of a submitted request.
    Report {
        /// The submit id.
        id: u64,
        /// The request's cache key.
        key: String,
        /// `true` when served from cache — the report is byte-identical
        /// to the cold run that populated it (its timing fields are the
        /// cold run's; the daemon does not re-time cache hits).
        cached: bool,
        /// The unified report, verbatim.
        report: VerificationReport,
    },
    /// A frame-level failure: malformed JSON, unknown scenario, an
    /// invalid request. Carries the submit id when one was parsable,
    /// except for a `Submit` that reused an id still in flight: that
    /// error carries none, so it is not read as the running request's
    /// failure.
    Error {
        /// The offending submit id, if known.
        id: Option<u64>,
        /// Human-readable diagnostic (for unknown scenarios this is the
        /// registry's full "did you mean" listing).
        message: String,
    },
    /// The scenario registry, verbatim ([`ClientFrame::ListScenarios`]).
    Scenarios {
        /// Every registered scenario, configs and recommended budgets
        /// included.
        scenarios: Vec<Scenario>,
    },
    /// Scheduler and cache statistics ([`ClientFrame::Stats`]).
    Stats {
        /// The daemon-wide counters.
        stats: DaemonStats,
    },
    /// Acknowledges [`ClientFrame::Shutdown`]; the daemon exits once
    /// in-flight reports have flushed.
    ShuttingDown,
}

/// Daemon-wide counters, the observable face of the scheduler and the
/// report cache (this is what the acceptance tests assert the worker
/// budget against).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DaemonStats {
    /// Total worker slots shared by every client.
    pub worker_budget: usize,
    /// Worker slots held by running requests right now.
    pub workers_in_use: usize,
    /// High-water mark of `workers_in_use` since start — by
    /// construction never exceeds `worker_budget`.
    pub peak_workers_in_use: usize,
    /// Requests currently queued for worker slots.
    pub queued: usize,
    /// Requests admitted to workers since start.
    pub admitted: u64,
    /// Requests currently executing (admitted, report not yet sent).
    pub active: usize,
    /// Submit frames accepted since start (cache hits included).
    pub submitted: u64,
    /// Reports delivered since start (cache hits included).
    pub completed: u64,
    /// Requests that ended cancelled (client frame, disconnect, or
    /// daemon shutdown).
    pub cancelled: u64,
    /// Reports served straight from the in-memory cache.
    pub cache_hits: u64,
    /// Submits the memory tier could not answer.
    pub cache_misses: u64,
    /// Reports currently cached in memory.
    pub cache_entries: usize,
    /// Reports evicted (FIFO) from the memory tier since start.
    pub cache_evictions: u64,
    /// Serialized bytes held by the memory tier.
    pub cache_bytes: usize,
    /// Memory-tier entry bound (`0` = caching disabled).
    pub cache_capacity: usize,
    /// Memory-tier byte bound (`0` = unbounded).
    pub cache_max_bytes: usize,
    /// Warm starts whose parent artifact the memory artifact tier
    /// served, with no file read (this and the next four counters stay
    /// zero when the daemon runs without `--cache-dir`).
    pub artifact_cache_hits: u64,
    /// Warm-start lookups the memory artifact tier could not answer
    /// (the disk tier is asked next).
    pub artifact_cache_misses: u64,
    /// Artifacts currently held in memory.
    pub artifact_cache_entries: usize,
    /// Artifacts evicted (oldest first) from the memory tier since start.
    pub artifact_cache_evictions: u64,
    /// Encoded bytes of the artifacts held in memory.
    pub artifact_cache_bytes: usize,
    /// The memory artifact tier's fixed byte budget.
    pub artifact_cache_max_bytes: usize,
    /// Reports served from the disk tier (all zero when the daemon
    /// runs without `--cache-dir`).
    pub disk_hits: u64,
    /// Disk-tier report lookups that missed.
    pub disk_misses: u64,
    /// Warm-start artifacts served from the disk tier.
    pub disk_artifact_hits: u64,
    /// Disk-tier artifact lookups that missed.
    pub disk_artifact_misses: u64,
    /// Corrupt / truncated / stale-version files discarded.
    pub disk_corrupt: u64,
    /// Files written to the disk tier (reports + artifacts). Exact: the
    /// daemon answers `Stats` once the files of every report sent
    /// before it are written.
    pub disk_stores: u64,
    /// Files evicted by the disk byte bound.
    pub disk_evictions: u64,
    /// Bytes currently in the disk tier.
    pub disk_bytes: u64,
    /// Files currently in the disk tier.
    pub disk_files: usize,
    /// Disk-tier byte bound (`0` = unbounded).
    pub disk_max_bytes: u64,
    /// Compositional refinement checks answered from the process-global
    /// verdict cache ([`pte_contracts::cache_stats`]) — all four
    /// refinement counters, and the four pair counters below, are zero
    /// until a `--backend compositional` request runs.
    pub refine_cache_hits: u64,
    /// Compositional refinement checks that had to explore.
    pub refine_cache_misses: u64,
    /// Refinement verdicts currently cached in-process.
    pub refine_cache_entries: usize,
    /// Refinement obligations skipped because a structurally identical
    /// device was already checked in the same run.
    pub contracts_deduped: u64,
    /// Compositional pair searches answered by transferring a stored
    /// pair proof (same store, [`pte_contracts::cache_stats`]).
    pub pair_cache_hits: u64,
    /// Compositional pair searches that found no admissible stored proof
    /// and ran cold.
    pub pair_cache_misses: u64,
    /// Pair proofs currently stored in-process.
    pub pair_cache_entries: usize,
    /// Bytes of the stored pair proofs, encoded.
    pub pair_cache_bytes: u64,
    /// Daemon uptime, milliseconds.
    pub uptime_ms: f64,
}

/// Writes one frame as a JSON line (with trailing `\n`) and flushes —
/// a frame is only "sent" once the client can parse it.
pub fn write_frame<T: Serialize>(w: &mut impl Write, frame: &T) -> io::Result<()> {
    let json = serde_json::to_string(frame)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    w.write_all(json.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Reads one JSON line and parses it as a `T`. Returns `Ok(None)` on a
/// clean EOF, `Err` with [`io::ErrorKind::InvalidData`] on a parse
/// failure (the connection survives — line framing makes the next
/// frame independently parsable), and passes timeouts through
/// (`WouldBlock` / `TimedOut`) so pollers can distinguish "no frame
/// yet" from "connection gone".
pub fn read_frame<T: Deserialize>(r: &mut impl BufRead) -> io::Result<Option<T>> {
    let mut line = String::new();
    read_frame_buffered(r, &mut line)
}

/// The longest frame, in bytes before its newline, that either side
/// reads. Far above any request or report the protocol carries, and
/// small enough that a peer which never sends a newline cannot make the
/// reader allocate without bound.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// The error (kind [`io::ErrorKind::InvalidData`]) a reader returns for
/// a frame longer than [`MAX_FRAME_BYTES`]. Unlike a malformed frame it
/// leaves the stream mid-line with no way to find the next frame, so the
/// connection has to close.
#[derive(Debug)]
pub struct FrameTooLarge;

impl std::fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame exceeds {MAX_FRAME_BYTES} bytes")
    }
}

impl std::error::Error for FrameTooLarge {}

impl FrameTooLarge {
    /// `true` when `e` is a [`FrameTooLarge`] error.
    pub fn is(e: &io::Error) -> bool {
        e.get_ref().is_some_and(|inner| inner.is::<FrameTooLarge>())
    }
}

/// [`read_frame`] with a caller-owned line buffer, for readers that
/// poll with a read timeout: `read_line` appends whatever bytes
/// arrived before the timeout to `line` and *keeps* them there across
/// the `WouldBlock`/`TimedOut` error, so a frame split across poll
/// intervals reassembles instead of being truncated. Pass the same
/// buffer on every call; it is drained only when a full line parses
/// (or fails to). The buffer never grows past [`MAX_FRAME_BYTES`] plus
/// the newline: a longer frame fails with [`FrameTooLarge`].
pub fn read_frame_buffered<T: Deserialize>(
    r: &mut impl BufRead,
    line: &mut String,
) -> io::Result<Option<T>> {
    // Room for the rest of a maximal frame and its newline: a line that
    // fills it without ending is oversize.
    let room = (MAX_FRAME_BYTES + 1).saturating_sub(line.len());
    match r.take(room as u64).read_line(line) {
        Ok(_) if line.len() > MAX_FRAME_BYTES && !line.ends_with('\n') => {
            Err(io::Error::new(io::ErrorKind::InvalidData, FrameTooLarge))
        }
        Ok(0) if line.trim().is_empty() => Ok(None),
        Ok(_) => {
            let frame = {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    // Tolerate blank keep-alive lines.
                    Err(io::Error::new(io::ErrorKind::WouldBlock, "blank line"))
                } else {
                    serde_json::from_str::<T>(trimmed)
                        .map(Some)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
                }
            };
            line.clear();
            frame
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pte_verify::api::BackendSel;

    #[test]
    fn frames_round_trip_through_json_lines() {
        let frames = vec![
            ClientFrame::Submit {
                id: 7,
                request: VerificationRequest::scenario("case-study").backend(BackendSel::Symbolic),
                no_cache: None,
            },
            ClientFrame::Submit {
                id: 8,
                request: VerificationRequest::scenario("chain-3").warm_from("00d14e3326706fa9"),
                no_cache: Some(true),
            },
            ClientFrame::Cancel { id: 7 },
            ClientFrame::ListScenarios,
            ClientFrame::Stats,
            ClientFrame::Shutdown,
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut r = io::BufReader::new(&wire[..]);
        for f in &frames {
            let back: ClientFrame = read_frame(&mut r).unwrap().unwrap();
            assert_eq!(&back, f);
        }
        assert!(read_frame::<ClientFrame>(&mut r).unwrap().is_none());
    }

    #[test]
    fn server_frames_round_trip() {
        let frames = vec![
            ServerFrame::Hello {
                protocol: PROTOCOL_VERSION,
                worker_budget: 3,
            },
            ServerFrame::Accepted {
                id: 1,
                key: "00d14e3326706fa9".into(),
                cached: false,
            },
            ServerFrame::Progress {
                id: 1,
                backend: "symbolic".into(),
                round: 4,
                settled: 100,
                frontier: 20,
                elapsed_ms: 1.25,
            },
            ServerFrame::Error {
                id: Some(2),
                message: "unknown scenario `chain4`; did you mean `chain-4`?".into(),
            },
            ServerFrame::Scenarios {
                scenarios: pte_tracheotomy::registry::registry(),
            },
            ServerFrame::Stats {
                stats: DaemonStats {
                    worker_budget: 3,
                    peak_workers_in_use: 3,
                    refine_cache_hits: 5,
                    refine_cache_misses: 2,
                    refine_cache_entries: 2,
                    contracts_deduped: 9,
                    pair_cache_hits: 11,
                    pair_cache_misses: 11,
                    pair_cache_entries: 11,
                    pair_cache_bytes: 1 << 20,
                    artifact_cache_hits: 4,
                    artifact_cache_entries: 2,
                    artifact_cache_max_bytes: crate::cache::ARTIFACT_MEM_BYTES,
                    ..DaemonStats::default()
                },
            },
            ServerFrame::ShuttingDown,
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut r = io::BufReader::new(&wire[..]);
        for f in &frames {
            let back: ServerFrame = read_frame(&mut r).unwrap().unwrap();
            assert_eq!(&back, f);
        }
    }

    #[test]
    fn oversize_frames_fail_without_buffering_past_the_cap() {
        // A maximal frame (padding included) still parses.
        let mut wire = b"\"Stats\"".to_vec();
        wire.resize(MAX_FRAME_BYTES, b' ');
        wire.push(b'\n');
        let ok: ClientFrame = read_frame(&mut io::BufReader::new(&wire[..]))
            .unwrap()
            .unwrap();
        assert_eq!(ok, ClientFrame::Stats);

        // One byte more, and a peer that never sends a newline: the
        // reader stops at the cap instead of buffering the stream.
        let mut wire = b"\"Stats\"".to_vec();
        wire.resize(MAX_FRAME_BYTES + 1, b' ');
        wire.push(b'\n');
        let endless = io::repeat(b'x').take(64 * MAX_FRAME_BYTES as u64);
        for stream in [&mut &wire[..] as &mut dyn io::Read, &mut { endless }] {
            let mut r = io::BufReader::new(stream);
            let mut line = String::new();
            let err = read_frame_buffered::<ClientFrame>(&mut r, &mut line).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(FrameTooLarge::is(&err), "{err}");
            assert_eq!(line.len(), MAX_FRAME_BYTES + 1);
        }

        // A malformed frame is not an oversize one.
        let err = read_frame::<ClientFrame>(&mut &b"{\n"[..]).unwrap_err();
        assert!(!FrameTooLarge::is(&err));
    }

    #[test]
    fn malformed_lines_fail_without_poisoning_the_stream() {
        let wire = b"{\"garbage\n\"Stats\"\n";
        let mut r = io::BufReader::new(&wire[..]);
        let err = read_frame::<ClientFrame>(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let ok: ClientFrame = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(ok, ClientFrame::Stats);
    }
}
