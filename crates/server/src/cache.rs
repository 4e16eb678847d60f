//! The two-tier report cache: canonical request key → completed
//! [`VerificationReport`], with an optional persistent disk tier that
//! also stores passed-list artifacts for warm starts.
//!
//! Keys come from
//! [`VerificationRequest::cache_key`](pte_verify::api::VerificationRequest::cache_key),
//! which hashes the *semantics* of a request —
//! resolved configuration, arm, query, backend selection, normalized
//! budget, warm-start parentage — so a scenario-by-name submit and the
//! equivalent inline config submit share an entry, and wire-level
//! field order cannot split the cache.
//!
//! Soundness rule: **only conclusive reports are cached.** A
//! `Safe`/`Unsafe` verdict means the search ran to completion, so
//! replaying it for an identical request is exact. An inconclusive
//! report (cancelled, budget-tripped, backend error) is circumstantial
//! — a retry might conclude — so it is never stored, and in particular
//! a cancelled search can never poison the cache.
//!
//! A cache hit returns the stored report verbatim: byte-identical to
//! the cold run that produced it, *including* its timing fields (the
//! daemon does not re-time hits; clients that diff reports should
//! ignore `wall_ms`, which is exactly what the integration tests do).
//!
//! ## Tiers
//!
//! * [`ReportCache`] — in-memory, FIFO, bounded in **entries and
//!   bytes** (serialized-report size).
//! * [`ArtifactCache`] — in-memory, FIFO, the decoded passed-list
//!   artifacts of recent `Safe` runs, bounded by the fixed byte budget
//!   [`ARTIFACT_MEM_BYTES`] (encoded length). The daemon keeps it only
//!   beside a disk tier, whose artifacts it fronts: a warm start looks
//!   here first and reads the file only on a miss.
//! * [`DiskCache`] — a directory of self-validating files that
//!   survives daemon restarts: `<key>.report.json` (a one-line
//!   checksummed header followed by the raw report JSON) and
//!   `<key>.artifact.bin` (a [`PassedArtifact`] in its own versioned,
//!   checksummed wire format). Every write goes to a temp file in the
//!   same directory and is published with an atomic `rename`, so
//!   concurrent writers and a daemon killed mid-write can never leave
//!   a torn entry — only a complete old file or a complete new one.
//!   Corrupt, truncated, or stale-version files are **deleted and
//!   treated as misses**; the tier is size-bounded in bytes with
//!   oldest-file-first eviction. The daemon writes both files behind
//!   its reply (see [`crate::daemon`]).

use parking_lot::Mutex;
use pte_verify::api::VerificationReport;
use pte_zones::PassedArtifact;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

/// Memory-tier counters, of either tier (feed
/// [`crate::protocol::DaemonStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a value.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Values currently stored.
    pub entries: usize,
    /// Values evicted (FIFO) since construction.
    pub evictions: u64,
    /// Bytes charged to the stored values: serialized size of a report,
    /// encoded length of an artifact.
    pub bytes: usize,
    /// The entry bound (`0` = caching disabled).
    pub capacity: usize,
    /// The byte bound (`0` = unbounded).
    pub max_bytes: usize,
}

/// A string-keyed map bounded in entries and in bytes, evicting in
/// insertion order. Both memory tiers are one of these; each value
/// carries the size it is charged.
struct Fifo<V> {
    map: HashMap<String, (V, usize)>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<String>,
    capacity: usize,
    /// Byte bound over the charged sizes (`0` = unbounded).
    max_bytes: usize,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<V: Clone> Fifo<V> {
    fn new(capacity: usize, max_bytes: usize) -> Fifo<V> {
        Fifo {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            max_bytes,
            bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks `key` up, counting the hit or miss.
    fn get(&mut self, key: &str) -> Option<V> {
        match self.map.get(key) {
            Some((v, _)) => {
                let v = v.clone();
                self.hits += 1;
                Some(v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores `value` charged `size` bytes; a key already present keeps
    /// its place in the eviction order. A value larger than the whole
    /// byte bound is not stored and evicts nothing. Returns the values
    /// it replaced or evicted, so that the caller frees them outside
    /// the lock.
    fn insert(&mut self, key: &str, value: V, size: usize) -> Vec<V> {
        if self.capacity == 0 || (self.max_bytes != 0 && size > self.max_bytes) {
            return Vec::new();
        }
        let mut dropped = Vec::new();
        if let Some((old, old_size)) = self.map.insert(key.to_string(), (value, size)) {
            self.bytes -= old_size;
            dropped.push(old);
        } else {
            self.order.push_back(key.to_string());
        }
        self.bytes += size;
        // Oldest first, until both bounds hold.
        while self.order.len() > self.capacity
            || (self.max_bytes != 0 && self.bytes > self.max_bytes)
        {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            if let Some((v, size)) = self.map.remove(&old) {
                self.bytes -= size;
                self.evictions += 1;
                dropped.push(v);
            }
        }
        dropped
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.map.len(),
            evictions: self.evictions,
            bytes: self.bytes,
            capacity: self.capacity,
            max_bytes: self.max_bytes,
        }
    }
}

/// The bounded in-memory report cache. Clone-free: the daemon holds
/// one behind an `Arc`.
pub struct ReportCache {
    inner: Mutex<Fifo<VerificationReport>>,
}

impl ReportCache {
    /// A cache holding at most `capacity` reports (0 disables caching
    /// — every lookup misses, nothing is stored), unbounded in bytes.
    pub fn new(capacity: usize) -> ReportCache {
        ReportCache::bounded(capacity, 0)
    }

    /// [`ReportCache::new`] with an additional byte bound over the
    /// serialized report sizes (`0` = unbounded). Whichever bound
    /// trips first evicts oldest-first.
    pub fn bounded(capacity: usize, max_bytes: usize) -> ReportCache {
        ReportCache {
            inner: Mutex::new(Fifo::new(capacity, max_bytes)),
        }
    }

    /// Looks `key` up, counting the hit or miss.
    pub fn get(&self, key: &str) -> Option<VerificationReport> {
        self.inner.lock().get(key)
    }

    /// Stores `report` under `key` if it is conclusive (and the cache
    /// has capacity); evicts oldest-first when either bound trips.
    /// Returns whether the report is stored on exit (a report larger
    /// than the whole byte bound is rejected).
    pub fn insert(&self, key: &str, report: &VerificationReport) -> bool {
        if !report.verdict.is_conclusive() {
            return false;
        }
        let size = serde_json::to_string(report).map(|j| j.len()).unwrap_or(0);
        let mut inner = self.inner.lock();
        inner.insert(key, report.clone(), size);
        inner.map.contains_key(key)
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats()
    }
}

/// Encoded bytes of passed-list artifacts the daemon keeps in memory
/// ([`ArtifactCache`]): the chain-6 proof (2.7 MB), or the last five
/// chain-4 proofs (0.58 MB each), or more of the smaller ones. Two
/// clients alternating proofs and warm edits need the last three. A
/// decoded artifact takes 1.6–2.1× its encoded length (chain-6 to
/// case-study), and the heap around it more: on a 2-vCPU host, a
/// daemon serving edit sessions of chain-4 and smaller models on two
/// connections peaked 17–20 MB higher with this tier than without it,
/// after 20 s and after 40 s alike.
pub const ARTIFACT_MEM_BYTES: usize = 3 << 20;

/// The memory tier of passed-list artifacts: cache key → the decoded
/// proof a `Safe` run captured, shared by `Arc`, so a warm start that
/// follows its parent's reply neither reads nor decodes a file. Each
/// artifact is charged its encoded length
/// ([`PassedArtifact::encoded_len`]); the tier evicts oldest-first
/// beyond a fixed byte budget. It fronts the disk tier, which stays the
/// artifacts' durable home.
pub struct ArtifactCache {
    inner: Mutex<Fifo<Arc<PassedArtifact>>>,
}

impl ArtifactCache {
    /// An empty tier holding at most `max_bytes` of encoded artifacts
    /// (the daemon passes [`ARTIFACT_MEM_BYTES`]).
    pub fn new(max_bytes: usize) -> ArtifactCache {
        ArtifactCache {
            inner: Mutex::new(Fifo::new(usize::MAX, max_bytes)),
        }
    }

    /// Looks `key` up, counting the hit or miss.
    pub fn get(&self, key: &str) -> Option<Arc<PassedArtifact>> {
        self.inner.lock().get(key)
    }

    /// Stores `artifact` under `key`, evicting oldest-first past the
    /// byte budget (an artifact larger than the whole budget is not
    /// stored). Returns the artifacts it evicted or replaced: freeing a
    /// proof is thousands of deallocations, so the caller decides when
    /// they happen, e.g. after its reply.
    #[must_use = "dropping the evicted artifacts here frees them here"]
    pub fn insert(&self, key: &str, artifact: Arc<PassedArtifact>) -> Vec<Arc<PassedArtifact>> {
        let size = artifact.encoded_len();
        self.inner.lock().insert(key, artifact, size)
    }

    /// Replaces `artifact`, if the tier still holds it under `key`, by
    /// a copy allocated on the calling thread. The daemon calls this
    /// from one long-lived thread: a proof captured on a short-lived
    /// job thread sits in that thread's allocator arena among the
    /// search's freed memory, and kept there it pins that heap; copied,
    /// every stored proof sits in one arena, its entries contiguous.
    pub fn compact(&self, key: &str, artifact: &Arc<PassedArtifact>) {
        let held = |inner: &Fifo<Arc<PassedArtifact>>| {
            (inner.map.get(key)).is_some_and(|(v, _)| Arc::ptr_eq(v, artifact))
        };
        if !held(&self.inner.lock()) {
            return;
        }
        let copy = Arc::new(PassedArtifact::clone(artifact));
        let mut inner = self.inner.lock();
        if held(&inner) {
            let stored = inner.map.get_mut(key).expect("held");
            let original = std::mem::replace(&mut stored.0, copy);
            drop(inner);
            drop(original);
        }
    }

    /// Current counters (`capacity` is unbounded: the budget is bytes).
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats()
    }
}

/// Version tag of the on-disk report envelope. Bumped when the header
/// or body framing changes; files with any other version are deleted
/// and treated as misses (never reinterpreted).
pub const DISK_FORMAT_VERSION: u32 = 1;

/// FNV-1a/64 over the raw report JSON — the disk tier's integrity
/// check (same dependency-free hash the cache keys use; corruption
/// detection, not authentication).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The one-line JSON header preceding the report body in a
/// `<key>.report.json` file.
#[derive(Serialize, Deserialize)]
struct DiskHeader {
    v: u32,
    crc: String,
}

/// Disk-tier counters (feed [`crate::protocol::DaemonStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Report lookups served from disk.
    pub hits: u64,
    /// Report lookups that missed (absent file included).
    pub misses: u64,
    /// Artifact lookups served from disk.
    pub artifact_hits: u64,
    /// Artifact lookups that missed.
    pub artifact_misses: u64,
    /// Corrupt, truncated, or stale-version files discarded (each also
    /// counts as a miss).
    pub corrupt: u64,
    /// Files written (reports + artifacts).
    pub stores: u64,
    /// Files evicted by the byte bound.
    pub evictions: u64,
    /// Bytes currently on disk (reports + artifacts).
    pub bytes: u64,
    /// Files currently on disk.
    pub files: usize,
    /// The byte bound (`0` = unbounded).
    pub max_bytes: u64,
}

#[derive(Default)]
struct DiskCounters {
    hits: u64,
    misses: u64,
    artifact_hits: u64,
    artifact_misses: u64,
    corrupt: u64,
    stores: u64,
    evictions: u64,
}

/// The persistent tier: a directory of atomically-published,
/// self-validating report and artifact files (see the module docs for
/// the format and the corruption/staleness rules). Safe for concurrent
/// use from many threads — and many *processes*: writes are
/// temp-file + `rename`, reads validate checksums, so the worst a race
/// can produce is serving the older of two complete files.
pub struct DiskCache {
    dir: PathBuf,
    /// Byte bound over the directory (`0` = unbounded).
    max_bytes: u64,
    counters: Mutex<DiskCounters>,
    /// Distinguishes concurrent writers' temp files within one process
    /// (the pid distinguishes processes).
    tmp_seq: AtomicU64,
}

impl DiskCache {
    /// Opens (creating if needed) a disk cache rooted at `dir`,
    /// byte-bounded by `max_bytes` (`0` = unbounded). Leftover temp
    /// files from a previous crash are swept.
    pub fn open(dir: impl Into<PathBuf>, max_bytes: u64) -> io::Result<DiskCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let cache = DiskCache {
            dir,
            max_bytes,
            counters: Mutex::new(DiskCounters::default()),
            tmp_seq: AtomicU64::new(0),
        };
        for (path, _, _) in cache.scan() {
            if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(".tmp-"))
            {
                let _ = fs::remove_file(path);
            }
        }
        Ok(cache)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Keys are 16 lowercase hex digits
    /// ([`VerificationRequest::cache_key`](pte_verify::api::VerificationRequest::cache_key)).
    /// Anything else — in particular a client-supplied `parent_key`
    /// trying to traverse paths — resolves to no file.
    fn key_path(&self, key: &str, suffix: &str) -> Option<PathBuf> {
        let valid = key.len() == 16
            && key
                .bytes()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
        valid.then(|| self.dir.join(format!("{key}{suffix}")))
    }

    /// Looks a report up. Corrupt/stale/truncated files are deleted
    /// and counted, then reported as a miss.
    pub fn get_report(&self, key: &str) -> Option<VerificationReport> {
        let report = self
            .key_path(key, ".report.json")
            .and_then(|p| self.read_report(&p));
        let mut c = self.counters.lock();
        match report {
            Some(r) => {
                c.hits += 1;
                Some(r)
            }
            None => {
                c.misses += 1;
                None
            }
        }
    }

    fn read_report(&self, path: &Path) -> Option<VerificationReport> {
        // A missing file is a plain miss; anything unreadable past
        // that point — including invalid UTF-8 — is corruption.
        let raw = fs::read(path).ok()?;
        let parsed = (|| {
            let raw = std::str::from_utf8(&raw).ok()?;
            let (header, body) = raw.split_once('\n')?;
            let header: DiskHeader = serde_json::from_str(header).ok()?;
            if header.v != DISK_FORMAT_VERSION {
                return None;
            }
            if header.crc != format!("{:016x}", fnv1a64(body.as_bytes())) {
                return None;
            }
            serde_json::from_str::<VerificationReport>(body).ok()
        })();
        if parsed.is_none() {
            // The file exists but does not validate: delete it so it
            // cannot poison every future lookup, and count it.
            let _ = fs::remove_file(path);
            self.counters.lock().corrupt += 1;
        }
        parsed
    }

    /// Persists a conclusive report under `key` (inconclusive reports
    /// are never stored — same soundness rule as the memory tier).
    /// Returns whether a file was published.
    pub fn put_report(&self, key: &str, report: &VerificationReport) -> bool {
        if !report.verdict.is_conclusive() {
            return false;
        }
        let Some(path) = self.key_path(key, ".report.json") else {
            return false;
        };
        let Ok(body) = serde_json::to_string(report) else {
            return false;
        };
        let header = serde_json::to_string(&DiskHeader {
            v: DISK_FORMAT_VERSION,
            crc: format!("{:016x}", fnv1a64(body.as_bytes())),
        })
        .expect("header serializes");
        let mut bytes = Vec::with_capacity(header.len() + 1 + body.len());
        bytes.extend_from_slice(header.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(body.as_bytes());
        self.publish(&path, &bytes)
    }

    /// Looks a passed-list artifact up. The artifact format carries
    /// its own magic, version, and checksum
    /// ([`PassedArtifact::from_bytes`]); any decode failure deletes
    /// the file and reports a miss.
    pub fn get_artifact(&self, key: &str) -> Option<PassedArtifact> {
        let artifact = self.key_path(key, ".artifact.bin").and_then(|p| {
            let bytes = fs::read(&p).ok()?;
            match PassedArtifact::from_bytes(&bytes) {
                Ok(a) => Some(a),
                Err(_) => {
                    let _ = fs::remove_file(&p);
                    self.counters.lock().corrupt += 1;
                    None
                }
            }
        });
        let mut c = self.counters.lock();
        match artifact {
            Some(a) => {
                c.artifact_hits += 1;
                Some(a)
            }
            None => {
                c.artifact_misses += 1;
                None
            }
        }
    }

    /// Persists a passed-list artifact under `key`.
    pub fn put_artifact(&self, key: &str, artifact: &PassedArtifact) -> bool {
        let Some(path) = self.key_path(key, ".artifact.bin") else {
            return false;
        };
        self.publish(&path, &artifact.to_bytes())
    }

    /// Write-to-temp + atomic rename, then re-enforce the byte bound.
    fn publish(&self, path: &Path, bytes: &[u8]) -> bool {
        let file = path.file_name().and_then(|n| n.to_str()).unwrap_or("entry");
        let tmp = self.dir.join(format!(
            ".tmp-{file}-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let ok = fs::write(&tmp, bytes).is_ok() && fs::rename(&tmp, path).is_ok();
        if !ok {
            let _ = fs::remove_file(&tmp);
            return false;
        }
        self.counters.lock().stores += 1;
        self.evict_to_bound();
        true
    }

    /// Every cache file: `(path, len, mtime)`, temp files included
    /// (callers filter).
    fn scan(&self) -> Vec<(PathBuf, u64, SystemTime)> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        entries
            .flatten()
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                if !meta.is_file() {
                    return None;
                }
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                Some((e.path(), meta.len(), mtime))
            })
            .collect()
    }

    /// Deletes oldest-mtime-first until the directory fits the byte
    /// bound. A report and its artifact age together (written by the
    /// same job), so pairs leave the cache around the same time — but
    /// the bound is per-file, and a half-evicted pair is harmless: a
    /// missing artifact only means a cold start, a missing report only
    /// a re-run.
    fn evict_to_bound(&self) {
        if self.max_bytes == 0 {
            return;
        }
        let mut files: Vec<_> = self
            .scan()
            .into_iter()
            .filter(|(p, _, _)| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| !n.starts_with(".tmp-"))
            })
            .collect();
        let mut total: u64 = files.iter().map(|(_, len, _)| *len).sum();
        if total <= self.max_bytes {
            return;
        }
        files.sort_by_key(|(_, _, mtime)| *mtime);
        let mut evicted = 0u64;
        for (path, len, _) in files {
            if total <= self.max_bytes {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                total -= len;
                evicted += 1;
            }
        }
        self.counters.lock().evictions += evicted;
    }

    /// Current counters plus a directory scan for bytes/files.
    pub fn stats(&self) -> DiskStats {
        let files = self.scan();
        let c = self.counters.lock();
        DiskStats {
            hits: c.hits,
            misses: c.misses,
            artifact_hits: c.artifact_hits,
            artifact_misses: c.artifact_misses,
            corrupt: c.corrupt,
            stores: c.stores,
            evictions: c.evictions,
            bytes: files.iter().map(|(_, len, _)| *len).sum(),
            files: files.len(),
            max_bytes: self.max_bytes,
        }
    }
}

/// Zeroes every timing field of a report (top-level and per-backend
/// `wall_ms`), the comparison form for "cache hits equal cold runs
/// modulo timing". Everything else — verdicts, witnesses, state
/// counts, byte counts — must match exactly.
pub fn strip_timing(report: &VerificationReport) -> VerificationReport {
    let mut r = report.clone();
    r.wall_ms = 0.0;
    for b in &mut r.backends {
        b.wall_ms = 0.0;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use pte_verify::api::{Inconclusive, Verdict};

    fn report(verdict: Verdict, wall_ms: f64) -> VerificationReport {
        VerificationReport {
            scenario: Some("case-study".into()),
            leased: true,
            verdict,
            witness: None,
            winner: Some("symbolic".into()),
            tripped: None,
            backends: Vec::new(),
            analysis: None,
            compositional: None,
            wall_ms,
        }
    }

    #[test]
    fn hit_returns_the_stored_report_verbatim() {
        let c = ReportCache::new(4);
        let r = report(Verdict::Safe, 12.5);
        assert!(c.insert("k1", &r));
        assert_eq!(c.get("k1"), Some(r));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 0, 1));
    }

    #[test]
    fn inconclusive_reports_are_never_cached() {
        let c = ReportCache::new(4);
        for v in [
            Verdict::Inconclusive(Inconclusive::Cancelled),
            Verdict::Inconclusive(Inconclusive::Budget("max_states".into())),
            Verdict::Inconclusive(Inconclusive::Error("boom".into())),
        ] {
            assert!(!c.insert("k", &report(v, 1.0)));
        }
        assert_eq!(c.get("k"), None);
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn eviction_is_fifo_and_counted() {
        let c = ReportCache::new(2);
        c.insert("a", &report(Verdict::Safe, 1.0));
        c.insert("b", &report(Verdict::Unsafe, 2.0));
        c.insert("c", &report(Verdict::Safe, 3.0));
        assert_eq!(c.get("a"), None, "oldest entry must be evicted");
        assert!(c.get("b").is_some());
        assert!(c.get("c").is_some());
        let s = c.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn reinsert_updates_without_evicting() {
        let c = ReportCache::new(2);
        c.insert("a", &report(Verdict::Safe, 1.0));
        c.insert("b", &report(Verdict::Safe, 2.0));
        c.insert("a", &report(Verdict::Unsafe, 9.0));
        assert_eq!(c.get("a").unwrap().verdict, Verdict::Unsafe);
        assert!(c.get("b").is_some());
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = ReportCache::new(0);
        assert!(!c.insert("a", &report(Verdict::Safe, 1.0)));
        assert_eq!(c.get("a"), None);
    }

    #[test]
    fn memory_tier_is_byte_bounded() {
        let one = serde_json::to_string(&report(Verdict::Safe, 1.0))
            .unwrap()
            .len();
        // Room for two reports, not three.
        let c = ReportCache::bounded(16, 2 * one + one / 2);
        assert!(c.insert("a", &report(Verdict::Safe, 1.0)));
        assert!(c.insert("b", &report(Verdict::Safe, 2.0)));
        assert!(c.insert("c", &report(Verdict::Safe, 3.0)));
        assert_eq!(c.get("a"), None, "byte bound evicts oldest-first");
        assert!(c.get("b").is_some());
        assert!(c.get("c").is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= s.max_bytes, "{s:?}");
        assert_eq!(s.capacity, 16);

        // A single report larger than the whole bound is rejected.
        let tiny = ReportCache::bounded(16, 8);
        assert!(!tiny.insert("a", &report(Verdict::Safe, 1.0)));
        assert_eq!(tiny.stats().bytes, 0);
    }

    /// An entry-free artifact whose encoded length grows with `ticks`.
    fn artifact(ticks: usize) -> Arc<PassedArtifact> {
        Arc::new(PassedArtifact {
            nclocks: 2,
            extrapolation: pte_zones::Extrapolation::ExtraLu,
            reduce_clocks: true,
            net_digest: 7,
            atom_ticks: vec![1; ticks],
            masks_digest: 9,
            profile: pte_zones::WarmProfile {
                structure: 3,
                weaken_lower: Vec::new(),
                weaken_upper: Vec::new(),
            },
            entries: Vec::new(),
        })
    }

    #[test]
    fn artifact_tier_stays_within_its_budget_and_evicts_oldest_first() {
        let one = artifact(100).encoded_len();
        assert_eq!(one, artifact(100).to_bytes().len());
        // Room for three artifacts of this size, not four.
        let budget = 3 * one + one / 2;
        let tier = ArtifactCache::new(budget);
        let keys: Vec<String> = (0..10).map(|i| format!("{i:016x}")).collect();
        for (i, k) in keys.iter().enumerate() {
            let a = artifact(100);
            let evicted = tier.insert(k, Arc::clone(&a));
            assert_eq!(evicted.len(), usize::from(i >= 3), "insert {i}");
            let s = tier.stats();
            assert!(s.bytes <= budget, "{s:?}");
            assert_eq!(s.entries, (i + 1).min(3));
            // What is stored is the inserted proof itself, not a copy.
            assert!(Arc::ptr_eq(&tier.get(k).unwrap(), &a));
        }
        // Compaction swaps in an equal copy and leaves the accounting
        // alone; a proof the tier no longer holds is not copied.
        let stored = tier.get(&keys[9]).unwrap();
        tier.compact(&keys[9], &stored);
        let copy = tier.get(&keys[9]).unwrap();
        assert!(!Arc::ptr_eq(&copy, &stored) && *copy == *stored);
        tier.compact(&keys[9], &stored);
        assert!(Arc::ptr_eq(&tier.get(&keys[9]).unwrap(), &copy));
        assert_eq!((tier.stats().entries, tier.stats().bytes), (3, 3 * one));

        // The three newest survive, every older one was evicted in turn.
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(tier.get(k).is_some(), i >= 7, "key {i}");
        }
        let s = tier.stats();
        assert_eq!((s.evictions, s.bytes, s.max_bytes), (7, 3 * one, budget));

        // A larger artifact evicts as many of the oldest as it needs.
        let big = artifact(250);
        assert!(big.encoded_len() > 2 * one && big.encoded_len() < 3 * one);
        assert_eq!(tier.insert("aaaaaaaaaaaaaaaa", big).len(), 2);
        assert!(tier.get("aaaaaaaaaaaaaaaa").is_some());
        assert!(tier.get(&keys[7]).is_none() && tier.get(&keys[8]).is_none());
        assert!(tier.get(&keys[9]).is_some());
        assert!(tier.stats().bytes <= budget);

        // One artifact larger than the whole budget is not stored, and
        // it evicts nothing.
        let before = tier.stats();
        assert!(tier.insert("bbbbbbbbbbbbbbbb", artifact(1000)).is_empty());
        assert!(tier.get("bbbbbbbbbbbbbbbb").is_none());
        assert!(tier.get(&keys[9]).is_some());
        let after = tier.stats();
        assert_eq!(
            (after.entries, after.bytes, after.evictions),
            (before.entries, before.bytes, before.evictions)
        );
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pte-diskcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const KEY: &str = "00d14e3326706fa9";

    #[test]
    fn disk_reports_survive_reopen_and_corruption_is_a_miss() {
        let dir = tmpdir("reports");
        let r = report(Verdict::Safe, 12.5);
        {
            let disk = DiskCache::open(&dir, 0).unwrap();
            assert!(disk.put_report(KEY, &r));
            assert_eq!(disk.get_report(KEY), Some(r.clone()));
        }
        // A fresh handle (a restarted daemon) still serves it, verbatim.
        let disk = DiskCache::open(&dir, 0).unwrap();
        assert_eq!(disk.get_report(KEY), Some(r.clone()));

        // Flip one byte of the body: checksum miss, file deleted.
        let path = dir.join(format!("{KEY}.report.json"));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(disk.get_report(KEY), None);
        assert!(!path.exists(), "corrupt files are deleted, not retried");
        let s = disk.stats();
        assert_eq!((s.hits, s.misses, s.corrupt), (1, 1, 1));

        // A stale format version is likewise discarded.
        assert!(disk.put_report(KEY, &r));
        let raw = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, raw.replacen("{\"v\":1", "{\"v\":99", 1)).unwrap();
        assert_eq!(disk.get_report(KEY), None);
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_rejects_inconclusive_reports_and_bad_keys() {
        let dir = tmpdir("reject");
        let disk = DiskCache::open(&dir, 0).unwrap();
        assert!(!disk.put_report(
            KEY,
            &report(Verdict::Inconclusive(Inconclusive::Cancelled), 1.0)
        ));
        // Path traversal in a client-supplied key resolves to nothing.
        assert!(!disk.put_report("../escape0000000", &report(Verdict::Safe, 1.0)));
        assert_eq!(disk.get_report("../../etc/passwd"), None);
        assert_eq!(
            disk.get_artifact("ABCDEF0123456789"),
            None,
            "uppercase is not a key"
        );
        assert_eq!(disk.stats().files, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_eviction_is_byte_bounded_oldest_first() {
        let dir = tmpdir("evict");
        let r = report(Verdict::Safe, 1.0);
        let one = {
            let probe = DiskCache::open(&dir, 0).unwrap();
            probe.put_report(KEY, &r);
            let n = probe.stats().bytes;
            std::fs::remove_file(dir.join(format!("{KEY}.report.json"))).unwrap();
            n
        };
        let disk = DiskCache::open(&dir, 2 * one + one / 2).unwrap();
        let keys = ["1111111111111111", "2222222222222222", "3333333333333333"];
        for (i, k) in keys.iter().enumerate() {
            disk.put_report(k, &r);
            // mtime granularity can be coarse; order the files beyond
            // doubt without sleeping: backdate nothing, rely on write
            // order only when distinct. Re-publish to refresh newer
            // files if the fs clock ties.
            let _ = i;
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let s = disk.stats();
        assert!(s.bytes <= s.max_bytes, "{s:?}");
        assert_eq!(s.evictions, 1);
        assert_eq!(disk.get_report(keys[0]), None, "oldest file evicted");
        assert!(disk.get_report(keys[2]).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_writes_leave_no_temp_files() {
        let dir = tmpdir("tmpfiles");
        let disk = DiskCache::open(&dir, 0).unwrap();
        for k in ["4444444444444444", "5555555555555555"] {
            disk.put_report(k, &report(Verdict::Safe, 1.0));
        }
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        // A crashed writer's leftover temp file is swept on open.
        std::fs::write(dir.join(".tmp-stale-1-1"), b"half a report").unwrap();
        let _ = DiskCache::open(&dir, 0).unwrap();
        assert!(!dir.join(".tmp-stale-1-1").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn strip_timing_zeroes_only_wall_clocks() {
        let mut r = report(Verdict::Safe, 42.0);
        r.backends.push(pte_verify::api::BackendStats {
            backend: "symbolic".into(),
            wall_ms: 17.0,
            states: 123,
            ..Default::default()
        });
        let s = strip_timing(&r);
        assert_eq!(s.wall_ms, 0.0);
        assert_eq!(s.backends[0].wall_ms, 0.0);
        assert_eq!(s.backends[0].states, 123);
        assert_eq!(s.verdict, r.verdict);
    }
}
