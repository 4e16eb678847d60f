//! `pte-verifyd` — the verification daemon.
//!
//! ```text
//! pte-verifyd [--socket PATH] [--tcp ADDR] [--workers N] [--cache N]
//!             [--cache-dir PATH] [--cache-bytes N] [--cache-mem-bytes N]
//!
//!   --socket PATH        Unix-domain socket to listen on
//!                        (default: /tmp/pte-verifyd.sock; ignored if --tcp given)
//!   --tcp ADDR           listen on TCP host:port instead (port 0 = OS-assigned,
//!                        printed at startup)
//!   --workers N          global worker budget shared by all clients
//!                        (default 0 = available_parallelism - 1)
//!   --cache N            report-cache capacity in entries (default 64; 0 disables)
//!   --cache-dir PATH     persistent cache directory: conclusive reports and
//!                        passed-list artifacts survive restarts (written after
//!                        each reply; recent artifacts are also kept in memory),
//!                        and requests with a parent key warm-start from its
//!                        artifact (default: memory-only, no warm starts)
//!   --cache-bytes N      disk-tier byte bound, evicted oldest-first
//!                        (default 0 = unbounded)
//!   --cache-mem-bytes N  in-memory report-tier byte bound (default 0 = unbounded)
//! ```
//!
//! SIGTERM / SIGINT (and the `Shutdown` protocol frame) trigger a
//! graceful drain: in-flight searches are cancelled within one BFS
//! round, their `Inconclusive(Cancelled)` reports are still delivered,
//! and the socket file is removed. Exit status 0 on a clean drain, 2
//! on a usage error, 1 on a bind failure.

use pte_server::daemon::{Daemon, DaemonConfig};
use pte_server::signal;
use pte_server::transport::Endpoint;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: pte-verifyd [--socket PATH] [--tcp ADDR] [--workers N] [--cache N]\n\
         \x20                  [--cache-dir PATH] [--cache-bytes N] [--cache-mem-bytes N]\n\
         see `cargo doc -p pte-server` for the protocol"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut socket = PathBuf::from("/tmp/pte-verifyd.sock");
    let mut tcp: Option<String> = None;
    let mut workers = 0usize;
    let mut cache = 64usize;
    let mut cache_dir: Option<PathBuf> = None;
    let mut cache_bytes = 0u64;
    let mut cache_mem_bytes = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().unwrap_or_else(|| usage_missing(flag));
        match arg.as_str() {
            "--socket" => socket = PathBuf::from(value("--socket")),
            "--tcp" => tcp = Some(value("--tcp")),
            "--workers" => workers = parse_num(&value("--workers"), "--workers"),
            "--cache" => cache = parse_num(&value("--cache"), "--cache"),
            "--cache-dir" => cache_dir = Some(PathBuf::from(value("--cache-dir"))),
            "--cache-bytes" => {
                cache_bytes = parse_num(&value("--cache-bytes"), "--cache-bytes") as u64
            }
            "--cache-mem-bytes" => {
                cache_mem_bytes = parse_num(&value("--cache-mem-bytes"), "--cache-mem-bytes")
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }
    let endpoint = match tcp {
        Some(addr) => Endpoint::Tcp(addr),
        None => Endpoint::Unix(socket),
    };
    let config = DaemonConfig {
        endpoint: endpoint.clone(),
        workers,
        cache_capacity: cache,
        cache_mem_bytes,
        cache_dir: cache_dir.clone(),
        cache_disk_bytes: cache_bytes,
    };
    let daemon = match Daemon::bind(&config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("pte-verifyd: cannot bind {endpoint}: {e}");
            return ExitCode::FAILURE;
        }
    };
    signal::install();
    let disk = match &cache_dir {
        Some(dir) => format!(", cache-dir = {}", dir.display()),
        None => String::new(),
    };
    if let Some(addr) = daemon.tcp_addr() {
        eprintln!(
            "pte-verifyd: listening on tcp:{addr} (workers = {}, cache = {cache}{disk})",
            config.resolved_workers()
        );
    } else {
        eprintln!(
            "pte-verifyd: listening on {endpoint} (workers = {}, cache = {cache}{disk})",
            config.resolved_workers()
        );
    }
    match daemon.run() {
        Ok(()) => {
            eprintln!("pte-verifyd: drained, exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pte-verifyd: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage_missing(flag: &str) -> ! {
    eprintln!("{flag} needs a value");
    usage();
}

fn parse_num(s: &str, flag: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs an unsigned integer, got `{s}`");
        usage();
    })
}
