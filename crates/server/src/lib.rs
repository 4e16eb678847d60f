//! # pte-server
//!
//! `pte-verifyd`: verification-as-a-service over the unified
//! [`pte_verify::api`].
//!
//! [`pte_verify::api`] is the repo's front door for in-process
//! verification — a
//! [`VerificationRequest`](pte_verify::api::VerificationRequest) with
//! cancellation and streamed progress. This crate
//! puts that front door on a socket: a persistent daemon that accepts
//! concurrent requests as JSON lines over a Unix-domain or TCP socket
//! and returns the same [`VerificationReport`](
//! pte_verify::api::VerificationReport) artifacts, with three things a
//! one-shot CLI cannot provide:
//!
//! * **a global worker budget** ([`scheduler`]) — an in-process `Auto`
//!   request sizes its zone search to the whole machine; N concurrent
//!   clients doing that oversubscribe the machine N-fold.
//!   The daemon admits every request through one shared FIFO
//!   semaphore, reserving
//!   [`worker_cost`](pte_verify::api::VerificationRequest::worker_cost)
//!   slots and running capped via
//!   [`run_with_artifacts`](pte_verify::api::VerificationRequest::run_with_artifacts),
//!   so the fleet-wide thread fan-out never exceeds the budget (the
//!   `peak_workers_in_use` stat proves it);
//! * **a report cache** ([`cache`]) — keyed by the canonical
//!   [`cache_key`](pte_verify::api::VerificationRequest::cache_key)
//!   digest, so re-verifying an unchanged scenario is a lookup, not a
//!   zone-graph exploration. Only conclusive reports are cached, and a
//!   hit is the stored report verbatim (identical to the cold run
//!   modulo its recorded timings). With a cache directory, reports and
//!   `Safe` runs' passed-list artifacts also persist across restarts,
//!   written after the reply, and a bounded memory tier of recent
//!   artifacts serves warm starts without a file read;
//! * **lifecycle discipline** ([`daemon`], [`signal`]) — streamed
//!   progress per request, `Cancel` frames, cancel-on-disconnect, and
//!   a graceful drain on SIGTERM / `Shutdown` that stops every
//!   in-flight search within one BFS round and still delivers each
//!   client its (`Inconclusive(Cancelled)`, never `Safe`) report.
//!
//! The wire protocol ([`protocol`]) is a typed frame pair serialized
//! as JSON lines; [`client`] is the thin synchronous driver the
//! `pte-verify-client` CLI and the integration tests use.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod daemon;
pub mod protocol;
pub mod scheduler;
pub mod signal;
pub mod transport;

pub use cache::{
    strip_timing, ArtifactCache, CacheStats, DiskCache, DiskStats, ReportCache, ARTIFACT_MEM_BYTES,
};
pub use client::{Client, SubmitOutcome};
pub use daemon::{Daemon, DaemonConfig, DaemonHandle};
pub use protocol::{ClientFrame, DaemonStats, ServerFrame, PROTOCOL_VERSION};
pub use scheduler::{WorkerBudget, WorkerPermit};
pub use transport::Endpoint;
