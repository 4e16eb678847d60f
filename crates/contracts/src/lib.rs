//! # pte-contracts — compositional assume-guarantee verification
//!
//! The monolithic zone engine ([`pte_zones::check`]) explores the product
//! of *all* `N` devices and caps out around chain-8. This crate implements
//! the ECDAR-style alternative (Reveaal's `composition.rs` /
//! `statepair.rs` construction): verify each device once against a small
//! *contract automaton* describing its observable interface, then verify
//! the safety property on abstract networks where devices are replaced by
//! their contracts.
//!
//! Three layers:
//!
//! * [`contract`] — the [`contract::Contract`] type and the canonical
//!   library (`lease-client`, `lease-provider`, `supervisor-iface`,
//!   `top`), derived per device from a
//!   [`pte_core::pattern::config::LeaseConfig`];
//! * [`refine`](mod@refine) — the timed refinement checker deciding
//!   `Device ⊑ Contract` by state-pair zone exploration, deterministic at
//!   any worker count, with symbolic counter-examples;
//! * [`compose`] — the driver [`compose::check_compositional`]: `N`
//!   (deduplicated, cached) refinement checks plus `N−1` small abstract
//!   pair checks, each warm-started from its stored proof when that
//!   proof transfers; any gap in the argument falls back to the
//!   monolithic engine, so no spurious Safe is possible.

pub mod compose;
pub mod contract;
pub mod refine;
mod store;

pub use compose::{
    cache_stats, check_compositional, check_compositional_lowered, reset_cache,
    CompositionalLimits, CompositionalOutcome, CompositionalStats, CompositionalVerdict,
    ContractCacheStats, EnvProfile, PROFILE_NAMES,
};
pub use contract::{
    lease_client, lease_provider, localize, supervisor_iface, top_for, Contract, ContractKind,
    CONTRACT_NAMES,
};
pub use refine::{refine, RefineFailure, RefineLimits, RefineOutcome, RefineStats};
