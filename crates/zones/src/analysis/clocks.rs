//! Redundant-clock detection: unread clocks and duplicate clocks, the
//! two rules of Reveaal's clock-reduction pass.
//!
//! Two sound rules, both evaluated over the *live* structure only
//! (reads in unreachable locations or on dead edges do not count — see
//! [`NetReachability`]):
//!
//! * **Unused**: a clock no reachable guard or invariant reads could be
//!   dropped outright; its resets are no-ops on observable behaviour.
//! * **Duplicate**: two clocks reset by exactly the same live edges to
//!   the same values (and both starting at 0) hold the same value in
//!   every reachable configuration, forever — one DBM dimension would
//!   suffice for the whole equivalence class. In particular, clocks
//!   that are never reset are all equal to global time.
//!
//! Nothing is remapped: the engine searches the network as lowered, and
//! the findings surface as lint diagnostics. No registry model and no
//! compositional pair network has a redundant clock.

use super::reachable::NetReachability;
use crate::ta::TaNetwork;

/// The redundant clocks of one network, as 1-based clock indices.
#[derive(Clone, Debug)]
pub struct ClockReduction {
    /// Clocks that are read and the lowest-indexed of their
    /// equivalence class.
    pub kept: Vec<usize>,
    /// Clocks never read.
    pub dropped: Vec<usize>,
    /// `(duplicate, representative)` pairs of always-equal read clocks.
    pub merged: Vec<(usize, usize)>,
}

impl ClockReduction {
    /// Finds the redundant clocks of `net` under `reach`.
    pub fn compute(net: &TaNetwork, reach: &NetReachability) -> ClockReduction {
        let n = net.clock_count();
        // Read sites over live structure.
        let mut read = vec![false; n + 1];
        for (ai, aut) in net.automata.iter().enumerate() {
            for (li, loc) in aut.locations.iter().enumerate() {
                if reach.reachable[ai][li] {
                    for a in &loc.invariant {
                        read[a.clock] = true;
                    }
                }
            }
            for (_, e) in reach.live_edges(net, ai) {
                for a in &e.guard {
                    read[a.clock] = true;
                }
            }
        }

        // Reset signature per clock: the sorted list of live reset
        // sites `(automaton, edge, value)`. Clocks with identical
        // signatures are reset together to equal values and never
        // diverge (all clocks start at 0).
        let mut sig: Vec<Vec<(usize, usize, i64)>> = vec![Vec::new(); n + 1];
        for (ai, _) in net.automata.iter().enumerate() {
            for (eid, e) in reach.live_edges(net, ai) {
                for &(c, v) in &e.resets {
                    sig[c].push((ai, eid, v));
                }
            }
        }
        for s in &mut sig {
            s.sort_unstable();
        }

        let mut kept = Vec::new();
        let mut dropped = Vec::new();
        let mut merged = Vec::new();
        for c in 1..=n {
            if !read[c] {
                dropped.push(c);
                continue;
            }
            // Lowest-indexed read clock with the same signature is the
            // representative of c's class.
            match (1..c).find(|&r| read[r] && sig[r] == sig[c]) {
                Some(rep) => merged.push((c, rep)),
                None => kept.push(c),
            }
        }

        ClockReduction {
            kept,
            dropped,
            merged,
        }
    }

    /// `true` when no clock is redundant (every clock kept, none
    /// merged).
    pub fn is_identity(&self) -> bool {
        self.dropped.is_empty() && self.merged.is_empty()
    }
}
