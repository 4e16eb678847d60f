//! Global clock reduction: unused-clock dropping and duplicate-clock
//! merging, in the style of Reveaal's clock-reduction pass.
//!
//! Two sound rules, both evaluated over the *live* structure only
//! (reads in unreachable locations or on dead edges do not count — see
//! [`NetReachability`]):
//!
//! * **Unused**: a clock no reachable guard or invariant reads can be
//!   dropped outright; its resets are no-ops on observable behaviour.
//! * **Duplicate**: two clocks reset by exactly the same live edges to
//!   the same values (and both starting at 0) hold the same value in
//!   every reachable configuration, forever — one DBM dimension
//!   suffices for the whole equivalence class. In particular, clocks
//!   that are never reset are all equal to global time and collapse to
//!   one.
//!
//! The result is a clock map for [`TaNetwork::apply_clock_map`].

use super::reachable::NetReachability;
use crate::ta::TaNetwork;

/// A computed clock reduction: which clocks survive and where they go.
#[derive(Clone, Debug)]
pub struct ClockReduction {
    /// Old 1-based clock index → new 1-based index (`None` = dropped).
    /// Entry 0 is the DBM reference and always maps to 0. Feed to
    /// [`TaNetwork::apply_clock_map`].
    pub map: Vec<Option<usize>>,
    /// `kept[r - 1]` — the old index whose name new clock `r` keeps
    /// (the lowest-indexed member of its equivalence class).
    pub kept: Vec<usize>,
    /// Old indices dropped as never-read.
    pub dropped: Vec<usize>,
    /// `(duplicate, representative)` old-index pairs merged.
    pub merged: Vec<(usize, usize)>,
}

impl ClockReduction {
    /// Computes the reduction for `net` under `reach`.
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

        let mut map: Vec<Option<usize>> = vec![None; n + 1];
        map[0] = Some(0);
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
                Some(rep) => {
                    merged.push((c, rep));
                    map[c] = map[rep];
                }
                None => {
                    kept.push(c);
                    map[c] = Some(kept.len());
                }
            }
        }

        ClockReduction {
            map,
            kept,
            dropped,
            merged,
        }
    }

    /// `true` when the reduction changes nothing (every clock kept,
    /// none merged).
    pub fn is_identity(&self) -> bool {
        self.dropped.is_empty() && self.merged.is_empty()
    }

    /// Applies the reduction, producing the network the engine
    /// explores. A no-op clone when [`ClockReduction::is_identity`].
    pub fn apply(&self, net: &TaNetwork) -> TaNetwork {
        net.apply_clock_map(&self.map)
    }
}
