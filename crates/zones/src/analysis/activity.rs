//! Per-location clock activity masks (UPPAAL-style active-clock
//! reduction), generalizing the observer-clock freeing the engine
//! already does via [`crate::monitor::Monitor::reduce_activity`] to
//! the network's own clocks.
//!
//! A clock is **live** at a location if some run from there reaches a
//! read of it (guard or invariant) with no intervening reset; dead
//! otherwise. The backward dataflow is per automaton: lowered clocks
//! are automaton-local (each hybrid automaton reads and resets only
//! its own clocks), which the computation *verifies* rather than
//! assumes — a clock touched by more than one automaton is
//! conservatively owned by none and never masked.
//!
//! Freeing a dead clock ([`crate::dbm::Dbm::free`]) never changes the
//! value any future guard, invariant, or observer constraint sees: the
//! clock is reset before its next read, and `free` only relaxes the
//! freed row/column of a canonical DBM, leaving the live-clock and
//! observer projections untouched. That is the whole soundness
//! argument for verdict preservation, and it is what lets zones that
//! differ only in dead-clock history collapse in the passed list.

use super::reachable::NetReachability;
use crate::ta::TaNetwork;

/// The most clocks a mask covers (one `u64` bit per clock). A larger
/// network is searched without masks, and [`super::analyze`] reports
/// that as a `masks-disabled` warning.
pub(super) const MAX_MASKED_CLOCKS: usize = 64;

/// Per-(automaton, location) dead-clock bitmasks over a network's
/// clock space.
#[derive(Clone, Debug)]
pub struct ActivityMasks {
    /// `dead[ai][loc]` — bit `c - 1` set ⇔ clock `c` (1-based) is
    /// owned by automaton `ai` and dead at `loc`. Masks of the
    /// automata a state occupies OR together into the state's full
    /// dead set.
    pub dead: Vec<Vec<u64>>,
    /// Clock count the masks cover. `0` disables masking (more than 64
    /// clocks; `LeaseConfig::chain(32)` already lowers to 65, and the
    /// analysis warns `masks-disabled`).
    pub clocks: usize,
    /// Clocks owned by no single automaton (never masked).
    pub shared: usize,
}

impl ActivityMasks {
    /// Computes masks for `net` under `reach`. Unreachable locations
    /// keep an all-zero mask (they are never occupied).
    pub fn compute(net: &TaNetwork, reach: &NetReachability) -> ActivityMasks {
        let n = net.clock_count();
        if n > MAX_MASKED_CLOCKS {
            return ActivityMasks {
                dead: net
                    .automata
                    .iter()
                    .map(|a| vec![0; a.locations.len()])
                    .collect(),
                clocks: 0,
                shared: n,
            };
        }

        // Ownership: the unique automaton that reads or resets the
        // clock anywhere (live or dead structure — dead sites still
        // witness which component the clock belongs to).
        let mut owner: Vec<Option<usize>> = vec![None; n + 1];
        let mut shared = vec![false; n + 1];
        let mut touch = |c: usize, ai: usize, owner: &mut Vec<Option<usize>>| match owner[c] {
            None => owner[c] = Some(ai),
            Some(o) if o != ai => shared[c] = true,
            _ => {}
        };
        for (ai, aut) in net.automata.iter().enumerate() {
            for loc in &aut.locations {
                for a in &loc.invariant {
                    touch(a.clock, ai, &mut owner);
                }
            }
            for e in &aut.edges {
                for a in &e.guard {
                    touch(a.clock, ai, &mut owner);
                }
                for &(c, _) in &e.resets {
                    touch(c, ai, &mut owner);
                }
            }
        }
        let owned_bit = |c: usize, ai: usize| -> u64 {
            (owner[c] == Some(ai) && !shared[c]) as u64 * (1u64 << (c - 1))
        };

        // Backward liveness per automaton over the live structure:
        //   live(L) = reads(inv L) ∪ ⋃_{e: L→M live} reads(guard e) ∪ (live(M) \ resets(e))
        // iterated to fixpoint (the graphs are tiny).
        let mut dead = Vec::with_capacity(net.automata.len());
        for (ai, aut) in net.automata.iter().enumerate() {
            let mut live = vec![0u64; aut.locations.len()];
            let mut owned_here = 0u64;
            for c in 1..=n {
                owned_here |= owned_bit(c, ai);
            }
            loop {
                let mut changed = false;
                for (li, loc) in aut.locations.iter().enumerate() {
                    if !reach.reachable[ai][li] {
                        continue;
                    }
                    let mut l = live[li];
                    for a in &loc.invariant {
                        l |= owned_bit(a.clock, ai);
                    }
                    for (eid, e) in aut.edges_from(li) {
                        if reach.dead_edge[ai][eid] {
                            continue;
                        }
                        for a in &e.guard {
                            l |= owned_bit(a.clock, ai);
                        }
                        let mut succ = live[e.dst];
                        for &(c, _) in &e.resets {
                            succ &= !owned_bit(c, ai);
                        }
                        l |= succ;
                    }
                    if l != live[li] {
                        live[li] = l;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            dead.push(
                aut.locations
                    .iter()
                    .enumerate()
                    .map(|(li, _)| {
                        if reach.reachable[ai][li] {
                            owned_here & !live[li]
                        } else {
                            0
                        }
                    })
                    .collect(),
            );
        }

        ActivityMasks {
            dead,
            clocks: n,
            shared: shared.iter().filter(|s| **s).count(),
        }
    }

    /// `true` if no location ever has a dead owned clock (masking would
    /// be a no-op).
    pub fn is_trivial(&self) -> bool {
        self.dead.iter().all(|locs| locs.iter().all(|m| *m == 0))
    }

    /// The dead-clock mask of a product state occupying `locs`
    /// (`locs[ai]` is automaton `ai`'s location index).
    pub fn dead_mask(&self, locs: &[u32]) -> u64 {
        locs.iter()
            .enumerate()
            .map(|(ai, &l)| self.dead[ai][l as usize])
            .fold(0, |acc, m| acc | m)
    }
}
