//! Discrete-graph reachability with event support.
//!
//! The redundant-clock rules and the lint pass both need to know which
//! locations and edges can ever participate in a run. This module
//! computes a sound **over-approximation** of per-automaton
//! reachability: an edge is assumed fireable whenever its guard is
//! statically satisfiable and its trigger can occur — spontaneous and
//! external edges always can; reliable/lossy receives only if some
//! live edge in the network emits the event. "Unreachable" verdicts
//! from an over-approximation are definitive, which is what both
//! consumers require (a clock read in an unreachable location really
//! is unread; an unreachable location really is dead model text).

use crate::ta::{Atom, Rel, Sync, TaNetwork};
use pte_hybrid::Root;
use std::collections::HashSet;

/// Per-automaton discrete reachability and dead-edge classification.
#[derive(Clone, Debug)]
pub struct NetReachability {
    /// `reachable[ai][loc]` — location may be entered in some run.
    pub reachable: Vec<Vec<bool>>,
    /// `unsat_guard[ai][eid]` — the edge's guard is statically
    /// unsatisfiable (self-contradictory constant bounds, or
    /// contradicting the source invariant it must fire under).
    pub unsat_guard: Vec<Vec<bool>>,
    /// `dead_edge[ai][eid]` — the edge can never fire: unsatisfiable
    /// guard, unreachable source, or a receive of an event no live
    /// edge emits.
    pub dead_edge: Vec<Vec<bool>>,
    /// Event roots emitted by at least one live (non-dead) edge.
    pub emitted: HashSet<Root>,
}

/// Folds conjunctive atoms over one clock into a `(lower, upper)`
/// bound pair and reports whether the conjunction has a satisfying
/// value. Bounds are `(ticks, strict)`.
#[derive(Clone, Copy)]
struct Interval {
    lo: (i64, bool),
    hi: Option<(i64, bool)>,
}

impl Interval {
    fn new() -> Interval {
        // Clocks are non-negative: implicit `x ≥ 0`.
        Interval {
            lo: (0, false),
            hi: None,
        }
    }

    fn add(&mut self, a: &Atom) {
        match a.rel {
            Rel::Ge => self.lo = self.lo.max((a.ticks, false)),
            Rel::Gt => self.lo = self.lo.max((a.ticks, true)),
            Rel::Le => {
                let b = (a.ticks, false);
                self.hi = Some(self.hi.map_or(b, |h| h.min(b)));
            }
            Rel::Lt => {
                // A strict upper `< c` is tighter than `≤ c`: order by
                // (ticks, !strict) so `< c` sorts below `≤ c`.
                let b = (a.ticks, true);
                self.hi = Some(
                    self.hi
                        .map_or(b, |h| if (b.0, !b.1) < (h.0, !h.1) { b } else { h }),
                );
            }
        }
    }

    fn is_empty(&self) -> bool {
        match self.hi {
            None => false,
            Some((hi, hi_strict)) => {
                let (lo, lo_strict) = self.lo;
                hi < lo || (hi == lo && (hi_strict || lo_strict))
            }
        }
    }
}

/// `true` if the conjunction of `sets` of atoms admits some valuation —
/// checked clock-by-clock (conjunctive constant bounds have no
/// cross-clock interaction).
pub(crate) fn atoms_satisfiable(sets: &[&[Atom]]) -> bool {
    let mut clocks: Vec<usize> = sets
        .iter()
        .flat_map(|s| s.iter().map(|a| a.clock))
        .collect();
    clocks.sort_unstable();
    clocks.dedup();
    for c in clocks {
        let mut iv = Interval::new();
        for s in sets {
            for a in s.iter().filter(|a| a.clock == c) {
                iv.add(a);
            }
        }
        if iv.is_empty() {
            return false;
        }
    }
    true
}

impl NetReachability {
    /// Computes reachability for `net` (see module docs for the
    /// approximation direction).
    pub fn compute(net: &TaNetwork) -> NetReachability {
        // Static guard satisfiability. A guard fires *while the source
        // invariant still holds*, so `guard ∧ src-invariant` must be
        // satisfiable for the edge to be anything but dead.
        let unsat_guard: Vec<Vec<bool>> = net
            .automata
            .iter()
            .map(|aut| {
                aut.edges
                    .iter()
                    .map(|e| {
                        !atoms_satisfiable(&[
                            e.guard.as_slice(),
                            aut.locations[e.src].invariant.as_slice(),
                        ])
                    })
                    .collect()
            })
            .collect();

        // Optimistic start: every syntactically emitted root counts,
        // then shrink to roots emitted by live edges until stable.
        // Each iterate stays an over-approximation, so the limit is
        // still sound for "unreachable" verdicts.
        let mut emitted: HashSet<Root> = net
            .automata
            .iter()
            .flat_map(|a| a.edges.iter())
            .flat_map(|e| e.emits.iter().cloned())
            .collect();
        let mut reachable: Vec<Vec<bool>>;
        loop {
            reachable = net
                .automata
                .iter()
                .enumerate()
                .map(|(ai, aut)| {
                    let mut seen = vec![false; aut.locations.len()];
                    let mut stack = vec![aut.initial];
                    seen[aut.initial] = true;
                    while let Some(l) = stack.pop() {
                        for (eid, e) in aut.edges_from(l) {
                            if unsat_guard[ai][eid] || !sync_possible(&e.sync, &emitted) {
                                continue;
                            }
                            if !seen[e.dst] {
                                seen[e.dst] = true;
                                stack.push(e.dst);
                            }
                        }
                    }
                    seen
                })
                .collect();
            let mut next: HashSet<Root> = HashSet::new();
            for (ai, aut) in net.automata.iter().enumerate() {
                for (eid, e) in aut.edges.iter().enumerate() {
                    if reachable[ai][e.src]
                        && !unsat_guard[ai][eid]
                        && sync_possible(&e.sync, &emitted)
                    {
                        next.extend(e.emits.iter().cloned());
                    }
                }
            }
            if next == emitted {
                break;
            }
            emitted = next;
        }

        let dead_edge: Vec<Vec<bool>> = net
            .automata
            .iter()
            .enumerate()
            .map(|(ai, aut)| {
                aut.edges
                    .iter()
                    .enumerate()
                    .map(|(eid, e)| {
                        unsat_guard[ai][eid]
                            || !reachable[ai][e.src]
                            || !sync_possible(&e.sync, &emitted)
                    })
                    .collect()
            })
            .collect();

        NetReachability {
            reachable,
            unsat_guard,
            dead_edge,
            emitted,
        }
    }

    /// Iterates the live (non-dead) edges of automaton `ai`.
    pub(crate) fn live_edges<'n>(
        &'n self,
        net: &'n TaNetwork,
        ai: usize,
    ) -> impl Iterator<Item = (usize, &'n crate::ta::TaEdge)> + 'n {
        net.automata[ai]
            .edges
            .iter()
            .enumerate()
            .filter(move |(eid, _)| !self.dead_edge[ai][*eid])
    }
}

/// Whether an edge's trigger can ever occur, given the set of roots
/// emitted by live edges.
fn sync_possible(sync: &Sync, emitted: &HashSet<Root>) -> bool {
    match sync {
        Sync::None | Sync::External(_) => true,
        Sync::Reliable(r) | Sync::Lossy(r) => emitted.contains(r),
    }
}
