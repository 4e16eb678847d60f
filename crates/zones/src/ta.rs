//! The timed-automata network model the zone engine explores.
//!
//! This is the target of the lowering in [`crate::lower`]: a network of
//! timed automata with integer-tick clock constraints, clock resets,
//! and the lease pattern's communication discipline — wireless events
//! (`??root` receives) that a sender's emission may **deliver or drop**,
//! reliable internal events (`?root` with an in-network sender, always
//! delivered), and external events (`?root` with no in-network sender:
//! driver commands and environment signals, which may occur at any
//! moment).

use crate::dbm::{Bound, Dbm};
use pte_hybrid::Root;
use std::fmt;

/// Comparison relation of a clock atom.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rel {
    /// `clock ≤ c`.
    Le,
    /// `clock < c`.
    Lt,
    /// `clock ≥ c`.
    Ge,
    /// `clock > c`.
    Gt,
}

/// One atomic clock constraint `clock ⋈ ticks` (clock is a **global**
/// 1-based DBM index).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Atom {
    /// Global clock index (1-based; 0 is the DBM reference).
    pub clock: usize,
    /// Comparison relation.
    pub rel: Rel,
    /// Constant, in ticks.
    pub ticks: i64,
}

impl Atom {
    /// Conjoins this atom onto a DBM (no closure; caller canonicalizes).
    pub fn apply(&self, z: &mut Dbm) {
        match self.rel {
            Rel::Le => z.constrain(self.clock, 0, Bound::le(self.ticks)),
            Rel::Lt => z.constrain(self.clock, 0, Bound::lt(self.ticks)),
            Rel::Ge => z.constrain(0, self.clock, Bound::le(-self.ticks)),
            Rel::Gt => z.constrain(0, self.clock, Bound::lt(-self.ticks)),
        };
    }

    /// Conjoins this atom onto a **canonical** DBM, restoring canonical
    /// form incrementally ([`Dbm::constrain_and_close`], O(n²) instead
    /// of a deferred O(n³) closure). Returns `false` when the atom
    /// empties the zone.
    pub fn apply_and_close(&self, z: &mut Dbm) -> bool {
        match self.rel {
            Rel::Le => z.constrain_and_close(self.clock, 0, Bound::le(self.ticks)),
            Rel::Lt => z.constrain_and_close(self.clock, 0, Bound::lt(self.ticks)),
            Rel::Ge => z.constrain_and_close(0, self.clock, Bound::le(-self.ticks)),
            Rel::Gt => z.constrain_and_close(0, self.clock, Bound::lt(-self.ticks)),
        }
    }

    /// The bound `≺ c` of an upper-bound atom (`x ≤ c`, `x < c`) as the
    /// DBM entry `(clock, 0)` takes it; `None` for lower bounds.
    pub(crate) fn upper_bound(&self) -> Option<Bound> {
        match self.rel {
            Rel::Le => Some(Bound::le(self.ticks)),
            Rel::Lt => Some(Bound::lt(self.ticks)),
            Rel::Ge | Rel::Gt => None,
        }
    }

    /// The negation of this atom (`≤` ↔ `>`, `<` ↔ `≥`).
    pub fn negated(&self) -> Atom {
        let rel = match self.rel {
            Rel::Le => Rel::Gt,
            Rel::Lt => Rel::Ge,
            Rel::Ge => Rel::Lt,
            Rel::Gt => Rel::Le,
        };
        Atom { rel, ..*self }
    }

    /// `true` if the (canonical, non-empty) zone has at least one point
    /// satisfying this atom.
    pub fn satisfiable_in(&self, z: &Dbm) -> bool {
        match self.rel {
            Rel::Le => z.satisfies(self.clock, 0, Bound::le(self.ticks)),
            Rel::Lt => z.satisfies(self.clock, 0, Bound::lt(self.ticks)),
            Rel::Ge => z.satisfies(0, self.clock, Bound::le(-self.ticks)),
            Rel::Gt => z.satisfies(0, self.clock, Bound::lt(-self.ticks)),
        }
    }
}

/// Synchronization discipline of an edge.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Sync {
    /// No trigger: fires spontaneously whenever the guard holds (timed /
    /// urgent edges).
    None,
    /// Receive of an event no in-network automaton emits: an *external*
    /// stimulus (driver command, environment signal) that may arrive at
    /// any instant the guard holds.
    External(Root),
    /// Reliable receive of an in-network event: fires exactly when a
    /// matching emission happens (never lost).
    Reliable(Root),
    /// Lossy wireless receive (`??root`): a matching emission is
    /// delivered *or dropped*, nondeterministically.
    Lossy(Root),
}

impl Sync {
    /// The received root, if any.
    pub fn root(&self) -> Option<&Root> {
        match self {
            Sync::None => None,
            Sync::External(r) | Sync::Reliable(r) | Sync::Lossy(r) => Some(r),
        }
    }
}

/// One location of a lowered timed automaton.
#[derive(Clone, Debug)]
pub struct TaLocation {
    /// Display name (base location name plus any folded discrete mode).
    pub name: String,
    /// Conjunctive clock invariant bounding dwell.
    pub invariant: Vec<Atom>,
    /// `true` if time may not elapse here (a discrete-state invariant
    /// evaluated to false in this mode, or a `clock ≤ 0` style freeze is
    /// detected by the engine via `invariant` itself).
    pub frozen: bool,
    /// Risky classification carried over from the hybrid model.
    pub risky: bool,
}

/// One edge of a lowered timed automaton.
#[derive(Clone, Debug)]
pub struct TaEdge {
    /// Source location index (within the owning automaton).
    pub src: usize,
    /// Destination location index.
    pub dst: usize,
    /// Conjunctive clock guard.
    pub guard: Vec<Atom>,
    /// Clock resets `clock := ticks` (global clock indices).
    pub resets: Vec<(usize, i64)>,
    /// Synchronization.
    pub sync: Sync,
    /// Events emitted when the edge fires (delivered or dropped per
    /// [`Sync::Lossy`] receivers).
    pub emits: Vec<Root>,
    /// Urgent edges must fire as soon as enabled; the engine uses them to
    /// escape invariant-expired states.
    pub urgent: bool,
}

/// One lowered automaton.
#[derive(Clone, Debug)]
pub struct TaAutomaton {
    /// Name (matches the hybrid automaton / PTE entity name).
    pub name: String,
    /// Locations.
    pub locations: Vec<TaLocation>,
    /// Edges.
    pub edges: Vec<TaEdge>,
    /// Initial location index.
    pub initial: usize,
}

impl TaAutomaton {
    /// Indices of edges leaving `loc`.
    pub fn edges_from(&self, loc: usize) -> impl Iterator<Item = (usize, &TaEdge)> {
        self.edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.src == loc)
    }
}

/// A network of timed automata sharing a global clock space.
#[derive(Clone, Debug)]
pub struct TaNetwork {
    /// Global clock names; clock `i` is DBM index `i + 1`.
    pub clocks: Vec<String>,
    /// The member automata.
    pub automata: Vec<TaAutomaton>,
}

impl TaNetwork {
    /// Number of clocks.
    pub fn clock_count(&self) -> usize {
        self.clocks.len()
    }

    /// Finds an automaton index by name.
    pub fn automaton_by_name(&self, name: &str) -> Option<usize> {
        self.automata.iter().position(|a| a.name == name)
    }

    /// The maximal constant (ticks) each clock is compared against
    /// anywhere in the network, indexed like a DBM bound vector
    /// (`result[0] = 0` for the reference). Extra engine-side bounds can
    /// be folded in afterwards.
    pub fn max_constants(&self) -> Vec<i64> {
        let mut k = vec![0i64; self.clock_count() + 1];
        fn fold(k: &mut [i64], a: &Atom) {
            if a.clock < k.len() && a.ticks > k[a.clock] {
                k[a.clock] = a.ticks;
            }
        }
        for aut in &self.automata {
            for loc in &aut.locations {
                for a in &loc.invariant {
                    fold(&mut k, a);
                }
            }
            for e in &aut.edges {
                for a in &e.guard {
                    fold(&mut k, a);
                }
                for (c, v) in &e.resets {
                    if *c < k.len() && *v > k[*c] {
                        k[*c] = *v;
                    }
                }
            }
        }
        k
    }

    /// Direction-split maximal constants for LU-bound extrapolation
    /// ([`crate::dbm::Dbm::extrapolate_lu`]): per clock, `lower` is the
    /// largest constant of any *lower-bound* comparison (`x > c`,
    /// `x ≥ c`) and `upper` the largest of any *upper-bound* comparison
    /// (`x < c`, `x ≤ c`), each indexed like a DBM bound vector. Reset
    /// constants are folded into both directions (a clock pinned at `v`
    /// must stay distinguishable on both sides), which keeps the
    /// abstraction conservative without giving up the split where it
    /// matters — invariants (`x ≤ c`) no longer inflate `lower`, and
    /// one-sided guards no longer inflate the opposite direction.
    /// Pointwise `lower, upper ≤ max_constants()`, so `Extra_LU` with
    /// these vectors is at least as coarse as `Extra_M`.
    pub fn lu_bounds(&self) -> LuBounds {
        let mut lu = LuBounds {
            lower: vec![0i64; self.clock_count() + 1],
            upper: vec![0i64; self.clock_count() + 1],
        };
        for aut in &self.automata {
            for loc in &aut.locations {
                for a in &loc.invariant {
                    lu.fold_atom(a);
                }
            }
            for e in &aut.edges {
                for a in &e.guard {
                    lu.fold_atom(a);
                }
                for (c, v) in &e.resets {
                    lu.fold_both(*c, *v);
                }
            }
        }
        lu
    }
}

/// Per-clock lower/upper comparison constants feeding
/// [`crate::dbm::Dbm::extrapolate_lu`]; built by
/// [`TaNetwork::lu_bounds`] and extendable with engine-side observer
/// bounds via [`LuBounds::fold_lower`] / [`LuBounds::fold_upper`].
#[derive(Clone, Debug)]
pub struct LuBounds {
    /// Largest lower-bound comparison constant per clock (DBM-indexed;
    /// entry 0 is the reference).
    pub lower: Vec<i64>,
    /// Largest upper-bound comparison constant per clock (DBM-indexed).
    pub upper: Vec<i64>,
}

impl LuBounds {
    fn fold_atom(&mut self, a: &Atom) {
        match a.rel {
            Rel::Le | Rel::Lt => self.fold_upper(a.clock, a.ticks),
            Rel::Ge | Rel::Gt => self.fold_lower(a.clock, a.ticks),
        }
    }

    /// Raises the lower-comparison constant of `clock` to at least `c`.
    pub fn fold_lower(&mut self, clock: usize, c: i64) {
        if clock < self.lower.len() && c > self.lower[clock] {
            self.lower[clock] = c;
        }
    }

    /// Raises the upper-comparison constant of `clock` to at least `c`.
    pub fn fold_upper(&mut self, clock: usize, c: i64) {
        if clock < self.upper.len() && c > self.upper[clock] {
            self.upper[clock] = c;
        }
    }

    /// Folds `c` into both directions (reset values, equality tests).
    pub fn fold_both(&mut self, clock: usize, c: i64) {
        self.fold_lower(clock, c);
        self.fold_upper(clock, c);
    }
}

impl fmt::Display for TaNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TA network: {} automata, {} clocks",
            self.automata.len(),
            self.clocks.len()
        )?;
        for a in &self.automata {
            writeln!(
                f,
                "  {}: {} locations, {} edges",
                a.name,
                a.locations.len(),
                a.edges.len()
            )?;
        }
        Ok(())
    }
}
