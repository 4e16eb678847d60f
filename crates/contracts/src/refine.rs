//! Timed refinement checking: `Device ⊑ Contract` by state-pair zone
//! exploration (the Reveaal `statepair.rs` construction).
//!
//! The checker explores pairs `(impl_location, spec_location, shared DBM)`
//! where the DBM ranges over the implementation's clocks (`1..=k`) and the
//! contract's clocks (`k+1..=k+m`) jointly. Each implementation edge must
//! be *matched*: an edge whose observable label (receive root and emitted
//! roots, restricted to the contract's alphabet) is visible must be
//! simulated by a spec edge with the same label whose guard contains the
//! whole enabled zone; an unobservable edge may stutter. On top of
//! language containment the checker enforces, at every reachable pair,
//!
//! * **risky-trajectory equality** — the monitored PTE property is not
//!   monotone in the risky signals, so a sound substitute must reproduce
//!   the device's risky flag exactly, not merely bound it;
//! * **invariant containment** — wherever the implementation may delay,
//!   the spec's invariant admits the delayed zone (so the contract never
//!   *forbids* a dwell the device can perform).
//!
//! The exploration is a round-based BFS on the calling thread: each round
//! expands the whole frontier, stopping at the first node that fails,
//! then admits successors in frontier order with zone-inclusion
//! subsumption. The frontiers of the lease contracts stay tiny (no
//! registry device's refinement has more than two pairs in a round), so
//! the checker never shards a round over threads. The checker errs on
//! the side of refusal (nondeterministic or partially-covering spec
//! guards fail), which the compositional driver answers with a monolithic
//! fallback — a conservative refusal can cost performance, never
//! soundness.

use crate::contract::{Contract, ContractKind};
use pte_zones::ta::{Sync, TaAutomaton, TaEdge};
use pte_zones::Dbm;
use std::collections::{BTreeSet, HashMap};

/// The budget of one refinement check.
#[derive(Clone, Copy, Debug)]
pub struct RefineLimits {
    /// Maximum admitted state pairs before giving up.
    pub max_pairs: usize,
}

impl Default for RefineLimits {
    fn default() -> RefineLimits {
        RefineLimits { max_pairs: 200_000 }
    }
}

/// Exploration counters for one refinement check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Admitted (non-subsumed) state pairs.
    pub pairs: usize,
    /// Successor pairs generated, including subsumed ones.
    pub transitions: usize,
    /// BFS rounds.
    pub rounds: usize,
}

/// A symbolic refinement counter-example: why the device does *not*
/// implement the contract, with the trace that exhibits it.
#[derive(Clone, Debug)]
pub struct RefineFailure {
    /// One-line machine-greppable reason.
    pub reason: String,
    /// Full rendered trace.
    pub rendered: String,
    /// Counters at the point of failure.
    pub stats: RefineStats,
}

/// Outcome of a `Device ⊑ Contract` check.
#[derive(Clone, Debug)]
pub enum RefineOutcome {
    /// The device implements the contract.
    Holds(RefineStats),
    /// It does not (or the checker could not prove it — the check is
    /// conservative); the failure carries a symbolic counter-example.
    Fails(Box<RefineFailure>),
    /// The pair budget was exhausted before a verdict.
    OutOfBudget(RefineStats),
}

impl RefineOutcome {
    /// `true` only for a proven refinement.
    pub fn holds(&self) -> bool {
        matches!(self, RefineOutcome::Holds(_))
    }

    /// The exploration counters, whatever the verdict.
    pub fn stats(&self) -> RefineStats {
        match self {
            RefineOutcome::Holds(s) | RefineOutcome::OutOfBudget(s) => *s,
            RefineOutcome::Fails(f) => f.stats,
        }
    }
}

/// Observable label of an edge under a contract alphabet: the receive
/// root (if visible) and the visible emissions, in emission order.
type Label = (Option<pte_hybrid::Root>, Vec<pte_hybrid::Root>);

fn label(e: &TaEdge, alphabet: &BTreeSet<pte_hybrid::Root>) -> Label {
    let root = e.sync.root().filter(|r| alphabet.contains(*r)).cloned();
    let emits = e
        .emits
        .iter()
        .filter(|r| alphabet.contains(*r))
        .cloned()
        .collect();
    (root, emits)
}

fn describe_label(e: &TaEdge) -> String {
    let mut s = String::new();
    match &e.sync {
        Sync::None => {}
        Sync::External(r) | Sync::Reliable(r) | Sync::Lossy(r) => {
            s.push_str("??");
            s.push_str(r.as_str());
        }
    }
    for r in &e.emits {
        if !s.is_empty() {
            s.push(' ');
        }
        s.push('!');
        s.push_str(r.as_str());
    }
    if s.is_empty() {
        s.push_str("(internal)");
    }
    s
}

struct Node {
    qi: u32,
    qs: u32,
    zone: Dbm,
    parent: isize,
    step: String,
}

struct Succ {
    qi: u32,
    qs: u32,
    zone: Dbm,
    step: String,
}

#[derive(Debug)]
struct Fail {
    reason: String,
    detail: String,
}

struct Checker<'a> {
    imp: &'a TaAutomaton,
    spec: TaAutomaton,
    alphabet: &'a BTreeSet<pte_hybrid::Root>,
    kmax: Vec<i64>,
    names: Vec<String>,
    clocks: usize,
}

/// Decides `device ⊑ contract`. `impl_clocks` names the device's local
/// clocks (see [`crate::contract::localize`]); the device automaton must
/// already use local 1-based clock indices.
pub fn refine(
    device: &TaAutomaton,
    impl_clocks: &[String],
    contract: &Contract,
    limits: &RefineLimits,
) -> RefineOutcome {
    if contract.kind == ContractKind::Universal {
        return refine_universal(device, contract);
    }

    let ni = impl_clocks.len();
    let ns = contract.clocks.len();

    // Shift the contract's clocks past the implementation's.
    let mut spec = contract.automaton.clone();
    for l in &mut spec.locations {
        for a in &mut l.invariant {
            a.clock += ni;
        }
    }
    for e in &mut spec.edges {
        for a in &mut e.guard {
            a.clock += ni;
        }
        for (c, _) in &mut e.resets {
            *c += ni;
        }
    }

    let mut kmax = vec![0i64; ni + ns + 1];
    let mut fold = |aut: &TaAutomaton| {
        for l in &aut.locations {
            for a in &l.invariant {
                kmax[a.clock] = kmax[a.clock].max(a.ticks);
            }
        }
        for e in &aut.edges {
            for a in &e.guard {
                kmax[a.clock] = kmax[a.clock].max(a.ticks);
            }
            for (c, v) in &e.resets {
                kmax[*c] = kmax[*c].max(*v);
            }
        }
    };
    fold(device);
    fold(&spec);

    let names: Vec<String> = impl_clocks
        .iter()
        .map(|c| format!("i.{c}"))
        .chain(contract.clocks.iter().map(|c| format!("s.{c}")))
        .collect();

    let checker = Checker {
        imp: device,
        spec,
        alphabet: &contract.alphabet,
        kmax,
        names,
        clocks: ni + ns,
    };
    checker.run(device, contract, limits)
}

/// Discharges a [`ContractKind::Universal`] obligation: the chatter
/// contract must offer every distinct emission of the component. (Its
/// single location is never risky, so it is only sound for components the
/// observer does not monitor — the driver enforces that side condition.)
fn refine_universal(device: &TaAutomaton, contract: &Contract) -> RefineOutcome {
    let offered: BTreeSet<&Vec<pte_hybrid::Root>> =
        contract.automaton.edges.iter().map(|e| &e.emits).collect();
    let stats = RefineStats {
        pairs: 1,
        transitions: device.edges.len(),
        rounds: 1,
    };
    for e in &device.edges {
        if !e.emits.is_empty() && !offered.contains(&e.emits) {
            let roots: Vec<&str> = e.emits.iter().map(|r| r.as_str()).collect();
            return RefineOutcome::Fails(Box::new(RefineFailure {
                reason: format!(
                    "universal contract {} does not offer emission [{}]",
                    contract.name,
                    roots.join(", ")
                ),
                rendered: format!(
                    "{} ⋢ {}: emission [{}] of edge {} -> {} is not covered",
                    device.name,
                    contract.name,
                    roots.join(", "),
                    device.locations[e.src].name,
                    device.locations[e.dst].name
                ),
                stats,
            }));
        }
    }
    RefineOutcome::Holds(stats)
}

impl<'a> Checker<'a> {
    fn run(
        &self,
        device: &TaAutomaton,
        contract: &Contract,
        limits: &RefineLimits,
    ) -> RefineOutcome {
        let mut stats = RefineStats::default();
        let mut arena: Vec<Node> = Vec::new();
        let mut passed: HashMap<(u32, u32), Vec<Dbm>> = HashMap::new();
        let zone = Dbm::zero(self.clocks);
        let root = match self.settle(zone, device.initial, self.spec.initial) {
            Ok(Some(z)) => z,
            Ok(None) => return RefineOutcome::Holds(stats),
            Err(reason) => {
                return self.fail(
                    device,
                    contract,
                    &arena,
                    -1,
                    Fail {
                        reason,
                        detail: "at the initial state".to_string(),
                    },
                    stats,
                )
            }
        };
        passed.insert(
            (device.initial as u32, self.spec.initial as u32),
            vec![root.clone()],
        );
        arena.push(Node {
            qi: device.initial as u32,
            qs: self.spec.initial as u32,
            zone: root,
            parent: -1,
            step: format!(
                "start at ({}, {})",
                device.locations[device.initial].name, self.spec.locations[self.spec.initial].name
            ),
        });
        stats.pairs = 1;
        let mut frontier: Vec<usize> = vec![0];

        while !frontier.is_empty() {
            stats.rounds += 1;
            // The whole round is expanded before any successor is
            // admitted, and the earliest (node, edge) failure wins: the
            // expansion itself stops at the first failing edge of a node.
            let mut results = Vec::with_capacity(frontier.len());
            for &n in &frontier {
                match self.expand(&arena[n]) {
                    Ok(succs) => results.push(succs),
                    Err(fail) => {
                        return self.fail(device, contract, &arena, n as isize, fail, stats)
                    }
                }
            }
            let mut next: Vec<usize> = Vec::new();
            for (succs, &parent) in results.into_iter().zip(&frontier) {
                let parent = parent as isize;
                for succ in succs {
                    stats.transitions += 1;
                    let key = (succ.qi, succ.qs);
                    let stored = passed.entry(key).or_default();
                    if stored.iter().any(|z| z.includes(&succ.zone)) {
                        continue;
                    }
                    stored.retain(|z| !succ.zone.includes(z));
                    stored.push(succ.zone.clone());
                    arena.push(Node {
                        qi: succ.qi,
                        qs: succ.qs,
                        zone: succ.zone,
                        parent,
                        step: succ.step,
                    });
                    stats.pairs += 1;
                    next.push(arena.len() - 1);
                    if stats.pairs > limits.max_pairs {
                        return RefineOutcome::OutOfBudget(stats);
                    }
                }
            }
            frontier = next;
        }
        RefineOutcome::Holds(stats)
    }

    /// Expands one admitted pair: every implementation edge must be
    /// matched or allowed to stutter. Stops at the first failing edge.
    fn expand(&self, node: &Node) -> Result<Vec<Succ>, Fail> {
        let qi = node.qi as usize;
        let qs = node.qs as usize;
        let mut out = Vec::new();
        for e in self.imp.edges.iter().filter(|e| e.src == qi) {
            let mut ze = node.zone.clone();
            if !e.guard.iter().all(|a| a.apply_and_close(&mut ze)) {
                continue; // edge not enabled anywhere in this zone
            }
            let lab = label(e, self.alphabet);
            let internal = lab.0.is_none() && lab.1.is_empty();

            // Spec candidates with the same observable label.
            let mut full: Vec<&TaEdge> = Vec::new();
            let mut partial = false;
            for f in self.spec.edges.iter().filter(|f| f.src == qs) {
                if label(f, self.alphabet) != lab {
                    continue;
                }
                let contains = f.guard.iter().all(|a| !a.negated().satisfiable_in(&ze));
                if contains {
                    full.push(f);
                } else {
                    let mut zf = ze.clone();
                    if f.guard.iter().all(|a| a.apply_and_close(&mut zf)) {
                        partial = true;
                    }
                }
            }

            let edge_desc = format!(
                "{} --{}--> {}",
                self.imp.locations[qi].name,
                describe_label(e),
                self.imp.locations[e.dst].name
            );
            let (spec_dst, spec_resets, spec_desc) = if full.is_empty() {
                if internal && self.imp.locations[e.dst].risky == self.imp.locations[qi].risky {
                    (qs, &[][..], "(spec stutters)".to_string())
                } else {
                    let reason = if partial {
                        "guard-mismatch: a spec edge matches the label but its guard does not \
                         contain the enabled zone"
                    } else if internal {
                        "no spec counterpart for an internal risky-changing edge"
                    } else {
                        "no spec edge matches the observable label"
                    };
                    return Err(Fail {
                        reason: reason.to_string(),
                        detail: format!("implementation edge {edge_desc}"),
                    });
                }
            } else {
                let f0 = full[0];
                if full
                    .iter()
                    .any(|f| f.dst != f0.dst || f.resets != f0.resets)
                {
                    return Err(Fail {
                        reason: "spec is nondeterministic: several matching edges with \
                                 different targets cover the enabled zone"
                            .to_string(),
                        detail: format!("implementation edge {edge_desc}"),
                    });
                }
                (
                    f0.dst,
                    &f0.resets[..],
                    format!("/ spec -> {}", self.spec.locations[f0.dst].name),
                )
            };

            for (c, v) in &e.resets {
                ze.reset(*c, *v);
            }
            for (c, v) in spec_resets {
                ze.reset(*c, *v);
            }
            match self.settle(ze, e.dst, spec_dst) {
                Ok(Some(mut z)) => {
                    z.extrapolate(&self.kmax);
                    out.push(Succ {
                        qi: e.dst as u32,
                        qs: spec_dst as u32,
                        zone: z,
                        step: format!("{edge_desc} {spec_desc}"),
                    });
                }
                Ok(None) => {}
                Err(reason) => {
                    return Err(Fail {
                        reason,
                        detail: format!("after implementation edge {edge_desc} {spec_desc}"),
                    });
                }
            }
        }
        Ok(out)
    }

    /// Entry + delay closure at a pair: conjoin the implementation
    /// invariant, verify the spec location admits every point (risky flag,
    /// entry set, and the whole implementation-delayed zone), and return
    /// the delayed zone. `Ok(None)` means the implementation itself cannot
    /// enter (pruned branch).
    fn settle(&self, mut z: Dbm, qi: usize, qs: usize) -> Result<Option<Dbm>, String> {
        let li = &self.imp.locations[qi];
        let ls = &self.spec.locations[qs];
        if li.risky != ls.risky {
            return Err(format!(
                "risky-flag mismatch: implementation {} is {}, spec {} is {}",
                li.name,
                if li.risky { "risky" } else { "safe" },
                ls.name,
                if ls.risky { "risky" } else { "safe" },
            ));
        }
        for a in &li.invariant {
            if !a.apply_and_close(&mut z) {
                return Ok(None);
            }
        }
        let escape = |z: &Dbm| ls.invariant.iter().find(|a| a.negated().satisfiable_in(z));
        if let Some(a) = escape(&z) {
            return Err(format!(
                "invariant escape on entry: spec {} requires {:?} but the entry zone leaves it",
                ls.name, a
            ));
        }
        if !li.frozen {
            let before = z.clone();
            z.up();
            for a in &li.invariant {
                a.apply_and_close(&mut z);
            }
            if ls.frozen && !before.includes(&z) {
                return Err(format!(
                    "frozen mismatch: spec {} freezes time but implementation {} can delay",
                    ls.name, li.name
                ));
            }
            if let Some(a) = escape(&z) {
                return Err(format!(
                    "invariant escape under delay: implementation {} may dwell past spec {} \
                     bound {:?}",
                    li.name, ls.name, a
                ));
            }
        }
        Ok(Some(z))
    }

    fn fail(
        &self,
        device: &TaAutomaton,
        contract: &Contract,
        arena: &[Node],
        at: isize,
        fail: Fail,
        stats: RefineStats,
    ) -> RefineOutcome {
        let mut steps: Vec<String> = Vec::new();
        let mut cur = at;
        while cur >= 0 {
            let n = &arena[cur as usize];
            steps.push(format!(
                "({}, {})  {}\n    via {}",
                device.locations[n.qi as usize].name,
                self.spec.locations[n.qs as usize].name,
                n.zone.render(&self.names),
                n.step,
            ));
            cur = n.parent;
        }
        steps.reverse();
        const SHOWN: usize = 30;
        let skipped = steps.len().saturating_sub(SHOWN);
        let mut rendered = format!(
            "{} ⋢ {}\nreason: {}\n{}\n",
            device.name, contract.name, fail.reason, fail.detail
        );
        if skipped > 0 {
            rendered.push_str(&format!("trace: … ({skipped} earlier steps)\n"));
        } else {
            rendered.push_str("trace:\n");
        }
        for s in &steps[skipped..] {
            rendered.push_str("  ");
            rendered.push_str(s);
            rendered.push('\n');
        }
        RefineOutcome::Fails(Box::new(RefineFailure {
            reason: fail.reason,
            rendered,
            stats,
        }))
    }
}
