//! Contract automata: observable interface specifications for lease-pattern
//! participants.
//!
//! A [`Contract`] is a small timed automaton over a device's *observable*
//! alphabet — the lease/grant/release/abort channels it shares with the
//! Supervisor, with the c1–c7 timing envelope from the [`LeaseConfig`] —
//! plus the risky/safe classification of its locations. The refinement
//! checker ([`crate::refine`](mod@crate::refine)) decides whether a concrete (lowered) device
//! automaton implements a contract; the compositional driver
//! ([`crate::compose`]) then substitutes contracts for devices in small
//! per-safeguard abstract networks.
//!
//! The canonical library:
//!
//! | family             | kind      | describes                                     |
//! |--------------------|-----------|-----------------------------------------------|
//! | `lease-client`     | timed     | device-side lease protocol + timing envelope  |
//! | `lease-provider`   | untimed   | supervisor's per-device grant/release order   |
//! | `supervisor-iface` | identity  | the concrete supervisor, verbatim             |
//! | `top`              | universal | chatter: any emission of the device, anytime  |

use pte_core::pattern::{config::LeaseConfig, events::EventNames};
use pte_hybrid::Root;
use pte_zones::ta::{Atom, Rel, Sync, TaAutomaton, TaEdge, TaLocation};
use pte_zones::to_ticks;
use std::collections::BTreeSet;

/// How a contract relates to the component it abstracts, which determines
/// how [`crate::refine::refine`] discharges the substitution obligation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ContractKind {
    /// A timed interface automaton; checked by state-pair zone exploration.
    Timed,
    /// The component itself, verbatim; the refinement is the identity and
    /// is still discharged through the full state-pair exploration (a
    /// useful self-test of the checker).
    Identity,
    /// The universal "chatter" contract: one location, a self-loop per
    /// distinct emission of the component, no clocks, never risky. Sound
    /// only for components whose risky signal is *not* monitored; checked
    /// syntactically (emission cover), not by zone exploration.
    Universal,
}

/// An observable interface specification for one network component.
///
/// The automaton uses **local** 1-based clock indices `1..=clocks.len()`;
/// instantiation into a network remaps them ([`Contract::instantiate`]).
#[derive(Clone, Debug)]
pub struct Contract {
    /// Display name, e.g. `lease-client(participant2)`.
    pub name: String,
    /// Library family: one of [`CONTRACT_NAMES`].
    pub family: &'static str,
    /// Discharge strategy for the refinement obligation.
    pub kind: ContractKind,
    /// The specification automaton (local clock indices).
    pub automaton: TaAutomaton,
    /// Names of the local clocks, index `i+1` ↔ `clocks[i]`.
    pub clocks: Vec<String>,
    /// Roots visible to this contract; everything else is internal to the
    /// implementation and matched by stuttering.
    pub alphabet: BTreeSet<Root>,
}

/// The canonical contract families, in suggestion order for the
/// did-you-mean diagnostics.
pub const CONTRACT_NAMES: [&str; 4] = ["lease-client", "lease-provider", "supervisor-iface", "top"];

impl Contract {
    /// Clones the contract automaton with local clock `k` remapped to the
    /// global index `map[k-1]`, for insertion into a [`pte_zones::ta::TaNetwork`].
    pub fn instantiate(&self, map: &[usize]) -> TaAutomaton {
        let mut aut = self.automaton.clone();
        let remap = |c: usize| -> usize {
            assert!(c >= 1 && c <= map.len(), "contract clock out of range");
            map[c - 1]
        };
        for loc in &mut aut.locations {
            for atom in &mut loc.invariant {
                atom.clock = remap(atom.clock);
            }
        }
        for e in &mut aut.edges {
            for atom in &mut e.guard {
                atom.clock = remap(atom.clock);
            }
            for (c, _) in &mut e.resets {
                *c = remap(*c);
            }
        }
        aut
    }
}

fn loc(name: &str, invariant: Vec<Atom>, risky: bool) -> TaLocation {
    TaLocation {
        name: name.to_string(),
        invariant,
        frozen: false,
        risky,
    }
}

fn le(clock: usize, ticks: i64) -> Atom {
    Atom {
        clock,
        rel: Rel::Le,
        ticks,
    }
}

fn ge(clock: usize, ticks: i64) -> Atom {
    Atom {
        clock,
        rel: Rel::Ge,
        ticks,
    }
}

struct EdgeSpec {
    src: usize,
    dst: usize,
    guard: Vec<Atom>,
    resets: Vec<(usize, i64)>,
    sync: Sync,
    emits: Vec<Root>,
    urgent: bool,
}

fn build(name: String, locations: Vec<TaLocation>, edges: Vec<EdgeSpec>) -> TaAutomaton {
    TaAutomaton {
        name,
        locations,
        edges: edges
            .into_iter()
            .map(|e| TaEdge {
                src: e.src,
                dst: e.dst,
                guard: e.guard,
                resets: e.resets,
                sync: e.sync,
                emits: e.emits,
                urgent: e.urgent,
            })
            .collect(),
        initial: 0,
    }
}

/// The device-side lease contract for entity `i` (`1..=cfg.n`): the exact
/// request/approve/enter/run/exit envelope of the pattern's Participant
/// (`i < N`) or Initializer (`i = N`), with every in-network receive lossy
/// and every timing constant drawn from the [`LeaseConfig`].
///
/// This is both the refinement obligation for the concrete device and its
/// stand-in inside the per-safeguard abstract networks, so it deliberately
/// preserves the device's mandatory-progress structure (invariants and
/// urgent expiry edges use the same constants as the device builders):
/// the contract must not dwell anywhere the device cannot.
pub fn lease_client(cfg: &LeaseConfig, i: usize) -> Contract {
    assert!(i >= 1 && i <= cfg.n, "entity index out of range");
    if i == cfg.n {
        initializer_client(cfg)
    } else {
        participant_client(cfg, i)
    }
}

fn participant_client(cfg: &LeaseConfig, i: usize) -> Contract {
    let ev = EventNames::new(cfg.n);
    let c = 1usize;
    let t_enter = to_ticks(cfg.t_enter[i - 1].as_secs_f64());
    let t_run = to_ticks(cfg.t_run[i - 1].as_secs_f64());
    let t_exit = to_ticks(cfg.t_exit[i - 1].as_secs_f64());

    // Locations mirror Fig. 5(b): Fall-Back, L0 (zero-dwell decision),
    // Entering, Risky Core, Exiting 1 (risky), Exiting 2 (safe).
    let locations = vec![
        loc("Fall-Back", vec![], false),
        loc("L0", vec![le(c, 0)], false),
        loc("Entering", vec![le(c, t_enter)], false),
        loc("Risky Core", vec![le(c, t_run)], true),
        loc("Exiting 1", vec![le(c, t_exit)], true),
        loc("Exiting 2", vec![le(c, t_exit)], false),
    ];
    let (fb, l0, entering, risky, ex1, ex2) = (0, 1, 2, 3, 4, 5);
    let edges = vec![
        EdgeSpec {
            src: fb,
            dst: l0,
            guard: vec![],
            resets: vec![(c, 0)],
            sync: Sync::Lossy(ev.lease_req(i)),
            emits: vec![],
            urgent: false,
        },
        // The decision point: approve or deny, instantly. The contract
        // keeps the deny branch even for always-willing participants
        // (whose lowered deny edge is dead) — a contract may offer more.
        EdgeSpec {
            src: l0,
            dst: entering,
            guard: vec![],
            resets: vec![(c, 0)],
            sync: Sync::None,
            emits: vec![ev.lease_approve(i)],
            urgent: true,
        },
        EdgeSpec {
            src: l0,
            dst: fb,
            guard: vec![],
            resets: vec![(c, 0)],
            sync: Sync::None,
            emits: vec![ev.lease_deny(i)],
            urgent: true,
        },
        EdgeSpec {
            src: entering,
            dst: risky,
            guard: vec![ge(c, t_enter)],
            resets: vec![(c, 0)],
            sync: Sync::None,
            emits: vec![],
            urgent: true,
        },
        EdgeSpec {
            src: entering,
            dst: ex2,
            guard: vec![],
            resets: vec![(c, 0)],
            sync: Sync::Lossy(ev.cancel(i)),
            emits: vec![],
            urgent: false,
        },
        EdgeSpec {
            src: entering,
            dst: ex2,
            guard: vec![],
            resets: vec![(c, 0)],
            sync: Sync::Lossy(ev.abort(i)),
            emits: vec![],
            urgent: false,
        },
        EdgeSpec {
            src: risky,
            dst: ex1,
            guard: vec![ge(c, t_run)],
            resets: vec![(c, 0)],
            sync: Sync::None,
            emits: vec![ev.to_stop(i)],
            urgent: true,
        },
        EdgeSpec {
            src: risky,
            dst: ex1,
            guard: vec![],
            resets: vec![(c, 0)],
            sync: Sync::Lossy(ev.cancel(i)),
            emits: vec![],
            urgent: false,
        },
        EdgeSpec {
            src: risky,
            dst: ex1,
            guard: vec![],
            resets: vec![(c, 0)],
            sync: Sync::Lossy(ev.abort(i)),
            emits: vec![],
            urgent: false,
        },
        EdgeSpec {
            src: ex1,
            dst: fb,
            guard: vec![ge(c, t_exit)],
            resets: vec![(c, 0)],
            sync: Sync::None,
            emits: vec![ev.exit(i)],
            urgent: true,
        },
        EdgeSpec {
            src: ex2,
            dst: fb,
            guard: vec![ge(c, t_exit)],
            resets: vec![(c, 0)],
            sync: Sync::None,
            emits: vec![ev.exit(i)],
            urgent: true,
        },
    ];
    let alphabet: BTreeSet<Root> = [
        ev.lease_req(i),
        ev.lease_approve(i),
        ev.lease_deny(i),
        ev.cancel(i),
        ev.abort(i),
        ev.exit(i),
        ev.to_stop(i),
    ]
    .into_iter()
    .collect();
    Contract {
        name: format!("lease-client({})", cfg.entity_name(i)),
        family: "lease-client",
        kind: ContractKind::Timed,
        automaton: build(cfg.entity_name(i), locations, edges),
        clocks: vec!["c".to_string()],
        alphabet,
    }
}

fn initializer_client(cfg: &LeaseConfig) -> Contract {
    let n = cfg.n;
    let ev = EventNames::new(n);
    let c = 1usize;
    let t_req = to_ticks(cfg.t_req_max.as_secs_f64());
    let t_enter = to_ticks(cfg.t_enter[n - 1].as_secs_f64());
    let t_run = to_ticks(cfg.t_run[n - 1].as_secs_f64());
    let t_exit = to_ticks(cfg.t_exit[n - 1].as_secs_f64());

    let locations = vec![
        loc("Fall-Back", vec![], false),
        loc("Requesting", vec![le(c, t_req)], false),
        loc("Entering", vec![le(c, t_enter)], false),
        loc("Risky Core", vec![le(c, t_run)], true),
        loc("Exiting 1", vec![le(c, t_exit)], true),
        loc("Exiting 2", vec![le(c, t_exit)], false),
    ];
    let (fb, req, entering, risky, ex1, ex2) = (0, 1, 2, 3, 4, 5);
    let edges = vec![
        EdgeSpec {
            src: fb,
            dst: req,
            guard: vec![],
            resets: vec![(c, 0)],
            sync: Sync::External(ev.cmd_request()),
            emits: vec![ev.req()],
            urgent: false,
        },
        EdgeSpec {
            src: req,
            dst: entering,
            guard: vec![],
            resets: vec![(c, 0)],
            sync: Sync::Lossy(ev.approve()),
            emits: vec![],
            urgent: false,
        },
        EdgeSpec {
            src: req,
            dst: fb,
            guard: vec![],
            resets: vec![(c, 0)],
            sync: Sync::External(ev.cmd_cancel()),
            emits: vec![ev.cancel_from_initializer()],
            urgent: false,
        },
        EdgeSpec {
            src: req,
            dst: fb,
            guard: vec![ge(c, t_req)],
            resets: vec![(c, 0)],
            sync: Sync::None,
            emits: vec![],
            urgent: true,
        },
        EdgeSpec {
            src: entering,
            dst: risky,
            guard: vec![ge(c, t_enter)],
            resets: vec![(c, 0)],
            sync: Sync::None,
            emits: vec![],
            urgent: true,
        },
        EdgeSpec {
            src: entering,
            dst: ex2,
            guard: vec![],
            resets: vec![(c, 0)],
            sync: Sync::External(ev.cmd_cancel()),
            emits: vec![ev.cancel_from_initializer()],
            urgent: false,
        },
        EdgeSpec {
            src: entering,
            dst: ex2,
            guard: vec![],
            resets: vec![(c, 0)],
            sync: Sync::Lossy(ev.abort(n)),
            emits: vec![],
            urgent: false,
        },
        EdgeSpec {
            src: risky,
            dst: ex1,
            guard: vec![ge(c, t_run)],
            resets: vec![(c, 0)],
            sync: Sync::None,
            emits: vec![ev.to_stop(n)],
            urgent: true,
        },
        EdgeSpec {
            src: risky,
            dst: ex1,
            guard: vec![],
            resets: vec![(c, 0)],
            sync: Sync::External(ev.cmd_cancel()),
            emits: vec![ev.cancel_from_initializer()],
            urgent: false,
        },
        EdgeSpec {
            src: risky,
            dst: ex1,
            guard: vec![],
            resets: vec![(c, 0)],
            sync: Sync::Lossy(ev.abort(n)),
            emits: vec![],
            urgent: false,
        },
        EdgeSpec {
            src: ex1,
            dst: fb,
            guard: vec![ge(c, t_exit)],
            resets: vec![(c, 0)],
            sync: Sync::None,
            emits: vec![ev.exit(n)],
            urgent: true,
        },
        EdgeSpec {
            src: ex2,
            dst: fb,
            guard: vec![ge(c, t_exit)],
            resets: vec![(c, 0)],
            sync: Sync::None,
            emits: vec![ev.exit(n)],
            urgent: true,
        },
    ];
    let alphabet: BTreeSet<Root> = [
        ev.cmd_request(),
        ev.cmd_cancel(),
        ev.req(),
        ev.cancel_from_initializer(),
        ev.approve(),
        ev.abort(n),
        ev.exit(n),
        ev.to_stop(n),
    ]
    .into_iter()
    .collect();
    Contract {
        name: format!("lease-client({})", cfg.entity_name(n)),
        family: "lease-client",
        kind: ContractKind::Timed,
        automaton: build(cfg.entity_name(n), locations, edges),
        clocks: vec!["c".to_string()],
        alphabet,
    }
}

/// The supervisor-side guarantee toward participant `i` (`1..cfg.n`): an
/// **untimed** projection of the supervisor's protocol order onto entity
/// `i`'s channels — request, then approve/deny, then exactly one release
/// (cancel or abort) before the next request. Library + refinement-test
/// material; the compositional driver keeps the concrete supervisor.
pub fn lease_provider(cfg: &LeaseConfig, i: usize) -> Contract {
    assert!(i >= 1 && i < cfg.n, "provider contracts cover participants");
    let ev = EventNames::new(cfg.n);
    let locations = vec![
        loc("Idle", vec![], false),
        loc("Pending", vec![], false),
        loc("Engaged", vec![], false),
        loc("Released", vec![], false),
    ];
    let (idle, pending, engaged, released) = (0, 1, 2, 3);
    let mut edges = vec![
        // A new round grants entity i.
        EdgeSpec {
            src: idle,
            dst: pending,
            guard: vec![],
            resets: vec![],
            sync: Sync::None,
            emits: vec![ev.lease_req(i)],
            urgent: false,
        },
        // The device approves (receipt may be lost: the supervisor's
        // receive is lossy, so from the device's view the approval may
        // also be followed by an abort — covered from Engaged too).
        EdgeSpec {
            src: pending,
            dst: engaged,
            guard: vec![],
            resets: vec![],
            sync: Sync::Lossy(ev.lease_approve(i)),
            emits: vec![],
            urgent: false,
        },
        // Denial is answered by an abort.
        EdgeSpec {
            src: pending,
            dst: released,
            guard: vec![],
            resets: vec![],
            sync: Sync::Lossy(ev.lease_deny(i)),
            emits: vec![ev.abort(i)],
            urgent: false,
        },
        // Exit report (or the grant-clock timeout, internal) ends the
        // round for entity i.
        EdgeSpec {
            src: released,
            dst: idle,
            guard: vec![],
            resets: vec![],
            sync: Sync::Lossy(ev.exit(i)),
            emits: vec![],
            urgent: false,
        },
        EdgeSpec {
            src: released,
            dst: idle,
            guard: vec![],
            resets: vec![],
            sync: Sync::None,
            emits: vec![],
            urgent: false,
        },
    ];
    // Internal releases: timeout/approval-violation aborts and
    // initializer-driven cancels, from both Pending and Engaged.
    for src in [pending, engaged] {
        for emit in [ev.abort(i), ev.cancel(i)] {
            edges.push(EdgeSpec {
                src,
                dst: released,
                guard: vec![],
                resets: vec![],
                sync: Sync::None,
                emits: vec![emit],
                urgent: false,
            });
        }
    }
    let alphabet: BTreeSet<Root> = [
        ev.lease_req(i),
        ev.lease_approve(i),
        ev.lease_deny(i),
        ev.cancel(i),
        ev.abort(i),
        ev.exit(i),
    ]
    .into_iter()
    .collect();
    Contract {
        name: format!("lease-provider(xi{i})"),
        family: "lease-provider",
        kind: ContractKind::Timed,
        automaton: build("supervisor".to_string(), locations, edges),
        clocks: vec![],
        alphabet,
    }
}

/// The identity contract for the supervisor: the lowered automaton itself
/// over its full alphabet. The compositional driver always keeps the
/// concrete supervisor; this contract exists so the refinement checker has
/// a non-trivial "identity" obligation to discharge (every edge must match
/// itself), which doubles as a soundness self-test.
pub fn supervisor_iface(sup: &TaAutomaton, clock_names: &[String]) -> Contract {
    let (automaton, clocks) = localize(sup, clock_names);
    let alphabet: BTreeSet<Root> = automaton
        .edges
        .iter()
        .flat_map(|e| {
            e.sync
                .root()
                .cloned()
                .into_iter()
                .chain(e.emits.iter().cloned())
        })
        .collect();
    Contract {
        name: "supervisor-iface".to_string(),
        family: "supervisor-iface",
        kind: ContractKind::Identity,
        automaton,
        clocks,
        alphabet,
    }
}

/// The universal "chatter" contract for a component: a single safe
/// location with one self-loop per distinct emission of the component,
/// fireable at any time. Sound as a stand-in for any component whose risky
/// signal the observer does not monitor: it reproduces every emission the
/// component could ever make (and more), and dropping the component's
/// receives only removes behaviors of the component itself — this
/// network's emitters never block on a receiver.
pub fn top_for(component: &TaAutomaton) -> Contract {
    let mut seen: BTreeSet<Vec<Root>> = BTreeSet::new();
    for e in &component.edges {
        if !e.emits.is_empty() {
            seen.insert(e.emits.clone());
        }
    }
    let alphabet: BTreeSet<Root> = seen.iter().flatten().cloned().collect();
    let edges = seen
        .into_iter()
        .map(|emits| EdgeSpec {
            src: 0,
            dst: 0,
            guard: vec![],
            resets: vec![],
            sync: Sync::None,
            emits,
            urgent: false,
        })
        .collect();
    Contract {
        name: format!("top({})", component.name),
        family: "top",
        kind: ContractKind::Universal,
        automaton: build(
            component.name.clone(),
            vec![loc("Chatter", vec![], false)],
            edges,
        ),
        clocks: vec![],
        alphabet,
    }
}

/// Rewrites an automaton taken from a lowered network (global clock
/// indices) into the local 1-based clock space used by contracts and the
/// refinement checker. Returns the rewritten automaton and the names of
/// the clocks it actually reads or resets, in ascending global order.
pub fn localize(aut: &TaAutomaton, clock_names: &[String]) -> (TaAutomaton, Vec<String>) {
    let mut used: BTreeSet<usize> = BTreeSet::new();
    for l in &aut.locations {
        for a in &l.invariant {
            used.insert(a.clock);
        }
    }
    for e in &aut.edges {
        for a in &e.guard {
            used.insert(a.clock);
        }
        for (c, _) in &e.resets {
            used.insert(*c);
        }
    }
    let order: Vec<usize> = used.into_iter().collect();
    let local = |c: usize| -> usize { order.iter().position(|&g| g == c).unwrap() + 1 };
    let mut out = aut.clone();
    for l in &mut out.locations {
        for a in &mut l.invariant {
            a.clock = local(a.clock);
        }
    }
    for e in &mut out.edges {
        for a in &mut e.guard {
            a.clock = local(a.clock);
        }
        for (c, _) in &mut e.resets {
            *c = local(*c);
        }
    }
    let names = order
        .iter()
        .map(|&g| {
            clock_names
                .get(g - 1)
                .cloned()
                .unwrap_or_else(|| format!("x{g}"))
        })
        .collect();
    (out, names)
}
