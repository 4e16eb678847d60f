//! Model lint: structured diagnostics over a lowered network.
//!
//! Each check is purely static and deterministic (model order), so a
//! given network always lints identically — the property the CI lint
//! gate relies on. Severity semantics:
//!
//! * [`Severity::Error`] — the model asks for something impossible
//!   (e.g. a statically unsatisfiable guard). The `pte-lint` binary
//!   and the CI gate fail on these.
//! * [`Severity::Warning`] — dead model text (unreachable locations,
//!   edges that can never fire or never complete). Often intentional
//!   fallout of register folding, but worth a look.
//! * [`Severity::Info`] — observations (receiver-less sends, registers
//!   folded to constants, clocks nothing reads or that always equal
//!   another).

use super::clocks::ClockReduction;
use super::reachable::{atoms_satisfiable, NetReachability};
use crate::ta::{Atom, Rel, TaNetwork};
use std::collections::BTreeMap;
use std::fmt;

/// Diagnostic severity, ordered `Info < Warning < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// An observation; nothing is wrong.
    Info,
    /// Dead or suspicious model text.
    Warning,
    /// A statically impossible construct.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Stable kebab-case check identifier (e.g. `unsat-guard`).
    pub code: &'static str,
    /// Owning automaton, when the finding is automaton-scoped.
    pub automaton: Option<String>,
    /// Location name or `edge #k: src -> dst` site description.
    pub site: Option<String>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(a) = &self.automaton {
            write!(f, " {a}")?;
        }
        if let Some(s) = &self.site {
            write!(f, " at {s}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// An allowlist rule: `(code, needle)`. A [`Severity::Warning`]
/// diagnostic whose `code` matches and whose site **or** message
/// contains `needle` is *expected* — [`apply_allowlist`] downgrades it
/// to [`Severity::Info`] and marks the message. Errors are never
/// downgraded: an allowlist documents intentional dead model text, not
/// impossible constructs.
pub type AllowRule = (String, String);

/// The canonical allowlist for the lease-pattern models — every
/// warning here is intentional model text, documented at its source:
///
/// * `dead-edge` on `lease_deny` receives — the base pattern's
///   participation condition is `True`, so participants never emit
///   deny; the Supervisor's receive edges are deliberately present
///   (they become live under
///   `pte_core::pattern::PatternOptions { deny_capable: true }`).
/// * `unreachable-location` on `[approval_bad=1]` mode copies — the
///   register fold's location × mode product contains Lease-state
///   copies nothing assigns, because the only edges that set
///   `approval_bad = 1` leave the lease chain in the same step.
pub fn pattern_allowlist() -> Vec<AllowRule> {
    vec![
        ("dead-edge".to_string(), "lease_deny".to_string()),
        (
            "unreachable-location".to_string(),
            "[approval_bad=1]".to_string(),
        ),
    ]
}

/// Downgrades allowlisted warnings to [`Severity::Info`], appending
/// ` [allowlisted]` to the message so reports still show *why* the
/// finding is quiet. Returns how many diagnostics were downgraded.
/// Deterministic and idempotent (an already-downgraded finding is Info
/// and no longer matches).
pub fn apply_allowlist(diags: &mut [Diagnostic], rules: &[AllowRule]) -> usize {
    let mut downgraded = 0;
    for d in diags.iter_mut() {
        if d.severity != Severity::Warning {
            continue;
        }
        let hit = rules.iter().any(|(code, needle)| {
            d.code == code
                && (d.site.as_deref().is_some_and(|s| s.contains(needle))
                    || d.message.contains(needle))
        });
        if hit {
            d.severity = Severity::Info;
            d.message.push_str(" [allowlisted]");
            downgraded += 1;
        }
    }
    downgraded
}

/// Renders an edge site as `edge #k: src -> dst`.
fn edge_site(net: &TaNetwork, ai: usize, eid: usize) -> String {
    let aut = &net.automata[ai];
    let e = &aut.edges[eid];
    format!(
        "edge #{eid}: {} -> {}",
        aut.locations[e.src].name, aut.locations[e.dst].name
    )
}

/// Runs every lint check, in deterministic order.
pub fn lint(net: &TaNetwork, reach: &NetReachability, red: &ClockReduction) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    unreachable_locations(net, reach, &mut out);
    unsat_guards(net, reach, &mut out);
    dead_edges(net, reach, &mut out);
    no_receiver_sends(net, reach, &mut out);
    register_constants(net, reach, &mut out);
    reduced_clocks(net, red, &mut out);
    out
}

/// `unreachable-location` (warning): no run can enter the location.
/// Register folding routinely produces these (location × mode products
/// for mode values nothing assigns).
fn unreachable_locations(net: &TaNetwork, reach: &NetReachability, out: &mut Vec<Diagnostic>) {
    for (ai, aut) in net.automata.iter().enumerate() {
        for (li, loc) in aut.locations.iter().enumerate() {
            if !reach.reachable[ai][li] {
                out.push(Diagnostic {
                    severity: Severity::Warning,
                    code: "unreachable-location",
                    automaton: Some(aut.name.clone()),
                    site: Some(loc.name.clone()),
                    message: "location is unreachable in the discrete graph".to_string(),
                });
            }
        }
    }
}

/// `unsat-guard` (error): the guard contradicts itself or the source
/// invariant it must fire under — the edge asks for an impossible
/// transition.
fn unsat_guards(net: &TaNetwork, reach: &NetReachability, out: &mut Vec<Diagnostic>) {
    for (ai, aut) in net.automata.iter().enumerate() {
        for (eid, e) in aut.edges.iter().enumerate() {
            if reach.unsat_guard[ai][eid] {
                out.push(Diagnostic {
                    severity: Severity::Error,
                    code: "unsat-guard",
                    automaton: Some(aut.name.clone()),
                    site: Some(edge_site(net, ai, eid)),
                    message: if atoms_satisfiable(&[e.guard.as_slice()]) {
                        "guard contradicts the source invariant".to_string()
                    } else {
                        "guard bounds are contradictory; the edge can never fire".to_string()
                    },
                });
            }
        }
    }
}

/// `dead-edge` (warning): the edge never fires for a reason other than
/// its own guard — a receive nothing emits, or a target whose
/// invariant rejects every post-reset valuation. (Edges from
/// unreachable sources are implied by `unreachable-location` and not
/// re-reported.)
fn dead_edges(net: &TaNetwork, reach: &NetReachability, out: &mut Vec<Diagnostic>) {
    for (ai, aut) in net.automata.iter().enumerate() {
        for (eid, e) in aut.edges.iter().enumerate() {
            if reach.unsat_guard[ai][eid] || !reach.reachable[ai][e.src] {
                continue;
            }
            if reach.dead_edge[ai][eid] {
                let root = e.sync.root().map(|r| r.as_str().to_string());
                out.push(Diagnostic {
                    severity: Severity::Warning,
                    code: "dead-edge",
                    automaton: Some(aut.name.clone()),
                    site: Some(edge_site(net, ai, eid)),
                    message: format!(
                        "receive of `{}` can never fire: no live edge emits it",
                        root.unwrap_or_default()
                    ),
                });
                continue;
            }
            // Fireable, but can the target be entered? Clocks the edge
            // resets enter the target at their reset value; the rest
            // must satisfy guard ∧ target invariant jointly.
            let reset_violates = aut.locations[e.dst].invariant.iter().any(|a| {
                e.resets
                    .iter()
                    .find(|(c, _)| *c == a.clock)
                    .is_some_and(|&(_, v)| !const_satisfies(v, a))
            });
            let unreset: Vec<Atom> = aut.locations[e.dst]
                .invariant
                .iter()
                .filter(|a| !e.resets.iter().any(|(c, _)| *c == a.clock))
                .copied()
                .collect();
            if reset_violates || !atoms_satisfiable(&[e.guard.as_slice(), unreset.as_slice()]) {
                out.push(Diagnostic {
                    severity: Severity::Warning,
                    code: "dead-edge",
                    automaton: Some(aut.name.clone()),
                    site: Some(edge_site(net, ai, eid)),
                    message: "target invariant rejects every valuation the edge produces"
                        .to_string(),
                });
            }
        }
    }
}

/// `v ⋈ ticks` for a constant clock value `v`.
fn const_satisfies(v: i64, a: &Atom) -> bool {
    match a.rel {
        Rel::Le => v <= a.ticks,
        Rel::Lt => v < a.ticks,
        Rel::Ge => v >= a.ticks,
        Rel::Gt => v > a.ticks,
    }
}

/// `no-receiver-send` (info): a live edge emits an event no automaton
/// has a receiving edge for — an output to the environment (plant
/// signals like `evt_to_stop_*`), or a wiring mistake.
fn no_receiver_sends(net: &TaNetwork, reach: &NetReachability, out: &mut Vec<Diagnostic>) {
    use std::collections::HashSet;
    let received: HashSet<&str> = net
        .automata
        .iter()
        .flat_map(|a| a.edges.iter())
        .filter_map(|e| e.sync.root().map(|r| r.as_str()))
        .collect();
    let mut reported: HashSet<&str> = HashSet::new();
    for (ai, aut) in net.automata.iter().enumerate() {
        for (_, e) in reach.live_edges(net, ai) {
            for r in &e.emits {
                if !received.contains(r.as_str()) && reported.insert(r.as_str()) {
                    out.push(Diagnostic {
                        severity: Severity::Info,
                        code: "no-receiver-send",
                        automaton: Some(aut.name.clone()),
                        site: None,
                        message: format!(
                            "emitted event `{}` has no receiver; treated as an environment output",
                            r.as_str()
                        ),
                    });
                }
            }
        }
    }
}

/// `register-constant` (info): the lowering folds hybrid registers
/// into location × mode products, naming locations `base [reg=val]`.
/// When every *reachable* location of an automaton agrees on one value
/// for a register, the register is constant in practice and its other
/// mode copies are dead weight.
fn register_constants(net: &TaNetwork, reach: &NetReachability, out: &mut Vec<Diagnostic>) {
    for (ai, aut) in net.automata.iter().enumerate() {
        // register -> (reachable values, total values) observed in names.
        let mut values: BTreeMap<String, (Vec<String>, usize)> = BTreeMap::new();
        for (li, loc) in aut.locations.iter().enumerate() {
            for (reg, val) in parse_mode_suffix(&loc.name) {
                let entry = values.entry(reg).or_default();
                entry.1 += 1;
                if reach.reachable[ai][li] && !entry.0.contains(&val) {
                    entry.0.push(val);
                }
            }
        }
        for (reg, (reachable_vals, total)) in values {
            if reachable_vals.len() == 1 && total > aut.locations.len() / 2 {
                out.push(Diagnostic {
                    severity: Severity::Info,
                    code: "register-constant",
                    automaton: Some(aut.name.clone()),
                    site: None,
                    message: format!(
                        "register `{reg}` holds the constant value {} in every reachable \
                         location; its other mode copies are unreachable",
                        reachable_vals[0]
                    ),
                });
            }
        }
    }
}

/// Parses the lowering's ` [reg=val,...]` location-name suffix.
fn parse_mode_suffix(name: &str) -> Vec<(String, String)> {
    let Some(open) = name.rfind(" [") else {
        return Vec::new();
    };
    let Some(inner) = name[open + 2..].strip_suffix(']') else {
        return Vec::new();
    };
    inner
        .split(',')
        .filter_map(|kv| {
            kv.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
        })
        .collect()
}

/// `unread-clock` / `duplicate-clock` (info): the redundant clocks
/// [`ClockReduction`] found. The engine still searches them.
fn reduced_clocks(net: &TaNetwork, red: &ClockReduction, out: &mut Vec<Diagnostic>) {
    for &c in &red.dropped {
        out.push(Diagnostic {
            severity: Severity::Info,
            code: "unread-clock",
            automaton: None,
            site: None,
            message: format!(
                "clock `{}` is never read by a reachable guard or invariant; \
                 the model could drop it",
                net.clocks[c - 1]
            ),
        });
    }
    for &(dup, rep) in &red.merged {
        out.push(Diagnostic {
            severity: Severity::Info,
            code: "duplicate-clock",
            automaton: None,
            site: None,
            message: format!(
                "clock `{}` always equals `{}` (reset together by the same live edges); \
                 the model could merge them",
                net.clocks[dup - 1],
                net.clocks[rep - 1]
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(severity: Severity, code: &'static str, site: &str, message: &str) -> Diagnostic {
        Diagnostic {
            severity,
            code,
            automaton: Some("supervisor".to_string()),
            site: Some(site.to_string()),
            message: message.to_string(),
        }
    }

    /// The allowlist downgrades matching warnings (by site or message),
    /// leaves errors and non-matching warnings alone, and is idempotent.
    #[test]
    fn allowlist_downgrades_only_matching_warnings() {
        let mut diags = vec![
            diag(
                Severity::Warning,
                "dead-edge",
                "edge #3: Lease xi1 -> Abort Lease xi1",
                "receive of `evt_xi1_to_xi0_lease_deny` can never fire: no live edge emits it",
            ),
            diag(
                Severity::Warning,
                "unreachable-location",
                "Lease xi1 [approval_bad=1]",
                "location is unreachable in the discrete graph",
            ),
            // Same code, different site/message: must survive.
            diag(
                Severity::Warning,
                "unreachable-location",
                "Orphan",
                "location is unreachable in the discrete graph",
            ),
            // Errors are never downgraded, even on a needle hit.
            diag(
                Severity::Error,
                "unsat-guard",
                "edge #9: L0 -> Fall-Back",
                "guard mentions lease_deny impossibly",
            ),
        ];
        let rules = pattern_allowlist();
        assert_eq!(apply_allowlist(&mut diags, &rules), 2);
        assert_eq!(diags[0].severity, Severity::Info);
        assert!(diags[0].message.ends_with(" [allowlisted]"));
        assert_eq!(diags[1].severity, Severity::Info);
        assert_eq!(diags[2].severity, Severity::Warning);
        assert_eq!(diags[3].severity, Severity::Error);
        // Idempotent: a second pass finds nothing left to downgrade.
        assert_eq!(apply_allowlist(&mut diags, &rules), 0);
        assert!(!diags[0].message.ends_with("[allowlisted] [allowlisted]"));
    }
}
