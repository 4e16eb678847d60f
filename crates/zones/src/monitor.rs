//! The safety-monitor layer: properties as observer automata composed
//! with a [`TaNetwork`], decoupled from the zone engine.
//!
//! Until PR 4 the PTE observer was welded into `reach.rs` — Rule 1 and
//! the per-pair enter-lead/exit-lag checks ran inline in the search
//! loop, and the engine could check exactly one property. This module
//! inverts that: the engine ([`crate::reach::check_monitored`]) is
//! property-agnostic and explores the product of the network with *any*
//! [`Monitor`], in the component/observer style of compositional timed
//! model checkers (ECDAR / Reveaal): a property is an automaton-shaped
//! observer — discrete observer locations, observer clocks appended
//! after the network's clock space, guarded violation transitions —
//! not code inside the search.
//!
//! A monitor contributes three things to the composed exploration:
//!
//! 1. **Observer clocks** ([`Monitor::clock_names`]) — DBM dimensions
//!    above the network's own clocks, reset and read only by the
//!    monitor;
//! 2. **Observer state** ([`Monitor::initial_state`] /
//!    [`Monitor::on_transition`]) — a small discrete location vector
//!    that becomes part of the engine's passed-list key (two symbolic
//!    states with different observer locations never subsume each
//!    other);
//! 3. **Constants** ([`Monitor::fold_bounds`]) — every constant the
//!    monitor's guards compare an observer clock against, folded into
//!    the engine's extrapolation bound sets. This is also what keeps
//!    the engine's *pre-extrapolation subsumption probe* sound: a
//!    candidate dropped because a passed (violation-free) zone includes
//!    it can only be dropped safely if extrapolation cannot widen a
//!    zone across a monitor constant the bounds do not cover, so the
//!    bound set is derived from the monitor itself rather than from any
//!    hard-coded observer.
//!
//! ## Determinism contract
//!
//! The engine's verdict- and counter-example-determinism guarantees
//! extend to any monitor whose hooks are pure functions of their
//! arguments (no interior mutability, no ambient state). Both monitors
//! here are.
//!
//! Two implementations ship with the crate:
//!
//! * [`PteMonitor`] — the paper's PTE safety rules (Rule 1 bounded
//!   dwelling + per-adjacent-pair proper temporal embedding), built
//!   from an [`ObserverSpec`];
//! * [`LocationReachMonitor`] — plain location reachability, which
//!   turns the safety engine into a reachability checker (the returned
//!   "counter-example" is a witness trace to the target location).

use crate::artifact::{Digest, WarmProfile};
use crate::dbm::Dbm;
use crate::ta::{Atom, LuBounds, Rel, TaNetwork};
use pte_core::rules::PteSpec;
use std::fmt;

/// Discrete observer state: one `u8` "observer location" per tracked
/// component (for [`PteMonitor`], one per adjacent pair). Part of the
/// engine's passed-list key, so it must be cheap to clone, hash, and
/// order.
pub type MonitorState = Vec<u8>;

/// A violation reported by a monitor.
///
/// `class`/`index` give the content-defined total order the engine uses
/// to tie-break counter-examples with identical step lists — they must
/// be a pure function of *which* rule was violated, never of scheduling.
#[derive(Clone, Debug)]
pub struct MonitorViolation {
    /// Violation class (monitor-defined; lower sorts first).
    pub class: u8,
    /// Instance index within the class (entity, pair, target, …).
    pub index: u32,
    /// Rendered description of the violated rule.
    pub message: String,
    /// Optional extra text appended to the final trace step (e.g. the
    /// PTE monitor's "dwell risky beyond the Rule-1 bound" note).
    pub trace_note: Option<String>,
    /// Violating sub-zone, when the monitor tightened one (`None` means
    /// the whole current zone violates).
    pub witness: Option<Dbm>,
}

impl MonitorViolation {
    /// Content-defined tie-break rank.
    pub fn rank(&self) -> (u8, u32) {
        (self.class, self.index)
    }
}

/// Context of one discrete model transition, as seen by a monitor: the
/// network, the moving automaton and its source/destination locations,
/// and the (pre-move) location vector of the whole network.
pub struct TransitionCtx<'a> {
    /// The lowered network being explored.
    pub net: &'a TaNetwork,
    /// Index of the automaton firing the edge.
    pub aut: usize,
    /// Source location index (within `aut`).
    pub src: usize,
    /// Destination location index (within `aut`).
    pub dst: usize,
    /// Current location vector of the network — `aut`'s entry still
    /// holds `src` (the engine moves it after the monitor has observed
    /// the transition).
    pub locs: &'a [u32],
}

/// A safety property composed with the network: the engine explores the
/// product of the model and the monitor, and a violation anywhere in
/// the product is reported with a symbolic counter-example trace.
///
/// All hooks must be deterministic (see the module docs); the engine
/// calls them from multiple worker threads, hence `Sync`.
pub trait Monitor: Sync {
    /// Names of the monitor's observer clocks, appended after the
    /// network's clocks: observer clock `i` is DBM index
    /// `net.clock_count() + 1 + i`.
    fn clock_names(&self) -> &[String];

    /// Observer state at the network's initial location vector.
    fn initial_state(&self) -> MonitorState;

    /// Folds every constant the monitor compares its clocks against
    /// into the engine's extrapolation bound sets (`kmax` for
    /// `Extra_M`, `lu` for `Extra⁺_LU`). Indices are absolute DBM
    /// indices. Soundness of both extrapolation *and* the engine's
    /// pre-extrapolation subsumption probe depends on these bounds
    /// covering the monitor's guards.
    fn fold_bounds(&self, kmax: &mut [i64], lu: &mut LuBounds);

    /// Observes one discrete transition. Called after the edge's guard
    /// has tightened `zone` but before resets and the location move;
    /// the monitor may update its `state`, reset/constrain its own
    /// clocks in `zone`, and report a violation.
    fn on_transition(
        &self,
        ctx: &TransitionCtx<'_>,
        state: &mut MonitorState,
        zone: &mut Dbm,
    ) -> Result<(), MonitorViolation>;

    /// Frees observer clocks that are dead in the given state (activity
    /// reduction): zones differing only in dead-clock history then
    /// collapse. Called on every settled state before admission.
    fn reduce_activity(&self, locs: &[u32], state: &MonitorState, zone: &mut Dbm);

    /// Checks a settled, delay-closed (and extrapolated) state. This is
    /// where dwelling-style bounds are tested — delay closure has
    /// already let time run as far as the invariants allow.
    fn check_settled(
        &self,
        locs: &[u32],
        state: &MonitorState,
        zone: &Dbm,
    ) -> Result<(), MonitorViolation>;

    /// This monitor's contribution to passed-list artifact validity
    /// ([`crate::artifact::PassedArtifact`]): a structural digest plus
    /// the monitor's constants split by weakening direction, so a
    /// later run can decide whether a stored proof still covers it
    /// ([`WarmProfile::admits`]). `None` — the default — opts the
    /// monitor out entirely: searches under it neither capture
    /// artifacts nor warm-start from them, the conservative answer for
    /// any monitor that has not analyzed its own weakening order.
    fn warm_profile(&self) -> Option<WarmProfile> {
        None
    }
}

// ---------------------------------------------------------------------------
// The PTE observer
// ---------------------------------------------------------------------------

/// Integer-tick form of the PTE specification the [`PteMonitor`]
/// enforces.
#[derive(Clone, Debug)]
pub struct ObserverSpec {
    /// Entity names, outermost first (must name automata in the network).
    pub entities: Vec<String>,
    /// Rule-1 bound per entity, in ticks.
    pub rule1_ticks: Vec<i64>,
    /// Safeguard bounds per adjacent pair (`pairs[k]` relates outer
    /// entity `k` and inner entity `k + 1`).
    pub pairs: Vec<PairBounds>,
}

/// Safeguard intervals of one adjacent pair, in ticks.
#[derive(Clone, Copy, Debug)]
pub struct PairBounds {
    /// `T^min_risky`: minimum enter lead of the outer entity.
    pub t_min_risky: i64,
    /// `T^min_safe`: minimum exit lag of the outer entity.
    pub t_min_safe: i64,
}

impl ObserverSpec {
    /// Converts a [`PteSpec`] into tick units, borrowing (and cloning)
    /// the entity names. Prefer the `From<PteSpec>` impl when the spec
    /// is owned — it moves the names instead.
    pub fn from_spec(spec: &PteSpec) -> ObserverSpec {
        ObserverSpec::convert(spec.entities.clone(), spec)
    }

    fn convert(entities: Vec<String>, spec: &PteSpec) -> ObserverSpec {
        ObserverSpec {
            entities,
            rule1_ticks: spec
                .rule1_bounds
                .iter()
                .map(|t| crate::to_ticks(t.as_secs_f64()))
                .collect(),
            pairs: spec
                .pairs
                .iter()
                .map(|p| PairBounds {
                    t_min_risky: crate::to_ticks(p.t_min_risky.as_secs_f64()),
                    t_min_safe: crate::to_ticks(p.t_min_safe.as_secs_f64()),
                })
                .collect(),
        }
    }
}

impl From<PteSpec> for ObserverSpec {
    /// Tick conversion that takes ownership, moving the entity names
    /// instead of cloning them.
    fn from(mut spec: PteSpec) -> ObserverSpec {
        let entities = std::mem::take(&mut spec.entities);
        ObserverSpec::convert(entities, &spec)
    }
}

/// Which PTE rule a symbolic counter-example violates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// Rule 1: entity `entity` can dwell risky beyond its bound.
    Rule1 {
        /// Index into [`ObserverSpec::entities`].
        entity: usize,
    },
    /// Rule 2/3 coverage: the inner entity of `pair` is risky while its
    /// outer entity is not.
    Coverage {
        /// Index into [`ObserverSpec::pairs`].
        pair: usize,
    },
    /// The inner entity can enter risky less than `T^min_risky` after
    /// the outer entity did.
    EnterMargin {
        /// Index into [`ObserverSpec::pairs`].
        pair: usize,
    },
    /// The outer entity can leave risky while the inner entity is still
    /// risky.
    ExitUncovered {
        /// Index into [`ObserverSpec::pairs`].
        pair: usize,
    },
    /// The outer entity can leave risky less than `T^min_safe` after the
    /// inner entity did.
    ExitLag {
        /// Index into [`ObserverSpec::pairs`].
        pair: usize,
    },
}

impl ViolationKind {
    /// Content-defined total order used to tie-break counter-examples
    /// with identical step lists.
    pub fn rank(&self) -> (u8, usize) {
        match self {
            ViolationKind::Rule1 { entity } => (0, *entity),
            ViolationKind::Coverage { pair } => (1, *pair),
            ViolationKind::EnterMargin { pair } => (2, *pair),
            ViolationKind::ExitUncovered { pair } => (3, *pair),
            ViolationKind::ExitLag { pair } => (4, *pair),
        }
    }

    /// Packages this kind as a [`MonitorViolation`].
    fn violation(self, trace_note: Option<String>, witness: Option<Dbm>) -> MonitorViolation {
        let (class, index) = self.rank();
        MonitorViolation {
            class,
            index: index as u32,
            message: self.to_string(),
            trace_note,
            witness,
        }
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKind::Rule1 { entity } => {
                write!(f, "rule 1 dwelling bound exceedable (entity #{entity})")
            }
            ViolationKind::Coverage { pair } => {
                write!(f, "inner risky while outer safe (pair #{pair})")
            }
            ViolationKind::EnterMargin { pair } => {
                write!(f, "enter lead below T^min_risky (pair #{pair})")
            }
            ViolationKind::ExitUncovered { pair } => {
                write!(f, "outer exits risky before inner (pair #{pair})")
            }
            ViolationKind::ExitLag { pair } => {
                write!(f, "exit lag below T^min_safe (pair #{pair})")
            }
        }
    }
}

/// Per-pair observer locations of the PTE observer's embedding state
/// machine (stored as `u8` in the [`MonitorState`]).
const IDLE: u8 = 0;
const OUTER_ONLY: u8 = 1;
const EMBEDDED: u8 = 2;
const INNER_EXITED: u8 = 3;

/// The PTE safety rules as an observer automaton: per entity a clock
/// `r_i` tracks time since the current risky dwelling began (Rule 1),
/// and per adjacent pair a four-location state machine
/// (`Idle / OuterOnly / Embedded / InnerExited`) plus a clock `s_k`
/// (time since the inner entity left risky) check proper temporal
/// embedding — coverage, the `T^min_risky` enter lead, and the
/// `T^min_safe` exit lag — exactly mirroring `pte_core::monitor`.
pub struct PteMonitor<'a> {
    spec: &'a ObserverSpec,
    /// entity index -> automaton index.
    entity_aut: Vec<usize>,
    /// automaton index -> entity index.
    aut_entity: Vec<Option<usize>>,
    /// entity index -> DBM index of its risky-dwell clock `r_i`.
    r_clock: Vec<usize>,
    /// pair index -> DBM index of its inner-exit clock `s_k`.
    s_clock: Vec<usize>,
    /// `risky_tab[ai][loc]` — risky classification, precomputed so the
    /// settled hooks need no network reference.
    risky_tab: Vec<Vec<bool>>,
    clock_names: Vec<String>,
}

impl<'a> PteMonitor<'a> {
    /// Resolves the spec's entities against `net` and lays the observer
    /// clocks out above the network's clock space (`r` clocks first,
    /// then the per-pair `s` clocks). Errors when a spec entity names
    /// no automaton in the network.
    pub fn new(net: &TaNetwork, spec: &'a ObserverSpec) -> Result<PteMonitor<'a>, String> {
        let mut entity_aut = Vec::with_capacity(spec.entities.len());
        let mut aut_entity = vec![None; net.automata.len()];
        for (ei, name) in spec.entities.iter().enumerate() {
            let ai = net
                .automaton_by_name(name)
                .ok_or_else(|| format!("spec entity `{name}` not found in network"))?;
            entity_aut.push(ai);
            aut_entity[ai] = Some(ei);
        }
        let base = net.clock_count();
        let mut clock_names = Vec::with_capacity(spec.entities.len() + spec.pairs.len());
        let r_clock: Vec<usize> = spec
            .entities
            .iter()
            .enumerate()
            .map(|(ei, name)| {
                clock_names.push(format!("r[{name}]"));
                base + 1 + ei
            })
            .collect();
        let s_clock: Vec<usize> = (0..spec.pairs.len())
            .map(|k| {
                clock_names.push(format!("s[pair{k}]"));
                base + 1 + spec.entities.len() + k
            })
            .collect();
        let risky_tab = net
            .automata
            .iter()
            .map(|a| a.locations.iter().map(|l| l.risky).collect())
            .collect();
        Ok(PteMonitor {
            spec,
            entity_aut,
            aut_entity,
            r_clock,
            s_clock,
            risky_tab,
            clock_names,
        })
    }

    fn risky(&self, ai: usize, loc: usize) -> bool {
        self.risky_tab[ai][loc]
    }

    /// Entity `ei` enters risky: coverage + enter-lead checks, pair
    /// state updates, `r` clock reset.
    fn observe_enter(
        &self,
        ei: usize,
        ctx: &TransitionCtx<'_>,
        state: &mut MonitorState,
        zone: &mut Dbm,
    ) -> Result<(), MonitorViolation> {
        // Pairs where `ei` is the inner entity.
        if ei >= 1 && ei - 1 < self.spec.pairs.len() {
            let pk = ei - 1;
            let outer_aut = self.entity_aut[pk];
            let outer_loc = ctx.locs[outer_aut] as usize;
            if !self.risky(outer_aut, outer_loc) {
                return Err(ViolationKind::Coverage { pair: pk }.violation(None, None));
            }
            let lead_short = Atom {
                clock: self.r_clock[pk],
                rel: Rel::Lt,
                ticks: self.spec.pairs[pk].t_min_risky,
            };
            if lead_short.satisfiable_in(zone) {
                let mut witness = zone.clone();
                lead_short.apply_and_close(&mut witness);
                return Err(ViolationKind::EnterMargin { pair: pk }.violation(None, Some(witness)));
            }
            state[pk] = EMBEDDED;
        }
        // Pairs where `ei` is the outer entity.
        if ei < self.spec.pairs.len() && state[ei] == IDLE {
            state[ei] = OUTER_ONLY;
        }
        zone.reset(self.r_clock[ei], 0);
        Ok(())
    }

    /// Entity `ei` leaves risky: exit-lag checks, pair state updates,
    /// `s` clock reset.
    fn observe_exit(
        &self,
        ei: usize,
        state: &mut MonitorState,
        zone: &mut Dbm,
    ) -> Result<(), MonitorViolation> {
        // Pairs where `ei` is the inner entity: start the lag phase.
        if ei >= 1 && ei - 1 < self.spec.pairs.len() {
            let pk = ei - 1;
            if state[pk] == EMBEDDED {
                state[pk] = INNER_EXITED;
                zone.reset(self.s_clock[pk], 0);
            }
        }
        // Pairs where `ei` is the outer entity.
        if ei < self.spec.pairs.len() {
            match state[ei] {
                EMBEDDED => {
                    return Err(ViolationKind::ExitUncovered { pair: ei }.violation(None, None));
                }
                INNER_EXITED => {
                    let lag_short = Atom {
                        clock: self.s_clock[ei],
                        rel: Rel::Lt,
                        ticks: self.spec.pairs[ei].t_min_safe,
                    };
                    if lag_short.satisfiable_in(zone) {
                        let mut witness = zone.clone();
                        lag_short.apply_and_close(&mut witness);
                        return Err(
                            ViolationKind::ExitLag { pair: ei }.violation(None, Some(witness))
                        );
                    }
                    state[ei] = IDLE;
                }
                _ => {
                    state[ei] = IDLE;
                }
            }
        }
        Ok(())
    }
}

impl Monitor for PteMonitor<'_> {
    fn clock_names(&self) -> &[String] {
        &self.clock_names
    }

    fn initial_state(&self) -> MonitorState {
        vec![IDLE; self.spec.pairs.len()]
    }

    /// The observer compares `r_i` downward against `T^min_risky` (enter
    /// lead) and upward against the Rule-1 bound, and `s_k` downward
    /// against `T^min_safe`, so the LU split mirrors those directions.
    fn fold_bounds(&self, kmax: &mut [i64], lu: &mut LuBounds) {
        for (ei, &c) in self.r_clock.iter().enumerate() {
            let mut k = self.spec.rule1_ticks[ei];
            lu.fold_lower(c, self.spec.rule1_ticks[ei]);
            if ei < self.spec.pairs.len() {
                k = k.max(self.spec.pairs[ei].t_min_risky);
                lu.fold_upper(c, self.spec.pairs[ei].t_min_risky);
            }
            kmax[c] = k;
        }
        for (pk, &c) in self.s_clock.iter().enumerate() {
            kmax[c] = self.spec.pairs[pk].t_min_safe;
            lu.fold_upper(c, self.spec.pairs[pk].t_min_safe);
        }
    }

    fn on_transition(
        &self,
        ctx: &TransitionCtx<'_>,
        state: &mut MonitorState,
        zone: &mut Dbm,
    ) -> Result<(), MonitorViolation> {
        let Some(ei) = self.aut_entity[ctx.aut] else {
            return Ok(());
        };
        let src_risky = self.risky(ctx.aut, ctx.src);
        let dst_risky = self.risky(ctx.aut, ctx.dst);
        if !src_risky && dst_risky {
            self.observe_enter(ei, ctx, state, zone)
        } else if src_risky && !dst_risky {
            self.observe_exit(ei, state, zone)
        } else {
            Ok(())
        }
    }

    /// `r_i` is only ever read while entity `i` is risky (it is reset on
    /// entry), and `s_k` only in the pair's `InnerExited` lag phase
    /// (reset on entry) — elsewhere they are dead.
    fn reduce_activity(&self, locs: &[u32], state: &MonitorState, zone: &mut Dbm) {
        for (ei, &ai) in self.entity_aut.iter().enumerate() {
            if !self.risky(ai, locs[ai] as usize) {
                zone.free(self.r_clock[ei]);
            }
        }
        for (pk, &c) in self.s_clock.iter().enumerate() {
            if state[pk] != INNER_EXITED {
                zone.free(c);
            }
        }
    }

    fn check_settled(
        &self,
        locs: &[u32],
        _state: &MonitorState,
        zone: &Dbm,
    ) -> Result<(), MonitorViolation> {
        // Rule 1 on the delay-closed zone: can any risky entity dwell
        // beyond its bound?
        for (ei, &ai) in self.entity_aut.iter().enumerate() {
            if !self.risky(ai, locs[ai] as usize) {
                continue;
            }
            let over = Atom {
                clock: self.r_clock[ei],
                rel: Rel::Gt,
                ticks: self.spec.rule1_ticks[ei],
            };
            if over.satisfiable_in(zone) {
                let mut witness = zone.clone();
                over.apply_and_close(&mut witness);
                return Err(ViolationKind::Rule1 { entity: ei }.violation(
                    Some(format!(
                        "dwell risky beyond the Rule-1 bound ({} ticks)",
                        self.spec.rule1_ticks[ei]
                    )),
                    Some(witness),
                ));
            }
        }
        // State-level coverage: an inner entity risky while its outer
        // entity is not.
        for pk in 0..self.spec.pairs.len() {
            let outer = self.entity_aut[pk];
            let inner = self.entity_aut[pk + 1];
            if self.risky(inner, locs[inner] as usize) && !self.risky(outer, locs[outer] as usize) {
                return Err(ViolationKind::Coverage { pair: pk }.violation(None, None));
            }
        }
        Ok(())
    }

    /// Structure: which entities (and their automaton/clock layout) the
    /// observer watches. Constants by weakening direction: a *larger*
    /// Rule-1 bound weakens (`r > bound` harder to satisfy), a
    /// *smaller* `T^min_risky`/`T^min_safe` weakens (`r < margin` /
    /// `s < margin` harder to satisfy); Coverage and ExitUncovered are
    /// constant-free. So a proof transfers exactly to relaxed-safeguard
    /// re-verifications.
    fn warm_profile(&self) -> Option<WarmProfile> {
        let mut d = Digest::new();
        d.write_str("pte-observer");
        d.write_u64(self.spec.entities.len() as u64);
        for (name, &ai) in self.spec.entities.iter().zip(&self.entity_aut) {
            d.write_str(name);
            d.write_u64(ai as u64);
        }
        d.write_u64(self.spec.pairs.len() as u64);
        for name in &self.clock_names {
            d.write_str(name);
        }
        let mut weaken_upper = Vec::with_capacity(self.spec.pairs.len() * 2);
        weaken_upper.extend(self.spec.pairs.iter().map(|p| p.t_min_risky));
        weaken_upper.extend(self.spec.pairs.iter().map(|p| p.t_min_safe));
        Some(WarmProfile {
            structure: d.finish(),
            weaken_lower: self.spec.rule1_ticks.clone(),
            weaken_upper,
        })
    }
}

// ---------------------------------------------------------------------------
// Location reachability as a monitor
// ---------------------------------------------------------------------------

/// A monitor with no clocks and no state that flags when any target
/// location is entered (or occupied in a settled state): composing it
/// with a network turns the safety engine into a reachability checker,
/// and the reported "counter-example" is a witness trace.
pub struct LocationReachMonitor {
    clock_names: Vec<String>,
    /// `(automaton, location, label)` targets, in query order.
    targets: Vec<(usize, usize, String)>,
}

impl LocationReachMonitor {
    /// Resolves `(automaton name, location name-prefix)` queries against
    /// the network. A prefix match absorbs the lowering's folded-mode
    /// suffixes (`"Lease xi1"` matches `"Lease xi1 [approval_bad=0]"`).
    pub fn new(net: &TaNetwork, queries: &[(&str, &str)]) -> Result<LocationReachMonitor, String> {
        let mut targets = Vec::new();
        for (aut_name, loc_prefix) in queries {
            let ai = net
                .automaton_by_name(aut_name)
                .ok_or_else(|| format!("automaton `{aut_name}` not found in network"))?;
            let mut found = false;
            for (li, loc) in net.automata[ai].locations.iter().enumerate() {
                if loc.name.starts_with(loc_prefix) {
                    targets.push((ai, li, format!("{aut_name}.{}", loc.name)));
                    found = true;
                }
            }
            if !found {
                return Err(format!(
                    "no location of `{aut_name}` starts with `{loc_prefix}`"
                ));
            }
        }
        Ok(LocationReachMonitor {
            clock_names: Vec::new(),
            targets,
        })
    }
}

impl Monitor for LocationReachMonitor {
    fn clock_names(&self) -> &[String] {
        &self.clock_names
    }

    fn initial_state(&self) -> MonitorState {
        Vec::new()
    }

    fn fold_bounds(&self, _kmax: &mut [i64], _lu: &mut LuBounds) {}

    fn on_transition(
        &self,
        ctx: &TransitionCtx<'_>,
        _state: &mut MonitorState,
        _zone: &mut Dbm,
    ) -> Result<(), MonitorViolation> {
        for (ti, (ai, li, label)) in self.targets.iter().enumerate() {
            if *ai == ctx.aut && *li == ctx.dst {
                return Err(MonitorViolation {
                    class: 0,
                    index: ti as u32,
                    message: format!("location `{label}` is reachable"),
                    trace_note: None,
                    witness: None,
                });
            }
        }
        Ok(())
    }

    fn reduce_activity(&self, _locs: &[u32], _state: &MonitorState, _zone: &mut Dbm) {}

    fn check_settled(
        &self,
        locs: &[u32],
        _state: &MonitorState,
        _zone: &Dbm,
    ) -> Result<(), MonitorViolation> {
        for (ti, (ai, li, label)) in self.targets.iter().enumerate() {
            if locs[*ai] as usize == *li {
                return Err(MonitorViolation {
                    class: 0,
                    index: ti as u32,
                    message: format!("location `{label}` is reachable"),
                    trace_note: None,
                    witness: None,
                });
            }
        }
        Ok(())
    }

    /// Reachability has no tunable constants: the profile is the target
    /// set itself, so a proof transfers iff the targets are identical.
    fn warm_profile(&self) -> Option<WarmProfile> {
        let mut d = Digest::new();
        d.write_str("location-reach");
        d.write_u64(self.targets.len() as u64);
        for (ai, li, label) in &self.targets {
            d.write_u64(*ai as u64);
            d.write_u64(*li as u64);
            d.write_str(label);
        }
        Some(WarmProfile {
            structure: d.finish(),
            weaken_lower: Vec::new(),
            weaken_upper: Vec::new(),
        })
    }
}
