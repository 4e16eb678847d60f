//! The model semantics the zone search explores: the settled successors
//! of one symbolic state of a [`TaNetwork`] composed with a safety
//! [`Monitor`].
//!
//! A state is a location vector plus the monitor's observer state (its
//! discrete [`Key`]) plus a canonical zone over every clock, the
//! network's clocks first and the observer clocks above them. One step
//! fires a spontaneous or external edge, resolves the emission cascade
//! it starts (every receiver's drop, deliver or ignore fate, and an
//! urgent escape from every sub-zone beyond the invariant of a location
//! that has one), and *cooks* each state the cascade settles: delay
//! within the invariants, the monitor's and the activity masks'
//! dead-clock frees, the caller's subsumption probe, extrapolation and
//! the monitor's settled check. Every cooked state is a [`Successor`]
//! or a [`Violation`].
//!
//! [`Semantics`] spawns nothing and holds nothing mutable.
//! [`Semantics::initial`] and [`Semantics::successors`] hand each
//! result to the caller's sink, draw zones from the caller's
//! [`DbmPool`] and tally into the caller's [`LocalStats`]. The probe is
//! the caller's pre-extrapolation subsumption test, a statically
//! dispatched callback (`|_, _| false` without a passed list). A
//! violation on one edge never hides another edge's violations or
//! successors. Within one edge's cascade it does: the first violation
//! returns through `?` from `deliver_fates` or `resolve`, so the fate
//! branches after it are never tried and the states settled before it
//! are not cooked. The branch order is fixed, so what a state yields
//! depends on the state and the probe alone.
//!
//! ## Hot-path engineering
//!
//! * **Stutters are counted, not built** — most firings in a
//!   compositional pair network, and one per settled state of every
//!   leased registry arm (the supervisor's environment-approval
//!   self-loop), are [silent](Semantics::silent) and only re-derive the
//!   firing state, which its own passed zone covers
//!   ([`Semantics::stutter_cover`]). Such a firing yields nothing and is
//!   tallied as its expansion would count: a transition, a subsumed
//!   successor and a stutter. Debug builds still fire every counted
//!   edge and assert those tallies. Stutters deeper in a cascade are
//!   still built.
//! * **A lean emission cascade** — receive tables are sorted by root,
//!   so one emission collects its receivers as slices in one `Vec`;
//!   the drop fate, always a receiver's last branch, takes the work
//!   item instead of a clone; and a work item with no urgent escape to
//!   fire settles in place within the invariants, while the escape
//!   check reads only locations that have an urgent edge.
//! * **Closure that only redoes what changed** — no per-state step
//!   runs a full O(n³) Floyd–Warshall: guards and urgent splits tighten
//!   one entry at a time ([`crate::ta::Atom::apply_and_close`] →
//!   [`Dbm::close1`], O(n²)), delay conjoins all location invariants
//!   after `up()` in one pass ([`Dbm::constrain_upper_and_close`]), and
//!   extrapolation relaxes only the entries it loosened (O(n·k)). Each
//!   yields the unique canonical form a full closure would, so results
//!   are bit-identical.
//! * **Interned plumbing** — actions are fixed-size [`Act`] codes,
//!   rendered only for a counter-example ([`Semantics::render_step`]),
//!   and event roots are `u16` ids with per-`(automaton, location)`
//!   dispatch tables instead of edge scans.

use crate::analysis::ActivityMasks;
use crate::dbm::{Dbm, DbmPool};
use crate::monitor::{Monitor, MonitorState, MonitorViolation, TransitionCtx};
use crate::reach::{Extrapolation, SearchStats, SymbolicCounterExample};
use crate::ta::{LuBounds, Sync, TaNetwork};
use pte_hybrid::Root;
use std::collections::{HashMap, VecDeque};

/// Discrete part of a product state: the network's location vector plus
/// the monitor's observer state.
pub(crate) type Key = (Vec<u32>, MonitorState);

/// One step of a discrete action, as a fixed-size code: automata by
/// index, event roots by interned id. The derived `Ord` is the
/// content-defined tie-break order of a step's actions.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub(crate) enum Act {
    /// The seed state.
    Initial,
    /// Edge `eid` of automaton `aut` fired.
    Edge { aut: u16, eid: u16 },
    /// Event `root` delivered to `aut`.
    Deliver { root: u16, aut: u16 },
    /// Event `root` dropped by the wireless hop / ignored by `aut`.
    Lost { root: u16, aut: u16 },
    /// Event `root` ignored by `aut` on the sub-zone where its single
    /// guarded edge is disabled.
    GuardOff { root: u16, aut: u16 },
    /// Event `root` possibly ignored by `aut` (over-approximated fate
    /// when several guarded reliable edges compete).
    MaybeIgnored { root: u16, aut: u16 },
    /// `aut`'s location invariant expired, forcing an urgent escape.
    InvariantExpired { aut: u16 },
}

/// A cooked successor: delay-closed, activity-reduced, extrapolated and
/// observer-checked — everything except admission. It carries the key
/// *content*, not an id, so a caller can admit in content-defined order.
pub(crate) struct Successor {
    pub(crate) key: Key,
    pub(crate) zone: Dbm,
    /// The step's action codes.
    pub(crate) acts: Vec<Act>,
}

/// A monitor violation with the context a counter-example needs: the
/// action codes of the violating step and the violating (sub-)zone.
pub(crate) struct Violation {
    mv: MonitorViolation,
    acts: Vec<Act>,
    zone: Dbm,
}

impl Violation {
    /// Packages `mv` with the step's actions and the monitor's witness
    /// sub-zone when it tightened one, `zone` otherwise.
    fn new(mut mv: MonitorViolation, acts: &[Act], zone: &Dbm) -> Box<Violation> {
        let zone = mv.witness.take().unwrap_or_else(|| zone.clone());
        Box::new(Violation {
            mv,
            acts: acts.to_vec(),
            zone,
        })
    }
}

/// What one firing hands the caller's sink, once per cooked state.
pub(crate) type Yield = Result<Successor, Box<Violation>>;

/// One worker's tallies, merged into [`SearchStats`] at round barriers.
#[derive(Default)]
pub(crate) struct LocalStats {
    pub(crate) transitions: usize,
    /// Successors dropped by the pre-extrapolation subsumption probe.
    pub(crate) subsumed: usize,
    /// Silent self-loop firings counted without expansion.
    pub(crate) stutters: usize,
}

impl LocalStats {
    /// Adds these tallies to `stats`.
    pub(crate) fn fold_into(&self, stats: &mut SearchStats) {
        stats.transitions += self.transitions;
        stats.subsumed += self.subsumed;
        stats.stutters += self.stutters;
    }
}

/// Maximum zero-time cascade depth (urgent chains + deliveries) before
/// a state settles as-is; prevents pathological recursion on malformed
/// inputs.
const CASCADE_DEPTH: usize = 128;

/// One receiving edge in a location's dispatch table.
#[derive(Clone, Copy)]
struct RecvEdge {
    /// Interned root id this edge listens for.
    root: u16,
    /// Edge index within the owning automaton.
    eid: u32,
    /// `true` for lossy wireless receives.
    lossy: bool,
}

/// In-flight resolution work: a state mid-cascade (pending emissions not
/// yet assigned a fate) with the actions taken so far this step.
struct Work {
    locs: Vec<u32>,
    mon: MonitorState,
    zone: Dbm,
    /// In-flight emissions: `(sender automaton, interned root id)` —
    /// the sender is excluded from delivery (the executor never
    /// self-delivers).
    queue: VecDeque<(u32, u16)>,
    acts: Vec<Act>,
}

impl Work {
    /// Clones this work item, drawing the zone copy from `pool`.
    fn clone_via(&self, pool: &mut DbmPool) -> Work {
        Work {
            locs: self.locs.clone(),
            mon: self.mon.clone(),
            zone: pool.clone_dbm(&self.zone),
            queue: self.queue.clone(),
            acts: self.acts.clone(),
        }
    }
}

/// The step semantics of a network composed with a monitor: dispatch
/// tables and extrapolation bounds, built once per search.
pub(crate) struct Semantics<'s> {
    /// The lowered network; the monitor's observer clocks live in the
    /// DBM dimensions above [`TaNetwork::clock_count`].
    pub(crate) net: &'s TaNetwork,
    /// The composed safety monitor (see [`crate::monitor`]).
    monitor: &'s dyn Monitor,
    /// Total clock count (network + observer clocks).
    pub(crate) nclocks: usize,
    /// `Extra_M` ceiling vector (network + monitor constants).
    kmax: Vec<i64>,
    /// `Extra_LU` bound vectors (network + monitor constants).
    lu: LuBounds,
    extrapolation: Extrapolation,
    /// Interned event roots (`Act`/queue ids index into this).
    roots: Vec<Root>,
    /// `spont[ai][loc]` — spontaneous/external edges leaving `loc`.
    spont: Vec<Vec<Vec<u32>>>,
    /// `urgent[ai][loc]` — urgent escape edges leaving `loc`.
    urgent: Vec<Vec<Vec<u32>>>,
    /// `recv[ai][loc]` — receiving edges leaving `loc`, sorted by root
    /// id and, within one root, in edge order
    /// ([`Semantics::receivers_in`]).
    recv: Vec<Vec<Vec<RecvEdge>>>,
    /// `emit_ids[ai][eid]` — interned roots the edge emits.
    emit_ids: Vec<Vec<Vec<u16>>>,
    /// `bare_loop[ai][eid]` — the edge is a self-loop with no guard and
    /// no resets whose emissions fit one cascade: the shape of a silent
    /// firing ([`Semantics::silent`]).
    bare_loop: Vec<Vec<bool>>,
    /// Per-location dead-clock masks over the network's clock space, or
    /// `None` to free none.
    masks: Option<&'s ActivityMasks>,
}

impl<'s> Semantics<'s> {
    /// Builds the dispatch tables and extrapolation bounds of `net`
    /// composed with `monitor`, freeing the dead clocks of `masks`
    /// (which must be over `net`'s clock space). Returns an error when
    /// the composed system exceeds the engine's size limits.
    pub(crate) fn new(
        net: &'s TaNetwork,
        monitor: &'s dyn Monitor,
        extrapolation: Extrapolation,
        masks: Option<&'s ActivityMasks>,
    ) -> Result<Semantics<'s>, String> {
        let nclocks = net.clock_count() + monitor.clock_names().len();
        // `Act` codes and interned root ids index automata/edges/roots
        // with u16, and the minimal constraint form ([`Dbm::reduce`])
        // indexes clocks with u8; reject (rather than silently truncate)
        // networks beyond those bounds, far past anything the lowering
        // produces.
        if net.automata.len() > u16::MAX as usize
            || net
                .automata
                .iter()
                .any(|a| a.edges.len() > u16::MAX as usize)
        {
            return Err(
                "network too large: more than 65535 automata or edges per automaton".into(),
            );
        }
        if nclocks + 1 > u8::MAX as usize {
            return Err(format!(
                "network too large: {nclocks} clocks (incl. observer clocks) exceed the \
                 254-clock limit of the compressed passed list"
            ));
        }

        // Maximal constants: network constants plus whatever the
        // monitor's guards compare its clocks against.
        let mut kmax = net.max_constants();
        kmax.resize(nclocks + 1, 0);
        let mut lu = net.lu_bounds();
        lu.lower.resize(nclocks + 1, 0);
        lu.upper.resize(nclocks + 1, 0);
        monitor.fold_bounds(&mut kmax, &mut lu);

        // Intern every event root in deterministic first-seen order over
        // the network. Roots accumulate *across* automata, so their count
        // is bounded separately from the per-automaton edge guard above.
        let mut roots: Vec<Root> = Vec::new();
        let mut root_ids: HashMap<Root, u16> = HashMap::new();
        for aut in &net.automata {
            for e in &aut.edges {
                for r in e.sync.root().into_iter().chain(e.emits.iter()) {
                    if root_ids.contains_key(r) {
                        continue;
                    }
                    if roots.len() > u16::MAX as usize {
                        return Err(
                            "network too large: more than 65536 distinct event roots".to_string()
                        );
                    }
                    root_ids.insert(r.clone(), roots.len() as u16);
                    roots.push(r.clone());
                }
            }
        }

        // Per-(automaton, location) dispatch tables replacing
        // per-expansion edge scans.
        let mut spont = Vec::with_capacity(net.automata.len());
        let mut urgent = Vec::with_capacity(net.automata.len());
        let mut recv = Vec::with_capacity(net.automata.len());
        let mut emit_ids = Vec::with_capacity(net.automata.len());
        let mut bare_loop = Vec::with_capacity(net.automata.len());
        for aut in &net.automata {
            let nloc = aut.locations.len();
            let mut sp = vec![Vec::new(); nloc];
            let mut ur = vec![Vec::new(); nloc];
            let mut rc: Vec<Vec<RecvEdge>> = vec![Vec::new(); nloc];
            let mut em = Vec::with_capacity(aut.edges.len());
            let mut bl = Vec::with_capacity(aut.edges.len());
            for (eid, e) in aut.edges.iter().enumerate() {
                match &e.sync {
                    Sync::None | Sync::External(_) => sp[e.src].push(eid as u32),
                    Sync::Reliable(r) | Sync::Lossy(r) => rc[e.src].push(RecvEdge {
                        root: root_ids[r],
                        eid: eid as u32,
                        lossy: matches!(e.sync, Sync::Lossy(_)),
                    }),
                }
                if e.urgent {
                    ur[e.src].push(eid as u32);
                }
                em.push(e.emits.iter().map(|r| root_ids[r]).collect::<Vec<u16>>());
                bl.push(
                    e.src == e.dst
                        && e.guard.is_empty()
                        && e.resets.is_empty()
                        && e.emits.len() <= CASCADE_DEPTH,
                );
            }
            // A stable sort keeps edge order within each root, the order
            // the delivery fates branch in.
            for table in &mut rc {
                table.sort_by_key(|re| re.root);
            }
            spont.push(sp);
            urgent.push(ur);
            recv.push(rc);
            emit_ids.push(em);
            bare_loop.push(bl);
        }

        Ok(Semantics {
            net,
            monitor,
            nclocks,
            kmax,
            lu,
            extrapolation,
            roots,
            spont,
            urgent,
            recv,
            emit_ids,
            bare_loop,
            masks,
        })
    }

    /// Yields the settled successors of the initial state: every
    /// automaton in its initial location, the monitor's initial state,
    /// every clock zero, and the one action `initial state`.
    pub(crate) fn initial(
        &self,
        probe: &impl Fn(&Key, &Dbm) -> bool,
        local: &mut LocalStats,
        pool: &mut DbmPool,
        out: &mut impl FnMut(Yield),
    ) {
        let init = Work {
            locs: self.net.automata.iter().map(|a| a.initial as u32).collect(),
            mon: self.monitor.initial_state(),
            zone: Dbm::zero(self.nclocks),
            queue: VecDeque::new(),
            acts: vec![Act::Initial],
        };
        self.settle(init, probe, local, pool, out);
    }

    /// Yields the settled successors of the settled state `(key, zone)`:
    /// every spontaneous or external edge fired in automaton order, then
    /// edge order. A [silent](Semantics::silent) firing that `zone`
    /// covers ([`Semantics::stutter_cover`], computed at most once per
    /// state) yields nothing and is tallied as a stutter.
    pub(crate) fn successors(
        &self,
        key: &Key,
        zone: &Dbm,
        probe: &impl Fn(&Key, &Dbm) -> bool,
        local: &mut LocalStats,
        pool: &mut DbmPool,
        out: &mut impl FnMut(Yield),
    ) {
        let mut cover = None;
        for ai in 0..self.net.automata.len() {
            let loc = key.0[ai] as usize;
            for &eid in &self.spont[ai][loc] {
                let eid = eid as usize;
                if self.silent(&key.0, ai, eid) {
                    if let Some(settles) =
                        *cover.get_or_insert_with(|| self.stutter_cover(key, zone, pool))
                    {
                        local.transitions += 1;
                        local.subsumed += usize::from(settles);
                        local.stutters += 1;
                        #[cfg(debug_assertions)]
                        self.assert_stutter(key, zone, ai, eid, settles, pool);
                        continue;
                    }
                }
                self.fire(key, zone, ai, eid, probe, local, pool, out);
            }
        }
    }

    /// Fires edge `eid` of automaton `ai` from the settled state
    /// `(key, zone)` and yields what its cascade settles, cooked.
    #[allow(clippy::too_many_arguments)]
    fn fire(
        &self,
        key: &Key,
        zone: &Dbm,
        ai: usize,
        eid: usize,
        probe: &impl Fn(&Key, &Dbm) -> bool,
        local: &mut LocalStats,
        pool: &mut DbmPool,
        out: &mut impl FnMut(Yield),
    ) {
        // Guards are pre-tested atom-by-atom on the source zone, skipping
        // the Work clone entirely when any single atom is unsatisfiable
        // (necessary condition; the joint conjunction is still checked
        // by apply_edge).
        let guard = &self.net.automata[ai].edges[eid].guard;
        if guard.iter().any(|a| !a.satisfiable_in(zone)) {
            return;
        }
        let mut w = Work {
            locs: key.0.clone(),
            mon: key.1.clone(),
            zone: pool.clone_dbm(zone),
            queue: VecDeque::new(),
            acts: Vec::new(),
        };
        match self.apply_edge(&mut w, ai, eid, local) {
            Ok(true) => self.settle(w, probe, local, pool, out),
            Ok(false) => pool.recycle(w.zone),
            Err(v) => {
                out(Err(v));
                pool.recycle(w.zone);
            }
        }
    }

    /// Resolves `w`'s cascade and cooks every state it settles, unless
    /// the cascade meets a violation: then that violation is all it
    /// yields.
    fn settle(
        &self,
        w: Work,
        probe: &impl Fn(&Key, &Dbm) -> bool,
        local: &mut LocalStats,
        pool: &mut DbmPool,
        out: &mut impl FnMut(Yield),
    ) {
        let mut settled = Vec::new();
        if let Err(v) = self.resolve(w, 0, &mut settled, local, pool) {
            out(Err(v));
            return;
        }
        for s in settled {
            self.cook(s, probe, local, pool, out);
        }
    }

    /// Whether firing edge `eid` of automaton `ai` in the locations
    /// `locs` is silent: the edge is a bare self-loop (no guard, no
    /// resets) and no other automaton has a receiving edge, in its
    /// current location, for any root the edge emits.
    fn silent(&self, locs: &[u32], ai: usize, eid: usize) -> bool {
        self.bare_loop[ai][eid]
            && self.emit_ids[ai][eid].iter().all(|&root| {
                locs.iter()
                    .enumerate()
                    .all(|(aj, &l)| aj == ai || self.receivers_in(aj, l, root).is_empty())
            })
    }

    /// Whether a silent firing from `(key, zone)` may be counted instead
    /// of fired: `Some(settles)` when firing it would yield exactly one
    /// transition, no violation and no successor outside `zone`,
    /// `settles` telling whether it settles a successor at all; `None`
    /// when it must be fired.
    ///
    /// The firing re-derives the state itself: the monitor ignores a
    /// self-loop from an admitted state (the self-loop contract of
    /// [`Monitor::on_transition`]), every emission is lost with no fate
    /// to branch on, and `resolve` settles `zone` within the location
    /// invariants, unless some sub-zone beyond them must take an urgent
    /// escape ([`Semantics::has_escape`]; extrapolation can widen a zone
    /// past an invariant, so this is not vacuous). `cook` then applies
    /// its pre-probe steps ([`Semantics::delay_and_free`]) under the
    /// state's own key; when the result lies inside `zone`, the state's
    /// own passed zone covers it.
    fn stutter_cover(&self, key: &Key, zone: &Dbm, pool: &mut DbmPool) -> Option<bool> {
        if self.has_escape(&key.0, zone) {
            return None;
        }
        let mut z = pool.clone_dbm(zone);
        let cover = if !self.apply_invariants(&key.0, &mut z)
            || !self.delay_and_free(&key.0, &key.1, &mut z)
        {
            Some(false)
        } else if zone.includes(&z) {
            Some(true)
        } else {
            None
        };
        pool.recycle(z);
        cover
    }

    /// Debug builds fire every counted silent edge through
    /// [`Semantics::fire`], with scratch tallies and a probe that is the
    /// state's own zone: no violation, exactly one transition, and only
    /// successors that probe drops, as many as were counted.
    #[cfg(debug_assertions)]
    fn assert_stutter(
        &self,
        key: &Key,
        zone: &Dbm,
        ai: usize,
        eid: usize,
        settles: bool,
        pool: &mut DbmPool,
    ) {
        let mut scratch = LocalStats::default();
        let own = |k: &Key, z: &Dbm| k == key && zone.includes(z);
        let mut sink = |y: Yield| match y {
            Ok(_) => panic!("a stutter's successor is dropped before admission"),
            Err(_) => panic!("a silent self-loop fires without a violation"),
        };
        self.fire(key, zone, ai, eid, &own, &mut scratch, pool, &mut sink);
        assert_eq!(
            scratch.transitions, 1,
            "a silent self-loop is one transition"
        );
        assert_eq!(
            scratch.subsumed,
            usize::from(settles),
            "the probe drops exactly the counted successors"
        );
    }

    /// Fires edge `eid` of automaton `ai` on `w` in place: guard
    /// restriction (incremental closure — the zone stays canonical
    /// throughout, no Floyd–Warshall), monitor transition checks,
    /// resets, location move, emission enqueue. `Ok(false)` when the
    /// guard is unsatisfiable (the caller recycles `w.zone`).
    fn apply_edge(
        &self,
        w: &mut Work,
        ai: usize,
        eid: usize,
        local: &mut LocalStats,
    ) -> Result<bool, Box<Violation>> {
        let edge = &self.net.automata[ai].edges[eid];
        for atom in &edge.guard {
            if !atom.apply_and_close(&mut w.zone) {
                return Ok(false);
            }
        }
        local.transitions += 1;
        w.acts.push(Act::Edge {
            aut: ai as u16,
            eid: eid as u16,
        });

        // Monitor observation: guard applied, resets and location move
        // still pending (`ctx.locs` shows the pre-move vector).
        let ctx = TransitionCtx {
            net: self.net,
            aut: ai,
            src: edge.src,
            dst: edge.dst,
            locs: &w.locs,
        };
        if let Err(mv) = self.monitor.on_transition(&ctx, &mut w.mon, &mut w.zone) {
            return Err(Violation::new(mv, &w.acts, &w.zone));
        }

        for (clock, v) in &edge.resets {
            w.zone.reset(*clock, *v);
        }
        w.locs[ai] = edge.dst as u32;
        for &rid in &self.emit_ids[ai][eid] {
            w.queue.push_back((ai as u32, rid));
        }
        Ok(true)
    }

    /// Assigns a delivery fate to receiver `idx` of an in-flight event
    /// and recurses over the remaining receivers (in automaton order,
    /// matching the executor's broadcast order), producing the full
    /// cartesian product of per-receiver fates:
    ///
    /// * every enabled receiving edge is a *delivered* branch;
    /// * a **lossy** receiver can always *drop* instead;
    /// * a **reliable** receiver only ignores the event where no edge of
    ///   its is enabled — exact via guard-atom negation for a single
    ///   guarded edge, conservatively over-approximated (full-zone
    ///   ignore, which can only add behaviours, never hide one) when
    ///   several guarded edges compete.
    ///
    /// The drop fate is always a receiver's last branch, so it takes `w`
    /// itself; every other branch works on a clone.
    #[allow(clippy::too_many_arguments)]
    fn deliver_fates(
        &self,
        mut w: Work,
        root: u16,
        receivers: &[(usize, &[RecvEdge])],
        idx: usize,
        depth: usize,
        out: &mut Vec<Work>,
        local: &mut LocalStats,
        pool: &mut DbmPool,
    ) -> Result<(), Box<Violation>> {
        if idx == receivers.len() {
            return self.resolve(w, depth + 1, out, local, pool);
        }
        let (ai, edges) = receivers[idx];
        let aut = ai as u16;
        let mut any_delivered = false;
        for re in edges {
            let mut branch = w.clone_via(pool);
            branch.acts.push(Act::Deliver { root, aut });
            if self.apply_edge(&mut branch, ai, re.eid as usize, local)? {
                any_delivered = true;
                self.deliver_fates(branch, root, receivers, idx + 1, depth, out, local, pool)?;
            } else {
                pool.recycle(branch.zone);
            }
        }
        // Any lossy receiving edge means the wireless hop itself can drop
        // the message (also the conservative fate when an automaton mixes
        // lossy and reliable edges on one root, which the pattern never
        // does); a purely reliable receiver only misses the event where
        // none of its edges is enabled.
        if edges.iter().any(|re| re.lossy) || !any_delivered {
            // Drop (lossy) or discard (reliable but nowhere enabled).
            w.acts.push(Act::Lost { root, aut });
            return self.deliver_fates(w, root, receivers, idx + 1, depth, out, local, pool);
        }
        // Reliable and at least one edge delivered somewhere in the zone:
        // the event is still ignored on the sub-zone where no edge is
        // enabled. An unguarded reliable edge is always enabled, so no
        // ignore fate exists then.
        let guard = |re: &RecvEdge| &self.net.automata[ai].edges[re.eid as usize].guard;
        if edges.iter().all(|re| !guard(re).is_empty()) {
            if let [only] = edges {
                // Exact complement: one guarded edge, branch per negated
                // guard atom.
                for atom in guard(only) {
                    let mut branch = w.clone_via(pool);
                    if !atom.negated().apply_and_close(&mut branch.zone) {
                        pool.recycle(branch.zone);
                        continue;
                    }
                    branch.acts.push(Act::GuardOff { root, aut });
                    self.deliver_fates(branch, root, receivers, idx + 1, depth, out, local, pool)?;
                }
            } else {
                // Several guarded reliable edges: over-approximate with a
                // full-zone ignore branch (sound for Safe verdicts).
                let mut branch = w.clone_via(pool);
                branch.acts.push(Act::MaybeIgnored { root, aut });
                self.deliver_fates(branch, root, receivers, idx + 1, depth, out, local, pool)?;
            }
        }
        pool.recycle(w.zone);
        Ok(())
    }

    /// The receiving edges of automaton `ai` in location `loc` that
    /// listen for `root`, in edge order: one run of the root-sorted
    /// dispatch table.
    fn receivers_in(&self, ai: usize, loc: u32, root: u16) -> &[RecvEdge] {
        let table = &self.recv[ai][loc as usize];
        let start = table.partition_point(|re| re.root < root);
        let len = table[start..].partition_point(|re| re.root == root);
        &table[start..start + len]
    }

    /// Resolves pending emissions (branching on delivery fates) and
    /// invariant-expired sub-zones (firing urgent escapes), collecting
    /// fully settled states.
    fn resolve(
        &self,
        mut w: Work,
        depth: usize,
        out: &mut Vec<Work>,
        local: &mut LocalStats,
        pool: &mut DbmPool,
    ) -> Result<(), Box<Violation>> {
        if depth > CASCADE_DEPTH {
            out.push(w);
            return Ok(());
        }
        if let Some((sender, root)) = w.queue.pop_front() {
            // Candidate receivers, one slice of the dispatch table per
            // listening automaton: the executor broadcasts an emission
            // to every listener except the sender (`route_emission`
            // skips `receiver == sender`), and each listener's wireless
            // delivery has its own drop fate.
            let receivers: Vec<(usize, &[RecvEdge])> = w
                .locs
                .iter()
                .enumerate()
                .filter(|&(ai, _)| ai != sender as usize)
                .map(|(ai, &l)| (ai, self.receivers_in(ai, l, root)))
                .filter(|(_, edges)| !edges.is_empty())
                .collect();
            return self.deliver_fates(w, root, &receivers, 0, depth, out, local, pool);
        }

        // No pending events. Without an urgent escape to fire, the work
        // item settles in place, within the invariants.
        if !self.has_escape(&w.locs, &w.zone) {
            if self.apply_invariants(&w.locs, &mut w.zone) {
                out.push(w);
            } else {
                pool.recycle(w.zone);
            }
            return Ok(());
        }
        // Otherwise the sub-zone within the invariants settles first…
        let mut zin = pool.clone_dbm(&w.zone);
        if self.apply_invariants(&w.locs, &mut zin) {
            out.push(Work {
                locs: w.locs.clone(),
                mon: w.mon.clone(),
                zone: zin,
                queue: VecDeque::new(),
                acts: w.acts.clone(),
            });
        } else {
            pool.recycle(zin);
        }
        // …then the sub-zones beyond an invariant of a location with
        // urgent edges take an urgent escape now. (Those beyond the
        // invariant of a location without one have nothing to fire and
        // are dropped.)
        for (ai, aut) in self.net.automata.iter().enumerate() {
            let loc = w.locs[ai] as usize;
            if self.urgent[ai][loc].is_empty() {
                continue;
            }
            for atom in &aut.locations[loc].invariant {
                let mut zout = pool.clone_dbm(&w.zone);
                if !atom.negated().apply_and_close(&mut zout) {
                    pool.recycle(zout);
                    continue;
                }
                for &eid in &self.urgent[ai][loc] {
                    let mut branch = Work {
                        locs: w.locs.clone(),
                        mon: w.mon.clone(),
                        zone: pool.clone_dbm(&zout),
                        queue: w.queue.clone(),
                        acts: w.acts.clone(),
                    };
                    branch.acts.push(Act::InvariantExpired { aut: ai as u16 });
                    if self.apply_edge(&mut branch, ai, eid as usize, local)? {
                        self.resolve(branch, depth + 1, out, local, pool)?;
                    } else {
                        pool.recycle(branch.zone);
                    }
                }
                pool.recycle(zout);
            }
        }
        pool.recycle(w.zone);
        Ok(())
    }

    /// Whether some occupied location with an urgent edge has an
    /// invariant atom whose negation the canonical, non-empty `zone`
    /// satisfies: a sub-zone [`Semantics::resolve`] must send down an
    /// urgent escape.
    fn has_escape(&self, locs: &[u32], zone: &Dbm) -> bool {
        locs.iter().enumerate().any(|(ai, &l)| {
            !self.urgent[ai][l as usize].is_empty()
                && self.net.automata[ai].locations[l as usize]
                    .invariant
                    .iter()
                    .any(|atom| atom.negated().satisfiable_in(zone))
        })
    }

    /// Conjoins the invariants of the locations `locs` onto a canonical
    /// zone; `false` when they empty it. The upper bounds — every
    /// invariant the pattern lowers to — close together in one pass
    /// ([`Dbm::constrain_upper_and_close`]); a lower-bound atom closes
    /// on its own first. The result is the canonical form of the whole
    /// conjunction, so the order is immaterial.
    fn apply_invariants(&self, locs: &[u32], zone: &mut Dbm) -> bool {
        let atoms = || {
            self.net
                .automata
                .iter()
                .zip(locs)
                .flat_map(|(aut, &l)| &aut.locations[l as usize].invariant)
        };
        atoms()
            .filter(|a| a.upper_bound().is_none())
            .all(|a| a.apply_and_close(zone))
            && zone.constrain_upper_and_close(
                atoms().filter_map(|a| Some((a.clock, a.upper_bound()?))),
            )
    }

    /// Cook's steps before its subsumption probe, on a zone settled in
    /// the locations `locs` with observer state `mon`: delay within the
    /// location invariants (unless some occupied location freezes time),
    /// then the monitor's and the static masks' dead-clock frees.
    /// `false` when the invariants empty the zone, which cannot happen
    /// to a zone that satisfied them. [`Semantics::stutter_cover`] runs
    /// the same steps.
    fn delay_and_free(&self, locs: &[u32], mon: &MonitorState, zone: &mut Dbm) -> bool {
        // Delay: up-close within the conjunction of location invariants,
        // unless some occupied location freezes time.
        let frozen = locs
            .iter()
            .enumerate()
            .any(|(ai, &l)| self.net.automata[ai].locations[l as usize].frozen);
        if !frozen {
            zone.up();
            if !self.apply_invariants(locs, zone) {
                return false;
            }
        }
        // Observer-clock activity reduction: the monitor frees whichever
        // of its clocks are dead in this state, collapsing zones that
        // differ only in dead-clock history.
        self.monitor.reduce_activity(locs, mon, zone);
        // …and the same collapse for the network's own clocks, from the
        // static per-location liveness masks. A freed clock is reset
        // before its next read, so no future guard, invariant, or
        // observer constraint can tell the difference.
        if let Some(masks) = self.masks {
            let mut dead = masks.dead_mask(locs);
            while dead != 0 {
                zone.free(dead.trailing_zeros() as usize + 1);
                dead &= dead - 1;
            }
        }
        true
    }

    /// Cooks a settled work item and yields it: delay closure,
    /// dead-clock frees, the subsumption probe, extrapolation, and the
    /// monitor's settled check. Every step keeps the zone canonical and
    /// re-closes only what it changed: the invariants after `up()` in
    /// one pass, extrapolation over just the entries it loosened.
    fn cook(
        &self,
        mut w: Work,
        probe: &impl Fn(&Key, &Dbm) -> bool,
        local: &mut LocalStats,
        pool: &mut DbmPool,
        out: &mut impl FnMut(Yield),
    ) {
        if !self.delay_and_free(&w.locs, &w.mon, &mut w.zone) {
            // Guards against malformed inputs.
            pool.recycle(w.zone);
            return;
        }

        // Early subsumption probe — *before* extrapolation: if the
        // caller's passed list includes the un-extrapolated zone, every
        // concrete behaviour from here is covered by an explored state,
        // and the successor is dropped without paying for
        // extrapolation or admission. Sound for violation reporting
        // too, provided passed zones are violation-free (a cooked zone
        // with a satisfiable violation is yielded as one, never as a
        // successor): the bound sets cover every monitor constant
        // ([`Monitor::fold_bounds`]), so a violation satisfiable in the
        // dropped zone's widening would be satisfiable in the covering
        // passed zone as well.
        let key: Key = (w.locs, w.mon);
        if probe(&key, &w.zone) {
            local.subsumed += 1;
            pool.recycle(w.zone);
            return;
        }

        match self.extrapolation {
            Extrapolation::ExtraM => w.zone.extrapolate(&self.kmax),
            Extrapolation::ExtraLu => w.zone.extrapolate_lu_plus(&self.lu.lower, &self.lu.upper),
        }

        // State-level monitor checks on the delay-closed zone.
        out(match self.monitor.check_settled(&key.0, &key.1, &w.zone) {
            Err(mv) => Err(Violation::new(mv, &w.acts, &w.zone)),
            Ok(()) => Ok(Successor {
                key,
                zone: w.zone,
                acts: w.acts,
            }),
        });
    }

    /// Renders one action code as text.
    fn render_act(&self, a: Act) -> String {
        let root = |r: u16| self.roots[r as usize].as_str();
        let name = |a: u16| &self.net.automata[a as usize].name;
        match a {
            Act::Initial => "initial state".to_string(),
            Act::Edge { aut, eid } => {
                let a = &self.net.automata[aut as usize];
                let edge = &a.edges[eid as usize];
                format!(
                    "{}: {} -> {}{}",
                    a.name,
                    a.locations[edge.src].name,
                    a.locations[edge.dst].name,
                    match &edge.sync {
                        Sync::External(r) => format!(" (on {})", r.as_str()),
                        Sync::Reliable(r) | Sync::Lossy(r) => format!(" (recv {})", r.as_str()),
                        Sync::None => String::new(),
                    }
                )
            }
            Act::Deliver { root: r, aut } => format!("deliver {} to {}", root(r), name(aut)),
            Act::Lost { root: r, aut } => format!("{} lost/ignored by {}", root(r), name(aut)),
            Act::GuardOff { root: r, aut } => {
                format!("{} ignored by {} (guard off)", root(r), name(aut))
            }
            Act::MaybeIgnored { root: r, aut } => {
                format!("{} possibly ignored by {}", root(r), name(aut))
            }
            Act::InvariantExpired { aut } => format!("{} invariant expired", name(aut)),
        }
    }

    /// Renders one step (its action codes) as one `"; "`-joined line.
    pub(crate) fn render_step(&self, acts: &[Act]) -> String {
        acts.iter()
            .map(|&a| self.render_act(a))
            .collect::<Vec<_>>()
            .join("; ")
    }

    /// The counter-example of `v`, reached through the rendered `steps`
    /// of the path before its own step.
    pub(crate) fn counter_example(
        &self,
        mut steps: Vec<String>,
        v: Violation,
    ) -> SymbolicCounterExample {
        // The monitor's trace note (e.g. "dwell risky beyond the Rule-1
        // bound") joins the final step like any other action.
        let mut last = self.render_step(&v.acts);
        if let Some(note) = &v.mv.trace_note {
            if last.is_empty() {
                last = note.clone();
            } else {
                last.push_str("; ");
                last.push_str(note);
            }
        }
        steps.push(last);
        let mut names = self.net.clocks.clone();
        names.extend(self.monitor.clock_names().iter().cloned());
        let rank = v.mv.rank();
        SymbolicCounterExample {
            violation: v.mv.message,
            rank,
            steps,
            zone: v.zone.render(&names),
        }
    }
}
