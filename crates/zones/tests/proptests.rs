//! Property-based laws of the DBM core.
//!
//! Zones are generated by applying random operation sequences to the
//! origin zone — exactly how the reachability engine produces them — so
//! the laws are exercised on representative matrices, not just
//! hand-picked ones.

use proptest::prelude::*;
use pte_zones::dbm::{Bound, Dbm, MinCon, MinimalDbm};

const CLOCKS: usize = 4;

/// One randomized zone operation.
#[derive(Clone, Debug)]
enum Op {
    Up,
    Reset(usize, i64),
    UpperBound(usize, i64),
    LowerBound(usize, i64),
    /// Frees a clock (per-clock scripts only).
    Free(usize),
    /// Conjoins `xa - xb < v` (per-clock scripts only).
    Diagonal(usize, usize, i64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        Just(Op::Up),
        (1usize..=CLOCKS, 0i64..50).prop_map(|(c, v)| Op::Reset(c, v)),
        (1usize..=CLOCKS, 0i64..100).prop_map(|(c, v)| Op::UpperBound(c, v)),
        (1usize..=CLOCKS, 0i64..100).prop_map(|(c, v)| Op::LowerBound(c, v)),
    ];
    proptest::collection::vec(op, 0..12)
}

/// Builds a canonical zone from an op script (may be empty).
fn zone_from(ops: &[Op]) -> Dbm {
    let mut z = Dbm::zero(CLOCKS);
    for op in ops {
        match op {
            Op::Up => z.up(),
            Op::Reset(c, v) => z.reset(*c, *v),
            Op::UpperBound(c, v) => {
                z.constrain(*c, 0, Bound::le(*v));
            }
            Op::LowerBound(c, v) => {
                z.constrain(0, *c, Bound::le(-*v));
            }
            Op::Free(_) | Op::Diagonal(..) => unreachable!("not drawn by ops()"),
        }
        z.canonicalize();
    }
    z
}

/// The widest zones the per-clock laws draw (clock counts `1..=8`).
const MAX_CLOCKS: usize = 8;

/// An op script over a drawn clock count (`1..=MAX_CLOCKS`), for laws
/// that must hold in every dimension; per-clock bound vectors are
/// drawn beside it ([`bounds`]). Clock indices are drawn in
/// `1..=MAX_CLOCKS` and folded onto the script's own clocks.
#[derive(Clone, Debug)]
struct Script {
    clocks: usize,
    ops: Vec<Op>,
}

impl Script {
    /// The script's drawn clock index `c` folded onto its clocks.
    fn clock(&self, c: usize) -> usize {
        (c - 1) % self.clocks + 1
    }

    /// A bound vector for this dimension (entry 0, the reference, is
    /// ignored by the operators and kept at 0).
    fn vector(&self, drawn: &[i64]) -> Vec<i64> {
        let mut v = drawn[..=self.clocks].to_vec();
        v[0] = 0;
        v
    }

    /// The canonical zone the script builds from the origin, including
    /// diagonal constraints and freed clocks.
    fn zone(&self) -> Dbm {
        let mut z = Dbm::zero(self.clocks);
        for op in &self.ops {
            match *op {
                Op::Up => z.up(),
                Op::Reset(c, v) => z.reset(self.clock(c), v),
                Op::UpperBound(c, v) => {
                    z.constrain(self.clock(c), 0, Bound::le(v));
                }
                Op::LowerBound(c, v) => {
                    z.constrain(0, self.clock(c), Bound::le(-v));
                }
                Op::Free(c) => z.free(self.clock(c)),
                Op::Diagonal(a, b, v) => {
                    let (a, b) = (self.clock(a), self.clock(b));
                    if a != b {
                        z.constrain(a, b, Bound::lt(v));
                    }
                }
            }
            z.canonicalize();
            if z.is_empty() {
                break;
            }
        }
        z
    }
}

fn sized() -> impl Strategy<Value = Script> {
    let c = || 1usize..=MAX_CLOCKS;
    let op = prop_oneof![
        Just(Op::Up),
        (c(), 0i64..50).prop_map(|(c, v)| Op::Reset(c, v)),
        (c(), 0i64..100).prop_map(|(c, v)| Op::UpperBound(c, v)),
        (c(), 0i64..100).prop_map(|(c, v)| Op::LowerBound(c, v)),
        c().prop_map(Op::Free),
        (c(), c(), -40i64..40).prop_map(|(a, b, v)| Op::Diagonal(a, b, v)),
    ];
    (c(), proptest::collection::vec(op, 0..16)).prop_map(|(clocks, ops)| Script { clocks, ops })
}

/// Per-clock bound vectors, long enough for the widest script.
fn bounds() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(0i64..60, MAX_CLOCKS + 1)
}

/// A constraint set `reduce` never produces, over a drawn clock count:
/// random constraints `xi - xj ≺ m` (the reference clock and
/// self-loops included, indices folded onto the dimension) plus a
/// cycle whose values sum to zero, so strict zero-weight cycles — empty
/// zones that `Bound`-valued relaxation cannot see — come up often.
#[derive(Clone, Debug)]
struct RawZone {
    clocks: usize,
    cons: Vec<(usize, usize, i64, u8)>,
    cycle: Vec<(usize, i64, u8)>,
}

impl RawZone {
    fn minimal(&self) -> MinimalDbm {
        let d = self.clocks + 1;
        let con = |i: usize, j: usize, m: i64, strict: u8| MinCon {
            i: (i % d) as u8,
            j: (j % d) as u8,
            b: if strict == 1 {
                Bound::lt(m)
            } else {
                Bound::le(m)
            },
        };
        let mut cons: Vec<MinCon> = self
            .cons
            .iter()
            .map(|&(i, j, m, strict)| con(i, j, m, strict))
            .collect();
        if let (Some(&(head, _, _)), Some(&(last, _, strict))) =
            (self.cycle.first(), self.cycle.last())
        {
            let mut sum = 0;
            for w in self.cycle.windows(2) {
                cons.push(con(w[0].0, w[1].0, w[0].1, w[0].2));
                sum += w[0].1;
            }
            cons.push(con(last, head, -sum, strict));
        }
        MinimalDbm::from_parts(d as u8, cons)
    }
}

fn raw_zones() -> impl Strategy<Value = RawZone> {
    let c = || 0usize..=MAX_CLOCKS;
    (
        1usize..=MAX_CLOCKS,
        proptest::collection::vec((c(), c(), -6i64..6, 0u8..2), 0..12),
        proptest::collection::vec((c(), -6i64..6, 0u8..2), 0..5),
    )
        .prop_map(|(clocks, cons, cycle)| RawZone {
            clocks,
            cons,
            cycle,
        })
}

/// Straightforward reference computations the optimized kernels must
/// reproduce entry for entry: each re-derives its result the long way
/// (full Floyd–Warshall closure, explicit equivalence classes).
mod oracle {
    use pte_zones::dbm::{Bound, Dbm, MinCon};

    /// `Extra_LU` (and `Extra_M` with `L = U = M`): apply the per-entry
    /// rules, then close the whole matrix.
    pub fn extra_lu(z: &Dbm, lower: &[i64], upper: &[i64]) -> Dbm {
        let d = z.clocks() + 1;
        let mut out = z.clone();
        for (i, &l) in lower.iter().enumerate().take(d) {
            for (j, &u) in upper.iter().enumerate().take(d) {
                let b = z.get(i, j);
                if i == j || b.is_inf() {
                    continue;
                }
                if i != 0 && b > Bound::le(l) {
                    out.set(i, j, Bound::INF);
                } else if j != 0 && b < Bound::lt(-u) {
                    out.set(i, j, Bound::lt(-u));
                }
            }
        }
        out.canonicalize();
        out
    }

    /// `Extra⁺_LU`: the row/column widening rules read off the
    /// original zone, then a full closure.
    pub fn extra_lu_plus(z: &Dbm, lower: &[i64], upper: &[i64]) -> Dbm {
        let d = z.clocks() + 1;
        let above = |x: usize, k: i64| z.get(0, x) < Bound::le(-k);
        let mut out = z.clone();
        for (i, &l) in lower.iter().enumerate().take(d).skip(1) {
            for (j, &u) in upper.iter().enumerate().take(d) {
                let b = z.get(i, j);
                if i == j || b.is_inf() {
                    continue;
                }
                if b > Bound::le(l) || above(i, l) || (j != 0 && above(j, u)) {
                    out.set(i, j, Bound::INF);
                }
            }
        }
        for (j, &u) in upper.iter().enumerate().take(d).skip(1) {
            if z.get(0, j) < Bound::lt(-u) {
                out.set(0, j, Bound::lt(-u));
            }
        }
        out.canonicalize();
        out
    }

    /// Minimal constraint form with an explicit representative vector
    /// and explicit member lists per zero-equivalence class.
    pub fn reduce(z: &Dbm) -> Vec<MinCon> {
        let d = z.clocks() + 1;
        let con = |i: usize, j: usize| MinCon {
            i: i as u8,
            j: j as u8,
            b: z.get(i, j),
        };
        let mut rep: Vec<usize> = (0..d).collect();
        for i in 0..d {
            if let Some(j) =
                (0..i).find(|&j| rep[j] == j && z.get(i, j) + z.get(j, i) == Bound::LE_ZERO)
            {
                rep[i] = j;
            }
        }
        let mut cons = Vec::new();
        for head in (0..d).filter(|&h| rep[h] == h) {
            let members: Vec<usize> = (head..d).filter(|&i| rep[i] == head).collect();
            if members.len() >= 2 {
                for w in 0..members.len() {
                    cons.push(con(members[w], members[(w + 1) % members.len()]));
                }
            }
        }
        let reps: Vec<usize> = (0..d).filter(|&i| rep[i] == i).collect();
        for &i in &reps {
            for &j in &reps {
                if i == j || z.get(i, j).is_inf() {
                    continue;
                }
                let redundant = reps
                    .iter()
                    .any(|&k| k != i && k != j && z.get(i, k) + z.get(k, j) <= z.get(i, j));
                if !redundant {
                    cons.push(con(i, j));
                }
            }
        }
        cons
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Canonicalization is idempotent: a second Floyd–Warshall pass
    /// changes nothing.
    #[test]
    fn canonicalization_idempotent(script in ops()) {
        let z = zone_from(&script);
        let mut again = z.clone();
        again.canonicalize();
        prop_assert!(again == z);
    }

    /// Inclusion is reflexive on canonical zones.
    #[test]
    fn inclusion_reflexive(script in ops()) {
        let z = zone_from(&script);
        prop_assume!(!z.is_empty());
        prop_assert!(z.includes(&z));
    }

    /// Inclusion is antisymmetric: mutual inclusion of canonical
    /// non-empty zones implies syntactic equality.
    #[test]
    fn inclusion_antisymmetric(s1 in ops(), s2 in ops()) {
        let a = zone_from(&s1);
        let b = zone_from(&s2);
        prop_assume!(!a.is_empty() && !b.is_empty());
        if a.includes(&b) && b.includes(&a) {
            prop_assert!(a == b);
        }
    }

    /// Inclusion is transitive.
    #[test]
    fn inclusion_transitive(s1 in ops(), s2 in ops(), s3 in ops()) {
        let a = zone_from(&s1);
        let b = zone_from(&s2);
        let c = zone_from(&s3);
        prop_assume!(!a.is_empty() && !b.is_empty() && !c.is_empty());
        if a.includes(&b) && b.includes(&c) {
            prop_assert!(a.includes(&c));
        }
    }

    /// Delay is idempotent: `up ∘ up = up`.
    #[test]
    fn up_idempotent(script in ops()) {
        let z = zone_from(&script);
        prop_assume!(!z.is_empty());
        let mut once = z.clone();
        once.up();
        once.canonicalize();
        let mut twice = once.clone();
        twice.up();
        twice.canonicalize();
        prop_assert!(twice == once);
    }

    /// Delay only grows the zone.
    #[test]
    fn up_is_extensive(script in ops()) {
        let z = zone_from(&script);
        prop_assume!(!z.is_empty());
        let mut up = z.clone();
        up.up();
        up.canonicalize();
        prop_assert!(up.includes(&z));
        prop_assert!(!up.is_empty());
    }

    /// Reset is idempotent and pins the clock.
    #[test]
    fn reset_idempotent(script in ops(), clock in 1usize..=CLOCKS, v in 0i64..50) {
        let z = zone_from(&script);
        prop_assume!(!z.is_empty());
        let mut once = z.clone();
        once.reset(clock, v);
        once.canonicalize();
        let mut twice = once.clone();
        twice.reset(clock, v);
        twice.canonicalize();
        prop_assert!(twice == once);
        prop_assert!(once.get(clock, 0) == Bound::le(v));
        prop_assert!(once.get(0, clock) == Bound::le(-v));
    }

    /// Intersection is the greatest lower bound: `a ∩ b ⊆ a`, `⊆ b`,
    /// and intersecting with itself is the identity.
    #[test]
    fn intersection_is_glb(s1 in ops(), s2 in ops()) {
        let a = zone_from(&s1);
        let b = zone_from(&s2);
        prop_assume!(!a.is_empty() && !b.is_empty());
        let mut both = a.clone();
        both.intersect(&b);
        both.canonicalize();
        if !both.is_empty() {
            prop_assert!(a.includes(&both));
            prop_assert!(b.includes(&both));
        }
        let mut selfint = a.clone();
        selfint.intersect(&a);
        selfint.canonicalize();
        prop_assert!(selfint == a);
    }

    /// Extrapolation only grows the zone (it abstracts, never refines),
    /// and is idempotent for a fixed per-clock ceiling vector.
    #[test]
    fn extrapolation_widens_and_idempotent(script in sized(), k in bounds()) {
        let z = script.zone();
        prop_assume!(!z.is_empty());
        let ks = script.vector(&k);
        let mut wide = z.clone();
        wide.extrapolate(&ks);
        prop_assert!(wide.includes(&z));
        let mut again = wide.clone();
        again.extrapolate(&ks);
        prop_assert!(again == wide);
    }

    /// `Extra_LU` is a sound abstraction: `Z ⊆ ExtraLU(Z)` for any
    /// per-clock bound vectors, and it is idempotent for fixed vectors.
    #[test]
    fn lu_extrapolation_widens_and_idempotent(script in sized(), l in bounds(), u in bounds()) {
        let z = script.zone();
        prop_assume!(!z.is_empty());
        let (ls, us) = (script.vector(&l), script.vector(&u));
        let mut wide = z.clone();
        wide.extrapolate_lu(&ls, &us);
        prop_assert!(wide.includes(&z));
        let mut again = wide.clone();
        again.extrapolate_lu(&ls, &us);
        prop_assert!(again == wide);
    }

    /// `Extra_LU` preserves `Extra_M`-completeness: with `L, U ≤ M`
    /// clock by clock it abstracts at least as coarsely
    /// (`ExtraM(Z) ⊆ ExtraLU(Z)`), and with `L = U = M` the two
    /// operators coincide exactly.
    #[test]
    fn lu_extrapolation_is_coarser_than_extra_m(
        script in sized(),
        m in bounds(),
        dl in bounds(),
        du in bounds(),
    ) {
        let z = script.zone();
        prop_assume!(!z.is_empty());
        let ms = script.vector(&m);
        let below = |d: &[i64]| -> Vec<i64> {
            ms.iter().zip(d).map(|(&m, &d)| (m - d / 3).max(0)).collect()
        };
        let (ls, us) = (below(&dl), below(&du));

        let mut by_m = z.clone();
        by_m.extrapolate(&ms);
        let mut by_lu = z.clone();
        by_lu.extrapolate_lu(&ls, &us);
        prop_assert!(by_lu.includes(&by_m));

        let mut degenerate = z.clone();
        degenerate.extrapolate_lu(&ms, &ms);
        prop_assert!(degenerate == by_m);
    }

    /// `Extra⁺_LU` (the engine's LU operator) is a sound abstraction at
    /// least as coarse as the per-entry `Extra_LU` for the same
    /// per-clock bounds: `Z ⊆ ExtraLU(Z) ⊆ ExtraLU⁺(Z)`.
    #[test]
    fn lu_plus_extrapolation_is_sound_and_coarser_than_lu(
        script in sized(),
        l in bounds(),
        u in bounds(),
    ) {
        let z = script.zone();
        prop_assume!(!z.is_empty());
        let (ls, us) = (script.vector(&l), script.vector(&u));
        let mut by_lu = z.clone();
        by_lu.extrapolate_lu(&ls, &us);
        let mut by_plus = z.clone();
        by_plus.extrapolate_lu_plus(&ls, &us);
        prop_assert!(by_plus.includes(&z));
        prop_assert!(by_plus.includes(&by_lu));
    }

    /// Every extrapolation operator re-closes only the entries it
    /// loosened, and still produces exactly what loosening followed by
    /// a full Floyd–Warshall produces.
    #[test]
    fn extrapolation_matches_loosen_then_canonicalize(
        script in sized(),
        l in bounds(),
        u in bounds(),
    ) {
        let z = script.zone();
        prop_assume!(!z.is_empty());
        let (ls, us) = (script.vector(&l), script.vector(&u));

        let mut by_m = z.clone();
        by_m.extrapolate(&ls);
        prop_assert_eq!(by_m, oracle::extra_lu(&z, &ls, &ls));

        let mut by_lu = z.clone();
        by_lu.extrapolate_lu(&ls, &us);
        prop_assert_eq!(by_lu, oracle::extra_lu(&z, &ls, &us));

        let mut by_plus = z.clone();
        by_plus.extrapolate_lu_plus(&ls, &us);
        prop_assert!(by_plus.is_closed());
        prop_assert_eq!(by_plus, oracle::extra_lu_plus(&z, &ls, &us));
    }

    /// The one-pass invariant closure equals conjoining the same upper
    /// bounds one `constrain_and_close` at a time — on delayed zones
    /// (the engine's `up()`-then-invariants step) and on arbitrary
    /// ones — emptiness included.
    #[test]
    fn batched_upper_bounds_match_sequential_closure(
        script in sized(),
        delayed in 0u8..2,
        raw in proptest::collection::vec((1usize..=MAX_CLOCKS, 0i64..100, 0u8..2), 0..6),
    ) {
        let mut z = script.zone();
        prop_assume!(!z.is_empty());
        if delayed == 1 {
            z.up();
        }
        let upper: Vec<(usize, Bound)> = raw
            .iter()
            .map(|&(c, v, weak)| {
                let b = if weak == 1 { Bound::le(v) } else { Bound::lt(v) };
                (script.clock(c), b)
            })
            .collect();

        let mut sequential = z.clone();
        let alive = upper.iter().all(|&(x, b)| sequential.constrain_and_close(x, 0, b));

        let mut batched = z.clone();
        prop_assert_eq!(batched.constrain_upper_and_close(upper.iter().copied()), alive);
        prop_assert_eq!(batched.is_empty(), !alive);
        if alive {
            prop_assert!(batched.is_closed());
            prop_assert_eq!(batched, sequential);
        }
    }

    /// The allocation-free `reduce` emits exactly the constraints, in
    /// exactly the order, of the straightforward construction, and
    /// `restore` inverts it.
    #[test]
    fn reduce_matches_reference_and_round_trips(script in sized()) {
        let z = script.zone();
        prop_assume!(!z.is_empty());
        let reduced = z.reduce();
        prop_assert_eq!(reduced.dim() as usize, z.clocks() + 1);
        let reference = oracle::reduce(&z);
        prop_assert_eq!(reduced.constraints(), reference.as_slice());
        prop_assert!(reduced.restore() == z, "restore(reduce(z)) must equal z");
    }

    /// Warm-start validation's O(n·k) column read agrees with the full
    /// restore on the zones the engine stores: reduced canonical zones
    /// over 1–8 clocks, with freed clocks and diagonal constraints, some
    /// widened by per-clock `Extra⁺_LU` bounds.
    #[test]
    fn upper_bounds_match_restore_on_reduced_zones(
        script in sized(),
        l in bounds(),
        u in bounds(),
        widen in 0u8..2,
    ) {
        let mut z = script.zone();
        prop_assume!(!z.is_empty());
        if widen == 1 {
            z.extrapolate_lu_plus(&script.vector(&l), &script.vector(&u));
        }
        let reduced = z.reduce();
        let restored = reduced.restore();
        let mut column = Vec::new();
        prop_assert!(reduced.upper_bounds(&mut column), "a stored zone is non-empty");
        prop_assert_eq!(column.len(), script.clocks + 1);
        for (i, &b) in column.iter().enumerate() {
            prop_assert_eq!(b, restored.get(i, 0));
        }
    }

    /// On constraint sets `reduce` did not produce, the column read
    /// finds a zone empty exactly when the full restore does — strict
    /// zero-weight cycles included — and otherwise reads the same
    /// column.
    #[test]
    fn upper_bounds_detect_emptiness_like_restore(raw in raw_zones()) {
        let zone = raw.minimal();
        let restored = zone.restore();
        let mut column = Vec::new();
        let nonempty = zone.upper_bounds(&mut column);
        prop_assert_eq!(nonempty, !restored.is_empty(), "{:?}", zone);
        if nonempty {
            for (i, &b) in column.iter().enumerate() {
                prop_assert_eq!(b, restored.get(i, 0));
            }
        }
    }

    /// The incremental closure agrees with the full Floyd–Warshall: for
    /// any canonical zone and any single tightening,
    /// `constrain_and_close` produces exactly `constrain` +
    /// `canonicalize`, is fully closed, and reports emptiness exactly
    /// when the full pipeline finds the zone empty.
    #[test]
    fn constrain_and_close_agrees_with_full_canonicalize(
        script in ops(),
        i in 0usize..=CLOCKS,
        j in 0usize..=CLOCKS,
        m in -60i64..60,
        weak in 0u8..2,
    ) {
        prop_assume!(i != j);
        let z = zone_from(&script);
        prop_assume!(!z.is_empty());
        let b = if weak == 1 { Bound::le(m) } else { Bound::lt(m) };

        let mut incremental = z.clone();
        let alive = incremental.constrain_and_close(i, j, b);

        let mut full = z.clone();
        full.constrain(i, j, b);
        full.canonicalize();

        prop_assert_eq!(alive, !full.is_empty());
        if alive {
            prop_assert!(incremental.is_closed());
            prop_assert!(incremental == full);
        }
    }

    /// Canonical-form preservation of the engine's successor pipeline:
    /// `up`, `reset`, and `free` keep a fully closed matrix fully
    /// closed (so no re-canonicalization is ever needed after them).
    #[test]
    fn canonical_ops_preserve_full_closure(
        script in ops(),
        clock in 1usize..=CLOCKS,
        v in 0i64..50,
    ) {
        let z = zone_from(&script);
        prop_assume!(!z.is_empty());
        prop_assert!(z.is_closed());
        let mut up = z.clone();
        up.up();
        prop_assert!(up.is_closed());
        let mut reset = z.clone();
        reset.reset(clock, v);
        prop_assert!(reset.is_closed());
        let mut freed = z.clone();
        freed.free(clock);
        prop_assert!(freed.is_closed());
    }

    /// Minimal constraint form round-trips: `restore ∘ reduce` is the
    /// identity on canonical non-empty zones, and the reduced form
    /// never stores more than the full matrix's finite off-diagonal
    /// entries.
    #[test]
    fn reduce_restore_is_identity(script in ops()) {
        let z = zone_from(&script);
        prop_assume!(!z.is_empty());
        let reduced = z.reduce();
        let restored = reduced.restore();
        prop_assert!(restored == z, "restore(reduce(z)) must equal z");
        let finite = (0..=CLOCKS)
            .flat_map(|i| (0..=CLOCKS).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j && !z.get(i, j).is_inf())
            .count();
        prop_assert!(reduced.len() <= finite);
    }

    /// Inclusion checked against the minimal form agrees with full
    /// matrix inclusion — the compressed passed list subsumes exactly
    /// the zones the uncompressed one would.
    #[test]
    fn minimal_inclusion_agrees_with_full(s1 in ops(), s2 in ops()) {
        let a = zone_from(&s1);
        let b = zone_from(&s2);
        prop_assume!(!a.is_empty() && !b.is_empty());
        prop_assert_eq!(a.reduce().includes(&b), a.includes(&b));
        prop_assert_eq!(b.reduce().includes(&a), b.includes(&a));
    }
}
