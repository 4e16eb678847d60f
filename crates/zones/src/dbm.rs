//! Difference Bound Matrices — the canonical constraint representation for
//! zones of clock valuations.
//!
//! A zone over clocks `x1 … xn` is a conjunction of constraints
//! `xi - xj ≺ m` with `≺ ∈ {<, ≤}`; adding the reference "clock" `x0 ≡ 0`
//! makes single-clock bounds (`xi ≤ 5`, `xi > 2`) differences too. A DBM
//! stores the tightest such bound for every ordered pair in an
//! `(n+1) × (n+1)` matrix; Floyd–Warshall shortest paths bring it to
//! *canonical form*, on which emptiness, inclusion and hashing are
//! syntactic checks (Bengtsson & Yi, *Timed Automata: Semantics,
//! Algorithms and Tools*, Lect. Notes 3098).
//!
//! Bounds are kept in integer **ticks** (this crate scales seconds by
//! [`crate::SCALE`] = 1 µs/tick), which keeps canonicalization exact —
//! floating-point DBMs lose confluence of the closure operation.

use std::fmt;

/// One bound `≺ m`: either `(<, m)`, `(≤, m)`, or `∞` (unconstrained).
///
/// Encoded in a single `i64` as `2m + 1` for `≤ m` and `2m` for `< m`,
/// so the natural integer order is exactly bound tightness:
/// `(<, m) < (≤, m) < (<, m+1)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bound(i64);

/// Sentinel for `∞`, chosen so additions cannot overflow.
const INF_RAW: i64 = i64::MAX / 4;

impl Bound {
    /// The unconstrained bound `∞`.
    pub const INF: Bound = Bound(INF_RAW);

    /// `≤ 0`, the bound tying a freshly reset clock to the reference.
    pub const LE_ZERO: Bound = Bound(1);

    /// `< 0`, an unsatisfiable self-bound (used to mark empty DBMs).
    pub const LT_ZERO: Bound = Bound(0);

    /// The non-strict bound `≤ m`.
    pub fn le(m: i64) -> Bound {
        Bound(2 * m + 1)
    }

    /// The strict bound `< m`.
    pub fn lt(m: i64) -> Bound {
        Bound(2 * m)
    }

    /// `true` if this is `∞`.
    pub fn is_inf(self) -> bool {
        self.0 >= INF_RAW
    }

    /// The numeric bound `m` (meaningless for `∞`).
    pub fn value(self) -> i64 {
        self.0 >> 1
    }

    /// `true` for `≤`, `false` for `<` (meaningless for `∞`).
    pub fn is_weak(self) -> bool {
        self.0 & 1 == 1
    }

    /// The raw `2m + weakness` encoding — the serialization unit of the
    /// passed-list artifact. `∞` is a reserved sentinel; the encoding is stable
    /// (the natural integer order *is* bound tightness), so persisting
    /// raw values round-trips exactly.
    pub fn raw(self) -> i64 {
        self.0
    }

    /// Rebuilds a bound from its [`Bound::raw`] encoding. Values at or
    /// above the `∞` sentinel normalize to [`Bound::INF`].
    pub fn from_raw(raw: i64) -> Bound {
        if raw >= INF_RAW {
            Bound::INF
        } else {
            Bound(raw)
        }
    }
}

impl std::ops::Add for Bound {
    type Output = Bound;

    /// Bound addition (path concatenation): values add, strictness is
    /// inherited from either strict operand; `∞` absorbs.
    fn add(self, other: Bound) -> Bound {
        if self.is_inf() || other.is_inf() {
            Bound::INF
        } else {
            // Values add; the result is weak (`≤`) only if both operands
            // are weak: raw sum carries w1 + w2 in the parity bits, so
            // subtracting (w1 | w2) leaves w1 & w2.
            Bound(self.0 + other.0 - ((self.0 | other.0) & 1))
        }
    }
}

impl fmt::Debug for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_inf() {
            write!(f, "<inf")
        } else if self.is_weak() {
            write!(f, "<={}", self.value())
        } else {
            write!(f, "<{}", self.value())
        }
    }
}

/// A zone as a difference bound matrix over `dim - 1` real clocks plus
/// the reference clock `0`.
///
/// Entry `(i, j)` bounds `xi - xj`. Mutating operations leave the matrix
/// non-canonical; call [`Dbm::canonicalize`] (or use the `*_canon`
/// helpers) before emptiness/inclusion tests. All public predicates
/// (`is_empty`, `includes`, `satisfies`) assume canonical inputs.
///
/// The derived `Ord` is a *syntactic* lexicographic order over the
/// bound matrix — unrelated to zone inclusion — provided so engines can
/// sort zones into a deterministic processing order.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Dbm {
    dim: usize,
    m: Vec<Bound>,
}

impl Dbm {
    /// The zone `{0}` — every clock exactly zero (`clocks` real clocks).
    pub fn zero(clocks: usize) -> Dbm {
        let dim = clocks + 1;
        Dbm {
            dim,
            m: vec![Bound::LE_ZERO; dim * dim],
        }
    }

    /// Number of real clocks (matrix dimension minus the reference).
    pub fn clocks(&self) -> usize {
        self.dim - 1
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        i * self.dim + j
    }

    /// The bound on `xi - xj`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Bound {
        self.m[self.idx(i, j)]
    }

    /// Sets the bound on `xi - xj` (no tightening check, no closure).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, b: Bound) {
        let k = self.idx(i, j);
        self.m[k] = b;
    }

    /// Floyd–Warshall all-pairs tightening to canonical form.
    ///
    /// This is the O(n³) *construction-time* closure, for matrices
    /// built constraint by constraint ([`Dbm::constrain`],
    /// [`Dbm::intersect`]). The engine never runs it: each per-state
    /// operation starts from a canonical zone and re-closes only what
    /// it changed, and each result is the unique canonical form this
    /// full pass would produce:
    ///
    /// * one tightened entry — [`Dbm::close1`], O(n²): every shorter
    ///   path uses the new edge exactly once;
    /// * `k` upper bounds `x ≺ b` at once (delay within invariants) —
    ///   [`Dbm::constrain_upper_and_close`], O(n·k) plus O(n) per
    ///   improved row: every new edge enters the reference clock, so a
    ///   shortest path uses at most one of them;
    /// * `k` loosened entries (extrapolation) — [`Dbm::extrapolate_lu`]
    ///   and [`Dbm::extrapolate_lu_plus`] relax just those entries over
    ///   every pivot, O(n·k): raising entries of a closed matrix cannot
    ///   shorten any path, so every other entry is already final.
    pub fn canonicalize(&mut self) {
        let d = self.dim;
        for k in 0..d {
            for i in 0..d {
                let ik = self.m[i * d + k];
                if ik.is_inf() {
                    continue;
                }
                for j in 0..d {
                    let through = ik + self.m[k * d + j];
                    if through < self.m[i * d + j] {
                        self.m[i * d + j] = through;
                    }
                }
            }
        }
    }

    /// Incremental re-closure after tightening the single entry `(i, j)`
    /// of an otherwise-canonical matrix — O(n²) instead of the full
    /// O(n³) Floyd–Warshall.
    ///
    /// Every path that got shorter must use the new edge `i → j` (and,
    /// absent negative cycles, uses it exactly once), so it decomposes
    /// as `p → i → j → q` with both halves already closed. Pass 1 folds
    /// the new edge into column `j` (`p → i → j`); pass 2 extends those
    /// through the old rows (`p → j → q`).
    ///
    /// Precondition: the matrix was canonical before `(i, j)` was
    /// tightened, and the tightening does not empty the zone (check
    /// `get(j, i) + b ≥ ≤0` first — [`Dbm::constrain_and_close`] does).
    pub fn close1(&mut self, i: usize, j: usize) {
        let d = self.dim;
        let b = self.m[i * d + j];
        if b.is_inf() {
            return;
        }
        // Track which `(p, j)` entries pass 1 actually tightens (plus
        // row `i`, whose `(i, j)` entry the caller tightened): a row
        // whose shortest path to `j` did not improve cannot improve
        // anywhere through the new edge, so pass 2 only walks the
        // touched rows — O(n + changed·n) in practice.
        let mut touched = RowSet::new(d);
        touched.insert(i);
        for p in 0..d {
            let pi = self.m[p * d + i];
            if pi.is_inf() {
                continue;
            }
            let through = pi + b;
            if through < self.m[p * d + j] {
                self.m[p * d + j] = through;
                touched.insert(p);
            }
        }
        for p in touched.iter() {
            let pj = self.m[p * d + j];
            if pj.is_inf() {
                continue;
            }
            for q in 0..d {
                let through = pj + self.m[j * d + q];
                if through < self.m[p * d + q] {
                    self.m[p * d + q] = through;
                }
            }
        }
    }

    /// Conjoins `xi - xj ≺ b` onto a **canonical** matrix and restores
    /// canonical form incrementally ([`Dbm::close1`], O(n²)). Returns
    /// `false` — and marks the zone empty — when the constraint is
    /// inconsistent with the current zone; on `true` the matrix is
    /// canonical and non-empty, so no separate
    /// [`Dbm::canonicalize`]/[`Dbm::is_empty`] round is needed.
    pub fn constrain_and_close(&mut self, i: usize, j: usize, b: Bound) -> bool {
        debug_assert!(
            self.closed_through_zero(),
            "constrain_and_close requires a canonical matrix"
        );
        // On a canonical matrix the consistency pre-check is exact: the
        // constraint empties the zone iff it closes a negative cycle
        // with the tightest reverse path.
        if self.get(j, i) + b < Bound::LE_ZERO {
            let k = self.idx(0, 0);
            self.m[k] = Bound::LT_ZERO;
            return false;
        }
        if b < self.get(i, j) {
            let k = self.idx(i, j);
            self.m[k] = b;
            self.close1(i, j);
        }
        true
    }

    /// Conjoins every upper bound `x ≺ b` of `bounds` onto a
    /// **canonical** matrix and restores canonical form in one pass —
    /// the delay step's invariant closure. Returns `false` (and marks
    /// the zone empty) when the bounds are inconsistent with the zone;
    /// on `true` the matrix is canonical and non-empty.
    ///
    /// Equal to one [`Dbm::constrain_and_close`] per bound, emptiness
    /// included, at the cost of one: every new edge `x → 0` enters the
    /// reference clock, and a shortest path visits it at most once, so
    /// it uses at most one new edge. Column 0 takes the best new edge
    /// (`p → x → 0`), and only the rows it improved extend through the
    /// unchanged row 0 (`p → 0 → q`). Row 0 cannot change unless the
    /// zone empties, which happens exactly when some `0 → x → 0` cycle
    /// turns negative — the test `constrain_and_close` makes per bound.
    pub fn constrain_upper_and_close(
        &mut self,
        bounds: impl IntoIterator<Item = (usize, Bound)>,
    ) -> bool {
        debug_assert!(
            self.closed_through_zero(),
            "constrain_upper_and_close requires a canonical matrix"
        );
        let d = self.dim;
        let mut improved = RowSet::new(d);
        for (x, b) in bounds {
            debug_assert!(x >= 1 && x < d, "an upper bound names a real clock");
            if self.m[x] + b < Bound::LE_ZERO {
                self.m[0] = Bound::LT_ZERO;
                return false;
            }
            // Column `x ≥ 1` is only read here, so every `p → x` is the
            // zone's own; row 0 cannot improve (the test above).
            for p in 1..d {
                let px = self.m[p * d + x];
                if px.is_inf() {
                    continue;
                }
                let through = px + b;
                if through < self.m[p * d] {
                    self.m[p * d] = through;
                    improved.insert(p);
                }
            }
        }
        for p in improved.iter() {
            let p0 = self.m[p * d];
            for q in 1..d {
                let through = p0 + self.m[q];
                if through < self.m[p * d + q] {
                    self.m[p * d + q] = through;
                }
            }
        }
        true
    }

    /// Restores canonical form after extrapolation raised the entries in
    /// `loosened` of a canonical, non-empty matrix — the closure step
    /// all three extrapolation operators share.
    ///
    /// Raising entries cannot shorten any path, and every path of the
    /// loosened matrix is at least as long as in the closed original, so
    /// every entry that was not loosened is already final. Floyd–Warshall
    /// therefore never changes those entries, and running its pivot loop
    /// over the loosened entries alone performs exactly the same updates
    /// in O(n·k) instead of O(n³): the result is the unique closure.
    fn close_loosened(&mut self, loosened: &EntrySet) {
        let d = self.dim;
        for k in 0..d {
            for i in loosened.rows.iter() {
                let ik = self.m[i * d + k];
                if ik.is_inf() {
                    continue;
                }
                for j in loosened.row(i) {
                    let through = ik + self.m[k * d + j];
                    if through < self.m[i * d + j] {
                        self.m[i * d + j] = through;
                    }
                }
            }
        }
    }

    /// `true` if the matrix is a Floyd–Warshall fixpoint (fully closed):
    /// no triangle `i → k → j` is shorter than the stored `(i, j)`
    /// bound. O(n³) — meant for debug assertions and law tests, not the
    /// hot path.
    pub fn is_closed(&self) -> bool {
        let d = self.dim;
        for k in 0..d {
            for i in 0..d {
                let ik = self.m[i * d + k];
                if ik.is_inf() {
                    continue;
                }
                for j in 0..d {
                    if ik + self.m[k * d + j] < self.m[i * d + j] {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Cheap necessary condition for canonical form — closure through
    /// the reference clock only (O(n²)) plus non-negative diagonal.
    /// Used as the `debug_assert!` precondition on the hot incremental
    /// path, where the full [`Dbm::is_closed`] sweep would dominate
    /// debug-build runtimes; full closure is law-tested in the crate's
    /// proptests instead.
    pub fn closed_through_zero(&self) -> bool {
        let d = self.dim;
        for i in 0..d {
            if self.m[i * d + i] < Bound::LE_ZERO {
                return false;
            }
            let i0 = self.m[i * d];
            if i0.is_inf() {
                continue;
            }
            for j in 0..d {
                if i0 + self.m[j] < self.m[i * d + j] {
                    return false;
                }
            }
        }
        true
    }

    /// `true` if the zone is empty: some diagonal entry became negative.
    ///
    /// Precondition (debug-asserted): the matrix is canonical, or was
    /// explicitly marked empty by a failed
    /// [`Dbm::constrain`]/[`Dbm::constrain_and_close`] — on arbitrary
    /// non-canonical matrices the diagonal test is meaningless.
    pub fn is_empty(&self) -> bool {
        let marked = (0..self.dim).any(|i| self.get(i, i) < Bound::LE_ZERO);
        debug_assert!(
            marked || self.closed_through_zero(),
            "is_empty requires a canonical (or explicitly empty-marked) matrix"
        );
        marked
    }

    /// Delay (future) operator `up`: removes upper bounds on every clock,
    /// letting arbitrary time elapse. Preserves canonical form.
    pub fn up(&mut self) {
        for i in 1..self.dim {
            let k = self.idx(i, 0);
            self.m[k] = Bound::INF;
        }
    }

    /// Past operator `down`: lets time flow backwards to the zone's
    /// origins (clamped at zero). Preserves canonical form.
    pub fn down(&mut self) {
        let d = self.dim;
        for i in 1..d {
            self.m[i] = Bound::LE_ZERO;
            for j in 1..d {
                let ji = self.m[j * d + i];
                if ji < self.m[i] {
                    self.m[i] = ji;
                }
            }
        }
    }

    /// Frees clock `x` (1-based): removes every constraint on it.
    /// Leaves the matrix canonical if it was canonical.
    pub fn free(&mut self, x: usize) {
        debug_assert!(x >= 1 && x < self.dim);
        for i in 0..self.dim {
            if i != x {
                let a = self.idx(x, i);
                self.m[a] = Bound::INF;
                let b0 = self.get(i, 0);
                let b = self.idx(i, x);
                self.m[b] = b0;
            }
        }
    }

    /// Resets clock `x` (1-based) to the constant `v` ticks. Preserves
    /// canonical form.
    pub fn reset(&mut self, x: usize, v: i64) {
        debug_assert!(x >= 1 && x < self.dim);
        for i in 0..self.dim {
            if i == x {
                continue;
            }
            let zero_i = self.get(0, i);
            let i_zero = self.get(i, 0);
            let a = self.idx(x, i);
            self.m[a] = Bound::le(v) + zero_i;
            let b = self.idx(i, x);
            self.m[b] = i_zero + Bound::le(-v);
        }
    }

    /// Conjoins the constraint `xi - xj ≺ b`, tightening in place.
    /// Returns `false` immediately if the constraint is trivially
    /// inconsistent with the current matrix (fast pre-check); a full
    /// [`Dbm::canonicalize`] is still needed before further queries.
    pub fn constrain(&mut self, i: usize, j: usize, b: Bound) -> bool {
        // Inconsistent with the reverse path ⇒ empty.
        if self.get(j, i) + b < Bound::LE_ZERO {
            let k = self.idx(0, 0);
            self.m[k] = Bound::LT_ZERO;
            return false;
        }
        if b < self.get(i, j) {
            let k = self.idx(i, j);
            self.m[k] = b;
        }
        true
    }

    /// Pointwise intersection with `other`; call
    /// [`Dbm::canonicalize`] afterwards.
    pub fn intersect(&mut self, other: &Dbm) {
        debug_assert_eq!(self.dim, other.dim);
        for k in 0..self.m.len() {
            if other.m[k] < self.m[k] {
                self.m[k] = other.m[k];
            }
        }
    }

    /// `true` if `self` ⊇ `other` (both canonical, neither empty):
    /// every bound of `self` is at least as loose.
    pub fn includes(&self, other: &Dbm) -> bool {
        debug_assert_eq!(self.dim, other.dim);
        debug_assert!(
            self.closed_through_zero() && other.closed_through_zero(),
            "includes requires canonical non-empty operands"
        );
        self.m
            .iter()
            .zip(other.m.iter())
            .all(|(mine, theirs)| theirs <= mine)
    }

    /// `true` if the (canonical, non-empty) zone intersects
    /// `xi - xj ≺ b`.
    pub fn satisfies(&self, i: usize, j: usize, b: Bound) -> bool {
        debug_assert!(
            self.closed_through_zero(),
            "satisfies requires a canonical non-empty zone"
        );
        self.get(j, i) + b >= Bound::LE_ZERO
    }

    /// Overwrites `self` with `other`'s contents, reusing the existing
    /// bound-matrix allocation when the dimensions match — the pool
    /// path that keeps successor computation allocation-free.
    pub fn copy_from(&mut self, other: &Dbm) {
        self.dim = other.dim;
        self.m.clear();
        self.m.extend_from_slice(&other.m);
    }

    /// Classical maximal-constant extrapolation `Extra_M` (k-normalization):
    /// bounds looser than `k[x]` are widened to `∞`, lower bounds tighter
    /// than `-k[x]` are clamped, guaranteeing finitely many zones per
    /// location. `k` is indexed by clock (entry 0 is the reference and
    /// ignored). Sound for diagonal-free timed automata; re-canonicalizes.
    ///
    /// `Extra_M` is exactly [`Dbm::extrapolate_lu`] with `L = U = M`.
    pub fn extrapolate(&mut self, k: &[i64]) {
        self.extrapolate_lu(k, k);
    }

    /// Lower/upper-bound extrapolation `Extra_LU` (Behrmann, Bouyer,
    /// Larsen & Pelánek, *Lower and Upper Bounds in Zone Based
    /// Abstractions of Timed Automata*):
    ///
    /// * an upper bound on `x_i` looser than `L(x_i)` is widened to `∞`
    ///   — no *lower-bound* guard (`x > c`, `x ≥ c`, `c ≤ L(x_i)`) can
    ///   distinguish values above `L(x_i)`;
    /// * a lower bound on `x_j` tighter than `-U(x_j)` is clamped to
    ///   `< -U(x_j)` — no *upper-bound* guard can distinguish values
    ///   above `U(x_j)`.
    ///
    /// With `L ≤ M` and `U ≤ M` this abstracts at least as coarsely as
    /// `Extra_M` (strictly coarser whenever some clock is only ever
    /// compared in one direction), so the zone graph settles *fewer*
    /// states while preserving reachability of every diagonal-free
    /// property. Both vectors are indexed like `k` in
    /// [`Dbm::extrapolate`] (entry 0 = reference, ignored).
    ///
    /// Takes a canonical, non-empty zone and leaves it canonical,
    /// re-closing only the entries it loosened.
    pub fn extrapolate_lu(&mut self, lower: &[i64], upper: &[i64]) {
        debug_assert_eq!(lower.len(), self.dim);
        debug_assert_eq!(upper.len(), self.dim);
        let d = self.dim;
        let mut loosened = EntrySet::new(d);
        for (i, &li) in lower.iter().enumerate() {
            for (j, &uj) in upper.iter().enumerate().take(d) {
                if i == j {
                    continue;
                }
                let idx = i * d + j;
                let b = self.m[idx];
                if b.is_inf() {
                    continue;
                }
                if i != 0 && b > Bound::le(li) {
                    self.m[idx] = Bound::INF;
                    loosened.insert(i, j);
                } else if j != 0 && b < Bound::lt(-uj) {
                    self.m[idx] = Bound::lt(-uj);
                    loosened.insert(i, j);
                }
            }
        }
        self.close_loosened(&loosened);
    }

    /// Zone-position-based LU extrapolation `Extra⁺_LU` (ibid., the
    /// operator UPPAAL applies): in addition to [`Dbm::extrapolate_lu`]'s
    /// per-entry rules, whole rows and columns are widened based on
    /// where the *zone* sits relative to the bounds —
    ///
    /// * row `i` is widened when the zone already implies
    ///   `x_i > L(x_i)` (no lower-bound guard can tell its values apart);
    /// * column `j` (and, on the reference row, the lower bound of
    ///   `x_j`, clamped to `> U(x_j)`) is widened when the zone implies
    ///   `x_j > U(x_j)` (no upper-bound guard can tell its values
    ///   apart), which erases the diagonal correlations `x - x_j` that
    ///   keep otherwise-equivalent zones distinct.
    ///
    /// Strictly coarser than `Extra_LU` (hence than `Extra_M`), and
    /// sound for diagonal-free timed automata whose lower-/upper-bound
    /// guard constants are covered by `L`/`U`. Unlike the per-entry
    /// operators it is **not** idempotent in general: widening plus
    /// re-canonicalization can expose further widening opportunities.
    /// Each zone passes through it once per settle, so the engine only
    /// needs soundness and the (preserved) finite-range guarantee, not
    /// idempotence.
    ///
    /// Takes a canonical, non-empty zone and leaves it canonical,
    /// re-closing only the entries it loosened.
    pub fn extrapolate_lu_plus(&mut self, lower: &[i64], upper: &[i64]) {
        debug_assert_eq!(lower.len(), self.dim);
        debug_assert_eq!(upper.len(), self.dim);
        let d = self.dim;
        let mut loosened = EntrySet::new(d);
        // The rules read the zone's pre-extrapolation lower bounds (the
        // reference row `c_0x`); processing rows `i ≥ 1` first and the
        // reference row last keeps those reads on the original values
        // without snapshotting the row (`i ≥ 1` writes never alias row
        // 0, and the row-0 clamp reads each entry before writing it).
        for (i, &li) in lower.iter().enumerate().take(d).skip(1) {
            // `m[0][x] < le(-k)` encodes "the zone implies x > k".
            let row_free = self.m[i] < Bound::le(-li);
            for (j, &uj) in upper.iter().enumerate().take(d) {
                if i == j {
                    continue;
                }
                let idx = i * d + j;
                let b = self.m[idx];
                if b.is_inf() {
                    continue;
                }
                if b > Bound::le(li) || row_free || (j != 0 && self.m[j] < Bound::le(-uj)) {
                    self.m[idx] = Bound::INF;
                    loosened.insert(i, j);
                }
            }
        }
        for (j, &uj) in upper.iter().enumerate().take(d).skip(1) {
            // `b < lt(-uj)` subsumes the zone-position test
            // `b < le(-uj)` — `lt` is the strictly tighter encoding.
            let b = self.m[j];
            if !b.is_inf() && b < Bound::lt(-uj) {
                self.m[j] = Bound::lt(-uj);
                loosened.insert(0, j);
            }
        }
        self.close_loosened(&loosened);
    }

    /// Reduces a **canonical, non-empty** zone to its minimal constraint
    /// form — the smallest constraint set whose closure reproduces this
    /// matrix (Larsen–Larsson–Pettersson–Yi's compact passed-list
    /// representation, as presented in Bengtsson & Yi §4):
    ///
    /// 1. clocks are partitioned into *zero-equivalence* classes
    ///    (`i ≡ j` iff `m[i][j] + m[j][i] = ≤0`, i.e. the zone pins
    ///    their difference exactly); each class of size ≥ 2 contributes
    ///    one constraint cycle through its members in index order;
    /// 2. between class representatives, an entry is dropped iff some
    ///    third representative lies on an equally short path —
    ///    simultaneous removal is sound because the representative
    ///    graph has no zero-length cycles.
    ///
    /// `∞` entries are never stored; everything else is recovered by
    /// closure ([`MinimalDbm::restore`] is the inverse, law-tested in
    /// the crate proptests).
    ///
    /// Allocates only the result: zero-equivalence is transitive on a
    /// canonical non-empty zone, so an index is its class's
    /// representative iff no smaller index is equivalent to it (a
    /// bitset), and a class is walked by scanning for indices
    /// equivalent to its head.
    pub fn reduce(&self) -> MinimalDbm {
        debug_assert!(
            !self.is_empty() && self.is_closed(),
            "reduce requires a canonical non-empty zone"
        );
        debug_assert!(self.dim <= u8::MAX as usize, "dim fits u8 indices");
        let d = self.dim;
        let m = &self.m;
        let equivalent = |i: usize, j: usize| m[i * d + j] + m[j * d + i] == Bound::LE_ZERO;
        // 1. Zero-equivalence classes, one representative (least member)
        //    each.
        let mut reps = RowSet::new(d);
        for i in 0..d {
            if !(0..i).any(|j| reps.contains(j) && equivalent(i, j)) {
                reps.insert(i);
            }
        }
        let con = |i: usize, j: usize| MinCon {
            i: i as u8,
            j: j as u8,
            b: m[i * d + j],
        };
        let mut cons = Vec::new();
        // Class cycles: members in index order, closing back to the head.
        for head in reps.iter() {
            let mut last = head;
            for member in (head + 1..d).filter(|&i| equivalent(i, head)) {
                cons.push(con(last, member));
                last = member;
            }
            if last != head {
                cons.push(con(last, head));
            }
        }
        // Representative graph: keep (i, j) unless a third representative
        // lies on an equally tight path.
        for i in reps.iter() {
            let row = &m[i * d..(i + 1) * d];
            for j in reps.iter() {
                let b = row[j];
                if i == j || b.is_inf() {
                    continue;
                }
                let redundant = reps
                    .iter()
                    .any(|k| k != i && k != j && !row[k].is_inf() && row[k] + m[k * d + j] <= b);
                if !redundant {
                    cons.push(con(i, j));
                }
            }
        }
        MinimalDbm {
            dim: d as u8,
            cons: cons.into_boxed_slice(),
        }
    }

    /// Renders the non-trivial constraints (canonical form assumed),
    /// `names[i]` naming clock `i+1`, in ticks.
    pub fn render(&self, names: &[String]) -> String {
        let mut parts = Vec::new();
        let name = |i: usize| -> String {
            if i == 0 {
                "0".to_string()
            } else {
                names.get(i - 1).cloned().unwrap_or_else(|| format!("x{i}"))
            }
        };
        for i in 0..self.dim {
            for j in 0..self.dim {
                if i == j {
                    continue;
                }
                let b = self.get(i, j);
                if b.is_inf() {
                    continue;
                }
                // Skip the implicit non-negativity bounds to keep output
                // readable.
                if i == 0 && b == Bound::LE_ZERO {
                    continue;
                }
                let op = if b.is_weak() { "<=" } else { "<" };
                if i == 0 {
                    parts.push(format!("{} {} {}", -b.value(), op, name(j)));
                } else if j == 0 {
                    parts.push(format!("{} {} {}", name(i), op, b.value()));
                } else {
                    parts.push(format!("{} - {} {} {}", name(i), name(j), op, b.value()));
                }
            }
        }
        if parts.is_empty() {
            "true".to_string()
        } else {
            parts.join(" ∧ ")
        }
    }
}

impl fmt::Debug for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Dbm[{}]", self.dim)?;
        for i in 0..self.dim {
            for j in 0..self.dim {
                write!(f, "{:?}\t", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A bitset over `0..capacity` held inline in `N` words (`64·N`
/// members), so the per-state kernels never allocate on the engine's
/// dimensions; larger sets spill to the heap.
struct IndexSet<const N: usize> {
    inline: [u64; N],
    spill: Vec<u64>,
    words: usize,
}

/// Rows of any matrix the engine builds (it caps dimensions at 255).
type RowSet = IndexSet<4>;

/// A set of matrix entries: the rows holding any, plus one column mask
/// per row (`stride` words each) — inline up to 64 × 64 matrices.
struct EntrySet {
    rows: RowSet,
    cols: IndexSet<64>,
    stride: usize,
}

impl EntrySet {
    /// An empty set over the entries of a `dim × dim` matrix.
    fn new(dim: usize) -> EntrySet {
        let stride = dim.div_ceil(64);
        EntrySet {
            rows: RowSet::new(dim),
            cols: IndexSet::new(dim * stride * 64),
            stride,
        }
    }

    fn insert(&mut self, i: usize, j: usize) {
        self.rows.insert(i);
        self.cols.insert(i * self.stride * 64 + j);
    }

    /// The columns of the members in row `i`, in increasing order.
    fn row(&self, i: usize) -> Members<'_> {
        Members::of(&self.cols.as_words()[i * self.stride..(i + 1) * self.stride])
    }
}

impl<const N: usize> IndexSet<N> {
    /// An empty set over the indices `0..capacity`.
    fn new(capacity: usize) -> Self {
        let words = capacity.div_ceil(64);
        IndexSet {
            inline: [0; N],
            spill: if words > N {
                vec![0; words]
            } else {
                Vec::new()
            },
            words,
        }
    }

    fn as_words(&self) -> &[u64] {
        if self.words > N {
            &self.spill
        } else {
            &self.inline[..self.words]
        }
    }

    fn insert(&mut self, v: usize) {
        let words = if self.words > N {
            &mut self.spill[..]
        } else {
            &mut self.inline[..]
        };
        words[v / 64] |= 1 << (v % 64);
    }

    fn contains(&self, v: usize) -> bool {
        self.as_words()[v / 64] & (1 << (v % 64)) != 0
    }

    /// The members in increasing order.
    fn iter(&self) -> Members<'_> {
        Members::of(self.as_words())
    }
}

/// Iterator over the set bits of a word slice, in increasing order.
struct Members<'a> {
    words: &'a [u64],
    w: usize,
    rest: u64,
}

impl Members<'_> {
    fn of(words: &[u64]) -> Members<'_> {
        Members {
            words,
            w: 0,
            rest: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for Members<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.rest == 0 {
            self.w += 1;
            self.rest = *self.words.get(self.w)?;
        }
        let bit = self.rest.trailing_zeros() as usize;
        self.rest &= self.rest - 1;
        Some(self.w * 64 + bit)
    }
}

/// One stored constraint `xi - xj ≺ b` of a [`MinimalDbm`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MinCon {
    /// Row (minuend) clock index.
    pub i: u8,
    /// Column (subtrahend) clock index.
    pub j: u8,
    /// The bound.
    pub b: Bound,
}

/// A zone in minimal constraint form: the irredundant constraint set
/// produced by [`Dbm::reduce`], typically O(n) entries instead of the
/// full `(n+1)²` matrix. This is the passed-list storage format —
/// inclusion against a full canonical DBM needs only the stored
/// constraints, and [`MinimalDbm::restore`] recovers the exact matrix.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MinimalDbm {
    dim: u8,
    cons: Box<[MinCon]>,
}

impl MinimalDbm {
    /// Number of stored constraints.
    pub fn len(&self) -> usize {
        self.cons.len()
    }

    /// The DBM dimension (`clocks + 1` including the reference clock).
    pub fn dim(&self) -> u8 {
        self.dim
    }

    /// The stored constraints, in [`Dbm::reduce`] emission order.
    pub fn constraints(&self) -> &[MinCon] {
        &self.cons
    }

    /// Reassembles a zone from serialized parts ([`MinimalDbm::dim`] +
    /// [`MinimalDbm::constraints`]). The parts are trusted to describe
    /// a canonical non-empty zone's minimal form — warm-start
    /// validation re-checks that the zone is non-empty
    /// ([`MinimalDbm::upper_bounds`]) before admitting it anywhere.
    pub fn from_parts(dim: u8, cons: Vec<MinCon>) -> MinimalDbm {
        MinimalDbm {
            dim,
            cons: cons.into_boxed_slice(),
        }
    }

    /// `true` when no constraint is stored (the delay-closed universe).
    pub fn is_empty(&self) -> bool {
        self.cons.is_empty()
    }

    /// Heap bytes held by the constraint list — the passed-list memory
    /// accounting unit reported in `SearchStats`.
    pub fn heap_bytes(&self) -> usize {
        self.cons.len() * std::mem::size_of::<MinCon>()
    }

    /// Heap bytes the same zone would occupy as a full bound matrix
    /// (the PR 2 storage format this form replaces).
    pub fn full_matrix_bytes(&self) -> usize {
        let d = self.dim as usize;
        d * d * std::mem::size_of::<Bound>()
    }

    /// `true` if this zone ⊇ `other` (a canonical, non-empty full DBM
    /// of the same dimension).
    ///
    /// Sound and complete without restoring the matrix: every point of
    /// `other` satisfies `p_i - p_j ≤ other[i][j] ≤ b` for each stored
    /// constraint, hence lies in this zone; conversely a violated
    /// stored constraint exhibits a point of `other` outside it
    /// (`other` is canonical, so its bounds are tight).
    pub fn includes(&self, other: &Dbm) -> bool {
        debug_assert_eq!(self.dim as usize, other.clocks() + 1);
        self.cons
            .iter()
            .all(|c| other.get(c.i as usize, c.j as usize) <= c.b)
    }

    /// Rebuilds the full canonical DBM: start unconstrained, conjoin the
    /// stored constraints, close ([`Dbm::canonicalize`]). Inverse of
    /// [`Dbm::reduce`] on canonical non-empty zones. The engine never
    /// calls it — warm-start validation reads
    /// [`MinimalDbm::upper_bounds`] instead — so it stays the plain
    /// O(n³) construction, the oracle the property tests check the
    /// compact routines against.
    pub fn restore(&self) -> Dbm {
        let d = self.dim as usize;
        let mut z = Dbm {
            dim: d,
            m: vec![Bound::INF; d * d],
        };
        for i in 0..d {
            z.m[i * d + i] = Bound::LE_ZERO;
        }
        for c in self.cons.iter() {
            let k = c.i as usize * d + c.j as usize;
            if c.b < z.m[k] {
                z.m[k] = c.b;
            }
        }
        z.canonicalize();
        z
    }

    /// The upper-bound column of the zone, read from the stored
    /// constraints without rebuilding the matrix: fills `out[i]` with
    /// the canonical bound on `xi - x0` (entry `(i, 0)` of
    /// [`MinimalDbm::restore`]) and returns `true`, or returns `false`
    /// when the constraints are unsatisfiable (`out` is then
    /// unspecified). O(n·k) for `k` constraints over `n` clocks, where
    /// a restore is O(n³).
    ///
    /// A stored constraint `xi - xj ≺ b` is an edge `i → j` of weight
    /// `b`, and the closed matrix holds shortest paths. Two passes of
    /// Bellman–Ford over those edges:
    ///
    /// 1. **Emptiness** — a negative cycle, relaxing toward a virtual
    ///    target every node reaches at weight 0. A cycle is negative
    ///    when its values sum below zero, or to zero with a strict
    ///    edge. `Bound` addition keeps strictness as a flag, so
    ///    `Bound`-valued relaxation settles on a strict zero-weight
    ///    cycle (`x - y < 0`, `y - x ≤ 0`) and would miss it. Each edge
    ///    therefore weighs the integer `m·(dim+1) − [strict]`: a simple
    ///    cycle has at most `dim` edges, so its scaled sum is negative
    ///    exactly when the cycle is.
    /// 2. **The column** — single-target relaxation into the reference
    ///    clock with the same weights. Without negative cycles the
    ///    shortest paths are simple, so they carry fewer than `dim`
    ///    strict edges, and the minimal scaled weight `m·(dim+1) − s`
    ///    decodes to the least `m`, strict when `s > 0`: the
    ///    `Bound`-valued shortest path.
    ///
    /// The weights are `i128`, so no input overflows. A column entry
    /// outside the tick encoding also returns `false`; no zone
    /// [`Dbm::reduce`] produced has one.
    pub fn upper_bounds(&self, out: &mut Vec<Bound>) -> bool {
        /// Not yet connected to the reference clock.
        const UNREACHED: i128 = i128::MAX;
        let d = self.dim as usize;
        let scale = d as i128 + 1;
        let weight = |b: Bound| i128::from(b.value()) * scale - i128::from(!b.is_weak());
        // Up to `d` rounds over every finite constraint; `false` when
        // the last round still improved a distance (a negative cycle).
        // Rounds sweep the constraints forward and backward in turn, so
        // a path stored against one sweep's order settles in the next:
        // on warm-start artifacts this halves the rounds.
        let relax = |dist: &mut [i128; 256]| -> bool {
            for round in 0..d {
                let mut changed = false;
                let mut step = |c: &MinCon| {
                    let to = dist[c.j as usize];
                    if c.b.is_inf() || to == UNREACHED {
                        return;
                    }
                    let via = to + weight(c.b);
                    if via < dist[c.i as usize] {
                        dist[c.i as usize] = via;
                        changed = true;
                    }
                };
                if round % 2 == 0 {
                    self.cons.iter().for_each(&mut step);
                } else {
                    self.cons.iter().rev().for_each(&mut step);
                }
                if !changed {
                    return true;
                }
            }
            false
        };
        // `dim` is a u8, so 256 slots cover every index.
        let mut dist = [0i128; 256];
        if !relax(&mut dist) {
            return false;
        }
        dist[..d].fill(UNREACHED);
        dist[0] = 0;
        relax(&mut dist);
        out.clear();
        for &s in &dist[..d] {
            if s == UNREACHED {
                out.push(Bound::INF);
                continue;
            }
            // `s = m·(dim+1) − strict edges`, fewer than `dim + 1` of
            // them: `m` is `s / (dim+1)` rounded up.
            let m = s.div_euclid(scale) + i128::from(s.rem_euclid(scale) != 0);
            match i64::try_from(m) {
                Ok(m) if m.unsigned_abs() < INF_RAW as u64 / 2 => {
                    out.push(if i128::from(m) * scale == s {
                        Bound::le(m)
                    } else {
                        Bound::lt(m)
                    })
                }
                _ => return false,
            }
        }
        true
    }
}

/// A free-list of [`Dbm`] allocations: successor computation clones
/// zones constantly, and recycling the bound-matrix `Vec`s through a
/// per-worker pool removes that allocation traffic from the hot path
/// (workers never share a pool, so no synchronization is involved).
#[derive(Default)]
pub struct DbmPool {
    free: Vec<Dbm>,
}

impl DbmPool {
    /// An empty pool.
    pub fn new() -> DbmPool {
        DbmPool::default()
    }

    /// Clones `src`, reusing a pooled allocation when available.
    pub fn clone_dbm(&mut self, src: &Dbm) -> Dbm {
        match self.free.pop() {
            Some(mut z) => {
                z.copy_from(src);
                z
            }
            None => src.clone(),
        }
    }

    /// Returns a no-longer-needed zone's allocation to the pool.
    ///
    /// Capped: bulk refills (the engine recycles whole expanded
    /// frontiers, thousands of zones on real runs) would otherwise pin
    /// peak-frontier memory in one worker's free list for the rest of
    /// the search; beyond the cap the allocation is simply dropped.
    pub fn recycle(&mut self, z: Dbm) {
        const MAX_POOLED: usize = 256;
        if self.free.len() < MAX_POOLED {
            self.free.push(z);
        }
    }
}
