//! Passed-list artifacts: a completed search's proof, serialized.
//!
//! UPPAAL-lineage engines treat the passed list as *the* proof object —
//! every settled `(location vector, observer state, zone)` triple is a
//! certificate that the behaviours it covers are violation-free. This
//! module makes that object durable: [`PassedArtifact`] captures the
//! interned discrete keys plus the [`MinimalDbm`] zones of a `Safe`
//! search together with everything that scopes the proof's validity
//! (clock count, extrapolation operator, a structural digest of the
//! lowered network, its timing constants, the activity-mask digest, and
//! the monitor's [`WarmProfile`]), and serializes it into a versioned,
//! checksummed binary blob ([`PassedArtifact::to_bytes`] /
//! [`PassedArtifact::from_bytes`] — lossless round-trip, property-tested
//! below).
//!
//! ## Warm-start validity
//!
//! An artifact may *warm-start* a later verification
//! ([`crate::Limits::warm_start`]) only when the new model provably has
//! no more behaviours-to-refute than the proved one:
//!
//! 1. **Identical lowered network** — same structural digest
//!    ([`net_structure_digest`]: names, locations, edges, syncs, emits,
//!    resets *including values*, frozen/risky/urgent flags, and the
//!    shape of every guard/invariant atom) **and** the same timing
//!    constants ([`atom_ticks`], compared elementwise). A network
//!    timing delta always falls back to a cold search — the engine
//!    never guesses which zone-graph edits a constant change induces.
//! 2. **Weaker-or-equal monitor** — same monitor structure and every
//!    monitor constant moved only in the direction that makes the
//!    property *harder to violate* ([`WarmProfile::admits`]). Then the
//!    old proof's "no violation anywhere" transfers verbatim: the new
//!    violation predicates are subsets of the old ones.
//! 3. **Same search configuration** — clock count, extrapolation
//!    operator, and activity-mask digest all equal, so the stored zones
//!    mean the same thing they meant at capture time.
//!
//! Anything that fails a gate is a cold start; a warm start can
//! therefore never flip a verdict (it only ever *returns* `Safe`, and
//! only when the transfer argument holds — enforced by the cold-vs-warm
//! bit-identity tests in `pte-verify`).

use crate::analysis::ActivityMasks;
use crate::dbm::{Bound, MinCon, MinimalDbm};
use crate::monitor::MonitorState;
use crate::reach::Extrapolation;
use crate::ta::TaNetwork;
use std::fmt;
use std::sync::Arc;

/// Artifact schema version ([`PassedArtifact::to_bytes`] embeds it;
/// [`PassedArtifact::from_bytes`] rejects any other value). Bump on any
/// encoding change — persisted artifacts of older versions then read as
/// stale and the daemon's disk tier treats them as misses.
pub const ARTIFACT_VERSION: u32 = 1;

/// File magic, so a disk-cache file of the wrong kind fails fast.
const MAGIC: [u8; 4] = *b"PTEA";

/// Streaming FNV-1a/64 — the digest used for the artifact checksum and
/// the structural digests. Deterministic across processes and
/// platforms (unlike `std`'s `RandomState`), which is the whole point:
/// digests are persisted and compared across daemon restarts.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Digest {
    /// A fresh digest (FNV offset basis).
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a length-prefixed string (prefixing prevents boundary
    /// ambiguity between adjacent fields).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Folds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds an `i64` (little-endian two's complement).
    pub fn write_i64(&mut self, v: i64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a single byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Digest {
        Digest::new()
    }
}

/// FNV-1a/64 of a byte slice (the artifact payload checksum).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.write_bytes(bytes);
    d.finish()
}

/// The monitor's contribution to warm-start validity: a structural
/// digest (which property, over which entities/targets) plus the
/// monitor's constants split by *weakening direction* — see
/// [`WarmProfile::admits`]. Built by
/// [`crate::Monitor::warm_profile`]; a monitor that returns `None`
/// neither captures artifacts nor warm-starts from them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WarmProfile {
    /// Digest of everything about the monitor except its constants.
    pub structure: u64,
    /// Constants where a **larger** new value makes the property harder
    /// to violate (e.g. the PTE Rule-1 dwelling bounds: the violation
    /// predicate is `r > bound`).
    pub weaken_lower: Vec<i64>,
    /// Constants where a **smaller** new value makes the property
    /// harder to violate (e.g. the PTE `T^min_risky` / `T^min_safe`
    /// margins: the violation predicates are `r < margin`).
    pub weaken_upper: Vec<i64>,
}

impl WarmProfile {
    /// `true` when a proof under `self` (the *captured* profile) is
    /// still a proof under `new`: identical structure, and every
    /// constant moved only in its weakening direction. The order is
    /// transitive, so chained warm starts stay sound even though each
    /// capture passes the original artifact through unchanged.
    pub fn admits(&self, new: &WarmProfile) -> bool {
        self.structure == new.structure
            && self.weaken_lower.len() == new.weaken_lower.len()
            && self.weaken_upper.len() == new.weaken_upper.len()
            && self
                .weaken_lower
                .iter()
                .zip(&new.weaken_lower)
                .all(|(old, new)| new >= old)
            && self
                .weaken_upper
                .iter()
                .zip(&new.weaken_upper)
                .all(|(old, new)| new <= old)
    }
}

/// One settled passed-list entry: the discrete key (location vector +
/// observer state) and the zone in minimal constraint form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassedEntry {
    /// Network location vector.
    pub locs: Vec<u32>,
    /// Monitor observer state.
    pub mon: MonitorState,
    /// The settled (delay-closed, extrapolated) zone.
    pub zone: MinimalDbm,
}

/// A completed `Safe` search's passed list plus the metadata that
/// scopes its validity (see the module docs for the warm-start gates).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassedArtifact {
    /// Total clock count (network + observer clocks); every entry's
    /// zone has dimension `nclocks + 1`.
    pub nclocks: usize,
    /// Extrapolation operator the search ran with.
    pub extrapolation: Extrapolation,
    /// `true` when the capture run had the static clock reduction on
    /// (informational — the digests below are what gate reuse).
    pub reduce_clocks: bool,
    /// Structural digest of the lowered network, constants excluded
    /// ([`net_structure_digest`]).
    pub net_digest: u64,
    /// Every guard/invariant constant of the network, in canonical
    /// traversal order ([`atom_ticks`]). Compared elementwise — a warm
    /// start requires them identical.
    pub atom_ticks: Vec<i64>,
    /// Digest of the activity masks the search freed dead clocks with
    /// ([`masks_digest`]).
    pub masks_digest: u64,
    /// The capturing monitor's [`WarmProfile`].
    pub profile: WarmProfile,
    /// The passed list, in deterministic shard/intern order.
    pub entries: Vec<PassedEntry>,
}

/// Where a capture run deposits its artifact
/// ([`crate::Limits::capture`]): shared slot, filled at most once per
/// search, readable after the verdict returns.
pub type ArtifactSink = Arc<parking_lot::Mutex<Option<PassedArtifact>>>;

/// A fresh, empty [`ArtifactSink`].
pub fn new_sink() -> ArtifactSink {
    Arc::new(parking_lot::Mutex::new(None))
}

/// Everything that can be wrong with a serialized artifact. Loaders
/// treat *any* of these as a cache miss — never as an error worth
/// failing a verification over.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArtifactError {
    /// Fewer bytes than the header or a declared length requires.
    Truncated,
    /// The magic bytes are not `PTEA`.
    BadMagic,
    /// Schema version mismatch (carries the stored version).
    StaleVersion(u32),
    /// Payload checksum mismatch — bit rot or a torn write.
    BadChecksum,
    /// Structurally invalid payload (impossible lengths, bad tags).
    Malformed(&'static str),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Truncated => write!(f, "artifact truncated"),
            ArtifactError::BadMagic => write!(f, "not a passed-list artifact (bad magic)"),
            ArtifactError::StaleVersion(v) => {
                write!(
                    f,
                    "artifact version {v} (this build reads {ARTIFACT_VERSION})"
                )
            }
            ArtifactError::BadChecksum => write!(f, "artifact checksum mismatch"),
            ArtifactError::Malformed(what) => write!(f, "malformed artifact: {what}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl Extrapolation {
    /// Serialization tag.
    fn tag(self) -> u8 {
        match self {
            Extrapolation::ExtraM => 0,
            Extrapolation::ExtraLu => 1,
        }
    }

    fn from_tag(tag: u8) -> Result<Extrapolation, ArtifactError> {
        match tag {
            0 => Ok(Extrapolation::ExtraM),
            1 => Ok(Extrapolation::ExtraLu),
            _ => Err(ArtifactError::Malformed("extrapolation tag")),
        }
    }
}

/// Structural digest of a lowered network, **excluding** every
/// guard/invariant constant (those live in [`atom_ticks`] and are
/// compared elementwise instead, so a pure timing delta is
/// distinguishable from a topology change). Covers clock names,
/// automaton names and initial locations, location names +
/// frozen/risky flags + invariant atom shapes (clock index and
/// relation), and edge endpoints, guard shapes, resets *with* values,
/// synchronization kind + root, emissions, and urgency.
pub fn net_structure_digest(net: &TaNetwork) -> u64 {
    use crate::ta::{Rel, Sync};
    let mut d = Digest::new();
    d.write_u64(net.clocks.len() as u64);
    for c in &net.clocks {
        d.write_str(c);
    }
    d.write_u64(net.automata.len() as u64);
    let rel_tag = |r: Rel| -> u8 {
        match r {
            Rel::Le => 0,
            Rel::Lt => 1,
            Rel::Ge => 2,
            Rel::Gt => 3,
        }
    };
    for aut in &net.automata {
        d.write_str(&aut.name);
        d.write_u64(aut.initial as u64);
        d.write_u64(aut.locations.len() as u64);
        for loc in &aut.locations {
            d.write_str(&loc.name);
            d.write_u8(u8::from(loc.frozen) | (u8::from(loc.risky) << 1));
            d.write_u64(loc.invariant.len() as u64);
            for a in &loc.invariant {
                d.write_u64(a.clock as u64);
                d.write_u8(rel_tag(a.rel));
            }
        }
        d.write_u64(aut.edges.len() as u64);
        for e in &aut.edges {
            d.write_u64(e.src as u64);
            d.write_u64(e.dst as u64);
            d.write_u8(u8::from(e.urgent));
            d.write_u64(e.guard.len() as u64);
            for a in &e.guard {
                d.write_u64(a.clock as u64);
                d.write_u8(rel_tag(a.rel));
            }
            d.write_u64(e.resets.len() as u64);
            for &(c, v) in &e.resets {
                d.write_u64(c as u64);
                d.write_i64(v);
            }
            match &e.sync {
                Sync::None => d.write_u8(0),
                Sync::External(r) => {
                    d.write_u8(1);
                    d.write_str(r.as_str());
                }
                Sync::Reliable(r) => {
                    d.write_u8(2);
                    d.write_str(r.as_str());
                }
                Sync::Lossy(r) => {
                    d.write_u8(3);
                    d.write_str(r.as_str());
                }
            }
            d.write_u64(e.emits.len() as u64);
            for r in &e.emits {
                d.write_str(r.as_str());
            }
        }
    }
    d.finish()
}

/// Every guard/invariant constant of the network in a canonical
/// traversal order (per automaton: each location's invariant atoms,
/// then each edge's guard atoms). Together with
/// [`net_structure_digest`] this pins the lowered network exactly: two
/// networks with equal digest and equal tick vectors are the same
/// model.
pub fn atom_ticks(net: &TaNetwork) -> Vec<i64> {
    let mut ticks = Vec::new();
    for aut in &net.automata {
        for loc in &aut.locations {
            for a in &loc.invariant {
                ticks.push(a.ticks);
            }
        }
        for e in &aut.edges {
            for a in &e.guard {
                ticks.push(a.ticks);
            }
        }
    }
    ticks
}

/// Digest of the activity masks a search freed dead clocks with
/// (`None` when masking was off or trivial). Stored zones reflect the
/// freeing, so reuse requires the same masks.
pub fn masks_digest(masks: Option<&ActivityMasks>) -> u64 {
    let mut d = Digest::new();
    match masks {
        None => d.write_u8(0),
        Some(m) => {
            d.write_u8(1);
            d.write_u64(m.clocks as u64);
            d.write_u64(m.shared as u64);
            d.write_u64(m.dead.len() as u64);
            for locs in &m.dead {
                d.write_u64(locs.len() as u64);
                for &mask in locs {
                    d.write_u64(mask);
                }
            }
        }
    }
    d.finish()
}

/// Little-endian payload writer (fixed-width ints only — no varints, so
/// the format is trivially auditable).
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Bounds-checked little-endian payload reader.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        let end = self.pos.checked_add(n).ok_or(ArtifactError::Truncated)?;
        if end > self.buf.len() {
            return Err(ArtifactError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, ArtifactError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A declared element count, sanity-bounded by the bytes actually
    /// remaining (each element costs ≥ `min_elem_bytes`), so a corrupt
    /// length cannot drive a pre-allocation of gigabytes.
    fn len(&mut self, min_elem_bytes: usize) -> Result<usize, ArtifactError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.buf.len() - self.pos {
            return Err(ArtifactError::Truncated);
        }
        Ok(n)
    }
}

impl PassedArtifact {
    /// Serializes into the versioned, checksummed binary format:
    /// `magic · version · fnv1a64(payload) · payload`, everything
    /// little-endian and fixed-width.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer {
            buf: Vec::with_capacity(64 + self.entries.len() * 64),
        };
        w.u32(self.nclocks as u32);
        w.u8(self.extrapolation.tag());
        // Bits 1 and 2 are retired: written as 0 and ignored on read,
        // so artifacts from builds that set them still parse.
        w.u8(u8::from(self.reduce_clocks));
        w.u64(self.net_digest);
        w.u64(self.masks_digest);
        w.u32(self.atom_ticks.len() as u32);
        for &t in &self.atom_ticks {
            w.i64(t);
        }
        w.u64(self.profile.structure);
        w.u32(self.profile.weaken_lower.len() as u32);
        for &c in &self.profile.weaken_lower {
            w.i64(c);
        }
        w.u32(self.profile.weaken_upper.len() as u32);
        for &c in &self.profile.weaken_upper {
            w.i64(c);
        }
        w.u32(self.entries.len() as u32);
        for e in &self.entries {
            w.u32(e.locs.len() as u32);
            for &l in &e.locs {
                w.u32(l);
            }
            w.u32(e.mon.len() as u32);
            w.buf.extend_from_slice(&e.mon);
            w.u8(e.zone.dim());
            w.u32(e.zone.len() as u32);
            for c in e.zone.constraints() {
                w.u8(c.i);
                w.u8(c.j);
                w.i64(c.b.raw());
            }
        }
        let payload = w.buf;
        let mut out = Vec::with_capacity(16 + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parses and validates a serialized artifact. Any defect — bad
    /// magic, stale version, checksum mismatch, truncation, malformed
    /// structure — is an [`ArtifactError`]; callers treat them all as
    /// cache misses.
    pub fn from_bytes(bytes: &[u8]) -> Result<PassedArtifact, ArtifactError> {
        if bytes.len() < 16 {
            return Err(ArtifactError::Truncated);
        }
        if bytes[..4] != MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != ARTIFACT_VERSION {
            return Err(ArtifactError::StaleVersion(version));
        }
        let checksum = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let payload = &bytes[16..];
        if fnv1a64(payload) != checksum {
            return Err(ArtifactError::BadChecksum);
        }
        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        let nclocks = r.u32()? as usize;
        let extrapolation = Extrapolation::from_tag(r.u8()?)?;
        let flags = r.u8()?;
        if flags & !0b111 != 0 {
            return Err(ArtifactError::Malformed("flag bits"));
        }
        let net_digest = r.u64()?;
        let masks_digest = r.u64()?;
        let n_ticks = r.len(8)?;
        let mut ticks = Vec::with_capacity(n_ticks);
        for _ in 0..n_ticks {
            ticks.push(r.i64()?);
        }
        let structure = r.u64()?;
        let n_lower = r.len(8)?;
        let mut weaken_lower = Vec::with_capacity(n_lower);
        for _ in 0..n_lower {
            weaken_lower.push(r.i64()?);
        }
        let n_upper = r.len(8)?;
        let mut weaken_upper = Vec::with_capacity(n_upper);
        for _ in 0..n_upper {
            weaken_upper.push(r.i64()?);
        }
        let n_entries = r.len(10)?;
        let mut entries = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            let n_locs = r.len(4)?;
            let mut locs = Vec::with_capacity(n_locs);
            for _ in 0..n_locs {
                locs.push(r.u32()?);
            }
            let n_mon = r.len(1)?;
            let mon = r.take(n_mon)?.to_vec();
            let dim = r.u8()?;
            if usize::from(dim) != nclocks + 1 {
                return Err(ArtifactError::Malformed("zone dimension"));
            }
            let n_cons = r.len(10)?;
            let mut cons = Vec::with_capacity(n_cons);
            for _ in 0..n_cons {
                let i = r.u8()?;
                let j = r.u8()?;
                if i >= dim || j >= dim {
                    return Err(ArtifactError::Malformed("constraint clock index"));
                }
                cons.push(MinCon {
                    i,
                    j,
                    b: Bound::from_raw(r.i64()?),
                });
            }
            entries.push(PassedEntry {
                locs,
                mon,
                zone: MinimalDbm::from_parts(dim, cons),
            });
        }
        if r.pos != payload.len() {
            return Err(ArtifactError::Malformed("trailing bytes"));
        }
        Ok(PassedArtifact {
            nclocks,
            extrapolation,
            reduce_clocks: flags & 1 != 0,
            net_digest,
            atom_ticks: ticks,
            masks_digest,
            profile: WarmProfile {
                structure,
                weaken_lower,
                weaken_upper,
            },
            entries,
        })
    }

    /// Serialized size in bytes (header included) without building the
    /// buffer — the disk cache's eviction accounting unit.
    pub fn encoded_len(&self) -> usize {
        let mut n = 16 + 4 + 1 + 1 + 8 + 8; // header + fixed fields
        n += 4 + 8 * self.atom_ticks.len();
        n += 8 + 4 + 8 * self.profile.weaken_lower.len() + 4 + 8 * self.profile.weaken_upper.len();
        n += 4;
        for e in &self.entries {
            n += 4 + 4 * e.locs.len() + 4 + e.mon.len() + 1 + 4 + 10 * e.zone.len();
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbm::Dbm;

    /// SplitMix64 — the deterministic generator driving the
    /// round-trip property test (no external proptest dependency).
    fn splitmix64(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A random canonical non-empty zone over `clocks` clocks, reduced
    /// to minimal constraint form (the only way real artifacts acquire
    /// zones, so the generated population matches production shapes).
    fn random_zone(rng: &mut u64, clocks: usize) -> MinimalDbm {
        let mut z = Dbm::zero(clocks);
        z.up();
        for c in 1..=clocks {
            if splitmix64(rng).is_multiple_of(2) {
                let m = (splitmix64(rng) % 1_000_000) as i64;
                z.constrain(c, 0, Bound::le(m));
            }
        }
        z.canonicalize();
        debug_assert!(!z.is_empty());
        z.reduce()
    }

    fn random_artifact(seed: u64) -> PassedArtifact {
        let mut rng = seed;
        let clocks = 1 + (splitmix64(&mut rng) % 6) as usize;
        let n_entries = (splitmix64(&mut rng) % 20) as usize;
        let entries = (0..n_entries)
            .map(|_| PassedEntry {
                locs: (0..3).map(|_| (splitmix64(&mut rng) % 7) as u32).collect(),
                mon: (0..2).map(|_| (splitmix64(&mut rng) % 4) as u8).collect(),
                zone: random_zone(&mut rng, clocks),
            })
            .collect();
        PassedArtifact {
            nclocks: clocks,
            extrapolation: if splitmix64(&mut rng).is_multiple_of(2) {
                Extrapolation::ExtraM
            } else {
                Extrapolation::ExtraLu
            },
            reduce_clocks: splitmix64(&mut rng).is_multiple_of(2),
            net_digest: splitmix64(&mut rng),
            atom_ticks: (0..(splitmix64(&mut rng) % 12))
                .map(|_| splitmix64(&mut rng) as i64 % 1_000_000)
                .collect(),
            masks_digest: splitmix64(&mut rng),
            profile: WarmProfile {
                structure: splitmix64(&mut rng),
                weaken_lower: (0..(splitmix64(&mut rng) % 5))
                    .map(|_| (splitmix64(&mut rng) % 1_000_000) as i64)
                    .collect(),
                weaken_upper: (0..(splitmix64(&mut rng) % 5))
                    .map(|_| (splitmix64(&mut rng) % 1_000_000) as i64)
                    .collect(),
            },
            entries,
        }
    }

    /// Generative round-trip: 64 seeded random artifacts, each
    /// serialize → parse → compare losslessly (and the size accounting
    /// matches the real encoding).
    #[test]
    fn round_trip_is_lossless() {
        for seed in 0..64u64 {
            let art = random_artifact(seed);
            let bytes = art.to_bytes();
            assert_eq!(bytes.len(), art.encoded_len(), "seed {seed}");
            let back = PassedArtifact::from_bytes(&bytes).unwrap_or_else(|e| {
                panic!("seed {seed}: round-trip parse failed: {e}");
            });
            assert_eq!(art, back, "seed {seed}");
        }
    }

    /// Every single-byte corruption of a serialized artifact is
    /// detected (checksum, magic, version, or structural validation) —
    /// a torn or bit-rotted cache file can never parse as a different
    /// valid proof.
    #[test]
    fn corruption_is_detected() {
        let art = random_artifact(7);
        let bytes = art.to_bytes();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x41;
            match PassedArtifact::from_bytes(&bad) {
                Err(_) => {}
                Ok(parsed) => assert_eq!(
                    parsed, art,
                    "byte {pos}: corruption parsed as a different artifact"
                ),
            }
        }
    }

    #[test]
    fn truncation_and_version_are_rejected() {
        let art = random_artifact(3);
        let bytes = art.to_bytes();
        for cut in [0, 3, 8, 15, bytes.len() - 1] {
            assert!(matches!(
                PassedArtifact::from_bytes(&bytes[..cut]),
                Err(ArtifactError::Truncated | ArtifactError::BadChecksum)
            ));
        }
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            PassedArtifact::from_bytes(&wrong_magic),
            Err(ArtifactError::BadMagic)
        );
        let mut future = bytes.clone();
        future[4..8].copy_from_slice(&(ARTIFACT_VERSION + 1).to_le_bytes());
        assert_eq!(
            PassedArtifact::from_bytes(&future),
            Err(ArtifactError::StaleVersion(ARTIFACT_VERSION + 1))
        );
    }

    /// Flag bits 1 and 2 are retired: written as 0 and ignored on read,
    /// so artifacts from builds that set them still load. Any higher
    /// bit is still malformed.
    #[test]
    fn retired_flag_bits_are_ignored_on_read() {
        // Payload layout: nclocks (u32), extrapolation tag (u8), flags.
        const FLAGS: usize = 16 + 4 + 1;
        let art = random_artifact(11);
        let bytes = art.to_bytes();
        assert_eq!(bytes[FLAGS], u8::from(art.reduce_clocks));
        let with_flags = |set: u8| {
            let mut b = bytes.clone();
            b[FLAGS] |= set;
            let checksum = fnv1a64(&b[16..]);
            b[8..16].copy_from_slice(&checksum.to_le_bytes());
            b
        };
        assert_eq!(PassedArtifact::from_bytes(&with_flags(0b110)), Ok(art));
        assert_eq!(
            PassedArtifact::from_bytes(&with_flags(0b1000)),
            Err(ArtifactError::Malformed("flag bits"))
        );
    }

    #[test]
    fn warm_profile_admission_is_directional() {
        let base = WarmProfile {
            structure: 42,
            weaken_lower: vec![100],
            weaken_upper: vec![50, 80],
        };
        assert!(base.admits(&base), "reflexive");
        // Larger lower-direction and smaller upper-direction constants
        // weaken the property: admitted.
        let weaker = WarmProfile {
            structure: 42,
            weaken_lower: vec![150],
            weaken_upper: vec![40, 80],
        };
        assert!(base.admits(&weaker));
        // Any constant moved in the strengthening direction: rejected.
        let tighter_lower = WarmProfile {
            weaken_lower: vec![99],
            ..base.clone()
        };
        assert!(!base.admits(&tighter_lower));
        let tighter_upper = WarmProfile {
            weaken_upper: vec![50, 81],
            ..base.clone()
        };
        assert!(!base.admits(&tighter_upper));
        // Different structure or arity: rejected.
        assert!(!base.admits(&WarmProfile {
            structure: 43,
            ..base.clone()
        }));
        assert!(!base.admits(&WarmProfile {
            weaken_upper: vec![50],
            ..base.clone()
        }));
        // Transitivity spot check: base admits weaker admits weakest
        // implies base admits weakest.
        let weakest = WarmProfile {
            structure: 42,
            weaken_lower: vec![200],
            weaken_upper: vec![0, 0],
        };
        assert!(weaker.admits(&weakest) && base.admits(&weakest));
    }
}
