//! The process-global memory of the compositional argument: refinement
//! verdicts and pair proofs, each keyed by a structural digest and
//! bounded, forgetting its oldest entries first.
//!
//! Both are pure functions of their keys, so a forgotten entry costs
//! only the search that recomputes it. The bounds are constants: a
//! daemon serving edits for weeks holds at most [`MAX_VERDICTS`]
//! verdicts and [`MAX_PAIR_BYTES`] of pair proofs.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Refinement verdicts kept: a verdict is small (a failure carries one
/// rendered counter-example), and a registry sweep needs a few dozen.
pub(crate) const MAX_VERDICTS: usize = 4096;

/// Bytes of encoded pair proofs kept. The largest registry fleet,
/// chain-20, encodes its 19 pair proofs in 14.1 MB.
pub(crate) const MAX_PAIR_BYTES: usize = 32 << 20;

/// A refinement verdict, as the driver replays it.
#[derive(Clone)]
pub(crate) enum CachedRefinement {
    Holds,
    Fails { reason: String, rendered: String },
}

/// A map from digests to values that evicts in insertion order once it
/// holds more than `max_entries` values or more than `max_bytes` of
/// their `weight`. Replacing a key's value makes it the newest.
pub(crate) struct Bounded<V> {
    entries: HashMap<u64, (u64, V)>,
    /// Insertion sequence number → key, oldest first.
    order: BTreeMap<u64, u64>,
    next_seq: u64,
    bytes: usize,
    max_entries: usize,
    max_bytes: usize,
    weight: fn(&V) -> usize,
}

impl<V> Bounded<V> {
    pub(crate) fn new(max_entries: usize, max_bytes: usize, weight: fn(&V) -> usize) -> Self {
        Bounded {
            entries: HashMap::new(),
            order: BTreeMap::new(),
            next_seq: 0,
            bytes: 0,
            max_entries,
            max_bytes,
            weight,
        }
    }

    pub(crate) fn get(&self, key: u64) -> Option<&V> {
        self.entries.get(&key).map(|(_, v)| v)
    }

    /// Stores `value` under `key` as the newest entry, then evicts the
    /// oldest until both bounds hold. A value heavier than the byte
    /// bound on its own is not stored.
    pub(crate) fn insert(&mut self, key: u64, value: V) {
        self.remove(key);
        let w = (self.weight)(&value);
        if w > self.max_bytes {
            return;
        }
        self.bytes += w;
        self.order.insert(self.next_seq, key);
        self.entries.insert(key, (self.next_seq, value));
        self.next_seq += 1;
        while self.entries.len() > self.max_entries || self.bytes > self.max_bytes {
            let (_, oldest) = self
                .order
                .pop_first()
                .expect("bounds exceeded by stored entries");
            let (_, v) = self
                .entries
                .remove(&oldest)
                .expect("order and entries agree");
            self.bytes -= (self.weight)(&v);
        }
    }

    fn remove(&mut self, key: u64) {
        if let Some((seq, v)) = self.entries.remove(&key) {
            self.order.remove(&seq);
            self.bytes -= (self.weight)(&v);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.bytes = 0;
    }
}

/// Refinement verdicts by refinement digest, pair proofs by pair-network
/// digest. A pair proof is kept encoded
/// ([`pte_zones::PassedArtifact::to_bytes`]), one buffer per proof: held
/// as artifacts, 60 MB of proofs are millions of small allocations among
/// the searches' own, and they slowed unrelated searches of the same
/// process by 16–24% (chain-5 falsification, measured); encoded, by at
/// most a few percent. Decoding on transfer also re-checks the checksum.
pub(crate) struct Store {
    pub(crate) verdicts: Bounded<CachedRefinement>,
    pub(crate) pairs: Bounded<Arc<[u8]>>,
}

impl Store {
    pub(crate) fn new() -> Store {
        Store {
            verdicts: Bounded::new(MAX_VERDICTS, usize::MAX, |_| 0),
            pairs: Bounded::new(usize::MAX, MAX_PAIR_BYTES, |bytes| bytes.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_bound_evicts_oldest_first() {
        let mut b: Bounded<u32> = Bounded::new(3, usize::MAX, |_| 0);
        for k in 0..5u64 {
            b.insert(k, k as u32);
            assert!(b.len() <= 3);
        }
        assert_eq!(b.len(), 3);
        assert!(b.get(0).is_none() && b.get(1).is_none());
        assert_eq!(
            (b.get(2), b.get(3), b.get(4)),
            (Some(&2), Some(&3), Some(&4))
        );
        // Replacing a key makes it the newest, so 3 goes before it.
        b.insert(2, 20);
        b.insert(5, 5);
        assert!(b.get(3).is_none());
        assert_eq!(b.get(2), Some(&20));
    }

    #[test]
    fn the_store_bounds_its_verdicts_by_count() {
        let mut s = Store::new();
        for k in 0..=MAX_VERDICTS as u64 {
            s.verdicts.insert(k, CachedRefinement::Holds);
        }
        assert_eq!(s.verdicts.len(), MAX_VERDICTS);
        assert!(s.verdicts.get(0).is_none(), "the oldest verdict goes first");
        assert!(s.verdicts.get(MAX_VERDICTS as u64).is_some());
    }

    #[test]
    fn byte_bound_evicts_oldest_first_and_is_never_exceeded() {
        let mut b: Bounded<usize> = Bounded::new(usize::MAX, 100, |&w| w);
        for (k, w) in [(0u64, 40usize), (1, 30), (2, 20), (3, 50), (4, 10), (5, 90)] {
            b.insert(k, w);
            assert!(
                b.bytes() <= 100,
                "{} bytes after inserting key {k}",
                b.bytes()
            );
            let live: usize = (0..=k).filter_map(|k| b.get(k)).sum();
            assert_eq!(b.bytes(), live, "accounting matches the stored weights");
        }
        // 0 went to admit 3, 1 to admit 4, and 2 and 3 to admit 5.
        assert_eq!(
            (0..6).filter(|&k| b.get(k).is_some()).collect::<Vec<_>>(),
            [4, 5]
        );
        // Heavier than the whole bound: not stored, nothing evicted.
        b.insert(6, 101);
        assert!(b.get(6).is_none());
        assert_eq!(b.len(), 2);
        b.clear();
        assert_eq!((b.len(), b.bytes()), (0, 0));
    }
}
