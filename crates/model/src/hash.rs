//! Fast, allocation-free hashing of terms and term tuples.
//!
//! The chase hashes atoms and trigger keys on every step, so the default
//! SipHash of `std::collections::HashMap` (DoS-resistant, but slow and
//! only reachable through the `Hash` trait machinery) is the wrong tool
//! for the hot path. This module provides an FxHash-style multiplicative
//! hash over [`Term`]s that can be driven directly from a slice — no
//! `Hasher` state machine, no per-call setup — plus a `BuildHasher` for
//! the interior `HashMap`s that key on single terms.
//!
//! All inputs are interned ids controlled by this process, so HashDoS
//! resistance is irrelevant here.

use std::hash::{BuildHasherDefault, Hasher};

use crate::symbols::PredId;
use crate::term::Term;

/// The Fx multiplier (Firefox / rustc's FxHash constant).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A 64-bit code injectively encoding a term (2-bit tag + 62-bit id).
#[inline]
pub fn term_code(t: Term) -> u64 {
    match t {
        Term::Const(c) => u64::from(c.0) << 2,
        Term::Null(n) => (u64::from(n.0) << 2) | 0b01,
        Term::Var(v) => (u64::from(v.0) << 2) | 0b10,
    }
}

/// Folds one 64-bit word into a running hash.
#[inline]
pub fn fold(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(K)
}

/// Hash of an atom: predicate + argument tuple.
#[inline]
pub fn hash_atom(pred: PredId, args: &[Term]) -> u64 {
    let mut h = fold(0, u64::from(pred.0));
    for &t in args {
        h = fold(h, term_code(t));
    }
    // Finalize so low bits depend on every input (open-addressing tables
    // index with `h & mask`).
    h ^ (h >> 32)
}

/// Hash of a bare term tuple (used for trigger keys).
#[inline]
pub fn hash_terms(terms: &[Term]) -> u64 {
    let mut h = fold(0, terms.len() as u64);
    for &t in terms {
        h = fold(h, term_code(t));
    }
    h ^ (h >> 32)
}

/// Slots per 64-byte cache line (the bucket width of a [`TagTable`]).
pub const LANES: usize = 8;

/// The distance batched probes run their software prefetch ahead of the
/// probe loop (see `TermTupleSet::insert_batch` in the engine crate).
/// Eight keeps ~8 independent line fetches in flight — enough to cover
/// a DRAM miss at these probe costs without thrashing L1.
pub const PREFETCH_DIST: usize = 8;

/// Number of hash partitions used by partitioned table wrappers (the
/// engine's fired set and null-intern store): a power of two, small
/// enough that per-partition bookkeeping stays negligible, large enough
/// that a binned batch walks tables a quarter the size.
pub const PARTITIONS: usize = 4;

/// The partition a hash routes to. Bits 28..30 sit above any realistic
/// bucket-index range (a table would need billions of slots to consume
/// them) and below the 32-bit tag, so partitioning stays independent of
/// both within-table probe order and tag verification.
#[inline]
pub fn partition(hash: u64) -> usize {
    ((hash >> 28) as usize) & (PARTITIONS - 1)
}

/// One 64-byte-aligned line of 8 packed slots. Alignment guarantees a
/// probe touches exactly one cache line per bucket.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct CacheLine([u64; LANES]);

const EMPTY_LINE: CacheLine = CacheLine([EMPTY_SLOT; LANES]);

/// A grow-only open-addressing index shared by the workspace's
/// arena-backed stores (instance dedup, trigger-key sets, null
/// interning).
///
/// The table stores no keys itself — only `(hash tag, ordinal)` slots
/// packing the high 32 hash bits as a cheap rejection tag, so a probe
/// touches a single cache line before the caller's authoritative
/// verification runs against its own arena. Slots live in 64-byte
/// aligned cache lines, and a probe is cache-line-bucketized: the low
/// hash bits pick a line, and the probe scans all 8 of its lanes
/// before moving to the next line, so a probe resolves within one line
/// unless that whole line is full. Invariants the callers rely on (and
/// must preserve):
///
/// * **grow before probing for insertion** — [`TagTable::reserve_one`]
///   first, then [`TagTable::probe`], then [`TagTable::fill`] with the
///   vacant slot; growing between probe and fill would invalidate the
///   slot index;
/// * **collision safety** — a tag match is never trusted; the `eq`
///   closure must compare the real key;
/// * load factor stays below ¾; no deletions, so the probe needs no
///   tombstones.
#[derive(Debug, Clone, Default)]
pub struct TagTable {
    lines: Vec<CacheLine>,
    len: usize,
}

const EMPTY_SLOT: u64 = u64::MAX;

#[inline]
fn pack_slot(hash: u64, ordinal: u32) -> u64 {
    ((hash >> 32) << 32) | u64::from(ordinal)
}

/// Result of [`TagTable::probe`]: the stored ordinal, or the vacant slot
/// where an insertion belongs.
pub enum TagProbe {
    /// An entry with this key exists, at the given ordinal.
    Found(u32),
    /// No such entry; [`TagTable::fill`] this slot to insert it.
    Vacant(usize),
}

impl TagTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slot_at(&self, i: usize) -> u64 {
        self.lines[i >> 3].0[i & 7]
    }

    /// Probes for an entry with the given hash, verifying candidates via
    /// `eq` (called with the stored ordinal).
    ///
    /// # Panics
    /// The table must have spare capacity (call [`TagTable::reserve_one`]
    /// first); a full or zero-capacity table would loop or index out of
    /// bounds. Use [`TagTable::find`] for read-only lookups.
    #[inline]
    pub fn probe(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> TagProbe {
        let tag = hash >> 32;
        let lmask = self.lines.len() - 1;
        let mut g = (hash as usize) & lmask;
        // Ring scan from a hash-derived start slot: entries with
        // different hashes sharing a line start at different slots, so
        // a hit usually lands on its first comparison while the
        // traversal still touches at most one line per eight probes.
        // Bits 25.. are disjoint from the line index (low bits), the
        // partition (28..), and the tag (32..) at every realistic
        // capacity.
        let s = ((hash >> 25) as usize) & 7;
        loop {
            let line = &self.lines[g].0;
            for dk in 0..LANES {
                let k = (s + dk) & 7;
                let slot = line[k];
                if slot == EMPTY_SLOT {
                    return TagProbe::Vacant((g << 3) | k);
                }
                if slot >> 32 == tag && eq(slot as u32) {
                    return TagProbe::Found(slot as u32);
                }
            }
            g = (g + 1) & lmask;
        }
    }

    /// Hints the CPU to fetch the cache line where a probe for `hash`
    /// would start. The batch emit pass runs a fixed distance
    /// ([`PREFETCH_DIST`]) ahead of its probe loop with this, so the
    /// table's random-access misses overlap instead of serializing.
    /// Purely a hint — safe at any capacity, compiles to nothing off
    /// x86-64.
    #[inline]
    pub fn prefetch(&self, hash: u64) {
        #[cfg(target_arch = "x86_64")]
        if !self.lines.is_empty() {
            let g = (hash as usize) & (self.lines.len() - 1);
            // SAFETY: `g` is in bounds and prefetch dereferences nothing.
            unsafe {
                std::arch::x86_64::_mm_prefetch(
                    self.lines.as_ptr().add(g).cast::<i8>(),
                    std::arch::x86_64::_MM_HINT_T0,
                );
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = hash;
    }

    /// Read-only lookup (safe on an empty table).
    pub fn find(&self, hash: u64, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.lines.is_empty() {
            return None;
        }
        match self.probe(hash, eq) {
            TagProbe::Found(ordinal) => Some(ordinal),
            TagProbe::Vacant(_) => None,
        }
    }

    /// Read-only probe that also reports *where* a missing entry would
    /// go (safe on an empty table, where the answer is slot 0 of a
    /// yet-to-exist table). Callers that later insert under the same
    /// capacity can resume from that slot via [`TagTable::probe_at`]
    /// instead of re-walking the probe chain — the chase resolve stage
    /// probes the snapshot, and the commit stage reuses the walk.
    pub fn locate(&self, hash: u64, eq: impl FnMut(u32) -> bool) -> TagProbe {
        if self.lines.is_empty() {
            return TagProbe::Vacant(0);
        }
        self.probe(hash, eq)
    }

    /// Resumes a probe at `start` — valid only when `start` was returned
    /// by a probe for the *same hash* at the *same capacity* (no
    /// intervening rehash; check [`TagTable::slot_count`]): entries are
    /// never moved or deleted, so the chain prefix before `start` is
    /// immutable and need not be re-walked. Later insertions can only
    /// have landed at or after `start` in the probe order (an insertion
    /// takes the first vacant slot of the same traversal).
    ///
    /// # Panics
    /// Same contract as [`TagTable::probe`]: the table must have spare
    /// capacity.
    #[inline]
    pub fn probe_at(&self, start: usize, hash: u64, mut eq: impl FnMut(u32) -> bool) -> TagProbe {
        let tag = hash >> 32;
        let lmask = self.lines.len() - 1;
        let start = start & ((self.lines.len() << 3) - 1);
        let s = ((hash >> 25) as usize) & 7;
        let mut g = start >> 3;
        // Resume position within the line's ring scan: the hash gives
        // the ring's start slot, so `(k - s) & 7` recovers how far into
        // the ring the handed-back slot sits.
        let mut dk = (start & 7).wrapping_sub(s) & 7;
        loop {
            let line = &self.lines[g].0;
            while dk < LANES {
                let k = (s + dk) & 7;
                let slot = line[k];
                if slot == EMPTY_SLOT {
                    return TagProbe::Vacant((g << 3) | k);
                }
                if slot >> 32 == tag && eq(slot as u32) {
                    return TagProbe::Found(slot as u32);
                }
                dk += 1;
            }
            g = (g + 1) & lmask;
            dk = 0;
        }
    }

    /// Would inserting one more entry trigger a rehash? (The growth
    /// condition of [`TagTable::reserve_one`].)
    #[inline]
    pub fn insert_would_grow(&self) -> bool {
        (self.len + 1) * 4 >= (self.lines.len() << 3) * 3
    }

    /// Places `packed` into the first vacant slot of the probe order for
    /// `hash` — the rehash half of [`TagTable::reserve_one`].
    fn place(lines: &mut [CacheLine], hash: u64, packed: u64) {
        let lmask = lines.len() - 1;
        let mut g = (hash as usize) & lmask;
        let s = ((hash >> 25) as usize) & 7;
        loop {
            let line = &mut lines[g].0;
            for dk in 0..LANES {
                let k = (s + dk) & 7;
                if line[k] == EMPTY_SLOT {
                    line[k] = packed;
                    return;
                }
            }
            g = (g + 1) & lmask;
        }
    }

    /// Ensures capacity for one more entry, rehashing the stored entries
    /// if needed. `hashes[ordinal]` must be each stored entry's hash.
    pub fn reserve_one(&mut self, hashes: &[u64]) {
        if self.insert_would_grow() {
            // Fault site: fires *before* the rehash touches anything, so
            // an injected growth failure leaves the table consistent.
            crate::fault::check(crate::fault::FaultSite::TableGrow);
            let new_lines = (self.lines.len() * 2).max(2);
            let mut lines = vec![EMPTY_LINE; new_lines];
            for line in &self.lines {
                for &slot in &line.0 {
                    if slot != EMPTY_SLOT {
                        let hash = hashes[(slot as u32) as usize];
                        Self::place(&mut lines, hash, pack_slot(hash, slot as u32));
                    }
                }
            }
            self.lines = lines;
        }
    }

    /// Fills the vacant slot returned by a preceding [`TagTable::probe`]
    /// (with no intervening `reserve_one`).
    pub fn fill(&mut self, vacant: usize, hash: u64, ordinal: u32) {
        debug_assert_eq!(self.slot_at(vacant), EMPTY_SLOT);
        self.lines[vacant >> 3].0[vacant & 7] = pack_slot(hash, ordinal);
        self.len += 1;
    }

    /// Empties the table, keeping its slot allocation. Used by arenas that
    /// are recycled between work units (e.g. per-task trigger dedup in the
    /// enumerators). O(capacity); when the caller has tracked the
    /// filled slots, [`TagTable::clear_sparse`] is O(entries) instead.
    pub fn clear(&mut self) {
        self.lines.fill(EMPTY_LINE);
        self.len = 0;
    }

    /// Empties the table by wiping exactly the given slots — O(touched)
    /// instead of O(capacity). `touched` must contain every slot filled
    /// since the table was last empty (the order is irrelevant; emptying
    /// all of them cannot strand a probe chain because no entries
    /// remain).
    pub fn clear_sparse(&mut self, touched: &[u32]) {
        for &i in touched {
            self.lines[(i >> 3) as usize].0[(i & 7) as usize] = EMPTY_SLOT;
        }
        self.len = 0;
        debug_assert!(self
            .lines
            .iter()
            .all(|l| l.0.iter().all(|&s| s == EMPTY_SLOT)));
    }

    /// The current slot capacity (callers use a change in this value to
    /// detect a rehash, which scatters entries to untracked slots).
    pub fn slot_count(&self) -> usize {
        self.lines.len() << 3
    }

    /// Heap bytes held by the slot array (memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.lines.capacity() * std::mem::size_of::<CacheLine>()
    }

    /// Load factor: entries / slots (0 on an empty table; below ¾ by
    /// the growth policy).
    pub fn load_factor(&self) -> f64 {
        if self.lines.is_empty() {
            0.0
        } else {
            self.len as f64 / self.slot_count() as f64
        }
    }
}

/// A `std`-compatible [`Hasher`] with Fx mixing, for interior `HashMap`s
/// keyed on small id types ([`Term`], [`PredId`], …).
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let h = self.state;
        h ^ (h >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.state = fold(self.state, u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.state = fold(self.state, u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = fold(self.state, n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.state = fold(self.state, n as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` with Fx hashing.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` with Fx hashing.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::{ConstId, NullId, VarId};

    #[test]
    fn term_codes_are_injective_across_kinds() {
        let terms = [
            Term::Const(ConstId(0)),
            Term::Const(ConstId(1)),
            Term::Null(NullId(0)),
            Term::Null(NullId(1)),
            Term::Var(VarId(0)),
            Term::Var(VarId(1)),
        ];
        let codes: std::collections::HashSet<u64> = terms.iter().map(|&t| term_code(t)).collect();
        assert_eq!(codes.len(), terms.len());
    }

    #[test]
    fn tuple_hash_depends_on_order_and_length() {
        let a = Term::Const(ConstId(1));
        let b = Term::Const(ConstId(2));
        assert_ne!(hash_terms(&[a, b]), hash_terms(&[b, a]));
        assert_ne!(hash_terms(&[a]), hash_terms(&[a, a]));
        assert_eq!(hash_terms(&[a, b]), hash_terms(&[a, b]));
    }

    #[test]
    fn atom_hash_distinguishes_predicates() {
        let a = Term::Const(ConstId(1));
        assert_ne!(hash_atom(PredId(0), &[a]), hash_atom(PredId(1), &[a]));
    }

    #[test]
    fn fx_hasher_is_usable_in_std_maps() {
        let mut m: FxHashMap<Term, u32> = FxHashMap::default();
        m.insert(Term::Const(ConstId(3)), 7);
        assert_eq!(m.get(&Term::Const(ConstId(3))), Some(&7));
    }

    /// Drives a table through inserts and rehashes, checking membership
    /// against the inserted keys and hint resumption after a miss.
    #[test]
    fn bucketized_layout_membership_survives_growth() {
        let mut table = TagTable::new();
        let mut hashes: Vec<u64> = Vec::new();
        let key_hash = |k: u64| {
            let h = fold(fold(0, 1), k);
            h ^ (h >> 32)
        };
        let mut keys: Vec<u64> = Vec::new();
        for k in 0..5_000u64 {
            let h = key_hash(k);
            table.reserve_one(&hashes);
            match table.probe(h, |ord| keys[ord as usize] == k) {
                TagProbe::Vacant(slot) => {
                    let ord = keys.len() as u32;
                    keys.push(k);
                    hashes.push(h);
                    table.fill(slot, h, ord);
                }
                TagProbe::Found(_) => panic!("key {k} inserted twice"),
            }
        }
        assert_eq!(table.len(), 5_000);
        assert!(table.load_factor() < 0.75);
        for k in 0..6_000u64 {
            let found = table.find(key_hash(k), |ord| keys[ord as usize] == k);
            assert_eq!(found.is_some(), k < 5_000, "key {k}");
            if let Some(ord) = found {
                assert_eq!(keys[ord as usize], k);
            }
        }
        // Hint resumption: locate a missing key, then fill its slot and
        // re-probe from the hint — must find the new entry or a vacant
        // slot further along, never a stale result.
        let h = key_hash(99_999);
        let TagProbe::Vacant(slot) = table.locate(h, |_| false) else {
            panic!("missing key located as found");
        };
        table.reserve_one(&hashes);
        // reserve_one may have rehashed; re-locate if capacity changed.
        let slot = match table.probe_at(slot, h, |_| false) {
            TagProbe::Vacant(s) => s,
            TagProbe::Found(_) => unreachable!(),
        };
        keys.push(99_999);
        hashes.push(h);
        table.fill(slot, h, (keys.len() - 1) as u32);
        assert!(table.find(h, |ord| keys[ord as usize] == 99_999).is_some());
    }

    #[test]
    fn cache_lines_are_64_byte_aligned() {
        assert_eq!(std::mem::size_of::<CacheLine>(), 64);
        assert_eq!(std::mem::align_of::<CacheLine>(), 64);
        let t = TagTable::new();
        assert_eq!(t.slot_count(), 0);
        assert_eq!(t.heap_bytes(), 0);
    }
}
