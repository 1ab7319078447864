//! Allocation-free deduplication of term tuples.
//!
//! The chase considers far more triggers than it fires — in late rounds
//! nearly every enumerated homomorphism repeats a frontier image that has
//! fired before. The seed implementation boxed a `Box<[Term]>` key per
//! trigger *considered*, making duplicates (the overwhelming majority) as
//! expensive as novelties. [`TermTupleSet`] instead hashes the candidate
//! tuple in place and stores accepted tuples in one chunked term arena:
//! membership tests allocate nothing, and insertions only append to the
//! arena (amortized, no per-key boxes).
//!
//! # Memory locality
//!
//! The index is **hash-partitioned** into [`PARTITIONS`] independent
//! [`TagTable`]s selected by high hash bits (disjoint from both the
//! table's bucket-index bits and its tag bits). Batch probes
//! ([`TermTupleSet::insert_batch`] / [`TermTupleSet::locate_batch`]) bin
//! their rows per partition and walk one partition at a time with
//! distance-k software prefetch, so consecutive probes share a working
//! set a quarter the size and the misses overlap instead of serializing.
//! Partitioning is invisible to observable behavior: a tuple's partition
//! is a pure function of its hash, and rows keep their original order
//! *within* a partition, so first-occurrence-wins among in-batch
//! duplicates (always same-partition) is preserved and results are
//! reported in row order.
//!
//! Collision safety: the open-addressing tables store tuple ordinals; a
//! 64-bit hash match is always verified against the arena before a tuple
//! is treated as present.

use nuchase_model::chunk::ChunkedArena;
use nuchase_model::hash::{
    hash_terms, partition as part, TagProbe, TagTable, PARTITIONS, PREFETCH_DIST,
};
use nuchase_model::Term;

/// Filler for chunk-boundary padding in the tuple arena (never reachable
/// through a tuple range).
const PAD_TERM: Term = Term::Const(nuchase_model::ConstId(0));

/// Row indexes of a batch binned per partition, in row order within
/// each bin.
fn bins(hashes: &[u64]) -> [Vec<u32>; PARTITIONS] {
    let mut bins: [Vec<u32>; PARTITIONS] = Default::default();
    for (i, &h) in hashes.iter().enumerate() {
        bins[part(h)].push(i as u32);
    }
    bins
}

/// A grow-only set of term tuples with in-place hashing and arena
/// storage. Tuples of different lengths may coexist. The index is a set
/// of hash-partitioned [`TagTable`]s, so a probe touches a single cache
/// line before verification against the arena.
#[derive(Debug, Clone)]
pub struct TermTupleSet {
    /// Hash-partitioned open-addressing index over the tuples.
    tables: [TagTable; PARTITIONS],
    /// Hash of tuple `i` (memoized for growth).
    hashes: Vec<u64>,
    /// Tuple `i` occupies `terms.get(starts[i], ends[i] - starts[i])`.
    starts: Vec<u32>,
    /// End (exclusive) of tuple `i` — separate from `starts` because
    /// chunk-boundary padding can leave gaps between tuples.
    ends: Vec<u32>,
    /// The chunked tuple arena.
    terms: ChunkedArena<Term>,
    /// Per-partition slots filled since the last [`TermTupleSet::clear`],
    /// so a clear of a sparsely used set costs O(inserted), not
    /// O(capacity) — a recycled per-task arena must not make every tiny
    /// round pay for the one wide round that grew its table.
    touched: [Vec<u32>; PARTITIONS],
    /// Set when a rehash scattered a partition's entries to untracked
    /// slots; the next clear of that partition falls back to the full
    /// O(capacity) wipe (amortized by the inserts that forced growth).
    dense: [bool; PARTITIONS],
}

impl Default for TermTupleSet {
    fn default() -> Self {
        TermTupleSet {
            tables: Default::default(),
            hashes: Vec::new(),
            starts: Vec::new(),
            ends: Vec::new(),
            terms: ChunkedArena::new(PAD_TERM),
            touched: Default::default(),
            dense: [false; PARTITIONS],
        }
    }
}

impl TermTupleSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct tuples stored.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Heap bytes held by the probe tables and arenas (capacities, not
    /// lengths). Memory accounting for chase telemetry.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.tables.iter().map(TagTable::heap_bytes).sum::<usize>()
            + self.hashes.capacity() * size_of::<u64>()
            + self.starts.capacity() * size_of::<u32>()
            + self.ends.capacity() * size_of::<u32>()
            + self.terms.heap_bytes()
            + self
                .touched
                .iter()
                .map(|t| t.capacity() * size_of::<u32>())
                .sum::<usize>()
    }

    fn tuple(&self, ordinal: u32) -> &[Term] {
        let i = ordinal as usize;
        self.terms
            .get(self.starts[i], self.ends[i] - self.starts[i])
    }

    /// Membership test (no mutation, no allocation).
    pub fn contains(&self, tuple: &[Term]) -> bool {
        self.contains_hashed(tuple, hash_terms(tuple))
    }

    /// [`TermTupleSet::contains`] with a caller-computed [`hash_terms`]
    /// hash — the batch enumeration's emit loop hashes each frontier key
    /// once and probes both the fired set and the round dedup with it.
    pub fn contains_hashed(&self, tuple: &[Term], hash: u64) -> bool {
        debug_assert_eq!(hash, hash_terms(tuple), "caller-computed hash");
        self.tables[part(hash)]
            .find(hash, |ordinal| self.tuple(ordinal) == tuple)
            .is_some()
    }

    /// Hints the CPU to fetch the index line a probe for `hash` would
    /// touch first (see [`TagTable::prefetch`]); pair with a later
    /// [`TermTupleSet::contains_hashed`] / [`TermTupleSet::insert_hashed`]
    /// for the same hash.
    #[inline]
    pub fn prefetch(&self, hash: u64) {
        self.tables[part(hash)].prefetch(hash);
    }

    /// Empties the set, keeping the tables and arena allocations — the
    /// recycling path for per-task dedup in the enumerators.
    /// Costs O(tuples inserted since the last clear) unless a rehash
    /// intervened (then one O(capacity) wipe per grown partition).
    pub fn clear(&mut self) {
        for p in 0..PARTITIONS {
            if self.dense[p] {
                self.tables[p].clear();
                self.dense[p] = false;
            } else {
                self.tables[p].clear_sparse(&self.touched[p]);
            }
            self.touched[p].clear();
        }
        self.hashes.clear();
        self.starts.clear();
        self.ends.clear();
        self.terms.clear();
    }

    /// Inserts a tuple; returns `true` if it was new. Duplicates allocate
    /// nothing; novelties append to the arena.
    pub fn insert(&mut self, tuple: &[Term]) -> bool {
        self.insert_hashed(tuple, hash_terms(tuple))
    }

    /// Discards every tuple inserted at ordinal `>= len`, rebuilding the
    /// probe tables over the surviving prefix.
    ///
    /// This is the rollback half of a chase session's *mid-round stop
    /// recovery*: when a hard budget stops a round mid-apply, the fired
    /// sets already hold the keys of accepted-but-unfired triggers
    /// (the merge — eager or staged — commits keys before the commit
    /// loop runs). Resuming such a session must first roll the sets back
    /// to their round-start watermarks, or the unfired triggers would be
    /// skipped forever. Tuples are arena-ordered by insertion, so the
    /// rollback target is exactly a prefix — the arena rolls back to the
    /// surviving suffix's end even when that sits just past a chunk seam.
    /// The O(len) table rebuild runs at most once per resumed run.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        self.hashes.truncate(len);
        self.starts.truncate(len);
        self.ends.truncate(len);
        let mark = self.ends.last().copied().unwrap_or(0);
        self.terms.truncate_to(mark);
        for p in 0..PARTITIONS {
            self.tables[p] = TagTable::new();
            self.touched[p].clear();
            self.dense[p] = true; // rebuilt slots are untracked: next clear wipes fully
        }
        for id in 0..len {
            let hash = self.hashes[id];
            let p = part(hash);
            self.tables[p].reserve_one(&self.hashes);
            // Tuples are distinct by construction, so probing only for a
            // vacant slot (eq always false) reinserts them faithfully.
            match self.tables[p].probe(hash, |_| false) {
                TagProbe::Vacant(slot) => self.tables[p].fill(slot, hash, id as u32),
                TagProbe::Found(_) => unreachable!("probe eq is constant false"),
            }
        }
    }

    /// [`TermTupleSet::insert`] with a caller-computed [`hash_terms`]
    /// hash — the chase's fused micro-round hashes a trigger key once
    /// and reuses it for both the fired-set probe and the null name.
    pub fn insert_hashed(&mut self, tuple: &[Term], hash: u64) -> bool {
        debug_assert_eq!(hash, hash_terms(tuple), "caller-computed hash");
        let p = part(hash);
        // Grow first so the vacant slot found by the probe stays valid.
        let slots_before = self.tables[p].slot_count();
        self.tables[p].reserve_one(&self.hashes);
        if self.tables[p].slot_count() != slots_before {
            self.dense[p] = true;
            self.touched[p].clear();
        }
        let vacant = {
            let (terms, starts, ends) = (&self.terms, &self.starts, &self.ends);
            let eq = |ordinal: u32| {
                let i = ordinal as usize;
                terms.get(starts[i], ends[i] - starts[i]) == tuple
            };
            match self.tables[p].probe(hash, eq) {
                TagProbe::Found(_) => return false,
                TagProbe::Vacant(slot) => slot,
            }
        };
        let ordinal = self.hashes.len() as u32;
        let start = self.terms.push_slice(tuple);
        self.starts.push(start);
        self.ends.push(start + tuple.len() as u32);
        self.hashes.push(hash);
        self.tables[p].fill(vacant, hash, ordinal);
        if !self.dense[p] {
            self.touched[p].push(vacant as u32);
        }
        true
    }

    /// Batched [`TermTupleSet::insert_hashed`] over `hashes.len()` equal-
    /// width rows (row `i` is `tuples[i*width..(i+1)*width]`): rows are
    /// binned per partition and each bin is walked with distance-k
    /// prefetch, so the probe misses overlap. `accepted[i]` reports
    /// whether row `i` inserted — exactly what a sequential
    /// `insert_hashed` loop would have reported, duplicates included
    /// (within-partition row order is preserved, and in-batch duplicates
    /// always share a partition). Returns the number of probes issued
    /// (i.e. rows), for the batched-probe telemetry gauge.
    pub fn insert_batch(
        &mut self,
        tuples: &[Term],
        width: usize,
        hashes: &[u64],
        accepted: &mut Vec<bool>,
    ) -> usize {
        let n = hashes.len();
        debug_assert_eq!(tuples.len(), n * width);
        accepted.clear();
        accepted.resize(n, false);
        for bin in &bins(hashes) {
            for (k, &i) in bin.iter().enumerate() {
                if let Some(&j) = bin.get(k + PREFETCH_DIST) {
                    self.prefetch(hashes[j as usize]);
                }
                let i = i as usize;
                let row = &tuples[i * width..(i + 1) * width];
                accepted[i] = self.insert_hashed(row, hashes[i]);
            }
        }
        n
    }

    /// Batched membership probe, same row layout and binning as
    /// [`TermTupleSet::insert_batch`]; `present[i]` reports membership of
    /// row `i`. Returns the number of probes issued.
    pub fn locate_batch(
        &self,
        tuples: &[Term],
        width: usize,
        hashes: &[u64],
        present: &mut Vec<bool>,
    ) -> usize {
        let n = hashes.len();
        debug_assert_eq!(tuples.len(), n * width);
        present.clear();
        present.resize(n, false);
        for bin in &bins(hashes) {
            for (k, &i) in bin.iter().enumerate() {
                if let Some(&j) = bin.get(k + PREFETCH_DIST) {
                    self.prefetch(hashes[j as usize]);
                }
                let i = i as usize;
                let row = &tuples[i * width..(i + 1) * width];
                present[i] = self.contains_hashed(row, hashes[i]);
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuchase_model::hash::hash_terms;
    use nuchase_model::{ConstId, NullId};

    fn c(i: u32) -> Term {
        Term::Const(ConstId(i))
    }

    #[test]
    fn insert_and_contains() {
        let mut set = TermTupleSet::new();
        assert!(set.insert(&[c(0), c(1)]));
        assert!(!set.insert(&[c(0), c(1)]));
        assert!(set.insert(&[c(1), c(0)]));
        assert!(set.contains(&[c(0), c(1)]));
        assert!(!set.contains(&[c(0), c(2)]));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn empty_tuple_and_mixed_lengths() {
        let mut set = TermTupleSet::new();
        assert!(set.insert(&[]));
        assert!(!set.insert(&[]));
        assert!(set.insert(&[c(0)]));
        assert!(set.insert(&[c(0), c(0)]));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn clear_recycles_the_arena() {
        let mut set = TermTupleSet::new();
        assert!(set.insert(&[c(0), c(1)]));
        set.clear();
        assert!(set.is_empty());
        assert!(!set.contains(&[c(0), c(1)]));
        assert!(set.insert(&[c(0), c(1)]));
        assert!(!set.insert(&[c(0), c(1)]));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn sparse_clear_survives_growth_and_reuse() {
        // Grow the tables well past their initial capacity (dense clear
        // path), then cycle through many small clear/insert rounds (the
        // sparse path) — membership must stay exact throughout. The
        // debug assertion in TagTable::clear_sparse checks that no slot
        // is ever left behind.
        let mut set = TermTupleSet::new();
        for i in 0..5_000 {
            assert!(set.insert(&[c(i)]));
        }
        for round in 0..100u32 {
            set.clear();
            assert!(set.is_empty());
            for i in 0..3 {
                assert!(set.insert(&[c(round), c(i)]), "round {round} item {i}");
                assert!(!set.insert(&[c(round), c(i)]));
            }
            assert!(!set.contains(&[c(round + 1), c(0)]));
        }
    }

    #[test]
    fn truncate_rolls_back_to_a_prefix() {
        let mut set = TermTupleSet::new();
        for i in 0..300 {
            assert!(set.insert(&[c(i), c(i + 1)]));
        }
        set.truncate(100);
        assert_eq!(set.len(), 100);
        for i in 0..300 {
            assert_eq!(set.contains(&[c(i), c(i + 1)]), i < 100, "tuple {i}");
        }
        // Truncated tuples re-insert as new ordinals; survivors stay.
        for i in 0..300 {
            assert_eq!(set.insert(&[c(i), c(i + 1)]), i >= 100, "tuple {i}");
        }
        assert_eq!(set.len(), 300);
        // Truncation to zero and no-op truncations behave.
        set.truncate(1000);
        assert_eq!(set.len(), 300);
        set.truncate(0);
        assert!(set.is_empty());
        assert!(set.insert(&[c(0), c(1)]));
        // Clear after a truncation-forced rebuild still wipes fully.
        set.clear();
        assert!(!set.contains(&[c(0), c(1)]));
    }

    #[test]
    fn survives_growth() {
        let mut set = TermTupleSet::new();
        for i in 0..10_000 {
            assert!(set.insert(&[c(i), Term::Null(NullId(i))]));
        }
        for i in 0..10_000 {
            assert!(!set.insert(&[c(i), Term::Null(NullId(i))]));
        }
        assert_eq!(set.len(), 10_000);
    }

    #[test]
    fn insert_batch_matches_sequential_inserts() {
        // The binned batch path must report exactly what a row-order
        // insert loop reports — in-batch duplicates included — and leave
        // an identical set behind.
        let mut batched = TermTupleSet::new();
        let mut sequential = TermTupleSet::new();
        sequential.insert(&[c(7), c(8)]); // pre-existing tuple
        batched.insert(&[c(7), c(8)]);
        let rows: Vec<[Term; 2]> = (0..500u32)
            .map(|i| [c(i % 200), c((i % 200) + 1)]) // plenty of duplicates
            .chain(std::iter::once([c(7), c(8)]))
            .collect();
        let flat: Vec<Term> = rows.iter().flatten().copied().collect();
        let hashes: Vec<u64> = rows.iter().map(|r| hash_terms(r)).collect();
        let mut accepted = Vec::new();
        let probes = batched.insert_batch(&flat, 2, &hashes, &mut accepted);
        assert_eq!(probes, rows.len());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                accepted[i],
                sequential.insert_hashed(row, hashes[i]),
                "row {i}"
            );
        }
        assert_eq!(batched.len(), sequential.len());
        for row in &rows {
            assert!(batched.contains(row));
        }
    }

    #[test]
    fn locate_batch_matches_contains() {
        let mut set = TermTupleSet::new();
        for i in 0..100u32 {
            set.insert(&[c(i)]);
        }
        let rows: Vec<[Term; 1]> = (50..150u32).map(|i| [c(i)]).collect();
        let flat: Vec<Term> = rows.iter().flatten().copied().collect();
        let hashes: Vec<u64> = rows.iter().map(|r| hash_terms(r)).collect();
        let mut present = Vec::new();
        set.locate_batch(&flat, 1, &hashes, &mut present);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(present[i], set.contains(row), "row {i}");
        }
        assert_eq!(present.iter().filter(|&&p| p).count(), 50);
    }

    #[test]
    fn truncate_rolls_back_across_a_chunk_seam() {
        // Wide tuples march the arena across many chunk boundaries; a
        // truncation whose surviving prefix ends near a seam must keep
        // every survivor findable and re-admit every casualty.
        let wide: Vec<Term> = (0..64).map(c).collect();
        let mut set = TermTupleSet::new();
        for i in 0..3000u32 {
            let mut t = wide.clone();
            t[0] = c(i);
            assert!(set.insert(&t));
        }
        set.truncate(1500);
        for i in 0..3000u32 {
            let mut t = wide.clone();
            t[0] = c(i);
            assert_eq!(set.contains(&t), i < 1500, "tuple {i}");
            assert_eq!(set.insert(&t), i >= 1500, "tuple {i}");
        }
        assert_eq!(set.len(), 3000);
    }
}
